"""Text I/O shared by every command: one line reader and one node-table
reader for every input file, one stream opener, and one writer that turns
numbers into text.  write_rows formats the data rows of every table
(write_csv), edge list and simulate trajectory (state_writer, which hands it
one state at a time with each node's ``i,`` formatted once per file).
Files are UTF-8 with ``\\n`` line endings; a CSV is the header line, then
the data rows.  Ints are written in decimal, floats as Python's shortest
round-trip repr (``1e-05``, ``0.0001``, ``1e+16``, ``5e-324``).  When the
columns after the first are numpy arrays, each run of rows that repeat them
is formatted once and written as one join, so a table's cost scales with
its runs (one per state of a homogeneous simulation) rather than with its
rows; the bytes are the same either way.
"""

from __future__ import annotations

import contextlib
import os
import stat
import sys
from array import array
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, TextIO

if TYPE_CHECKING:
    import numpy as np

# Rows a writer formats with one ``%`` or join and one write: enough to
# spread the per-call cost, few enough to bound the text held at once.
CSV_CHUNK = 256


def data_lines(lines: Iterable[str], sep: str | None = None) -> Iterator[tuple[int, list[str]]]:
    """Yield ``(lineno, fields)`` for each line of ``lines`` (an open file or
    ``text.splitlines()``) that is neither blank nor a ``#`` comment once
    stripped, split on ``sep`` (None: whitespace).  Lines count from 1."""
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if line and line[0] != "#":
            yield lineno, line.split(sep)


def read_node_table(path, columns: tuple[str, ...], n: int | None = None) -> np.ndarray:
    """Read the CSV ``node,<columns>`` at ``path`` into an ``(n, len(columns))``
    float array whose row ``i`` is node ``i`` (0 if unlisted).  Node ids lie
    in ``0..n-1``, each at most once; ``n`` defaults to the row count."""
    import numpy as np  # here, so that the enum commands start without numpy

    header = ["node", *columns]
    linenos = array("q")
    put_lineno = linenos.append
    ids = array("q")
    put_id = ids.append
    beyond: dict[int, int] = {}  # row -> an id beyond int64, which ids holds as -1
    values = array("d")
    put = values.append
    with open(path, "r", encoding="utf-8-sig") as fh:
        lines = data_lines(fh, ",")
        lineno, fields = next(lines, (1, None))
        if fields is None or [f.strip() for f in fields] != header:
            raise ValueError(f"line {lineno}: expected header {','.join(header)!r}")
        for lineno, fields in lines:
            if len(fields) != len(header):
                raise ValueError(f"line {lineno}: expected {len(header)} fields, got {len(fields)}")
            try:
                i = int(fields[0])
                for x in fields[1:]:  # faster than map() for a few fields
                    put(float(x))
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
            try:
                put_id(i)
            except OverflowError:
                beyond[len(ids)] = i
                put_id(-1)
            put_lineno(lineno)
    n = len(ids) if n is None else n
    rows = np.frombuffer(ids, dtype=np.int64)
    seen = np.zeros(n, dtype=bool)
    if len(rows) and (rows.min() < 0 or rows.max() >= n):
        _raise_bad_id(rows, linenos, beyond, n)
    seen[rows] = True
    if np.count_nonzero(seen) < len(rows):
        _raise_bad_id(rows, linenos, beyond, n)
    table = np.zeros((n, len(columns)))
    table[rows] = np.frombuffer(values).reshape(-1, len(columns))
    return table


def _raise_bad_id(rows: np.ndarray, linenos, beyond: dict[int, int], n: int) -> None:
    """Raise ValueError for the first row k whose id, ``rows[k]`` (or
    ``beyond[k]``) read on line ``linenos[k]``, is not in 0..n-1 or repeats
    an earlier row's."""
    seen = bytearray(n)
    for k, i in enumerate(rows.tolist()):
        i = beyond.get(k, i)
        if not 0 <= i < n:
            raise ValueError(f"line {linenos[k]}: node id {i} is not in 0..n-1 for n={n}")
        if seen[i]:
            raise ValueError(f"line {linenos[k]}: duplicate node id {i}")
        seen[i] = 1


@contextlib.contextmanager
def open_output(path) -> Iterator[TextIO]:
    """A text stream writing to ``path``; ``"-"`` is stdout, and an open text
    stream is itself, both left open.  If the body raises, a regular file
    opened here is closed and deleted before the exception propagates (any
    other, such as a device, is only closed); what has already gone to
    stdout cannot be taken back.  Nest one open_output per output to make a
    command's files all-or-nothing: each is opened before any is written,
    and an error in any deletes them all."""
    if path == "-" or hasattr(path, "write"):
        yield sys.stdout if path == "-" else path
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        try:
            yield fh
        except BaseException:
            regular = stat.S_ISREG(os.fstat(fh.fileno()).st_mode)
            fh.close()
            if regular:  # never a device such as /dev/null
                os.remove(path)
            raise


def _run_starts(columns, n: int) -> np.ndarray | None:
    """The first row of each joint run of ``columns``, float64 or int64 arrays
    of ``n`` entries: row 0, every CSV_CHUNK-th row, and each row where any
    column changes its bit pattern (read as int64; a uint64 compare would page
    in 64 kB more of numpy), so 0.0 and -0.0 or two NaN payloads never merge.
    None when more than half the rows start a run (formatting row by row then
    costs less)."""
    import numpy as np

    starts = np.zeros(n, dtype=bool)
    for c in columns:
        bits = c.view(np.int64)
        starts[1:] |= bits[1:] != bits[:-1]
    starts[::CSV_CHUNK] = True
    if 2 * np.count_nonzero(starts) > n:
        return None
    return np.flatnonzero(starts)


def write_rows(fh, row: str, block: tuple) -> None:
    """Write the rows of ``block`` to the open text stream ``fh``.  A block
    is a tuple of equal-length columns (numpy arrays, ranges, lists,
    iterators; unequal lengths raise ValueError); row ``k`` is ``row``, a
    format with one ``%s`` per column and no literal ``%`` before the first,
    applied to entry ``k`` of each column (an array through ``tolist()``).
    When every column after the first is a float64 or int64 array with few
    joint runs (see _run_starts), the rest of a run's rows is one text, and
    the run is one join of its first-column texts (str entries as they are).
    Otherwise rows are formatted by one ``%`` per CSV_CHUNK rows.  The bytes
    are the same either way, and each write holds at most CSV_CHUNK rows."""
    columns = [c if hasattr(c, "__len__") else list(c) for c in block]
    n = len(columns[0])
    if any(len(c) != n for c in columns):
        raise ValueError(f"columns of {[len(c) for c in columns]} rows in one block")
    first, *others = columns
    arrays = others and all(getattr(c, "dtype", None) in ("float64", "int64") for c in others)
    starts = _run_starts(others, n) if arrays else None
    if starts is None:
        width = len(columns)
        for a in range(0, n, CSV_CHUNK):
            b = min(a + CSV_CHUNK, n)
            chunk = [None] * ((b - a) * width)
            for j, c in enumerate(columns):
                chunk[j::width] = _entries(c, a, b)
            fh.write((row * (b - a)) % tuple(chunk))
        return
    head, rest = row.split("%s", 1)
    strs = n and type(first[0]) is str
    # each chunk's first row starts a run: convert one chunk's runs at a time
    chunks = starts.searchsorted(range(0, n + CSV_CHUNK, CSV_CHUNK)).tolist()
    for lo, hi in zip(chunks, chunks[1:]):
        cuts = starts[lo:hi].tolist()
        tails = map(rest.__mod__, zip(*[c[cuts].tolist() for c in others]))
        pieces = []
        for a, b, tail in zip(cuts, [*cuts[1:], min(cuts[0] + CSV_CHUNK, n)], tails):
            texts = first[a:b] if strs else map(str, _entries(first, a, b))
            pieces.append(head + (tail + head).join(texts) + tail)
        fh.write("".join(pieces))


def _entries(column, a: int, b: int):
    """Entries ``a:b`` of ``column`` as Python objects (of an array, by tolist)."""
    part = column[a:b]
    return part.tolist() if hasattr(part, "tolist") else part


def write_csv(path, header: str, block: tuple) -> None:
    """Write the table ``block`` (see write_rows), one column per header
    field, to ``path`` (see open_output) after the header line; an empty
    string is an empty field.  If writing fails, the file is deleted."""
    width = len(header.split(","))
    if len(block) != width:
        raise ValueError(f"{len(block)} columns for the {width} fields of {header!r}")
    with open_output(path) as fh:
        fh.write(header + "\n")
        write_rows(fh, ",".join(["%s"] * width) + "\n", block)


@contextlib.contextmanager
def state_writer(path, n: int) -> Iterator[Callable[[int, np.ndarray], None]]:
    """Open ``path`` (see open_output), write the header ``t,node,p``, and
    yield ``put(t, p)``, which writes the rows ``t,i,p[i]`` for i = 0..n-1 of
    the float64 state ``p`` through write_rows, with the n prefixes ``i,``
    formatted once per file.  A state whose length is not n raises
    ValueError; if the body raises, the file is deleted."""
    nodes = [f"{i}," for i in range(n)]
    with open_output(path) as fh:
        fh.write("t,node,p\n")

        def put(t: int, p: np.ndarray) -> None:
            if len(p) != n:
                raise ValueError(f"a state of {len(p)} entries for {n} nodes")
            write_rows(fh, f"{t},%s%s\n", (nodes, p))

        yield put
