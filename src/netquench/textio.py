"""Text I/O shared by every command: one line reader and one node-table
reader for every input file, one stream opener, and two writers that turn
numbers into text.  write_rows formats the data rows of every table
(write_csv) and edge list; state_writer writes simulate's ``t,node,p``
trajectory, one state at a time, with the bytes write_rows would give.
Files are UTF-8 with ``\\n`` line endings; a CSV is the header line, then
the data rows.  Ints are written in decimal, floats as Python's shortest
round-trip repr (``1e-05``, ``0.0001``, ``1e+16``, ``5e-324``).  A float64
array is formatted once per run of equal entries, so its cost scales with
the number of runs (one per state of a homogeneous simulation) rather than
with its length; the bytes are the same either way.
"""

from __future__ import annotations

import contextlib
import operator
import os
import stat
import sys
from itertools import chain, islice, repeat
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
    linenos: list[int] = []
    ids: list[int] = []
    values: list[float] = []
    with open(path, "r", encoding="utf-8") as fh:
        lines = data_lines(fh, ",")
        lineno, fields = next(lines, (1, None))
        if fields is None or [f.strip() for f in fields] != header:
            raise ValueError(f"line {lineno}: expected header {','.join(header)!r}")
        for lineno, fields in lines:
            if len(fields) != len(header):
                raise ValueError(f"line {lineno}: expected {len(header)} fields, got {len(fields)}")
            try:
                ids.append(int(fields[0]))
                for x in fields[1:]:  # faster than map() for a few fields
                    values.append(float(x))
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
            linenos.append(lineno)
    n = len(ids) if n is None else n
    seen = bytearray(n)
    for lineno, i in zip(linenos, ids):
        if not 0 <= i < n:
            raise ValueError(f"line {lineno}: node id {i} is not in 0..n-1 for n={n}")
        if seen[i]:
            raise ValueError(f"line {lineno}: duplicate node id {i}")
        seen[i] = 1
    table = np.zeros((n, len(columns)))
    table[ids] = np.reshape(values, (-1, len(columns)))
    return table


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


def _run_starts(c) -> np.ndarray | None:
    """The index of the first entry of each run of equal entries of the
    float64 array ``c``, or None when more than half the entries start a run
    (formatting each entry then costs less).  Runs compare bit patterns, read
    as int64 (a uint64 compare would page in 64 kB more of numpy), so 0.0 and
    -0.0 or two NaN payloads never merge."""
    import numpy as np

    bits = c.view(np.int64)
    starts = bits[1:] != bits[:-1]
    if 2 * (np.count_nonzero(starts) + 1) > c.size:
        return None
    return np.flatnonzero(np.concatenate(([True], starts)))


def _column_values(c) -> Iterable:
    """What ``%s`` formats for column ``c``: a list or iterator as it is, any
    other array as its ``tolist()``.  A float64 array with few runs (see
    _run_starts) gives the repr of the first entry of each run, repeated over
    the run."""
    if getattr(c, "dtype", None) != "float64":
        return c.tolist() if hasattr(c, "tolist") else c
    import numpy as np

    firsts = _run_starts(c)
    if firsts is None:
        return c.tolist()
    lengths = np.diff(firsts, append=c.size)
    return chain.from_iterable(map(repeat, map(repr, c[firsts].tolist()), lengths.tolist()))


def write_rows(fh, row: str, block: tuple) -> None:
    """Write the rows of ``block`` to the open text stream ``fh``.  A block
    is a tuple of equal-length columns (numpy arrays, ranges, lists,
    iterators; see _column_values); row ``k`` is ``row``, a format with one
    ``%s`` per column, applied to entry ``k`` of each column.  Rows are
    formatted CSV_CHUNK at a time, by one ``%`` per chunk."""
    columns = [_column_values(c) for c in block]
    width = len(columns)
    values = chain.from_iterable(zip(*columns, strict=True))
    while chunk := tuple(islice(values, CSV_CHUNK * width)):
        fh.write((row * (len(chunk) // width)) % chunk)


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
    the float64 state ``p``: the bytes write_rows gives the block
    ``(repeat(t, n), range(n), p)``.  The n prefixes ``i,`` are formatted once
    per file.  A state with few runs (see _run_starts) is cut at each run and
    each CSV_CHUNK rows, and a piece of value ``v`` is one join of its
    prefixes; any other state is written CSV_CHUNK rows per join of prefix +
    repr.  So the text held at once is one chunk's.  A state whose length is
    not n raises ValueError; if the body raises, the file is deleted."""
    import numpy as np

    nodes = [f"{i}," for i in range(n)]
    chunk_starts = np.arange(0, n, CSV_CHUNK)
    with open_output(path) as fh:
        fh.write("t,node,p\n")

        def put(t: int, p: np.ndarray) -> None:
            if len(p) != n:
                raise ValueError(f"a state of {len(p)} entries for {n} nodes")
            head = f"{t},"
            newline = "\n" + head
            starts = _run_starts(p)
            if starts is None:
                for a in range(0, n, CSV_CHUNK):
                    b = a + CSV_CHUNK
                    rows = map(operator.add, nodes[a:b], map(repr, p[a:b].tolist()))
                    fh.write(head + newline.join(rows) + "\n")
                return
            cuts = np.union1d(starts, chunk_starts)
            per_chunk = np.diff(np.searchsorted(cuts, chunk_starts), append=cuts.size)
            values = map(repr, p[cuts].tolist())
            cuts = cuts.tolist()
            pieces = (head + (v + newline).join(nodes[a:b]) + v + "\n"
                      for a, b, v in zip(cuts, [*cuts[1:], n], values))
            for k in per_chunk.tolist():
                fh.write("".join(islice(pieces, k)))

        yield put
