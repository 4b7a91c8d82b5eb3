"""Text I/O shared by every command: one input reader, which parses a
regular file in bulk and falls back to one line reader for any other file
or any file the bulk parse rejects, one node-table reader, one stream
opener, and one writer that turns numbers into text.  write_rows formats
the data rows of every table (write_csv), edge list and simulate trajectory
(state_writer, which hands it one state at a time with each node's ``i,``
formatted once per file).
Files are UTF-8 with ``\\n`` line endings; a CSV is the header line, then
the data rows.  Ints are written in decimal, floats as Python's shortest
round-trip repr (``1e-05``, ``0.0001``, ``1e+16``, ``5e-324``).  When the
columns after the first are numpy arrays, each run of rows that repeat them
is formatted once and written as one join, so a table's cost scales with
its runs (one per state of a homogeneous simulation) rather than with its
rows; the bytes are the same either way.  A trajectory's states of distinct
values (a heterogeneous simulation) are formatted on two CPUs where the
process has them: state_writer forks one helper process at the first such
state, which formats every other chunk while state_writer formats the rest
and writes them all in file order.
"""

from __future__ import annotations

import contextlib
import os
import stat
import sys
import warnings
from array import array
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, TextIO, TypeVar

if TYPE_CHECKING:
    import numpy as np

_T = TypeVar("_T")

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


def read_input(path, bulk: Callable[[TextIO], _T], per_line: Callable[[TextIO], _T]) -> _T:
    """Read the input file at ``path`` as UTF-8 text (a leading byte-order
    mark skipped).  A regular file goes to ``bulk(fh)`` first, warnings
    raised as errors; where that raises ValueError, OverflowError or a
    warning, the file goes to ``per_line(fh)`` from its start, which names
    the first fault (any other exception propagates).  Any other file (a
    FIFO, /dev/stdin) cannot be read twice and goes to ``per_line`` alone."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")  # among them "input contained no data"
                    return bulk(fh)
            except (ValueError, OverflowError, Warning):
                fh.seek(0)
        return per_line(fh)


def bulk_rows(fh: TextIO, dtype: np.dtype, sep: str | None = None) -> np.ndarray:
    """The rest of the open text file ``fh`` parsed by numpy's C reader
    (np.loadtxt) as a 1-d array of the structured ``dtype``, one entry per
    line that is not blank, fields split on ``sep`` (None: whitespace) and
    ``#`` no comment.  A file with no row, or a row it cannot parse into
    ``dtype`` exactly (a wrong field count, a number it does not take),
    raises ValueError or warns (as numpy before 2.0 does on ``1.0`` for an
    int): under read_input, either sends the file to the per-line reader."""
    import numpy as np

    return np.loadtxt(fh, dtype=dtype, delimiter=sep, comments=None, ndmin=1)


def read_node_table(path, columns: tuple[str, ...], n: int) -> tuple[np.ndarray, int]:
    """Read the CSV ``node,<columns>`` at ``path`` into an ``(n, len(columns))``
    float array whose row ``i`` is node ``i`` (0 if unlisted), and return it
    with the number of rows read.  Every node id must lie in ``0..n-1`` and
    not repeat an earlier line's.

    A regular file whose first line is the header is parsed in bulk (see
    bulk_rows) and checked as a whole, raising ValueError (see read_input)
    on a bad header, an id outside ``0..n-1`` or a repeated id.  Any other
    file, and one the bulk path rejects, is read line by line, each data
    line checked as it is read: its field count, its numbers, then its node
    id.  The first fault in the file raises ValueError naming its line, so
    both paths take the same files to the same table."""
    import numpy as np  # here, so that the enum commands start without numpy

    header = ",".join(("node", *columns))
    row = np.dtype([("node", np.int64), ("v", np.float64, (len(columns),))])

    def bulk(fh: TextIO) -> tuple[np.ndarray, int]:
        if fh.readline().strip() != header:
            raise ValueError("no header")
        rows = bulk_rows(fh, row, ",")
        ids = rows["node"]
        if ids.min() < 0 or ids.max() >= n:
            raise ValueError("node id out of range")
        seen = np.zeros(n, dtype=bool)
        seen[ids] = True
        if np.count_nonzero(seen) < ids.size:
            raise ValueError("repeated node id")
        table = np.zeros((n, len(columns)))
        table[ids] = rows["v"]
        return table, ids.size

    return read_input(path, bulk, lambda fh: _read_node_lines(fh, columns, n))


def _read_node_lines(fh: TextIO, columns: tuple[str, ...], n: int) -> tuple[np.ndarray, int]:
    """read_node_table line by line: the bulk path's referee and fallback."""
    import numpy as np

    header = ["node", *columns]
    seen = bytearray(n)
    ids = array("q")
    put_id = ids.append
    values = array("d")
    put = values.append
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
        if not 0 <= i < n:
            raise ValueError(f"line {lineno}: node id {i} is not in 0..n-1 for n={n}")
        if seen[i]:
            raise ValueError(f"line {lineno}: duplicate node id {i}")
        seen[i] = 1
        put_id(i)
    table = np.zeros((n, len(columns)))
    table[np.frombuffer(ids, dtype=np.int64)] = np.frombuffer(values).reshape(-1, len(columns))
    return table, len(ids)


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
    others = columns[1:]
    arrays = others and all(getattr(c, "dtype", None) in ("float64", "int64") for c in others)
    _write_block(fh, row, columns, _run_starts(others, n) if arrays else None)


def _write_block(fh, row: str, columns, starts) -> None:
    """write_rows' two paths: by the runs that start at ``starts``, or, when
    it is None, by one ``%`` per chunk."""
    n = len(columns[0])
    if starts is None:
        for a in range(0, n, CSV_CHUNK):
            fh.write(_format_chunk(row, columns, a, min(a + CSV_CHUNK, n)))
        return
    first, *others = columns
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


def _format_chunk(row: str, columns, a: int, b: int) -> str:
    """Rows ``a:b`` of ``columns``, formatted by one ``%``."""
    width = len(columns)
    chunk = [None] * ((b - a) * width)
    for j, c in enumerate(columns):
        chunk[j::width] = _entries(c, a, b)
    return (row * (b - a)) % tuple(chunk)


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
    the float64 array ``p`` as write_rows would, with the n prefixes ``i,``
    formatted once per file.  A state whose length is not n raises
    ValueError; if the body raises, the file is deleted.

    A state of more than CSV_CHUNK rows that write_rows would format row by
    row is formatted on two CPUs where the process may fork and run on more
    than one: put forks a helper (see _Helper) at the first such state, and
    writes every chunk itself, in file order and at most CSV_CHUNK rows a
    write, so the bytes are the same.  put raises OSError if the helper
    dies.  However the writer closes, the helper is killed and reaped."""
    nodes = [f"{i}," for i in range(n)]
    # a helper is worth a fork only with a second chunk and a second CPU
    spare_cpu = hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) > 1
    helper = None if n > CSV_CHUNK and hasattr(os, "fork") and spare_cpu else False
    with open_output(path) as fh:
        fh.write("t,node,p\n")

        def put(t: int, p: np.ndarray) -> None:
            nonlocal helper
            if len(p) != n:
                raise ValueError(f"a state of {len(p)} entries for {n} nodes")
            row, starts = f"{t},%s%s\n", _run_starts((p,), n)
            if starts is None and helper is None:
                try:
                    helper = _Helper(nodes)
                except OSError:  # no process to spare: format alone
                    helper = False
            if starts is None and helper:
                helper.write(fh, row, p)
            else:
                _write_block(fh, row, (nodes, p), starts)

        try:
            yield put
        finally:
            if helper:
                helper.close()


class _Helper:
    """A forked process that formats the odd CSV_CHUNK chunks of each state
    it is sent while put formats the even ones.  A state goes down one pipe
    as its row format's length (8 bytes), the format and its float64 values;
    each chunk comes back up the other as its length (8 bytes) and text.
    The fork is safe although numpy's BLAS may have started threads (Python
    3.12 warns of any fork in a threaded process): the helper formats str
    and ``array`` objects only, calls no numpy or BLAS, and leaves by
    os._exit, so it flushes no buffer and runs no exit handler it inherited."""

    def __init__(self, nodes: list[str]):
        self.nodes = nodes
        down_r, down_w = os.pipe()
        up_r, up_w = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            for fd in (down_r, down_w, up_r, up_w):
                os.close(fd)
            raise
        if self.pid == 0:
            try:
                os.close(down_w)
                os.close(up_r)
                _serve(nodes, open(down_r, "rb"), open(up_w, "wb"))
            finally:
                os._exit(0)
        os.close(down_r)
        os.close(up_w)
        self.down, self.up = open(down_w, "wb"), open(up_r, "rb")

    def write(self, fh, row: str, p: np.ndarray) -> None:
        """Write the state ``p`` with ``row`` to ``fh``, formatting its even
        chunks here while the helper formats the odd ones."""
        head = row.encode()
        self.down.write(len(head).to_bytes(8, "little") + head)
        self.down.write(p if p.flags.c_contiguous else p.copy())
        self.down.flush()
        n = len(p)
        for a in range(0, n, CSV_CHUNK):
            if a % (2 * CSV_CHUNK):
                size = int.from_bytes(self.up.read(8), "little")
                text = self.up.read(size)
                if not text or len(text) != size:
                    raise OSError("the trajectory formatting process exited")
                fh.write(text.decode())
            else:
                fh.write(_format_chunk(row, (self.nodes, p), a, min(a + CSV_CHUNK, n)))

    def close(self) -> None:
        import signal

        os.kill(self.pid, signal.SIGKILL)
        os.waitpid(self.pid, 0)
        self.up.close()
        with contextlib.suppress(OSError):  # the unsent part of a state put gave up on
            self.down.close()


def _serve(nodes: list[str], down, up) -> None:
    """The helper's loop: format the odd chunks of each state read from
    ``down`` and write them to ``up``, until ``down`` ends."""
    n = len(nodes)
    while size := down.read(8):
        row = down.read(int.from_bytes(size, "little")).decode()
        state = array("d", down.read(8 * n))
        for a in range(CSV_CHUNK, n, 2 * CSV_CHUNK):
            text = _format_chunk(row, (nodes, state), a, min(a + CSV_CHUNK, n)).encode()
            up.write(len(text).to_bytes(8, "little") + text)
            up.flush()
