"""Text I/O shared by every command: one line reader and one node-table
reader for every input file, one stream opener, and one row writer
(write_rows) that formats the data rows of every file written: each CSV,
through csv_writer (a block at a time) or write_csv, and each edge list.
Files are UTF-8 with ``\\n`` line endings; a CSV is an optional ``# comment``
line, the header line, then the data rows.  Only write_rows turns numbers
into text: ints in decimal, floats as Python's shortest round-trip repr
(``1e-05``, ``0.0001``, ``1e+16``, ``5e-324``).  A float64 array column is
formatted once per run of equal entries, so its cost scales with the number
of runs (one per state of a homogeneous simulation) rather than with its
length; the bytes are the same either way.
"""

from __future__ import annotations

import contextlib
import os
import sys
from itertools import chain, islice, repeat
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, TextIO

if TYPE_CHECKING:
    import numpy as np

# Rows write_rows formats with one ``%`` and one write: enough to spread the
# per-call cost, few enough to bound the text held at once.
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
    stream is itself, both left open.  If the body raises, a file opened here
    is closed and deleted before the exception propagates; what has already
    gone to stdout cannot be taken back.  Nest one open_output per output to
    make a command's files all-or-nothing: each is opened before any is
    written, and an error in any deletes them all."""
    if path == "-" or hasattr(path, "write"):
        yield sys.stdout if path == "-" else path
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        try:
            yield fh
        except BaseException:
            fh.close()
            os.remove(path)
            raise


def _column_values(c) -> Iterable:
    """What ``%s`` formats for column ``c``: a list or iterator as it is, any
    other array as its ``tolist()``.  A float64 array gives the repr of the
    first entry of each run of equal entries, repeated over the run; runs
    compare bit patterns, read as int64 (a uint64 compare would page in
    64 kB more of numpy), so 0.0 and -0.0 or two NaN payloads never merge.
    When more than half the entries start a run, it is ``tolist()`` too."""
    if getattr(c, "dtype", None) != "float64":
        return c.tolist() if hasattr(c, "tolist") else c
    import numpy as np

    bits = c.view(np.int64)
    starts = bits[1:] != bits[:-1]
    if 2 * (np.count_nonzero(starts) + 1) > c.size:
        return c.tolist()
    firsts = np.flatnonzero(np.concatenate(([True], starts)))
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


@contextlib.contextmanager
def csv_writer(path, header: str, comment: str | None = None) -> Iterator[Callable[[tuple], None]]:
    """Open ``path`` (see open_output), write ``# comment`` (when given) and
    the header line, and yield ``put(block)``, which writes the rows of one
    block (see write_rows), one column per header field; an empty string
    is an empty field.  A table streamed a block at a time holds one
    block's columns and one chunk of text.  If the body raises, the file
    is deleted."""
    width = len(header.split(","))
    row = ",".join(["%s"] * width) + "\n"
    with open_output(path) as fh:
        if comment is not None:
            fh.write(f"# {comment}\n")
        fh.write(header + "\n")

        def put(block: tuple) -> None:
            if len(block) != width:
                raise ValueError(f"{len(block)} columns for the {width} fields of {header!r}")
            write_rows(fh, row, block)

        yield put


def write_csv(path, header: str, block: tuple, comment: str | None = None) -> None:
    """Write a whole table: csv_writer's comment and header, then ``block``."""
    with csv_writer(path, header, comment) as put:
        put(block)
