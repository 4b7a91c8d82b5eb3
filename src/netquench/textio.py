"""Text I/O shared by every command: one line reader and one node-table
reader for every input file, one stream opener and one CSV writer.  Every
CSV written is UTF-8 with ``\\n`` line endings: an optional ``# comment``
line, the header line, then the data rows.  write_csv is the only code that
turns numbers into CSV text: ints in decimal, floats as Python's shortest
round-trip repr (``1e-05``, ``0.0001``, ``1e+16``, ``5e-324``).
"""

from __future__ import annotations

import contextlib
import os
import sys
from itertools import chain, islice
from typing import TYPE_CHECKING, Iterable, Iterator, TextIO

if TYPE_CHECKING:
    import numpy as np

# Rows write_csv formats with one ``%`` and one write: enough to spread the
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
    """A text stream writing to ``path``; ``"-"`` is stdout, which is left open.
    If the body raises, the file is closed and deleted before the exception
    propagates; what has already gone to stdout cannot be taken back."""
    if path == "-":
        yield sys.stdout
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        try:
            yield fh
        except BaseException:
            fh.close()
            os.remove(path)
            raise


def write_csv(path, header: str, blocks: Iterable[tuple], comment: str | None = None) -> None:
    """Write ``# comment`` (when given), the header line, then the rows of
    each block in turn.  A block is a tuple of equal-length columns (numpy
    arrays, read through their ``tolist``; ranges; lists), one per header
    field; row ``k`` holds entry ``k`` of each column, written with ``%s``.
    An empty string is an empty field.
    Rows are formatted CSV_CHUNK at a time, by one ``%`` per chunk."""
    width = len(header.split(","))
    row = ",".join(["%s"] * width) + "\n"
    with open_output(path) as fh:
        if comment is not None:
            fh.write(f"# {comment}\n")
        fh.write(header + "\n")
        for block in blocks:
            columns = [c.tolist() if hasattr(c, "tolist") else c for c in block]
            if len(columns) != width:
                raise ValueError(f"{len(columns)} columns for the {width} fields of {header!r}")
            values = chain.from_iterable(zip(*columns, strict=True))
            while chunk := tuple(islice(values, CSV_CHUNK * width)):
                fh.write((row * (len(chunk) // width)) % chunk)
