"""Text output shared by every command: one stream opener, one CSV writer.

Every CSV the package writes is UTF-8 with ``\\n`` line endings: an optional
``# comment`` line, the header line, then the data rows.
"""

from __future__ import annotations

import contextlib
import sys
from typing import Iterable, Iterator, TextIO


@contextlib.contextmanager
def open_output(path) -> Iterator[TextIO]:
    """A text stream writing to ``path``; ``"-"`` is stdout, which is left open."""
    if path == "-":
        yield sys.stdout
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        yield fh


def write_csv(path, header: str, rows: Iterable[str], comment: str | None = None) -> None:
    """Write ``# comment`` (when given), the header line, then ``rows``:
    chunks of already-formatted CSV text, each ending in a newline."""
    with open_output(path) as fh:
        if comment is not None:
            fh.write(f"# {comment}\n")
        fh.write(header + "\n")
        fh.writelines(rows)
