"""The shared input rules: every reader skips blank and ``#`` lines (indented
ones too) and names the line of a malformed row."""

import pytest

from netquench.cli import parse_p0_spec
from netquench.dynamics import load_params
from netquench.graphs import read_graph
from netquench.textio import data_lines

# per format: the header (or vertex count) line and one valid row for node 0
FORMATS = {
    "edges": ("4", "0 1"),
    "params": ("node,mu,beta,r", "0,0.5,0.5,0.5"),
    "p0": ("node,p", "0,0.5"),
}

READERS = {
    "edges": read_graph,
    "params": load_params,
    "p0": lambda path: parse_p0_spec(str(path), 4),
}

BAD_ROWS = [
    ("edges", "bad int", "1 x"),
    ("params", "bad int", "x,0.5,0.5,0.5"),
    ("p0", "bad int", "1.5,0.5"),
    ("params", "bad float", "1,abc,0.5,0.5"),
    ("p0", "bad float", "1,abc"),
    ("edges", "field count", "1 2 3"),
    ("params", "field count", "1,0.5,0.5"),
    ("p0", "field count", "1,0.5,0.5"),
    ("edges", "self-loop", "2 2"),
    ("params", "duplicate id", "0,0.5,0.5,0.5"),
    ("p0", "duplicate id", "0,0.25"),
    ("edges", "out of range", "1 9"),
    ("edges", "beyond int64", "1 99999999999999999999"),
    ("params", "out of range", "9,0.5,0.5,0.5"),
    ("p0", "out of range", "4,0.5"),
]


def write_file(tmp_path, fmt, last_row):
    head, valid = FORMATS[fmt]
    path = tmp_path / f"input.{fmt}"
    # line 1 comment, 2 blank, 3 header, 4 indented comment, 5 valid row
    path.write_text(f"# comment\n\n{head}\n   # note\n{valid}\n{last_row}\n")
    return path


@pytest.mark.parametrize(
    "fmt,row", [(fmt, row) for fmt, _, row in BAD_ROWS],
    ids=[f"{fmt}-{case}" for fmt, case, _ in BAD_ROWS],
)
def test_malformed_row_names_its_line(tmp_path, fmt, row):
    path = write_file(tmp_path, fmt, row)
    with pytest.raises(ValueError, match=r"^line 6: "):
        READERS[fmt](path)


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_indented_comment_is_skipped(tmp_path, fmt):
    path = write_file(tmp_path, fmt, "\t# indented comment")
    result = READERS[fmt](path)
    if fmt == "edges":
        assert result.n == 4 and result.edges == ((0, 1),)
    elif fmt == "params":
        assert result.n == 1 and result.mu.tolist() == [0.5]
    else:
        assert result.tolist() == [0.5, 0.0, 0.0, 0.0]


def test_data_lines_numbers_every_line():
    text = "# c\n\n  a b \n\t#x\nc\n"
    assert list(data_lines(text.splitlines())) == [(3, ["a", "b"]), (5, ["c"])]
    assert list(data_lines(["1, 2 ,3"], ",")) == [(1, ["1", " 2 ", "3"])]


@pytest.mark.parametrize("fmt", ["params", "p0"])
def test_header_is_checked(tmp_path, fmt):
    path = tmp_path / "bad.csv"
    path.write_text("# only a comment\n")
    with pytest.raises(ValueError, match=r"^line 1: expected header"):
        READERS[fmt](path)
    path.write_text("# c\nnode,x\n0,0.5\n")
    with pytest.raises(ValueError, match=r"^line 2: expected header"):
        READERS[fmt](path)
