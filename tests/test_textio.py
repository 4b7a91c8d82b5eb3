"""The shared input rules: every reader skips blank and ``#`` lines (indented
ones too) and names the line of a malformed row; and the one CSV writer's
number format, on its per-entry path and its run-of-equal-floats path."""

from itertools import repeat

import numpy as np
import pytest

from netquench.cli import parse_p0_spec
from netquench.dynamics import load_params
from netquench.graphs import Graph, read_graph
from netquench.textio import CSV_CHUNK, _column_values, csv_writer, data_lines, write_csv

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
        assert result == Graph(4, [(0, 1)])
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


def test_write_csv_number_format(tmp_path):
    out = tmp_path / "t.csv"
    floats = np.array([1e16, 9999999999999998.0, 5e-324, 2.2250738585072014e-308, 0.1, -0.0])
    ints = [2**64, -(2**70) - 1, 0, 7, -3, 1]
    write_csv(out, "k,x,n,s", (range(6), floats, ints, ["", "a", "", "", "", ""]), "note")
    assert out.read_text() == (
        "# note\n"
        "k,x,n,s\n"
        "0,1e+16,18446744073709551616,\n"
        "1,9999999999999998.0,-1180591620717411303425,a\n"
        "2,5e-324,0,\n"
        "3,2.2250738585072014e-308,7,\n"
        "4,0.1,-3,\n"
        "5,-0.0,1,\n"
    )


def test_csv_writer_blocks_follow_each_other(tmp_path):
    out = tmp_path / "t.csv"
    n = CSV_CHUNK + 3  # a block longer than one chunk
    with csv_writer(out, "t,node,p") as put:
        for t in range(2):
            put((repeat(t, n), range(n), np.full(n, t / 2)))
    lines = out.read_text().splitlines()
    assert lines[0] == "t,node,p" and len(lines) == 1 + 2 * n
    assert lines[1] == "0,0,0.0" and lines[n] == f"0,{n - 1},0.0"
    assert lines[n + 1] == "1,0,0.5" and lines[-1] == f"1,{n - 1},0.5"


@pytest.mark.parametrize("blocks", [[], [(np.array([], dtype=np.int64), [], range(0))]])
def test_csv_writer_empty_table_writes_the_header(tmp_path, blocks):
    out = tmp_path / "t.csv"
    with csv_writer(out, "node,beta_old,beta_new") as put:
        for block in blocks:
            put(block)
    assert out.read_bytes() == b"node,beta_old,beta_new\n"


@pytest.mark.parametrize("block", [(range(3), [0.5, 0.25]), (range(2), [0.5, 0.25], [1, 2])])
def test_write_csv_rejects_a_block_that_does_not_fit(tmp_path, block):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "t.csv", "a,b", block)
    assert not (tmp_path / "t.csv").exists()  # no partial table is left


def float_column_lines(tmp_path, col):
    """The data lines write_csv gives the one-column table of ``col``."""
    out = tmp_path / "x.csv"
    write_csv(out, "x", (col,))
    lines = out.read_text().split("\n")
    assert lines[0] == "x" and lines[-1] == ""
    return lines[1:-1]


def column_with_runs(runs, n, seed=0):
    """A float64 column of ``n`` entries in ``runs`` runs of distinct values."""
    rng = np.random.default_rng(seed)
    values = rng.random(runs) * 10.0 ** rng.integers(-20, 20, runs)
    cuts = np.sort(rng.choice(np.arange(1, n), runs - 1, replace=False))
    return np.repeat(values, np.diff(cuts, prepend=0, append=n))


def test_float_runs_write_each_value(tmp_path):
    # signed zeros side by side, non-finite values, the least subnormal, and
    # a run that starts inside the first chunk and ends inside the second
    long = CSV_CHUNK + 10
    col = np.concatenate([
        np.zeros(3), np.full(4, -0.0), np.zeros(2), np.full(3, np.inf), np.full(3, np.nan),
        np.full(2, -np.inf), np.full(5, 5e-324), np.full(long, 0.1), np.full(3, -0.0),
    ])
    assert not isinstance(_column_values(col), list)  # the run path
    assert float_column_lines(tmp_path, col) == ["%s" % v for v in col.tolist()]
    assert float_column_lines(tmp_path, col)[3:9] == ["-0.0"] * 4 + ["0.0"] * 2


def test_float_runs_of_strided_and_read_only_columns(tmp_path):
    table = np.repeat(column_with_runs(6, 40), 3).reshape(40, 3)
    table[:, 1] *= -1.0
    strided = table[:, 1]
    frozen = table[:, 2].copy()
    frozen.setflags(write=False)
    for col in (strided, frozen):
        assert float_column_lines(tmp_path, col) == ["%s" % v for v in col.tolist()]


@pytest.mark.parametrize("runs", [19, 20, 21])
def test_float_runs_near_half_the_entries(tmp_path, runs):
    # more than half the entries starting a run: formatted one by one
    col = column_with_runs(runs, 40, seed=runs)
    assert isinstance(_column_values(col), list) == (runs > 20)
    assert float_column_lines(tmp_path, col) == ["%s" % v for v in col.tolist()]
