"""The shared input rules: every reader skips blank and ``#`` lines (indented
ones too), skips a leading byte-order mark, and names the line of a
malformed row; the row writer's number format, and the bytes of its join
path (runs of repeated rows) against its per-chunk ``%`` path; the
trajectory writer's bytes against the row writer's; and the output opener's
clean-up after a failed write."""

import hashlib
import io
import os
import tracemalloc
from itertools import repeat

import numpy as np
import pytest

from netquench.cli import parse_p0_spec
from netquench.dynamics import load_params
from netquench.graphs import Graph, read_graph, write_graph
from netquench.textio import (
    CSV_CHUNK, _run_starts, data_lines, open_output, state_writer, write_csv, write_rows,
)

# per format: the header (or vertex count) line and one valid row for node 0
FORMATS = {
    "edges": ("4", "0 1"),
    "params": ("node,mu,beta,r", "0,0.5,0.5,0.5"),
    "p0": ("node,p", "0,0.5"),
}

# each reads its file as input to a graph of order 4
READERS = {
    "edges": read_graph,
    "params": lambda path: load_params(path, 4),
    "p0": lambda path: parse_p0_spec(str(path), 4),
}


def read_valid(fmt, path):
    """Read a valid file whose one data row is node 0's: a params file then
    lists every node of a graph of order 1."""
    return load_params(path, 1) if fmt == "params" else READERS[fmt](path)


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
    ("params", "beyond int64", "99999999999999999999,0.5,0.5,0.5"),
    ("p0", "beyond int64", "-99999999999999999999,0.5"),
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


# files with two bad lines, read as input to a graph of order 3: every
# reader checks each line as it reads it, so the earlier fault is named
ORDER_3 = {"params": lambda path: load_params(path, 3),
           "p0": lambda path: parse_p0_spec(str(path), 3)}
FIRST_FAULTS = {
    "edges-range-then-bad-int": (read_graph, "3\n0 1\n0 7\n1 2\nx y\n",
                                 r"line 3: vertex id out of range for n=3: \(0, 7\)"),
    "edges-self-loop-then-field-count": (read_graph, "3\n1 1\n0 1 2\n",
                                         "line 2: self-loop at vertex 1"),
    "params-duplicate-then-bad-float": (
        ORDER_3["params"], "node,mu,beta,r\n0,0.5,0.5,0.5\n0,0.5,0.5,0.5\n1,abc,0.5,0.5\n",
        "line 3: duplicate node id 0"),
    "p0-duplicate-then-bad-float": (ORDER_3["p0"], "node,p\n0,0.5\n0,0.5\n1,abc\n",
                                    "line 3: duplicate node id 0"),
    "params-beyond-int64-then-duplicate": (
        ORDER_3["params"], "node,mu,beta,r\n0,0.5,0.5,0.5\n\n99999999999999999999,0.5,0.5,0.5\n"
                           "0,0.5,0.5,0.5\n",
        "line 4: node id 99999999999999999999 is not in 0..n-1 for n=3"),
}


@pytest.mark.parametrize("name", list(FIRST_FAULTS))
def test_the_fault_found_first_is_reported(tmp_path, name):
    reader, text, message = FIRST_FAULTS[name]
    path = tmp_path / "input"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"^{message}$"):
        reader(path)


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_indented_comment_is_skipped(tmp_path, fmt):
    path = write_file(tmp_path, fmt, "\t# indented comment")
    result = read_valid(fmt, path)
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


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_leading_byte_order_mark_is_skipped(tmp_path, fmt):
    # Excel's "CSV UTF-8" export starts the file with U+FEFF
    head, valid = FORMATS[fmt]
    results = []
    for mark in ("", "\ufeff"):
        path = tmp_path / f"input{len(mark)}.{fmt}"
        path.write_text(f"{mark}{head}\n{valid}\n", encoding="utf-8")
        result = read_valid(fmt, path)
        if fmt == "params":
            result = np.stack([result.mu, result.beta, result.r])
        results.append(result if fmt == "edges" else result.tolist())
    assert results[0] == results[1]


def test_write_csv_number_format(tmp_path):
    out = tmp_path / "t.csv"
    floats = np.array([1e16, 9999999999999998.0, 5e-324, 2.2250738585072014e-308, 0.1, -0.0])
    ints = [2**64, -(2**70) - 1, 0, 7, -3, 1]
    write_csv(out, "k,x,n,s", (range(6), floats, ints, ["", "a", "", "", "", ""]))
    assert out.read_text() == (
        "k,x,n,s\n"
        "0,1e+16,18446744073709551616,\n"
        "1,9999999999999998.0,-1180591620717411303425,a\n"
        "2,5e-324,0,\n"
        "3,2.2250738585072014e-308,7,\n"
        "4,0.1,-3,\n"
        "5,-0.0,1,\n"
    )


def test_state_writer_states_follow_each_other(tmp_path):
    out = tmp_path / "t.csv"
    n = CSV_CHUNK + 3  # a state longer than one chunk
    with state_writer(out, n) as put:
        for t in range(2):
            put(t, np.full(n, t / 2))
    lines = out.read_text().splitlines()
    assert lines[0] == "t,node,p" and len(lines) == 1 + 2 * n
    assert lines[1] == "0,0,0.0" and lines[n] == f"0,{n - 1},0.0"
    assert lines[n + 1] == "1,0,0.5" and lines[-1] == f"1,{n - 1},0.5"


def test_state_writer_with_no_state_writes_the_header(tmp_path):
    out = tmp_path / "t.csv"
    with state_writer(out, 5):
        pass
    assert out.read_bytes() == b"t,node,p\n"


def test_write_csv_empty_table_writes_the_header(tmp_path):
    out = tmp_path / "t.csv"
    write_csv(out, "node,beta_old,beta_new", (np.array([], dtype=np.int64), [], range(0)))
    assert out.read_bytes() == b"node,beta_old,beta_new\n"


@pytest.mark.parametrize("block", [
    (range(3), [0.5, 0.25]), (range(2), [0.5, 0.25], [1, 2]),
    (range(3), np.zeros(2)), (range(2), np.zeros(3)),  # an array column of the wrong length
])
def test_write_csv_rejects_a_block_that_does_not_fit(tmp_path, block):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "t.csv", "a,b", block)
    assert not (tmp_path / "t.csv").exists()  # no partial table is left


def float_column_lines(tmp_path, col):
    """The data lines write_csv gives the two-column table ``k,col[k]``."""
    out = tmp_path / "x.csv"
    write_csv(out, "k,x", (range(len(col)), col))
    lines = out.read_text().split("\n")
    assert lines[0] == "k,x" and lines[-1] == ""
    return lines[1:-1]


def expected_lines(col):
    return ["%s,%s" % kv for kv in enumerate(col.tolist())]


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
    assert _run_starts([col], len(col)) is not None  # the join path
    assert float_column_lines(tmp_path, col) == expected_lines(col)
    assert float_column_lines(tmp_path, col)[3:9] == [f"{k},-0.0" for k in range(3, 7)] + ["7,0.0", "8,0.0"]


def test_float_runs_of_strided_and_read_only_columns(tmp_path):
    table = np.repeat(column_with_runs(6, 40), 3).reshape(40, 3)
    table[:, 1] *= -1.0
    strided = table[:, 1]
    frozen = table[:, 2].copy()
    frozen.setflags(write=False)
    for col in (strided, frozen):
        assert _run_starts([col], len(col)) is not None
        assert float_column_lines(tmp_path, col) == expected_lines(col)


@pytest.mark.parametrize("runs", [19, 20, 21])
def test_float_runs_near_half_the_entries(tmp_path, runs):
    # more than half the rows starting a run: formatted by one % per chunk
    col = column_with_runs(runs, 40, seed=runs)
    assert (_run_starts([col], 40) is None) == (runs > 20)
    assert float_column_lines(tmp_path, col) == expected_lines(col)


def rows_text(block):
    out = io.StringIO()
    write_rows(out, ",".join(["%s"] * len(block)) + "\n", block)
    return out.getvalue()


def report_block(n):
    """A selection report's columns: two degree classes, homogeneous params."""
    degree = np.repeat(np.array([3, 5], dtype=np.int64), [n // 3, n - n // 3])
    mu, beta, r = np.full(n, 0.8), np.full(n, 0.3), np.ones(n)
    margin = mu - beta * r * degree
    return (range(n), degree, mu, beta, r, margin, (margin <= 0.0).astype(np.int64))


# name: (n, a function of n giving a block whose columns after the first
# are arrays); test_join_path_matches_the_percent_path writes each as given
# and with its arrays passed as lists
BLOCKS = {
    "selection-report": (3 * CSV_CHUNK + 7, report_block),
    "runs-at-different-rows": (600, lambda n: (
        range(n), np.repeat([0.1, 0.2, 0.3], [100, 200, 300]),
        np.repeat(np.array([1, 2], dtype=np.int64), [250, 350]),
        np.repeat([-0.0, 0.0, np.nan], [50, 500, 50]))),
    "n=0": (0, lambda n: (range(n), np.zeros(n), np.zeros(n, dtype=np.int64))),
    "n=1": (1, lambda n: (range(n), np.full(n, 0.5), np.full(n, 7, dtype=np.int64))),
    "runs-across-chunks": (3 * CSV_CHUNK, lambda n: (
        range(n), np.repeat([0.5, 1e-05, 5e-324], [10, 2 * CSV_CHUNK + 5, CSV_CHUNK - 15]),
        np.repeat([2.5, -1.0], [CSV_CHUNK + 1, 2 * CSV_CHUNK - 1]))),
    "list-of-int-first": (500, lambda n: (
        [k * k - 7 for k in range(n)], np.repeat([1e16, 0.25], [123, n - 123]),
        np.full(n, -3, dtype=np.int64))),
    "int-array-first": (500, lambda n: (
        np.arange(n, dtype=np.int64)[::-1], column_with_runs(40, n, seed=4))),
}


@pytest.mark.parametrize("name", list(BLOCKS))
def test_join_path_matches_the_percent_path(name):
    n, make = BLOCKS[name]
    block = make(n)
    assert all(len(c) == n for c in block)
    if n > 1:
        assert _run_starts(block[1:], n) is not None  # the join path
    as_lists = tuple(c.tolist() if isinstance(c, np.ndarray) else c for c in block)
    assert rows_text(block) == rows_text(as_lists)


@pytest.mark.parametrize("n", [2, CSV_CHUNK + 2, 3 * CSV_CHUNK])
def test_write_graph_of_a_star_centred_on_the_last_vertex(n):
    # every edge is (i, n-1), so the second column is one run
    out = io.StringIO()
    write_graph(Graph(n, [(i, n - 1) for i in range(n - 1)]), out)
    assert out.getvalue() == f"{n}\n" + "".join(f"{i} {n - 1}\n" for i in range(n - 1))


def state_writer_bytes(states, n):
    out = io.StringIO()
    with state_writer(out, n) as put:
        for t, p in states:
            put(t, p)
    return out.getvalue()


def write_rows_bytes(states, n):
    out = io.StringIO()
    out.write("t,node,p\n")
    for t, p in states:
        write_rows(out, "%s,%s,%s\n", (repeat(t, n), range(n), p))
    return out.getvalue()


def strided_state(n):
    table = np.repeat(column_with_runs(n // 8, n, seed=5), 2).reshape(n, 2)
    table[:, 1] *= -1.0
    return table[:, 1]


def read_only_state(n):
    state = column_with_runs(n // 8, n, seed=6)
    state.setflags(write=False)
    return state


# name: (n, a function of n giving the states); each is written at t = 0, 1
# and 123456 (three states in one file)
STATES = {
    "all-distinct": (600, lambda n: np.random.default_rng(1).random(n)),
    "one-value": (600, lambda n: np.full(n, 0.1)),
    "one-run-across-chunks": (3 * CSV_CHUNK, lambda n: np.repeat([0.5, 1e-05, 5e-324],
                                                                  [10, 2 * CSV_CHUNK + 5, CSV_CHUNK - 15])),
    "runs-ending-at-chunk-starts": (3 * CSV_CHUNK, lambda n: np.repeat([0.25, 0.75, 0.0],
                                                                        [CSV_CHUNK, CSV_CHUNK, CSV_CHUNK])),
    "n=1": (1, lambda n: np.array([0.3])),
    "n=CSV_CHUNK-1": (CSV_CHUNK - 1, lambda n: column_with_runs(7, n, seed=1)),
    "n=CSV_CHUNK": (CSV_CHUNK, lambda n: column_with_runs(7, n, seed=2)),
    "n=CSV_CHUNK+1": (CSV_CHUNK + 1, lambda n: column_with_runs(7, n, seed=3)),
    "signed-zeros": (40, lambda n: np.tile([0.0, -0.0, -0.0, 0.0, 0.0], 8)),
    "non-finite": (40, lambda n: np.repeat([np.nan, np.inf, -np.inf, np.nan], 10)),
    # the columns of test_float_runs_near_half_the_entries: both sides of the
    # switch from runs to one entry at a time
    "runs-below-half": (40, lambda n: column_with_runs(19, n, seed=19)),
    "runs-at-half": (40, lambda n: column_with_runs(20, n, seed=20)),
    "runs-above-half": (40, lambda n: column_with_runs(21, n, seed=21)),
    "strided": (600, strided_state),
    "read-only": (600, read_only_state),
}


@pytest.mark.parametrize("name", list(STATES))
def test_state_writer_matches_write_rows(name):
    n, make = STATES[name]
    state = make(n)
    states = [(0, state), (1, state[::-1]), (123456, np.full(n, 0.5))]
    assert len(state) == n
    assert state_writer_bytes(states, n) == write_rows_bytes(states, n)


class Recorder:
    """A text stream that records how many lines each write holds."""

    def __init__(self):
        self.lines = []

    def write(self, text):
        self.lines.append(text.count("\n"))


@pytest.mark.parametrize("name", ["all-distinct", "one-value", "one-run-across-chunks"])
def test_state_writer_writes_at_most_one_chunk_at_a_time(name):
    n, make = STATES[name]
    out = Recorder()
    with state_writer(out, n) as put:
        put(0, make(n))
    assert sum(out.lines) == 1 + n and max(out.lines) <= CSV_CHUNK


def test_homogeneous_table_is_written_at_most_one_chunk_at_a_time():
    n = 3 * CSV_CHUNK + 7
    out = Recorder()
    write_csv(out, "node,degree,mu,beta,r,margin,flagged", report_block(n))
    assert sum(out.lines) == 1 + n and max(out.lines) <= CSV_CHUNK


def heterogeneous_report_block(n):
    """A selection report's columns with distinct params: the ``%`` path."""
    rng = np.random.default_rng(7)
    degree = rng.integers(2, 60, n)
    mu, beta, r = rng.uniform(0.1, 1, n), rng.uniform(0.01, 0.3, n), rng.uniform(0.2, 1, n)
    margin = mu - beta * r * degree
    return (range(n), degree, mu, beta, r, margin, (margin <= 0.0).astype(np.int64))


class Digest:
    """A text stream that keeps only the sha256 of what is written to it."""

    def __init__(self):
        self.sha = hashlib.sha256()

    def write(self, text):
        self.sha.update(text.encode())


@pytest.mark.parametrize("make, path", [(heterogeneous_report_block, "percent"),
                                        (report_block, "join")],
                         ids=["heterogeneous", "homogeneous"])
def test_table_of_1e5_rows_holds_one_chunk_of_objects(make, path):
    # the Python objects a write holds beyond its arrays are one chunk's
    # (CSV_CHUNK rows), not one per entry of the table
    n = 100_000
    block = make(n)
    _, *arrays = block
    assert ("join" if _run_starts(arrays, n) is not None else "percent") == path
    out = Digest()
    tracemalloc.start()
    try:
        write_csv(out, "node,degree,mu,beta,r,margin,flagged", block)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows = zip(*[c.tolist() for c in arrays])
    text = "node,degree,mu,beta,r,margin,flagged\n" + "".join(
        f"{i},{d},{mu!r},{beta!r},{r!r},{margin!r},{flag}\n"
        for i, (d, mu, beta, r, margin, flag) in enumerate(rows))
    assert out.sha.hexdigest() == hashlib.sha256(text.encode()).hexdigest()
    assert peak <= 1_000_000, f"{peak / 1e6:.1f} MB above the arrays on the {path} path"


def test_state_of_49009_runs_holds_one_chunk_of_objects():
    # pairs of equal values, then one long run: just under the half-the-rows
    # switch, so put converts runs (one chunk's at a time), not rows
    n = 100_000
    state = np.concatenate((np.repeat(np.arange(49_000) / 7, 2), np.full(n - 98_000, 0.5)))
    assert len(_run_starts([state], n)) == 49_009
    out = Digest()
    with state_writer(out, n) as put:
        tracemalloc.start()
        try:
            put(3, state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    text = "t,node,p\n" + "".join(f"3,{i},{p!r}\n" for i, p in enumerate(state.tolist()))
    assert out.sha.hexdigest() == hashlib.sha256(text.encode()).hexdigest()
    assert peak <= 1_000_000, f"{peak / 1e6:.1f} MB above the state"


@pytest.mark.parametrize("length", [9, 11])
def test_state_of_the_wrong_length_leaves_no_file(tmp_path, length):
    out = tmp_path / "t.csv"
    with pytest.raises(ValueError, match=f"a state of {length} entries for 10 nodes"):
        with state_writer(out, 10) as put:
            put(0, np.full(10, 0.5))
            put(1, np.full(length, 0.5))
    assert not out.exists()


@pytest.mark.parametrize("device", [False, True])
def test_failed_write_deletes_only_a_regular_file(tmp_path, monkeypatch, device):
    removed = []
    monkeypatch.setattr(os, "remove", removed.append)  # records; unlinks nothing
    path = os.devnull if device else str(tmp_path / "t.csv")
    with pytest.raises(RuntimeError, match="write failed"):
        with open_output(path) as fh:
            fh.write("x\n")
            raise RuntimeError("write failed")
    assert removed == ([] if device else [path])
