"""The shared input rules: every reader skips blank and ``#`` lines (indented
ones too), skips a leading byte-order mark, and names the line of a
malformed row; the bulk path's grammar, values and messages against the
per-line reader's, a FIFO read once, line by line, and which exceptions
send a file to the per-line reader (ValueError and warnings, not OSError);
the row writer's number format, and the bytes of its join path (runs of
repeated rows) against its per-chunk ``%`` path; the trajectory writer's
bytes against the row writer's, with and without its forked formatting
helper, and the helper's memory and clean-up; and the output opener's
clean-up after a failed write."""

import hashlib
import io
import os
import signal
import threading
import tracemalloc
import warnings
from functools import partial
from itertools import repeat

import numpy as np
import pytest

from netquench.cli import parse_p0_spec
from netquench.dynamics import load_params
from netquench import graphs, textio
from netquench.graphs import Graph, parse_edge_list, read_graph, write_graph
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


# The grammar the bulk path must share with the per-line referee.  Each case
# is (reader, file text or bytes, whether the bulk path takes it): "edges"
# is an edge list, "params" a node table node,mu,beta,r and "p0" one of
# node,p, each read as input to a graph of order 4.  None leaves it to the
# bulk parser which of the two paths reads the file.
PARITY = {
    "edges-plain": ("edges", "4\n0 1\n1 2\n2 3\n", True),
    "edges-padded-count": ("edges", "  4 \n0 1\n", True),
    "edges-signed-count": ("edges", "+4\n0 1\n", False),
    "edges-count-after-a-comment": ("edges", "# c\n4\n0 1\n", False),
    "edges-count-alone": ("edges", "4\n", False),
    "edges-count-beyond-the-order-bound": ("edges", "3037000500\n0 1\n", False),
    "edges-underscore": ("edges", "4\n0 1_000\n", False),
    "edges-plus-and-space": ("edges", "4\n +3 0\n", True),
    "edges-tabs": ("edges", "4\n0\t1\n2\t\t3\t\n", True),
    "edges-hex": ("edges", "4\n0x1 2\n", False),
    "edges-non-ascii-digits": ("edges", "4\n٠ ١\n", False),
    "edges-float-id": ("edges", "4\n1.0 2\n", False),
    "edges-exponent-id": ("edges", "4\n1e0 2\n", False),
    "edges-beyond-int64": ("edges", "4\n0 99999999999999999999\n", False),
    "edges-negative": ("edges", "4\n-1 2\n", False),
    "edges-out-of-range": ("edges", "4\n0 1\n0 4\n", False),
    "edges-self-loop": ("edges", "4\n0 1\n2 2\n", False),
    "edges-three-fields": ("edges", "4\n0 1\n1 2 3\n", False),
    "edges-every-row-one-field": ("edges", "4\n0\n1\n", False),
    "edges-crlf": ("edges", "4\r\n0 1\r\n1 2\r\n", True),
    "edges-cr": ("edges", "4\r0 1\r1 2\r", True),
    "edges-blank-lines": ("edges", "4\n0 1\n\n   \n\t\n2 3\n", True),
    "edges-comment-mid-file": ("edges", "4\n0 1\n# c\n2 3\n", False),
    "edges-indented-comment": ("edges", "4\n0 1\n  # c\n2 3\n", False),
    "edges-hash-in-a-row": ("edges", "4\n0 1 # c\n", False),
    "edges-bom": ("edges", "﻿4\n0 1\n", True),
    "edges-unicode-spaces": ("edges", "4\n0 1\n2\x0c3\n\x1c\n", None),
    "edges-nul": ("edges", "4\n0\x001\n", False),
    "edges-not-utf-8": ("edges", b"4\n0 1\n\xff 2\n", None),
    "p0-not-utf-8": ("p0", b"node,p\n0,0.5\n" + b"\n" * 9000 + b"1,\xff\n", None),
    "p0-plain": ("p0", "node,p\n0,0.5\n3,0.25\n", True),
    "p0-unlisted-rows": ("p0", "node,p\n2,1\n", True),
    "p0-header-only": ("p0", "node,p\n", False),
    "p0-header-spacing": ("p0", "node , p\n0,0.5\n", False),
    "p0-header-padded": ("p0", " node,p \n0,0.5\n", True),
    "p0-wrong-header": ("p0", "node,q\n0,0.5\n", False),
    "p0-spaces-and-signs": ("p0", "node,p\n +0 , +0.5 \n\t1,\t-2\n", True),
    "p0-inf-nan": ("p0", "node,p\n0,inf\n1,nan\n2,-Infinity\n3,-nan\n", True),
    "p0-nan-payload": ("p0", "node,p\n0,nan(1)\n", False),
    "p0-fortran-exponent": ("p0", "node,p\n0,1d5\n", False),
    "p0-hex-float": ("p0", "node,p\n0,0x10\n", False),
    "p0-underscore": ("p0", "node,p\n0,1_000\n", False),
    "p0-non-ascii-digits": ("p0", "node,p\n0,١.5\n", False),
    "p0-float-id": ("p0", "node,p\n1.0,0.5\n", False),
    "p0-beyond-int64": ("p0", "node,p\n99999999999999999999,0.5\n", False),
    "p0-negative-id": ("p0", "node,p\n-1,0.5\n", False),
    "p0-id-out-of-range": ("p0", "node,p\n0,0.5\n4,0.5\n", False),
    "p0-duplicate-id": ("p0", "node,p\n0,0.5\n1,0.5\n0,0.5\n", False),
    "p0-rounding": ("p0", "node,p\n0,0.1000000000000000055511151231257827\n"
                          "1,2.2250738585072011e-308\n2,4.9406564584124654e-324\n"
                          "3,0.30000000000000004440892098500626\n", True),
    "p0-underflow-and-overflow": ("p0", "node,p\n0,1e-400\n1,1e400\n2,-0.0\n", True),
    "p0-crlf": ("p0", "node,p\r\n0,0.5\r\n1,0.25\r\n", True),
    "p0-blank-lines": ("p0", "node,p\n0,0.5\n\n\n1,0.25\n", True),
    "p0-whitespace-line": ("p0", "node,p\n0,0.5\n  \t\n1,0.25\n", False),
    "p0-comment-mid-file": ("p0", "node,p\n0,0.5\n# c\n1,0.25\n", False),
    "p0-hash-in-a-row": ("p0", "node,p\n0,0.5 # c\n", False),
    "p0-bom": ("p0", "﻿node,p\n0,0.5\n", True),
    "p0-quoted": ("p0", 'node,p\n0,"0.5"\n', False),
    "p0-empty-field": ("p0", "node,p\n0,\n", False),
    "p0-trailing-comma": ("p0", "node,p\n0,0.5,\n", False),
    "params-plain": ("params", "node,mu,beta,r\n3,0.5,0.25,1\n0,1,0,0.125\n1,0.2,0.3,0.4\n"
                               "2,0.6,0.7,0.8\n", True),
    "params-field-count": ("params", "node,mu,beta,r\n0,0.5,0.5\n", False),
    "params-mixed-field-counts": ("params", "node,mu,beta,r\n0,0.5,0.5,0.5\n1,0.5,0.5\n", False),
    "params-bad-float": ("params", "node,mu,beta,r\n0,0.5,abc,0.5\n", False),
}

# the referees: the per-line readers (float() and int() per field), on the
# text that read_input gives them
PER_LINE = {
    "edges": parse_edge_list,
    "params": partial(textio._read_node_lines, columns=("mu", "beta", "r"), n=4),
    "p0": partial(textio._read_node_lines, columns=("p",), n=4),
}
BULK_FIRST = {
    "edges": read_graph,
    "params": lambda path: textio.read_node_table(path, ("mu", "beta", "r"), 4),
    "p0": lambda path: textio.read_node_table(path, ("p",), 4),
}


def outcome(read):
    """What ``read()`` gives, bit for bit: a graph's arrays, a table's bytes
    and row count, or the type and message of the ValueError it raises."""
    try:
        result = read()
    except ValueError as exc:
        return type(exc), str(exc)
    if isinstance(result, Graph):
        return result.n, result.indptr.tobytes(), result.indices.tobytes()
    table, rows = result
    return table.shape, table.tobytes(), rows


@pytest.fixture
def per_line_calls(monkeypatch):
    """The names of the per-line readers that the readers under test call."""
    calls = []
    for owner, name in ((graphs, "parse_edge_list"), (textio, "_read_node_lines")):
        def spy(*args, _read=getattr(owner, name), _name=name):
            calls.append(_name)
            return _read(*args)
        monkeypatch.setattr(owner, name, spy)
    return calls


@pytest.mark.parametrize("name", list(PARITY))
def test_bulk_path_matches_the_per_line_reader(tmp_path, per_line_calls, name):
    fmt, text, bulk = PARITY[name]
    path = tmp_path / "input"
    if isinstance(text, str):
        path.write_text(text, encoding="utf-8", newline="")
    else:
        path.write_bytes(text)
    with open(path, encoding="utf-8-sig") as fh:
        expected = outcome(lambda: PER_LINE[fmt](fh))
    assert outcome(lambda: BULK_FIRST[fmt](path)) == expected
    if bulk is not None:
        referee = "parse_edge_list" if fmt == "edges" else "_read_node_lines"
        assert per_line_calls == ([] if bulk else [referee])


# per format, a file the bulk path takes when it is regular
BULK_TAKEN = {"edges": "4\n0 1\n1 2\n", "params": PARITY["params-plain"][1],
              "p0": PARITY["p0-plain"][1]}


@pytest.mark.parametrize("fmt", sorted(BULK_FIRST))
def test_a_fifo_is_read_once_line_by_line(tmp_path, per_line_calls, fmt):
    text = BULK_TAKEN[fmt]
    regular = tmp_path / "regular"
    regular.write_text(text)
    expected = outcome(lambda: BULK_FIRST[fmt](regular))
    assert per_line_calls == []
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_text, args=(text,), daemon=True)
    writer.start()
    assert outcome(lambda: BULK_FIRST[fmt](fifo)) == expected
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert len(per_line_calls) == 1


def patch_bulk_rows(monkeypatch, after):
    """Make the bulk readers' bulk_rows call ``after()`` once np.loadtxt has
    parsed the file."""
    def patched(*args, _read=textio.bulk_rows):
        rows = _read(*args)
        after()
        return rows
    for owner in (graphs, textio):
        monkeypatch.setattr(owner, "bulk_rows", patched)


def fail(exc):
    raise exc


@pytest.mark.parametrize("fmt", sorted(BULK_FIRST))
def test_an_os_error_in_the_bulk_path_propagates(tmp_path, per_line_calls, monkeypatch, fmt):
    path = tmp_path / "input"
    path.write_text(BULK_TAKEN[fmt])
    patch_bulk_rows(monkeypatch, lambda: fail(OSError("disk gone")))
    with pytest.raises(OSError, match="^disk gone$"):
        BULK_FIRST[fmt](path)
    assert per_line_calls == []


@pytest.mark.parametrize("reject", [lambda: fail(ValueError("rejected")),
                                    lambda: warnings.warn("rejected", RuntimeWarning)],
                         ids=["value-error", "warning"])
@pytest.mark.parametrize("fmt", sorted(BULK_FIRST))
def test_a_reject_outside_loadtxt_falls_back_once(tmp_path, per_line_calls, monkeypatch, fmt,
                                                   reject):
    path = tmp_path / "input"
    path.write_text(BULK_TAKEN[fmt])
    expected = outcome(lambda: BULK_FIRST[fmt](path))
    assert per_line_calls == []
    patch_bulk_rows(monkeypatch, reject)
    assert outcome(lambda: BULK_FIRST[fmt](path)) == expected
    assert per_line_calls == ["parse_edge_list" if fmt == "edges" else "_read_node_lines"]


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


@pytest.fixture
def forks(monkeypatch):
    """The pids of the processes forked in the test, which runs as if on
    two CPUs, so that state_writer starts its helper."""
    pids = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    return pids


def assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def distinct_state(n, seed):
    """A state of distinct values with NaN, +-inf, -0.0 and the least
    subnormal among them, in even and odd chunks alike."""
    state = np.random.default_rng(seed).random(n)
    specials = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324]
    for k, x in enumerate(specials):
        state[k * (n // len(specials)) + 1 :: 97][:3] = x
    assert _run_starts([state], n) is None  # row by row
    return state


@pytest.mark.parametrize("n", [2 * CSV_CHUNK - 1, 2 * CSV_CHUNK + 1, 5 * CSV_CHUNK + 3])
def test_helper_writes_the_bytes_of_write_rows(forks, n):
    state = distinct_state(n, n)
    runs = np.repeat([0.5, -0.0, np.nan], [n // 3, n // 3, n - 2 * (n // 3)])
    states = [(0, runs), (1, state), (2, state[::-1]), (3, np.full(n, 0.25)),
              (123456, distinct_state(n, n + 1))]
    assert state_writer_bytes(states, n) == write_rows_bytes(states, n)
    assert len(forks) == 1
    assert_reaped(forks)


def test_helper_starts_at_the_first_state_written_row_by_row(forks):
    n = 3 * CSV_CHUNK
    out = io.StringIO()
    with state_writer(out, n) as put:
        put(0, np.full(n, 0.5))
        put(1, np.repeat([0.25, 0.0], [n - 10, 10]))
        assert forks == []
        put(2, distinct_state(n, 2))
        assert len(forks) == 1
    assert_reaped(forks)


def test_one_cpu_or_one_chunk_starts_no_helper(forks, monkeypatch):
    for n, cpus in ((5 * CSV_CHUNK + 3, {0}), (CSV_CHUNK, {0, 1})):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        states = [(t, distinct_state(n, t)) for t in range(2)]
        assert state_writer_bytes(states, n) == write_rows_bytes(states, n)
    assert forks == []


def test_failed_fork_formats_alone_and_keeps_no_pipe(forks, monkeypatch):
    def failing_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", failing_fork)
    n = 5 * CSV_CHUNK + 3
    states = [(t, distinct_state(n, t)) for t in range(2)]
    fds = len(os.listdir("/proc/self/fd"))
    assert state_writer_bytes(states, n) == write_rows_bytes(states, n)
    assert len(os.listdir("/proc/self/fd")) == fds


def test_helper_leaves_one_chunk_a_write(forks):
    n = 5 * CSV_CHUNK + 3
    out = Recorder()
    with state_writer(out, n) as put:
        put(0, distinct_state(n, 0))
    assert len(forks) == 1
    assert sum(out.lines) == 1 + n and max(out.lines) <= CSV_CHUNK


def test_state_of_1e5_distinct_values_holds_one_chunk_of_objects(forks):
    n = 100_000
    state = np.random.default_rng(2).random(n)
    out = Digest()
    with state_writer(out, n) as put:
        tracemalloc.start()
        try:
            put(3, state)
            put(4, state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert len(forks) == 1
    text = "t,node,p\n" + "".join(f"{t},{i},{p!r}\n" for t in (3, 4)
                                   for i, p in enumerate(state.tolist()))
    assert out.sha.hexdigest() == hashlib.sha256(text.encode()).hexdigest()
    assert peak <= 1_000_000, f"{peak / 1e6:.1f} MB above the state"


class FailingStream:
    """A text stream whose ``fail_at``-th write raises."""

    def __init__(self, fail_at):
        self.writes, self.fail_at = 0, fail_at

    def write(self, text):
        self.writes += 1
        if self.writes == self.fail_at:
            raise RuntimeError("write failed")


@pytest.mark.parametrize("fail_at", [2, 3, 8])  # chunk 0 of a state, chunk 1, the next state
def test_helper_is_reaped_when_a_write_fails(forks, fail_at):
    n = 5 * CSV_CHUNK + 3
    with pytest.raises(RuntimeError, match="write failed"):
        with state_writer(FailingStream(fail_at), n) as put:
            put(0, distinct_state(n, 0))
            put(1, distinct_state(n, 1))
    assert len(forks) == 1
    assert_reaped(forks)


def test_helper_is_reaped_after_a_state_of_the_wrong_length(tmp_path, forks):
    n = 5 * CSV_CHUNK + 3
    out = tmp_path / "t.csv"
    with pytest.raises(ValueError, match=f"a state of {n - 1} entries for {n} nodes"):
        with state_writer(out, n) as put:
            put(0, distinct_state(n, 0))
            put(1, np.full(n - 1, 0.5))
    assert not out.exists()
    assert len(forks) == 1
    assert_reaped(forks)


@pytest.mark.parametrize("when", ["mid-state", "between-states"])
def test_killed_helper_fails_the_state_and_deletes_the_file(tmp_path, forks, monkeypatch, when):
    n = 5 * CSV_CHUNK + 3
    parent, format_chunk = os.getpid(), textio._format_chunk

    def dying_at_chunk_3(row, columns, a, b):
        if a == 3 * CSV_CHUNK and os.getpid() != parent:  # the helper, mid-state
            os.kill(os.getpid(), signal.SIGKILL)
        return format_chunk(row, columns, a, b)

    if when == "mid-state":
        monkeypatch.setattr(textio, "_format_chunk", dying_at_chunk_3)
    out = tmp_path / "t.csv"
    with pytest.raises(OSError):
        with state_writer(out, n) as put:
            put(0, distinct_state(n, 0))
            if when == "between-states":
                os.kill(forks[0], signal.SIGKILL)
                os.waitid(os.P_PID, forks[0], os.WEXITED | os.WNOWAIT)  # dead, not reaped
                put(1, distinct_state(n, 1))
    assert not out.exists()
    assert len(forks) == 1
    assert_reaped(forks)


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
