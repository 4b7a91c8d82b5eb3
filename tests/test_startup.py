"""The counting path starts without numpy: ``import netquench``, ``--help``,
every ``enum`` table and the ``enum`` error paths each leave numpy unloaded.
Every command loads only the modules it runs, and leaves through run(),
which freezes the heap.  Each case runs in a fresh interpreter, as
``python -m netquench.cli`` does."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs netquench.cli as __main__ with the given arguments, then prints
# {report} as the last stdout line and exits with the command's code.
RUN_CLI_REPORTING = """
import gc, runpy, sys
sys.argv = ["netquench", *sys.argv[1:]]
try:
    runpy.run_module("netquench.cli", run_name="__main__", alter_sys=True)
    code = 0
except SystemExit as exc:
    code = exc.code
print({report})
sys.exit(code)
"""
RUN_CLI = RUN_CLI_REPORTING.format(report='"numpy" in sys.modules')
# The watched modules that are loaded, in this order, then whether the heap
# is frozen.
WATCHED = ("numpy", "json", "fractions", "netquench.enumeration")
RUN_CLI_LOADED = RUN_CLI_REPORTING.format(
    report=f"*(m for m in {WATCHED!r} if m in sys.modules), gc.get_freeze_count() > 0")

ENUM_TABLES = [
    ["connected", "--pmax", "8"],
    ["all", "--pmax", "8"],
    ["edges", "--p", "5"],
    ["regular-asym", "--degree", "3", "--nmax", "20"],
    ["rarity", "--r", "3", "--nmax", "20"],
    ["catalan", "--nmax", "20"],
    ["wright", "--n", "6"],
]


def run_python(*argv):
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=120)


def test_import_netquench_leaves_numpy_unloaded():
    done = run_python("-c", "import sys, netquench; netquench.catalan_column(5); "
                            "print('numpy' in sys.modules)")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


def test_help_leaves_numpy_unloaded():
    done = run_python("-c", RUN_CLI, "--help")
    assert done.returncode == 0, done.stderr
    assert "usage: netquench" in done.stdout
    assert done.stdout.splitlines()[-1] == "False"


@pytest.mark.parametrize("table", ENUM_TABLES, ids=lambda t: t[0])
def test_enum_table_leaves_numpy_unloaded(tmp_path, table):
    out = tmp_path / "table.csv"
    done = run_python("-c", RUN_CLI, "enum", *table, "--out", str(out))
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"
    assert len(out.read_text().splitlines()) > 1


def test_enum_error_path_leaves_numpy_unloaded(tmp_path):
    out = tmp_path / "connected.csv"
    done = run_python("-c", RUN_CLI, "enum", "connected", "--pmax", "200", "--out", str(out))
    assert done.returncode == 1
    assert done.stderr.startswith(
        "error: Exceeds the limit (4300 digits) for integer string conversion")
    assert done.stdout == "False\n"
    assert not out.exists()


GRAPH_FILES = ["--graph", "ring.edges", "--params", "params.csv"]
# (argv, exit code, the WATCHED modules it loads)
COMMANDS = [
    (["--help"], 0, []),
    (["enum", "no-such-table"], 2, []),
    *[(["enum", *table, "--out", "table.csv"], 0, ["netquench.enumeration"])
      for table in ENUM_TABLES],
    (["enum", "connected", "--pmax", "200", "--out", "table.csv"], 1,
     ["netquench.enumeration"]),
    (["enum", "catalan", "--pmax", "3", "--out", "table.csv"], 1, []),  # a foreign option
    (["generate", "ring", "--n", "10", "--out", "ring10.edges"], 0, ["numpy"]),
    (["analyze", *GRAPH_FILES, "--out", "report.json"], 0, ["numpy", "json"]),
    (["control", *GRAPH_FILES, "--params-out", "tuned.csv", "--plan-out", "plan.csv"], 0,
     ["numpy"]),
    (["simulate", *GRAPH_FILES, "--out", "traj.csv"], 0, ["numpy"]),
    (["verify"], 0, ["numpy", "fractions", "netquench.enumeration"]),
]


@pytest.mark.parametrize("argv, code, loaded", COMMANDS, ids=[" ".join(c[0]) for c in COMMANDS])
def test_command_loads_what_it_runs_and_exits_frozen(tmp_path, argv, code, loaded):
    (tmp_path / "ring.edges").write_text("6\n" + "".join(f"{i} {(i + 1) % 6}\n" for i in range(6)))
    (tmp_path / "params.csv").write_text(
        "node,mu,beta,r\n" + "".join(f"{i},0.5,0.2,1.0\n" for i in range(6)))
    done = subprocess.run([sys.executable, "-c", RUN_CLI_LOADED, *argv], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=tmp_path,
                          timeout=120)
    assert done.returncode == code, done.stderr
    assert done.stdout.splitlines()[-1] == " ".join([*loaded, "True"])
