"""The counting path starts without numpy: ``import netquench``, ``--help``,
every ``enum`` table and the ``enum`` error path each leave numpy unloaded.
Each case runs in a fresh interpreter, as ``python -m netquench.cli`` does."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs netquench.cli as __main__ with the given arguments, then prints
# whether numpy was loaded as the last stdout line and exits with the
# command's code.
RUN_CLI = """
import runpy, sys
sys.argv = ["netquench", *sys.argv[1:]]
try:
    runpy.run_module("netquench.cli", run_name="__main__", alter_sys=True)
    code = 0
except SystemExit as exc:
    code = exc.code
print("numpy" in sys.modules)
sys.exit(code)
"""


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


@pytest.mark.parametrize("table", [
    ["connected", "--pmax", "8"],
    ["all", "--pmax", "8"],
    ["edges", "--p", "5"],
    ["regular-asym", "--degree", "3", "--nmax", "20"],
    ["rarity", "--r", "3", "--nmax", "20"],
    ["catalan", "--nmax", "20"],
    ["wright", "--n", "6"],
], ids=lambda t: t[0])
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
