"""Benchmark of the netquench command-line pipeline.

    python3 perfbench/run.py --workload ba_hetero --seed 1 --seconds 35 --trace 0

Run from any directory of a checkout; the program is imported from the
checkout's ``src/``, nothing is installed.  Workloads (see README.md for why
each was chosen):

* ``ba_hetero``     Barabasi-Albert graph, heterogeneous parameters: the
                    sigma(H) solve dominates.
* ``regular_homog`` random 3-regular graph, homogeneous parameters: sigma is
                    found in 2 steps; parsing, per-node loops, the simulate
                    loop and the trajectory CSV dominate.
* ``enum_sweeps``   counting tables and asymptotic sweeps, then
                    ``verify --expensive``: no graph files, and no solver
                    work beyond the small oracle graphs of ``verify``.

``--trace 0`` is the timed run: a closed loop with one client, one fresh
``netquench`` process per command, the next command spawned when the last
one exited.  Passes over the workload's commands repeat until ``--seconds``
have elapsed; after each pass a fixed reference job (``calibrate.py``) runs
the same way.  It reports set-up time (median of the set-ups), the wall time
of a pass in multiples of the reference job's (median over passes of the
ratio) and the peak RSS of the pass's largest child (median over passes).

``--trace 1`` runs the same commands in this process through
``netquench.cli.main``, alternating an untraced pass with a traced one, and
reports per-layer times and counts from spans recorded around the calls
into ``graphs``, ``dynamics``, ``control``, ``enumeration`` and ``oracles``.

Every command's output is checked against an independent reference
(``checks.py``).  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable report, and the full record with provenance is written to
``.perfbench/results/``.  ``--smoke`` runs the same code at toy size.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
from tracing import Tracer, summarize

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
KAPPA = "0.9"
# Generator seed of the graph workloads' instance, by size (README.md says
# why these two).
DEFAULT_INSTANCE_SEED = {"full": 4, "smoke": 7}
# A run must end within 180 s; stop spawning work well before that.
RUN_DEADLINE_S = 165.0
KNOWN_DIGIT_LIMIT_ERROR = "Exceeds the limit (4300 digits) for integer string conversion"

END_TO_END = [("setup_s", "s"), ("pipeline_vs_ref", "x"), ("peak_rss_mb", "MB")]

PER_LAYER = [
    ("graphs.generate_s", "s"),
    ("graphs.read_graph_s", "s"),
    ("graphs.read_graph_calls", "count"),
    ("graphs.graph_build_s", "s"),
    ("graphs.edges", "count"),
    ("graphs.self_s", "s"),
    ("dynamics.load_params_s", "s"),
    ("dynamics.save_params_s", "s"),
    ("dynamics.spectral_radius_s", "s"),
    ("dynamics.spectral_radius_iters", "count"),
    ("dynamics.spectral_radius_calls", "count"),
    ("dynamics.matvec_calls", "count"),
    ("dynamics.matvec_us", "us"),
    ("dynamics.matvec_bytes", "B"),
    ("dynamics.matvec_flop_per_byte", "flop/B"),
    ("dynamics.sigma_abs_err", "1"),
    ("dynamics.simulate_s", "s"),
    ("dynamics.simulate_steps", "count"),
    ("dynamics.sis_step_calls", "count"),
    ("dynamics.trajectory_mb", "MB"),
    ("dynamics.write_trajectory_s", "s"),
    ("dynamics.trajectory_csv_mb", "MB"),
    ("dynamics.self_s", "s"),
    ("control.select_nodes_s", "s"),
    ("control.select_nodes_calls", "count"),
    ("control.flagged", "count"),
    ("control.tune_betas_s", "s"),
    ("control.verify_stabilization_s", "s"),
    ("control.write_selection_report_s", "s"),
    ("control.write_control_plan_s", "s"),
    ("control.self_s", "s"),
    ("cli.self_s.analyze", "s"),
    ("cli.self_s.control", "s"),
    ("cli.self_s.simulate", "s"),
    ("cli.self_s.enum", "s"),
    ("cli.self_s.verify", "s"),
    ("cli.known_failures", "count"),
    ("enumeration.connected_table_s", "s"),
    ("enumeration.regular_count_log_s", "s"),
    ("enumeration.regular_count_log_calls", "count"),
    ("enumeration.catalan_s", "s"),
    ("enumeration.connected_routes_s", "s"),
    ("enumeration.self_s", "s"),
    ("oracles.brute_s", "s"),
    ("oracles.dense_s", "s"),
    ("oracles.self_s", "s"),
    ("share.sigma_in_control", "%"),
    ("share.writer_in_simulate", "%"),
    ("trace.overhead_s", "s"),
]


class SetupError(RuntimeError):
    """The program failed while the benchmark prepared its inputs."""


# ------------------------------------------------------------- workloads

@dataclass(frozen=True)
class Command:
    label: str
    argv: list
    check: object  # stdout path -> (ok, message, info)
    known_failure: str | None = None
    outputs: tuple = ()  # large files removed once checked


@dataclass(frozen=True)
class GraphWorkload:
    sizes: dict  # "full"/"smoke" -> n
    generate: object  # (n, seed) -> generate argv
    params: object  # (n, seed) -> (mu, beta, r)
    sigma_method: str
    simulate_args: tuple = ()


@dataclass(frozen=True)
class EnumWorkload:
    sizes: dict  # "full"/"smoke" -> dict of command sizes


def _hetero_params(n, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.1, 1.0, n), rng.uniform(0.01, 0.3, n), rng.uniform(0.2, 1.0, n)


def _homog_params(n, seed):
    return np.full(n, 0.8), np.full(n, 0.3), np.full(n, 1.0)


WORKLOADS = {
    "ba_hetero": GraphWorkload(
        {"full": 5_000, "smoke": 300},
        lambda n, s: ["ba", "--n", str(n), "--m0", "3", "--m", "2", "--seed", str(s)],
        _hetero_params, "lanczos", ("--tol", "1e-2"),
    ),
    "regular_homog": GraphWorkload(
        {"full": 5_000, "smoke": 400},
        lambda n, s: ["regular", "--n", str(n), "--r", "3", "--seed", str(s)],
        _homog_params, "regular",
    ),
    "enum_sweeps": EnumWorkload(
        {"full": {"pmax": 160, "failing_pmax": 200, "rarity": 1500, "asym": 800,
                  "catalan": 2000, "verify": ["--expensive"]},
         "smoke": {"pmax": 20, "failing_pmax": 200, "rarity": 60, "asym": 60,
                   "catalan": 60, "verify": []}},
    ),
}


@dataclass
class Instance:
    commands: list
    info: dict = field(default_factory=dict)


def graph_setup(wl, size, instance_seed, seed, run, workdir):
    """Set up the instance once.  Returns ``set_up``, which makes one set-up
    and returns its seconds: the program's ``generate`` plus writing the
    params CSV, with the params relabelled by a permutation drawn from
    ``seed``.  Also returns the instance's data, for which the generated
    edge list is relabelled by the same permutation (untimed)."""
    n = wl.sizes[size]
    perm = np.random.default_rng(seed % (1 << 64)).permutation(n)
    mu, beta, r = (_relabel(a, perm) for a in wl.params(n, instance_seed))
    raw = workdir / "generated.edges"

    def set_up():
        start = time.perf_counter()
        done = run(["generate", *wl.generate(n, instance_seed), "--out", str(raw)],
                   workdir / "generate.out", workdir / "generate.err")
        if done["code"] != 0:
            raise SetupError(f"generate exited {done['code']}: "
                             f"{(workdir / 'generate.err').read_text()}")
        checks.write_params_file(workdir / "params.csv", mu, beta, r)
        return time.perf_counter() - start

    set_up()
    n_read, edges = checks.read_edge_file(raw)
    if n_read != n:
        raise SetupError(f"generate wrote {n_read} vertices, expected {n}")
    edges = perm[edges]
    checks.write_edge_file(workdir / "graph.edges", n, edges)
    return set_up, (n, edges, mu, beta, r)


def _relabel(values, perm):
    out = np.empty_like(values)
    out[perm] = values
    return out


def graph_instance(wl, data, workdir):
    n, edges, mu, beta, r = data
    ref = checks.GraphReference(n, edges, mu, beta, r, float(KAPPA), wl.sigma_method)
    f = {k: str(workdir / v) for k, v in {
        "graph": "graph.edges", "params": "params.csv", "report": "report.csv",
        "tuned": "tuned.csv", "plan": "plan.csv", "traj": "trajectory.csv"}.items()}
    commands = [
        Command("analyze",
                ["analyze", "--graph", f["graph"], "--params", f["params"], "--report-csv", f["report"]],
                lambda out: ref.check_analyze(out, f["report"])),
        Command("control",
                ["control", "--graph", f["graph"], "--params", f["params"], "--kappa", KAPPA,
                 "--params-out", f["tuned"], "--plan-out", f["plan"]],
                lambda out: ref.check_control(out, f["tuned"], f["plan"])),
        Command("simulate",
                ["simulate", "--graph", f["graph"], "--params", f["tuned"], *wl.simulate_args,
                 "--out", f["traj"]],
                lambda out: ref.check_simulate(out, f["traj"]), outputs=(f["traj"],)),
    ]
    info = {"n": n, "edges": len(edges), "flagged": int(ref.flagged.size),
            "sigma_raw_ref": ref.sigma_raw, "sigma_tuned_ref": ref.sigma_tuned}
    if ref.lanczos:
        info["lanczos"] = ref.lanczos
    return Instance(commands, info)


def enum_instance(wl, size):
    s = wl.sizes[size]
    ref = checks.EnumReference(s["pmax"])
    commands = [
        Command("enum_connected", ["enum", "connected", "--pmax", str(s["pmax"])],
                lambda out: ref.check_connected(out, s["pmax"])),
        Command("enum_connected_failing", ["enum", "connected", "--pmax", str(s["failing_pmax"])],
                lambda out: ref.check_connected(out, s["failing_pmax"]),
                known_failure=KNOWN_DIGIT_LIMIT_ERROR),
        Command("enum_rarity", ["enum", "rarity", "--r", "3", "--nmax", str(s["rarity"])],
                lambda out: checks.check_rarity(out, 3, s["rarity"])),
        Command("enum_regular_asym",
                ["enum", "regular-asym", "--degree", "4", "--nmax", str(s["asym"])],
                lambda out: checks.check_regular_asym(out, 4, s["asym"])),
        Command("enum_catalan", ["enum", "catalan", "--nmax", str(s["catalan"])],
                lambda out: checks.check_catalan(out, s["catalan"])),
        Command("verify", ["verify", *s["verify"]], checks.check_verify),
    ]
    return Instance(commands, {"commands": [" ".join(c.argv) for c in commands]})


# --------------------------------------------------------------- runners

class ChildRunner:
    """Runs ``python -m netquench.cli ARGV`` (or, by ``reference``, the
    reference job) as a fresh process, through the small ``spawner.py``
    process.  Returns wall seconds from spawn to exit, peak RSS in MB and the
    exit code.  Use as a context manager: leaving it stops the spawner."""

    def __init__(self, deadline):
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.spawner = subprocess.Popen(
            [sys.executable, "-S", str(Path(__file__).with_name("spawner.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.spawner.stdin.close()
        self.spawner.wait()

    def __call__(self, argv, stdout_path, stderr_path):
        return self.spawn([sys.executable, "-m", "netquench.cli", *argv], stdout_path, stderr_path)

    def reference(self, workdir):
        """Seconds of one run of the reference job ``calibrate.py``."""
        done = self.spawn([sys.executable, str(Path(__file__).with_name("calibrate.py")),
                           str(workdir / "calibrate.csv")],
                          workdir / "calibrate.out", workdir / "calibrate.err")
        if done["code"] != 0:
            raise SetupError(f"calibrate.py exited {done['code']}: "
                             f"{(workdir / 'calibrate.err').read_text()}")
        return done["seconds"]

    def spawn(self, argv, stdout_path, stderr_path):
        request = {"argv": argv, "env": self.env,
                   "stdout": str(stdout_path), "stderr": str(stderr_path),
                   "timeout": self.deadline - time.monotonic()}
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        reply = json.loads(self.spawner.stdout.readline())
        status = reply["status"]
        return {"seconds": reply["seconds"], "rss_mb": reply["maxrss_kb"] / 1024.0,
                "code": os.waitstatus_to_exitcode(status) if status is not None else -9}


class InProcessRunner:
    """Runs ``netquench.cli.main(ARGV)`` in this process, as a root span when
    a tracer is given.  RSS is not measured in-process (reported as 0)."""

    def __init__(self, tracer=None):
        from netquench import cli

        self.main = cli.main
        self.tracer = tracer

    def __call__(self, argv, stdout_path, stderr_path):
        with open(stdout_path, "w", encoding="utf-8") as out, \
                open(stderr_path, "w", encoding="utf-8") as err, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                if self.tracer is None:
                    code = self.main(argv)
                else:
                    code = self.tracer.root(f"cli.{argv[0]}", self.main, argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            elapsed = time.perf_counter() - start
        return {"seconds": elapsed, "rss_mb": 0.0, "code": code}


def run_command(run, cmd, workdir):
    out, err = workdir / f"{cmd.label}.out", workdir / f"{cmd.label}.err"
    done = run(cmd.argv, out, err)
    code = done.pop("code")
    stderr = err.read_text(encoding="utf-8", errors="replace")
    info = {}
    if code == 0:
        try:
            ok, message, info = cmd.check(out)
        except (ValueError, LookupError, OSError) as exc:
            ok, message = False, f"unreadable output: {exc!r}"
        outcome = "ok" if ok else "failed"
    elif cmd.known_failure is not None and cmd.known_failure in stderr:
        outcome, message = "known", cmd.known_failure
    else:
        outcome, message = "failed", f"exit {code}: {stderr.strip()[-300:]}"
    for path in cmd.outputs:
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)
    return {"label": cmd.label, "command": cmd.argv[0], **done,
            "outcome": outcome, "message": message, "info": info}


def run_pass(run, instance, workdir):
    return [run_command(run, cmd, workdir) for cmd in instance.commands]


# ----------------------------------------------------------- timed run

def timed_run(wl, size, seed, instance_seed, seconds, workdir, started):
    deadline = started + RUN_DEADLINE_S
    passes = []
    with ChildRunner(deadline) as run:
        if isinstance(wl, GraphWorkload):
            set_up, data = graph_setup(wl, size, instance_seed, seed, run, workdir)
            instance = graph_instance(wl, data, workdir)
        else:
            def set_up():
                done = run(["--help"], workdir / "start.out", workdir / "start.err")
                if done["code"] != 0:
                    raise SetupError(f"netquench --help exited {done['code']}")
                return done["seconds"]
            instance = enum_instance(wl, size)
        # After each pass, one run of the reference job and one timed
        # set-up; the first set-up comes before the first pass.  Spread over
        # the run as the passes are, the set-ups do not all meet the host in
        # one state, as set-ups made back to back would.
        setups, references = [set_up()], []
        loop_start = time.monotonic()
        while True:
            passes.append(run_pass(run, instance, workdir))
            references.append(run.reference(workdir))
            setups.append(set_up())
            if time.monotonic() - loop_start >= seconds or time.monotonic() > deadline - 20:
                break
    pass_seconds = [sum(c["seconds"] for c in p) for p in passes]
    metrics = {
        "setup_s": statistics.median(setups),
        "pipeline_vs_ref": statistics.median(t / ref for t, ref in zip(pass_seconds, references)),
        "peak_rss_mb": statistics.median(max(c["rss_mb"] for c in p) for p in passes),
    }
    return metrics, passes, {"setup_s": setups, "reference_s": references,
                             "pass_s": pass_seconds, **instance.info}


def command_summary(passes, extra):
    """The figures of the readable report: each command's wall time (fastest
    and median over passes) and peak RSS, with the enum commands summed
    (time) and maxed (RSS) into ``enum``; then the pass and reference-job
    wall times (median)."""
    groups = {}
    for i, c in enumerate(passes[0]):
        groups.setdefault("enum" if c["command"] == "enum" else c["label"], []).append(i)
    out = {}
    for name, idx in groups.items():
        times = [sum(p[i]["seconds"] for i in idx) for p in passes]
        out[f"{name}_s"] = (min(times), statistics.median(times))
        out[f"{name}_rss_mb"] = statistics.median(max(p[i]["rss_mb"] for i in idx) for p in passes)
    for name in ("pass_s", "reference_s"):
        out[name] = (min(extra[name]), statistics.median(extra[name]))
    return out


# ----------------------------------------------------------- traced run

def traced_run(wl, size, seed, instance_seed, seconds, workdir, started):
    import netquench
    from netquench import cli, control, dynamics, enumeration, graphs, oracles

    tracer = Tracer(extract={
        "graphs.read_graph": lambda args, g: g.num_edges,
        "dynamics.spectral_radius": lambda args, est: est.iterations,
        "dynamics.simulate": lambda args, traj: (traj.steps_to_verdict, traj.states.nbytes),
        "control.select_nodes": lambda args, report: len(report.flagged),
        "dynamics.linear_bound_step": lambda args, _: (args[0].n, int(args[0].indices.size)),
    })
    modules = (graphs, dynamics, control, enumeration, oracles)

    @contextlib.contextmanager
    def tracing(run_id):
        tracer.run = run_id
        tracer.install(modules, also_patch=(cli, netquench), classes=(graphs.Graph,))
        try:
            yield
        finally:
            tracer.uninstall()

    plain, traced = InProcessRunner(), InProcessRunner(tracer)
    if isinstance(wl, GraphWorkload):
        with tracing("setup"):
            _, data = graph_setup(wl, size, instance_seed, seed, traced, workdir)
        instance = graph_instance(wl, data, workdir)
    else:
        instance = enum_instance(wl, size)

    deadline = started + RUN_DEADLINE_S
    pairs = []
    loop_start = time.monotonic()
    while True:
        # alternate which side runs first, so drift in host speed cancels
        if len(pairs) % 2 == 0:
            untraced_pass = run_pass(plain, instance, workdir)
        with tracing(len(pairs)):
            traced_pass = run_pass(traced, instance, workdir)
        if len(pairs) % 2 == 1:
            untraced_pass = run_pass(plain, instance, workdir)
        pairs.append((untraced_pass, traced_pass))
        if time.monotonic() - loop_start >= seconds or time.monotonic() > deadline - 40:
            break
    per_pass = [layer_metrics(tracer, i, traced_pass, untraced_pass)
                for i, (untraced_pass, traced_pass) in enumerate(pairs)]
    metrics = {name: (statistics.median_low if unit == "count" else statistics.median)(
        [m[name] for m in per_pass]) for name, unit in PER_LAYER}
    counts_repeat = counts_repeat_between_passes(per_pass)
    overhead = {
        c["label"]: statistics.median(t[k]["seconds"] - u[k]["seconds"] for u, t in pairs)
        for k, c in enumerate(pairs[0][0])
    }
    split = layer_split(tracer.spans)
    passes = [p for pair in pairs for p in pair]
    return metrics, passes, {"counts_repeat_between_passes": counts_repeat,
                             "overhead_s_per_command": overhead, "layer_split": split,
                             **instance.info}


def counts_repeat_between_passes(per_pass):
    """Whether every count metric reads the same in every traced pass; the
    program is deterministic, so a difference means the run is wrong."""
    counts = [name for name, unit in PER_LAYER if unit == "count"]
    return all(m[name] == per_pass[0][name] for m in per_pass for name in counts)


def layer_metrics(tracer, run_id, results, untraced):
    inclusive, calls, self_time, under = summarize([s for s in tracer.spans if s[5] == run_id])
    setup_inclusive = summarize([s for s in tracer.spans if s[5] == "setup"])[0]

    def t(name):
        return inclusive.get(name, 0.0)

    def extracted(name):
        return tracer.extracted.get((run_id, name), [])

    def module_self(prefix):
        return sum(v for k, v in self_time.items() if k.startswith(prefix + "."))

    def share(root, name):
        return 100.0 * under.get((root, name), 0.0) / t(root) if t(root) else 0.0

    generators = [k for k in (*inclusive, *setup_inclusive) if k.startswith("graphs.generate_")]
    matvec_shape = extracted("dynamics.linear_bound_step")
    if matvec_shape:
        n, nnz = matvec_shape[0]
        # computed, not measured: x, mu, beta, r, degrees, output, indptr,
        # indices and the gathered x[indices] (written, then read)
        matvec_bytes = 8.0 * (6 * n + (n + 1) + 3 * nnz)
        matvec_flops = nnz + 5.0 * n
    else:
        matvec_bytes = matvec_flops = 0.0
    simulated = extracted("dynamics.simulate")
    infos = [r["info"] for r in results]
    m = {
        "graphs.generate_s": sum(t(k) + setup_inclusive.get(k, 0.0) for k in set(generators)),
        "graphs.read_graph_s": t("graphs.read_graph"),
        "graphs.read_graph_calls": calls.get("graphs.read_graph", 0),
        "graphs.graph_build_s": t("graphs.Graph"),
        "graphs.edges": max(extracted("graphs.read_graph"), default=0),
        "graphs.self_s": module_self("graphs"),
        "dynamics.load_params_s": t("dynamics.load_params"),
        "dynamics.save_params_s": t("dynamics.save_params"),
        "dynamics.spectral_radius_s": t("dynamics.spectral_radius"),
        "dynamics.spectral_radius_iters": sum(extracted("dynamics.spectral_radius")),
        "dynamics.spectral_radius_calls": calls.get("dynamics.spectral_radius", 0),
        "dynamics.matvec_calls": calls.get("dynamics.linear_bound_step", 0),
        "dynamics.matvec_us": (1e6 * t("dynamics.linear_bound_step")
                               / max(calls.get("dynamics.linear_bound_step", 0), 1)),
        "dynamics.matvec_bytes": matvec_bytes,
        "dynamics.matvec_flop_per_byte": matvec_flops / matvec_bytes if matvec_bytes else 0.0,
        "dynamics.sigma_abs_err": max((i.get("sigma_abs_err", 0.0) for i in infos), default=0.0),
        "dynamics.simulate_s": t("dynamics.simulate"),
        "dynamics.simulate_steps": sum(s for s, _ in simulated),
        "dynamics.sis_step_calls": calls.get("dynamics.sis_step", 0),
        "dynamics.trajectory_mb": max((b for _, b in simulated), default=0) / 1e6,
        "dynamics.write_trajectory_s": t("dynamics.write_trajectory_csv"),
        "dynamics.trajectory_csv_mb": max((i.get("trajectory_csv_mb", 0.0) for i in infos),
                                          default=0.0),
        "dynamics.self_s": module_self("dynamics"),
        "control.select_nodes_s": t("control.select_nodes"),
        "control.select_nodes_calls": calls.get("control.select_nodes", 0),
        "control.flagged": max(extracted("control.select_nodes"), default=0),
        "control.tune_betas_s": t("control.tune_betas"),
        "control.verify_stabilization_s": t("control.verify_stabilization"),
        "control.write_selection_report_s": t("control.write_selection_report"),
        "control.write_control_plan_s": t("control.write_control_plan"),
        "control.self_s": module_self("control"),
        "cli.known_failures": sum(r["outcome"] == "known" for r in results),
        "enumeration.connected_table_s": t("enumeration.connected_labeled_table"),
        "enumeration.regular_count_log_s": t("enumeration.bollobas_regular_count_log"),
        "enumeration.regular_count_log_calls": calls.get("enumeration.bollobas_regular_count_log", 0),
        "enumeration.catalan_s": (t("enumeration.catalan_coefficient")
                                  + t("enumeration.catalan_asymptotic_log")),
        "enumeration.connected_routes_s": (t("enumeration.connected_labeled_riordan")
                                           + t("enumeration.connected_labeled_egf_log")),
        "enumeration.self_s": module_self("enumeration"),
        "oracles.brute_s": (t("oracles.brute_count_connected") + t("oracles.brute_count_regular")
                            + t("oracles.brute_catalan")),
        "oracles.dense_s": t("oracles.dense_spectral_radius"),
        "oracles.self_s": module_self("oracles"),
        "share.sigma_in_control": share("cli.control", "dynamics.spectral_radius"),
        "share.writer_in_simulate": share("cli.simulate", "dynamics.write_trajectory_csv"),
        "trace.overhead_s": (sum(r["seconds"] for r in results)
                             - sum(r["seconds"] for r in untraced)),
    }
    for command in ("analyze", "control", "simulate", "enum", "verify"):
        m[f"cli.self_s.{command}"] = self_time.get(f"cli.{command}", 0.0)
    return m


def layer_split(spans):
    """Calls into each layer per root command, over every traced pass."""
    by_id = {s[0]: s for s in spans}
    split = {}
    for sid, name, _, _, parent, run in spans:
        if run == "setup" or parent is None:
            continue
        root = parent
        while by_id[root][4] is not None:
            root = by_id[root][4]
        key = f"{by_id[root][1]} -> {name.split('.')[0]}"
        split[key] = split.get(key, 0) + 1
    return dict(sorted(split.items()))


# ------------------------------------------------------------ reporting

def provenance(args, size):
    def cpu_model():
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
        return platform.processor() or "unknown"

    def caches():
        out = {}
        for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
            def read(name):
                with open(os.path.join(index, name), encoding="utf-8") as fh:
                    return fh.read().strip()
            kind = {"Data": "d", "Instruction": "i"}.get(read("type"), "")
            out[f"L{read('level')}{kind}"] = read("size")
        return out

    def git_commit():
        if not (ROOT / ".git").exists():
            return "unknown (not a git checkout)"
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        return done.stdout.strip() or "unknown"

    def safe(fn):
        try:
            return fn()
        except (OSError, subprocess.SubprocessError) as exc:
            return f"unknown ({exc.__class__.__name__})"

    src_lines = 0
    for path in sorted(SRC.rglob("*.py")):
        with open(path, "rb") as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "workload": args.workload, "size": size, "seed": args.seed,
        "instance_seed": args.instance_seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "cpu_model": safe(cpu_model), "cpu_caches": safe(caches),
        "python": platform.python_version(), "numpy": np.__version__,
        "git_commit": safe(git_commit), "src_lines": src_lines,
        "clients": 1, "loop": "closed",
    }


def print_report(prov, metrics, units, passes, extra, attempted, failed, known):
    print(f"# netquench benchmark: {prov['workload']} ({prov['size']}), seed {prov['seed']}, "
          f"instance seed {prov['instance_seed']}, trace {prov['trace']}")
    print(f"# nproc {prov['nproc']}, {prov['cpu_model']}, caches {prov['cpu_caches']}, "
          f"python {prov['python']}, numpy {prov['numpy']}, commit {prov['git_commit']}, "
          f"src lines {prov['src_lines']}")
    if prov["trace"] == 0:
        print(f"# {len(passes)} passes; times: fastest, then median; RSS: median")
        for name, value in command_summary(passes, extra).items():
            if name.endswith("_mb"):
                print(f"{name:36s} {value:14.6g} MB")
            else:
                print(f"{name:36s} {value[0]:14.6g} s   (median {value[1]:.6g} s)")
    else:
        print(f"# {len(passes) // 2} traced passes, each paired with an untraced one; "
              f"counts repeat between passes: {extra['counts_repeat_between_passes']}")
        for label, value in extra["overhead_s_per_command"].items():
            print(f"{'trace.overhead_s.' + label:36s} {value:14.6g} s")
        for key, count in extra["layer_split"].items():
            print(f"{'calls ' + key:36s} {count:14d} count")
    for name, value in metrics.items():
        print(f"{name:36s} {value:14.6g} {units[name]}")
    print(f"{'error_rate':36s} {(failed + known) / attempted:14.6g} 1   "
          f"({failed} unexpected + {known} known failures / {attempted} attempted)")
    failures = {}
    for c in (c for p in passes for c in p if c["outcome"] != "ok"):
        key = f"{c['outcome']} failure: {c['label']}: {c['message']}"
        failures[key] = failures.get(key, 0) + 1
    for key, count in failures.items():
        print(f"# {count} x {key}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1,
                        help="relabels the instance (graph workloads); same seed, same inputs")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="repeat passes over the commands until this much time has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--instance-seed", type=int,
                        help="generator seed of the graph and parameters (held-out checks; "
                             "default 4, or 7 with --smoke)")
    parser.add_argument("--smoke", action="store_true", help="toy sizes, for the benchmark's tests")
    args = parser.parse_args(argv)
    started = time.monotonic()
    if not (SRC / "netquench" / "cli.py").is_file():
        print(f"error: no netquench sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    size = "smoke" if args.smoke else "full"
    if args.instance_seed is None:
        args.instance_seed = DEFAULT_INSTANCE_SEED[size]
    wl = WORKLOADS[args.workload]
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = traced_run if args.trace else timed_run
        metrics, passes, extra = runner(wl, size, args.seed, args.instance_seed, args.seconds,
                                        workdir, started)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = dict(PER_LAYER if args.trace else END_TO_END)
    results = [c for p in passes for c in p]
    attempted = len(results)
    failed = sum(c["outcome"] == "failed" for c in results)
    known = sum(c["outcome"] == "known" for c in results)
    counts_repeat = extra.get("counts_repeat_between_passes", True)
    if not counts_repeat:
        print("error: call or iteration counts differed between traced passes", file=sys.stderr)
    prov = provenance(args, size)
    print_report(prov, metrics, units, passes, extra, attempted, failed, known)
    record = {"provenance": prov, "metrics": metrics, "extra": extra, "passes": passes,
              "attempted": attempted, "failed": failed, "known_failures": known}
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-{size}-seed{args.seed}-trace{args.trace}.json"
    with open(results_dir / name, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=float)
    print(json.dumps({
        "correct": failed == 0 and counts_repeat, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
