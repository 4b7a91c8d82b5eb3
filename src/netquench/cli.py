"""Command-line front end.

Subcommands: generate, analyze, control, simulate, enum, verify.  Reports
are JSON (nested data); tables and time series are CSV.  Every command is
deterministic: given its flags and seed, every run writes the same bytes.
Exit code 0 means every requested computation converged and validated; a
sigma(H) solve that runs out of iterations ends analyze, control and
simulate with ``error: ...`` and exit code 1 before they write any output.
A command's output files are all-or-nothing: each is opened before any is
written, and an error in any deletes them all.

Only ``textio`` loads with this module; each command imports what it runs
when it runs, so ``--help`` and ``enum`` start without numpy, only ``enum``
and ``verify`` load ``enumeration``, and only ``analyze`` loads ``json``.
A process enters through run(), which freezes the heap before the
interpreter exits.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import math
import os
import sys
from typing import TYPE_CHECKING

from .textio import open_output, read_node_table, state_writer, write_csv

if TYPE_CHECKING:
    import numpy as np

# Connected-count prefix (orders 1..11) pinned for the self-check.
_KNOWN_CONNECTED_PREFIX = (
    1,
    1,
    4,
    38,
    728,
    26704,
    1866256,
    251548592,
    66296291072,
    34496488594816,
    35641657548953344,
)

# Labeled r-regular counts for r = 0..n-1, one row per order n = 1..6.
_KNOWN_REGULAR_COUNTS = ((1,), (1, 1), (1, 0, 1), (1, 3, 3, 1), (1, 0, 12, 0, 1),
                         (1, 15, 70, 70, 15, 1))


# The options each generator needs beyond --n.
_GENERATE_FLAGS = {"regular": ("r",), "ba": ("m0", "m"), "er": ("p",)}


def _check_outputs(*outputs: tuple[str, str | None], summary: bool = False) -> None:
    """Raise ValueError if a command's ``(flag, path)`` outputs name one file
    twice, which both would write at once (stdout and an existing device such
    as /dev/null may repeat), or name stdout when it gets a ``summary`` line."""
    seen: dict[str, str] = {}
    for flag, path in outputs:
        if summary and path == "-":
            raise ValueError(f"{flag} cannot be '-': stdout carries the summary line")
        if path is None or path == "-" or (os.path.exists(path) and not os.path.isfile(path)):
            continue
        real = os.path.realpath(path)
        if real in seen:
            raise ValueError(f"{seen[real]} and {flag} name the same file {path!r}")
        seen[real] = flag


def _p0_field(spec: str, convert, text: str):
    """``convert(text)``, failing with a message that names the p0 spec."""
    try:
        return convert(text)
    except ValueError as exc:
        raise ValueError(f"bad p0 spec {spec!r}: {exc}") from None


def parse_p0_spec(spec: str, n: int) -> np.ndarray:
    """Initial condition: ``uniform:<v>``, ``single:<node>:<v>``, or a CSV
    path with header ``node,p`` (each node at most once, unlisted ones 0)."""
    import numpy as np

    from . import dynamics

    if spec.startswith("uniform:"):
        v = _p0_field(spec, float, spec.split(":", 1)[1])
        return dynamics.as_state(np.full(n, v), n)
    if spec.startswith("single:"):
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError(f"bad p0 spec {spec!r}; expected single:<node>:<v>")
        node, v = _p0_field(spec, int, parts[1]), _p0_field(spec, float, parts[2])
        if not 0 <= node < n:
            raise ValueError(f"p0 node {node} out of range for n={n}")
        p0 = np.zeros(n)
        p0[node] = v
        return dynamics.as_state(p0, n)
    return dynamics.as_state(read_node_table(spec, ("p",), n)[:, 0], n)


def cmd_generate(args) -> int:
    for flag in _GENERATE_FLAGS.get(args.kind, ()):
        if getattr(args, flag) is None:
            raise ValueError(f"generate {args.kind} needs --{flag}")
    from . import graphs

    if args.kind == "ring":
        g = graphs.generate_ring(args.n)
    elif args.kind == "regular":
        g = graphs.generate_random_regular(args.n, args.r, args.seed)
    elif args.kind == "ba":
        g = graphs.generate_barabasi_albert(args.n, args.m0, args.m, args.seed)
    elif args.kind == "er":
        g = graphs.generate_erdos_renyi(args.n, args.p, args.seed)
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown graph kind {args.kind!r}")
    graphs.write_graph(g, args.out)
    print(f"wrote {args.kind} graph: n={g.n}, edges={g.num_edges}", file=sys.stderr)
    return 0


def cmd_analyze(args) -> int:
    _check_outputs(("--out", args.out), ("--report-csv", args.report_csv))
    import json

    from . import control, dynamics, graphs

    g = graphs.read_graph(args.graph)
    params = dynamics.load_params(args.params)
    report = control.select_nodes(g, params)
    est = dynamics.spectral_radius(g, params)
    payload = {
        "n": g.n,
        "num_edges": g.num_edges,
        "sigma": est.sigma,
        "sigma_lower": est.lower,
        "sigma_upper": est.upper,
        "verdict": est.verdict,
        "flagged": report.flagged.tolist(),
    }
    report_out = open_output(args.report_csv) if args.report_csv else contextlib.nullcontext()
    with open_output(args.out) as fh, report_out as report_fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
        if report_fh is not None:
            control.write_selection_report(report, g, params, report_fh)
    return 0


def cmd_control(args) -> int:
    _check_outputs(("--params-out", args.params_out), ("--plan-out", args.plan_out), summary=True)
    from . import control, dynamics, graphs

    g = graphs.read_graph(args.graph)
    params = dynamics.load_params(args.params)
    report = control.select_nodes(g, params)
    kappa = control.DEFAULT_SAFETY if args.kappa is None else args.kappa
    tuned = control.tune_betas(g, params, report, kappa=kappa)
    est = dynamics.spectral_radius(g, tuned)
    with open_output(args.params_out) as params_fh, open_output(args.plan_out) as plan_fh:
        dynamics.save_params(tuned, params_fh)
        control.write_control_plan(report, params, tuned, plan_fh)
    stable = est.verdict == "stable"
    print(f"tuned={report.flagged.size} sigma={est.sigma!r} stable={str(stable).lower()}")
    return 0 if stable else 1


def cmd_simulate(args) -> int:
    _check_outputs(("--out", args.out), summary=True)
    from . import dynamics, graphs

    dynamics.check_simulate_args(args.max_steps, args.tol, args.endemic_window)
    g = graphs.read_graph(args.graph)
    params = dynamics.load_params(args.params)
    p0 = parse_p0_spec(args.p0, g.n)
    est = dynamics.spectral_radius(g, params)
    with state_writer(args.out, g.n) as put:
        traj = dynamics.simulate(
            g,
            params,
            p0,
            max_steps=args.max_steps,
            extinct_tol=args.tol,
            endemic_window=args.endemic_window,
            sink=put,
        )
    print(f"{traj.verdict},{traj.steps_to_verdict},{est.sigma!r}")
    return 0 if traj.verdict != dynamics.VERDICT_UNDECIDED else 1


def cmd_enum(args) -> int:
    from . import enumeration

    if args.table == "connected":
        counts = enumeration.connected_labeled_table(args.pmax)
        header, cols = "p,C_p", (range(1, len(counts) + 1), counts)
    elif args.table == "all":
        ps = range(args.pmax + 1)
        header, cols = "p,G_p", (ps, [enumeration.count_all_labeled_graphs(p) for p in ps])
    elif args.table == "edges":
        ks = range(math.comb(args.p, 2) + 1)
        counts = [enumeration.count_labeled_graphs_with_edges(args.p, k) for k in ks]
        header, cols = "k,count", (ks, counts)
    elif args.table in ("regular-asym", "rarity"):
        d = args.degree
        ns = [n for n in range(d + 1, args.nmax + 1) if (n * d) % 2 == 0]
        ln_l = [enumeration.bollobas_regular_count_log(n, d) for n in ns]
        if args.table == "rarity":
            ln_g = [math.comb(n, 2) * math.log(2.0) for n in ns]
            ratio = [a - b for a, b in zip(ln_l, ln_g)]
            header, cols = "n,ln_L,ln_G,ln_ratio", (ns, ln_l, ln_g, ratio)
        else:
            ln_u = ([enumeration.unlabeled_regular_count_log(n, d) for n in ns]
                    if d >= 3 else [""] * len(ns))
            header, cols = "n,ln_labeled,ln_unlabeled", (ns, ln_l, ln_u)
    elif args.table == "catalan":
        ns = range(2, args.nmax + 1)
        exact = enumeration.catalan_column(args.nmax)[1:]
        asym = [enumeration.catalan_asymptotic_log(n) for n in ns]
        ratio = [math.exp(math.log(e) - a) for e, a in zip(exact, asym)]
        header, cols = "n,f_n,ln_asymptotic,ratio", (ns, exact, asym, ratio)
    elif args.table == "wright":
        qs = range(args.n * (args.n - 1) // 2 + 1)
        header, cols = "q,value", (qs, [enumeration.wright_condition_value(args.n, q) for q in qs])
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown table {args.table!r}")
    write_csv(args.out, header, cols)
    return 0


def _verify_checks(expensive: bool):
    import random

    import numpy as np

    from . import dynamics, enumeration, graphs, oracles

    def check_connected_routes():
        pmax = 16
        table = enumeration.connected_labeled_table(pmax)
        if tuple(table[: len(_KNOWN_CONNECTED_PREFIX)]) != _KNOWN_CONNECTED_PREFIX:
            return False
        riordan = [enumeration.connected_labeled_riordan(p) for p in range(1, pmax + 1)]
        egf = enumeration.connected_labeled_egf_log(pmax)
        return table == riordan == egf

    def check_brute_connected():
        top = 6 if expensive else 5
        brute = [oracles.brute_count_connected(p) for p in range(1, top + 1)]
        return brute == enumeration.connected_labeled_table(top)

    def check_brute_regular():
        rows = tuple(tuple(oracles.brute_count_regular(n))
                     for n in range(1, len(_KNOWN_REGULAR_COUNTS) + 1))
        return rows == _KNOWN_REGULAR_COUNTS and all(row == row[::-1] for row in rows)

    def check_catalan():
        column = enumeration.catalan_column(14)
        return all(
            oracles.brute_catalan(n) == enumeration.catalan_coefficient(n) == column[n - 1]
            for n in range(1, 15)
        )

    def random_instances(rng):
        """20 seeded ER graphs of order 2..10 with random params."""
        for _ in range(20):
            n = rng.randint(2, 10)
            g = graphs.generate_erdos_renyi(n, 0.5, rng.randrange(1 << 30))
            yield g, dynamics.NodeParams(
                np.array([rng.uniform(0.05, 1.0) for _ in range(n)]),
                np.array([rng.uniform(0.01, 1.0) for _ in range(n)]),
                np.array([rng.uniform(0.1, 1.0) for _ in range(n)]),
            )

    def check_sis_step():
        # zeta_i against the plain product, and 1 - zeta_i against its
        # linear bound beta_i r_i sum_{j~i} p_j, which sigma(H) rests on
        rng = random.Random(20261018)
        for g, params in random_instances(rng):
            p = np.array([rng.random() for _ in range(g.n)])
            zeta = dynamics.zeta_vector(g, params, p)
            for i in range(g.n):
                ref = oracles.non_infection_probability(g, params, p, i)
                neighbors = g.indices[g.indptr[i] : g.indptr[i + 1]]
                rhs = params.beta[i] * params.r[i] * p[neighbors].sum()
                if abs(zeta[i] - ref) > 1e-12 * ref or 1.0 - zeta[i] > rhs + 1e-12 * max(1.0, rhs):
                    return False
        return True

    def check_lanczos_vs_dense():
        for g, params in random_instances(random.Random(20260809)):
            est = dynamics.spectral_radius(g, params)
            ref = oracles.dense_spectral_radius(oracles.dense_bound_matrix(g, params))
            if abs(est.sigma - ref) >= 1e-8 or not est.lower - 1e-12 <= ref <= est.upper + 1e-12:
                return False
        return True

    def check_regular_asymptotic():
        est = math.exp(enumeration.bollobas_regular_count_log(6, 3))
        return 0.5 <= est / 70.0 <= 2.0

    return [
        ("connected counts: three routes agree and match the pinned table", check_connected_routes),
        ("exhaustive connectivity counts match the recurrence", check_brute_connected),
        ("exhaustive regular counts and complement symmetry", check_brute_regular),
        ("Catalan formula matches the lattice-path count", check_catalan),
        ("SIS step: zeta matches the per-node product and obeys the product-vs-sum bound",
         check_sis_step),
        ("Lanczos matches the dense eigensolver, inside its bracket", check_lanczos_vs_dense),
        ("regular-count asymptotic anchored at the exact (6,3) count", check_regular_asymptotic),
    ]


def cmd_verify(args) -> int:
    failures = 0
    for desc, fn in _verify_checks(args.expensive):
        ok = fn()
        print(f"{'ok  ' if ok else 'FAIL'} {desc}")
        if not ok:
            failures += 1
    print(f"{'all checks passed' if failures == 0 else f'{failures} check(s) failed'}")
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netquench",
        description="SIS epidemic thresholds, control-node selection, and graph enumeration",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="write a graph as an edge-list file")
    p_gen.add_argument("kind", choices=["ring", "regular", "ba", "er"])
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--r", type=int, help="degree (regular)")
    p_gen.add_argument("--m0", type=int, help="seed clique size (ba)")
    p_gen.add_argument("--m", type=int, help="edges per arrival (ba)")
    p_gen.add_argument("--p", type=float, help="edge probability (er)")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", default="-")
    p_gen.set_defaults(func=cmd_generate)

    p_an = sub.add_parser("analyze", help="spectral radius, threshold verdict, flagged nodes")
    p_an.add_argument("--graph", required=True)
    p_an.add_argument("--params", required=True)
    p_an.add_argument("--out", default="-")
    p_an.add_argument("--report-csv", default=None)
    p_an.set_defaults(func=cmd_analyze)

    p_ctl = sub.add_parser("control", help="tune beta on flagged nodes")
    p_ctl.add_argument("--graph", required=True)
    p_ctl.add_argument("--params", required=True)
    p_ctl.add_argument("--kappa", type=float, default=None)  # None: control.DEFAULT_SAFETY
    p_ctl.add_argument("--params-out", required=True)
    p_ctl.add_argument("--plan-out", required=True)
    p_ctl.set_defaults(func=cmd_control)

    p_sim = sub.add_parser("simulate", help="run the exact dynamics to a verdict")
    p_sim.add_argument("--graph", required=True)
    p_sim.add_argument("--params", required=True)
    p_sim.add_argument("--p0", default="uniform:0.2")
    p_sim.add_argument("--max-steps", type=int, default=10_000)
    p_sim.add_argument("--tol", type=float, default=1e-6)
    p_sim.add_argument("--endemic-window", type=int, default=200)
    p_sim.add_argument("--out", required=True)
    p_sim.set_defaults(func=cmd_simulate)

    p_enum = sub.add_parser("enum", help="counting tables and asymptotic sweeps as CSV")
    p_enum.add_argument(
        "table",
        choices=["connected", "all", "edges", "regular-asym", "rarity", "catalan", "wright"],
    )
    p_enum.add_argument("--pmax", type=int, default=20)
    p_enum.add_argument("--p", type=int, default=4)
    p_enum.add_argument("--degree", "--r", dest="degree", type=int, default=3)
    p_enum.add_argument("--nmax", type=int, default=60)
    p_enum.add_argument("--n", type=int, default=10)
    p_enum.add_argument("--out", default="-")
    p_enum.set_defaults(func=cmd_enum)

    p_ver = sub.add_parser("verify", help="run the brute-force oracle cross-checks")
    p_ver.add_argument("--expensive", action="store_true")
    p_ver.set_defaults(func=cmd_verify)

    return parser


def _reported_errors() -> tuple[type[BaseException], ...]:
    """What main reports as ``error: ...``.  ConvergenceError and
    GenerationError are named only once their modules are loaded: before
    that neither can have been raised, and importing them would load numpy."""
    errors = [ValueError, ArithmeticError, OSError]
    for module, name in (("dynamics", "ConvergenceError"), ("graphs", "GenerationError")):
        loaded = sys.modules.get(f"{__package__}.{module}")
        if loaded is not None:
            errors.append(getattr(loaded, name))
    return tuple(errors)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _reported_errors() as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    """The process entry (``python -m netquench.cli`` and the ``netquench``
    script): main(), then exit with its code.  Whatever way main leaves,
    including argparse's SystemExit, the heap is frozen first, so that the
    interpreter's exit-time collections skip the objects the imports made,
    none of which is garbage.  In-process callers use main(), which leaves
    the collector as it found it."""
    try:
        code = main()
    finally:
        gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
