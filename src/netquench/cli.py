"""Command-line front end.

Subcommands: generate, analyze, control, simulate, enum, verify.  Reports
are JSON (nested data); tables and time series are CSV.  Every command is
deterministic: given its flags and seed, every run writes the same bytes.
Exit code 0 means every requested computation converged and validated.
Input the package cannot use raises ValueError, a failed computation (a
sigma(H) solve out of iterations) ArithmeticError and I/O OSError; main
prints each as one ``error: ...`` line and exits 1.  Anything else is a bug
that propagates with its traceback.
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


# Each graph kind: its graphs function and the options it takes after --n.
_GENERATORS = {
    "ring": ("generate_ring", ()),
    "regular": ("generate_random_regular", ("r", "seed")),
    "ba": ("generate_barabasi_albert", ("m0", "m", "seed")),
    "er": ("generate_erdos_renyi", ("p", "seed")),
}


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
        p0 = np.full(n, _p0_field(spec, float, spec.split(":", 1)[1]))
    elif spec.startswith("single:"):
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError(f"bad p0 spec {spec!r}; expected single:<node>:<v>")
        node, v = _p0_field(spec, int, parts[1]), _p0_field(spec, float, parts[2])
        if not 0 <= node < n:
            raise ValueError(f"p0 node {node} out of range for n={n}")
        p0 = np.zeros(n)
        p0[node] = v
    else:
        table, _ = read_node_table(spec, ("p",), n)  # unlisted nodes start at 0
        p0 = table[:, 0]
    return dynamics.as_state(p0, n)


def cmd_generate(args) -> int:
    name, flags = _GENERATORS[args.kind]
    for flag in ("r", "m0", "m", "p", "seed"):
        given = getattr(args, flag) is not None
        if given and flag not in flags:
            raise ValueError(f"generate {args.kind} does not take --{flag}")
        if not given and flag in flags and flag != "seed":
            raise ValueError(f"generate {args.kind} needs --{flag}")
    from . import graphs

    args.seed = args.seed or 0  # an absent seed is 0
    g = getattr(graphs, name)(args.n, *[getattr(args, flag) for flag in flags])
    graphs.write_graph(g, args.out)
    print(f"wrote {args.kind} graph: n={g.n}, edges={g.num_edges}", file=sys.stderr)
    return 0


def cmd_analyze(args) -> int:
    _check_outputs(("--out", args.out), ("--report-csv", args.report_csv))
    import json

    from . import control, dynamics, graphs

    g = graphs.read_graph(args.graph)
    params = dynamics.load_params(args.params, g.n)
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
    params = dynamics.load_params(args.params, g.n)
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
    params = dynamics.load_params(args.params, g.n)
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


def _connected_table(e, pmax):
    counts = e.connected_labeled_table(pmax)
    return "p,C_p", (range(1, len(counts) + 1), counts)


def _all_table(e, pmax):
    ps = range(pmax + 1)
    return "p,G_p", (ps, [e.count_all_labeled_graphs(p) for p in ps])


def _edges_table(e, p):
    ks = range(math.comb(p, 2) + 1)
    return "k,count", (ks, [e.count_labeled_graphs_with_edges(p, k) for k in ks])


def _regular_asym_table(e, degree, nmax):
    ns = [n for n in range(degree + 1, nmax + 1) if (n * degree) % 2 == 0]
    ln_l = [e.bollobas_regular_count_log(n, degree) for n in ns]
    ln_u = [e.unlabeled_regular_count_log(n, degree) if degree >= 3 else "" for n in ns]
    return "n,ln_labeled,ln_unlabeled", (ns, ln_l, ln_u)


def _rarity_table(e, degree, nmax):
    ns = [n for n in range(degree + 1, nmax + 1) if (n * degree) % 2 == 0]
    ln_l = [e.bollobas_regular_count_log(n, degree) for n in ns]
    ln_g = [math.comb(n, 2) * math.log(2.0) for n in ns]
    return "n,ln_L,ln_G,ln_ratio", (ns, ln_l, ln_g, [a - b for a, b in zip(ln_l, ln_g)])


def _catalan_table(e, nmax):
    exact = e.catalan_column(nmax)[1:]
    asym = [e.catalan_asymptotic_log(n) for n in range(2, nmax + 1)]
    ratio = [math.exp(math.log(f) - a) for f, a in zip(exact, asym)]
    return "n,f_n,ln_asymptotic,ratio", (range(2, nmax + 1), exact, asym, ratio)


def _wright_table(e, n):
    qs = range(n * (n - 1) // 2 + 1)
    return "q,value", (qs, [e.wright_condition_value(n, q) for q in qs])


# Each enum table: the function of ``enumeration`` and the table's options
# that gives its header and columns, and those options with their defaults.
_TABLES = {
    "connected": (_connected_table, {"pmax": 20}),
    "all": (_all_table, {"pmax": 20}),
    "edges": (_edges_table, {"p": 4}),
    "regular-asym": (_regular_asym_table, {"degree": 3, "nmax": 60}),
    "rarity": (_rarity_table, {"degree": 3, "nmax": 60}),
    "catalan": (_catalan_table, {"nmax": 60}),
    "wright": (_wright_table, {"n": 10}),
}


def cmd_enum(args) -> int:
    build, defaults = _TABLES[args.table]
    for flag in ("pmax", "p", "degree", "nmax", "n"):
        if getattr(args, flag) is not None and flag not in defaults:
            raise ValueError(f"enum {args.table} does not take --{flag}")
    from . import enumeration

    values = [default if getattr(args, flag) is None else getattr(args, flag)
              for flag, default in defaults.items()]
    write_csv(args.out, *build(enumeration, *values))
    return 0


def _verify_checks():
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
        brute = [oracles.brute_count_connected(p) for p in range(1, 7)]
        return brute == enumeration.connected_labeled_table(6)

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
    for desc, fn in _verify_checks():
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
    p_gen.add_argument("kind", choices=list(_GENERATORS))
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--r", type=int, help="degree (regular)")
    p_gen.add_argument("--m0", type=int, help="seed clique size (ba)")
    p_gen.add_argument("--m", type=int, help="edges per arrival (ba)")
    p_gen.add_argument("--p", type=float, help="edge probability (er)")
    p_gen.add_argument("--seed", type=int)
    p_gen.add_argument("--out", default="-")
    p_gen.set_defaults(func=cmd_generate)

    inputs = argparse.ArgumentParser(add_help=False)  # the graph and params files
    inputs.add_argument("--graph", required=True)
    inputs.add_argument("--params", required=True)

    p_an = sub.add_parser("analyze", parents=[inputs],
                          help="spectral radius, threshold verdict, flagged nodes")
    p_an.add_argument("--out", default="-")
    p_an.add_argument("--report-csv", default=None)
    p_an.set_defaults(func=cmd_analyze)

    p_ctl = sub.add_parser("control", parents=[inputs], help="tune beta on flagged nodes")
    p_ctl.add_argument("--kappa", type=float, default=None)  # None: control.DEFAULT_SAFETY
    p_ctl.add_argument("--params-out", required=True)
    p_ctl.add_argument("--plan-out", required=True)
    p_ctl.set_defaults(func=cmd_control)

    p_sim = sub.add_parser("simulate", parents=[inputs], help="run the exact dynamics to a verdict")
    p_sim.add_argument("--p0", default="uniform:0.2")
    p_sim.add_argument("--max-steps", type=int, default=10_000)
    p_sim.add_argument("--tol", type=float, default=1e-6)
    p_sim.add_argument("--endemic-window", type=int, default=200)
    p_sim.add_argument("--out", required=True)
    p_sim.set_defaults(func=cmd_simulate)

    p_enum = sub.add_parser("enum", help="counting tables and asymptotic sweeps as CSV")
    p_enum.add_argument("table", choices=list(_TABLES))
    # None: the table's default (see _TABLES); a table not reading one rejects it
    p_enum.add_argument("--pmax", type=int)
    p_enum.add_argument("--p", type=int)
    p_enum.add_argument("--degree", "--r", dest="degree", type=int)
    p_enum.add_argument("--nmax", type=int)
    p_enum.add_argument("--n", type=int)
    p_enum.add_argument("--out", default="-")
    p_enum.set_defaults(func=cmd_enum)

    p_ver = sub.add_parser("verify", help="run the brute-force oracle cross-checks")
    p_ver.add_argument("--expensive", action="store_true", help="no effect: every check always runs")
    p_ver.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ArithmeticError, OSError) as exc:
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
