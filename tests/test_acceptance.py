"""End-to-end acceptance suite.

Each test is one numbered criterion at its stated tolerance and prints a
single pass/fail line (run with ``pytest -s`` to see the lines live).
"""

import csv
import itertools
import math
import random
import time
from contextlib import contextmanager

import numpy as np

from netquench import cli
from netquench.control import select_nodes, tune_betas
from netquench.dynamics import (
    NodeParams,
    linear_bound_step,
    load_params,
    save_params,
    simulate,
    sis_step,
    spectral_radius,
)
from netquench.enumeration import (
    bollobas_regular_count_log,
    catalan_asymptotic_log,
    catalan_coefficient,
    connected_labeled_egf_log,
    connected_labeled_riordan,
    connected_labeled_table,
)
from netquench.graphs import (
    Graph,
    generate_barabasi_albert,
    generate_erdos_renyi,
    generate_random_regular,
    generate_ring,
    write_graph,
)
from netquench.oracles import (
    brute_count_connected,
    brute_count_regular,
    dense_bound_matrix,
    dense_spectral_radius,
)

# Connected-count reference values.  Orders 1..11 are exact; orders 12..20
# are pinned at 6 significant figures (compared as relative error <= 5e-6).
# The order-18 entry as circulated elsewhere (1.41641e46) is a digit
# transposition: it exceeds 2^153 ~ 1.14180e46, the count of ALL labeled
# graphs on 18 vertices, so the corrected value is pinned here.
CONNECTED_EXACT = {
    1: 1,
    2: 1,
    3: 4,
    4: 38,
    5: 728,
    6: 26704,
    7: 1866256,
    8: 251548592,
    9: 66296291072,
    10: 34496488594816,
    11: 35641657548953344,
}
CONNECTED_SIX_FIGURES = {
    12: 7.335460e19,
    13: 3.012722e23,
    14: 2.471649e27,
    15: 4.052768e31,
    16: 1.328579e36,
    17: 8.708969e40,
    18: 1.141641e46,
    19: 2.992930e51,
    20: 1.569216e57,
}


@contextmanager
def criterion(num: int, title: str):
    try:
        yield
    except BaseException:
        print(f"criterion {num}: FAIL — {title}")
        raise
    print(f"criterion {num}: PASS — {title}")


def random_instance(rng, n_lo, n_hi):
    kind = rng.choice(("er", "ba", "regular"))
    n = rng.randint(n_lo, n_hi)
    seed = rng.randrange(1 << 30)
    if kind == "er":
        g = generate_erdos_renyi(n, rng.uniform(0.15, 0.7), seed)
    elif kind == "ba":
        m0 = rng.randint(1, min(3, n))
        m = rng.randint(1, m0)
        g = generate_barabasi_albert(n, m0, m, seed)
    else:
        r = rng.randint(1, min(4, n - 1)) if n > 1 else 0
        if (n * r) % 2:
            r -= 1
        g = generate_random_regular(n, r, seed)
    params = NodeParams(
        np.array([rng.uniform(0.1, 1.0) for _ in range(n)]),
        np.array([rng.uniform(0.01, 1.0) for _ in range(n)]),
        np.array([rng.uniform(0.3, 1.0) for _ in range(n)]),
    )
    return g, params


def test_criterion_1_connected_table(tmp_path):
    with criterion(1, "connected-count table, orders 1..20, under 1 s"):
        out = tmp_path / "connected.csv"
        start = time.perf_counter()
        assert cli.main(
            ["enum", "connected", "--pmax", "20", "--out", str(out)]
        ) == 0
        elapsed = time.perf_counter() - start
        rows = [l.split(",") for l in out.read_text().splitlines()[1:]]
        got = {int(p): int(c) for p, c in rows}
        for p, expected in CONNECTED_EXACT.items():
            assert got[p] == expected, f"exact mismatch at order {p}"
        for p, expected in CONNECTED_SIX_FIGURES.items():
            rel = abs(got[p] - expected) / expected
            assert rel <= 5e-6, f"order {p}: rel err {rel:.2e} beyond 6 significant figures"
        assert elapsed < 1.0, f"table took {elapsed:.3f} s"


def test_criterion_2_triple_oracle():
    with criterion(2, "three independent connected-count routes agree, brute force anchors"):
        start = time.perf_counter()
        table = connected_labeled_table(30)
        riordan = [connected_labeled_riordan(p) for p in range(1, 31)]
        egf = connected_labeled_egf_log(30)
        assert table == riordan == egf
        for p in range(1, 6):
            assert brute_count_connected(p) == table[p - 1]
        assert brute_count_connected(6) == 26704 == table[5]
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"triple oracle took {elapsed:.1f} s"


def test_criterion_3_regular_rarity(tmp_path):
    with criterion(3, "regular graphs vanish in probability (r = 3, 4, 5)"):
        for r in (3, 4, 5):
            out = tmp_path / f"rarity{r}.csv"
            assert cli.main(["enum", "rarity", "--degree", str(r), "--nmax", "60",
                             "--out", str(out)]) == 0
            with open(out, newline="") as fh:
                rows = {int(row["n"]): float(row["ln_ratio"]) for row in csv.DictReader(fh)}
            assert list(rows) == [n for n in range(r + 1, 61) if (n * r) % 2 == 0]
            ratios = list(rows.values())
            assert all(a > b for a, b in zip(ratios, ratios[1:])), f"not decreasing at r={r}"
            if r == 3:
                assert rows[10] < math.log(1e-6)


def test_criterion_4_bollobas_anchoring():
    with criterion(4, "asymptotic 3-regular count within factor 2 of the exact count at n=6"):
        start = time.perf_counter()
        exact = brute_count_regular(6)[3]  # exhausts all 32768 graphs
        assert exact == 70
        estimate = math.exp(bollobas_regular_count_log(6, 3))
        assert 0.5 <= estimate / exact <= 2.0
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"anchoring took {elapsed:.1f} s"


def test_criterion_5_gerschgorin_sufficiency(tmp_path):
    with criterion(5, "empty flagged set implies stability; tuning always stabilizes"):
        rng = random.Random(20260515)
        instances = []
        while len(instances) < 100:
            n_lo, n_hi = (2, 10) if len(instances) % 2 == 0 else (11, 50)
            g, params = random_instance(rng, n_lo, n_hi)
            if g.n < 1:
                continue
            instances.append((g, params))
        unflagged_seen = 0
        for g, params in instances:
            report = select_nodes(g, params)
            est = spectral_radius(g, params)
            if report.flagged.size == 0:
                unflagged_seen += 1
                assert est.sigma < 1.0
            if g.n <= 10:
                ref = dense_spectral_radius(dense_bound_matrix(g, params))
                assert abs(est.sigma - ref) < 1e-8
            tuned = tune_betas(g, params, report, kappa=0.9)
            assert select_nodes(g, tuned).flagged.size == 0
            tuned_est = spectral_radius(g, tuned)
            assert tuned_est.sigma < 1.0
        # the command-line control path agrees on a subsample
        for g, params in instances[::20]:
            gp, pp = tmp_path / "g.edges", tmp_path / "p.csv"
            write_graph(g, gp)
            save_params(params, pp)
            tuned_path = tmp_path / "t.csv"
            code = cli.main(
                ["control", "--graph", str(gp), "--params", str(pp), "--kappa", "0.9",
                 "--params-out", str(tuned_path), "--plan-out", str(tmp_path / "plan.csv")]
            )
            assert code == 0
            assert select_nodes(g, load_params(tuned_path)).flagged.size == 0


def test_criterion_6_extinction_dynamics():
    with criterion(6, "scale-free network: subcritical goes extinct, supercritical endemic"):
        g = generate_barabasi_albert(500, 3, 2, seed=97)
        lam_max = spectral_radius(g, NodeParams.homogeneous(500, 1.0, 1.0, 1.0)).sigma
        mu = 0.4
        p0 = np.full(500, 0.2)

        beta_sub = (0.90 - (1.0 - mu)) / lam_max
        sub = NodeParams.homogeneous(500, mu, beta_sub, 1.0)
        est = spectral_radius(g, sub)
        assert est.sigma < 0.95
        traj = simulate(g, sub, p0, max_steps=10_000, extinct_tol=1e-6)
        assert traj.verdict == "extinct"
        assert traj.steps_to_verdict <= 10_000
        assert traj.states[-1].max() < 1e-6

        beta_end = (1.20 - (1.0 - mu)) / lam_max
        end = NodeParams.homogeneous(500, mu, beta_end, 1.0)
        est = spectral_radius(g, end)
        assert est.sigma > 1.1
        traj = simulate(g, end, p0, max_steps=10_000, extinct_tol=1e-6)
        assert traj.verdict == "endemic"


def test_criterion_7_bound_domination():
    with criterion(7, "linear bound dominates the exact dynamics for 1000 steps"):
        rng = random.Random(20260516)
        for _ in range(100):
            g, params = random_instance(rng, 3, 18)
            # keep the bound iterates finite over 1000 steps
            beta = np.array(params.beta)
            while spectral_radius(g, params.with_beta(beta)).sigma > 1.4:
                beta *= 0.5
            params = params.with_beta(beta)
            p = np.array([rng.random() for _ in range(g.n)])
            x = p.copy()
            for _ in range(1000):
                p = sis_step(g, params, p)
                x = linear_bound_step(g, params, x)
                assert np.all(p <= x + 1e-9 * np.maximum(1.0, x))


def test_criterion_8_catalan_asymptotics():
    with criterion(8, "exact Catalan coefficients converge to the closed asymptotic form"):
        for n, tol in ((200, 0.02), (1000, 0.005)):
            ratio = math.exp(
                math.log(catalan_coefficient(n)) - catalan_asymptotic_log(n)
            )
            assert abs(ratio - 1.0) < tol, f"n={n}: ratio {ratio}"


def test_criterion_9_regular_homogeneous_degeneracy():
    with criterion(9, "regular graph + homogeneous params flags all nodes or none"):
        graphs = [generate_ring(n) for n in range(3, 21)]
        graphs += [Graph(n, itertools.combinations(range(n), 2)) for n in range(2, 21)]
        for g in graphs:
            for mu in (0.1, 0.5, 0.9):
                for beta in (0.0, 0.1, 0.5, 1.0):
                    for r in (0.0, 0.5, 1.0):
                        params = NodeParams.homogeneous(g.n, mu, beta, r)
                        flagged = select_nodes(g, params).flagged
                        assert len(flagged) in (0, g.n), (
                            f"proper subset flagged on n={g.n}, "
                            f"mu={mu}, beta={beta}, r={r}"
                        )
