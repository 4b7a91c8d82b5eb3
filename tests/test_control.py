import itertools
import math
import random

import numpy as np
import pytest

from netquench.control import (
    SelectionReport,
    select_nodes,
    tune_betas,
    write_control_plan,
    write_selection_report,
)
from netquench.dynamics import NodeParams, spectral_radius
from netquench.graphs import (
    Graph,
    generate_barabasi_albert,
    generate_erdos_renyi,
    generate_random_regular,
    generate_ring,
)
from netquench.oracles import dense_bound_matrix, dense_spectral_radius

STAR9 = Graph(10, [(0, i) for i in range(1, 10)])


def star(leaves: int) -> Graph:
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


class TestDiscs:
    def test_isolated_node(self):
        g = Graph(1)
        params = NodeParams.homogeneous(1, 0.4, 0.8, 0.9)
        rep = select_nodes(g, params)
        assert rep.margins.tolist() == [0.4]  # center 0.6, radius 0

    def test_star_hub(self):
        g = star(4)
        params = NodeParams.homogeneous(5, 0.5, 0.25, 1.0)
        rep = select_nodes(g, params)
        assert rep.margins[0] == pytest.approx(0.5 - 1.0)  # center 0.5, radius 1.0

    def test_ring_node(self):
        g = generate_ring(6)
        params = NodeParams.homogeneous(6, 0.2, 0.3, 0.9)
        rep = select_nodes(g, params)
        assert rep.margins[3] == pytest.approx(0.2 - 0.54)  # center 0.8, radius 0.54

    def test_arrays_are_center_and_radius_formulas(self):
        rng = random.Random(53)
        for _ in range(10):
            n = rng.randint(2, 30)
            g = generate_erdos_renyi(n, rng.uniform(0.1, 0.7), rng.randrange(1 << 30))
            params = NodeParams(
                np.array([rng.uniform(0.05, 1.0) for _ in range(n)]),
                np.array([rng.uniform(0.0, 1.0) for _ in range(n)]),
                np.array([rng.uniform(0.05, 1.0) for _ in range(n)]),
            )
            rep = select_nodes(g, params)
            assert np.array_equal(rep.margins, params.mu - params.beta * params.r * g.degrees)
            assert not rep.margins.flags.writeable

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError, match="does not match graph order"):
            select_nodes(generate_ring(5), NodeParams.homogeneous(4, 0.5, 0.1, 1.0))


class TestSelect:
    def test_regular_homogeneous_all_or_nothing(self):
        for g in (generate_ring(7), Graph(5, itertools.combinations(range(5), 2))):
            for beta in (0.05, 0.2, 0.9):
                rep = select_nodes(g, NodeParams.homogeneous(g.n, 0.4, beta, 0.8))
                assert len(rep.flagged) in (0, g.n)

    def test_star_flags_hub_only(self):
        rep = select_nodes(STAR9, NodeParams.homogeneous(10, 0.5, 0.2, 1.0))
        assert rep.flagged.tolist() == [0]
        assert rep.margins[0] == pytest.approx(0.5 - 1.8)
        assert rep.margins[1] == pytest.approx(0.3)

    def test_no_infection_flags_nothing(self):
        rep = select_nodes(STAR9, NodeParams.homogeneous(10, 0.5, 0.0, 1.0))
        assert rep.flagged.size == 0

    def test_boundary_case_is_flagged(self):
        g = star(4)
        rep = select_nodes(g, NodeParams.homogeneous(5, 0.8, 0.2, 1.0))
        assert 0 in rep.flagged  # margin exactly 0

    def test_flagged_is_sorted_read_only_id_array(self):
        rng = np.random.default_rng(5)
        g = generate_erdos_renyi(60, 0.1, 11)
        params = NodeParams(rng.uniform(0.05, 1.0, 60), rng.uniform(0.0, 0.5, 60),
                            rng.uniform(0.05, 1.0, 60))
        rep = select_nodes(g, params)
        assert rep.flagged.dtype == np.int64 and not rep.flagged.flags.writeable
        assert np.array_equal(rep.flagged, np.flatnonzero(rep.margins <= 0.0))
        assert 0 < rep.flagged.size < g.n


class TestTune:
    def test_star_formula(self):
        params = NodeParams.homogeneous(10, 0.5, 0.2, 1.0)
        rep = select_nodes(STAR9, params)
        tuned = tune_betas(STAR9, params, rep, kappa=0.9)
        assert rep.flagged.tolist() == [0]
        assert tuned.beta[0] == pytest.approx(0.05)
        assert np.all(tuned.beta[1:] == 0.2)
        assert select_nodes(STAR9, tuned).flagged.size == 0

    def test_noop_when_unflagged(self):
        params = NodeParams.homogeneous(10, 0.5, 0.01, 1.0)
        rep = select_nodes(STAR9, params)
        tuned = tune_betas(STAR9, params, rep)
        assert rep.flagged.size == 0
        assert np.array_equal(tuned.beta, params.beta)

    def test_homogeneous_ring(self):
        g = generate_ring(12)
        params = NodeParams.homogeneous(12, 0.2, 0.3, 0.9)
        rep = select_nodes(g, params)
        tuned = tune_betas(g, params, rep, kappa=0.9)
        assert rep.flagged.size == 12
        assert np.allclose(tuned.beta, 0.1)

    def test_idempotent(self):
        rng = random.Random(41)
        for _ in range(25):
            n = rng.randint(2, 30)
            g = generate_erdos_renyi(n, rng.uniform(0.2, 0.8), rng.randrange(1 << 30))
            params = NodeParams(
                np.array([rng.uniform(0.05, 1.0) for _ in range(n)]),
                np.array([rng.uniform(0.0, 1.0) for _ in range(n)]),
                np.array([rng.uniform(0.05, 1.0) for _ in range(n)]),
            )
            tuned = tune_betas(g, params, select_nodes(g, params))
            rep2 = select_nodes(g, tuned)
            assert rep2.flagged.size == 0
            again = tune_betas(g, tuned, rep2)
            assert np.array_equal(again.beta, tuned.beta)
            assert np.all(tuned.beta <= params.beta)  # control only restricts

    def test_kappa_validation(self):
        params = NodeParams.homogeneous(10, 0.5, 0.2, 1.0)
        rep = select_nodes(STAR9, params)
        for bad in (0.0, 1.0, 1.5, -0.2):
            with pytest.raises(ValueError):
                tune_betas(STAR9, params, rep, kappa=bad)

    def test_inconsistent_report_rejected(self):
        g = Graph(2)  # no edges: degree 0 everywhere
        params = NodeParams.homogeneous(2, 0.5, 0.5, 0.5)
        real = select_nodes(g, params)
        fake = SelectionReport(real.margins, np.array([0]))
        with pytest.raises(RuntimeError, match="consistency"):
            tune_betas(g, params, fake)

    def test_size_mismatch_rejected(self):
        ring9 = generate_ring(9)
        params = NodeParams.homogeneous(9, 0.2, 0.3, 0.9)
        rep = select_nodes(ring9, params)
        with pytest.raises(ValueError, match="does not match graph order"):
            tune_betas(ring9, NodeParams.homogeneous(20, 0.2, 0.3, 0.9), rep)
        ring20 = generate_ring(20)
        with pytest.raises(ValueError, match="report covers 9 nodes"):
            tune_betas(ring20, NodeParams.homogeneous(20, 0.2, 0.3, 0.9), rep)


def _reference_tune(g, params, report, kappa):
    """The per-node loop tune_betas replaced: one Python min per flagged node,
    then single-ulp steps down while rounding leaves the margin at or below 0."""
    new_beta = np.array(params.beta)
    for i in report.flagged.tolist():
        mu, r, deg = float(params.mu[i]), float(params.r[i]), float(g.degrees[i])
        scale = r * deg
        assert scale != 0.0
        beta = min(float(params.beta[i]), kappa * mu / scale)
        while mu - beta * r * deg <= 0.0:
            beta = math.nextafter(beta, 0.0)
        new_beta[i] = beta
    return new_beta


@pytest.mark.parametrize("kappa", [0.5, 0.9, 1.0 - 2.0**-53])
@pytest.mark.parametrize("make_graph", [
    lambda seed: generate_barabasi_albert(800, 3, 2, seed),
    lambda seed: generate_random_regular(400, 3, seed),
    lambda seed: generate_erdos_renyi(300, 0.02, seed),
], ids=["ba", "regular", "er"])
def test_tune_matches_per_node_reference(make_graph, kappa):
    for seed in (1, 2):
        g = make_graph(seed)
        rng = np.random.default_rng(seed)
        mu = rng.uniform(0.05, 1.0, g.n)
        beta = rng.uniform(0.0, 0.5, g.n)
        r = rng.uniform(0.05, 1.0, g.n)
        beta[rng.random(g.n) < 0.1] = 0.0
        r[rng.random(g.n) < 0.1] = 0.0
        params = NodeParams(mu, beta, r)
        rep = select_nodes(g, params)
        assert rep.flagged.size > 0
        tuned = tune_betas(g, params, rep, kappa)
        assert np.array_equal(tuned.beta, _reference_tune(g, params, rep, kappa))


@pytest.mark.parametrize("kappa", [0.5, 0.9, 1.0 - 2.0**-53])
def test_tuned_params_flag_nothing(kappa):
    # at kappa = 1 - 2**-53, kappa * mu / (r * deg) rounds back onto the
    # boundary for a few percent of the flagged nodes
    g = generate_barabasi_albert(5000, 3, 2, seed=1)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        params = NodeParams(rng.uniform(0.05, 1.0, g.n), rng.uniform(0.0, 0.5, g.n),
                            rng.uniform(0.05, 1.0, g.n))
        rep = select_nodes(g, params)
        assert rep.flagged.size > 0
        tuned = tune_betas(g, params, rep, kappa)
        assert select_nodes(g, tuned).flagged.size == 0


class TestVerifyStabilization:
    def test_post_tune_star(self):
        params = NodeParams.homogeneous(10, 0.5, 0.2, 1.0)
        tuned = tune_betas(STAR9, params, select_nodes(STAR9, params))
        est = spectral_radius(STAR9, tuned)
        assert est.verdict == "stable" and est.sigma < 1.0

    def test_no_infection_network(self):
        g = generate_ring(5)
        params = NodeParams(
            np.array([0.2, 0.4, 0.6, 0.8, 1.0]), np.zeros(5), np.ones(5)
        )
        est = spectral_radius(g, params)
        assert est.sigma == pytest.approx(0.8, abs=1e-10)
        assert est.verdict == "stable"

    def test_untuned_endemic_ring(self):
        g = generate_ring(9)
        est = spectral_radius(g, NodeParams.homogeneous(9, 0.2, 0.3, 0.9))
        assert est.verdict == "unstable"
        assert est.sigma == pytest.approx(1.34, abs=1e-9)


class TestProperties:
    def test_sufficiency_empty_flag_set_means_stable(self):
        rng = random.Random(43)
        checked = 0
        for trial in range(120):
            n = rng.randint(2, 30)
            g = generate_erdos_renyi(n, rng.uniform(0.1, 0.6), rng.randrange(1 << 30))
            deg = np.maximum(g.degrees, 1)
            mu = np.array([rng.uniform(0.1, 1.0) for _ in range(n)])
            r = np.array([rng.uniform(0.3, 1.0) for _ in range(n)])
            # half the trials keep every disc strictly inside, half are mixed
            s_hi = 0.95 if trial % 2 == 0 else 1.4
            beta = np.minimum(
                1.0, np.array([rng.uniform(0.2, s_hi) for _ in range(n)]) * mu / (r * deg)
            )
            params = NodeParams(mu, beta, r)
            if select_nodes(g, params).flagged.size:
                continue
            est = spectral_radius(g, params)
            assert est.sigma < 1.0
            checked += 1
        assert checked >= 30

    def test_margin_ordering_invariant_under_scaling(self):
        rng = random.Random(47)
        for _ in range(20):
            n = rng.randint(3, 25)
            g = generate_erdos_renyi(n, 0.4, rng.randrange(1 << 30))
            params = NodeParams(
                np.array([rng.uniform(0.05, 1.0) for _ in range(n)]),
                np.array([rng.uniform(0.01, 1.0) for _ in range(n)]),
                np.array([rng.uniform(0.05, 1.0) for _ in range(n)]),
            )
            c = rng.uniform(0.1, 1.0)
            scaled = NodeParams(c * params.mu, c * params.beta, params.r)
            m1 = select_nodes(g, params).margins
            m2 = select_nodes(g, scaled).margins
            assert np.allclose(m2, c * m1, rtol=1e-12, atol=1e-15)
            assert list(np.argsort(m1, kind="stable")) == list(
                np.argsort(m2, kind="stable")
            )

    def test_flagged_yet_stable_witness_exists(self):
        # the criterion is sufficient, not necessary: search small stars
        witnesses = []
        for leaves in range(2, 7):
            g = star(leaves)
            for mu in (0.2, 0.4, 0.6, 0.8):
                for beta in (0.05, 0.1, 0.2, 0.3):
                    params = NodeParams.homogeneous(g.n, mu, beta, 1.0)
                    rep = select_nodes(g, params)
                    if rep.flagged.size == 0:
                        continue
                    sigma = dense_spectral_radius(dense_bound_matrix(g, params))
                    if sigma < 1.0:
                        witnesses.append((leaves, mu, beta, sigma))
        assert witnesses, "no flagged-yet-stable instance found"
        # pinned witness: hub of a 4-leaf star at the margin boundary
        g = star(4)
        params = NodeParams.homogeneous(5, 0.8, 0.2, 1.0)
        rep = select_nodes(g, params)
        sigma = dense_spectral_radius(dense_bound_matrix(g, params))
        assert rep.flagged.tolist() == [0]
        assert sigma == pytest.approx(0.6, abs=1e-12)
        assert (4, 0.8, 0.2) in {(w[0], w[1], w[2]) for w in witnesses}


class TestCsvOutputs:
    def test_selection_report_format(self, tmp_path):
        params = NodeParams.homogeneous(10, 0.5, 0.2, 1.0)
        rep = select_nodes(STAR9, params)
        out = tmp_path / "report.csv"
        write_selection_report(rep, STAR9, params, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "node,degree,mu,beta,r,margin,flagged"
        assert lines[1].startswith("0,9,0.5,0.2,1.0,") and lines[1].endswith(",1")
        assert lines[2].endswith(",0")
        assert len(lines) == 11

    def test_plan_format(self, tmp_path):
        params = NodeParams.homogeneous(10, 0.5, 0.2, 1.0)
        rep = select_nodes(STAR9, params)
        tuned = tune_betas(STAR9, params, rep)
        out = tmp_path / "plan.csv"
        write_control_plan(rep, params, tuned, out)
        lines = out.read_text().splitlines()
        assert lines == ["node,beta_old,beta_new", "0,0.2,0.05"]

    def test_files_use_lf_line_endings(self, tmp_path):
        params = NodeParams.homogeneous(10, 0.5, 0.2, 1.0)
        rep = select_nodes(STAR9, params)
        tuned = tune_betas(STAR9, params, rep)
        write_selection_report(rep, STAR9, params, tmp_path / "r.csv")
        write_control_plan(rep, params, tuned, tmp_path / "p.csv")
        for name, rows in (("r.csv", 11), ("p.csv", 2)):
            data = (tmp_path / name).read_bytes()
            assert b"\r" not in data
            assert data.count(b"\n") == rows and data.endswith(b"\n")
