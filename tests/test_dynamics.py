import itertools
import random
import tracemalloc

import numpy as np
import pytest

from netquench import dynamics
from netquench.control import select_nodes, tune_betas
from netquench.dynamics import (
    MARGINAL_TOL,
    ConvergenceError,
    NodeParams,
    SpectralEstimate,
    linear_bound_step,
    load_params,
    save_params,
    simulate,
    sis_step,
    spectral_radius,
    zeta_vector,
)
from netquench.graphs import (
    Graph,
    generate_barabasi_albert,
    generate_erdos_renyi,
    generate_ring,
)
from netquench.oracles import dense_bound_matrix, dense_spectral_radius, non_infection_probability
from netquench.textio import csv_writer


STAR9 = Graph(10, [(0, i) for i in range(1, 10)])
STAR9_PARAMS = NodeParams.homogeneous(10, 0.5, 0.2, 1.0)


def verdict_of(sigma):
    """The verdict of a bracket that pins sigma exactly."""
    return SpectralEstimate(sigma, 0, sigma, sigma).verdict


def sparse_instance(rng):
    """n <= 10 on a sparse ER graph (often disconnected, with isolated
    vertices); about a quarter of the nodes get beta * r = 0."""
    n = rng.randint(1, 10)
    g = generate_erdos_renyi(n, rng.choice([0.1, 0.25, 0.5]), rng.randrange(1 << 30))
    beta = [0.0 if rng.random() < 0.15 else rng.uniform(0.01, 1.0) for _ in range(n)]
    r = [0.0 if rng.random() < 0.1 else rng.uniform(0.05, 1.0) for _ in range(n)]
    mu = [rng.uniform(0.01, 1.0) for _ in range(n)]
    return g, NodeParams(np.array(mu), np.array(beta), np.array(r))


def random_instance(rng, n_lo=2, n_hi=12, mu_lo=0.05):
    n = rng.randint(n_lo, n_hi)
    g = generate_erdos_renyi(n, rng.uniform(0.2, 0.8), rng.randrange(1 << 30))
    params = NodeParams(
        np.array([rng.uniform(mu_lo, 1.0) for _ in range(n)]),
        np.array([rng.uniform(0.01, 1.0) for _ in range(n)]),
        np.array([rng.uniform(0.05, 1.0) for _ in range(n)]),
    )
    return g, params


class TestNodeParams:
    def test_validation(self):
        with pytest.raises(ValueError, match="mu"):
            NodeParams(np.array([0.0]), np.array([0.5]), np.array([0.5]))
        with pytest.raises(ValueError, match="beta"):
            NodeParams(np.array([0.5]), np.array([1.5]), np.array([0.5]))
        with pytest.raises(ValueError, match="r"):
            NodeParams(np.array([0.5]), np.array([0.5]), np.array([-0.1]))
        with pytest.raises(ValueError):
            NodeParams(np.array([0.5]), np.array([0.5, 0.5]), np.array([0.5]))

    @pytest.mark.parametrize("bad", [1.5, float("nan"), float("inf")])
    def test_validation_names_the_first_bad_node(self, bad):
        mu = np.array([1.0, bad, 0.1, bad])
        with pytest.raises(ValueError, match=rf"mu must lie in \(0, 1\]; node 1 has {bad!r}$"):
            NodeParams(mu, np.full(4, 0.5), np.full(4, 0.5))
        with pytest.raises(ValueError, match=rf"entries must lie in \[0, 1\]; node 3 has {bad!r}$"):
            dynamics.as_state([0.0, 0.5, 1.0, bad], 4)

    def test_arrays_frozen(self):
        p = NodeParams.homogeneous(3, 0.5, 0.5, 0.5)
        with pytest.raises(ValueError):
            p.mu[0] = 0.9

    def test_csv_round_trip(self, tmp_path):
        p = NodeParams(
            np.array([0.2, 0.5, 1.0]), np.array([0.0, 0.3, 1.0]), np.array([0.9, 0.0, 0.5])
        )
        path = tmp_path / "params.csv"
        save_params(p, path)
        q = load_params(path)
        assert np.array_equal(p.mu, q.mu)
        assert np.array_equal(p.beta, q.beta)
        assert np.array_equal(p.r, q.r)

    def test_csv_rejects_gaps(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("node,mu,beta,r\n0,0.5,0.5,0.5\n2,0.5,0.5,0.5\n")
        with pytest.raises(ValueError, match="0..n-1"):
            load_params(path)

    def test_csv_rejects_wrong_field_count(self, tmp_path):
        path = tmp_path / "bad.csv"
        for row in ("0,0.5,0.5", "0,0.5,0.5,0.5,0.5"):
            path.write_text(f"node,mu,beta,r\n{row}\n")
            with pytest.raises(ValueError, match="4 fields"):
                load_params(path)


class TestZeta:
    def test_all_healthy_neighbors(self):
        g = generate_ring(5)
        params = NodeParams.homogeneous(5, 0.5, 0.7, 0.9)
        assert non_infection_probability(g, params, np.zeros(5), 0) == 1.0

    def test_isolated_vertex(self):
        g = Graph(2)
        params = NodeParams.homogeneous(2, 0.5, 0.7, 0.9)
        assert non_infection_probability(g, params, np.array([0.3, 0.8]), 0) == 1.0

    def test_two_neighbor_product(self):
        g = Graph(3, [(0, 1), (0, 2)])
        params = NodeParams.homogeneous(3, 0.5, 0.4, 0.5)
        z = non_infection_probability(g, params, np.array([0.0, 0.5, 0.5]), 0)
        assert z == pytest.approx((1 - 0.1) ** 2, abs=1e-15)

    def test_vector_matches_scalar(self):
        rng = random.Random(1)
        for _ in range(10):
            g, params = random_instance(rng)
            p = np.array([rng.random() for _ in range(g.n)])
            zv = zeta_vector(g, params, p)
            for i in range(g.n):
                assert zv[i] == pytest.approx(
                    non_infection_probability(g, params, p, i), rel=1e-12
                )


class TestSisStep:
    def test_extinction_fixed_point(self):
        g = generate_ring(6)
        params = NodeParams.homogeneous(6, 0.3, 0.8, 0.9)
        assert np.array_equal(sis_step(g, params, np.zeros(6)), np.zeros(6))

    def test_pure_decay_without_infection(self):
        g = generate_ring(5)
        params = NodeParams.homogeneous(5, 0.25, 0.0, 1.0)
        p = np.full(5, 0.8)
        for t in range(1, 6):
            p = sis_step(g, params, p)
            assert np.allclose(p, 0.8 * 0.75**t)

    def test_single_node_geometric_decay(self):
        g = Graph(1)
        params = NodeParams.homogeneous(1, 0.3, 0.0, 0.0)
        p = np.array([1.0])
        for _ in range(3):
            p = sis_step(g, params, p)
        assert p[0] == pytest.approx(0.343, abs=1e-12)

    def test_box_invariant(self):
        rng = random.Random(5)
        for _ in range(50):
            g, params = random_instance(rng)
            p = np.array([rng.random() for _ in range(g.n)])
            for _ in range(20):
                p = sis_step(g, params, p)
                assert np.all(p >= 0.0) and np.all(p <= 1.0)


class TestSimulate:
    def test_no_infection_goes_extinct(self):
        g = generate_ring(8)
        params = NodeParams.homogeneous(8, 0.4, 0.0, 1.0)
        traj = simulate(g, params, np.full(8, 0.9))
        assert traj.verdict == "extinct"

    def test_zero_start_is_extinct_immediately(self):
        g = generate_ring(8)
        params = NodeParams.homogeneous(8, 0.4, 0.9, 1.0)
        traj = simulate(g, params, np.zeros(8))
        assert traj.verdict == "extinct"
        assert traj.steps_to_verdict == 0

    def test_supercritical_ring_is_endemic(self):
        # sigma = 1 - 0.2 + 2*0.3*0.9 = 1.34
        g = generate_ring(100)
        params = NodeParams.homogeneous(100, 0.2, 0.3, 0.9)
        traj = simulate(g, params, np.full(100, 0.5))
        assert traj.verdict == "endemic"

    @pytest.mark.parametrize("window", [0, -5])
    def test_endemic_window_below_one_is_rejected(self, window):
        # sigma = 0.12: the run dies out in 7 steps, so a window of 0 must
        # not be read as an endemic plateau at step 1
        g = generate_ring(10)
        params = NodeParams.homogeneous(10, 0.9, 0.01, 1.0)
        assert simulate(g, params, np.full(10, 0.5)).steps_to_verdict == 7
        with pytest.raises(ValueError, match="endemic_window must be >= 1"):
            simulate(g, params, np.full(10, 0.5), endemic_window=window)

    def test_trajectory_invariants(self):
        g = generate_ring(6)
        params = NodeParams.homogeneous(6, 0.5, 0.1, 0.5)
        p0 = np.full(6, 0.3)
        seen = []
        traj = simulate(g, params, p0, sink=lambda t, p: seen.append((t, p)))
        times, states = zip(*seen)
        assert times == tuple(range(traj.steps_to_verdict + 1))
        assert np.array_equal(states[0], p0)
        p0[0] = 0.9  # the sink was handed a copy of the start
        assert states[0][0] == 0.3
        assert all(np.all(p >= 0) and np.all(p <= 1) for p in states)
        assert traj.states.shape == (1, 6) and np.array_equal(traj.states[0], states[-1])

    def test_csv_output(self, tmp_path):
        g = Graph(2, [(0, 1)])
        params = NodeParams.homogeneous(2, 0.9, 0.0, 0.0)
        out = tmp_path / "traj.csv"
        with csv_writer(out, "t,node,p") as put:
            traj = simulate(g, params, np.array([0.5, 0.1]),
                            sink=lambda t, p: put((itertools.repeat(t, 2), range(2), p)))
        lines = out.read_text().splitlines()
        assert lines[0] == "t,node,p"
        assert lines[1] == "0,0,0.5"
        assert len(lines) == 1 + 2 * (traj.steps_to_verdict + 1)

    @pytest.mark.parametrize("mu, beta, max_steps, verdict", [
        (0.5, 0.1, 10_000, "extinct"),  # sigma(H) = 0.5 + 2 * 0.1 * 0.9 = 0.68
        (0.2, 0.3, 10_000, "endemic"),  # sigma(H) = 1.34
        (0.2, 0.3, 25, "undecided"),
    ])
    def test_streamed_states_match_a_hand_loop(self, mu, beta, max_steps, verdict):
        g = generate_ring(20)
        params = NodeParams.homogeneous(20, mu, beta, 0.9)
        p0 = np.random.default_rng(3).uniform(0.0, 1.0, 20)
        seen = []
        traj = simulate(g, params, p0, max_steps=max_steps, sink=lambda t, p: seen.append(p))
        assert traj.verdict == verdict
        expected = [p0]
        for _ in range(traj.steps_to_verdict):
            expected.append(sis_step(g, params, expected[-1]))
        assert len(seen) == len(expected)
        assert all(np.array_equal(a, b) for a, b in zip(seen, expected))  # bit for bit
        assert np.array_equal(traj.states[0], expected[-1])

    def test_failed_run_leaves_no_trajectory_file(self, tmp_path):
        g = generate_ring(10)
        params = NodeParams.homogeneous(10, 0.2, 0.3, 0.9)
        out = tmp_path / "traj.csv"

        def sink(t, p):
            put((itertools.repeat(t, 10), range(10), p))
            if t == 3:
                raise RuntimeError("sink failed at t = 3")

        with pytest.raises(RuntimeError, match="t = 3"):
            with csv_writer(out, "t,node,p") as put:
                simulate(g, params, np.full(10, 0.5), sink=sink)
        assert not out.exists()

    def test_memory_does_not_grow_with_the_step_count(self):
        # an endemic ring whose run is 10x longer at the larger window;
        # holding its states would cost 8 n bytes for each extra step
        n = 50
        g = generate_ring(n)
        params = NodeParams.homogeneous(n, 0.2, 0.3, 0.9)
        peaks, steps = [], []
        for window in (200, 2000):
            tracemalloc.start()
            try:
                traj = simulate(g, params, np.full(n, 0.5), endemic_window=window)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert traj.verdict == "endemic"
            steps.append(traj.steps_to_verdict)
        assert steps[1] >= 8 * steps[0]
        assert peaks[1] - peaks[0] < 8 * n * (steps[1] - steps[0]) / 10


class TestLinearBound:
    def test_zero_fixed_point(self):
        g = generate_ring(4)
        params = NodeParams.homogeneous(4, 0.5, 0.5, 0.5)
        assert np.array_equal(linear_bound_step(g, params, np.zeros(4)), np.zeros(4))

    def test_empty_graph_is_diagonal(self):
        g = Graph(3)
        params = NodeParams(
            np.array([0.1, 0.5, 0.9]), np.array([0.7, 0.7, 0.7]), np.array([1.0, 1.0, 1.0])
        )
        x = np.array([1.0, 1.0, 1.0])
        assert np.allclose(linear_bound_step(g, params, x), [0.9, 0.5, 0.1])

    def test_triangle_hand_product(self):
        g = Graph(3, itertools.combinations(range(3), 2))
        params = NodeParams.homogeneous(3, 0.5, 0.5, 1.0)
        out = linear_bound_step(g, params, np.ones(3))
        assert np.allclose(out, [1.5, 1.5, 1.5])

    def test_dense_matches_matvec(self):
        rng = random.Random(8)
        for _ in range(10):
            g, params = random_instance(rng)
            x = np.array([rng.random() for _ in range(g.n)])
            h = dense_bound_matrix(g, params)
            assert np.allclose(h @ x, linear_bound_step(g, params, x), atol=1e-12)

    def test_dense_limit_guard(self):
        with pytest.raises(ValueError, match="dense"):
            dense_bound_matrix(generate_ring(13), NodeParams.homogeneous(13, 0.5, 0.5, 0.5))
        h = dense_bound_matrix(generate_ring(12), NodeParams.homogeneous(12, 0.5, 0.5, 0.5))
        assert h.shape == (12, 12)


class TestBoundInequality:
    """1 - zeta_i <= beta_i r_i sum_{j~i} p_j, the product-vs-sum bound
    behind H; ``verify`` checks it too."""

    def test_zero_state(self):
        g = generate_ring(5)
        params = NodeParams.homogeneous(5, 0.5, 0.5, 0.5)
        assert np.array_equal(zeta_vector(g, params, np.zeros(5)), np.ones(5))

    def test_random_states(self):
        rng = random.Random(13)
        for _ in range(100):
            g, params = random_instance(rng)
            p = np.array([rng.random() for _ in range(g.n)])
            lhs = 1.0 - zeta_vector(g, params, p)
            sums = [p[g.indices[g.indptr[i] : g.indptr[i + 1]]].sum() for i in range(g.n)]
            rhs = params.beta * params.r * np.array(sums)
            assert np.all(lhs <= rhs + 1e-12 * np.maximum(1.0, rhs))

    def test_single_neighbor_equality(self):
        g = Graph(2, [(0, 1)])
        params = NodeParams.homogeneous(2, 0.5, 0.6, 0.7)
        p = np.array([0.35, 0.8])
        lhs = 1.0 - zeta_vector(g, params, p)
        assert lhs == pytest.approx(0.6 * 0.7 * p[::-1], rel=1e-12)


class TestSpectralRadius:
    def test_empty_graph_diagonal(self):
        g = Graph(4)
        params = NodeParams(
            np.array([0.1, 0.4, 0.7, 1.0]), np.full(4, 0.5), np.full(4, 0.5)
        )
        est = spectral_radius(g, params)
        assert est.sigma == pytest.approx(0.9, abs=1e-10)

    def test_ring_closed_form(self):
        g = generate_ring(9)
        params = NodeParams.homogeneous(9, 0.2, 0.3, 0.9)
        est = spectral_radius(g, params)
        assert est.sigma == pytest.approx(1.34, abs=1e-9)

    def test_star_marginal(self):
        g = Graph(5, [(0, i) for i in range(1, 5)])
        params = NodeParams.homogeneous(5, 0.5, 0.25, 1.0)
        est = spectral_radius(g, params)
        assert est.sigma == pytest.approx(1.0, abs=1e-10)

    def test_matches_dense_oracle(self):
        rng = random.Random(17)
        for _ in range(100):
            g, params = random_instance(rng, n_hi=10)
            est = spectral_radius(g, params)
            ref = dense_spectral_radius(dense_bound_matrix(g, params))
            assert abs(est.sigma - ref) < 1e-8

    def test_monotone_in_beta_scaling(self):
        rng = random.Random(23)
        for _ in range(30):
            g, params = random_instance(rng)
            c = rng.uniform(0.05, 1.0)
            base = spectral_radius(g, params).sigma
            scaled = spectral_radius(g, params.with_beta(c * params.beta)).sigma
            assert scaled <= base + 1e-9

    def test_unconverged_reported_honestly(self, monkeypatch):
        # Lanczos needs 2 products on the homogeneous star, the bracket 2 more
        for budget in (1, 3):
            monkeypatch.setattr(dynamics, "MAX_PRODUCTS", budget)
            with pytest.raises(ConvergenceError,
                               match=rf"within {budget} iterations \(last estimate "):
                spectral_radius(STAR9, STAR9_PARAMS)
        monkeypatch.setattr(dynamics, "MAX_PRODUCTS", 4)
        est = spectral_radius(STAR9, STAR9_PARAMS)
        assert est.iterations == 4
        assert est.sigma == pytest.approx(1.1, abs=1e-12)

    def test_dead_node_is_deflated(self):
        # w_1 = 0 makes H = [[0.5, 0.3], [0, 0.5]] defective; node 1 is
        # deflated and the live block is the 1x1 matrix [0.5]
        g = Graph(2, [(0, 1)])
        params = NodeParams(
            np.array([0.5, 0.5]), np.array([0.3, 0.0]), np.array([1.0, 1.0])
        )
        est = spectral_radius(g, params)
        assert est.sigma == 0.5
        assert est.lower <= 0.5 <= est.upper
        assert est.upper - est.lower < 1e-15

    def test_products_run_on_the_live_block(self, monkeypatch):
        # beta = 0 on 90% of BA(200): every product, of S and of H, runs on
        # the 20 live nodes only
        g = generate_barabasi_albert(200, 3, 2, seed=5)
        rng = np.random.default_rng(5)
        beta = np.where(np.arange(200) % 10 == 0, rng.uniform(0.1, 0.9, 200), 0.0)
        params = NodeParams(rng.uniform(0.1, 1.0, 200), beta, rng.uniform(0.2, 1.0, 200))
        sizes = []
        neighbor_sums = dynamics._neighbor_sums

        def recording(g, x):
            sizes.append(x.size)
            return neighbor_sums(g, x)

        monkeypatch.setattr(dynamics, "_neighbor_sums", recording)
        est = spectral_radius(g, params)
        assert len(sizes) == est.iterations > 0
        assert set(sizes) == {20}
        a = np.zeros((200, 200))
        a[np.repeat(np.arange(200), g.degrees), g.indices] = 1.0
        h = np.diag(1.0 - params.mu) + (params.beta * params.r)[:, None] * a
        assert est.lower - 1e-12 <= np.abs(np.linalg.eigvals(h)).max() <= est.upper + 1e-12

    def test_only_dead_nodes(self):
        g = generate_ring(4)
        params = NodeParams(np.array([0.9, 0.2, 0.5, 1.0]), np.zeros(4), np.ones(4))
        est = spectral_radius(g, params)
        assert (est.sigma, est.lower, est.upper, est.iterations) == (0.8, 0.8, 0.8, 0)

    def test_regular_homogeneous_needs_one_lanczos_step(self):
        # ones is the Perron vector: 1 product of S, 1 of H for the bracket
        g = generate_ring(50)
        est = spectral_radius(g, NodeParams.homogeneous(50, 0.2, 0.3, 0.9))
        assert est.iterations == 2
        assert est.lower <= 1.34 + 1e-15 and est.upper >= 1.34 - 1e-15
        assert est.upper - est.lower < 1e-14

    def test_bracket_contains_dense_sigma(self):
        rng = random.Random(71)
        edges = (1.0 - MARGINAL_TOL, 1.0 + MARGINAL_TOL)
        for k in range(300):
            g, params = sparse_instance(rng)
            ref = dense_spectral_radius(dense_bound_matrix(g, params))
            if k % 2:
                # shift mu so that sigma lands next to a band edge: sigma(H - cI) = sigma - c
                c = ref - rng.choice(edges) - rng.choice([-1, 1]) * rng.choice([1e-9, 1e-8, 1e-4])
                if not (0.0 < params.mu.min() + c and params.mu.max() + c <= 1.0):
                    continue
                params = NodeParams(params.mu + c, params.beta, params.r)
                ref = dense_spectral_radius(dense_bound_matrix(g, params))
            est = spectral_radius(g, params)
            assert est.lower - 1e-12 <= ref <= est.upper + 1e-12
            assert est.lower <= est.sigma <= est.upper
            # x = 1 gives the largest row sum of H as an upper bound
            assert est.upper <= dense_bound_matrix(g, params).sum(axis=1).max() + 1e-12
            if min(abs(ref - e) for e in edges) >= 1e-9:
                assert est.verdict == verdict_of(ref)

    def test_instance17_bracket_excludes_power_value(self):
        # BA(5000, 3, 2) and params of held-out benchmark instance 17, tuned
        # at kappa = 0.9; 0.9350080573991937 is what power iteration reported
        n = 5000
        g = generate_barabasi_albert(n, 3, 2, seed=17)
        rng = np.random.default_rng(17)
        params = NodeParams(rng.uniform(0.1, 1.0, n), rng.uniform(0.01, 0.3, n),
                            rng.uniform(0.2, 1.0, n))
        tuned = tune_betas(g, params, select_nodes(g, params), kappa=0.9)
        est = spectral_radius(g, tuned)
        assert est.upper - est.lower < 1e-8
        assert est.lower <= est.sigma <= est.upper
        assert 0.9350080573991937 > est.upper


class TestThresholdCheck:
    def test_stable_without_infection(self):
        g = generate_ring(6)
        params = NodeParams.homogeneous(6, 0.5, 0.0, 1.0)
        assert spectral_radius(g, params).verdict == "stable"

    def test_marginal_star(self):
        g = Graph(5, [(0, i) for i in range(1, 5)])
        params = NodeParams.homogeneous(5, 0.5, 0.25, 1.0)
        assert spectral_radius(g, params).verdict == "marginal"

    def test_unstable_ring(self):
        g = generate_ring(9)
        params = NodeParams.homogeneous(9, 0.2, 0.3, 0.9)
        assert spectral_radius(g, params).verdict == "unstable"

    def test_propagates_nonconvergence(self, monkeypatch):
        monkeypatch.setattr(dynamics, "MAX_PRODUCTS", 1)
        with pytest.raises(ConvergenceError, match="1 iterations"):
            spectral_radius(STAR9, STAR9_PARAMS).verdict

    def test_verdict_reads_the_bracket(self):
        def verdict(sigma, lower, upper):
            return SpectralEstimate(sigma, 1, lower, upper).verdict

        assert verdict(0.99, 0.98, 0.995) == "stable"
        assert verdict(1.01, 1.005, 1.02) == "unstable"
        # sigma alone would say stable/unstable; the bracket reaches the band
        assert verdict(0.99, 0.98, 1.0 - 1e-6) == "marginal"
        assert verdict(1.01, 1.0 + 1e-6, 1.02) == "marginal"
        assert verdict(0.99, 0.98, 1.02) == "marginal"

    def test_near_threshold_ba_verdicts(self):
        # H = 0.5 I + beta A has sigma = 0.5 + beta sigma(A) = target; power
        # iteration once read 1.00000000003 at a true 0.99999999999 here
        g = generate_barabasi_albert(20_000, 3, 2, seed=7)
        adjacency = spectral_radius(g, NodeParams.homogeneous(g.n, 1.0, 1.0, 1.0))
        lam, width = adjacency.sigma, adjacency.upper - adjacency.lower
        assert lam == pytest.approx(21.4954156053, abs=1e-9) and width < 1e-10
        cases = [(1 - 1e-11, "marginal"), (1 + 1e-11, "marginal"),
                 (1 - 2e-6, "stable"), (1 + 2e-6, "unstable")]
        for target, verdict in cases:
            beta = (target - 0.5) / lam
            est = spectral_radius(g, NodeParams.homogeneous(g.n, 0.5, beta, 1.0))
            assert est.verdict == verdict, target
            assert est.lower - beta * width <= target <= est.upper + beta * width, target

    def test_classify_sigma_band(self):
        assert verdict_of(1.0 - 2e-6) == "stable"
        assert verdict_of(1.0 - 1e-6) == "marginal"
        assert verdict_of(1.0) == "marginal"
        assert verdict_of(1.0 + 1e-6) == "marginal"
        assert verdict_of(1.0 + 2e-6) == "unstable"


class TestDominationAndStability:
    def test_bound_dominates_exact(self):
        rng = random.Random(29)
        for _ in range(15):
            g, params = random_instance(rng)
            p0 = np.array([rng.random() for _ in range(g.n)])
            p, x = p0.copy(), p0.copy()
            for _ in range(200):
                p = sis_step(g, params, p)
                x = linear_bound_step(g, params, x)
                assert np.all(p <= x + 1e-9 * np.maximum(1.0, x))

    def test_stable_implies_extinct(self):
        rng = random.Random(31)
        tested = 0
        for _ in range(60):
            g, params = random_instance(rng, mu_lo=0.1)
            beta = np.array(params.beta)
            # scale beta down until comfortably subcritical
            for _ in range(60):
                if spectral_radius(g, params.with_beta(beta)).sigma < 0.99:
                    break
                beta *= 0.7
            trial = params.with_beta(beta)
            if spectral_radius(g, trial).verdict != "stable":
                continue
            traj = simulate(g, trial, np.ones(g.n), max_steps=10_000)
            assert traj.verdict == "extinct"
            tested += 1
        assert tested >= 30
