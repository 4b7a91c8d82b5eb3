import itertools
import random

import numpy as np
import pytest

from netquench.dynamics import NodeParams, spectral_radius
from netquench.enumeration import catalan_coefficient, connected_labeled_table
from netquench.graphs import Graph, generate_erdos_renyi
from netquench.oracles import (
    _edge_order,
    _mask_profile,
    brute_catalan,
    brute_count_connected,
    brute_count_regular,
    dense_bound_matrix,
    dense_spectral_radius,
)


def mask_edges(p, bits):
    """The edges that the set bits of a mask on p vertices encode."""
    return [e for b, e in enumerate(_edge_order(p)) if bits >> b & 1]


def profile_row(p, bits):
    """The component count and degree list of one mask on p vertices."""
    components, degrees = _mask_profile(p, bits, bits + 1)
    return int(components[0]), degrees[0].tolist()


def bfs_components(g):
    """Component count of g by breadth-first search over its CSR rows."""
    seen = [False] * g.n
    count = 0
    for source in range(g.n):
        if seen[source]:
            continue
        count += 1
        seen[source] = True
        queue = [source]
        for v in queue:
            for w in g.indices[g.indptr[v] : g.indptr[v + 1]]:
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)
    return count


class TestGraphMask:
    """A labeled graph on p vertices as the bits of an integer: the encoding
    the exhaustive counts loop over."""

    def test_pinned_edge_ordering(self):
        assert _edge_order(4) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]

    def test_bits_decode(self):
        bits = 0b000101  # edges (0,1) and (0,3)
        assert mask_edges(4, bits) == [(0, 1), (0, 3)]
        assert profile_row(4, bits)[1] == [2, 1, 0, 1]

    def test_connectivity_counts_isolated_vertices(self):
        assert profile_row(3, 0b001)[0] == 2  # vertex 2 isolated
        assert profile_row(3, 0b011)[0] == 1
        assert profile_row(3, 0)[0] == 3
        assert profile_row(1, 0)[0] == 1

    def test_degree_sequence_matches_the_csr_graph(self):
        for p in range(6):
            _, degrees = _mask_profile(p, 0, 1 << len(_edge_order(p)))
            for bits, row in enumerate(degrees):
                assert row.tolist() == Graph(p, mask_edges(p, bits)).degrees.tolist()

    def test_component_counts_match_a_bfs_over_the_csr_graph(self):
        for p in range(6):
            components, _ = _mask_profile(p, 0, 1 << len(_edge_order(p)))
            for bits, count in enumerate(components):
                assert count == bfs_components(Graph(p, mask_edges(p, bits)))

    @pytest.mark.parametrize("p", [4, 5])
    def test_any_split_gives_the_rows_of_one_call(self, p):
        total = 1 << len(_edge_order(p))
        whole = _mask_profile(p, 0, total)
        for split in range(total + 1):
            parts = _mask_profile(p, 0, split), _mask_profile(p, split, total)
            for k in range(2):
                assert np.array_equal(np.concatenate([part[k] for part in parts]), whole[k])


class TestBruteConnected:
    def test_small_orders(self):
        assert brute_count_connected(1) == 1
        assert brute_count_connected(3) == 4
        assert brute_count_connected(4) == 38

    def test_matches_recurrence(self):
        brute = [brute_count_connected(p) for p in range(1, 6)]
        assert brute == connected_labeled_table(5)

    def test_cap_guard(self):
        with pytest.raises(ValueError, match="capped"):
            brute_count_connected(7)


class TestBruteRegular:
    # counts[r] for r = 0..n-1, n = 1..6 (K_n, perfect matchings and cycles
    # checked by hand; the 70 cubic graphs on 6 vertices are OEIS A002829)
    TABLE = [[1], [1, 1], [1, 0, 1], [1, 3, 3, 1], [1, 0, 12, 0, 1], [1, 15, 70, 70, 15, 1]]

    def test_known_counts(self):
        assert [brute_count_regular(n) for n in range(1, 7)] == self.TABLE

    def test_complement_symmetry(self):
        for n in range(1, 7):
            counts = brute_count_regular(n)
            assert counts == counts[::-1]

    def test_cap_guard(self):
        with pytest.raises(ValueError, match="capped"):
            brute_count_regular(0)
        with pytest.raises(ValueError, match="capped"):
            brute_count_regular(7)


class TestDenseSpectralRadius:
    def test_identity(self):
        assert dense_spectral_radius(np.eye(3)) == pytest.approx(1.0, abs=1e-14)

    def test_triangle_adjacency(self):
        triangle = Graph(3, itertools.combinations(range(3), 2))
        a = dense_bound_matrix(triangle, NodeParams.homogeneous(3, 1.0, 1.0, 1.0))
        assert dense_spectral_radius(a) == pytest.approx(2.0, abs=1e-12)

    def test_star_threshold_case(self):
        g = Graph(5, [(0, i) for i in range(1, 5)])
        h = dense_bound_matrix(g, NodeParams.homogeneous(5, 0.5, 0.25, 1.0))
        assert dense_spectral_radius(h) == pytest.approx(1.0, abs=1e-10)

    def test_inside_both_brackets_at_extreme_weight_spreads(self):
        # connected graphs with beta and r down to 1e-6, so that beta*r spans
        # 12 decades: the referee lies inside a Collatz-Wielandt bracket
        # min/max (Hx)_i/x_i of its own, from a positive x (|v| of the dense
        # Perron vector, sharpened by inverse iteration so that its tiny
        # entries are accurate), and inside spectral_radius's bracket
        rng = np.random.default_rng(20261019)
        widths = []
        for _ in range(500):
            n = int(rng.integers(2, 13))
            tree = [(v, int(rng.integers(0, v))) for v in range(1, n)]
            extra = [(i, j) for i, j in itertools.combinations(range(n), 2) if rng.random() < 0.3]
            params = NodeParams(rng.uniform(0.05, 1.0, n), 10.0 ** rng.uniform(-6, 0, n),
                                10.0 ** rng.uniform(-6, 0, n))
            g = Graph(n, tree + extra)
            h = dense_bound_matrix(g, params)
            ref = dense_spectral_radius(h)
            vals, vecs = np.linalg.eig(h)
            x = np.abs(vecs[:, np.argmax(np.abs(vals))])
            shifted = ref * (1 + 1e-9) * np.eye(n) - h  # its inverse is positive
            for _ in range(2):
                x = np.abs(np.linalg.solve(shifted, x))
                x /= x.max()
            assert (x > 0).all()
            ratios = h @ x / x
            assert ratios.min() - 1e-13 <= ref <= ratios.max() + 1e-13
            widths.append((ratios.max() - ratios.min()) / ref)
            est = spectral_radius(g, params)
            assert est.lower - 1e-12 <= ref <= est.upper + 1e-12
        assert np.median(widths) < 1e-12  # the bracket is tight, so the check bites

    def test_validation(self):
        with pytest.raises(ValueError, match="square"):
            dense_spectral_radius(np.ones((2, 3)))
        with pytest.raises(ValueError, match="nonnegative"):
            dense_spectral_radius(np.array([[0.0, -1.0], [1.0, 0.0]]))
        with pytest.raises(ValueError, match="capped"):
            dense_spectral_radius(np.eye(13))

    def test_agrees_with_power_iteration(self):
        rng = random.Random(61)
        for _ in range(100):
            n = rng.randint(2, 10)
            g = generate_erdos_renyi(n, rng.uniform(0.2, 0.9), rng.randrange(1 << 30))
            params = NodeParams(
                np.array([rng.uniform(0.05, 1.0) for _ in range(n)]),
                np.array([rng.uniform(0.01, 1.0) for _ in range(n)]),
                np.array([rng.uniform(0.05, 1.0) for _ in range(n)]),
            )
            ref = dense_spectral_radius(dense_bound_matrix(g, params))
            est = spectral_radius(g, params)
            assert abs(est.sigma - ref) < 1e-8


class TestBruteCatalan:
    def test_known_values(self):
        assert brute_catalan(1) == 1
        assert brute_catalan(5) == 14
        assert brute_catalan(11) == 16796

    def test_matches_closed_form(self):
        for n in range(1, 15):
            assert brute_catalan(n) == catalan_coefficient(n)

    def test_cap(self):
        with pytest.raises(ValueError, match="capped"):
            brute_catalan(15)


def _canonical_form(edges: list[tuple[int, int]], n: int) -> frozenset:
    """Smallest edge set over all vertex relabelings; slow but fine at n=6."""
    best = None
    for perm in itertools.permutations(range(n)):
        mapped = frozenset(
            (min(perm[i], perm[j]), max(perm[i], perm[j])) for i, j in edges
        )
        key = tuple(sorted(mapped))
        if best is None or key < best[0]:
            best = (key, mapped)
    return best[1]


def test_unlabeled_cubic_classes_on_six_vertices():
    # the 70 labeled cubic graphs on 6 vertices fall into exactly 2
    # isomorphism classes (the 3,3-biclique and the triangular prism)
    _, degrees = _mask_profile(6, 0, 1 << len(_edge_order(6)))
    cubic = [mask_edges(6, int(bits)) for bits in np.flatnonzero((degrees == 3).all(axis=1))]
    assert len(cubic) == 70
    assert len({_canonical_form(edges, 6) for edges in cubic}) == 2


@pytest.mark.parametrize("n", [0, -2])
def test_brute_catalan_rejects_an_index_below_one(n):
    with pytest.raises(ValueError, match=f"^index must be >= 1, got {n}$"):
        brute_catalan(n)
