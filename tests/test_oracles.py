import itertools
import random

import numpy as np
import pytest

from netquench.dynamics import NodeParams, spectral_radius
from netquench.enumeration import catalan_coefficient, connected_labeled_harary
from netquench.graphs import generate_complete, generate_erdos_renyi
from netquench.oracles import (
    GraphMask,
    brute_catalan,
    brute_count_connected,
    brute_count_regular,
    dense_bound_matrix,
    dense_spectral_radius,
    edge_order,
    iter_graph_masks,
)


class TestGraphMask:
    def test_pinned_edge_ordering(self):
        assert edge_order(4) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]

    def test_bits_decode(self):
        m = GraphMask(4, 0b000101)  # edges (0,1) and (0,3)
        assert m.edges() == [(0, 1), (0, 3)]
        assert m.degree_sequence() == (2, 1, 0, 1)
        g = m.to_graph()
        assert g.edges == ((0, 1), (0, 3))

    def test_bits_range_checked(self):
        with pytest.raises(ValueError):
            GraphMask(3, 8)

    def test_connectivity_counts_isolated_vertices(self):
        assert not GraphMask(3, 0b001).is_connected()  # vertex 2 isolated
        assert GraphMask(3, 0b011).is_connected()
        assert GraphMask(1, 0).is_connected()

    def test_mask_count(self):
        assert sum(1 for _ in iter_graph_masks(3)) == 8

    def test_degree_sequence_matches_the_csr_graph(self):
        for p in range(6):
            for m in iter_graph_masks(p):
                assert m.degree_sequence() == m.to_graph().degree_sequence()


class TestBruteConnected:
    def test_small_orders(self):
        assert brute_count_connected(1) == 1
        assert brute_count_connected(3) == 4
        assert brute_count_connected(4) == 38

    def test_matches_recurrence(self):
        for p in range(1, 6):
            assert brute_count_connected(p) == connected_labeled_harary(p)

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
        a = dense_bound_matrix(
            generate_complete(3), NodeParams.homogeneous(3, 1.0, 1.0, 1.0)
        )
        assert dense_spectral_radius(a) == pytest.approx(2.0, abs=1e-12)

    def test_star_threshold_case(self):
        from netquench.graphs import Graph

        g = Graph(5, [(0, i) for i in range(1, 5)])
        h = dense_bound_matrix(g, NodeParams.homogeneous(5, 0.5, 0.25, 1.0))
        assert dense_spectral_radius(h) == pytest.approx(1.0, abs=1e-10)

    def test_asymmetric_similarity_path(self):
        # heterogeneous beta*r: H is asymmetric but diagonally symmetrizable
        g = generate_complete(4)
        params = NodeParams(
            np.array([0.3, 0.5, 0.7, 0.9]),
            np.array([0.2, 0.4, 0.6, 0.8]),
            np.array([0.9, 0.8, 0.7, 0.6]),
        )
        h = dense_bound_matrix(g, params)
        ref = float(np.max(np.abs(np.linalg.eigvals(h))))
        assert dense_spectral_radius(h) == pytest.approx(ref, abs=1e-10)

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
            est = spectral_radius(g, params, tol=1e-13, max_iter=200_000)
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
    classes = set()
    labeled = 0
    for mask in iter_graph_masks(6):
        if mask.degree_sequence() == (3, 3, 3, 3, 3, 3):
            labeled += 1
            classes.add(_canonical_form(mask.edges(), 6))
    assert labeled == 70
    assert len(classes) == 2
