import hashlib
import io
import itertools
import math
import random
from collections import Counter

import numpy as np
import pytest

from netquench import graphs
from netquench.graphs import (
    GenerationError,
    Graph,
    GraphParseError,
    generate_barabasi_albert,
    generate_erdos_renyi,
    generate_random_regular,
    generate_ring,
    parse_edge_list,
    write_graph,
)
from netquench.oracles import _edge_order, _mask_components, _mask_degrees, brute_count_regular


def complete(n):
    return Graph(n, itertools.combinations(range(n), 2))


def neighbors(g, i):
    return g.indices[g.indptr[i] : g.indptr[i + 1]].tolist()


def edge_pairs(g):
    """The edges of g as ``(i, j)`` with ``i < j``, sorted, read from its CSR."""
    rows = np.repeat(np.arange(g.n), g.degrees)
    upper = rows < g.indices
    return list(zip(rows[upper].tolist(), g.indices[upper].tolist()))


class TestParse:
    def test_basic(self):
        assert parse_edge_list("3\n0 1\n1 2") == Graph(3, [(0, 1), (1, 2)])

    def test_self_loop_rejected(self):
        with pytest.raises(GraphParseError, match="line 2.*self-loop"):
            parse_edge_list("2\n0 0")

    def test_reversed_duplicate_collapses(self):
        g = parse_edge_list("4\n0 1\n1 0")
        assert g.num_edges == 1

    def test_comments_and_blank_lines(self):
        assert parse_edge_list("# header\n\n3\n# mid\n0 2\n") == Graph(3, [(0, 2)])

    def test_malformed_line_reports_number(self):
        with pytest.raises(GraphParseError, match="line 3"):
            parse_edge_list("3\n0 1\n0 1 2")
        with pytest.raises(GraphParseError, match="line 2"):
            parse_edge_list("3\nx y")

    def test_out_of_range_id(self):
        with pytest.raises(GraphParseError, match="out of range"):
            parse_edge_list("2\n0 5")

    def test_missing_count_line(self):
        with pytest.raises(GraphParseError, match="vertex count"):
            parse_edge_list("# nothing\n")

    def test_vertex_count_beyond_the_order_bound(self):
        message = r"line 2: vertex count must lie in 0\.\.3037000499$"
        with pytest.raises(GraphParseError, match=message):
            parse_edge_list("# header only\n3037000500\n")
        with pytest.raises(GraphParseError, match="line 1: vertex count"):
            parse_edge_list("-1\n")

    def test_round_trip(self):
        cases = [
            generate_ring(7),
            generate_random_regular(8, 3, seed=5),
            generate_barabasi_albert(30, 3, 2, seed=11),
            generate_erdos_renyi(20, 0.3, seed=2),
            Graph(4),
            Graph(1),
        ]
        for g in cases:
            text = io.StringIO()
            write_graph(g, text)
            assert parse_edge_list(text.getvalue()) == g


class TestWrite:
    def test_failure_after_the_count_line_leaves_no_file(self, tmp_path, monkeypatch):
        def failing_write_rows(fh, row, block):
            fh.write(row % (0, 1))
            raise OSError("disk full")

        monkeypatch.setattr(graphs, "write_rows", failing_write_rows)
        out = tmp_path / "g.edges"
        with pytest.raises(OSError, match="disk full"):
            write_graph(generate_ring(5), out)
        assert list(tmp_path.iterdir()) == []


class TestGraphType:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(3, [(1, 1)])

    def test_rejects_bad_ids(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph(3, [(0, 3)])

    def test_order_bound_is_checked_before_any_array(self, monkeypatch):
        # the sort key i*n + j fits int64 only up to n = isqrt(2**63 - 1)
        assert graphs.MAX_ORDER == math.isqrt(2**63 - 1) == 3_037_000_499
        monkeypatch.setattr(graphs, "np", None)  # any numpy call would raise AttributeError
        for n in (graphs.MAX_ORDER + 1, -1):
            with pytest.raises(ValueError, match="vertex count must lie in 0..3037000499"):
                Graph(n)

    def test_adjacency_symmetric_and_sorted(self):
        g = Graph(4, [(2, 0), (0, 1), (3, 0)])
        assert neighbors(g, 0) == [1, 2, 3]
        for i in range(4):
            assert neighbors(g, i) == sorted(neighbors(g, i))
            for j in neighbors(g, i):
                assert i in neighbors(g, j)

    def test_first_bad_pair_decides(self):
        cases = [
            ([(0, 1), (2, 2), (0, 9)], "self-loop at vertex 2"),
            ([(0, 1), (0, 9), (2, 2)], r"out of range for n=3: \(0, 9\)"),
            ([(5, 5)], "self-loop at vertex 5"),  # self-loop before range
            ([(1, 0), (-1, 2)], r"out of range for n=3: \(-1, 2\)"),
            ([(0, 1), (1, 2**70)], rf"out of range for n=3: \(1, {2**70}\)"),
            ([(-(2**70), 0)], rf"out of range for n=3: \({-(2**70)}, 0\)"),
            ([(2**70, 2**70)], f"self-loop at vertex {2**70}"),
        ]
        for edges, message in cases:
            with pytest.raises(ValueError, match=message):
                Graph(3, edges)
            with pytest.raises(ValueError, match=message):
                Graph(3, iter(edges))

    def test_degree_queries(self):
        assert complete(4).degrees.tolist() == [3, 3, 3, 3]
        assert Graph(4, [(0, 1), (0, 2), (0, 3)]).degrees.tolist() == [3, 1, 1, 1]
        assert generate_ring(5).degrees.tolist() == [2] * 5
        assert Graph(0).degrees.size == 0

    def test_handshake(self):
        rng = random.Random(0)
        for _ in range(20):
            g = generate_erdos_renyi(rng.randint(1, 25), rng.random(), rng.randrange(10**6))
            assert int(g.degrees.sum()) == 2 * g.num_edges


def _reference_csr(n, edges):
    """The former loop construction: sorted canonical edge set, then sorted
    per-vertex adjacency lists flattened into CSR."""
    canon = sorted({(i, j) if i < j else (j, i) for i, j in edges})
    adj = [[] for _ in range(n)]
    for i, j in canon:
        adj[i].append(j)
        adj[j].append(i)
    degrees = [len(a) for a in adj]
    indptr = [0]
    for d in degrees:
        indptr.append(indptr[-1] + d)
    indices = [j for a in adj for j in sorted(a)]
    return tuple(canon), indptr, indices, degrees


class TestCsrConstruction:
    @pytest.mark.parametrize(
        "g",
        [
            generate_barabasi_albert(400, 3, 2, seed=7),
            generate_random_regular(60, 3, seed=1),
            generate_erdos_renyi(80, 0.1, seed=2),
            generate_ring(9),
            Graph(5),
            Graph(0),
            Graph(2**20, [(2**20 - 1, 2**20 - 2), (2**20 - 3, 2**20 - 1), (0, 2**20 - 1),
                          (2**20 - 2, 2**20 - 3), (2**20 - 2, 7)]),
        ],
        ids=["ba", "regular", "er", "ring", "empty", "order0", "large-ids"],
    )
    def test_matches_reference_with_duplicates_and_reversals(self, g):
        rng = random.Random(g.n)
        edges = edge_pairs(g)
        noisy = edges + [(j, i) for i, j in edges[::3]] + edges[::5]
        noisy = [(j, i) if rng.random() < 0.5 else (i, j) for i, j in noisy]
        rng.shuffle(noisy)
        built = Graph(g.n, noisy)
        canon, indptr, indices, degrees = _reference_csr(g.n, noisy)
        assert edge_pairs(built) == list(canon)
        assert built.indptr.tolist() == indptr
        assert built.indices.tolist() == indices
        assert built.degrees.tolist() == degrees
        for arr in (built.indptr, built.indices, built.degrees):
            assert arr.dtype == np.int64 and not arr.flags.writeable
        assert built == g and hash(built) == hash(g)
        assert built.num_edges == len(canon)

    def test_accepts_sets_generators_and_arrays(self):
        pairs = [(0, 1), (2, 1), (3, 0)]
        ref = Graph(4, pairs)
        assert Graph(4, set(pairs)) == ref
        assert Graph(4, (p for p in pairs)) == ref
        assert Graph(4, np.array(pairs)) == ref

    def test_equality_sees_order_and_edges(self):
        assert Graph(3, [(0, 1)]) != Graph(4, [(0, 1)])
        assert Graph(3, [(0, 1)]) != Graph(3, [(0, 2)])


class TestRing:
    def test_triangle(self):
        g = generate_ring(3)
        assert g.num_edges == 3 and g.degrees.tolist() == [2] * 3

    def test_hexagon(self):
        g = generate_ring(6)
        assert g.num_edges == 6 and g.degrees.tolist() == [2] * 6

    def test_too_small(self):
        with pytest.raises(ValueError):
            generate_ring(2)


class TestRandomRegular:
    def test_k4_forced(self):
        assert generate_random_regular(4, 3, seed=0) == complete(4)

    def test_postconditions(self):
        rng = random.Random(3)
        for _ in range(25):
            n = rng.randrange(4, 24)
            r = rng.randrange(0, min(n, 6))
            if (n * r) % 2:
                continue
            g = generate_random_regular(n, r, seed=rng.randrange(10**6))
            assert g.degrees.tolist() == [r] * n
            assert g.num_edges == n * r // 2

    def test_parity_error(self):
        with pytest.raises(ValueError, match="parity"):
            generate_random_regular(5, 3, seed=0)

    def test_degree_bound(self):
        with pytest.raises(ValueError):
            generate_random_regular(4, 4, seed=0)

    def test_deterministic_per_seed(self):
        a = generate_random_regular(12, 3, seed=42)
        b = generate_random_regular(12, 3, seed=42)
        assert a == b

    def test_seed_to_graph_map_is_pinned(self):
        # these seeds reject 23,089 attempts for a loop and 5,886 for a
        # repeated pair, so a change to either rule shows here
        h = hashlib.sha256()
        for n, r in ((12, 3), (30, 4), (9, 4)):
            for seed in range(200):
                h.update(generate_random_regular(n, r, seed).indices.tobytes())
        assert h.hexdigest() == "f675f3b225476b5ce7d32210cd755fc4c554f4574ee8298d666a4d156768a070"

    def test_restart_budget_exhaustion(self, monkeypatch):
        monkeypatch.setattr(graphs, "DEFAULT_PAIRING_RESTARTS", 0)
        with pytest.raises(GenerationError, match="restarts"):
            generate_random_regular(10, 3, seed=0)

    def test_uniform_over_the_cubic_graphs_on_six_vertices(self):
        order = _edge_order(6)
        cubic = {Graph(6, [e for b, e in enumerate(order) if bits >> b & 1])
                 for bits in range(1 << len(order)) if _mask_degrees(6, bits, order) == [3] * 6}
        assert len(cubic) == brute_count_regular(6)[3] == 70
        samples = 3500
        seen = Counter(generate_random_regular(6, 3, seed=s) for s in range(samples))
        assert set(seen) == cubic
        expected = samples / len(cubic)
        chi2 = sum((k - expected) ** 2 / expected for k in seen.values())
        assert chi2 < 111.06  # the 0.999 quantile of chi-square with 69 degrees of freedom


class TestBarabasiAlbert:
    def test_no_arrivals_is_complete(self):
        assert generate_barabasi_albert(5, 5, 1, seed=0) == complete(5)

    def test_edge_bookkeeping(self):
        g = generate_barabasi_albert(100, 3, 2, seed=7)
        assert g.num_edges == 3 + 97 * 2

    def test_edge_count_formula(self):
        rng = random.Random(9)
        for _ in range(15):
            m0 = rng.randrange(1, 6)
            m = rng.randrange(1, m0 + 1)
            n = rng.randrange(m0 + 1, 40)
            g = generate_barabasi_albert(n, m0, m, seed=rng.randrange(10**6))
            assert g.num_edges == m0 * (m0 - 1) // 2 + (n - m0) * m

    def test_parameter_ordering(self):
        with pytest.raises(ValueError):
            generate_barabasi_albert(3, 5, 1, seed=0)
        with pytest.raises(ValueError):
            generate_barabasi_albert(10, 3, 4, seed=0)

    def test_deterministic_per_seed(self):
        assert generate_barabasi_albert(50, 3, 2, seed=1) == generate_barabasi_albert(
            50, 3, 2, seed=1
        )


def component_count(g):
    """Components of g by the union-find over mask bits that
    brute_count_connected counts with."""
    order = _edge_order(g.n)
    return _mask_components(g.n, sum(1 << order.index(e) for e in edge_pairs(g)), order)


class TestComponents:
    def test_ring_is_connected(self):
        assert component_count(generate_ring(5)) == 1

    def test_isolated_vertices(self):
        assert component_count(Graph(3)) == 3

    def test_two_triangles(self):
        g = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert component_count(g) == 2
