"""Undirected simple graphs: core type, standard generators, edge-list I/O.

Vertices are dense 0-based integers.  ``Graph`` objects are immutable after
construction (treat all attributes as read-only) and may be shared freely
across threads.  All randomized generators take an explicit seed and are
deterministic for a fixed seed within one version of this package; the
random source is the stdlib Mersenne Twister (``random.Random``).
"""

from __future__ import annotations

import random
from typing import Iterable

import numpy as np

from .textio import data_lines, open_output, write_rows

# Full-restart budget for the pairing-model regular generator.
DEFAULT_PAIRING_RESTARTS = 10_000
# Largest vertex count: the build's sort key i*n + j stays below 2**63.
MAX_ORDER = 3_037_000_499  # math.isqrt(2**63 - 1)

class GraphParseError(ValueError):
    """Edge-list text could not be parsed; the message carries the line number."""


class GenerationError(RuntimeError):
    """A randomized generator exhausted its restart budget."""


class Graph:
    """Immutable undirected simple graph (no self-loops, no multi-edges),
    stored as CSR adjacency.  The build sorts one int64 key per edge
    direction, so the vertex count is at most MAX_ORDER.

    Attributes
    ----------
    n : int
        Vertex count; vertex ids are ``0..n-1``.
    indptr, indices : read-only int64 arrays
        The sorted neighbors of ``i`` are ``indices[indptr[i]:indptr[i+1]]``;
        one entry per edge direction.
    degrees : read-only int64 array
        Per-vertex degree, ``indptr[i+1] - indptr[i]``.
    """

    __slots__ = ("n", "indptr", "indices", "degrees")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()) -> None:
        if not 0 <= n <= MAX_ORDER:
            raise ValueError(f"vertex count must lie in 0..{MAX_ORDER}, got {n}")
        edges = edges if isinstance(edges, np.ndarray) else list(edges)
        try:
            pairs = np.array(edges, dtype=np.int64).reshape(-1, 2)
        except OverflowError:
            # an id beyond int64 is out of range, so the check below raises
            pairs = np.array(edges, dtype=object).reshape(-1, 2)
        k = _check_pairs(pairs, n)
        if k >= 0:
            i, j = int(pairs[k, 0]), int(pairs[k, 1])
            raise ValueError(f"self-loop at vertex {i}" if i == j
                             else f"vertex id out of range for n={n}: ({i}, {j})")
        # the key i*n + j of both directions of every pair, sorted, orders the
        # entries by (row, column); repeated and reversed input pairs become
        # adjacent duplicates and are dropped
        i, j = pairs[:, 0], pairs[:, 1]
        keys = np.concatenate((i * n + j, j * n + i))
        keys.sort()
        fresh = np.ones(keys.size, dtype=bool)
        fresh[1:] = keys[1:] != keys[:-1]
        rows, self.indices = np.divmod(keys[fresh], n)
        self.n = int(n)
        self.degrees = np.bincount(rows, minlength=self.n).astype(np.int64, copy=False)
        self.indptr = np.concatenate(([0], np.cumsum(self.degrees)))
        for arr in (self.indptr, self.indices, self.degrees):
            arr.flags.writeable = False

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.n == other.n
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        )

    def __hash__(self) -> int:
        return hash((self.n, self.indptr.tobytes(), self.indices.tobytes()))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.num_edges})"

    @property
    def num_edges(self) -> int:
        return self.indices.size // 2


def _check_pairs(pairs: np.ndarray, n: int) -> int:
    """Index of the first pair (in input order) that is a self-loop or names
    a vertex outside ``0..n-1``; -1 when every pair is valid."""
    i, j = pairs[:, 0], pairs[:, 1]
    bad = (i == j) | (i < 0) | (i >= n) | (j < 0) | (j >= n)
    return int(np.argmax(bad)) if bad.any() else -1


def parse_edge_list(text: str | Iterable[str]) -> Graph:
    """Parse the edge-list format from its text or its lines (an open file):
    the first data line is the vertex count, each following one is ``i j``.
    Duplicate and reversed edges collapse to one.  Malformed lines,
    self-loops and out-of-range ids raise GraphParseError naming the line."""
    rows = data_lines(text.splitlines() if isinstance(text, str) else text)
    lineno, fields = next(rows, (1, []))
    if len(fields) != 1:
        raise GraphParseError(f"line {lineno}: expected 1 field (vertex count), got {len(fields)}")
    try:
        n = int(fields[0])
    except ValueError:
        raise GraphParseError(f"line {lineno}: vertex count is not an integer") from None
    if not 0 <= n <= MAX_ORDER:
        raise GraphParseError(f"line {lineno}: vertex count must lie in 0..{MAX_ORDER}")
    linenos: list[int] = []
    ids: list[int] = []
    for lineno, fields in rows:
        if len(fields) != 2:
            raise GraphParseError(f"line {lineno}: expected 2 fields (i j), got {len(fields)}")
        try:
            ids += (int(fields[0]), int(fields[1]))
        except ValueError:
            raise GraphParseError(f"line {lineno}: edge endpoints are not integers") from None
        linenos.append(lineno)
    # object dtype keeps ids beyond int64 for Graph to report as out of range
    pairs = np.array(ids, dtype=object).reshape(-1, 2)
    try:
        return Graph(n, pairs)
    except ValueError as exc:
        raise GraphParseError(f"line {linenos[_check_pairs(pairs, n)]}: {exc}") from None


def read_graph(path) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edge_list(fh)


def write_graph(g: Graph, path) -> None:
    """Write ``g`` to ``path`` (see open_output) as parse_edge_list reads it:
    the vertex count, then one ``i j`` line per edge with ``i < j``, sorted."""
    rows = np.repeat(np.arange(g.n), g.degrees)
    upper = rows < g.indices
    with open_output(path) as fh:
        fh.write(f"{g.n}\n")
        write_rows(fh, "%s %s\n", (rows[upper], g.indices[upper]))


def generate_ring(n: int) -> Graph:
    """Cycle graph on n >= 3 vertices; every vertex has degree 2."""
    if n < 3:
        raise ValueError(f"ring needs at least 3 vertices, got {n}")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def generate_random_regular(n: int, r: int, seed: int) -> Graph:
    """Uniformly random simple r-regular graph via the pairing model.

    All n*r half-edge stubs are shuffled and paired; an attempt is accepted
    when it has no loop and Graph keeps all n*r/2 pairs (none repeats), and
    otherwise restarts in full.  Every simple r-regular graph arises from
    (r!)^n pairings, so the accepted sample is exactly uniform.
    Raises GenerationError (reporting the attempt count) if
    DEFAULT_PAIRING_RESTARTS pairings all fail.
    """
    if r < 0 or r >= n:
        raise ValueError(f"degree must satisfy 0 <= r < n, got r={r}, n={n}")
    if (n * r) % 2 != 0:
        raise ValueError(f"parity violation: n*r = {n * r} must be even")
    rng = random.Random(seed)
    stubs = [v for v in range(n) for _ in range(r)]
    for _ in range(DEFAULT_PAIRING_RESTARTS):
        rng.shuffle(stubs)
        pairs = np.array(stubs, dtype=np.int64).reshape(-1, 2)
        if not (pairs[:, 0] == pairs[:, 1]).any():
            g = Graph(n, pairs)
            if g.num_edges == len(pairs):
                return g
    raise GenerationError(
        f"pairing model failed for n={n}, r={r} after {DEFAULT_PAIRING_RESTARTS} restarts"
    )


def generate_barabasi_albert(n: int, m0: int, m: int, seed: int) -> Graph:
    """Preferential-attachment graph: complete seed on m0 vertices, then each
    arriving vertex attaches m distinct edges with probability proportional
    to current degree (rejection sampling over the degree-weighted pool).
    m0 == n degenerates to the complete seed graph with no arrivals.
    """
    if not (1 <= m <= m0 <= n):
        raise ValueError(f"need 1 <= m <= m0 <= n, got m={m}, m0={m0}, n={n}")
    rng = random.Random(seed)
    edges = [(i, j) for i in range(m0) for j in range(i + 1, m0)]
    # one entry per endpoint: sampling an index is sampling by degree
    pool: list[int] = [v for e in edges for v in e]
    for v in range(m0, n):
        targets: set[int] = set()
        while len(targets) < m:
            if pool:
                targets.add(pool[rng.randrange(len(pool))])
            else:
                # degenerate m0=1 start: no degrees yet, attach uniformly
                targets.add(rng.randrange(v))
        for t in targets:
            edges.append((t, v))
            pool.append(t)
        pool.extend([v] * m)
    return Graph(n, edges)


def generate_erdos_renyi(n: int, p: float, seed: int) -> Graph:
    """G(n, p): each of the C(n, 2) pairs is an edge independently with
    probability p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must lie in [0, 1], got {p}")
    rng = random.Random(seed)
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    ]
    return Graph(n, edges)
