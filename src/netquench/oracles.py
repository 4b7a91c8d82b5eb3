"""Slow, obviously-correct reference implementations for small instances.

Exhaustive enumerations over all 2^C(p,2) labeled graphs validate the
counting recurrences and asymptotics; max |lambda| over every eigenvalue
of a dense H, from the general eigensolver and blind to the diagonal
similarity the fast path is built on, validates the sparse Lanczos solver
and its sigma(H) bracket.  Each exhaustive count is one pass over the
masks of its order; brute_count_regular returns the count of every degree
from that one pass.  Hard caps keep the whole oracle suite cheap.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .dynamics import NodeParams, _check_sizes, as_state
from .enumeration import BigCount
from .graphs import Graph

CAP_CONNECTED = 6
CAP_REGULAR = 6
CAP_DENSE = 12
CAP_CATALAN = 14


def _edge_order(p: int) -> list[tuple[int, int]]:
    """The pinned lexicographic edge ordering (0,1), (0,2), ..., (0,p-1),
    (1,2), ...: bit b of a mask encodes the b-th pair."""
    return [(i, j) for i in range(p) for j in range(i + 1, p)]


def _mask_components(p: int, bits: int, order: list[tuple[int, int]]) -> int:
    """Component count by union-find over the set bits."""
    parent = list(range(p))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    components = p
    b = bits
    while b:
        low = b & -b
        i, j = order[low.bit_length() - 1]
        b ^= low
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
            components -= 1
    return components


def _mask_degrees(p: int, bits: int, order: list[tuple[int, int]]) -> list[int]:
    """Vertex degrees by a walk over the set bits."""
    deg = [0] * p
    b = bits
    while b:
        low = b & -b
        i, j = order[low.bit_length() - 1]
        b ^= low
        deg[i] += 1
        deg[j] += 1
    return deg


def brute_count_connected(p: int) -> BigCount:
    """Count connected labeled graphs on p vertices by trying every mask."""
    if p < 1 or p > CAP_CONNECTED:
        raise ValueError(f"exhaustive connectivity count capped at p <= {CAP_CONNECTED}, got {p}")
    order = _edge_order(p)
    return sum(
        1 for bits in range(1 << len(order)) if _mask_components(p, bits, order) == 1
    )


def brute_count_regular(n: int) -> list[BigCount]:
    """``counts[r]``, the number of labeled r-regular graphs on n vertices,
    for r = 0..n-1, by one pass over every mask (0 where n*r is odd)."""
    if n < 1 or n > CAP_REGULAR:
        raise ValueError(f"exhaustive regularity count capped at n <= {CAP_REGULAR}, got {n}")
    order = _edge_order(n)
    counts = [0] * n
    for bits in range(1 << len(order)):
        deg = _mask_degrees(n, bits, order)
        if deg.count(deg[0]) == n:
            counts[deg[0]] += 1
    return counts


def dense_bound_matrix(g: Graph, params: NodeParams) -> np.ndarray:
    """H = I - diag(mu) + diag(beta*r) A as a dense array, for n <= CAP_DENSE."""
    _check_sizes(g, params)
    if g.n > CAP_DENSE:
        raise ValueError(f"dense H capped at n <= {CAP_DENSE}, got {g.n}")
    w = params.beta * params.r
    h = np.diag(1.0 - params.mu)
    h[np.repeat(np.arange(g.n), g.degrees), g.indices] = np.repeat(w, g.degrees)
    return h


def dense_spectral_radius(h: np.ndarray) -> float:
    """Spectral radius of a small dense nonnegative matrix: max |lambda| over
    all eigenvalues from the general dense eigensolver (LAPACK geev), with no
    use of H's structure.  This is the machine-precision reference the sparse
    Lanczos estimate and its Collatz-Wielandt bracket are checked against.
    """
    h = np.asarray(h, dtype=float)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"matrix must be square, got shape {h.shape}")
    if np.any(h < 0):
        raise ValueError("matrix must be entrywise nonnegative")
    if h.shape[0] > CAP_DENSE:
        raise ValueError(f"dense oracle capped at n <= {CAP_DENSE}, got {h.shape[0]}")
    return float(np.max(np.abs(np.linalg.eigvals(h))))


def non_infection_probability(
    g: Graph, params: NodeParams, p: Sequence[float], i: int
) -> float:
    """zeta_i for a single node, as the plain product over its neighbors j
    of (1 - beta_i r_i p_j); the reference for dynamics.zeta_vector."""
    state = as_state(p, g.n)
    w = float(params.beta[i] * params.r[i])
    out = 1.0
    for j in g.indices[g.indptr[i] : g.indptr[i + 1]]:
        out *= 1.0 - w * state[j]
    return out


def brute_catalan(n: int) -> BigCount:
    """(n-1)-th Catalan number by exact dynamic programming over Dyck paths
    (never-negative +/-1 walks of length 2(n-1) ending at 0)."""
    if n < 1:
        raise ValueError(f"index must be >= 1, got {n}")
    if n > CAP_CATALAN:
        raise ValueError(f"Catalan oracle capped at n <= {CAP_CATALAN}, got {n}")
    m = n - 1
    ways = [0] * (m + 1)
    ways[0] = 1
    for _ in range(2 * m):
        nxt = [0] * (m + 1)
        for height, cnt in enumerate(ways):
            if not cnt:
                continue
            if height + 1 <= m:
                nxt[height + 1] += cnt
            if height - 1 >= 0:
                nxt[height - 1] += cnt
        ways = nxt
    return ways[0]
