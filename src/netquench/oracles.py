"""Exhaustive and dense reference implementations for small instances.

Exhaustive enumerations over all 2^C(p,2) labeled graphs validate the
counting recurrences and asymptotics; max |lambda| over every eigenvalue
of a dense H, from the general eigensolver and blind to the diagonal
similarity the fast path is built on, validates the sparse Lanczos solver
and its sigma(H) bracket.  Each exhaustive count still checks every mask
of its order, one pass in numpy blocks of masks, each block profiled by
component count and degrees; brute_count_regular returns the count of
every degree from that one pass.  Hard caps keep the whole suite cheap.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from .dynamics import NodeParams, _check_sizes, as_state
from .enumeration import BigCount
from .graphs import Graph

CAP_CONNECTED = 6
CAP_REGULAR = 6
CAP_DENSE = 12
CAP_CATALAN = 14
# Masks per block of the exhaustive counts: a block's arrays hold a few kB.
MASK_BLOCK = 2048


def _edge_order(p: int) -> list[tuple[int, int]]:
    """The pinned lexicographic edge ordering (0,1), (0,2), ..., (0,p-1),
    (1,2), ...: bit b of a mask encodes the b-th pair."""
    return [(i, j) for i in range(p) for j in range(i + 1, p)]


def _mask_profile(p: int, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """``(components, degrees)`` of the masks start..stop-1 on p vertices:
    row k of each describes mask start + k.  Degrees are summed edge by edge
    over the set bits.  Components: every vertex starts with its own label and
    each present edge lowers both ends to the smaller label; p - 1 sweeps over
    the edges carry a component's least label to all of it, so the component
    count is the number of vertices that keep their own.  Each end takes the
    minimum with the other end's label or-ed with the edge's gate, 0 where the
    edge is present and 255 where it is absent: labels are below p <= 6, so an
    absent edge leaves both ends as they are."""
    masks = np.arange(start, stop, dtype=np.int64)
    degrees = np.zeros((p, len(masks)), dtype=np.uint8)
    edges = []
    for b, (i, j) in enumerate(_edge_order(p)):
        bit = (masks >> b & 1).astype(np.uint8)
        degrees[i] += bit
        degrees[j] += bit
        edges.append((i, j, 255 * (1 - bit)))
    own = np.arange(p, dtype=np.uint8)[:, None]
    label = np.repeat(own, len(masks), axis=1)
    for _ in range(p - 1):
        for i, j, gate in edges:
            np.minimum(label[i], label[j] | gate, out=label[i])
            np.minimum(label[j], label[i] | gate, out=label[j])
    components = np.count_nonzero(label == own, axis=0).astype(np.uint8)
    return components, degrees.T


def _mask_blocks(p: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The profiles of every mask on p vertices, MASK_BLOCK masks at a time."""
    total = 1 << len(_edge_order(p))
    for start in range(0, total, MASK_BLOCK):
        yield _mask_profile(p, start, min(start + MASK_BLOCK, total))


def brute_count_connected(p: int) -> BigCount:
    """Count connected labeled graphs on p vertices by trying every mask."""
    if p < 1 or p > CAP_CONNECTED:
        raise ValueError(f"exhaustive connectivity count capped at p <= {CAP_CONNECTED}, got {p}")
    return sum(int(np.count_nonzero(components == 1)) for components, _ in _mask_blocks(p))


def brute_count_regular(n: int) -> list[BigCount]:
    """``counts[r]``, the number of labeled r-regular graphs on n vertices,
    for r = 0..n-1, by one pass over every mask (0 where n*r is odd)."""
    if n < 1 or n > CAP_REGULAR:
        raise ValueError(f"exhaustive regularity count capped at n <= {CAP_REGULAR}, got {n}")
    counts = np.zeros(n, dtype=np.int64)
    for _, degrees in _mask_blocks(n):
        regular = (degrees == degrees[:, :1]).all(axis=1)
        counts += np.bincount(degrees[regular, 0], minlength=n)
    return counts.tolist()


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
