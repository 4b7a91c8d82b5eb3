"""Discrete-time SIS dynamics on a network, its linear upper-bound system,
and spectral-radius threshold analysis.

The exact map evolves per-node infection probabilities

    p_i(t+1) = (1 - mu_i) p_i(t) + (1 - zeta_i(t)) (1 - p_i(t)),
    zeta_i(t) = prod_{j ~ i} (1 - beta_i r_i p_j(t)),

synchronously (all zeta_i computed from the old state).  Replacing
``1 - zeta_i`` by its linear upper bound ``beta_i r_i sum_j p_j`` gives the
bound system x(t+1) = H x(t) with H = I - diag(mu) + diag(beta*r) A, a
nonnegative matrix: extinction of the bound system (spectral radius
sigma(H) < 1) forces extinction of the exact dynamics.  spectral_radius
finds sigma(H) by restarted Lanczos on a symmetric matrix similar to H and
certifies it with a Collatz-Wielandt bracket lower <= sigma(H) <= upper;
the stable/marginal/unstable verdict is read from that bracket.

simulate iterates the exact map to a verdict holding one state at a time:
each state goes to a caller's sink (the CLI's is textio.state_writer's put,
which writes it as trajectory CSV rows, a state of distinct values on two
CPUs where it can) and is then dropped, so a run's
memory is O(n + m) whatever its step count.  Apart from that sink, all functions are pure; states are plain
float arrays in [0, 1]^n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .graphs import Graph
from .textio import read_node_table, write_csv

# A plateau of max_i p_i flatter than this (relative) counts toward the
# endemic verdict.
PLATEAU_RTOL = 1e-9

# Half-width of the "marginal" band around the threshold sigma = 1.
MARGINAL_TOL = 1e-6

# Vectors in spectral_radius's Lanczos basis (it allocates one more, for the
# residual direction); a restart keeps half of them.
LANCZOS_BASIS = 20

# spectral_radius stops when the residual of its top Ritz pair drops below
# LANCZOS_TOL, and raises ConvergenceError after MAX_PRODUCTS matrix-vector
# products; both are read at call time.
LANCZOS_TOL = 1e-12
MAX_PRODUCTS = 100_000

# H-steps that may refine a sigma(H) bracket straddling a marginal-band edge.
REFINE_STEPS = 30

# Entries of a bracket's test vector at or below this fraction of its
# largest are outside its support for the lower bound.
SUPPORT_RTOL = 1e-12

VERDICT_EXTINCT = "extinct"
VERDICT_ENDEMIC = "endemic"
VERDICT_UNDECIDED = "undecided"


class ConvergenceError(ArithmeticError):
    """An iterative estimate exhausted its budget: a failed computation, so an ArithmeticError."""


def _check_range(arr: np.ndarray, ok: np.ndarray, message: str) -> None:
    """Raise ValueError(message) naming the first node where ``ok`` fails;
    NaN fails every range comparison, so it is caught here too."""
    bad = np.flatnonzero(~ok)
    if bad.size:
        raise ValueError(f"{message}; node {bad[0]} has {float(arr[bad[0]])!r}")


@dataclass(frozen=True, eq=False)
class NodeParams:
    """Per-node transition probabilities: recovery mu in (0, 1], infection
    beta in [0, 1], contact r in [0, 1].  Arrays are copied and frozen."""

    mu: np.ndarray
    beta: np.ndarray
    r: np.ndarray

    def __post_init__(self) -> None:
        for name in ("mu", "beta", "r"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if not (self.mu.shape == self.beta.shape == self.r.shape) or self.mu.ndim != 1:
            raise ValueError("mu, beta, r must be 1-d arrays of equal length")
        if self.mu.size == 0:
            raise ValueError("parameter vectors must be nonempty")
        mu, beta, r = self.mu, self.beta, self.r
        _check_range(mu, (mu > 0) & (mu <= 1), "recovery probabilities mu must lie in (0, 1]")
        _check_range(beta, (beta >= 0) & (beta <= 1),
                     "infection probabilities beta must lie in [0, 1]")
        _check_range(r, (r >= 0) & (r <= 1), "contact probabilities r must lie in [0, 1]")

    @property
    def n(self) -> int:
        return self.mu.size

    @classmethod
    def homogeneous(cls, n: int, mu: float, beta: float, r: float) -> "NodeParams":
        return cls(np.full(n, mu), np.full(n, beta), np.full(n, r))

    def with_beta(self, beta: Sequence[float]) -> "NodeParams":
        return NodeParams(self.mu, np.asarray(beta, dtype=float), self.r)


@dataclass(frozen=True)
class SpectralEstimate:
    """sigma(H) certified by lower <= sigma(H) <= upper.  sigma is the
    Lanczos Ritz value clamped into that bracket, and iterations counts the
    matrix-vector products the solve took.  spectral_radius raises
    ConvergenceError rather than return an estimate that ran out of them."""

    sigma: float
    iterations: int
    lower: float
    upper: float

    @property
    def verdict(self) -> str:
        """The bracket against the marginal band: "stable" when
        upper < 1 - MARGINAL_TOL, "unstable" when lower > 1 + MARGINAL_TOL,
        else "marginal"."""
        if self.upper < 1.0 - MARGINAL_TOL:
            return "stable"
        if self.lower > 1.0 + MARGINAL_TOL:
            return "unstable"
        return "marginal"


@dataclass(frozen=True, eq=False)
class Trajectory:
    """How a simulation ended.  states[0] is the final state
    p(steps_to_verdict); the states before it went to simulate's sink."""

    states: np.ndarray  # shape (1, n)
    verdict: str
    steps_to_verdict: int


def _check_sizes(g: Graph, params: NodeParams) -> None:
    if params.n != g.n:
        raise ValueError(f"parameter length {params.n} does not match graph order {g.n}")


def as_state(p: Sequence[float], n: int) -> np.ndarray:
    """Validate and convert an infection-probability vector."""
    arr = np.asarray(p, dtype=float)
    if arr.shape != (n,):
        raise ValueError(f"state must have shape ({n},), got {arr.shape}")
    _check_range(arr, (arr >= 0) & (arr <= 1), "state entries must lie in [0, 1]")
    return arr


def _neighbor_sums(g: Graph, x: np.ndarray) -> np.ndarray:
    """(A x)_i = sum of x over the neighbors of i."""
    out = np.zeros(g.n)
    if g.indices.size:
        nz = g.degrees > 0
        out[nz] = np.add.reduceat(x[g.indices], g.indptr[:-1][nz])
    return out


def zeta_vector(g: Graph, params: NodeParams, p: np.ndarray) -> np.ndarray:
    """zeta_i = prod over neighbors j of (1 - beta_i r_i p_j); the probability
    that node i escapes infection by all neighbors this step.  Empty products
    (isolated vertices) are 1."""
    _check_sizes(g, params)
    w = params.beta * params.r
    zeta = np.ones(g.n)
    if g.indices.size:
        factors = 1.0 - np.repeat(w, g.degrees) * p[g.indices]
        nz = g.degrees > 0
        zeta[nz] = np.multiply.reduceat(factors, g.indptr[:-1][nz])
    return zeta


def sis_step(g: Graph, params: NodeParams, p: np.ndarray) -> np.ndarray:
    """One synchronous step of the exact dynamics; maps [0,1]^n into [0,1]^n."""
    zeta = zeta_vector(g, params, p)
    return (1.0 - params.mu) * p + (1.0 - zeta) * (1.0 - p)


def linear_bound_step(g: Graph, params: NodeParams, x: np.ndarray) -> np.ndarray:
    """One step x -> H x of the bound system.  Componentwise it dominates
    sis_step from equal starts; values may exceed 1."""
    _check_sizes(g, params)
    x = np.asarray(x, dtype=float)
    return (1.0 - params.mu) * x + (params.beta * params.r) * _neighbor_sums(g, x)


def check_simulate_args(max_steps: int, extinct_tol: float, endemic_window: int) -> None:
    """Raise ValueError unless simulate accepts these stopping rules; a
    caller that opens an output for the run checks them first."""
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    if endemic_window < 1:
        raise ValueError("endemic_window must be >= 1")
    if not 0.0 < extinct_tol < 1.0:
        raise ValueError("extinct_tol must lie in (0, 1)")


def simulate(
    g: Graph,
    params: NodeParams,
    p0: Sequence[float],
    max_steps: int = 10_000,
    extinct_tol: float = 1e-6,
    endemic_window: int = 200,
    sink: Callable[[int, np.ndarray], None] | None = None,
) -> Trajectory:
    """Iterate sis_step until a verdict, holding only the current state, so
    that memory stays O(n + m) however many steps run.

    ``sink(t, p)``, when given, is called with each state p(t) in turn, for
    t = 0..steps_to_verdict.  p(0) is a copy of p0, and no state is written
    to after it is handed out, so a sink may keep them.  The CLI's sink,
    textio.state_writer's put, writes each state's rows before it returns,
    formatting a state of distinct values on two CPUs where it can.

    extinct: max_i p_i drops below extinct_tol.
    endemic: the relative change of max_i p_i stays below PLATEAU_RTOL for
    endemic_window consecutive steps while max_i p_i >= extinct_tol.  This
    is an empirical plateau verdict, not a certified one: no bound is
    checked that the infection persists.
    undecided: neither happened within max_steps.
    """
    check_simulate_args(max_steps, extinct_tol, endemic_window)
    _check_sizes(g, params)
    p = as_state(p0, g.n).copy()
    if sink is not None:
        sink(0, p)
    peak = float(p.max())
    verdict = VERDICT_EXTINCT if peak < extinct_tol else VERDICT_UNDECIDED
    t = streak = 0
    while verdict == VERDICT_UNDECIDED and t < max_steps:
        t += 1
        p = sis_step(g, params, p)
        if sink is not None:
            sink(t, p)
        new_peak = float(p.max())
        rel = abs(new_peak - peak) / max(new_peak, peak)
        streak = streak + 1 if rel < PLATEAU_RTOL else 0
        peak = new_peak
        if peak < extinct_tol:
            verdict = VERDICT_EXTINCT
        elif streak >= endemic_window:
            verdict = VERDICT_ENDEMIC
    return Trajectory(p[np.newaxis], verdict, t)


def _live_block(g: Graph, params: NodeParams, live: np.ndarray) -> tuple[Graph, NodeParams]:
    """The subgraph induced on the nodes where ``live`` holds, with their params."""
    ids = np.flatnonzero(live)
    new_id = np.cumsum(live) - 1
    rows = np.repeat(np.arange(g.n), g.degrees)
    keep = live[rows] & live[g.indices]
    pairs = np.column_stack((new_id[rows[keep]], new_id[g.indices[keep]]))
    return Graph(ids.size, pairs), NodeParams(params.mu[ids], params.beta[ids], params.r[ids])


def spectral_radius(g: Graph, params: NodeParams) -> SpectralEstimate:
    """sigma(H) by thick-restart Lanczos, certified by a Collatz-Wielandt
    bracket.

    H is similar to the symmetric S = I - diag(mu) + W^1/2 A W^1/2 with
    W = diag(beta*r), so sigma(H) is the largest eigenvalue of S.  Nodes with
    w_i = 0 have empty off-diagonal rows in H, hence sigma(H) = max(sigma of
    the block of live nodes (w > 0), max over the others of 1 - mu_i); only
    the live block is iterated.  Lanczos runs on it from the normalised
    all-ones vector with a basis of LANCZOS_BASIS vectors and full
    reorthogonalisation; a full basis restarts from its top half of Ritz
    vectors (Wu & Simon, SIAM J. Matrix Anal. Appl. 22, 2000).  It stops
    when the residual of the top Ritz pair (theta, y) drops below
    LANCZOS_TOL or the basis spans the block.

    For any nonnegative x, min (Hx)_i/x_i over the support of x is a lower
    bound on sigma(H), and for positive x, max (Hx)_i/x_i is an upper bound.
    The bracket intersects these bounds for x = W^1/2 |S y| and for Hx,
    with entries at most SUPPORT_RTOL times the largest left out of the
    support and zeros floored for the upper bound; x = 1 adds the largest
    row sum of H as an upper bound.  A bracket that still straddles an edge
    of the marginal band is refined by up to REFINE_STEPS steps
    x <- (H + I) x (the shift keeps a bipartite block with mu = 1 from
    oscillating).  MAX_PRODUCTS budgets every matrix-vector product, of S
    and of H alike; ConvergenceError is raised when it runs out.
    """
    _check_sizes(g, params)
    live = params.beta * params.r > 0
    dead = float(np.max(1.0 - params.mu[~live], initial=-math.inf))
    if not live.any():
        return SpectralEstimate(dead, 0, dead, dead)
    if not live.all():
        # Copy the live block so that each product costs only live nodes.
        # Masking the dead ones on the full graph instead was as fast at
        # 0-24% dead, 13x slower at 90% (0.54 s against 0.04 s, BA n = 10^5)
        # and moved the last digits of sigma.
        g, params = _live_block(g, params, live)
    s = np.sqrt(params.beta * params.r)
    d = 1.0 - params.mu
    n = g.n
    used, theta = 0, math.nan

    def spend() -> None:
        nonlocal used
        if used >= MAX_PRODUCTS:
            raise ConvergenceError(
                f"spectral radius did not converge within {MAX_PRODUCTS} iterations "
                f"(last estimate {max(theta, dead)!r})"
            )
        used += 1

    m = min(LANCZOS_BASIS, n)
    basis = np.empty((m + 1, n))
    proj = np.zeros((m, m))  # basis^T S basis
    basis[0] = 1.0 / math.sqrt(n)
    first, converged = 0, False
    while not converged:
        for j in range(first, m):
            spend()
            q = d * basis[j] + s * _neighbor_sums(g, s * basis[j])
            h = np.zeros(j + 1)
            for _ in range(2):  # full reorthogonalisation; twice is enough
                c = basis[: j + 1] @ q
                q -= basis[: j + 1].T @ c
                h += c
            proj[j, : j + 1] = proj[: j + 1, j] = h
            b = float(np.linalg.norm(q))
            ritz, vecs = np.linalg.eigh(proj[: j + 1, : j + 1])
            theta, z = float(ritz[-1]), vecs[:, -1]
            converged = b * abs(z[-1]) < LANCZOS_TOL or j + 1 == n
            if converged:
                break
            basis[j + 1] = q / b
        else:
            # thick restart: the top half of the Ritz vectors, then the
            # residual direction, which S couples to each of them
            first = m // 2
            basis[:first] = vecs[:, -first:].T @ basis[:m]
            basis[first] = basis[m]
            proj[:] = 0.0
            proj[:first, :first] = np.diag(ritz[-first:])
    y = basis[: j + 1].T @ z

    def bracket(x: np.ndarray) -> tuple[float, float, np.ndarray, np.ndarray]:
        # also returns the positive vector u of the upper bound and Hu
        floor = SUPPORT_RTOL * x.max()
        support = x > floor
        spend()
        hx = linear_bound_step(g, params, np.where(support, x, 0.0))
        lower = float(np.min(hx[support] / x[support]))
        if not support.all():
            x = np.where(x > 0.0, x, floor)
            spend()
            hx = linear_bound_step(g, params, x)
        return lower, float(np.max(hx / x)), x, hx

    # S y = theta y + z_k q by the Lanczos relation, so W^1/2 |S y| is one
    # free H-step of W^1/2 |y|.  theta = 0 only when S = 0.
    lower, upper, x, hx = bracket(s * np.abs(theta * y + z[-1] * q if theta > 0 else y))
    # x = 1 gives the Gerschgorin bound, the largest row sum of H: a tuned
    # set whose discs all end below 1 - MARGINAL_TOL is then always "stable"
    upper = min(upper, float(np.max(d + params.beta * params.r * g.degrees)))
    edges = (1.0 - MARGINAL_TOL, 1.0 + MARGINAL_TOL)
    for step in range(REFINE_STEPS + 1):
        # Step 0 runs on any open bracket: an H-step damps the Ritz error on
        # low-amplitude nodes, which sets the bracket's width.  Later steps
        # run while the bracket straddles a band edge and use H + I, so that
        # a bipartite block with mu = 1 does not oscillate.
        if lower == upper or (step and not any(lower <= e <= upper for e in edges)):
            break
        x = hx if step == 0 else hx + x
        lo, up, x, hx = bracket(x / x.max())
        lower, upper = max(lower, lo), min(upper, up)
    lower = max(lower, dead)
    upper = max(upper, lower)  # bounds that meet can cross by a rounding
    return SpectralEstimate(min(max(theta, dead, lower), upper), used, lower, upper)


def load_params(path, n: int) -> NodeParams:
    """Read the params CSV ``node,mu,beta,r`` of a graph of order ``n``: it
    lists every node id 0..n-1 exactly once (see textio.read_node_table)."""
    table, rows = read_node_table(path, ("mu", "beta", "r"), n)
    if rows < n:
        raise ValueError(f"parameter length {rows} does not match graph order {n}")
    return NodeParams(*table.T)


def save_params(params: NodeParams, path) -> None:
    """Params CSV ``node,mu,beta,r``, one row per node."""
    block = (range(params.n), params.mu, params.beta, params.r)
    write_csv(path, "node,mu,beta,r", block)

