"""Discrete-time SIS dynamics on a network, its linear upper-bound system,
and spectral-radius threshold analysis.

The exact map evolves per-node infection probabilities

    p_i(t+1) = (1 - mu_i) p_i(t) + (1 - zeta_i(t)) (1 - p_i(t)),
    zeta_i(t) = prod_{j ~ i} (1 - beta_i r_i p_j(t)),

synchronously (all zeta_i computed from the old state).  Replacing
``1 - zeta_i`` by its linear upper bound ``beta_i r_i sum_j p_j`` gives the
bound system x(t+1) = H x(t) with H = I - diag(mu) + diag(beta*r) A, a
nonnegative matrix: extinction of the bound system (spectral radius
sigma(H) < 1) forces extinction of the exact dynamics.

All functions are pure; states are plain float arrays in [0, 1]^n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graphs import Graph
from .textio import read_node_table, write_csv

# A plateau of max_i p_i flatter than this (relative) counts toward the
# endemic verdict.
PLATEAU_RTOL = 1e-9

# Half-width of the "marginal" band around the threshold sigma = 1.
MARGINAL_TOL = 1e-6

VERDICT_EXTINCT = "extinct"
VERDICT_ENDEMIC = "endemic"
VERDICT_UNDECIDED = "undecided"


class ConvergenceError(RuntimeError):
    """An iterative estimate did not converge within its iteration budget."""


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
        if not np.all(np.isfinite(self.mu)) or np.any(self.mu <= 0) or np.any(self.mu > 1):
            raise ValueError("recovery probabilities mu must lie in (0, 1]")
        if not np.all(np.isfinite(self.beta)) or np.any(self.beta < 0) or np.any(self.beta > 1):
            raise ValueError("infection probabilities beta must lie in [0, 1]")
        if not np.all(np.isfinite(self.r)) or np.any(self.r < 0) or np.any(self.r > 1):
            raise ValueError("contact probabilities r must lie in [0, 1]")

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
    """Converged power-iteration estimate of sigma(H) and the iterations it
    took.  spectral_radius raises ConvergenceError rather than return an
    estimate that ran out of iterations."""

    sigma: float
    iterations: int

    @property
    def verdict(self) -> str:
        """classify_sigma(sigma): "stable", "marginal" or "unstable"."""
        return classify_sigma(self.sigma)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Simulated time series: states[t] is p(t) for t = 0..steps_to_verdict."""

    states: np.ndarray  # shape (T+1, n)
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
    if not np.all(np.isfinite(arr)) or np.any(arr < 0) or np.any(arr > 1):
        raise ValueError("state entries must lie in [0, 1]")
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


def verify_bound_inequality(
    g: Graph, params: NodeParams, p: Sequence[float], tol: float = 1e-12
) -> bool:
    """Check 1 - zeta_i <= beta_i r_i sum_{j~i} p_j for every node (the
    product-vs-sum inequality; always true up to roundoff `tol`)."""
    state = as_state(p, g.n)
    lhs = 1.0 - zeta_vector(g, params, state)
    rhs = (params.beta * params.r) * _neighbor_sums(g, state)
    return bool(np.all(lhs <= rhs + tol * np.maximum(1.0, rhs)))


def simulate(
    g: Graph,
    params: NodeParams,
    p0: Sequence[float],
    max_steps: int = 10_000,
    extinct_tol: float = 1e-6,
    endemic_window: int = 200,
) -> Trajectory:
    """Iterate sis_step until a verdict.

    extinct: max_i p_i drops below extinct_tol.
    endemic: the relative change of max_i p_i stays below PLATEAU_RTOL for
    endemic_window consecutive steps while max_i p_i >= extinct_tol.
    undecided: neither happened within max_steps.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    if not 0.0 < extinct_tol < 1.0:
        raise ValueError("extinct_tol must lie in (0, 1)")
    _check_sizes(g, params)
    p = as_state(p0, g.n)
    states = [p.copy()]
    peak = float(p.max())
    if peak < extinct_tol:
        return Trajectory(np.array(states), VERDICT_EXTINCT, 0)
    streak = 0
    for t in range(1, max_steps + 1):
        p = sis_step(g, params, p)
        states.append(p.copy())
        new_peak = float(p.max())
        if new_peak < extinct_tol:
            return Trajectory(np.array(states), VERDICT_EXTINCT, t)
        rel = abs(new_peak - peak) / max(new_peak, peak)
        streak = streak + 1 if rel < PLATEAU_RTOL else 0
        peak = new_peak
        if streak >= endemic_window:
            return Trajectory(np.array(states), VERDICT_ENDEMIC, t)
    return Trajectory(np.array(states), VERDICT_UNDECIDED, max_steps)


def spectral_radius(
    g: Graph, params: NodeParams, tol: float = 1e-12, max_iter: int = 100_000
) -> SpectralEstimate:
    """Estimate sigma(H) by power iteration from the all-ones vector with
    successive Rayleigh-quotient estimates.

    Internally iterates the shifted matrix H + I: the positive shift makes
    the dominant eigenvalue strictly dominant even when some 1 - mu_i vanish
    on bipartite structure (where plain iteration can stall on a +/- pair),
    and is subtracted from the reported estimate.  Convergence means two
    successive estimates differ by less than tol; ConvergenceError is
    raised when max_iter iterations do not get there.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    _check_sizes(g, params)
    n = g.n
    x = np.full(n, 1.0 / math.sqrt(n))
    prev = math.inf
    est = prev
    for it in range(1, max_iter + 1):
        y = linear_bound_step(g, params, x) + x  # (H + I) x
        est = float(x @ y)  # Rayleigh quotient of H + I at unit x
        x = y / np.linalg.norm(y)
        if abs(est - prev) < tol:
            return SpectralEstimate(est - 1.0, it)
        prev = est
    raise ConvergenceError(
        f"spectral radius did not converge within {max_iter} iterations "
        f"(last estimate {est - 1.0!r})"
    )


def classify_sigma(sigma: float) -> str:
    """"stable" (sigma < 1 - MARGINAL_TOL), "unstable" (sigma > 1 + MARGINAL_TOL),
    else "marginal"."""
    if sigma < 1.0 - MARGINAL_TOL:
        return "stable"
    if sigma > 1.0 + MARGINAL_TOL:
        return "unstable"
    return "marginal"


def load_params(path) -> NodeParams:
    """Read the params CSV ``node,mu,beta,r``; node ids 0..n-1, each exactly once."""
    return NodeParams(*read_node_table(path, ("mu", "beta", "r")).T)


def save_params(params: NodeParams, path, header_comment: str | None = None) -> None:
    """Params CSV ``node,mu,beta,r``, one row per node."""
    rows = (
        f"{i},{m!r},{b!r},{c!r}\n"
        for i, (m, b, c) in enumerate(
            zip(params.mu.tolist(), params.beta.tolist(), params.r.tolist())
        )
    )
    write_csv(path, "node,mu,beta,r", rows, header_comment)


def write_trajectory_csv(traj: Trajectory, path, header_comment: str | None = None) -> None:
    """Long-format trajectory: one ``t,node,p`` row per node per recorded step."""
    steps = (
        "".join(f"{t},{i},{v!r}\n" for i, v in enumerate(state.tolist()))
        for t, state in enumerate(traj.states)
    )
    write_csv(path, "t,node,p", steps, header_comment)
