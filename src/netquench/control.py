"""Gerschgorin-disc node selection and beta tuning.

Every eigenvalue of H = I - diag(mu) + diag(beta*r) A lies in the union of
discs centered at 1 - mu_i with radius beta_i r_i deg(i).  A node whose disc
escapes the unit circle (beta_i r_i deg(i) >= mu_i) is flagged: reducing its
beta until beta_i r_i deg(i) = kappa * mu_i with kappa < 1 pulls every disc
strictly inside, which is sufficient (not necessary) for sigma(H) < 1 and
hence for extinction of the bound dynamics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import ConvergenceError, NodeParams, SpectralEstimate, _check_sizes, spectral_radius
from .graphs import Graph
from .textio import write_csv

DEFAULT_SAFETY = 0.9


@dataclass(frozen=True, eq=False)
class SelectionReport:
    """Per-node disc centers 1 - mu_i and radii beta_i r_i deg(i), the
    flagged set {i : margin_i <= 0}, and the margins mu_i - beta_i r_i deg(i)
    (most negative = most critical).  The arrays are read-only."""

    centers: np.ndarray
    radii: np.ndarray
    flagged: frozenset[int]
    margins: np.ndarray


@dataclass(frozen=True)
class ControlPlan:
    """Tuned beta for each flagged node; untouched nodes are absent.  Every
    tuned node satisfies beta' r deg = safety * mu < mu."""

    new_beta: dict[int, float]
    safety: float


def select_nodes(g: Graph, params: NodeParams) -> SelectionReport:
    """Flag every node violating beta_i r_i deg(i) < mu_i (non-strictly, so
    the boundary case is controlled too)."""
    _check_sizes(g, params)
    centers = 1.0 - params.mu
    radii = params.beta * params.r * g.degrees
    margins = params.mu - radii
    for arr in (centers, radii, margins):
        arr.flags.writeable = False
    flagged = frozenset(np.flatnonzero(margins <= 0.0).tolist())
    return SelectionReport(centers, radii, flagged, margins)


def tune_betas(
    g: Graph,
    params: NodeParams,
    report: SelectionReport,
    kappa: float = DEFAULT_SAFETY,
) -> tuple[NodeParams, ControlPlan]:
    """Lower beta on flagged nodes to beta' = kappa * mu / (r * deg), clamped
    so beta never increases.  Returns the tuned params and the plan; with
    kappa < 1 a subsequent select_nodes flags nothing."""
    if not 0.0 < kappa < 1.0:
        raise ValueError(f"safety factor must lie in (0, 1), got {kappa}")
    new_beta = np.array(params.beta)
    plan: dict[int, float] = {}
    for i in sorted(report.flagged):
        scale = float(params.r[i]) * float(g.degrees[i])
        if scale == 0.0:
            # radius 0 < mu_i, so such a node can never be flagged
            raise RuntimeError(
                f"internal consistency: flagged node {i} has r*deg = 0"
            )
        tuned = min(float(params.beta[i]), kappa * float(params.mu[i]) / scale)
        new_beta[i] = tuned
        plan[i] = tuned
    return params.with_beta(new_beta), ControlPlan(plan, kappa)


def verify_stabilization(g: Graph, params: NodeParams) -> SpectralEstimate:
    """Recompute sigma(H) for (possibly tuned) params; the estimate's
    ``verdict`` is "stable" iff sigma < 1 - MARGINAL_TOL.  Raises
    ConvergenceError rather than report an untrusted estimate."""
    est = spectral_radius(g, params)
    if not est.converged:
        raise ConvergenceError(
            f"spectral radius did not converge within {est.iterations} iterations"
        )
    return est


def write_selection_report(
    report: SelectionReport,
    g: Graph,
    params: NodeParams,
    path,
    header_comment: str | None = None,
) -> None:
    """CSV ``node,degree,mu,beta,r,margin,flagged`` sorted by node."""
    columns = (g.degrees, params.mu, params.beta, params.r, report.margins)
    rows = (
        f"{i},{d},{m!r},{b!r},{c!r},{x!r},{int(i in report.flagged)}\n"
        for i, (d, m, b, c, x) in enumerate(zip(*(col.tolist() for col in columns)))
    )
    write_csv(path, "node,degree,mu,beta,r,margin,flagged", rows, header_comment)


def write_control_plan(
    plan: ControlPlan,
    original: NodeParams,
    path,
    header_comment: str | None = None,
) -> None:
    """CSV ``node,beta_old,beta_new`` for tuned nodes only, sorted by node."""
    rows = (
        f"{i},{float(original.beta[i])!r},{plan.new_beta[i]!r}\n"
        for i in sorted(plan.new_beta)
    )
    write_csv(path, "node,beta_old,beta_new", rows, header_comment)
