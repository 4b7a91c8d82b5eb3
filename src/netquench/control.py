"""Gerschgorin-disc node selection and beta tuning.

Every eigenvalue of H = I - diag(mu) + diag(beta*r) A lies in the union of
discs centered at 1 - mu_i with radius beta_i r_i deg(i).  A node whose disc
escapes the unit circle (margin mu_i - beta_i r_i deg(i) <= 0) is flagged:
reducing its beta until beta_i r_i deg(i) = kappa * mu_i with kappa < 1 pulls
every disc strictly inside, which is sufficient (not necessary) for
sigma(H) < 1 and hence for extinction of the bound dynamics.  Whether a
tuned network is in fact stable is dynamics.spectral_radius's verdict.

The flagged set is one sorted array of node ids, and selection and tuning
are whole-array operations on it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import NodeParams, _check_sizes
from .graphs import Graph
from .textio import write_csv

DEFAULT_SAFETY = 0.9


@dataclass(frozen=True, eq=False)
class SelectionReport:
    """Per-node disc margins mu_i - beta_i r_i deg(i) (most negative = most
    critical) and ``flagged``, the sorted int64 ids {i : margin_i <= 0}.
    The arrays are read-only."""

    margins: np.ndarray
    flagged: np.ndarray


def _margins(mu: np.ndarray, beta: np.ndarray, r: np.ndarray, deg: np.ndarray) -> np.ndarray:
    """mu_i - beta_i r_i deg(i), the one expression selection and tuning share."""
    return mu - beta * r * deg


def select_nodes(g: Graph, params: NodeParams) -> SelectionReport:
    """Flag every node violating beta_i r_i deg(i) < mu_i (non-strictly, so
    the boundary case is controlled too)."""
    _check_sizes(g, params)
    margins = _margins(params.mu, params.beta, params.r, g.degrees)
    flagged = np.flatnonzero(margins <= 0.0)
    for arr in (margins, flagged):
        arr.flags.writeable = False
    return SelectionReport(margins, flagged)


def tune_betas(
    g: Graph,
    params: NodeParams,
    report: SelectionReport,
    kappa: float = DEFAULT_SAFETY,
) -> NodeParams:
    """Lower beta on flagged nodes to beta' = kappa * mu / (r * deg), clamped
    so beta never increases.  Where rounding leaves a node's margin at or
    below 0 (kappa within an ulp or so of 1), its beta steps down one float
    at a time until it is positive, so a subsequent select_nodes flags
    nothing."""
    if not 0.0 < kappa < 1.0:
        raise ValueError(f"safety factor must lie in (0, 1), got {kappa}")
    _check_sizes(g, params)
    if report.margins.size != g.n:
        raise ValueError(f"report covers {report.margins.size} nodes, graph has {g.n}")
    f = report.flagged
    mu, r, deg = params.mu[f], params.r[f], g.degrees[f]
    scale = r * deg
    bad = f[scale == 0.0]  # radius 0 < mu_i: select_nodes never flags such a node
    if bad.size:
        raise ValueError(f"report fails a consistency check: flagged node {bad[0]} has r*deg = 0")
    beta = np.minimum(params.beta[f], kappa * mu / scale)
    while (still := _margins(mu, beta, r, deg) <= 0.0).any():
        beta[still] = np.nextafter(beta[still], 0.0)
    new_beta = np.array(params.beta)
    new_beta[f] = beta
    return params.with_beta(new_beta)


def write_selection_report(
    report: SelectionReport,
    g: Graph,
    params: NodeParams,
    path,
) -> None:
    """CSV ``node,degree,mu,beta,r,margin,flagged`` sorted by node."""
    flag = np.zeros(g.n, dtype=np.int64)  # bools would print as True/False
    flag[report.flagged] = 1
    block = (range(g.n), g.degrees, params.mu, params.beta, params.r, report.margins, flag)
    write_csv(path, "node,degree,mu,beta,r,margin,flagged", block)


def write_control_plan(
    report: SelectionReport,
    original: NodeParams,
    tuned: NodeParams,
    path,
) -> None:
    """CSV ``node,beta_old,beta_new`` for the flagged nodes, sorted by node."""
    f = report.flagged
    write_csv(path, "node,beta_old,beta_new", (f, original.beta[f], tuned.beta[f]))
