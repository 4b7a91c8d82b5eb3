"""Exact and asymptotic graph counting.

Exact counts (labeled graphs, labeled graphs by edge count, connected
labeled graphs via three independent routes, labelings of a fixed graph,
Catalan coefficients) are arbitrary-precision integers and never rounded;
any inexact division aborts with ArithmeticError because it would indicate
an arithmetic bug, not an approximation.

Asymptotic estimators (Stirling factorials, Catalan growth, pairing-model
regular/degree-sequence counts, the unlabeled reduction, and the rarity
ratio of regular graphs among all graphs) live in natural-log space as
``LogValue``s: the counts overflow floats long before the orders of
magnitude stop being meaningful.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Sequence

# Exact big-integer count; Python ints are arbitrary precision.
BigCount = int


@dataclass(frozen=True)
class LogValue:
    """A positive real stored as its natural log.  Products and ratios are
    additions and subtractions of ``ln``; sums of counts must not be formed
    in log space without explicit log-sum-exp."""

    ln: float

    @property
    def value(self) -> float:
        return math.exp(self.ln)


def _egf_log(f: Sequence[Fraction | int]) -> list[Fraction]:
    """log of a truncated exponential generating function, to the same order.

    ``f[k]`` is the coefficient of x^k/k!; the constant term must be 1.  The
    result is exact over the rationals: in this representation the log
    reduces to binomial convolutions with no divisions.
    """
    if len(f) == 0:
        raise ValueError("series needs at least the constant coefficient")
    if f[0] != 1:
        raise ValueError("log needs a unit constant term")
    g = [Fraction(0)]
    for n in range(len(f) - 1):
        g.append(
            Fraction(f[n + 1])
            - sum(comb(n, j) * f[j] * g[n + 1 - j] for j in range(1, n + 1))
        )
    return g


def count_all_labeled_graphs(p: int) -> BigCount:
    """2^C(p, 2): every vertex pair independently an edge or not."""
    if p < 0:
        raise ValueError(f"order must be nonnegative, got {p}")
    return 1 << comb(p, 2)


def count_labeled_graphs_with_edges(p: int, k: int) -> BigCount:
    """Number of labeled graphs on p vertices with exactly k edges."""
    if p < 0:
        raise ValueError(f"order must be nonnegative, got {p}")
    if not 0 <= k <= comb(p, 2):
        raise ValueError(f"edge count {k} out of range [0, {comb(p, 2)}] for p={p}")
    return comb(comb(p, 2), k)


def count_labelings(p: int, s: int) -> BigCount:
    """p!/s: distinct labelings of a graph of order p whose automorphism
    group has order s.  s must divide p! or the caller supplied a wrong
    group order."""
    if p < 0:
        raise ValueError(f"order must be nonnegative, got {p}")
    if s < 1:
        raise ValueError(f"group order must be >= 1, got {s}")
    q, rem = divmod(factorial(p), s)
    if rem:
        raise ValueError(f"{s} does not divide {p}!; not an automorphism group order")
    return q


def _connected_counts_harary(pmax: int) -> list[BigCount]:
    counts: list[BigCount] = [0] * (pmax + 1)
    for p in range(1, pmax + 1):
        acc = sum(
            k * comb(p, k) * (1 << comb(p - k, 2)) * counts[k] for k in range(1, p)
        )
        q, rem = divmod(acc, p)
        if rem:
            raise ArithmeticError(f"subtractive recurrence: {acc} not divisible by {p}")
        counts[p] = (1 << comb(p, 2)) - q
    return counts


def connected_labeled_harary(p: int) -> BigCount:
    """Connected labeled graphs on p vertices by the subtractive recurrence
    C_p = 2^C(p,2) - (1/p) sum_k k C(p,k) 2^C(p-k,2) C_k."""
    if p < 1:
        raise ValueError(f"order must be >= 1, got {p}")
    return _connected_counts_harary(p)[p]


def connected_labeled_table(pmax: int) -> list[BigCount]:
    """[C_1, ..., C_pmax] via the subtractive recurrence."""
    if pmax < 1:
        raise ValueError(f"order must be >= 1, got {pmax}")
    return _connected_counts_harary(pmax)[1:]


def connected_labeled_riordan(p: int) -> BigCount:
    """Connected labeled graphs via the convolution recurrence
    C_p = sum_k C(p-2, k-1) (2^k - 1) C_k C_{p-k}, seeded with C_1 = 1."""
    if p < 1:
        raise ValueError(f"order must be >= 1, got {p}")
    counts: list[BigCount] = [0] * (p + 1)
    counts[1] = 1
    for q in range(2, p + 1):
        counts[q] = sum(
            comb(q - 2, k - 1) * ((1 << k) - 1) * counts[k] * counts[q - k]
            for k in range(1, q)
        )
    return counts[p]


def connected_labeled_egf_log(p_max: int) -> list[BigCount]:
    """Connected labeled graphs via generating functions: the series with
    x^k/k! coefficient 2^C(k,2) (all labeled graphs, constant term 1) has a
    formal log whose coefficients are exactly the connected counts.  The
    rational arithmetic must land on integers; anything else aborts."""
    if p_max < 1:
        raise ValueError(f"order must be >= 1, got {p_max}")
    logged = _egf_log([1] + [1 << comb(k, 2) for k in range(1, p_max + 1)])
    out: list[BigCount] = []
    for k in range(1, p_max + 1):
        c = logged[k]
        if c.denominator != 1:
            raise ArithmeticError(f"series log produced non-integer coefficient at {k}: {c}")
        out.append(int(c))
    return out


def _ln_factorial(n: int) -> float:
    """ln(n!) as lgamma(n + 1)."""
    if n < 0:
        raise ValueError(f"factorial argument must be nonnegative, got {n}")
    return math.lgamma(n + 1)


def stirling_log_factorial(n: int) -> LogValue:
    """ln of the Stirling approximation sqrt(2 pi n) (n/e)^n."""
    if n < 1:
        raise ValueError(f"Stirling approximation needs n >= 1, got {n}")
    return LogValue(0.5 * math.log(2.0 * math.pi * n) + n * math.log(n) - n)


def catalan_coefficient(n: int) -> BigCount:
    """Exact coefficient f_n = (1/n) C(2n-2, n-1) of the Catalan generating
    function (1 - sqrt(1-4x))/2; the division is always exact."""
    if n < 1:
        raise ValueError(f"index must be >= 1, got {n}")
    q, rem = divmod(comb(2 * n - 2, n - 1), n)
    if rem:
        raise ArithmeticError(f"Catalan division by {n} left remainder {rem}")
    return q


def catalan_column(nmax: int) -> list[BigCount]:
    """[f_1, ..., f_nmax] (empty when nmax < 1) in one pass of the exact
    ratio f_n = f_{n-1} * 2(2n-3) / n; catalan_coefficient is its referee."""
    column = [1] if nmax >= 1 else []
    for n in range(2, nmax + 1):
        q, rem = divmod(column[-1] * 2 * (2 * n - 3), n)
        if rem:
            raise ArithmeticError(f"Catalan ratio step to {n} left remainder {rem}")
        column.append(q)
    return column


def catalan_asymptotic_log(n: int) -> LogValue:
    """ln of the growth form 4^n * (1/4) (pi n^3)^(-1/2): exponential factor
    A^n with A = 4 times the subexponential square-root correction."""
    if n < 2:
        raise ValueError(f"asymptotic form needs n >= 2, got {n}")
    return LogValue(
        n * math.log(4.0) - math.log(4.0) - 0.5 * (math.log(math.pi) + 3.0 * math.log(n))
    )


def bollobas_regular_count_log(n: int, degree: int) -> LogValue:
    """ln of the pairing-model asymptotic count of labeled degree-regular
    graphs: exp(-(d^2-1)/4) (2m)! / (m! 2^m (d!)^n) with m = n*degree/2."""
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    if degree >= n:
        raise ValueError(f"degree must be < n, got degree={degree}, n={n}")
    if (n * degree) % 2 != 0:
        raise ValueError(f"parity violation: n*degree = {n * degree} must be even")
    m = n * degree // 2
    return LogValue(
        -(degree * degree - 1) / 4.0
        + _ln_factorial(2 * m)
        - _ln_factorial(m)
        - m * math.log(2.0)
        - n * _ln_factorial(degree)
    )


def bollobas_degree_sequence_count_log(degrees: Sequence[int]) -> LogValue:
    """ln of the asymptotic count of labeled graphs with the given degree
    sequence: exp(-lam - lam^2) (2m)! / (m! 2^m prod d_i!) with
    lam = sum C(d_i, 2) / (2m).  Emits a warning when max d_i exceeds
    sqrt(2 ln n) - 1, where the asymptotic regime is not guaranteed."""
    d = [int(x) for x in degrees]
    if any(x < 0 for x in d):
        raise ValueError("degrees must be nonnegative")
    total = sum(d)
    if total % 2 != 0:
        raise ValueError(f"parity violation: degree sum {total} must be even")
    if total == 0:
        return LogValue(0.0)
    n = len(d)
    bound = math.sqrt(2.0 * math.log(n)) - 1.0 if n > 1 else 0.0
    if max(d) > bound:
        warnings.warn(
            f"max degree {max(d)} exceeds sqrt(2 ln n) - 1 = {bound:.3f}; "
            "the asymptotic count is outside its guaranteed regime",
            stacklevel=2,
        )
    m = total // 2
    lam = sum(comb(x, 2) for x in d) / (2.0 * m)
    return LogValue(
        -lam
        - lam * lam
        + _ln_factorial(2 * m)
        - _ln_factorial(m)
        - m * math.log(2.0)
        - sum(_ln_factorial(x) for x in d)
    )


def unlabeled_regular_count_log(n: int, degree: int) -> LogValue:
    """ln of the unlabeled regular-graph count: the labeled count divided by
    n!, valid for degree >= 3."""
    if degree < 3:
        raise ValueError(f"unlabeled reduction needs degree >= 3, got {degree}")
    labeled = bollobas_regular_count_log(n, degree)
    return LogValue(labeled.ln - _ln_factorial(n))


def wright_condition_value(n: int, q: float) -> float:
    """min(q, N-q)/n - ln(n)/2 with N = n(n-1)/2: drives the equivalence of
    unlabeled counting and labeled-count/n! exactly when it diverges to
    +infinity along a sequence of (n, q)."""
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    cap = n * (n - 1) / 2.0
    if not 0 <= q <= cap:
        raise ValueError(f"edge count {q} out of range [0, {cap}] for n={n}")
    return min(q, cap - q) / n - math.log(n) / 2.0


def rarity_ratio_log(n: int, r: int) -> float:
    """ln of (labeled r-regular count) / (all labeled graphs) at order n,
    for constant r >= 3.  Strictly decreasing in n and diverging to
    -infinity: regular topologies vanish in probability."""
    if r < 3:
        raise ValueError(f"rarity ratio is stated for constant degree >= 3, got {r}")
    ln_regular = bollobas_regular_count_log(n, r).ln
    ln_all = comb(n, 2) * math.log(2.0)
    return ln_regular - ln_all
