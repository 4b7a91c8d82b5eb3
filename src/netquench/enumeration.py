"""Exact and asymptotic graph counting.

Exact counts (labeled graphs, labeled graphs by edge count, connected
labeled graphs via three independent routes, Catalan coefficients) are
arbitrary-precision integers and never rounded; any inexact division aborts
with ArithmeticError because it would indicate an arithmetic bug, not an
approximation.

Asymptotic estimators (Catalan growth, the pairing-model regular count, the
unlabeled reduction) return natural logs as floats: the counts overflow
floats long before the orders of magnitude stop being meaningful.  Products
and ratios of counts are sums and differences of logs.  The rarity ratio of
regular graphs among all graphs is the ``enum rarity`` table of the CLI.
"""

from __future__ import annotations

import math
from math import comb
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    from fractions import Fraction

# Exact big-integer count; Python ints are arbitrary precision.
BigCount = int


def _egf_log(f: Sequence[Fraction | int]) -> list[Fraction]:
    """log of a truncated exponential generating function, to the same order.

    ``f[k]`` is the coefficient of x^k/k!; the constant term must be 1.  The
    result is exact over the rationals: in this representation the log
    reduces to binomial convolutions with no divisions.
    """
    from fractions import Fraction  # here, so that only this route loads it

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


def connected_labeled_table(pmax: int) -> list[BigCount]:
    """[C_1, ..., C_pmax] via the subtractive recurrence
    C_p = 2^C(p,2) - (1/p) sum_k k C(p,k) 2^C(p-k,2) C_k.  Each term is
    k C(p,k) C_k shifted left by C(p-k,2) bits: a shift, not a product of
    two big integers."""
    if pmax < 1:
        raise ValueError(f"order must be >= 1, got {pmax}")
    counts: list[BigCount] = [0] * (pmax + 1)
    for p in range(1, pmax + 1):
        acc = sum((k * comb(p, k) * counts[k]) << comb(p - k, 2) for k in range(1, p))
        q, rem = divmod(acc, p)
        if rem:
            # name sizes, never the value: past 4,300 digits str() would raise
            raise ArithmeticError(f"subtractive recurrence at p={p}: the {acc.bit_length()}-bit "
                                  f"sum left remainder {rem} mod {p}")
        counts[p] = (1 << comb(p, 2)) - q
    return counts[1:]


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
            raise ArithmeticError(f"series log produced non-integer coefficient at {k}: a "
                                  f"{c.numerator.bit_length()}-bit numerator over a "
                                  f"{c.denominator.bit_length()}-bit denominator")
        out.append(int(c))
    return out


def _ln_factorial(n: int) -> float:
    """ln(n!) as lgamma(n + 1)."""
    if n < 0:
        raise ValueError(f"factorial argument must be nonnegative, got {n}")
    return math.lgamma(n + 1)


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


def catalan_asymptotic_log(n: int) -> float:
    """ln of the growth form 4^n * (1/4) (pi n^3)^(-1/2): exponential factor
    A^n with A = 4 times the subexponential square-root correction."""
    if n < 2:
        raise ValueError(f"asymptotic form needs n >= 2, got {n}")
    return n * math.log(4.0) - math.log(4.0) - 0.5 * (math.log(math.pi) + 3.0 * math.log(n))


def bollobas_regular_count_log(n: int, degree: int) -> float:
    """ln of the pairing-model asymptotic count of labeled degree-regular
    graphs: exp(-(d^2-1)/4) (2m)! / (m! 2^m (d!)^n) with m = n*degree/2."""
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    if degree >= n:
        raise ValueError(f"degree must be < n, got degree={degree}, n={n}")
    if (n * degree) % 2 != 0:
        raise ValueError(f"parity violation: n*degree = {n * degree} must be even")
    m = n * degree // 2
    return (
        -(degree * degree - 1) / 4.0
        + _ln_factorial(2 * m)
        - _ln_factorial(m)
        - m * math.log(2.0)
        - n * _ln_factorial(degree)
    )


def unlabeled_regular_count_log(n: int, degree: int) -> float:
    """ln of the unlabeled regular-graph count: the labeled count divided by
    n!, valid for degree >= 3."""
    if degree < 3:
        raise ValueError(f"unlabeled reduction needs degree >= 3, got {degree}")
    return bollobas_regular_count_log(n, degree) - _ln_factorial(n)


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

