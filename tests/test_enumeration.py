import csv
import math
import warnings
from fractions import Fraction

import pytest

from netquench import cli
from netquench.enumeration import (
    _egf_log,
    _ln_factorial,
    bollobas_degree_sequence_count_log,
    bollobas_regular_count_log,
    catalan_asymptotic_log,
    catalan_coefficient,
    catalan_column,
    connected_labeled_egf_log,
    connected_labeled_riordan,
    connected_labeled_table,
    count_all_labeled_graphs,
    count_labeled_graphs_with_edges,
    unlabeled_regular_count_log,
    wright_condition_value,
)

CONNECTED_FIRST_TEN = (
    1,
    1,
    4,
    38,
    728,
    26704,
    1866256,
    251548592,
    66296291072,
    34496488594816,
)


class TestBasicCounts:
    def test_all_graphs(self):
        assert count_all_labeled_graphs(3) == 8
        assert count_all_labeled_graphs(0) == 1
        assert count_all_labeled_graphs(5) == 1024

    def test_negative_order(self):
        with pytest.raises(ValueError):
            count_all_labeled_graphs(-1)

    def test_by_edge_count(self):
        assert count_labeled_graphs_with_edges(4, 5) == 6
        assert count_labeled_graphs_with_edges(3, 0) == 1
        assert sum(count_labeled_graphs_with_edges(4, k) for k in range(7)) == 64
        with pytest.raises(ValueError):
            count_labeled_graphs_with_edges(4, 7)


class TestConnectedCounts:
    def test_first_ten(self):
        assert tuple(connected_labeled_table(10)) == CONNECTED_FIRST_TEN

    def test_order_eleven(self):
        assert connected_labeled_table(11)[-1] == 35641657548953344

    def test_riordan_small(self):
        assert connected_labeled_riordan(2) == 1
        assert connected_labeled_riordan(3) == 4
        # hand expansion: 1*1*C1*C3 + 2*3*C2*C2 + 1*7*C3*C1 = 4 + 6 + 28
        assert connected_labeled_riordan(4) == 38

    def test_egf_route(self):
        assert connected_labeled_egf_log(5) == [1, 1, 4, 38, 728]
        assert connected_labeled_egf_log(1) == [1]

    def test_triple_agreement_to_30(self):
        table = connected_labeled_table(30)
        riordan = [connected_labeled_riordan(p) for p in range(1, 31)]
        egf = connected_labeled_egf_log(30)
        assert table == riordan == egf

    def test_connected_fraction_increases(self):
        fractions = [
            c / count_all_labeled_graphs(p)
            for p, c in enumerate(connected_labeled_table(20)[1:], start=2)
        ]
        # C_2/G_2 = C_3/G_3 = 1/2 exactly; strictly increasing afterwards
        assert all(a <= b for a, b in zip(fractions, fractions[1:]))
        assert all(a < b for a, b in zip(fractions[1:], fractions[2:]))
        assert fractions[-1] > 0.99


class TestEgfSeries:
    def test_domain_checks(self):
        with pytest.raises(ValueError):
            _egf_log([2, 1])
        with pytest.raises(ValueError):
            _egf_log([])

    def test_exact_rationals(self):
        out = _egf_log([1, Fraction(1, 2), Fraction(1, 3)])
        assert len(out) == 3
        assert out[1] == Fraction(1, 2)
        assert out[2] == Fraction(1, 3) - Fraction(1, 4)


class TestLnFactorial:
    def test_matches_exact_factorial(self):
        assert _ln_factorial(0) == _ln_factorial(1) == 0.0
        for n in range(2, 400):
            exact = math.log(math.factorial(n))
            assert _ln_factorial(n) == pytest.approx(exact, rel=1e-15)
        with pytest.raises(ValueError):
            _ln_factorial(-1)

    def test_no_jump_between_neighbors(self):
        step = _ln_factorial(50_001) - _ln_factorial(50_000)
        assert step == pytest.approx(math.log(50_001), abs=1e-9)


class TestCatalan:
    def test_small_values(self):
        assert catalan_coefficient(1) == 1
        assert catalan_coefficient(5) == 14
        assert catalan_coefficient(10) == 4862

    def test_index_validation(self):
        with pytest.raises(ValueError):
            catalan_coefficient(0)
        with pytest.raises(ValueError):
            catalan_asymptotic_log(1)

    def test_asymptotic_well_defined(self):
        assert math.isfinite(catalan_asymptotic_log(5))

    def test_column_matches_closed_form(self):
        column = catalan_column(2000)
        assert len(column) == 2000
        assert all(column[n - 1] == catalan_coefficient(n) for n in range(1, 2001))

    @pytest.mark.parametrize("nmax", [0, -3])
    def test_column_below_one_is_empty(self, nmax):
        assert catalan_column(nmax) == []

    def test_ratio_converges(self):
        def ratio(n):
            return math.exp(
                math.log(catalan_coefficient(n)) - catalan_asymptotic_log(n)
            )

        assert abs(ratio(200) - 1.0) < 0.02
        gaps = [abs(ratio(n) - 1.0) for n in range(10, 201, 10)]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))


class TestBollobasRegular:
    def test_exponent_identity(self):
        for degree in range(1, 11):
            lam = (degree - 1) / 2.0
            assert -(degree**2 - 1) / 4.0 == pytest.approx(-lam - lam * lam, abs=1e-12)

    def test_anchored_at_six_three(self):
        est = math.exp(bollobas_regular_count_log(6, 3))
        assert est == pytest.approx(99.9566, abs=1e-3)
        assert est / 70.0 < 1.5

    def test_k4_order_of_magnitude(self):
        est = math.exp(bollobas_regular_count_log(4, 3))
        assert 0.1 < est < 10.0  # exact count is 1; asymptotic is loose at n=4

    def test_validation(self):
        with pytest.raises(ValueError, match="parity"):
            bollobas_regular_count_log(5, 3)
        with pytest.raises(ValueError):
            bollobas_regular_count_log(4, 4)
        with pytest.raises(ValueError):
            bollobas_regular_count_log(4, 0)


class TestBollobasDegreeSequence:
    def test_regular_specialization(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            a = bollobas_degree_sequence_count_log([3] * 6)
        b = bollobas_regular_count_log(6, 3)
        assert a == pytest.approx(b, abs=1e-12)

    def test_single_edge(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert bollobas_degree_sequence_count_log([1, 1]) == pytest.approx(0.0)

    def test_triangle_estimate(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            est = math.exp(bollobas_degree_sequence_count_log([2, 2, 2]))
        assert 0.5 < est < 2.0  # exact count is 1

    def test_all_zero_sequence(self):
        assert bollobas_degree_sequence_count_log([0, 0]) == 0.0

    def test_parity(self):
        with pytest.raises(ValueError, match="parity"):
            bollobas_degree_sequence_count_log([1, 1, 1])

    def test_warns_outside_regime(self):
        with pytest.warns(UserWarning, match="regime"):
            bollobas_degree_sequence_count_log([3] * 6)


class TestUnlabeledRegular:
    def test_consistency_with_labeled(self):
        u = unlabeled_regular_count_log(6, 3)
        l = bollobas_regular_count_log(6, 3)
        assert u == pytest.approx(l - math.log(math.factorial(6)), abs=1e-12)
        assert math.exp(u) == pytest.approx(99.9566 / 720.0, rel=1e-3)

    def test_degree_hypothesis(self):
        with pytest.raises(ValueError):
            unlabeled_regular_count_log(8, 2)

    def test_grows_without_bound(self):
        values = [unlabeled_regular_count_log(n, 3) for n in range(8, 61, 2)]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert values[-1] > 50.0


class TestWright:
    def test_point_values(self):
        assert wright_condition_value(10, 0) == pytest.approx(-math.log(10) / 2)
        assert wright_condition_value(10, 22.5) == pytest.approx(2.25 - math.log(10) / 2)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            wright_condition_value(10, 46)
        with pytest.raises(ValueError):
            wright_condition_value(10, -1)

    def test_monotone_sweeps(self):
        dense = [
            wright_condition_value(n, round(n * math.log(n)))
            for n in range(20, 200, 10)
        ]
        assert all(a < b for a, b in zip(dense, dense[1:]))
        assert dense[-1] > 1.0
        sparse = [wright_condition_value(n, n // 2) for n in range(20, 200, 10)]
        assert all(a > b for a, b in zip(sparse, sparse[1:]))
        assert sparse[-1] < -1.0


def rarity_column(tmp_path, r):
    """{n: ln_ratio} from the ``enum rarity`` table at degree r, n <= 60."""
    out = tmp_path / f"rarity{r}.csv"
    assert cli.main(["enum", "rarity", "--degree", str(r), "--nmax", "60",
                     "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["n", "ln_L", "ln_G", "ln_ratio"]
    return {int(n): float(ratio) for n, _, _, ratio in rows}


class TestRarity:
    def test_small_ratio_by_ten(self, tmp_path):
        assert rarity_column(tmp_path, 3)[10] < math.log(1e-6)

    def test_strictly_decreasing(self, tmp_path):
        column = rarity_column(tmp_path, 3)
        assert list(column) == list(range(4, 61, 2))
        values = list(column.values())
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_not_yet_rare_at_four(self, tmp_path):
        assert math.log(1e-3) < rarity_column(tmp_path, 3)[4] < math.log(1e-1)

    def test_validation(self, tmp_path, capsys):
        assert 9 not in rarity_column(tmp_path, 3)  # n * r odd: no row
        assert cli.main(["enum", "rarity", "--degree", "0", "--out", str(tmp_path / "x.csv")]) == 1
        assert "degree must be >= 1" in capsys.readouterr().err
