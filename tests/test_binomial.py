import itertools
import json
import math
from fractions import Fraction

import pytest

from corrpois import (
    c_constant,
    c_constant_series,
    compare_with_published,
    gamma_floats,
    q_polynomial,
    solve_gamma_table,
    stirling_unsigned,
)
from corrpois.binomial import RationalPolynomial

from conftest import q_derivative, q_shift_up


def falling_factorial_remainder(n: int, m: int, nu: int) -> tuple[int, Fraction]:
    """Truncate the (n)_m expansion after nu alternating terms.

    Returns (truncation, R_nu) where

        truncation = sum_{k=0}^{nu-1} (-1)^k A_k(m-1) n^(m-k)
        R_nu = (-1)^nu ((n)_m - truncation) n^(nu-m),

    and asserts the sandwich 0 <= R_nu <= A_nu(m-1).  R_nu = 0 whenever the
    truncation already reproduces (n)_m exactly (nu >= m).
    """
    if nu < 1 or n < 1 or m < 0:
        raise ValueError("require nu >= 1, n >= 1, m >= 0")
    exact = 1
    for i in range(m):
        exact *= n - i
    trunc = sum((-1) ** k * stirling_unsigned(m, k) * n ** (m - k) for k in range(nu))
    r = Fraction((-1) ** nu * (exact - trunc), n ** (m - nu)) if m >= nu \
        else Fraction((-1) ** nu * (exact - trunc)) * n ** (nu - m)
    if not 0 <= r <= stirling_unsigned(m, nu):
        raise AssertionError(f"remainder {r} outside [0, A_{nu}] for n={n}, m={m}")
    return trunc, r


def stirling_by_enumeration(m, k):
    """Oracle: sum of k-fold products over subsets of {1, ..., m-1}."""
    if k == 0:
        return 1
    return sum(
        math.prod(c) for c in itertools.combinations(range(1, m), k)
    )


def stirling_by_poly_product(m):
    """Oracle: coefficients of x (x+1) ... (x+m-1), exact ints.

    Returns the list A_k for k = 0..m-1 read off the coefficients.
    """
    coeffs = [1]
    for i in range(m):
        new = [0] * (len(coeffs) + 1)
        for d, c in enumerate(coeffs):
            new[d + 1] += c
            new[d] += c * i
        coeffs = new
    # x(x+1)...(x+m-1) = sum_k A_k(m-1) x^(m-k) after matching signs of the
    # falling-factorial expansion (all coefficients here are positive)
    return [coeffs[m - k] for k in range(m)]


class TestStirling:
    def test_small_values_by_enumeration(self):
        for m in range(0, 11):
            for k in range(0, m + 2):
                assert stirling_unsigned(m, k) == stirling_by_enumeration(m, k)

    def test_matches_polynomial_product(self):
        for m in range(1, 21):
            rising = stirling_by_poly_product(m)
            for k in range(m):
                assert stirling_unsigned(m, k) == rising[k]

    def test_vanishes_at_and_beyond_m(self):
        assert stirling_unsigned(5, 5) == 0
        assert stirling_unsigned(5, 9) == 0

    def test_first_order_closed_form(self):
        for m in range(2, 12):
            assert stirling_unsigned(m, 1) == math.comb(m, 2)

    def test_second_order_closed_form(self):
        # e_2(1..m-1) = C(m,3) (3m-1)/4
        for m in range(3, 12):
            assert Fraction(stirling_unsigned(m, 2)) == Fraction(
                math.comb(m, 3) * (3 * m - 1), 4
            )

    def test_third_order_closed_form(self):
        for m in range(4, 12):
            assert Fraction(stirling_unsigned(m, 3)) == Fraction(
                math.comb(m, 4) * m * (m - 1), 2
            )

    def test_fourth_order_closed_form(self):
        for m in range(5, 14):
            num = 15 * m**3 - 30 * m**2 + 5 * m + 2
            assert Fraction(stirling_unsigned(m, 4)) == Fraction(
                math.comb(m, 5) * num, 48
            )

    def test_falling_factorial_expansion(self):
        n, m = 7, 5
        value = sum(
            (-1) ** k * stirling_unsigned(m, k) * n ** (m - k) for k in range(m)
        )
        assert value == 7 * 6 * 5 * 4 * 3 == 2520


class TestFallingFactorialRemainder:
    def test_exact_when_order_exceeds_m(self):
        trunc, r = falling_factorial_remainder(9, 4, 6)
        assert r == 0
        assert trunc == 9 * 8 * 7 * 6

    def test_remainder_sandwich(self):
        trunc, r = falling_factorial_remainder(10, 4, 1)
        assert 0 <= r <= stirling_unsigned(4, 1)
        assert trunc == 10**4

    def test_degenerate_falling_factorial(self):
        trunc, r = falling_factorial_remainder(3, 5, 2)
        assert 0 <= r <= stirling_unsigned(5, 2)

    def test_sandwich_over_grid(self):
        for n in (1, 2, 5, 12):
            for m in range(0, 9):
                for nu in range(1, 9):
                    _, r = falling_factorial_remainder(n, m, nu)
                    assert 0 <= r <= stirling_unsigned(m, nu)


class TestGammaTable:
    def test_order_two(self):
        table = solve_gamma_table(2)
        assert set(table.entries) == {2}
        assert table.entries[2].coeffs == (Fraction(0), Fraction(1, 2))

    def test_order_three(self):
        table = solve_gamma_table(3)
        assert table.entries[3].coeffs == (0, 0, Fraction(-1, 3))
        assert table.entries[4].coeffs == (0, 0, Fraction(-1, 8))

    def test_order_four(self):
        table = solve_gamma_table(4)
        assert table.entries[4].coeffs == (0, 0, Fraction(-1, 8), Fraction(1, 4))
        assert table.entries[5].coeffs == (0, 0, 0, Fraction(1, 6))
        assert table.entries[6].coeffs == (0, 0, 0, Fraction(1, 48))

    def test_out_of_range_rejected(self):
        for nu in (1, 9):
            with pytest.raises(ValueError):
                solve_gamma_table(nu)

    def test_column_stability(self):
        # each order extends the previous one by a single higher power of 1/n
        for nu in range(2, 8):
            a, b = solve_gamma_table(nu), solve_gamma_table(nu + 1)
            for j, poly in a.entries.items():
                longer = b.entries[j].coeffs
                for power, c in enumerate(poly.coeffs):
                    assert longer[power] == c
                assert len(longer) <= len(poly.coeffs) + 1

    @pytest.mark.parametrize("nu", range(2, 9))
    def test_table_is_the_truncated_falling_factorial(self, nu):
        # the defining identity, through stirling_unsigned: the first nu terms
        # of (n)_m / n^m equal the moment factor 1 - sum_j gamma_j (m)_j
        table = solve_gamma_table(nu)
        for n in (1, 2, 7, 20, 101):
            for m in range(2 * nu + 6):
                trunc, _ = falling_factorial_remainder(n, m, nu)
                factor = 1 - sum(table.gamma_at(j, n) * math.perm(m, j) for j in table.entries)
                assert Fraction(trunc) / n**m == factor, (n, m)

    def test_json_export_shape(self):
        payload = solve_gamma_table(3).to_json_dict()
        assert payload["nu"] == 3
        assert payload["gamma"]["2"] == [[1, "1/2"]]
        assert payload["gamma"]["3"] == [[2, "-1/3"]]
        json.dumps(payload)  # must be serializable as-is


def horner_at_inverse(poly, n):
    """Oracle: the polynomial in 1/n at a concrete n, by Fraction Horner."""
    x, acc = Fraction(1, n), Fraction(0)
    for c in reversed(poly.coeffs):
        acc = acc * x + c
    return acc


class TestGammaFloats:
    @pytest.mark.parametrize("nu", range(1, 9))
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 12, 500, 1600, 10**5, 10**30])
    def test_each_float_is_the_exact_value_rounded(self, nu, n):
        got = gamma_floats(nu, n)
        if nu == 1:
            assert got == {}
            return
        table = solve_gamma_table(nu)
        want = {j: float(horner_at_inverse(poly, n)) for j, poly in sorted(table.entries.items())}
        assert list(got) == list(want)
        assert {j: g.hex() for j, g in got.items()} == {j: g.hex() for j, g in want.items()}
        assert all(table.gamma_at(j, n) == horner_at_inverse(table.entries[j], n) for j in got)

    @pytest.mark.parametrize("nu", [1, 3])
    @pytest.mark.parametrize("n", [0, -3, 2.5])
    def test_an_n_with_no_binomial_is_refused(self, nu, n):
        with pytest.raises(ValueError, match=f"n must be an integer >= 1, got {n!r}"):
            gamma_floats(nu, n)


class TestComparisonWithPublished:
    def test_low_orders_match_exactly(self):
        for nu in (2, 3, 4, 5):
            assert compare_with_published(nu) == []

    def test_known_misprint_detected(self):
        for nu in (6, 7):
            mismatches = compare_with_published(nu)
            assert len(mismatches) == 1
            entry = mismatches[0]
            assert entry["j"] == 8 and entry["power"] == 5
            assert entry["published"] == "17/388"
            assert entry["computed"] == "17/288"
            assert entry["flagged_suspect"] is True


class TestQPolynomials:
    def test_printed_values(self):
        assert q_polynomial(0).coeffs == (Fraction(1),)
        assert q_polynomial(1).coeffs == (Fraction(4, 3), Fraction(1))
        assert q_polynomial(2).coeffs == (Fraction(2), Fraction(8, 3), Fraction(2, 3))
        assert q_polynomial(3).coeffs == (
            Fraction(16, 5), Fraction(52, 9), Fraction(8, 3), Fraction(1, 3))
        assert q_polynomial(4).coeffs == (
            Fraction(16, 3), Fraction(176, 15), Fraction(68, 9), Fraction(16, 9),
            Fraction(2, 15))

    def test_differential_recurrence(self):
        # lam Q'_nu + (nu+2) Q_nu = 2 lam Q'_{nu-1} + 2 (nu+1+2lam) Q_{nu-1}
        for nu in range(1, 11):
            qn, qp = q_polynomial(nu), q_polynomial(nu - 1)
            lhs = q_shift_up(q_derivative(qn)) + qn.scale(nu + 2)
            rhs = (q_shift_up(q_derivative(qp)).scale(2)
                   + qp.scale(2 * (nu + 1))
                   + q_shift_up(qp).scale(4))
            assert lhs.coeffs == rhs.coeffs, nu

    def test_order_two_factorization(self):
        # Q_2 = (2/3)(lam^2 + 4 lam + 3)
        want = RationalPolynomial((3, 4, 1)).scale(Fraction(2, 3))
        assert q_polynomial(2).coeffs == want.coeffs


class TestCConstant:
    def test_first_order_value(self):
        assert c_constant(1, 1.0) == pytest.approx(math.e**2, rel=1e-12)

    def test_second_order_closed_form(self):
        for lam in (0.5, 1.0, 2.0):
            want = lam**3 * (4.0 / 3.0 + lam) * math.exp(2 * lam)
            assert c_constant(2, lam) == pytest.approx(want, rel=1e-12)

    def test_series_agreement(self):
        for nu in range(1, 6):
            for lam in (0.5, 1.0, 2.0):
                closed = c_constant(nu, lam)
                series, _ = c_constant_series(nu, lam)
                assert abs(closed - series) <= 1e-10 * abs(closed)

    def test_validation(self):
        with pytest.raises(ValueError):
            c_constant(0, 1.0)
        with pytest.raises(ValueError):
            c_constant(1, 0.0)

    @pytest.mark.parametrize("lam", [0.0, -1.0, math.nan, math.inf])
    def test_mean_must_be_finite_and_positive(self, lam):
        # otherwise a nan mean runs 10^4 series terms before the series gives up
        for fun in (c_constant, c_constant_series):
            with pytest.raises(ValueError, match="finite and positive"):
                fun(2, lam)

    def test_series_ends_where_its_terms_underflow(self):
        # every term past the third underflows to 0; the series used to run
        # 10^4 terms and raise RuntimeError (a traceback from ``scan``)
        lam = 2.8567786217633893e-65
        assert c_constant(1, lam) == pytest.approx(lam**2, rel=1e-12)

    def test_overflow_raises(self):
        # C_5(330) exceeds binary64; ``scan`` printed Infinity in its bound column
        with pytest.raises(OverflowError, match=r"C_5\(lam\) exceeds binary64"):
            c_constant(5, 330.0)
