import math

import numpy as np
import pytest

from corrpois import (
    charlier,
    charlier_values,
    covariance_identity_check,
    falling_factorial,
    orthogonality_check,
    poisson_pmf,
)
from corrpois.charlier import forward_difference


def charlier_by_recurrence(m, lam, k):
    """Independent oracle: the three-term recurrence
    P_{m+1}(k) = (k - lam - m) P_m(k) - m lam P_{m-1}(k)."""
    if m == 0:
        return 1.0
    prev, cur = 1.0, k - lam
    for mm in range(1, m):
        prev, cur = cur, (k - lam - mm) * cur - mm * lam * prev
    return cur


class TestFallingFactorial:
    def test_values(self):
        assert falling_factorial(5, 2) == 20.0
        assert falling_factorial(3, 0) == 1.0
        assert falling_factorial(2, 5) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            falling_factorial(-1, 2)
        with pytest.raises(ValueError):
            falling_factorial(2, -1)


class TestCharlierValues:
    def test_degree_one(self):
        assert charlier(1, 2.0, 5) == pytest.approx(3.0, abs=1e-14)

    def test_degree_two_at_origin(self):
        # P_2(k) = (k - lam)^2 - k
        assert charlier(2, 1.0, 0) == pytest.approx(1.0, abs=1e-14)

    def test_degree_three_value(self):
        assert charlier(3, 1.0, 2) == pytest.approx(-1.0, abs=1e-13)

    def test_rejects_bad_mean(self):
        with pytest.raises(ValueError):
            charlier(2, 0.0, 1)

    def test_matches_recurrence_oracle(self):
        for lam in (0.5, 1.0, 2.0):
            for m in range(9):
                for k in range(0, 51, 5):
                    a = charlier(m, lam, k)
                    b = charlier_by_recurrence(m, lam, k)
                    assert abs(a - b) <= 1e-9 * max(1.0, abs(b))

    def test_array_matches_recurrence_oracle(self):
        ks = np.arange(51, dtype=float)
        for lam in (0.5, 1.0, 2.0):
            for m in range(9):
                a = charlier_values(m, lam, 50)
                b = charlier_by_recurrence(m, lam, ks)
                assert np.all(np.abs(a - b) <= 1e-9 * np.maximum(1.0, np.abs(b))), (m, lam)

    def test_vectorized_agrees_with_scalar(self):
        vals = charlier_values(4, 1.5, 30)
        for k in range(31):
            assert vals[k] == pytest.approx(charlier(4, 1.5, k), rel=1e-13, abs=1e-13)


class TestOrthogonality:
    def test_diagonal_value(self):
        rep = orthogonality_check(2, 2, 1.0)
        assert rep.value == pytest.approx(2.0, abs=1e-10)
        assert rep.within_tol

    def test_off_diagonal_vanishes(self):
        rep = orthogonality_check(1, 3, 2.0)
        assert abs(rep.value) <= 1e-9 + rep.tail_bound

    def test_diagonal_against_independent_truncation(self):
        # independent oracle: straight sum to kmax = 200
        lam, m = 0.5, 4
        pois = poisson_pmf(lam, 200)
        total = math.fsum(
            pois.mass[k] * charlier(m, lam, k) ** 2 for k in range(201)
        )
        rep = orthogonality_check(m, m, lam)
        assert rep.value == pytest.approx(total, rel=1e-12)
        assert rep.value == pytest.approx(math.factorial(4) * 0.5**4, abs=1e-10)

    def test_full_grid_within_tolerance(self):
        for lam in (0.5, 1.0, 2.0):
            for m in range(9):
                for nu in range(m, 9):
                    rep = orthogonality_check(m, nu, lam)
                    assert rep.deviation <= 1e-9 + rep.tail_bound, (m, nu, lam)

    def test_supported_range_within_tolerance_and_tail(self):
        # terms reach 12! 10^12, so the tolerance is relative; the tail is proven
        for lam in (0.1, 0.5, 1.0, 2.0, 3.0, 5.0, 7.0, 10.0):
            for m in range(13):
                for nu in range(13):
                    rep = orthogonality_check(m, nu, lam)
                    assert rep.within_tol, (m, nu, lam)
                    top = rep.kmax
                    pois = poisson_pmf(lam, top + 60).mass
                    beyond = math.fsum(
                        abs(pois[k] * charlier_by_recurrence(m, lam, k)
                            * charlier_by_recurrence(nu, lam, k))
                        for k in range(top + 1, top + 61))
                    assert beyond <= rep.tail_bound, (m, nu, lam)

    def test_preconditions_enforced(self):
        with pytest.raises(ValueError):
            orthogonality_check(13, 2, 1.0)
        with pytest.raises(ValueError):
            orthogonality_check(2, 2, 11.0)


class TestCovarianceIdentity:
    def test_forward_difference_of_cube(self):
        g = lambda k: float(k**3)
        # second difference of k^3 is 6k + 6
        assert forward_difference(g, 2, 4) == pytest.approx(30.0)

    def test_constant_gives_zero(self):
        rep = covariance_identity_check(3, 1.0, lambda k: 5.0)
        assert abs(rep.lhs) <= 1e-9
        assert abs(rep.rhs) <= 1e-9

    def test_falling_factorial_weight(self):
        # E P_j(Z) (Z)_q = lam^q (q)_j
        lam, j, q = 2.0, 2, 4
        rep = covariance_identity_check(j, lam, lambda k: falling_factorial(k, q))
        want = lam**q * falling_factorial(q, j)
        assert rep.lhs == pytest.approx(want, rel=1e-9)
        assert rep.rhs == pytest.approx(want, rel=1e-9)

    def test_geometric_weight(self):
        # D^m 2^k = 2^k, so both sides equal lam^m E 2^Z = lam^m e^lam
        lam, m = 1.0, 2
        rep = covariance_identity_check(m, lam, lambda k: 2.0**k)
        want = lam**m * math.exp(lam)
        assert rep.lhs == pytest.approx(want, rel=1e-9)
        assert abs(rep.difference) <= 1e-9 * max(1.0, abs(rep.lhs))

    def test_polynomials_up_to_degree_four(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            coeffs = rng.uniform(-2, 2, 5)
            g = lambda k, c=coeffs: float(sum(ci * k**i for i, ci in enumerate(c)))
            for m in range(5):
                for lam in (0.5, 2.0):
                    rep = covariance_identity_check(m, lam, g)
                    assert abs(rep.difference) <= 1e-9 * max(1.0, abs(rep.lhs)), (m, lam)
