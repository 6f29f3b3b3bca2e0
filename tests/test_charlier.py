"""The explicit-sum Charlier oracle of ``test_corrected``, against which the
recurrence of ``corrected._charlier_masses`` is checked: its values, its
agreement with the three-term recurrence, and its orthogonality."""

import math

import numpy as np
import pytest

from corrpois import poisson_pmf

from test_corrected import charlier_values

ORTH_KMAX = 200  # past it, E |P_m P_nu| over 12-degree pairs at lam <= 10 is below 1e-100


def charlier_by_recurrence(m, lam, k):
    """Independent oracle: the three-term recurrence
    P_{m+1}(k) = (k - lam - m) P_m(k) - m lam P_{m-1}(k)."""
    if m == 0:
        return 1.0
    prev, cur = 1.0, k - lam
    for mm in range(1, m):
        prev, cur = cur, (k - lam - mm) * cur - mm * lam * prev
    return cur


def orthogonality_sum(m, nu, lam, kmax=ORTH_KMAX):
    """E P_m(Z) P_nu(Z) truncated to Z <= kmax, one compensated sum."""
    terms = poisson_pmf(lam, kmax).mass * charlier_values(m, lam, kmax) * charlier_values(
        nu, lam, kmax)
    return math.fsum(terms.tolist())


class TestCharlierValues:
    def test_degree_one(self):
        assert charlier_values(1, 2.0, 5)[5] == pytest.approx(3.0, abs=1e-14)

    def test_degree_two_at_origin(self):
        # P_2(k) = (k - lam)^2 - k
        assert charlier_values(2, 1.0, 0)[0] == pytest.approx(1.0, abs=1e-14)

    def test_degree_three_value(self):
        assert charlier_values(3, 1.0, 2)[2] == pytest.approx(-1.0, abs=1e-13)

    def test_matches_recurrence_oracle(self):
        for lam in (0.5, 1.0, 2.0):
            for m in range(9):
                values = charlier_values(m, lam, 50)
                for k in range(0, 51, 5):
                    b = charlier_by_recurrence(m, lam, k)
                    assert abs(values[k] - b) <= 1e-9 * max(1.0, abs(b))

    def test_array_matches_recurrence_oracle(self):
        ks = np.arange(51, dtype=float)
        for lam in (0.5, 1.0, 2.0):
            for m in range(9):
                a = charlier_values(m, lam, 50)
                b = charlier_by_recurrence(m, lam, ks)
                assert np.all(np.abs(a - b) <= 1e-9 * np.maximum(1.0, np.abs(b))), (m, lam)


class TestOrthogonality:
    def test_diagonal_value(self):
        assert orthogonality_sum(2, 2, 1.0) == pytest.approx(2.0, abs=1e-10)

    def test_off_diagonal_vanishes(self):
        assert abs(orthogonality_sum(1, 3, 2.0)) <= 1e-9

    def test_diagonal_against_independent_truncation(self):
        # independent oracle: the recurrence, summed to kmax = 200
        lam, m = 0.5, 4
        pois = poisson_pmf(lam, 200)
        total = math.fsum(
            pois.mass[k] * charlier_by_recurrence(m, lam, k) ** 2 for k in range(201)
        )
        value = orthogonality_sum(m, m, lam, kmax=50)
        assert value == pytest.approx(total, rel=1e-12)
        assert value == pytest.approx(math.factorial(4) * 0.5**4, abs=1e-10)

    def test_full_grid_within_tolerance(self):
        for lam in (0.5, 1.0, 2.0):
            for m in range(9):
                for nu in range(m, 9):
                    expected = math.factorial(m) * lam**m if m == nu else 0.0
                    assert abs(orthogonality_sum(m, nu, lam) - expected) <= 1e-9, (m, nu, lam)

    def test_supported_range_within_tolerance_and_tail(self):
        # terms reach 12! 10^12, so the tolerance is relative to sqrt(m! lam^m nu!
        # lam^nu), the Cauchy-Schwarz bound on E |P_m P_nu|.  As |P_j(k)| <=
        # (k + lam)^j, the terms past K total at most pi(K + 1) (K + 1 + lam)^d /
        # (1 - r), d = m + nu, r = lam / (K + 2) ((K + 2 + lam) / (K + 1 + lam))^d
        top = ORTH_KMAX
        for lam in (0.1, 0.5, 1.0, 2.0, 3.0, 5.0, 7.0, 10.0):
            pois = poisson_pmf(lam, top + 60).mass
            for m in range(13):
                for nu in range(13):
                    d = m + nu
                    r = lam / (top + 2) * ((top + 2 + lam) / (top + 1 + lam)) ** d
                    tail = pois[top + 1] * (top + 1 + lam) ** d / (1.0 - r)
                    expected = math.factorial(m) * lam**m if m == nu else 0.0
                    scale = math.sqrt(math.factorial(m) * lam**m * math.factorial(nu) * lam**nu)
                    deviation = abs(orthogonality_sum(m, nu, lam) - expected)
                    assert deviation <= 1e-9 * scale + tail, (m, nu, lam)
                    beyond = math.fsum(
                        abs(pois[k] * charlier_by_recurrence(m, lam, k)
                            * charlier_by_recurrence(nu, lam, k))
                        for k in range(top + 1, top + 61))
                    assert beyond <= tail <= 1e-100, (m, nu, lam)
