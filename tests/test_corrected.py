import decimal
import math
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from corrpois import (
    CorrectionSpec,
    ProbVector,
    build_phi_nu,
    equal_probs,
    factorial_moments_sn,
    gamma_floats,
    invert_moments,
    poisson_binomial_pmf,
    poisson_pmf,
    power_sums,
    solve_gamma_table,
    spec_for_order,
    spec_phi2,
    spec_phi3,
    spec_phi3_tilde,
    spec_poisson,
)
from corrpois.corrected import _cutoff, gamma_from_power_sums
from corrpois.pmf import poisson_tail_bound

from conftest import _exact_sn, random_prob_vectors

P123 = ProbVector((0.1, 0.2, 0.3))


def pmf_moment(pmf, m):
    ks = np.arange(pmf.mass.size, dtype=float)
    ff = np.ones_like(ks)
    for i in range(m):
        ff *= ks - i
    return math.fsum((ff * pmf.mass).tolist())


class TestSpecs:
    def test_zero_mean_rejected(self):
        empty = ProbVector(())
        for builder in (spec_phi2, spec_phi3, spec_phi3_tilde):
            with pytest.raises(ValueError):
                builder(empty)
        with pytest.raises(ValueError):
            spec_poisson(0.0)

    def test_gamma_degree_range_enforced(self):
        with pytest.raises(ValueError):
            CorrectionSpec(2, 1.0, {5: 0.1})
        with pytest.raises(ValueError):
            CorrectionSpec(1, 1.0, {2: 0.1})

    @pytest.mark.parametrize("lam, gamma", [(math.inf, {}), (math.nan, {}),
                                            (1.0, {2: math.nan}), (1.0, {2: math.inf})])
    def test_non_finite_values_rejected(self, lam, gamma):
        # refused at construction, not deep in a later build
        with pytest.raises(ValueError, match="finite"):
            CorrectionSpec(2, lam, gamma)

    def test_moment_matched_coefficients(self):
        ps = power_sums(P123, 3)
        lam = ps.lam
        spec = spec_phi3(P123)
        assert spec.gamma[2] == pytest.approx(ps[2] / (2 * lam**2), rel=1e-15)
        assert spec.gamma[3] == pytest.approx(-ps[3] / (3 * lam**3), rel=1e-15)
        assert spec.gamma[4] == pytest.approx(-ps[2] ** 2 / (8 * lam**4), rel=1e-15)


class TestSpecForOrder:
    def test_orders_match_named_specs(self):
        p = equal_probs(12, 1.5)
        assert spec_for_order(p, 1) == spec_poisson(p.lam)
        assert spec_for_order(p, 2) == spec_phi2(p)
        assert spec_for_order(p, 3) == spec_phi3(p)
        assert spec_for_order(p, "3t") == spec_phi3_tilde(p)
        spec = spec_for_order(p, 6)
        assert spec.lam == p.lam
        want = gamma_floats(6, 12)
        assert set(spec.gamma) == {j for j, g in want.items() if g != 0.0}
        for j, g in want.items():
            assert spec.gamma[j] == pytest.approx(g, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("nu", range(2, 9))
    @pytest.mark.parametrize("n", [7, 20, 101])
    def test_exact_recurrence_is_the_binomial_table(self, n, nu):
        lams = [Fraction(1, n) ** j * n for j in range(1, nu + 1)]
        table = solve_gamma_table(nu)
        got = gamma_from_power_sums(lams, nu)
        assert got == {j: table.gamma_at(j, n) for j in range(2, 2 * nu - 1)}

    def test_high_orders_match_moments_for_unequal_probabilities(self):
        p = ProbVector((0.05, 0.3, 0.9, 0.45, 1.0, 0.12, 0.7))
        mu = factorial_moments_sn(p)
        for nu in range(4, 9):
            phi = spec_for_order(p, nu).moments()
            for m in range(1, nu + 1):
                assert phi(m) == pytest.approx(mu(m), rel=0.0, abs=1e-12 * p.lam**m)
            assert abs(phi(nu + 1) - mu(nu + 1)) > 1e-9 * p.lam ** (nu + 1)

    def test_tiny_mean_refused(self):
        p = ProbVector((1e-200,))
        assert spec_for_order(p, 1).lam == 1e-200
        with pytest.raises(ValueError, match="too small for order 2"):
            spec_for_order(p, 2)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=60), st.integers(1, 8))
    def test_moments_matched_up_to_order(self, probs, nu):
        p = ProbVector(tuple(probs))
        if not p.lam > 0 or p.lam ** (2 * nu - 2) < sys.float_info.min:
            with pytest.raises(ValueError):
                spec_for_order(p, nu)
            return
        phi = spec_for_order(p, nu).moments()
        mu = factorial_moments_sn(p)
        for m in range(1, nu + 1):
            assert abs(phi(m) - mu(m)) <= 1e-10 * max(p.lam**m, abs(mu(m)))

    def test_orders_outside_range_refused(self):
        p = equal_probs(12, 1.5)
        for order in (0, 9, -1, "4t"):
            with pytest.raises(ValueError, match="unsupported order"):
                spec_for_order(p, order)


def omitted_moment_sum(spec, top, count=600):
    """sum_{m=top+1}^{top+count} m |w_m| with w_m = 2^m mu_m / m!, term by term.

    w_m = x^m / m! - sum_j gamma_j x^m / (m - j)! with x = 2 lam, each power
    over a factorial taken in log space through math.lgamma.
    """
    logx = math.log(2.0 * spec.lam)
    total = 0.0
    for m in range(top + 1, top + count + 1):
        terms = [math.exp(m * logx - math.lgamma(m + 1))]
        terms += [-g * math.exp(m * logx - math.lgamma(m - j + 1)) for j, g in spec.gamma.items()]
        total += m * abs(math.fsum(terms))
    return total


class TestMomentTail:
    def check_tail(self, spec):
        fm = spec.moments()
        top = fm.weighted.size - 1
        assert omitted_moment_sum(spec, top) <= fm.tail < math.inf

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=60), st.integers(1, 8))
    def test_tail_bounds_omitted_moments(self, probs, nu):
        p = ProbVector(tuple(probs))
        assume(p.lam > 0 and p.lam ** (2 * nu - 2) >= sys.float_info.min)
        self.check_tail(spec_for_order(p, nu))

    @settings(max_examples=150, deadline=None)
    @given(st.floats(0.01, 150.0), st.integers(0, 300), st.integers(1, 8))
    def test_tail_bounds_omitted_moments_equal_probs(self, lam, extra, nu):
        self.check_tail(spec_for_order(equal_probs(math.ceil(lam) + extra, lam), nu))

    def test_weighted_moments_match_closed_form(self):
        spec = spec_phi3(P123)
        fm = spec.moments()
        for m in range(fm.weighted.size):
            mu = spec.lam**m * math.fsum(
                [1.0] + [-g * math.perm(m, j) for j, g in spec.gamma.items()])
            assert fm.weighted[m] == pytest.approx(2.0**m * mu / math.factorial(m),
                                                   rel=1e-13, abs=1e-300)

    def test_moments_computed_on_access(self):
        # e^(2 lam) overflows at lam = 400, yet the masses are fine
        phi = build_phi_nu(spec_phi2(equal_probs(1000, 400.0)))
        assert phi.pmf.mass.size > 400
        with pytest.raises(OverflowError):
            phi.moments


class TestBuildPhi2:
    def test_zero_gamma_is_plain_poisson(self):
        spec = CorrectionSpec(2, 0.7, {2: 0.0})
        phi = build_phi_nu(spec, kmax=30)
        pois = poisson_pmf(0.7, 30)
        assert np.allclose(phi.pmf.mass, pois.mass, atol=0, rtol=1e-15)

    def test_hand_value_at_origin(self):
        phi = build_phi_nu(spec_phi2(ProbVector((0.5,))))
        # gamma_2 = 1/2, P_2(0) = lam^2 = 0.25
        assert phi.pmf.mass[0] == pytest.approx(0.875 * math.exp(-0.5), rel=1e-13)

    def test_variance_matches_indicator_sum(self):
        for probs in [(0.5,), (0.1, 0.2, 0.3), (0.45, 0.45, 0.02, 0.3)]:
            p = ProbVector(probs)
            ps = power_sums(p, 2)
            phi = build_phi_nu(spec_phi2(p))
            mean = pmf_moment(phi.pmf, 1)
            second = pmf_moment(phi.pmf, 2)
            var = second + mean - mean**2
            assert abs(var - (ps.lam - ps[2])) <= 1e-10

    def test_sums_to_one_within_tail(self):
        phi = build_phi_nu(spec_phi2(P123))
        assert abs(phi.pmf.total() - 1.0) <= phi.pmf.tail_bound + 1e-12


class TestBuildPhi3:
    def test_two_expansion_forms_agree(self):
        # independent falling-factorial form with hand-derived coefficients
        ps = power_sums(P123, 3)
        lam, l2, l3 = ps.lam, ps[2], ps[3]
        a = [
            1 - l2 / 2 - l3 / 3 + l2**2 / 8,
            (2 * l2 - l2**2 + 2 * l3) / (2 * lam),
            (3 * l2**2 - 2 * l2 - 4 * l3) / (4 * lam**2),
            (2 * l3 - 3 * l2**2) / (6 * lam**3),
            l2**2 / (8 * lam**4),
        ]
        phi = build_phi_nu(spec_phi3(P123), kmax=30)
        pois = poisson_pmf(lam, 30)
        for k in range(31):
            ff = [1.0]
            for i in range(4):
                ff.append(ff[-1] * (k - i))
            want = pois.mass[k] * math.fsum(a[j] * ff[j] for j in range(5))
            assert abs(phi.pmf.mass[k] - want) <= 1e-12

    def test_closed_form_moments(self):
        ps = power_sums(P123, 3)
        lam, l2, l3 = ps.lam, ps[2], ps[3]
        phi = build_phi_nu(spec_phi3(P123))
        for m in range(11):
            f2 = m * (m - 1)
            f3 = f2 * (m - 2)
            f4 = f3 * (m - 3)
            want = lam**m - f2 / 2 * l2 * lam ** (m - 2) if m >= 2 else lam**m
            if m >= 3:
                want += f3 / 3 * l3 * lam ** (m - 3)
            if m >= 4:
                want += f4 / 8 * l2**2 * lam ** (m - 4)
            assert phi.moments(m) == pytest.approx(want, rel=1e-12)

    def test_fourth_moment_gap(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            p = ProbVector(tuple(rng.uniform(0, 0.6, rng.integers(1, 15)).tolist()))
            phi = build_phi_nu(spec_phi3(p))
            mu = factorial_moments_sn(p)
            l4 = power_sums(p, 4)[4]
            gap = phi.moments(4) - mu(4)
            assert gap == pytest.approx(6.0 * l4, rel=1e-10, abs=1e-14)

    def test_moments_match_pmf_sums(self):
        phi = build_phi_nu(spec_phi3(P123))
        for m in range(11):
            direct = pmf_moment(phi.pmf, m)
            closed = phi.moments(m)
            assert abs(direct - closed) <= 1e-9 * max(1.0, abs(closed))


class TestBuildPhi3Tilde:
    def test_matches_sum_moments_up_to_three(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            p = ProbVector(tuple(rng.uniform(0, 0.7, rng.integers(1, 10)).tolist()))
            phi = build_phi_nu(spec_phi3_tilde(p))
            mu = factorial_moments_sn(p)
            for m in range(4):
                assert phi.moments(m) == pytest.approx(mu(m), rel=1e-12, abs=1e-15)

    def test_origin_value_equal_probs(self):
        n, lam = 50, 1.0
        p = equal_probs(n, lam)
        phi = build_phi_nu(spec_phi3_tilde(p))
        fn = poisson_binomial_pmf(p)
        diff = fn.mass[0] - phi.pmf.mass[0]
        want = (1 - lam / n) ** n - math.exp(-lam) * (
            1 - lam**2 / (2 * n) - lam**3 / (3 * n**2)
        )
        assert diff == pytest.approx(want, rel=1e-9)

    def test_scaled_origin_gap_approaches_limit(self):
        lam = 1.0
        limit = math.exp(-lam) * lam**4 / 8
        gaps = []
        for n in (10, 100):
            fn0 = (1 - lam / n) ** n
            phi0 = math.exp(-lam) * (1 - lam**2 / (2 * n) - lam**3 / (3 * n**2))
            gaps.append(abs(n**2 * (fn0 - phi0) - limit))
        assert gaps[1] < gaps[0]


class TestBuildPhiNu:
    def test_all_zero_gamma_is_poisson(self):
        spec = CorrectionSpec(3, 1.3, {2: 0.0, 3: 0.0, 4: 0.0})
        phi = build_phi_nu(spec, kmax=25)
        assert np.allclose(phi.pmf.mass, poisson_pmf(1.3, 25).mass, rtol=1e-15)

    def test_binomial_table_matches_moment_matching(self):
        n, lam = 10, 1.0
        spec = CorrectionSpec(2, equal_probs(n, lam).lam, gamma_floats(2, n),
                              "binomial-closed-form")
        via_table = build_phi_nu(spec, kmax=30)
        via_probs = build_phi_nu(spec_phi2(equal_probs(n, lam)), kmax=30)
        assert np.allclose(via_table.pmf.mass, via_probs.pmf.mass, atol=1e-13)

    def test_random_gamma_still_sums_to_one(self):
        rng = np.random.default_rng(53)
        for _ in range(10):
            gamma = {j: float(rng.uniform(-1, 1)) for j in range(2, 5)}
            spec = CorrectionSpec(3, 1.5, gamma)
            phi = build_phi_nu(spec)
            assert abs(phi.pmf.total() - 1.0) <= phi.pmf.tail_bound + 1e-12


def charlier_values(m, lam, kmax):
    """P_m(k) for k = 0..kmax by the explicit sum

        P_m(k) = sum_{j=0}^m (-1)^(m-j) C(m, j) lam^(m-j) (k)_j,

    one compensated sum per point (``test_charlier`` checks it)."""
    ks = np.arange(kmax + 1.0)
    rows, ff = [], np.ones(ks.size)  # ff = (k)_j
    for j in range(m + 1):
        rows.append((-1.0) ** (m - j) * math.comb(m, j) * lam ** (m - j) * ff)
        ff = ff * (ks - j)
    return np.array([math.fsum(terms) for terms in np.array(rows).T.tolist()])


def charlier_masses(spec, kmax):
    """The masses as pi(k) (1 - sum_j gamma_j P_j(k)), one Charlier row per
    gamma_j from the explicit sum and a compensated sum at every point: an
    oracle for the recurrence of ``corrected._charlier_masses``.

    Also returns pi(k) (1 + sum_j |gamma_j| (k + lam)^j), which bounds the
    oracle's own rounding at k when multiplied by (2 nu + 5) u, u = 2^-53:
    the terms of the explicit Charlier sum, of absolute sum at most
    (k + lam)^j, are rounded up to j + 3 times each; P_j(k), its product
    with gamma_j, the factor and its product with pi(k) once each.  The
    rounding of pi(k) itself is common to both constructions.
    """
    pois = poisson_pmf(spec.lam, kmax).mass
    rows = [charlier_values(j, spec.lam, kmax) * (-g) for j, g in sorted(spec.gamma.items())]
    factor = np.array([math.fsum([1.0] + [r[k] for r in rows]) for k in range(kmax + 1)])
    ks = np.arange(kmax + 1.0)
    scale = 1.0 + sum(abs(g) * (ks + spec.lam) ** j for j, g in spec.gamma.items())
    return pois * factor, pois * scale


def kernel_size(spec):
    """sum_i |c_i| over c(x) = 1 - sum_j gamma_j lam^j (x - 1)^j, exactly."""
    lam = Fraction(spec.lam)
    c = [Fraction(1)] + [Fraction(0)] * (2 * spec.nu - 2)
    for j, g in spec.gamma.items():
        for i in range(j + 1):
            c[i] -= (-1) ** (j - i) * math.comb(j, i) * Fraction(g) * lam**j
    return float(sum(map(abs, c)))


ORDERS = st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, "3t"])


def moment_matched(probs, order):
    p = ProbVector(tuple(probs))
    nu = 3 if order == "3t" else order
    assume(p.lam > 0 and p.lam ** (2 * nu - 2) >= sys.float_info.min)
    return spec_for_order(p, order)


class TestKernelConstruction:
    def check_against_oracle(self, spec):
        phi = build_phi_nu(spec)
        want, scale = charlier_masses(spec, phi.pmf.support_max)
        tol = 1e-15 * kernel_size(spec) + (2 * spec.nu + 5) * 2.0**-53 * scale
        assert np.all(np.abs(phi.pmf.mass - want) <= tol)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(0.0, 0.5), min_size=1, max_size=60), ORDERS)
    def test_masses_match_charlier_oracle(self, probs, order):
        self.check_against_oracle(moment_matched(probs, order))

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.01, 90.0), st.integers(0, 300), ORDERS)
    def test_masses_match_charlier_oracle_equal_probs(self, lam, extra, order):
        self.check_against_oracle(spec_for_order(equal_probs(math.ceil(lam) + extra, lam), order))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(0.0, 0.5), min_size=1, max_size=60), ORDERS,
           st.one_of(st.none(), st.integers(0, 40)))
    def test_tail_bound_covers_next_600_masses(self, probs, order, kmax):
        spec = moment_matched(probs, order)
        phi = build_phi_nu(spec, kmax)
        top = phi.pmf.support_max
        beyond = charlier_masses(spec, top + 600)[0][top + 1:]
        assert math.fsum(np.abs(beyond).tolist()) <= phi.pmf.tail_bound


def cut_term(lam, length, k):
    """lam P(Z >= k + 1 - length) + (length - 1) P(Z >= k + 2 - length), Z ~ Poisson(lam)."""
    return (lam * poisson_tail_bound(lam, k + 1 - length)
            + (length - 1) * poisson_tail_bound(lam, k + 2 - length))


class TestCutoff:
    # every mean a cut is asked for: from the least subnormal up to 2 lam for
    # the largest Poisson mean, and every kernel length up to the longest
    # kernel difference's 2 * 128 + 1
    @settings(max_examples=600, deadline=None)
    @given(st.floats(5e-324, 2 * 1416.0), st.integers(1, 257))
    @example(5e-324, 1)
    @example(2.2e-308, 1)
    @example(2.2e-308, 257)
    @example(2.0**-60, 1)
    @example(1e-6, 31)
    @example(2 * 1416.0, 1)
    @example(2 * 1416.0, 257)
    def test_least_cut_meeting_the_bound(self, lam, length):
        k = _cutoff(lam, length)
        assert k >= length + math.ceil(lam) and cut_term(lam, length, k) <= 2.0**-60
        assert k == length + math.ceil(lam) or cut_term(lam, length, k - 1) > 2.0**-60

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(0.0, 0.5), min_size=1, max_size=60), ORDERS)
    def test_masses_and_moments_cut_by_the_one_rule(self, probs, order):
        spec = moment_matched(probs, order)
        assert build_phi_nu(spec).pmf.support_max == _cutoff(spec.lam, 2 * spec.nu - 1)
        fm = spec.moments()
        assert fm.weighted.size - 1 == _cutoff(2.0 * spec.lam, 2 * spec.nu - 1)
        assert fm.weighted[0] == 1.0

    def test_tiny_mean_high_order_support(self):
        assert build_phi_nu(spec_for_order(equal_probs(200, 0.001), 8)).pmf.support_max == 19


def decimal_masses(spec, kmax, digits=60):
    """The masses pi * c on 0..kmax with ``digits`` significant digits, from
    the exact binary64 mean and coefficients, plus the absolute mass the
    support misses (summed until a mass falls below 10^-40)."""
    lam = Fraction(spec.lam)
    c = [Fraction(1)] + [Fraction(0)] * (2 * spec.nu - 2)
    for j, g in spec.gamma.items():
        for i in range(j + 1):
            c[i] -= (-1) ** (j - i) * math.comb(j, i) * Fraction(g) * lam**j
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        c = [Decimal(x.numerator) / Decimal(x.denominator) for x in c]
        pi = [(-Decimal(spec.lam)).exp()]
        masses = []
        while True:
            k = len(masses)
            masses.append(sum(ci * pi[k - i] for i, ci in enumerate(c[: k + 1])))
            if k > max(kmax, spec.lam) and abs(masses[-1]) < Decimal("1e-40"):
                return masses[: kmax + 1], sum(map(abs, masses[kmax + 1:]))
            pi.append(pi[-1] * Decimal(spec.lam) / (k + 1))


class TestScaledPoissonStart:
    @staticmethod
    def error_within_tail_bound(spec):
        """The masses' total error against ``decimal_masses``, checked against
        their tail bound, and that bound."""
        phi = build_phi_nu(spec)
        want, beyond = decimal_masses(spec, phi.pmf.support_max)
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            err = sum((abs(Decimal(float(x)) - w) for x, w in zip(phi.pmf.mass, want)), beyond)
        assert err <= Decimal(phi.pmf.tail_bound)
        return err, phi.pmf.tail_bound

    @pytest.mark.parametrize("lam", [720.0, 1000.0])
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_error_within_tail_bound(self, lam, order):
        self.error_within_tail_bound(spec_for_order(equal_probs(2000, lam), order))

    @pytest.mark.parametrize("order", [5, 8])
    def test_high_orders_keep_their_digits(self, order):
        # the coefficients of c(x) have an absolute sum near lam^(2 nu - 2), so
        # a convolution with them errs by about 5e-5 here at order 8
        err, tail = self.error_within_tail_bound(
            spec_for_order(equal_probs(10**4, 1000.0), order))
        assert err <= Decimal("1e-13") and tail <= 1e-8


class TestInvertMoments:
    def test_poisson_roundtrip(self):
        lam = 1.5
        phi = build_phi_nu(spec_poisson(lam), kmax=40)
        inv = invert_moments(phi.moments, kmax=40)
        assert np.allclose(inv.mass, poisson_pmf(lam, 40).mass, atol=1e-10)

    def test_indicator_sum_roundtrip(self):
        mu = factorial_moments_sn(P123)
        pmf = poisson_binomial_pmf(P123)
        inv = invert_moments(mu, kmax=3)
        assert np.max(np.abs(inv.mass - pmf.mass)) <= 1e-9

    def test_phi2_roundtrip(self):
        phi = build_phi_nu(spec_phi2(P123), kmax=35)
        inv = invert_moments(phi.moments, kmax=35)
        assert np.max(np.abs(inv.mass - phi.pmf.mass)) <= 1e-9

    def test_validation(self):
        mu = factorial_moments_sn(P123)
        with pytest.raises(ValueError):
            invert_moments(mu, kmax=-1)

    @pytest.mark.parametrize("nu", [2, 3, 4])
    def test_signed_law_cut_short_within_its_bound(self, nu):
        # a signed law may put more mass past kmax than its deficit |1 - sum| shows
        spec = spec_for_order(ProbVector((0.4, 0.4)), nu)
        whole = build_phi_nu(spec).pmf
        assert not whole.is_proper
        for kmax in range(8):
            inv = invert_moments(spec.moments(), kmax)
            gap = math.fsum(np.abs(inv.mass - whole.mass[:kmax + 1]).tolist())
            beyond = math.fsum(np.abs(whole.mass[kmax + 1:]).tolist())
            assert gap + beyond <= inv.tail_bound + whole.tail_bound, kmax

    def test_bound_holds_against_the_exact_law(self):
        # S_n's moments carry the product tree's rounding, which the bound adds
        for p in random_prob_vectors(30, nmax=60, pmax=0.9, seed=43):
            inv = invert_moments(factorial_moments_sn(p), p.n)
            pmf, _, den = _exact_sn(p.probs)
            gap = sum(abs(Fraction(x) - Fraction(f, den)) for x, f in zip(inv.mass.tolist(), pmf))
            assert gap <= Fraction(inv.tail_bound), p.n

    def test_roundtrip_within_both_bounds(self):
        # the alternating sums lose up to 0.24 here (n = 400, p below 0.1)
        rng = np.random.default_rng(1)
        for n in (5, 20, 60, 120, 200, 400):
            for top in (0.1, 0.5, 0.9):
                p = ProbVector(tuple(rng.uniform(0.0, top, n).tolist()))
                inv = invert_moments(factorial_moments_sn(p), n)
                f = poisson_binomial_pmf(p)
                gap = math.fsum(np.abs(inv.mass - f.mass).tolist())
                assert gap <= inv.tail_bound + f.tail_bound, (n, top)
