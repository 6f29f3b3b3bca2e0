import json
import math
import pathlib
import pickle
import re
import subprocess
import sys
import warnings
from decimal import Context, Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import corrpois
from corrpois import (
    CorrectionSpec,
    ProbVector,
    SignedPmf,
    build_phi_nu,
    c_constant,
    certify_domination,
    d2,
    d2_exact_product,
    d2_tilde,
    equal_probs,
    factorial_moments_sn,
    fit_rate,
    hellinger,
    poisson_binomial_pmf,
    poisson_pmf,
    power_sums,
    sn_distance,
    spec_for_order,
    spec_phi2,
    spec_phi3,
    spec_phi3_tilde,
    spec_poisson,
    tv,
    wasserstein,
)

from corrpois.corrected import gamma_from_power_sums

from conftest import clear_caches, exact_d2_oracle, exact_distances

P123 = ProbVector((0.1, 0.2, 0.3))


def point_mass(at, size):
    mass = np.zeros(size)
    mass[at] = 1.0
    return SignedPmf(mass, 0.0, f"delta{at}")


def three_point_pairs(seed, count):
    """Seeded pairs of exact three-point laws (``tail_bound`` 0.0)."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        x, y = rng.uniform(size=3), rng.uniform(size=3) ** 4
        yield tuple(SignedPmf(v / v.sum(), 0.0, "") for v in (x, y))


class TestTotalVariation:
    def test_error_counts_its_rounding(self):
        # 0.5616998809555815 +/- 0.0 missed the exact value by 1.7e-17 at the
        # first pair, when the error counted only the inputs' tail bounds
        pairs = [tuple(SignedPmf(np.array(v), 0.0, "") for v in (
            (0.07697430866546645, 0.4854760764029465, 0.43754961493158706),
            (0.0002550690257394217, 0.000495435087091941, 0.9992494958871686)))]
        for a, b in pairs + list(three_point_pairs(101, 3000)):
            r = tv(a, b)
            exact = sum(abs(Fraction(x) - Fraction(y))
                        for x, y in zip(a.mass.tolist(), b.mass.tolist())) / 2
            assert abs(Fraction(r.value) - exact) <= Fraction(r.truncation_error)

    def test_identical_inputs(self):
        pmf = poisson_pmf(1.0, 20)
        assert tv(pmf, pmf).value == 0.0

    def test_bernoulli_vs_poisson_closed_form(self):
        p = 0.3
        fn = poisson_binomial_pmf(ProbVector((p,)))
        pois = poisson_pmf(p, 60)
        got = tv(fn, pois)
        want = p * (1.0 - math.exp(-p))
        assert got.value == pytest.approx(want, abs=1e-12)
        assert got.value == pytest.approx(0.0777545, abs=1e-6)

    def test_symmetry_and_padding(self):
        a = poisson_pmf(1.0, 15)
        b = poisson_pmf(2.0, 40)
        assert tv(a, b).value == tv(b, a).value

    def test_triangle_inequality(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            pmfs = [
                poisson_binomial_pmf(
                    ProbVector(tuple(rng.uniform(0, 1, rng.integers(1, 9)).tolist())))
                for _ in range(3)
            ]
            ab = tv(pmfs[0], pmfs[1]).value
            bc = tv(pmfs[1], pmfs[2]).value
            ac = tv(pmfs[0], pmfs[2]).value
            assert ac <= ab + bc + 1e-14

    def test_classic_lower_bound(self):
        # min(1, 1/lam)/32 * l2 <= tv(f_n, Poisson)
        rng = np.random.default_rng(67)
        for _ in range(20):
            p = ProbVector(tuple(rng.uniform(0, 0.9, rng.integers(1, 12)).tolist()))
            ps = power_sums(p, 2)
            fn = poisson_binomial_pmf(p)
            pois = poisson_pmf(ps.lam, fn.support_max + 80)
            lower = min(1.0, 1.0 / ps.lam) / 32.0 * ps[2]
            assert lower <= tv(fn, pois).value + 1e-12

    @pytest.mark.parametrize("n, lam, nu", [(20000, 5.0, 5), (20000, 1.0, 8), (5000, 30.0, 8),
                                            (20000, 50.0, 3)])
    def test_pointwise_encloses_the_difference(self, n, lam, nu):
        # where the true tv is tiny, the pointwise value is S_n's rounding, about 1e-14
        p = equal_probs(n, lam)
        spec = spec_for_order(p, nu)
        a = tv(poisson_binomial_pmf(p), build_phi_nu(spec).pmf)
        b = sn_distance(p, spec, "tv")
        assert abs(a.value - b.value) <= a.truncation_error + b.truncation_error


class TestD2:
    def test_identical_moments(self):
        mu = factorial_moments_sn(P123)
        assert d2(mu, mu).value == 0.0

    def test_single_indicator_closed_form(self):
        p = 0.5
        mu = factorial_moments_sn(ProbVector((p,)))
        pois = spec_poisson(p).moments()
        got = d2(mu, pois)
        want = 0.5 * (math.exp(2 * p) - 1.0 - 2.0 * p)
        assert got.value == pytest.approx(want, rel=1e-13)
        assert got.value == pytest.approx(0.359141, abs=1e-6)

    def test_poisson_bound(self):
        # d2(f_n, Poisson) <= e^(2 lam) l2
        rng = np.random.default_rng(71)
        for _ in range(20):
            p = ProbVector(tuple(rng.uniform(0, 0.5, rng.integers(1, 12)).tolist()))
            ps = power_sums(p, 2)
            val = d2(factorial_moments_sn(p), spec_poisson(ps.lam).moments()).value
            assert val <= math.exp(2 * ps.lam) * ps[2] * (1 + 1e-9)

    def test_truncated_moments_leave_the_tail_unbounded(self):
        mu = factorial_moments_sn(P123, mmax=1)
        pois = spec_poisson(P123.lam).moments()
        res = d2(mu, pois)
        assert math.isinf(res.truncation_error)
        assert "unbounded" in res.note


class TestD2ExactProduct:
    def test_poisson_case_closed_form(self):
        spec = spec_poisson(P123.lam)
        got = d2_exact_product(P123, spec)
        prod = math.prod(1 + 2 * x for x in P123.probs)
        want = 0.5 * (math.exp(2 * P123.lam) - prod)
        assert got.method == "exact-product"
        assert got.value == pytest.approx(want, rel=1e-12)

    def test_matches_series_for_phi2(self):
        series = d2(factorial_moments_sn(P123), spec_phi2(P123).moments())
        exact = d2_exact_product(P123, spec_phi2(P123))
        assert abs(series.value - exact.value) <= 1e-12 * exact.value

    def test_single_indicator_phi2_both_ways(self):
        p = ProbVector((0.5,))
        spec = spec_phi2(p)
        exact = d2_exact_product(p, spec)
        series = d2(factorial_moments_sn(p), spec.moments())
        assert exact.value == pytest.approx(series.value, rel=1e-12)

    def test_series_keeps_the_moments_past_the_correction_degrees(self):
        # at 2 lam = 4.9e-4 the order-3 moments must reach w_7 = 9e-26, 1.4e-11 of d2
        p = ProbVector((0.00024311119728082087,))
        series = d2(factorial_moments_sn(p), spec_phi3(p).moments())
        exact = d2_exact_product(p, spec_phi3(p))
        assert abs(series.value - exact.value) <= 1e-11 * exact.value

    def test_domination_signs(self):
        assert certify_domination(P123, spec_poisson(P123.lam)) == -1
        assert certify_domination(P123, spec_phi2(P123)) == 1
        assert certify_domination(P123, spec_phi3(P123)) == -1

    def test_refuses_on_sign_change(self):
        # the simplified order-3 coefficients break one-sided domination:
        # the moment difference starts positive and turns negative once the
        # cubic correction term overtakes the quadratic one
        p = ProbVector((0.3,) * 10)
        spec = spec_phi3_tilde(p)
        with pytest.raises(ValueError):
            certify_domination(p, spec)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = d2_exact_product(p, spec)
        # no closed form there: the exact sum of |D_m| with the spec's own gamma
        assert res.method == "exact-product"
        assert abs(res.value - exact_distances(p.probs, 3, spec)["d2"]) <= res.truncation_error

    def test_package_import_leaves_out_mpmath(self):
        code = "import sys, corrpois; print('mpmath' in sys.modules)"
        r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        assert r.stdout.strip() == "False"


class TestD2Tilde:
    def test_identical_moments(self):
        mu = factorial_moments_sn(P123)
        assert d2_tilde(mu, mu).value == 0.0

    def test_single_indicator_closed_form(self):
        p = 0.5
        mu = factorial_moments_sn(ProbVector((p,)))
        pois = spec_poisson(p).moments()
        got = d2_tilde(mu, pois)
        want = p * (math.exp(2 * p) - 1.0)
        assert got.value == pytest.approx(want, rel=1e-13)
        assert got.value == pytest.approx(0.859141, abs=1e-6)

    def test_classic_bound(self):
        rng = np.random.default_rng(73)
        for _ in range(20):
            p = ProbVector(tuple(rng.uniform(0, 0.5, rng.integers(1, 12)).tolist()))
            ps = power_sums(p, 2)
            val = d2_tilde(factorial_moments_sn(p), spec_poisson(ps.lam).moments()).value
            assert val <= 2 * (1 + ps.lam) * math.exp(2 * ps.lam) * ps[2] * (1 + 1e-9)


class TestWasserstein:
    def test_identical(self):
        pmf = poisson_pmf(1.0, 20)
        assert wasserstein(pmf, pmf).value == 0.0

    def test_point_masses(self):
        assert wasserstein(point_mass(0, 4), point_mass(3, 4)).value == pytest.approx(3.0)

    def test_dominated_by_d2_tilde(self):
        rng = np.random.default_rng(79)
        for _ in range(25):
            p = ProbVector(tuple(rng.uniform(0, 0.8, rng.integers(1, 13)).tolist()))
            fn = poisson_binomial_pmf(p)
            pois = poisson_pmf(p.lam, fn.support_max + 80)
            dw = wasserstein(fn, pois).value
            dt = d2_tilde(factorial_moments_sn(p), spec_poisson(p.lam).moments()).value
            assert dw <= dt * (1 + 1e-9) + 1e-12


class TestHellinger:
    def test_error_counts_its_rounding(self):
        with localcontext(Context(prec=60)):
            for a, b in three_point_pairs(103, 2000):
                r = hellinger(a, b)
                exact = (sum((Decimal(x).sqrt() - Decimal(y).sqrt()) ** 2
                             for x, y in zip(a.mass.tolist(), b.mass.tolist())) / 2).sqrt()
                assert abs(Decimal(r.value) - exact) <= Decimal(r.truncation_error)

    def test_identical(self):
        pmf = poisson_pmf(2.0, 40)
        assert hellinger(pmf, pmf).value == 0.0

    def test_rejects_signed_input(self):
        phi = build_phi_nu(spec_phi2(ProbVector((0.4, 0.4))))
        pois = poisson_pmf(0.8, phi.pmf.support_max)
        assert not phi.pmf.is_proper
        with pytest.raises(ValueError):
            hellinger(phi.pmf, pois)

    def test_chain_to_total_variation(self):
        rng = np.random.default_rng(83)
        for _ in range(25):
            p = ProbVector(tuple(rng.uniform(0, 0.9, rng.integers(1, 12)).tolist()))
            fn = poisson_binomial_pmf(p)
            pois = poisson_pmf(p.lam, fn.support_max + 80)
            dh = hellinger(fn, pois).value
            dtv = tv(fn, pois).value
            assert dtv <= dh * math.sqrt(2 - dh**2) + 1e-10

    @pytest.mark.parametrize("lam", [2.0, 5.0, 30.0])
    def test_error_covers_a_cut(self, lam):
        # two cuts of one measure are 0 apart, and S_n's distance to the cut
        # measure lies within both errors of its distance to the uncut one
        pois = spec_poisson(lam)
        cut, whole = build_phi_nu(pois, 10).pmf, build_phi_nu(pois).pmf
        h = hellinger(cut, whole)
        assert h.value <= h.truncation_error
        fn = poisson_binomial_pmf(equal_probs(40, lam))
        a, b = hellinger(fn, cut), hellinger(fn, whole)
        assert abs(a.value - b.value) <= a.truncation_error + b.truncation_error

    def test_cubic_power_sum_bound(self):
        rng = np.random.default_rng(89)
        for _ in range(25):
            p = ProbVector(tuple(rng.uniform(0, 0.9, rng.integers(1, 12)).tolist()))
            fn = poisson_binomial_pmf(p)
            pois = poisson_pmf(p.lam, fn.support_max + 80)
            dh = hellinger(fn, pois).value
            rhs = math.fsum(x**3 / (1 - x) for x in p.probs) / p.lam
            assert dh**2 <= rhs + 1e-12


class TestWeightedL1:
    @pytest.mark.parametrize("weight,wdesc", [(lambda k: float(k), "k"),
                                              (lambda k: float(k * k), "k^2")])
    def test_poisson_weighted_bound(self, weight, wdesc):
        # sum h |f_n - poisson| <= e^(2lam)/(2lam^2)
        #     E[h(Z)(Z^2 + (2lam-1)Z + lam^2)] * l2
        rng = np.random.default_rng(97)
        for _ in range(10):
            p = ProbVector(tuple(rng.uniform(0, 0.6, 8).tolist()))
            ps = power_sums(p, 2)
            lam = ps.lam
            fn = poisson_binomial_pmf(p)
            kmax = fn.support_max + 100
            pois = poisson_pmf(lam, kmax)
            f = np.zeros(kmax + 1)
            f[: fn.mass.size] = fn.mass
            got = math.fsum(weight(k) * abs(f[k] - pois.mass[k]) for k in range(kmax + 1))
            expect = math.fsum(
                pois.mass[k] * weight(k) * (k**2 + (2 * lam - 1) * k + lam**2)
                for k in range(kmax + 1)
            )
            rhs = math.exp(2 * lam) / (2 * lam**2) * expect * ps[2]
            assert got <= rhs * (1 + 1e-9)


class TestMetricAxioms:
    def test_nonnegative_and_zero_on_equal(self):
        fn = poisson_binomial_pmf(P123)
        for metric in (tv, wasserstein):
            assert metric(fn, fn).value == 0.0

    def test_symmetry(self):
        fn = poisson_binomial_pmf(P123)
        pois = poisson_pmf(P123.lam, 40)
        for metric in (tv, wasserstein, hellinger):
            assert metric(fn, pois).value == metric(pois, fn).value
        mu1 = factorial_moments_sn(P123)
        mu2 = spec_poisson(P123.lam).moments()
        assert d2(mu1, mu2).value == d2(mu2, mu1).value
        assert d2_tilde(mu1, mu2).value == d2_tilde(mu2, mu1).value

    def test_tv_le_d2_against_corrections(self):
        rng = np.random.default_rng(101)
        for _ in range(20):
            p = ProbVector(tuple(rng.uniform(0, 0.5, rng.integers(1, 13)).tolist()))
            fn = poisson_binomial_pmf(p)
            mu = factorial_moments_sn(p)
            for spec in (spec_poisson(p.lam), spec_phi2(p), spec_phi3(p)):
                phi = build_phi_nu(spec)
                lhs = tv(fn, phi.pmf).value
                rhs = d2(mu, spec.moments()).value
                assert lhs <= rhs * (1 + 1e-9) + 1e-12


def rel_err(value, exact):
    """|value - exact| over exact; below the normal range binary64 keeps
    only an absolute precision, so 2^-1022 counts as an absolute floor."""
    return abs(value - exact) / max(exact, 2.0**-1022)


def assert_matches_oracle(res, want):
    assert res.method == "exact-product"
    assert abs(res.value - want) <= res.truncation_error
    assert rel_err(res.value, want) <= 1e-13


class TestD2ExactGradedRemainder:
    """d2_exact_product against the exact-coefficient oracle of conftest."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(0.0, 0.5), min_size=1, max_size=60), st.integers(1, 8))
    def test_matches_oracle(self, probs, nu):
        p = ProbVector(tuple(probs))
        assume(p.n > 0 and p.lam ** (2 * nu - 2) >= sys.float_info.min)
        res = d2_exact_product(p, spec_for_order(p, nu))
        assume(res.method == "exact-product")
        assert_matches_oracle(res, exact_d2_oracle(p.probs, nu))

    @pytest.mark.parametrize("lam", [0.5, 1.0, 1.7])
    @pytest.mark.parametrize("n", [40, 80, 160, 320, 640])
    def test_equal_probability_grid(self, lam, n):
        p = equal_probs(n, lam)
        for nu in range(1, 9):
            res = d2_exact_product(p, spec_for_order(p, nu))
            assert_matches_oracle(res, exact_d2_oracle(p.probs, nu))

    def test_corpus(self, corpus):
        for p in corpus:
            for spec in (spec_poisson(p.lam), spec_phi2(p), spec_phi3(p)):
                res = d2_exact_product(p, spec)
                assert_matches_oracle(res, exact_d2_oracle(p.probs, spec.nu))

    def test_power_sums_extend_bit_for_bit(self, corpus):
        # d2_exact_product computes lambda_1..lambda_nu once and extends that
        # run pass by pass, so it reads the bits a fresh power_sums would
        for p in corpus:
            longest = power_sums(p, 129).values
            for j in (1, 2, 8, 25, 128):
                assert power_sums(p, j).values == longest[:j]

    def test_large_mean(self):
        # p = 1/4: the graded sum would need hundreds of weights, expm1 does not cancel
        p = equal_probs(400, 100.0)
        assert_matches_oracle(d2_exact_product(p, spec_phi3(p)), exact_d2_oracle(p.probs, 3))

    @pytest.mark.parametrize("spec", [CorrectionSpec(1, 0.7),
                                      CorrectionSpec(3, 0.6, {2: 0.05, 3: -0.01}),
                                      spec_phi3_tilde(P123)])
    def test_other_specs_use_their_gamma(self, spec):
        assert_matches_oracle(d2_exact_product(P123, spec),
                              exact_d2_oracle(P123.probs, spec.nu, spec))

    @pytest.mark.parametrize("lam", [0.5, 1.0, 1.7])
    def test_rate_slopes_reach_order_eight(self, lam):
        for fit in fit_rate(lam, range(5, 9), [40, 80, 160, 320, 640]):
            assert abs(fit.slope + fit.order) <= 0.05
            assert fit.r_squared >= 0.999

    def test_cli_value_pinned(self):
        r = subprocess.run([sys.executable, "-m", "corrpois", "distance", "--metric", "d2",
                            "--exact", "--binomial", "80", "1.7", "--order", "5"],
                           capture_output=True, text=True, timeout=120)
        assert r.returncode == 0, r.stderr
        # the value with the exact rational gamma of the order-5 table
        assert rel_err(json.loads(r.stdout)["value"], 1.19437030146916e-05) <= 1e-14

    def test_source_computes_in_binary64_only(self):
        for path in pathlib.Path(corrpois.__file__).parent.glob("*.py"):
            assert not re.search(r"^\s*(import|from)\s+decimal\b", path.read_text(), re.M), path


METRICS = ("tv", "wass", "d2", "d2tilde")
# tv between S_n for 4000 probabilities 300/4000 and its order-8 measure, from an
# 80-digit mpmath sum of the binomial masses minus pi(k) (1 - sum_j gamma_j P_j(k))
TV_4000_300_ORDER8 = 9.68929e-11


def assert_within(p, spec, want):
    for metric in METRICS:
        res = sn_distance(p, spec, metric)
        assert abs(res.value - want[metric]) <= res.truncation_error, (metric, res, want)


class TestDifferenceKernel:
    """tv, wass, d2 and d2tilde against S_n read off one difference array,
    checked against the exact difference of conftest."""

    def test_corpus(self, corpus):
        for p in corpus:
            for spec in (spec_poisson(p.lam), spec_phi2(p), spec_phi3(p)):
                assert_within(p, spec, exact_distances(p.probs, spec.nu))

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.floats(0.0, 0.5), min_size=1, max_size=60), st.integers(1, 8))
    def test_matches_oracle(self, probs, nu):
        p = ProbVector(tuple(probs))
        assume(p.n > 0 and p.lam ** (2 * nu - 2) >= sys.float_info.min)
        assert_within(p, spec_for_order(p, nu), exact_distances(p.probs, nu))

    @pytest.mark.parametrize("spec", [CorrectionSpec(1, 0.7),
                                      CorrectionSpec(3, 0.6, {2: 0.05, 3: -0.01}),
                                      spec_phi3_tilde(P123)])
    def test_other_specs_use_their_gamma(self, spec):
        assert_within(P123, spec, exact_distances(P123.probs, spec.nu, spec))

    def test_simplified_order3_at_small_p(self):
        # the closed form with the spec's own gamma cancels at small p; the kernel does not
        p = equal_probs(512, 1.0)
        spec = spec_phi3_tilde(p)
        res = d2_exact_product(p, spec)
        want = exact_d2_oracle(p.probs, 3, spec)
        assert rel_err(res.value, want) <= 1e-13
        assert abs(res.value - want) <= res.truncation_error

    @pytest.mark.parametrize("lam", [0.5, 1.0, 1.7])
    def test_tv_rate_slopes_reach_order_eight(self, lam):
        grid = [40, 80, 160, 320, 640]
        for fit in fit_rate(lam, range(5, 9), grid, metric="tv"):
            assert abs(fit.slope + fit.order) <= 0.05
            assert fit.r_squared >= 0.999
            for n, dist in zip(fit.grid, fit.distances):
                assert dist <= c_constant(fit.order, lam) / n**fit.order

    def test_moment_series_cancellation_is_gone(self):
        p = equal_probs(5000, 5.0)
        res = sn_distance(p, spec_for_order(p, 3), "d2")
        assert abs(res.value - 0.0035088307771113528) <= res.truncation_error

    def test_direct_tv_at_a_large_mean(self):
        # the direct route serves here, so the measure's masses must keep their
        # digits at lam = 300, order 8 (a convolution with c(x) reads 7.05e-10)
        p = equal_probs(4000, 300.0)
        res = sn_distance(p, spec_for_order(p, 8), "tv")
        assert rel_err(res.value, TV_4000_300_ORDER8) <= 1e-3
        assert abs(res.value - TV_4000_300_ORDER8) <= res.truncation_error

    def test_tv_below_d2_at_large_n(self):
        n = 100_000
        p = equal_probs(n, 5.0)
        spec = spec_for_order(p, 5)
        dtv, dd2 = sn_distance(p, spec, "tv"), sn_distance(p, spec, "d2")
        assert dtv.value <= dd2.value + dtv.truncation_error + dd2.truncation_error
        # the closed form with exact gamma, (1 + 2 p)^n and e^(2 lam) at 120 digits
        x = Fraction(p.probs[0])
        lams = [n * x**j for j in range(1, 6)]
        gamma = gamma_from_power_sums(lams, 5)
        with localcontext(Context(prec=120)):
            def dec(f):
                return Decimal(f.numerator) / Decimal(f.denominator)
            two_lam = dec(2 * lams[0])
            low = 1 - sum(dec(g) * two_lam**j for j, g in gamma.items())
            want = float(abs((1 + 2 * dec(x)) ** n - two_lam.exp() * low) / 2)
        assert abs(dd2.value - want) <= dd2.truncation_error
        assert rel_err(dd2.value, want) <= 1e-13

    def test_kernel_first_at_a_small_mean(self, monkeypatch):
        # eight times the kernel's least rounding is below S_n's share of the
        # direct error, so the kernel comes first and its error ends the build
        from corrpois import distances, pmf

        def refuse(*args):
            raise AssertionError("the direct difference was built")

        p = ProbVector((0.005635086069540496,))
        monkeypatch.setattr(distances, "_direct", refuse)
        monkeypatch.setattr(pmf, "_linear_product", refuse)
        res = sn_distance(p, spec_poisson(p.lam), "tv")
        assert abs(res.value - exact_distances(p.probs, 1)["tv"]) <= res.truncation_error

    def test_large_n_builds_no_sn_array(self, monkeypatch):
        # at n = 10^5 bounds on the power sums alone already call for the
        # kernel, so neither S_n's pmf nor its factorial moments are built
        from corrpois import pmf

        def refuse(*args):
            raise AssertionError("an array of S_n was built")

        p = equal_probs(100_000, 5.0)
        spec = spec_for_order(p, 3)
        monkeypatch.setattr(pmf, "_linear_product", refuse)
        for metric in ("tv", "wass", "d2", "d2tilde"):
            res = sn_distance(p, spec, metric)
            assert 0 < res.truncation_error <= 1e-9 * res.value
        assert sn_distance(p, spec, "d2").value == pytest.approx(4.4043267869737367e-07,
                                                                  rel=1e-13)
        assert certify_domination(p, spec) == -1

    def test_domination_signs_on_the_corpus(self, corpus):
        for p in corpus:
            got = [certify_domination(p, spec)
                   for spec in (spec_poisson(p.lam), spec_phi2(p), spec_phi3(p))]
            assert all(g in (0, w) for g, w in zip(got, (-1, 1, -1))), got

    def test_unknown_metric(self):
        with pytest.raises(ValueError):
            sn_distance(P123, spec_phi2(P123), "hellinger")

    def test_overflow_names_the_mean(self):
        p = equal_probs(1000, 400.0)
        with pytest.raises(OverflowError, match=r"e\^\(2 lam\).*lam = 400\.0"):
            sn_distance(p, spec_phi2(p), "d2")


def corpus_items(p, call):
    """The benchmark's corpus items for p x {Poisson, phi2, phi3}, the phi2
    and phi3 items followed by their bound checks, each call made through
    ``call(thunk)``; returns every result as bits."""
    from corrpois.bounds import check_order2_bound, check_order3_bound

    def bits(x):
        if isinstance(x, np.ndarray):
            return x.dtype.str, x.tobytes()
        if isinstance(x, float):
            return x.hex()
        if isinstance(x, (list, tuple)):
            return [bits(v) for v in x]
        if isinstance(x, CorrectionSpec):
            return x.nu, x.lam.hex(), sorted((j, g.hex()) for j, g in x.gamma.items())
        return repr(x)

    out = []
    for make, check in ((lambda q: spec_poisson(q.lam), None), (spec_phi2, check_order2_bound),
                        (spec_phi3, check_order3_bound)):
        f = call(lambda: poisson_binomial_pmf(p))
        spec = call(lambda: make(p))
        phi = call(lambda: build_phi_nu(spec))
        dtv = call(lambda: tv(f, phi.pmf))
        mu = call(lambda: factorial_moments_sn(p))
        series = call(lambda: d2(mu, phi.moments))
        sign = call(lambda: certify_domination(p, spec))
        exact = call(lambda: d2_exact_product(p, spec))
        reports = call(lambda: check(p)) if check else []
        out += bits([f.mass, spec, phi.pmf.mass, phi.pmf.tail_bound, sign,
                     [[r.value, r.truncation_error, r.method, r.note] for r in (dtv, series, exact)],
                     [[r.name, r.lhs, r.rhs, r.holds] for r in reports]])
    return out


class TestSharedBuilds:
    """S_n's arrays and power sums, each matched spec, each measure array
    and each difference are built once per input."""

    def test_corpus_items_build_each_input_once(self, corpus, monkeypatch):
        from corrpois import corrected, distances, pmf

        built = {"sums": [], "specs": [], "measures": [], "sn": 0}
        sums, parts_to_gamma = pmf._Sn.power_sums, corrected._gamma_from_parts
        masses, convolution = corrected._charlier_masses, corrected._poisson_convolution
        product = pmf._linear_product

        def counted_sums(record, last):
            before = len(record.sums)
            got = sums(record, last)
            built["sums"] += range(before + 1, len(record.sums) + 1)
            return got

        def counted_gamma(parts, lam):
            built["specs"].append(parts.shape[0])
            return parts_to_gamma(parts, lam)

        def counted_masses(spec, kmax):
            built["measures"].append((spec, kmax, False))
            return masses(spec, kmax)

        def counted_convolution(lam, c, moments=False):
            built["measures"].append((lam, c.tobytes(), moments))
            return convolution(lam, c, moments)

        def counted_product(*args):
            built["sn"] += 1
            return product(*args)

        monkeypatch.setattr(pmf._Sn, "power_sums", counted_sums)
        monkeypatch.setattr(corrected, "_gamma_from_parts", counted_gamma)
        monkeypatch.setattr(corrected, "_charlier_masses", counted_masses)
        for module in (corrected, distances):  # the kernel's arrays count too
            monkeypatch.setattr(module, "_poisson_convolution", counted_convolution)
        monkeypatch.setattr(pmf, "_linear_product", counted_product)
        corpus_items(corpus[0], lambda thunk: thunk())
        assert built["sums"] == list(range(1, len(built["sums"]) + 1))
        assert built["specs"] == [1, 2, 3]  # Poisson's through the difference's matched test
        assert len(set(built["measures"])) == len(built["measures"]) >= 6
        assert built["sn"] == 2

    def test_one_cut_per_spec_and_kind(self, monkeypatch):
        # 2 max p >= 1, so the kernel does not apply and every difference is direct
        from corrpois import corrected, distances

        cuts = []
        cutoff = corrected._cutoff

        def counted(lam, size):
            cuts.append((lam, size))
            return cutoff(lam, size)

        for module in (corrected, distances):  # a cut taken outside corrected counts too
            monkeypatch.setattr(module, "_cutoff", counted, raising=False)
        p = ProbVector((0.6, 0.3))
        spec = spec_phi2(p)
        build_phi_nu(spec)
        spec.moments()
        certify_domination(p, spec)
        d2_exact_product(p, spec)
        sn_distance(p, spec, "tv")
        assert cuts == [(spec.lam, 3), (2.0 * spec.lam, 3)]

    def test_direct_difference_reads_the_measure_at_its_own_cut(self, monkeypatch):
        # n = 4000 lies past the measure's cut, so S_n's entries past K stand alone
        from corrpois import corrected

        cuts = []
        masses = corrected._charlier_masses

        def counted(spec, kmax):
            cuts.append(kmax)
            return masses(spec, kmax)

        monkeypatch.setattr(corrected, "_charlier_masses", counted)
        p = equal_probs(4000, 300)
        spec = spec_for_order(p, 8)
        support = build_phi_nu(spec).pmf.support_max
        sn_distance(p, spec, "tv")
        assert support < p.n and cuts == [support]

    @pytest.mark.parametrize("index", [0, 1, 2])
    def test_shared_results_equal_fresh_builds(self, corpus, index):
        def fresh(thunk):
            clear_caches()
            return thunk()

        p = corpus[index]
        assert corpus_items(p, lambda thunk: thunk()) == corpus_items(p, fresh)

    def test_one_difference_per_vector_and_spec(self, corpus, monkeypatch):
        from corrpois import bounds, distances

        built = []
        direct = distances._direct

        def counted(p, spec, moments, *rest):
            built.append((spec.nu, moments))
            return direct(p, spec, moments, *rest)

        monkeypatch.setattr(distances, "_direct", counted)
        p = corpus[0]
        sign = certify_domination(p, spec_phi2(p))
        value = d2_exact_product(p, spec_phi2(p)).value
        reports = bounds.check_order2_bound(p)
        assert sign == 1 and reports[0].lhs == value
        # D for phi2 once, and Delta for the Poisson of the classic tv rate once
        assert built == [(2, True), (1, False)]

    def test_shared_arrays_are_read_only(self):
        from corrpois import corrected, distances, pmf

        diff = distances._difference(P123, spec_phi2(P123), True)
        with pytest.raises(ValueError):
            diff.values[0] = 0.0
        masses = pmf._sn(P123).array(False)
        with pytest.raises(ValueError):
            masses[0] = 0.0
        assert np.array_equal(poisson_binomial_pmf(P123).mass, masses)
        assert np.array_equal(factorial_moments_sn(P123).weighted, pmf._sn(P123).array(True))
        parts, spec = corrected._matched(P123, 3)
        for shared in (parts, corrected._measure(spec, False)[0],
                       corrected._measure(spec, True)[0]):
            with pytest.raises(ValueError):
                shared[0] = 0.0

    def test_specs_are_read_only_values(self):
        # the cache keys on the spec itself, so its gamma cannot change under it
        spec = CorrectionSpec(3, 0.6, {2: 0.05, 3: -0.01})
        with pytest.raises(TypeError):
            spec.gamma[2] = 0.04
        twin = CorrectionSpec(3, 0.6, {3: -0.01, 2: 0.05, 4: 0.0})
        assert twin == spec and hash(twin) == hash(spec)
        assert hash(spec_phi3(P123)) == hash(spec_phi3(ProbVector(P123.probs)))
        assert pickle.loads(pickle.dumps(spec)) == spec


@pytest.mark.parametrize("route", ["direct", "kernel"])
def test_sn_distance_returns_plain_floats(monkeypatch, route):
    from corrpois import distances

    if route == "direct":  # 2 max p >= 1: the kernel does not apply
        p = ProbVector((0.6, 0.7, 0.2))
    else:
        def refuse(*args):
            raise AssertionError("the direct difference was built")

        monkeypatch.setattr(distances, "_direct", refuse)
        p = equal_probs(20_000, 5.0)
    spec = spec_for_order(p, 3)
    for metric in ("tv", "wass", "d2", "d2tilde"):
        res = sn_distance(p, spec, metric)
        assert type(res.value) is float and type(res.truncation_error) is float, metric


# -- reads up to the last nonzero mass --------------------------------------

ENTRIES = st.floats(-1.0, 1.0) | st.floats(-2.0**-1022, 2.0**-1022)  # subnormals too
TRAILING_ZEROS = st.lists(st.sampled_from([0.0, -0.0]), max_size=50)


@st.composite
def padded_masses(draw, signed=True):
    """A mass array whose nonzero masses (if any) end in 0-50 zeros; its last
    nonzero mass may be subnormal, and the array may be all zeros."""
    body = draw(st.lists(ENTRIES, max_size=12))
    if not signed:
        body = [abs(x) for x in body]
    if body and draw(st.booleans()):  # sums to about 1, as a built measure does
        body[0] = 1.0 - math.fsum(body[1:])
        if not signed:
            body[0] = abs(body[0])
    mass = body + draw(TRAILING_ZEROS)
    return np.array(mass or [0.0])


def accepted(mass):
    """A measure over the array with the least tail bound its sum allows."""
    return SignedPmf(mass, abs(math.fsum(mass.tolist()) - 1.0), "padded")


def padded_tv(g1, g2):
    """``tv``'s formula as written before it read the nonzero masses only."""
    k = max(g1.mass.size, g2.mass.size)
    a, b = np.zeros(k), np.zeros(k)
    a[: g1.mass.size], b[: g2.mass.size] = g1.mass, g2.mass
    value = 0.5 * math.fsum(np.abs(a - b).tolist())
    error = 0.5 * (g1.tail_bound + g2.tail_bound) + 2.0 * 2.0**-53 * value
    return value, error * (1.0 + 2.0**-40)


def padded_hellinger(g1, g2):
    """``hellinger``'s formula as written before it read the nonzero masses only."""
    k = max(g1.mass.size, g2.mass.size)
    a, b = np.zeros(k), np.zeros(k)
    a[: g1.mass.size], b[: g2.mass.size] = g1.mass, g2.mass
    value = math.sqrt(0.5 * math.fsum(((np.sqrt(a) - np.sqrt(b)) ** 2).tolist()))
    error = (math.sqrt(0.5 * g1.tail_bound) + math.sqrt(0.5 * g2.tail_bound)
             + 2.0**-53 * (math.sqrt(math.fsum(a.tolist())) + math.sqrt(math.fsum(b.tolist()))
                           + 3.0 * value))
    return value, error * (1.0 + 2.0**-40)


def bits(res):
    return res.value.hex(), res.truncation_error.hex()


class TestNonzeroSupport:
    @settings(max_examples=400, deadline=None)
    @given(padded_masses(), st.floats(0.0, 20.0) | st.sampled_from([0.0, 2.0**-52, 1e-12]))
    def test_sum_check_is_the_padded_fsum(self, mass, tail):
        total = math.fsum(mass.tolist())
        if abs(total - 1.0) <= (tail + 2.0**-51) * (1.0 + 2.0**-51):
            f = SignedPmf(mass, tail, "padded")
            assert f.total().hex() == total.hex()
            assert f.support_max == mass.size - 1 and f.mass.tolist() == mass.tolist()
        else:
            with pytest.raises(ValueError, match="masses sum to"):
                SignedPmf(mass, tail, "padded")

    @settings(max_examples=300, deadline=None)
    @given(padded_masses(), padded_masses())
    def test_tv_keeps_the_padded_bits(self, x, y):
        g1, g2 = accepted(x), accepted(y)
        assert bits(tv(g1, g2)) == tuple(v.hex() for v in padded_tv(g1, g2))

    @settings(max_examples=300, deadline=None)
    @given(padded_masses(signed=False), padded_masses(signed=False))
    def test_hellinger_keeps_the_padded_bits(self, x, y):
        g1, g2 = accepted(x), accepted(y)
        assert bits(hellinger(g1, g2)) == tuple(v.hex() for v in padded_hellinger(g1, g2))

    def test_sn_at_ten_to_the_five(self):
        # S_n's pmf is almost all underflowed zeros here
        f = poisson_binomial_pmf(equal_probs(10**5, 5.0))
        pois = build_phi_nu(spec_poisson(5.0)).pmf
        assert np.count_nonzero(f.mass) < 1000 < f.mass.size
        assert f.total().hex() == math.fsum(f.mass.tolist()).hex()
        for metric, padded in ((tv, padded_tv), (hellinger, padded_hellinger)):
            assert bits(metric(f, pois)) == tuple(v.hex() for v in padded(f, pois))
            assert bits(metric(pois, f)) == tuple(v.hex() for v in padded(pois, f))
