import hashlib
import json
import math
import re
import struct
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest

from corrpois import (
    BoundReport,
    ProbVector,
    build_phi3,
    check_classic_chain,
    check_lower3,
    check_order2_bound,
    check_order3_bound,
    check_sandwich,
    check_simplified_order3,
    equal_probs,
    factorial_moments_sn,
    fit_loglog,
    fit_rate,
    power_sums,
    random_prob_vectors,
    theta,
)
from corrpois import bounds
from corrpois.bounds import _digest, refined_lower, sandwich_sides

P345 = ProbVector((0.3, 0.4, 0.5))


class TestTheta:
    def test_first_nontrivial_value(self):
        # theta_0(1, 1) = lam*lam_1 - lam_2 = lam^2 - lam_2
        ps = power_sums(P345, 4)
        got = theta(0, 1, 1, ps)
        assert got == pytest.approx(ps.lam**2 - ps[2], rel=1e-13)
        assert got >= 0.0

    def test_equal_probs_nonnegative(self):
        ps = power_sums(equal_probs(5, 1.0), 6)
        assert theta(1, 3, 2, ps) >= 0.0

    def test_insufficient_power_sums(self):
        ps = power_sums(P345, 3)
        with pytest.raises(ValueError):
            theta(1, 3, 2, ps)

    def test_binomial_coefficient_overflow_is_named(self):
        ps = power_sums(equal_probs(2000, 0.5), 1101)
        with pytest.raises(OverflowError, match=r"C\(1100, \d+\) exceeds binary64"):
            theta(0, 1100, 1, ps)

    def test_argument_validation(self):
        ps = power_sums(P345, 8)
        with pytest.raises(ValueError):
            theta(4, 3, 1, ps)
        with pytest.raises(ValueError):
            theta(0, 2, 0, ps)

    def test_random_sweep_nonnegative(self):
        rng = np.random.default_rng(13)
        for _ in range(500):
            n = int(rng.integers(1, 11))
            p = ProbVector(tuple(rng.uniform(0, 1, n).tolist()))
            if p.n == 0:
                continue
            ps = power_sums(p, 12)
            m = int(rng.integers(0, 9))
            j = int(rng.integers(0, m + 1))
            s = int(rng.integers(1, 5))
            assert theta(j, m, s, ps) >= -1e-12


class TestSandwich:
    def test_holds_for_hand_vector(self):
        reports = check_sandwich(P345, 15)
        assert len(reports) == 30
        assert all(r.holds for r in reports)

    def test_first_order_is_equality(self):
        ps = power_sums(P345, 4)
        mu = factorial_moments_sn(P345)
        lower, upper = sandwich_sides(ps, 1)
        assert lower == pytest.approx(mu(1), rel=1e-14)
        assert upper == pytest.approx(mu(1), rel=1e-14)

    def test_fourth_order_gap_value(self):
        ps = power_sums(P345, 4)
        mu = factorial_moments_sn(P345)
        _, upper = sandwich_sides(ps, 4)
        assert upper - mu(4) == pytest.approx(6 * ps[4], rel=1e-11)

    def test_upper_is_order3_moment(self):
        phi = build_phi3(P345)
        ps = power_sums(P345, 4)
        for m in range(1, 12):
            _, upper = sandwich_sides(ps, m)
            assert upper == pytest.approx(phi.moments(m), rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            check_sandwich(P345, 0)


class TestRefinedLower:
    def test_equalities_through_order_four(self):
        ps = power_sums(P345, 4)
        mu = factorial_moments_sn(P345)
        for m in range(1, 5):
            assert refined_lower(ps, m) == pytest.approx(mu(m), rel=1e-12)

    def test_fifth_order_gap_identity(self):
        # mu_5 - L_5 = 4 (6 lam_5 + 5 lam lam_4 - 5 lam_2 lam_3)
        p = P345
        ps = power_sums(p, 5)
        mu = factorial_moments_sn(p)
        gap = mu(5) - refined_lower(power_sums(p, 4), 5)
        want = 4 * (6 * ps[5] + 5 * ps.lam * ps[4] - 5 * ps[2] * ps[3])
        assert gap == pytest.approx(want, rel=1e-10)

    def test_random_vectors_hold(self):
        for p in random_prob_vectors(40, nmax=12, pmax=0.5, seed=7):
            if p.n == 0:
                continue
            reports = check_lower3(p, 18)
            assert all(r.holds for r in reports), p


class TestTheoremChecks:
    def test_order2_chain_holds(self):
        reports = check_order2_bound(equal_probs(10, 1.0))
        names = [r.name for r in reports]
        assert "d2-bound-order2" in names
        assert "d2-bound-order2-weaker" in names
        assert all(r.holds for r in reports)
        main = reports[0]
        assert main.slack > 0

    def test_order3_holds(self):
        for p in (equal_probs(10, 1.0), ProbVector((0.5,)), P345):
            reports = check_order3_bound(p)
            assert all(r.holds for r in reports)

    def test_classic_chain(self):
        reports = check_classic_chain(P345)
        assert all(r.holds for r in reports)
        assert {r.name for r in reports} >= {
            "tv-poisson-classic-lower", "tv-poisson-classic-upper",
            "hellinger-sq-bound", "tv-le-hellinger-chain", "tv-le-d2",
            "wasserstein-le-d2tilde", "d2tilde-classic-bound"}

    def test_classic_chain_rejects_certain_indicator(self):
        with pytest.raises(ValueError):
            check_classic_chain(ProbVector((1.0, 0.2)))


class TestRateFits:
    def test_slope_validation(self):
        with pytest.raises(ValueError):
            fit_loglog([8, 16], [0.1, 0.05], 1)

    def test_zero_distance_dropped_with_note(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = fit_loglog([8, 16, 32, 64], [0.1, 0.01, 0.001, 0.0], 2)
        assert fit.grid == (8, 16, 32)
        assert fit.note == "dropped 1 underflowed distance(s)"
        assert fit.to_json_dict()["note"] == fit.note

    def test_scattered_fit_is_noted(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = fit_loglog([8, 16, 32, 64], [0.1, 0.001, 0.05, 0.002], 3)
        assert fit.r_squared < 0.98
        assert fit.note.startswith("log-log fit for order 3 unreliable (r^2 = ")

    def test_clean_fit_has_no_note(self):
        assert fit_loglog([8, 16, 32], [0.1, 0.05, 0.025], 1).note == ""

    def test_grid_must_exceed_twice_mean(self):
        with pytest.raises(ValueError):
            fit_rate(4.0, [1], [4, 8, 16])

    @pytest.mark.parametrize("grid", [(0, 8, 16), (-5, 8, 16), (8, 16, 16, 32), (32, 16, 64)])
    def test_grid_refused_before_any_point(self, grid, monkeypatch):
        def refuse(*args):
            raise AssertionError("a point was computed")

        monkeypatch.setattr(bounds, "rate_distance", refuse)
        with pytest.raises(ValueError, match=r"grid \[.*\] must hold sizes >= 1"):
            fit_rate(0.5, [2], grid)

    def test_poisson_tv_slope(self):
        fits = fit_rate(1.0, [1], [8, 16, 32, 64], metric="tv")
        assert fits[0].slope == pytest.approx(-1.0, abs=0.2)

    def test_order2_d2_slope(self):
        fits = fit_rate(1.0, [2], [8, 16, 32, 64], metric="d2")
        assert fits[0].slope == pytest.approx(-2.0, abs=0.2)


def assert_differences_match(lam, grid):
    """f_n(0) - simplified(0) within 1e-12 relative of a 60-digit reference."""
    got = bounds.simplified_order3_differences(lam, grid)
    with localcontext() as ctx:
        ctx.prec = 60
        L = Decimal(lam)
        for n, d in zip(grid, got):
            want = (1 - L / n) ** n - (-L).exp() * (1 - L**2 / (2 * n) - L**3 / (3 * n**2))
            assert abs(Decimal(d) - want) <= Decimal("1e-12") * abs(want), (n, d, want)


class TestSimplifiedOrder3Probe:
    def test_grid_validation(self):
        with pytest.raises(ValueError):
            check_simplified_order3(1.0, [10, 100])

    @pytest.mark.parametrize("grid", [(0, 1000), (-5, 1000), (1000, 10, 2000)])
    def test_grid_sizes_refused(self, grid):
        with pytest.raises(ValueError, match=r"grid \[.*\] must hold sizes >= 1"):
            check_simplified_order3(1.0, grid)

    @pytest.mark.parametrize("lam", [0.0, -1.0, math.nan, math.inf])
    def test_mean_must_be_finite_and_positive(self, lam):
        with pytest.raises(ValueError, match="finite and positive"):
            check_simplified_order3(lam)

    def test_limit_direction_lambda2(self):
        fit = check_simplified_order3(2.0, [10, 100, 1000])
        limit = math.exp(-2.0) * 2.0**4 / 8
        gaps = [abs(n**2 * d - limit) for n, d in zip(fit.grid, fit.distances)]
        assert gaps[-1] < gaps[0]

    def test_slope_is_second_order(self):
        fit = check_simplified_order3(1.0)
        assert fit.slope == pytest.approx(-2.0, abs=0.1)

    @pytest.mark.parametrize("lam", [0.01, 0.1, 1.0])
    def test_differences_match_a_60_digit_reference(self, lam):
        # (1 - lam/n)^n and the simplified mass agree to about lam^4/(8 n^2),
        # so subtracting them loses digits: at lam = 0.01 the difference came
        # out negative
        assert_differences_match(lam, (10, 100, 1000, 10_000))

    @pytest.mark.parametrize("lam, grid", [(7.0, (7, 10, 1000)), (300.0, (599, 1000, 10**6))])
    def test_differences_at_large_means(self, lam, grid):
        # n = lam (f_n(0) = 0) and lam/n just past 1/2 take their own forms
        assert_differences_match(lam, grid)

    @pytest.mark.parametrize("lam, p", [(20.0, "2.0"), (1e100, "1e+99")])
    def test_size_below_the_mean_refused(self, lam, p):
        # lam/n is no probability at n = 10 of the default grid
        with pytest.raises(ValueError, match=re.escape(f"probability outside [0, 1]: {p}")):
            check_simplified_order3(lam)


class TestReportPlumbing:
    def test_digest_deterministic(self):
        a = BoundReport.make("x", 1.0, 2.0, _digest({"probs": [0.1, 0.2]}))
        b = BoundReport.make("x", 1.0, 2.0, _digest({"probs": [0.1, 0.2]}))
        assert a == b
        assert len(a.inputs_digest) == 16

    def test_holds_tolerance(self):
        r = BoundReport.make("tight", 1.0 + 1e-13, 1.0, _digest({}))
        assert r.holds
        r = BoundReport.make("loose", 1.1, 1.0, _digest({}))
        assert not r.holds

    def test_json_round_trip(self):
        import json

        r = BoundReport.make("x", 0.5, 1.0, _digest({"seed": 0}))
        payload = json.dumps(r.to_json_dict())
        assert json.loads(payload)["holds"] is True

    def test_corpus_reproducible(self):
        a = random_prob_vectors(5, seed=42)
        b = random_prob_vectors(5, seed=42)
        assert [x.probs for x in a] == [y.probs for y in b]


P20 = ProbVector(tuple((i + 1) / 50 for i in range(20)))

# each check with its arguments and the digest of its inputs, kept as a
# literal so that any change to the hashed form shows
DIGEST_CASES = [
    (check_sandwich, (P20, 15), "bec6fa6e7748f643"),
    (check_lower3, (P20, 10), "5c6d3d7e2137d063"),
    (check_order2_bound, (P20,), "24a1f0589377f0ad"),
    (check_classic_chain, (P20,), "24a1f0589377f0ad"),
]


def oracle_digest(probs, **extra):
    """The documented form: sorted-key JSON with the probabilities as the hex
    of their little-endian binary64 bytes, hashed with SHA-256."""
    payload = {"probs": struct.pack("<%dd" % len(probs), *probs).hex(), **extra}
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


def sandwich_digest(p, mmax=3):
    return {r.inputs_digest for r in check_sandwich(p, mmax)}


class TestInputsDigest:
    @pytest.mark.parametrize("check,args,expected", DIGEST_CASES,
                             ids=[case[0].__name__ for case in DIGEST_CASES])
    def test_inputs_hashed_once_per_call(self, monkeypatch, check, args, expected):
        calls = []

        def counting(payload):
            calls.append(payload)
            return _digest(payload)

        monkeypatch.setattr(bounds, "_digest", counting)
        reports = check(*args)
        assert len(calls) == 1
        assert len(reports) > 1
        assert {r.inputs_digest for r in reports} == {expected}

    @pytest.mark.parametrize("check,args", [(c, a) for c, a, _ in DIGEST_CASES],
                             ids=[case[0].__name__ for case in DIGEST_CASES])
    def test_matches_oracle(self, check, args):
        extra = {"mmax": args[1]} if len(args) > 1 else {}
        assert {r.inputs_digest for r in check(*args)} == {oracle_digest(P20.probs, **extra)}

    def test_matches_oracle_over_corpus(self):
        for p in random_prob_vectors(20, seed=5):
            assert sandwich_digest(p) == {oracle_digest(p.probs, mmax=3)}

    def test_one_ulp_changes_it(self):
        probs = list(P20.probs)
        for i in (0, 7, 19):
            for direction in (0.0, 1.0):
                moved = probs.copy()
                moved[i] = math.nextafter(moved[i], direction)
                assert sandwich_digest(ProbVector(moved)) != sandwich_digest(P20)

    def test_construction_forms_share_it(self):
        probs = [0.25, 0.1, 1.0 / 3.0]
        forms = [ProbVector(probs), ProbVector(tuple(probs)),
                 ProbVector([0.0, 0.25, 0.0, 0.1, 1.0 / 3.0, 0.0])]
        assert forms[2].dropped_zeros == 3
        digests = [sandwich_digest(p) for p in forms]
        assert digests == [{oracle_digest(probs, mmax=3)}] * 3
