"""Acceptance suite: one test per release-gating criterion.

Each test prints a single pass/fail line (visible with `pytest -s`) and then
asserts, so a red criterion is still reported alongside the others.  The
randomized criteria all draw from the shared seeded corpus defined in
conftest.py; reruns are bit-reproducible.
"""

import math
import time
from fractions import Fraction

import numpy as np

from corrpois import (
    ProbVector,
    build_phi_nu,
    certify_domination,
    c_constant,
    c_constant_series,
    compare_with_published,
    d2,
    d2_exact_product,
    d2_tilde,
    factorial_moments_sn,
    fit_rate,
    hellinger,
    invert_moments,
    poisson_binomial_pmf,
    power_sums,
    q_polynomial,
    spec_phi2,
    spec_phi3,
    spec_phi3_tilde,
    spec_poisson,
    theta,
    tv,
    wasserstein,
)
from corrpois.bounds import refined_lower, sandwich_sides

from conftest import enumerated_factorial_moment, enumerated_pmf


def report(num, desc, ok):
    print(f"[acceptance] criterion {num:2d} ({desc}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} failed: {desc}"


def le_rel(lhs, rhs, rtol=1e-9):
    # the package-wide holds tolerance: absolute 1e-12 plus relative 1e-9
    return lhs <= rhs + 1e-12 + rtol * max(abs(lhs), abs(rhs))


def eq_rel(a, b, rtol):
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


def test_criterion_01_gamma_table_reproduction():
    t0 = time.perf_counter()
    ok = True
    for nu in range(2, 8):
        mismatches = compare_with_published(nu)
        if nu <= 5:
            ok &= mismatches == []
        else:
            ok &= len(mismatches) == 1
            ok &= mismatches[0]["j"] == 8 and mismatches[0]["power"] == 5
            ok &= mismatches[0]["published"] == "17/388"
            ok &= mismatches[0]["computed"] == "17/288"
            ok &= mismatches[0]["flagged_suspect"] is True
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    report(1, "coefficient table reproduction incl. known misprints", ok)


def test_criterion_02_q_polynomials():
    t0 = time.perf_counter()
    printed = {
        1: (Fraction(4, 3), Fraction(1)),
        2: (Fraction(2), Fraction(8, 3), Fraction(2, 3)),
        3: (Fraction(16, 5), Fraction(52, 9), Fraction(8, 3), Fraction(1, 3)),
        4: (Fraction(16, 3), Fraction(176, 15), Fraction(68, 9), Fraction(16, 9),
            Fraction(2, 15)),
    }
    ok = all(q_polynomial(nu).coeffs == coeffs for nu, coeffs in printed.items())
    for nu in range(1, 11):
        qn, qp = q_polynomial(nu), q_polynomial(nu - 1)
        lhs = qn.derivative().shift_up() + qn.scale(nu + 2)
        rhs = (qp.derivative().shift_up().scale(2) + qp.scale(2 * (nu + 1))
               + qp.shift_up().scale(4))
        ok &= lhs.coeffs == rhs.coeffs
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    report(2, "Q polynomial values and differential recurrence", ok)


def test_criterion_03_order2_distance_bound(corpus):
    t0 = time.perf_counter()
    ok = True
    for p in corpus:
        ps = power_sums(p, 3)
        lam = ps.lam
        value = d2_exact_product(p, spec_phi2(p)).value
        rhs1 = (4.0 / 3.0 * ps[3] + ps[2] ** 2) * math.exp(2 * lam)
        rhs2 = (4.0 / 3.0 + lam) * math.exp(2 * lam) * ps[3]
        ok &= le_rel(value, rhs1) and le_rel(rhs1, rhs2)
        if not ok:
            break
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 30.0
    report(3, "order-2 distance bound on 1000-vector corpus", ok)


def test_criterion_04_order3_distance_bound(corpus):
    t0 = time.perf_counter()
    ok = True
    for p in corpus:
        ps = power_sums(p, 4)
        lam = ps.lam
        value = d2_exact_product(p, spec_phi3(p)).value
        rhs = 2.0 / 3.0 * (lam**2 + 4 * lam + 3) * math.exp(2 * lam) * ps[4]
        ok &= le_rel(value, rhs)
        if not ok:
            break
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 30.0
    report(4, "order-3 distance bound on 1000-vector corpus", ok)


def test_criterion_05_moment_sandwich(corpus):
    ok = True
    for p in corpus:
        ps = power_sums(p, 5)
        mu = factorial_moments_sn(p, 20)
        for m in range(1, 21):
            lower, upper = sandwich_sides(ps, m)
            refined = refined_lower(ps, m)
            value = mu(m)
            ok &= le_rel(lower, value) and le_rel(value, upper) and le_rel(refined, value)
            if m <= 2:
                ok &= eq_rel(lower, value, 1e-12)
            if m <= 3:
                ok &= eq_rel(upper, value, 1e-12)
            if m <= 4:
                ok &= eq_rel(refined, value, 1e-12)
        _, upper4 = sandwich_sides(ps, 4)
        gap4 = upper4 - mu(4)
        want4 = 6.0 * ps[4]
        ok &= abs(gap4 - want4) <= 1e-10 * max(abs(want4), 1e-300)
        gap5 = mu(5) - refined_lower(ps, 5)
        want5 = 4.0 * (6 * ps[5] + 5 * ps.lam * ps[4] - 5 * ps[2] * ps[3])
        ok &= abs(gap5 - want5) <= 1e-10 * max(abs(want5), 1e-300)
        if not ok:
            break
    report(5, "two-sided moment sandwich and gap identities", ok)


def test_criterion_06_theta_positivity():
    rng = np.random.default_rng(6)
    ok = True
    for _ in range(5000):
        n = int(rng.integers(1, 11))
        p = ProbVector(tuple(rng.uniform(0.0, 1.0, n).tolist()))
        if p.n == 0:
            continue
        ps = power_sums(p, 12)
        m = int(rng.integers(0, 9))
        j = int(rng.integers(0, m + 1))
        s = int(rng.integers(1, 5))
        ok &= theta(j, m, s, ps) >= -1e-12
        if not ok:
            break
    report(6, "theta positivity on 5000 seeded tuples", ok)


def test_criterion_07_exact_product_vs_series(corpus):
    ok = True
    worst = 0.0
    for p in corpus:
        mu_sn = factorial_moments_sn(p)
        for spec in (spec_poisson(p.lam), spec_phi2(p), spec_phi3(p)):
            try:
                certify_domination(p, spec)
            except ValueError:
                ok = False
                break
            exact = d2_exact_product(p, spec)
            series = d2(mu_sn, spec.moments())
            ok &= exact.method == "exact-product"
            denom = max(exact.value, series.value, 1e-300)
            rel = abs(exact.value - series.value) / denom
            worst = max(worst, rel)
            ok &= rel <= 1e-11
        if not ok:
            break
    print(f"[acceptance]   worst exact-vs-series relative gap: {worst:.3e}")
    report(7, "closed product formula agrees with moment series", ok)


def test_criterion_08_rate_slopes():
    t0 = time.perf_counter()
    ok = True
    for lam in (0.5, 1.0):
        fits = fit_rate(lam, [1, 2, 3, 4], [8, 16, 32, 64, 128], metric="d2")
        for fit in fits:
            ok &= abs(fit.slope - (-fit.order)) <= 0.2
            ok &= fit.r_squared >= 0.98
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60.0
    report(8, "convergence exponents -1..-4 on the equal-probability grid", ok)


def test_criterion_09_simplified_order3_shortfall():
    lam, n = 1.0, 10_000
    fn0 = (1 - lam / n) ** n
    phi0 = math.exp(-lam) * (1 - lam**2 / (2 * n) - lam**3 / (3 * n**2))
    scaled = n**2 * (fn0 - phi0)
    limit = math.exp(-lam) * lam**4 / 8
    ok = abs(scaled - limit) <= 0.05 * limit
    # the simplified variant stalls at exponent -2 (a larger grid than the
    # criterion-8 one is needed before the n^-2 asymptote dominates)
    fits = fit_rate(1.0, ["3t"], [32, 64, 128, 256, 512], metric="d2")
    slope = fits[0].slope
    ok &= abs(slope - (-2.0)) <= 0.2
    ok &= abs(slope - (-3.0)) > 0.2
    report(9, "simplified order-3 correction stalls at n^-2", ok)


def test_criterion_10_metric_chain(corpus, corpus_wide):
    ok = True
    for p in corpus:
        mu_sn = factorial_moments_sn(p)
        fn = poisson_binomial_pmf(p)
        lam = p.lam
        for spec in (spec_poisson(lam), spec_phi2(p), spec_phi3(p)):
            phi = build_phi_nu(spec)
            lhs = tv(fn, phi.pmf)
            rhs = d2(mu_sn, spec.moments())
            ok &= le_rel(lhs.value, rhs.value + lhs.truncation_error + rhs.truncation_error)
        pois = build_phi_nu(spec_poisson(lam)).pmf
        dw = wasserstein(fn, pois)
        dt = d2_tilde(mu_sn, spec_poisson(lam).moments())
        l2 = power_sums(p, 2)[2]
        ok &= le_rel(dw.value, dt.value + dw.truncation_error)
        ok &= le_rel(dt.value, 2 * (1 + lam) * math.exp(2 * lam) * l2)
        if not ok:
            break
    for p in corpus_wide:
        if any(x >= 1.0 for x in p.probs):
            continue
        fn = poisson_binomial_pmf(p)
        pois = build_phi_nu(spec_poisson(p.lam)).pmf
        dh = hellinger(fn, pois).value
        dtv = tv(fn, pois).value
        rhs = math.fsum(x**3 / (1 - x) for x in p.probs) / p.lam
        ok &= le_rel(dh**2, rhs)
        ok &= le_rel(dtv, dh * math.sqrt(2 - dh**2) + 1e-12)
        if not ok:
            break
    report(10, "tv <= d2, Wasserstein and Hellinger chains", ok)


def test_criterion_11_oracles_and_inversion():
    ok = True
    # exhaustive outcome enumeration for n <= 3
    for probs in [(0.35,), (0.2, 0.65), (0.1, 0.2, 0.3), (0.9, 0.01, 0.5)]:
        got = poisson_binomial_pmf(ProbVector(probs)).mass
        want = enumerated_pmf(probs)
        ok &= bool(np.max(np.abs(got - np.array(want))) <= 1e-14)
        mu = factorial_moments_sn(ProbVector(probs))
        for m in range(len(probs) + 2):
            want_m = enumerated_factorial_moment(probs, m)
            ok &= abs(mu(m) - want_m) <= 1e-14 * max(1.0, abs(want_m))
    # moment inversion round-trips every measure family
    p = ProbVector((0.1, 0.2, 0.3))
    pairs = [
        (factorial_moments_sn(p), poisson_binomial_pmf(p).mass),
    ]
    for spec_of in (spec_phi2, spec_phi3, spec_phi3_tilde):
        measure = build_phi_nu(spec_of(p), kmax=35)
        pairs.append((measure.moments, measure.pmf.mass))
    pois = build_phi_nu(spec_poisson(p.lam), kmax=35)
    pairs.append((pois.moments, pois.pmf.mass))
    for moments, mass in pairs:
        inv = invert_moments(moments, kmax=len(mass) - 1)
        ok &= bool(np.max(np.abs(inv.mass - mass)) <= 1e-9)
    report(11, "enumeration oracles and moment-inversion round-trips", ok)


def test_criterion_12_distance_constant_cross_check():
    ok = True
    for nu in range(1, 6):
        for lam in (0.5, 1.0, 2.0):
            closed = c_constant(nu, lam)
            series, _ = c_constant_series(nu, lam)
            ok &= abs(closed - series) <= 1e-10 * abs(closed)
    report(12, "closed-form distance constants match their series", ok)
