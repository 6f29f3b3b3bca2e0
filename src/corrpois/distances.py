"""Distances between finitely supported (possibly signed) mass functions.

Pointwise metrics (total variation, Hellinger, Wasserstein, weighted L1)
work directly on truncated mass vectors and report the truncation honestly.
The factorial-moment distances

    d2      = (1/2) sum_m 2^m / m!       |mu_m(g1) - mu_m(g2)|
    d2tilde =       sum_m 2^(m-1)/(m-1)! |mu_m(g1) - mu_m(g2)|

are stronger than total variation (d_tv <= d2) and are evaluated from moment
sequences with a certified geometric cutoff.  When one moment sequence
dominates the other at every order, d2 against a corrected measure collapses
to the closed form

    (1/2) | prod_i (1 + 2 p_i) - e^(2 lam) (1 - sum_j gamma_j (2 lam)^j) |,

which this module evaluates in 50-digit arithmetic: the two products agree
to many leading digits when the distance is small, so binary64 would wash
out the difference long before the comparison tolerances bite.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from decimal import Context, Decimal, localcontext
from typing import Callable

import numpy as np

from .corrected import CorrectionSpec
from .pmf import FactorialMoments, ProbVector, SignedPmf, factorial_moments_sn

__all__ = [
    "DistanceResult",
    "tv",
    "d2",
    "d2_tilde",
    "d2_exact_product",
    "certify_domination",
    "wasserstein",
    "hellinger",
    "weighted_l1",
]

_PRODUCT_DIGITS = 50


@dataclass(frozen=True)
class DistanceResult:
    """A distance value plus a rigorous bound on what truncation discarded."""

    value: float
    truncation_error: float
    method: str  # pointwise | moment-series | exact-product
    note: str = ""


def _aligned(g1: SignedPmf, g2: SignedPmf) -> tuple[np.ndarray, np.ndarray]:
    k = max(g1.mass.size, g2.mass.size)
    a = np.zeros(k)
    b = np.zeros(k)
    a[: g1.mass.size] = g1.mass
    b[: g2.mass.size] = g2.mass
    return a, b


def tv(g1: SignedPmf, g2: SignedPmf) -> DistanceResult:
    """Total variation distance, half the pointwise L1 difference."""
    a, b = _aligned(g1, g2)
    value = 0.5 * math.fsum(np.abs(a - b).tolist())
    return DistanceResult(value, 0.5 * (g1.tail_bound + g2.tail_bound), "pointwise")


def hellinger(g1: SignedPmf, g2: SignedPmf) -> DistanceResult:
    """Hellinger distance; defined only for proper (nonnegative) inputs."""
    if not g1.is_proper or not g2.is_proper:
        raise ValueError("Hellinger distance is undefined for signed measures")
    a, b = _aligned(g1, g2)
    sq = 0.5 * math.fsum(((np.sqrt(a) - np.sqrt(b)) ** 2).tolist())
    # Discarded tail contributes at most half the missing mass of each input.
    return DistanceResult(math.sqrt(sq), 0.5 * (g1.tail_bound + g2.tail_bound), "pointwise")


def wasserstein(g1: SignedPmf, g2: SignedPmf) -> DistanceResult:
    """Transportation distance as the L1 gap of the tail functions.

    sum_{m>=1} |T1(m) - T2(m)| with T(m) = sum_{k>=m} g(k), computed by
    reverse cumulative sums over the joint support.  Each retained tail is
    off by at most the input's tail bound, and beyond the support the tails
    themselves are bounded by it, whence the recorded truncation error.
    """
    a, b = _aligned(g1, g2)
    ta = np.cumsum(a[::-1])[::-1]
    tb = np.cumsum(b[::-1])[::-1]
    value = math.fsum(np.abs(ta[1:] - tb[1:]).tolist())
    per = g1.tail_bound + g2.tail_bound
    return DistanceResult(value, (a.size + 2) * per, "pointwise")


def weighted_l1(h: Callable[[int], float], g1: SignedPmf, g2: SignedPmf) -> DistanceResult:
    """sum_k h(k) |g1(k) - g2(k)| for a nonnegative weight h."""
    a, b = _aligned(g1, g2)
    weights = []
    for k in range(a.size):
        hk = h(k)
        if hk < 0:
            raise ValueError(f"weight must be nonnegative, got h({k}) = {hk}")
        weights.append(hk)
    value = math.fsum(w * abs(x - y) for w, x, y in zip(weights, a, b))
    wmax = max(weights) if weights else 0.0
    return DistanceResult(value, wmax * (g1.tail_bound + g2.tail_bound), "pointwise",
                          note="truncation bound uses the max retained weight")


def _moment_series(m1: FactorialMoments, m2: FactorialMoments, mmax: int | None,
                   half: bool) -> DistanceResult:
    """Shared engine for d2 (half=True) and d2tilde (half=False).

    Terms are w_m |mu_m(g1) - mu_m(g2)| with w_m = 2^m/m! resp.
    2^(m-1)/(m-1)!.  Summation starts no earlier than the natural series
    length of either input and max(8 lam, 8) + 2 deg, then continues until
    three consecutive terms at least halve and the current term has fallen
    below 1e-16 of the running sum; past that point the sequence is
    dominated by a geometric series of ratio 1/2, so twice the largest of
    the last terms bounds the tail.  If the cap mmax arrives first the
    truncation error is reported as unbounded (inf).
    """
    lam_eff = max(abs(m1(1)), abs(m2(1)), 1.0)
    deg = max(m1.degree, m2.degree)
    start = max(m1.mmax_hint, m2.mmax_hint, math.ceil(8.0 * lam_eff) + 2 * deg, 8)
    cap = mmax if mmax is not None else max(4 * start, 400)
    total = 0.0
    w = 1.0
    sub_half = 0
    window: list[float] = [0.0, 0.0, 0.0]
    m = 0
    certified = False
    while m < cap:
        m += 1
        if half:
            w *= 2.0 / m  # 2^m / m!
        else:
            w = 1.0 if m == 1 else w * 2.0 / (m - 1)  # 2^(m-1) / (m-1)!
        term = w * abs(m1(m) - m2(m))
        if not math.isfinite(term):
            return DistanceResult(math.inf, math.inf, "moment-series",
                                  note="series overflowed before certification")
        total += term
        prev = window[-1]
        window = window[1:] + [term]
        sub_half = sub_half + 1 if term <= 0.5 * prev or term == 0.0 else 0
        if (m >= start and m >= 4.0 * lam_eff + deg and sub_half >= 3
                and term <= 1e-16 * total):
            certified = True
            break
    scale = 0.5 if half else 1.0
    if not certified:
        return DistanceResult(scale * total, math.inf, "moment-series",
                              note=f"tail not certified within mmax = {cap}")
    return DistanceResult(scale * total, scale * 2.0 * max(window), "moment-series")


def d2(m1: FactorialMoments, m2: FactorialMoments, mmax: int | None = None) -> DistanceResult:
    """Order-two factorial moment distance from two moment sequences."""
    return _moment_series(m1, m2, mmax, half=True)


def d2_tilde(m1: FactorialMoments, m2: FactorialMoments,
             mmax: int | None = None) -> DistanceResult:
    """The (m-1)!-weighted variant dominating the Wasserstein distance."""
    return _moment_series(m1, m2, mmax, half=False)


def certify_domination(p: ProbVector, spec: CorrectionSpec,
                       mmax: int | None = None) -> int:
    """Check that mu_m(S_n) - mu_m(spec) keeps one sign for m = 1..horizon.

    Returns +1 (S_n dominates), -1 (the corrected measure dominates) or 0
    (all differences vanish).  Differences within 1e-12 of the working scale
    count as zero, since domination is a weak inequality.  A genuine sign
    change raises ValueError.
    """
    lam = p.lam
    horizon = mmax if mmax is not None else max(p.n, math.ceil(8.0 * lam) + 2 * spec.degree, 40)
    mu_sn = factorial_moments_sn(p, min(horizon, p.n))
    mu_phi = spec.moments()
    seen = 0
    for m in range(1, horizon + 1):
        a, b = mu_sn(m), mu_phi(m)
        diff = a - b
        tol = 1e-12 * max(abs(a), abs(b), 1.0)
        sign = 0 if abs(diff) <= tol else (1 if diff > 0 else -1)
        if sign and seen and sign != seen:
            raise ValueError(f"moment domination fails: sign change at order {m}")
        seen = seen or sign
    return seen


def d2_exact_product(p: ProbVector, spec: CorrectionSpec,
                     mmax: int | None = None) -> DistanceResult:
    """Closed-form d2 between S_n and a corrected measure.

    Valid only under one-sided moment domination, which is verified up to
    the series horizon first; on a sign change the closed form is refused
    and the moment series is returned instead, with a diagnostic note and a
    warning.  The closed form itself is evaluated with 50 significant
    digits, so its truncation error is zero at binary64 resolution.
    """
    try:
        certify_domination(p, spec, mmax)
    except ValueError as exc:
        warnings.warn(f"exact product refused: {exc}", stacklevel=2)
        fallback = d2(factorial_moments_sn(p), spec.moments(), mmax)
        return DistanceResult(fallback.value, fallback.truncation_error,
                              "moment-series", note=str(exc))
    with localcontext(Context(prec=_PRODUCT_DIGITS)):
        prod = Decimal(1)
        for x in p.probs:
            prod *= 1 + 2 * Decimal(x)
        lam2 = 2 * Decimal(spec.lam)
        corr = Decimal(1)
        for j, g in sorted(spec.gamma.items()):
            corr -= Decimal(g) * lam2**j
        value = abs(prod - lam2.exp() * corr) / 2
        return DistanceResult(float(value), 0.0, "exact-product")
