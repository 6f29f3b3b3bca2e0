"""Distances between finitely supported (possibly signed) mass functions.

Pointwise metrics (total variation, Hellinger, Wasserstein, weighted L1)
work directly on truncated mass vectors and report the truncation honestly.
The factorial-moment distances

    d2      = (1/2) sum_m 2^m / m!       |mu_m(g1) - mu_m(g2)|
    d2tilde =       sum_m 2^(m-1)/(m-1)! |mu_m(g1) - mu_m(g2)|

are stronger than total variation (d_tv <= d2) and are sums over stored
weighted moments 2^m mu_m / m! with proven tail bounds.  When one moment
sequence dominates the other at every order, d2 against a corrected measure
collapses to the closed form

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


def _aligned(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two arrays zero-padded to a common length."""
    k = max(x.size, y.size)
    a = np.zeros(k)
    b = np.zeros(k)
    a[: x.size] = x
    b[: y.size] = y
    return a, b


def tv(g1: SignedPmf, g2: SignedPmf) -> DistanceResult:
    """Total variation distance, half the pointwise L1 difference."""
    a, b = _aligned(g1.mass, g2.mass)
    value = 0.5 * math.fsum(np.abs(a - b).tolist())
    return DistanceResult(value, 0.5 * (g1.tail_bound + g2.tail_bound), "pointwise")


def hellinger(g1: SignedPmf, g2: SignedPmf) -> DistanceResult:
    """Hellinger distance; defined only for proper (nonnegative) inputs."""
    if not g1.is_proper or not g2.is_proper:
        raise ValueError("Hellinger distance is undefined for signed measures")
    a, b = _aligned(g1.mass, g2.mass)
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
    a, b = _aligned(g1.mass, g2.mass)
    ta = np.cumsum(a[::-1])[::-1]
    tb = np.cumsum(b[::-1])[::-1]
    value = math.fsum(np.abs(ta[1:] - tb[1:]).tolist())
    per = g1.tail_bound + g2.tail_bound
    return DistanceResult(value, (a.size + 2) * per, "pointwise")


def weighted_l1(h: Callable[[int], float], g1: SignedPmf, g2: SignedPmf) -> DistanceResult:
    """sum_k h(k) |g1(k) - g2(k)| for a nonnegative weight h."""
    a, b = _aligned(g1.mass, g2.mass)
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


def _moment_distance(m1: FactorialMoments, m2: FactorialMoments, tilde: bool) -> DistanceResult:
    """(1/2) sum_m |w1_m - w2_m|, times m for d2tilde, over the weighted
    moments w_m = 2^m mu_m / m! with the shorter array zero-padded.

    Each omitted term is bounded by its sequence's tail, sum_{m>M} m |w_m|,
    so half the sum of the two tails bounds the truncation.
    """
    a, b = _aligned(m1.weighted, m2.weighted)
    gap = np.abs(a - b)
    if tilde:
        gap *= np.arange(gap.size)
    tail = 0.5 * (m1.tail + m2.tail)
    note = "" if math.isfinite(tail) else "moment tail unbounded: a sequence was cut short"
    return DistanceResult(0.5 * math.fsum(gap.tolist()), tail, "moment-series", note)


def d2(m1: FactorialMoments, m2: FactorialMoments) -> DistanceResult:
    """Order-two factorial moment distance from two moment sequences."""
    return _moment_distance(m1, m2, tilde=False)


def d2_tilde(m1: FactorialMoments, m2: FactorialMoments) -> DistanceResult:
    """The (m-1)!-weighted variant dominating the Wasserstein distance."""
    return _moment_distance(m1, m2, tilde=True)


def certify_domination(p: ProbVector, spec: CorrectionSpec) -> int:
    """Check that mu_m(S_n) - mu_m(spec) keeps one sign for m = 1..M.

    M is the last order the spec's moments store.  Returns +1 (S_n
    dominates), -1 (the corrected measure dominates) or 0 (all differences
    vanish).  Weighted differences within 1e-12 max(|w1_m|, |w2_m|, 2^m/m!)
    count as zero, since domination is a weak inequality.  A genuine sign
    change raises ValueError.
    """
    phi = spec.moments().weighted
    sn, phi = _aligned(factorial_moments_sn(p, phi.size - 1).weighted, phi)
    diff = sn - phi
    unit = np.cumprod(np.concatenate(([1.0], 2.0 / np.arange(1.0, phi.size))))
    tol = 1e-12 * np.maximum.reduce([np.abs(sn), np.abs(phi), unit])
    signs = np.sign(diff) * (np.abs(diff) > tol)
    seen = signs[signs != 0]
    if seen.size == 0:
        return 0
    flips = np.flatnonzero(signs == -seen[0])
    if flips.size:
        raise ValueError(f"moment domination fails: sign change at order {flips[0]}")
    return int(seen[0])


def d2_exact_product(p: ProbVector, spec: CorrectionSpec) -> DistanceResult:
    """Closed-form d2 between S_n and a corrected measure.

    Valid only under one-sided moment domination, which is verified first
    over the spec's stored moments; on a sign change the closed form is
    refused and the moment series is returned instead, with a diagnostic
    note and a warning.  The closed form itself is evaluated with 50
    significant digits, so its truncation error is zero at binary64
    resolution.
    """
    try:
        certify_domination(p, spec)
    except ValueError as exc:
        warnings.warn(f"exact product refused: {exc}", stacklevel=2)
        fallback = d2(factorial_moments_sn(p), spec.moments())
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
