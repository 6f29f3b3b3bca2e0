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

    (1/2) | prod_i (1 + 2 p_i) - e^(2 lam) (1 - sum_j gamma_j (2 lam)^j) |.

Both terms agree to many leading digits when the distance is small, so
``d2_exact_product`` never forms their difference.  With prod_i (1 + 2 p_i)
= e^(2 lam) exp(S), S = sum_i (log1p(2 p_i) - 2 p_i), the closed form is
(1/2) e^(2 lam) |R|, R = expm1(S) + sum_j gamma_j (2 lam)^j, computed in
binary64; for a moment-matched spec R is the graded remainder of exp(L(2))
(see ``corrected``), summed directly where expm1 would cancel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .corrected import CorrectionSpec, _spec_from_power_sums
from .pmf import (FactorialMoments, ProbVector, SignedPmf, _power_sum_values,
                  factorial_moments_sn, power_sums)

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

_U = 2.0**-53  # unit roundoff
_TINY = 2.0**-1074  # the most an underflowing operation loses
_MAX_WEIGHT = 128  # longest graded sum tried


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
    """Closed-form d2 between S_n and a corrected measure, in binary64.

    Valid only under one-sided moment domination, which is verified first
    over the spec's stored moments; on a sign change the moment series is
    returned instead, with method "moment-series" and the reason in
    ``note``.  Otherwise the value is (1/2) e^(2 lam) |R| (module
    docstring).  A spec equal to ``spec_for_order(p, spec.nu)`` is
    moment-matched: its gamma are not used, R = exp(L(2)) - sum_{w<nu} E_w(2)
    with the E_w from the power sums, and the value is the distance to the
    measure with exact coefficients.  Other specs use their gamma as given.
    R is taken one of two ways:

    * expm1: R = expm1(S) - sum_{1<=w<nu} E_w(2), or expm1(S) +
      sum_j gamma_j (2 lam)^j for other specs, with S the fsum of the
      log1p(2 p_i) and the -2 p_i (or -2 lam).  This is the default.
    * graded: R = sum_{nu<=w<=W} E_w(2), up to a tail below T_W (below).
      Tried only for a moment-matched spec with 2 max p < 1 whose expm1
      bound exceeds 64 u |R|, and only if T_128 is below that bound.  W is
      the first weight from 2 nu + 8 on (at most 128) whose tail is below
      the rounding bound, and the graded value is kept if its bound is the
      smaller.  So the route follows the input's own bounds: at p = 1/4 and
      lam = 100 expm1 is within about 1e-16 and the graded sum is not tried.

    ``truncation_error`` is the tail plus a rounding bound.  With u = 2^-53,
    t = 2^-1074 (what an underflowing operation may lose), log1p, expm1,
    exp and pow within an ulp, and every fsum correctly rounded:

    * The parts.  With a_k = k L_k(2) = (-1)^k k 2^(k+1) lambda_(k+1) / (k+1),
      w E_w = sum_k a_k E_(w-k), and A_w, the same with |a_k|, is the
      weight-w part of exp(sum_i h(2 p_i z) / z), h(y) = -log(1 - y) - y,
      whose coefficients are all positive; so |E_w| <= A_w.  Each a_k is
      computed within 5u (3u from the power sum), and step w adds a dot
      product of w terms, in any order within g_w = w u / (1 - w u) of the
      sum of their absolute values, and a division.  By induction the
      computed E_w are within g_m A_w, m = w (w + 13) / 2, and the computed
      A_w as close to A_w.
    * Underflow.  A power sum may lose (n + 1) t, so a_k up to
      2^(k+1) (n + 2) t, and step w up to (w + 2) t.  A unit error at weight
      v grows to at most A_(w-v) at weight w, so over weights up to W these
      add at most (n + 2)(W + 2) 2^(W+3) A^2 t, A = sum_{w<=W} A_w.  The
      term also covers the n t-sized underflows of S and the last products.
    * The tail.  For 1 < r < 1/(2 max p), positivity gives A_w r^w <=
      exp(sum_i h(2 p_i r) / r) <= exp(2 r lambda_2 / (1 - 2 r max p)) =: M,
      since h(y) <= y^2 / (2 (1 - y)), so sum_{w>W} |E_w(2)| <= T_W =
      M r^-(W+1) / (1 - 1/r), with r minimising log M - (W + 1) log r.
    * expm1.  Since sum_i log1p(2 p_i) <= 2 lam, |S' - S| <= e_S =
      4 u lam + u |S'| + (n + 1) t for the computed S'.  The mean value
      theorem and expm1 add e^(S' + e_S) e_S + 2 u |expm1(S')|, each
      gamma_j (2 lam)^j is within 3u, and the last fsum adds u |R|.
    * The value.  exp and two products cost 4u, and a moment-matched spec's
      lam = fsum(p) is within u lam of the exact mean, costing 2 lam u; so
      (2 lam + 5) u of the value joins (1/2) e^(2 lam) times the bound on R.
      Dividing by 1 - (W + 8)^2 u covers the second-order terms and the
      rounding of the bounds themselves (W = nu - 1 on the expm1 route).
    """
    try:
        certify_domination(p, spec)
    except ValueError as exc:
        fallback = d2(factorial_moments_sn(p), spec.moments())
        return DistanceResult(fallback.value, fallback.truncation_error,
                              "moment-series", note=str(exc))
    lam, nu, n, u = spec.lam, spec.nu, p.n, _U
    lams = power_sums(p, min(nu, 8)).values  # the graded route extends, never recomputes
    try:
        matched = nu <= 8 and spec == _spec_from_power_sums(lams, nu)
    except ValueError:
        matched = False
    shift = [-2.0 * x for x in p.probs] if matched else [-2.0 * lam]
    s = math.fsum([math.log1p(2.0 * x) for x in p.probs] + shift)
    err_s = 4.0 * u * p.lam + u * abs(s) + (n + 1) * _TINY
    x = math.expm1(s)
    bound = math.exp(s + err_s) * err_s + 2.0 * u * abs(x)
    if matched:
        top = nu - 1
        parts, majorant = _graded_parts(lams, top)
        rem = math.fsum([x] + [-e for e in parts[1:]])
        bound += _recurrence_error(n, majorant, 1)
    else:
        top = 0
        terms = [g * (2.0 * lam) ** j for j, g in spec.gamma.items()]
        rem = math.fsum([x] + terms)
        # no parts: _recurrence_error with W = 0 is the underflow term alone
        bound += 3.0 * u * math.fsum(abs(c) for c in terms) + _recurrence_error(n, [1.0], 1)
    bound += u * abs(rem)
    if matched and bound > 64.0 * u * abs(rem) and max(p.probs) < 0.5:
        graded = _graded_remainder(p, lams, nu, bound)
        if graded[1] < bound:
            rem, bound, top = graded
    value = 0.5 * math.exp(2.0 * lam) * abs(rem)
    err = (0.5 * math.exp(2.0 * lam) * bound + (2.0 * lam + 5.0) * u * value) \
        / (1.0 - (top + 8) ** 2 * u)
    return DistanceResult(value, err, "exact-product")


def _graded_parts(lams: tuple[float, ...], top: int) -> tuple[list[float], list[float]]:
    """E_w(2) and its majorant A_w for w = 0..top (``d2_exact_product``), by
    the recurrence of ``gamma_from_power_sums`` run on scalars, from the
    power sums lams[j - 1] = lambda_j, j = 1..top + 1."""
    a = np.array([(-1) ** k * (k * 2.0 ** (k + 1) / (k + 1)) * lams[k]
                  for k in range(1, top + 1)])
    parts, majorant = np.ones(top + 1), np.ones(top + 1)
    for w in range(1, top + 1):
        parts[w] = np.dot(a[:w], parts[w - 1::-1]) / w
        majorant[w] = np.dot(np.abs(a[:w]), majorant[w - 1::-1]) / w
    return parts.tolist(), majorant.tolist()


def _recurrence_error(n: int, majorant: list[float], first: int) -> float:
    """Rounding and underflow bound on the computed sum of E_w(2) over
    first <= w <= W, W = len(majorant) - 1 (``d2_exact_product``)."""
    top = len(majorant) - 1
    return (_U * math.fsum(w * (w + 13) / 2 * majorant[w] for w in range(first, top + 1))
            + (n + 2) * (top + 2) * 2.0 ** (top + 3) * math.fsum(majorant) ** 2 * _TINY)


def _cauchy_tail(q: float, l2: float, top: int) -> float:
    """T_top of ``d2_exact_product`` for q = 2 max p and lambda_2 <= l2, or
    inf when no radius r > 1 serves.  The minimising r solves
    (top + 1) q s^2 + 2 l2 s = 2 l2 with s = 1 - q r; s is kept above 1/64
    so that q r rounds below 1 (log M = (top + 1) s is tiny there anyway)."""
    k = (top + 1) * q
    r = (1.0 - max((math.sqrt(l2 * l2 + 2.0 * l2 * k) - l2) / k, 2.0**-6)) / q
    s = 1.0 - q * r
    if not (r > 1.0 and s > 0.0):
        return math.inf
    return math.exp(2.0 * r * l2 / s) * r ** -(top + 1) / (1.0 - 1.0 / r)


def _graded_remainder(p: ProbVector, lams: tuple[float, ...], nu: int,
                      target: float) -> tuple[float, float, int]:
    """(R, its bound, W) by the graded sum, or a bound of at least
    ``target`` as soon as it cannot beat it.  W is the first weight from
    2 nu + 8 on whose tail is below the rounding bound; a first pass at
    2 nu + 8 gives that bound, from which the next W is read off the tail.
    ``lams`` holds the power sums computed so far; each pass adds only the
    ones it lacks."""
    q = 2.0 * max(p.probs)
    lams += _power_sum_values(p, len(lams) + 1, 2)
    l2 = lams[1] * (1.0 + 4.0 * _U) + (p.n + 1) * _TINY
    if not _cauchy_tail(q, l2, _MAX_WEIGHT) < target:
        return 0.0, math.inf, 0
    top = 2 * nu + 8
    while True:
        lams += _power_sum_values(p, len(lams) + 1, top + 1)
        parts, majorant = _graded_parts(lams, top)
        rem = math.fsum(parts[nu:])
        rounding = _U * abs(rem) + _recurrence_error(p.n, majorant, nu)
        tail = _cauchy_tail(q, l2, top)
        if tail <= rounding or top == _MAX_WEIGHT or rounding >= target:
            return rem, tail + rounding, top
        top = next((w for w in range(top + 1, _MAX_WEIGHT)
                    if _cauchy_tail(q, l2, w) <= rounding), _MAX_WEIGHT)
