"""Distances between finitely supported (possibly signed) mass functions,
and between S_n and a corrected measure.

Pointwise metrics (total variation, Hellinger, Wasserstein) work directly on
truncated mass vectors and report the truncation honestly.
The factorial-moment distances

    d2      = (1/2) sum_m 2^m / m!       |mu_m(g1) - mu_m(g2)|
    d2tilde =       sum_m 2^(m-1)/(m-1)! |mu_m(g1) - mu_m(g2)|

are stronger than total variation (d_tv <= d2) and are sums over stored
weighted moments 2^m mu_m / m! with proven tail bounds.

Between S_n and the measure of a spec whose mean is lam = fsum(p), the
generating functions differ by

    prod_i (1 + p_i t) - e^(lam t) c(t) = e^(lam t) kappa(t),

kappa = sum_{w >= nu} E_w + (T_nu - c), with E_w the weight-w part of
exp(L) and T_nu = sum_{w < nu} E_w (``corrected``; a moment-matched spec has
c = T_nu).  At t = x - 1 this gives the mass differences Delta = pi_lam *
(coefficients of kappa(x - 1)), and at t = 2s the weighted moment
differences D = a * (2^j kappa_j), a_m = (2 lam)^m / m! = e^(2 lam)
pi_(2 lam)(m): a Poisson pmf convolved with a short kernel.  ``sn_distance``
reads tv = (1/2) sum |Delta|, wass = sum_{m>=1} |sum_{k>=m} Delta_k|, d2 =
(1/2) sum |D| and d2tilde = (1/2) sum m |D_m| off them, and
``certify_domination`` the signs of D.  Where all those signs agree, d2 is
the closed form (1/2) |prod_i (1 + 2 p_i) - e^(2 lam) c(2)|.  Each array is
built directly or from the kernel, whichever has the smaller proven error
(``_difference``).
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
import numpy as np

from .corrected import (MAX_ORDER, CorrectionSpec, _log_coefficients, _matched, _measure,
                        _poisson_convolution, _series_powers, _weight_sum)
from .pmf import FactorialMoments, ProbVector, SignedPmf, _product_error, _sn

__all__ = [
    "DistanceResult",
    "tv",
    "d2",
    "d2_tilde",
    "d2_exact_product",
    "sn_distance",
    "certify_domination",
    "wasserstein",
    "hellinger",
]

_U = 2.0**-53  # unit roundoff
_TINY = 2.0**-1074  # the most an underflowing operation loses
_MAX_WEIGHT = 128  # longest graded sum tried
_SLACK = 1.0 + 2.0**-40  # covers the rounding of the error bounds themselves
_LOG_MAX = math.log(sys.float_info.max)


@dataclass(frozen=True)
class DistanceResult:
    """A distance value and ``truncation_error``, a bound on its gap to the
    distance between the exact laws.  ``tv`` and ``hellinger`` read it off
    the inputs' ``tail_bound``s, which hold their cuts and their rounding,
    and add their own rounding.  It covers less for two other functions:
    ``wasserstein``'s omits the index-weighted mass past both supports, and
    ``d2`` and ``d2_tilde`` of two moment sequences read it off their tails,
    which hold the cuts only (``FactorialMoments`` records no rounding).
    ``sn_distance`` gives the proven error of the difference and of its
    reading; use it for S_n against a corrected measure."""

    value: float
    truncation_error: float
    method: str  # pointwise | moment-series | exact-product (d2, d2tilde of sn_distance)
    note: str = ""


def _aligned(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two arrays zero-padded to a common length."""
    k = max(x.size, y.size)
    a = np.zeros(k)
    b = np.zeros(k)
    a[: x.size] = x
    b[: y.size] = y
    return a, b


def _nonzero_aligned(g1: SignedPmf, g2: SignedPmf) -> tuple[np.ndarray, np.ndarray]:
    """The two mass arrays up to their last nonzero masses, aligned."""
    return _aligned(g1.mass[: g1._end], g2.mass[: g2._end])


def tv(g1: SignedPmf, g2: SignedPmf) -> DistanceResult:
    """Total variation distance, half the pointwise L1 difference.

    Its error is half the inputs' tail bounds plus 2u of the value: u for
    the differences, each within u of its size, and u for the fsum.  It
    reads each input up to its last nonzero mass (``SignedPmf``): the terms
    past both are |0 - 0| and add nothing to the fsum.
    """
    a, b = _nonzero_aligned(g1, g2)
    value = 0.5 * math.fsum(np.abs(a - b).tolist())
    error = 0.5 * (g1.tail_bound + g2.tail_bound) + 2.0 * _U * value
    return DistanceResult(value, error * _SLACK, "pointwise")


def hellinger(g1: SignedPmf, g2: SignedPmf) -> DistanceResult:
    """Hellinger distance; defined only for proper (nonnegative) inputs.

    H(f, g)^2 = (1/2) sum_k (sqrt f(k) - sqrt g(k))^2 <= (1/2) sum_k |f(k) -
    g(k)|, so each input lies within sqrt(tail_bound / 2) of its exact law
    (nonnegative too), and by the triangle inequality the value within the
    sum of the two.

    Its own rounding adds u (sqrt(sum a) + sqrt(sum b)) + 3u H: each
    difference of square roots d_k is within u (sqrt a_k + sqrt b_k) + u |d_k|
    of its exact value, so the l2 norm of d, times 1/sqrt(2), within
    u (sqrt(sum a) + sqrt(sum b)) / sqrt(2) + u H; the squares, the fsum and
    the square root add 3u/2 of H.  Like ``tv`` it reads each input up to
    its last nonzero mass; the terms past both are 0 in every fsum.
    """
    if not g1.is_proper or not g2.is_proper:
        raise ValueError("Hellinger distance is undefined for signed measures")
    a, b = _nonzero_aligned(g1, g2)
    value = math.sqrt(0.5 * math.fsum(((np.sqrt(a) - np.sqrt(b)) ** 2).tolist()))
    error = (math.sqrt(0.5 * g1.tail_bound) + math.sqrt(0.5 * g2.tail_bound)
             + _U * (math.sqrt(math.fsum(a.tolist())) + math.sqrt(math.fsum(b.tolist()))
                     + 3.0 * value))
    return DistanceResult(value, error * _SLACK, "pointwise")


def wasserstein(g1: SignedPmf, g2: SignedPmf) -> DistanceResult:
    """Transportation distance as the L1 gap of the tail functions.

    sum_{m>=1} |T1(m) - T2(m)| with T(m) = sum_{k>=m} g(k), computed by
    reverse cumulative sums over the joint support.  Each retained tail is
    off by at most the input's tail bound, whence the recorded truncation
    error.  It omits the terms past both supports, sum_{k>K} (k - K)|f(k)|
    for the exact laws' mass f there, which ``tail_bound`` does not bound:
    ``wasserstein(poisson_pmf(50, 0), poisson_pmf(1, 0))`` reads 0.0 +/- 4.9,
    while the distance is 49.  ``sn_distance(p, spec, "wass")`` is proven.
    """
    a, b = _aligned(g1.mass, g2.mass)
    ta = np.cumsum(a[::-1])[::-1]
    tb = np.cumsum(b[::-1])[::-1]
    value = math.fsum(np.abs(ta[1:] - tb[1:]).tolist())
    per = g1.tail_bound + g2.tail_bound
    return DistanceResult(value, (a.size + 2) * per, "pointwise")


def _moment_distance(m1: FactorialMoments, m2: FactorialMoments, tilde: bool) -> DistanceResult:
    """(1/2) sum_m |w1_m - w2_m|, times m for d2tilde, over the weighted
    moments w_m = 2^m mu_m / m! with the shorter array zero-padded.

    Each omitted term is bounded by its sequence's tail, sum_{m>M} m |w_m|,
    so half the sum of the two tails bounds the truncation, and only that:
    the rounding of the stored moments is not counted.  At
    ``equal_probs(20000, 1)``, order 8, ``d2`` reads 2.43e-16 +/- 1.1e-36
    while the proven ``sn_distance(p, spec, "d2")`` reads 7.86e-32.
    """
    a, b = _aligned(m1.weighted, m2.weighted)
    gap = np.abs(a - b)
    if tilde:
        gap *= np.arange(gap.size)
    tail = 0.5 * (m1.tail + m2.tail)
    note = "" if math.isfinite(tail) else "moment tail unbounded: a sequence was cut short"
    return DistanceResult(0.5 * math.fsum(gap.tolist()), tail, "moment-series", note)


def d2(m1: FactorialMoments, m2: FactorialMoments) -> DistanceResult:
    """Order-two factorial moment distance from two moment sequences; its
    error bounds their truncation only (``_moment_distance``), so S_n
    against a corrected measure goes through ``sn_distance``."""
    return _moment_distance(m1, m2, tilde=False)


def d2_tilde(m1: FactorialMoments, m2: FactorialMoments) -> DistanceResult:
    """The (m-1)!-weighted variant dominating the Wasserstein distance, with
    the error of ``d2``: the truncation only."""
    return _moment_distance(m1, m2, tilde=True)


def certify_domination(p: ProbVector, spec: CorrectionSpec) -> int:
    """The sign that mu_m(S_n) - mu_m(spec) keeps over the stored D (module
    docstring): +1 (S_n dominates), -1 (the corrected measure dominates) or
    0 when no entry exceeds its proven error.  Only such entries count, and
    two of opposite sign raise ValueError.  D is the array whose absolute
    sum ``d2_exact_product`` halves: repeated calls on equal inputs share
    one build (``_difference``).
    """
    diff = _difference(p, spec, True)
    signs = np.sign(diff.values) * (np.abs(diff.values) > diff.entry_error)
    seen = signs[signs != 0]
    if not seen.size:
        return 0
    flips = np.flatnonzero(signs == -seen[0])
    if flips.size:
        raise ValueError(f"moment domination fails: sign change at order {flips[0]}")
    return int(seen[0])


def d2_exact_product(p: ProbVector, spec: CorrectionSpec) -> DistanceResult:
    """d2 between S_n and a corrected measure, (1/2) sum |D| (module docstring)."""
    return sn_distance(p, spec, "d2")


def sn_distance(p: ProbVector, spec: CorrectionSpec, metric: str) -> DistanceResult:
    """tv, wass, d2 or d2tilde between S_n and the measure of ``spec``.

    Read off Delta (tv, wass; method "pointwise") or D (d2, d2tilde; method
    "exact-product") of ``_difference``.  ``truncation_error`` is half its
    error bound (the whole moment-weighted bound for wass) plus the rounding
    of the reading: u per sum and term, and for wass the reverse cumulative
    sums, each within g_K of the absolute values it adds.  Raises
    OverflowError for d2 and d2tilde when e^(2 lam) D leaves binary64.
    """
    if metric not in ("tv", "wass", "d2", "d2tilde"):
        raise ValueError(f"unknown metric: {metric!r}")
    diff = _difference(p, spec, metric in ("d2", "d2tilde"))
    size = np.abs(diff.values)
    if metric in ("tv", "d2"):
        value = 0.5 * math.fsum(size.tolist())
        err = 0.5 * diff.error + _U * value
    elif metric == "d2tilde":
        value = 0.5 * math.fsum((np.arange(size.size) * size).tolist())
        err = 0.5 * diff.moment_error + 2.0 * _U * value
    else:
        value = math.fsum(np.abs(np.cumsum(diff.values[::-1])[::-1][1:]).tolist())
        err = diff.moment_error + _U * (size.size * (np.arange(size.size) @ size) + value)
    method = "pointwise" if metric in ("tv", "wass") else "exact-product"
    return DistanceResult(value, float(err * _SLACK), method)


@dataclass(frozen=True)
class _Difference:
    """The coefficients of S_n's generating function minus a spec's.

    ``values[k]`` for k = 0..K.  ``entry_error`` bounds the error of each
    stored entry (one array, or one bound for all); ``error`` and
    ``moment_error`` bound sum_k |e_k| and sum_k k |e_k| over every k, where
    e_k is the gap to the exact difference and counts in full past K.  The
    arrays are read-only, since ``_difference`` hands one to every caller.
    """

    values: np.ndarray
    entry_error: np.ndarray | float
    error: float
    moment_error: float

    def __post_init__(self) -> None:
        for a in (self.values, self.entry_error):
            if isinstance(a, np.ndarray):
                a.flags.writeable = False


@functools.lru_cache(maxsize=4)  # a vector's D for three specs and one Delta
def _difference(p: ProbVector, spec: CorrectionSpec, moments: bool) -> _Difference:
    """Delta, or with ``moments`` D, between S_n and the spec's measure.

    Repeated calls on equal inputs share one build.  Callers pass all three
    arguments positionally: ``lru_cache`` keys a keyword apart from the same
    value passed by position.

    A spec equal to ``spec_for_order(p, spec.nu)`` (``corrected._matched``)
    is moment-matched: the difference is taken to the measure with exact
    coefficients and the exact mean sum_i p_i, not to the one with the
    stored gamma and lam = fsum(p).
    Other specs are taken as given.  Two builders serve, the direct
    difference (``_direct``) and the kernel's (``_kernel``), and the one
    with the smaller error is kept.  The kernel applies where 2 max p < 1
    and the spec is matched or has lam = fsum(p) (module docstring).  Two
    floors read off the inputs order them:

    * The direct error is at least the share of S_n's array,
      ``_product_error`` of half its sum: that sum is 1 for the pmf and
      prod_i (1 + 2 p_i) >= e^(2 lambda_1 - 2 lambda_2) for the moments,
      computed within g_K, and the half covers that and the rounding of the
      exponent.
    * ``_kernel`` gives up where its rounding bound reaches an eighth of its
      goal, and that bound is at least ``_least``, so it meets no goal at or
      below the kernel's floor, 8 times ``_least``.

    Where the kernel applies and its floor is below the direct one, it comes
    first, with that floor as its goal, and an error below the floor leaves
    S_n's arrays unbuilt.  Otherwise the direct difference comes first, and
    the kernel is built after it only where its floor is below the direct
    error.  Raises OverflowError naming e^(2 lam) when D leaves binary64.
    """
    nu, lam = spec.nu, spec.lam
    if moments and not 2.0 * lam < _LOG_MAX:
        raise OverflowError(_overflow(lam))
    lams = _sn(p).power_sums(2)
    majorant, matched = None, False  # A_w(2) for w < nu of a matched spec
    if nu <= MAX_ORDER:
        try:
            low, twin = _matched(p, nu)
        except ValueError:
            pass
        else:
            matched = spec == twin
            majorant = _majorant(low) if matched else None
    # fsum rounds sum_i p_i - fsum(p) correctly, so this bounds 2.01 |that|
    gap = 2.03 * abs(math.fsum(p.probs + (-lams[0],)))
    scale = math.exp(2.0 * lam) if moments else 1.0
    kernel, least, floor = None, math.inf, 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is checked below
        if (p.n and max(p.probs) < 0.5 and 2 * nu + 8 <= _MAX_WEIGHT
                and (matched or lam == lams[0])):
            least = _least(p, nu, scale)
            total = 0.5 * math.exp(2.0 * (lams[0] - lams[1])) if moments else 0.5
            floor = float(_product_error(total, p.n, moments, 2.0 * scale))
            if 8.0 * least < floor:
                kernel = _kernel(p, spec, moments, matched, gap, floor / scale)
        if kernel is not None and kernel.error < floor:
            diff = kernel
        else:
            diff = _direct(p, spec, moments, majorant, gap)
            if kernel is None and 8.0 * least < diff.error:
                kernel = _kernel(p, spec, moments, matched, gap, diff.error / scale)
            if kernel is not None and kernel.error < diff.error:
                diff = kernel
    if not (math.isfinite(diff.moment_error) and np.all(np.isfinite(diff.values))):
        raise OverflowError(_overflow(lam))
    return diff


def _least(p: ProbVector, nu: int, scale: float) -> float:
    """The least rounding bound the kernel can have, times the scale: at
    least u (nu (nu + 7) + 2 nu + 10) A_nu(2), its weight-nu term at W >=
    2 nu + 8, with m = nu (nu + 7) from the power sums' g_j bound
    (``_series_powers``).  A_nu(2) has the terms |c_nu| 2^(nu+1) and
    |c_1|^nu 4^nu / nu!, read off the power sums that the kernel reads."""
    lams = _sn(p).power_sums(nu + 1)
    return scale * _U * (nu * (nu + 7) + 2 * nu + 10) * max(
        2.0 ** (nu + 1) * lams[nu] / (nu + 1), (2.0 * lams[1]) ** nu / math.factorial(nu))


def _mismatch(parts: np.ndarray, spec: CorrectionSpec) -> np.ndarray:
    """The t-coefficients of T_nu - c, c = 1 - sum_j gamma_j lam^j t^j, from
    ``_series_powers`` parts of top nu - 1 or more."""
    below = _weight_sum(parts[:spec.nu, :spec.nu], 0)
    below[0] -= 1.0
    for j, g in spec.gamma.items():
        below[j] += g * spec.lam**j
    return below


def _radius_inputs(p: ProbVector) -> tuple[float, float]:
    """q = 2 max p and an upper bound on lambda_2 for ``_cauchy_tail``: the
    computed one is within g_2 lambda_2 + (1 + u) n t / 2 (``pmf._sn``), so
    lambda_2 <= l (1 + 4u) + (n + 1) t covers it with the rounding of both
    operations."""
    return 2.0 * max(p.probs), _sn(p).power_sums(2)[1] * (1.0 + 4.0 * _U) + (p.n + 1) * _TINY


def _overflow(lam: float) -> str:
    return f"e^(2 lam) times the moment differences exceeds binary64 at the mean lam = {lam!r}"


def _direct(p: ProbVector, spec: CorrectionSpec, moments: bool, majorant: np.ndarray | None,
            gap: float) -> _Difference:
    """The difference by subtraction: Delta = f - phi with f the S_n pmf and
    phi the measure's masses, or D = w - a * c with w the weighted factorial
    moments of S_n, a_m = (2 lam)^m / m! and c = ``_moment_kernel``, both
    from ``corrected._measure``; S_n's entries past the measure's cut stand.

    Errors: f and w are within ``_product_error`` of the exact law; the
    measure's array, whole past its cut, within its bounds; the subtraction
    costs u.  A matched spec adds the gap to the exact coefficients: the
    stored gamma_j lam^j, from ``gamma_from_power_sums`` and one division by
    lam^j, differ from the exact [t^j] T_nu by at most u (w (w + 7) + nu + 4)
    times the parts' majorant (``_series_powers``), so the weight-w part costs
    that times A_w(2) in the sum over t = 2s or x - 1; and the mean lam =
    fsum(p), off by delta from sum_i p_i, multiplies the measure by e^(delta
    t), costing 2.01 |delta| sum_{w < nu} A_w(2).  Both, times e^(2 lam) for
    D, join every entry's bound, and times z + 2 nu (the index they reach, z
    the Poisson mean) the moment-weighted one.
    """
    z = 2.0 * spec.lam if moments else spec.lam
    scale = math.exp(z) if moments else 1.0
    sn = _sn(p).array(moments)  # factorial_moments_sn(p).weighted or the pmf's masses
    sn_err = _product_error(sn, p.n, moments, 2.0 * scale)
    phi, tail, moment_tail = _measure(spec, moments)[:3]
    diff = np.concatenate((sn, np.zeros(max(phi.size - sn.size, 0))))
    diff[:phi.size] -= phi
    local = _U * np.abs(diff)
    local[:sn.size] += sn_err
    extra = 0.0
    if majorant is not None:  # a matched spec
        low = majorant.tolist()
        extra = scale * (_U * math.fsum((w * (w + 7) + spec.nu + 4) * a
                                        for w, a in enumerate(low) if w)
                         + gap * math.fsum(low))
    spread = tail + extra
    return _Difference(diff, local + spread, local.sum() + spread,
                       np.arange(diff.size) @ local + moment_tail + extra * (z + 2 * spec.nu))


def _kernel(p: ProbVector, spec: CorrectionSpec, moments: bool, matched: bool, gap: float,
            goal: float) -> _Difference | None:
    """The difference from kappa cut at weight W, or None where the tail alone
    cannot beat ``goal`` (the direct error or its floor, over e^(2 lam) for D):
    pi_lam * kappa(x - 1) by Horner's rule for Delta, or a * (2^j kappa_j),
    a_m = (2 lam)^m / m!, with ``moments`` for D.

    W is the first weight from 2 nu + 8 on (at most 128) whose tail is below
    the rounding bound of kappa; a first pass at 2 nu + 8 gives that bound,
    from which the next W is read off the tail.  A pass whose rounding bound
    is an eighth of the goal ends the attempt.  The power sums come from
    ``pmf._sn``, so each pass sums only the orders not summed before.
    With u = 2^-53, t = 2^-1074 and A_w(2) the weight-w part of the majorant
    at 2:

    * Rounding.  The power sum lambda_j is within g_j (``pmf._sn``: j - 1
      rounded products and one fsum), so c_k of ``_log_coefficients`` is
      within g_(k+2), and the parts are within g_m, m = w (w + 7), of the
      majorant (``_series_powers``); kappa_j sums at most W + 1 parts.  The
      coefficients of E_w(x - 1) and of E_w(2s) have absolute sums at most
      A_w(2), so the weight-w part costs u (w (w + 7) + W + 2) A_w(2), and
      T_nu - c, for a spec that is not matched, u (w (w + 7) + nu + 2) A_w(2)
      per w < nu plus 3u per |gamma_j| (2 lam)^j.  Horner's rule adds
      g_(2 len) sum_j |kappa_j| 2^j.
    * Underflow.  The power sum lambda_(k+1) may lose (1 + u) n k t / 2
      (``pmf._sn``), so c_k, divided by k + 1, at most (n + 1) t, and a
      product t; a unit error at weight v grows to at most A_(w-v) at
      weight w over at most 4^W paths, so all add at most (n + 2)(W + 2)^2
      4^(W+2) A^2 t, A = sum_{w<=W} A_w(2).
    * The tail.  For 1 < r < 1/(2 max p), positivity gives A_w(2) r^w <=
      exp(sum_i h(2 p_i r) / r) <= exp(2 r lambda_2 / (1 - 2 r max p)) =: M,
      h(y) = -log(1 - y) - y <= y^2 / (2 (1 - y)), so sum_{w>W} A_w(2) <= T_W
      and sum_{w>W} w A_w(2) <= T1_W (``_cauchy_tail``).  A part of weight w
      has degree at most 2w, so the truncation costs T_W, and z T_W + 2 T1_W
      weighted by the index (z the Poisson mean), and the rounding
      (z + 2W) times itself.
    * The mean.  A matched spec's lam = fsum(p) is off by delta from the
      exact mean; that multiplies the exact difference by e^(delta t), off
      by 2.01 |delta| (its absolute sum and its index-weighted one) from 1.
      For another spec it multiplies S_n's generating function, costing
      2.01 |delta| times e^(2 lam) and 1 + 2 lam for D, 1 and 1 + lam for
      Delta.
    * The convolution adds ``_poisson_convolution``'s bounds, and e^(2 lam)
      times the others 4u, which its factor 1 + 4u covers.
    """
    nu, n = spec.nu, p.n
    z = 2.0 * spec.lam if moments else spec.lam
    scale = math.exp(z) * (1.0 + 4.0 * _U) if moments else 1.0
    q, l2 = _radius_inputs(p)
    if not _cauchy_tail(q, l2, _MAX_WEIGHT)[0] < goal:
        return None
    top = 2 * nu + 8
    while True:
        parts = _series_powers(_log_coefficients(_sn(p).power_sums(top + 1), top), top)
        majorant = _majorant(parts)
        rounding = (_U * math.fsum((w * (w + 7) + top + 2) * majorant[w]
                                   for w in range(nu, top + 1))
                    + (n + 2) * (top + 2) ** 2 * 4.0 ** (top + 2)
                    * math.fsum(majorant) ** 2 * _TINY)
        if 8.0 * rounding >= goal:
            return None
        if _cauchy_tail(q, l2, top)[0] <= rounding or top == _MAX_WEIGHT:
            break
        low, top = top + 1, _MAX_WEIGHT  # the first weight whose tail is below the rounding
        while low < top:
            mid = (low + top) // 2
            low, top = (mid + 1, top) if _cauchy_tail(q, l2, mid)[0] > rounding else (low, mid)
    kappa = _weight_sum(parts, nu)
    if not matched:  # add T_nu - c
        below = _mismatch(parts, spec)
        kappa[:below.size] += below
        rounding += _U * (math.fsum((w * (w + 7) + nu + 2) * majorant[w] for w in range(nu))
                          + 3.0 * math.fsum(abs(g * spec.lam**j) * 2.0**j
                                            for j, g in spec.gamma.items()))
    if moments:
        kernel = np.ldexp(kappa, np.arange(kappa.size))
    else:
        kernel = _shifted(kappa)
        m = 2 * kappa.size
        rounding += m * _U / (1.0 - m * _U) * math.fsum(
            np.ldexp(np.abs(kappa), np.arange(kappa.size)).tolist())
    values, conv, moment_conv, _ = _poisson_convolution(z, kernel, moments)
    cut, moment_cut = _cauchy_tail(q, l2, top)
    error = scale * (rounding + cut) + conv
    moment_error = scale * ((z + 2 * top) * rounding + z * cut + 2.0 * moment_cut) + moment_conv
    size = math.fsum(np.abs(values).tolist())
    if matched:
        moment_size = math.fsum((np.arange(values.size) * np.abs(values)).tolist())
        error, moment_error = (error + gap * (size + error),
                               moment_error + gap * (size + moment_size + error + moment_error))
    else:
        error, moment_error = error + gap * scale, moment_error + gap * scale * (1.0 + z)
    return _Difference(values, error, error, moment_error)


def _majorant(parts: np.ndarray) -> np.ndarray:
    """A_w(2) for w = 0..top from the computed parts of ``_series_powers``.

    c_k has the sign (-1)^k, so every term of E_w, and every part, has the
    sign (-1)^w: A_w(2) = |E_w(2)| = sum_d |parts[d, w]| 2^(w+d) for the
    exact parts.  The computed ones are within g_m, m = w (w + 7), and the
    sum adds g_(top+1); the factor covers both at w = top.
    """
    top = parts.shape[0] - 1
    powers = np.ldexp(1.0, np.arange(top + 1))
    return powers @ np.abs(parts) * powers * (1.0 + 2.0 * _U * (top * (top + 8) + 3))


def _shifted(kappa: np.ndarray) -> np.ndarray:
    """The coefficients of kappa(x - 1), by Horner's rule in x - 1: within
    g_(2 len) of those of sum_j |kappa_j| (x + 1)^j."""
    out = np.zeros(kappa.size)
    for j in range(kappa.size - 1, -1, -1):
        out[1:] = out[:-1] - out[1:]
        out[0] = kappa[j] - out[0]
    return out


def _cauchy_tail(q: float, l2: float, top: int) -> tuple[float, float]:
    """(T_top, T1_top) of ``_kernel`` for q = 2 max p and lambda_2 <= l2, or
    infinities when no radius r > 1 serves: with A_w(2) <= M r^-w, T = M
    r^-(top+1) / (1 - 1/r) and T1 = T (top + 1 - top / r) / (1 - 1/r).  The
    minimising r of T solves (top + 1) q s^2 + 2 l2 s = 2 l2 with s = 1 - q r;
    s is kept above 1/64 so that q r rounds below 1 (log M = (top + 1) s is
    tiny there anyway)."""
    k = (top + 1) * q
    r = (1.0 - max((math.sqrt(l2 * l2 + 2.0 * l2 * k) - l2) / k, 2.0**-6)) / q
    s = 1.0 - q * r
    if not (r > 1.0 and s > 0.0):
        return math.inf, math.inf
    x = 1.0 / r
    log_tail = 2.0 * r * l2 / s - (top + 1) * math.log(r) - math.log1p(-x)
    tail = math.exp(log_tail) if log_tail < _LOG_MAX else math.inf
    return tail, tail * (top + 1 - top * x) / (1.0 - x)
