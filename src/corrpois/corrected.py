"""Corrected Poisson signed measures.

A corrected measure of order nu multiplies the Poisson(lam) mass by the
polynomial factor 1 - sum_{j=2}^{2nu-2} gamma_j P_j(k).  Because every P_j
integrates to zero against the Poisson weight, the result always sums to 1,
but it may dip negative: it is a signed measure, not a distribution.  Since
pi(k) (k)_i = lam^i pi(k - i), the explicit Charlier sum gives pi(k) P_j(k) =
lam^j sum_i (-1)^(j-i) C(j, i) pi(k - i), so the measure is the convolution
pi * c with the coefficients of c(x) = 1 - sum_j gamma_j lam^j (x - 1)^j.  Its
factorial moments mu_m = lam^m (1 - sum_j gamma_j (m)_j) have the generating
function e^(lam t) (1 - sum_j gamma_j (lam t)^j), while that of S_n is

    prod_i (1 + p_i t) = e^(lam t) exp(L(t)),  L(t) = sum_{j>=2} (-1)^(j+1) lambda_j t^j / j.

Giving lambda_j the weight j - 1, the order-nu spec keeps the part of exp(L)
of weight below nu (``gamma_from_power_sums``) and so matches the factorial
moments of S_n up to order nu, for any probabilities: order 2 has
gamma_2 = lambda_2 / (2 lam^2), order 3 adds gamma_3 = -lambda_3 / (3 lam^3)
and gamma_4 = -lambda_2^2 / (8 lam^4), and mu_4 - mu_4(S_n) = 6 lambda_4.

A simplified order-3 variant keeps only the P_2 and P_3 corrections.  It
matches moments up to order three as well, yet approximates S_n markedly
worse (its rate degrades by one full power of n in the binomial case), which
is exactly what makes it interesting as a counterexample.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .pmf import FactorialMoments, ProbVector, SignedPmf, _poisson_masses, _sn, poisson_tail_bound

__all__ = [
    "CorrectionSpec",
    "CorrectedMeasure",
    "spec_poisson",
    "spec_phi2",
    "spec_phi3",
    "spec_phi3_tilde",
    "spec_for_order",
    "gamma_from_power_sums",
    "build_phi_nu",
    "invert_moments",
]

MAX_ORDER = 8  # the highest order of a moment-matched spec
MOMENT_MATCHED = "moment-matched-from-ProbVector"
USER_SUPPLIED = "user-supplied"


@dataclass(frozen=True)
class CorrectionSpec:
    """Order, mean and correction coefficients of a corrected measure.

    ``gamma`` maps polynomial degree j (2 <= j <= 2 nu - 2) to the finite
    coefficient gamma_j; missing degrees count as zero, and an empty map
    (forced when nu = 1) is the plain Poisson.  It is read-only, so a spec
    is a value: equal specs hash equal and can key a cache.
    """

    nu: int
    lam: float
    gamma: Mapping[int, float] = field(default_factory=dict)
    provenance: str = USER_SUPPLIED

    def __post_init__(self) -> None:
        if self.nu < 1:
            raise ValueError("order nu must be >= 1")
        if not 0 < self.lam < math.inf:
            raise ValueError(f"corrected measures require a finite positive mean: {self.lam!r}")
        gamma = {int(j): float(g) for j, g in self.gamma.items() if g != 0.0}
        for j, g in gamma.items():
            if not 2 <= j <= 2 * self.nu - 2:
                raise ValueError(f"gamma degree {j} outside 2..{2 * self.nu - 2}")
            if not math.isfinite(g):
                raise ValueError(f"gamma_{j} must be finite, got {g!r}")
        object.__setattr__(self, "gamma", MappingProxyType(gamma))

    def __hash__(self) -> int:
        return hash((self.nu, self.lam, frozenset(self.gamma.items()), self.provenance))

    def __reduce__(self):  # a mappingproxy does not pickle; its dict does
        return CorrectionSpec, (self.nu, self.lam, dict(self.gamma), self.provenance)

    def moments(self) -> FactorialMoments:
        """Weighted factorial moments 2^m mu_m / m! = a_m - sum_j gamma_j (2 lam)^j a_(m-j).

        Here a_m = (2 lam)^m / m! = e^(2 lam) pi_(2 lam)(m): w = a * c, c =
        ``_moment_kernel``, from ``_measure``, cut past every correction
        degree and the first unmatched moment, with the tail e^(2 lam) times
        ``_truncation``'s index-weighted bound, which that build computed, and
        as ``rounding`` its bound on sum_m |e_m| (``_poisson_convolution``).
        Raises OverflowError when e^(2 lam) exceeds binary64 (lam above about
        354).
        """
        weighted, rounding, _, tail = _measure(self, True)
        return FactorialMoments(weighted, tail, rounding=rounding)


def spec_poisson(lam: float) -> CorrectionSpec:
    """Order-1 spec: no correction, plain Poisson(lam)."""
    return CorrectionSpec(1, lam, {}, MOMENT_MATCHED)


def spec_phi2(p: ProbVector) -> CorrectionSpec:
    """Variance-matching order-2 spec for the given indicator probabilities."""
    return spec_for_order(p, 2)


def spec_phi3(p: ProbVector) -> CorrectionSpec:
    """Order-3 spec matching the factorial moments of S_n up to order three."""
    return spec_for_order(p, 3)


def spec_phi3_tilde(p: ProbVector) -> CorrectionSpec:
    """Simplified order-3 spec: P_2 and P_3 corrections only."""
    return spec_for_order(p, "3t")


def gamma_from_power_sums(lams: Sequence, order: int) -> dict:
    """gamma_2..gamma_{2 order - 2} from the power sums lams[j - 1] = lambda_j.

    With T = sum_{w < order} E_w (``_weight_sum``), gamma_j = -[t^j] T / lam^j.
    Needs lambda_1..lambda_order.  Only +, * and / touch the power sums, so
    Fractions give the exact coefficients.
    """
    return _gamma_from_parts(_series_powers(_log_coefficients(lams, order - 1), order - 1),
                             lams[0])


def _gamma_from_parts(parts: np.ndarray, lam) -> dict:
    """``gamma_from_power_sums`` from the parts of E_w, w < order (``_series_powers``
    at top order - 1)."""
    total = _weight_sum(parts, 1).tolist()
    return {j: -total[j] / lam**j for j in range(2, len(total))}


def _log_coefficients(lams: Sequence, top: int) -> np.ndarray:
    """c_0..c_top of C(s) = sum_{k>=1} (-1)^k lambda_(k+1) s^k / (k + 1), so that
    L(t) = t C(s t) at s = 1 and s counts the weight: an object array when the
    power sums are not all floats (Fractions stay exact).  A float c_k is
    within g_(k+2) of the exact one: ``pmf._sn`` puts lambda_(k+1) within
    g_(k+1) (short of underflow), and the division adds u."""
    c = [0 * lams[0]] + [(-1) ** k * lams[k] / (k + 1) for k in range(1, top + 1)]
    exact = not all(isinstance(x, float) for x in lams[:top + 1])
    return np.array(c, dtype=object if exact else float)


def _series_powers(c: np.ndarray, top: int) -> np.ndarray:
    """parts[d, w] = [s^w] C(s)^d / d! for d, w = 0..top, C(s) = sum_k c_k s^k, c_0 = 0.

    Expanding exp(L) = sum_d L^d / d! with L = t C(s t) gives [t^(w+d)] E_w =
    parts[d, w] for the weight-w part E_w, and zero for w < d.  The rows come
    by doubling: with P_1..P_h known, P_(h+i) = P_h P_i / C(h+i, i) for
    i = 1..h, one np.convolve each, so top = 128 takes seven levels.  The
    operations are +, * and /, so an object array of Fractions gives exact
    parts.

    Rounding, for a float c_k within g_(k+2) (``_log_coefficients``): a product
    node sums at most w + 1 products and divides by a rounded binomial, w + 3
    roundings, and P_d is a binary tree of d - 1 nodes over d leaves
    c_(k_1)..c_(k_d), k_1 + .. + k_d = w, whose roundings add up to w + 2d.
    So parts[d, w] is within g_m of the same computation on |c|, m = w (w +
    7): a term meets (d - 1)(w + 3) + w + 2d <= w (w + 5) - 3 roundings, as
    d <= w.
    """
    size = top + 1
    parts = np.full((size, size), c[0], dtype=c.dtype)  # zeros of c's type
    parts[0, 0] = c[0] + 1
    if top:
        parts[1, 1:] = c[1:size]
    h = 1
    while h < top:
        for i in range(1, min(h, top - h) + 1):
            parts[h + i] = np.convolve(parts[h], parts[i])[:size] / math.comb(h + i, i)
        h *= 2
    return parts


def _weight_sum(parts: np.ndarray, first: int) -> np.ndarray:
    """t-coefficients 0..2 top of sum_{first <= w <= top} E_w from ``_series_powers``:
    entry j sums parts[d, w] over w + d = j, at most top + 1 terms."""
    size = parts.shape[0]
    rows = np.zeros((size, 2 * size), dtype=parts.dtype)
    rows[:, first:size] = parts[:, first:]
    # read with a row length one shorter, row d moves d places right
    skew = rows.ravel()[:size * (2 * size - 1)].reshape(size, 2 * size - 1)
    return skew.sum(axis=0)


def spec_for_order(p: ProbVector, order: int | str) -> CorrectionSpec:
    """The moment-matched corrected-measure spec of the given order for S_n.

    Orders 1..MAX_ORDER match the factorial moments of S_n up to that order,
    for any probabilities; "3t" is order 3 without its gamma_4.  Every other
    order raises ValueError, and so does a mean whose power lam^(2 order - 2)
    falls below the normal floating-point range, where the coefficients
    would lose their precision or divide by zero.  The spec comes from
    ``_matched``.
    """
    nu = 3 if order == "3t" else order
    if nu not in range(1, MAX_ORDER + 1):
        raise ValueError(f"unsupported order: {order!r}")
    spec = _matched(p, int(nu))[1]
    if order == "3t":
        return CorrectionSpec(3, spec.lam, {j: g for j, g in spec.gamma.items() if j != 4},
                              MOMENT_MATCHED)
    return spec


@functools.lru_cache(maxsize=8)  # a vector's specs of orders 1 to 3, and more
def _matched(p: ProbVector, nu: int) -> tuple[np.ndarray, CorrectionSpec]:
    """The parts of E_w, w < nu (``_series_powers`` at top nu - 1, read-only),
    and ``spec_for_order(p, nu)`` built from them and the power sums of
    ``_sn``.  Repeated calls on an equal vector and order share one
    derivation, which ``distances`` also reads to tell a matched spec.  A
    mean that ``spec_for_order`` refuses raises its ValueError, which is not
    kept.
    """
    lams = _sn(p).power_sums(nu)
    lam = lams[0]
    if not lam > 0:
        raise ValueError("corrected measures require a positive mean")
    if lam ** (2 * nu - 2) < sys.float_info.min:
        raise ValueError(f"mean {lam!r} too small for order {nu}: lam^{2 * nu - 2} underflows")
    parts = _series_powers(_log_coefficients(lams, nu - 1), nu - 1)
    parts.flags.writeable = False
    return parts, CorrectionSpec(nu, lam, _gamma_from_parts(parts, lam), MOMENT_MATCHED)


@dataclass(frozen=True)
class CorrectedMeasure:
    spec: CorrectionSpec
    pmf: SignedPmf

    @property
    def moments(self) -> FactorialMoments:
        """The spec's factorial moments, computed on access: they need
        e^(2 lam), which overflows long before the masses do."""
        return self.spec.moments()


def build_phi_nu(spec: CorrectionSpec, kmax: int | None = None) -> CorrectedMeasure:
    """Corrected measure of arbitrary order from an explicit coefficient spec.

    The masses on 0..K and their tail bound are ``_charlier_masses``', read
    through ``_measure`` at its own cut unless ``kmax`` fixes K.  The pmf is
    labelled ``phi<nu>``, or ``poisson`` for an order above 1 with no correction.
    """
    built = _measure(spec, False) if kmax is None else _charlier_masses(spec, kmax)
    label = f"phi{spec.nu}" if spec.gamma or spec.nu == 1 else "poisson"
    return CorrectedMeasure(spec, SignedPmf(built[0], built[1], label))


@functools.lru_cache(maxsize=8)  # a vector's masses and moments for three specs
def _measure(spec: CorrectionSpec, moments: bool) -> tuple:
    """The spec's masses (``_charlier_masses``) or, with ``moments``, its
    weighted factorial moments (``_poisson_convolution`` of ``_moment_kernel``
    at the mean 2 lam), each cut by ``_cutoff`` for the kernel length 2 nu -
    1, read-only, with their two bounds (and the moments' tail).
    ``build_phi_nu``, ``CorrectionSpec.moments`` and the direct differences
    of ``distances`` share one build for an equal spec and kind; callers
    pass both arguments positionally (``lru_cache`` keys a keyword apart
    from the same value passed by position).  Errors are not kept.
    """
    built = (_poisson_convolution(2.0 * spec.lam, _moment_kernel(spec), True) if moments
             else _charlier_masses(spec, _cutoff(spec.lam, 2 * spec.nu - 1)))
    built[0].flags.writeable = False
    return built


def _charlier_masses(spec: CorrectionSpec, kmax: int) -> tuple[np.ndarray, float, float]:
    """The masses pi(k) (1 - sum_j gamma_j P_j(k)) on 0..K, with the bounds of
    ``_poisson_convolution``, from P_(j+1) = (k - lam - j) P_j - j lam P_(j-1)
    over every k at once.  With g_n = n u / (1 - n u), u = 2^-53:

    * Rounding.  A step's two terms each meet three roundings ((k - j) - lam
      or j lam, a product, the difference), so P_j is within g_(3j) M_j, M
      the same recurrence on absolute values plus 2^-1019 a step for
      underflows.  With B = sum_j |gamma_j| M_j the factor is within
      g_(8 nu - 7) (1 + B), and with pi(k) within g_(2k+5)
      (``_poisson_convolution``) the mass within g_(2k + 8 nu) pi(k) (1 + B),
      plus (1 + B) 2^-1020 where pi(k) is below 2^-1022.  The denominator
      covers the computed against the exact pi, M and B, and the sums.
    * Truncation.  The exact masses are pi * c (module docstring), |c_i| <=
      [i = 0] + sum_j |gamma_j| lam^j C(j, i), and P(Z >= m) falls in m, so
      ``_truncation`` of the kernel 1, |gamma_j| (2 lam)^j bounds them.
    """
    k = np.arange(kmax + 1.0)
    p0, p1, m0, m1 = 0.0, np.ones(k.size), 0.0, 1.0  # P_(j-1), P_j and their M
    factor, big = np.ones(k.size), np.ones(k.size)  # 1 - sum_j gamma_j P_j and 1 + B
    for j in range(max(spec.gamma, default=0)):
        a, b = (k - j) - spec.lam, j * spec.lam
        p0, p1 = p1, a * p1 - b * p0
        m0, m1 = m1, np.abs(a) * m1 + b * m0 + 2.0**-1019
        g = spec.gamma.get(j + 1, 0.0)
        factor -= g * p1
        big += abs(g) * m1
    pi = _poisson_masses(spec.lam, kmax)
    err = pi * big * ((2.0 * k + 8 * spec.nu) * 2.0**-53) + big * 2.0**-1020
    plain, weighted = _truncation(spec.lam, _moment_kernel(spec), kmax)
    scale = 1.0 - (5 * kmax + 18 * spec.nu + 18) * 2.0**-53
    return pi * factor, (plain + math.fsum(err.tolist())) / scale, (weighted + k @ err) / scale


def _moment_kernel(spec: CorrectionSpec) -> np.ndarray:
    """The coefficients of c(1 + 2s) = 1 - sum_j gamma_j (2 lam)^j s^j, each within 3u."""
    c = np.array([1.0] + [0.0] * (2 * spec.nu - 2))
    for j, g in spec.gamma.items():
        c[j] = -g * (2.0 * spec.lam) ** j
    return c


def _cutoff(lam: float, size: int) -> int:
    """Where pi_lam * c is cut for a kernel c of ``size`` entries: the least
    K >= size + ceil(lam) with lam P(Z >= K + 1 - size) + (size - 1) P(Z >=
    K + 2 - size) <= 2^-60, the largest per-unit term of ``_truncation``'s
    index-weighted sum, so that the entries past K, weighted by their index
    or not, sum to at most 2^-60 sum_i |c_i|.  Each P is its Chernoff bound
    e^(-g(k)), g(k) = k log(k / lam) - k + lam (``poisson_tail_bound``).

    The sum is at most (lam + size - 1) P(Z >= k), k = K + 1 - size, so the
    rule holds once g(k) >= L = 60 log 2 + log(lam + size - 1).  g is convex
    and increasing past lam, and g(lam + t) >= t^2 / (2 (lam + t / 3))
    (Bernstein), so Newton's method from k = lam + sqrt(2 lam L) + 2 L / 3,
    which is above the root, falls to it; unless the least K already serves.
    That K is then confirmed: it moves up while it breaks the rule and down
    while K - 1 keeps it, usually one or two evaluations of the rule.
    """
    def above(k: int) -> bool:
        return (lam * poisson_tail_bound(lam, k + 1 - size)
                + (size - 1) * poisson_tail_bound(lam, k + 2 - size)) > 2.0**-60

    low = size + math.ceil(lam)
    goal, log_lam = 60.0 * math.log(2.0) + math.log(lam + (size - 1)), math.log(lam)
    k = low + 1.0 - size
    if k * (math.log(k) - log_lam - 1.0) + lam < goal:  # the root lies past k > lam
        k = lam + math.sqrt(2.0 * lam * goal) + goal / 1.5
        step = 1.0
        while step >= 0.25:
            r = math.log(k) - log_lam
            step = (k * (r - 1.0) + lam - goal) / r
            k -= step
    top = max(low, math.ceil(k) + size - 1)
    if above(top):
        top += 1
        while above(top):
            top += 1
    else:
        while top > low and not above(top - 1):
            top -= 1
    return top


def _truncation(lam: float, c: np.ndarray, kmax: int) -> tuple[float, float]:
    """Bounds on sum_{k>K} |e_k| and sum_{k>K} k |e_k| for e = pi_lam * c:
    |e_k| <= sum_i |c_i| pi(k - i), and sum_{j >= m} j pi(j) = lam P(Z >= m - 1),
    give sum_i |c_i| P(Z >= K + 1 - i) and sum_i |c_i| (lam P(Z >= K - i)
    + i P(Z >= K + 1 - i)), each P by its Chernoff bound."""
    weights = np.abs(c).tolist()
    tails = [poisson_tail_bound(lam, kmax + 1 - i) for i in range(c.size + 1)]
    return (math.fsum(w * tails[i] for i, w in enumerate(weights)),
            math.fsum(w * (lam * tails[i + 1] + i * tails[i]) for i, w in enumerate(weights)))


def _poisson_convolution(lam: float, c: np.ndarray,
                         moments: bool = False) -> tuple[np.ndarray, float, float, float]:
    """w * c on 0..K (``_cutoff``) for a kernel c whose entries are each within
    3u, w the Poisson(lam) masses pi or, with ``moments``, w_m = lam^m / m! = E
    pi(m), E = e^lam, from exactly w_0 = 1; bounds on sum_k |e_k| and sum_k k
    |e_k|, e_k the rounding of an entry up to K and the whole entry past K,
    where they are E times ``_truncation``'s; and that index-weighted tail.
    With S = sum_i |c_i|, u = 2^-53 and g_n = n u / (1 - n u): w_m is within
    g_(2m), and pi(m) of ``poisson_pmf`` within g_(2m+2) below lam = 708 (exp
    within an ulp, two roundings a step) and g_(2m+5) from there on (its scaled
    start is within about 5u), costing about (2 lam + s) u E S, s = 0, 2 or 5.
    The kernel adds 3u E S, and an entry's len(c) products g_len times their
    absolute sum; products of errors stay below u E S for lam < 1416, and the
    denominator covers each g_n and the rounding of E, S and the truncation.
    Below 2^-1022 a weight is, like its exact value, within 2^-1021, and an
    underflowing product loses 2^-1075: (S + len(c) + 1) (K + 1) 2^-1021.
    Up to K the rounding weighted by k is at most K times its sum.
    """
    kmax = _cutoff(lam, c.size)
    total = math.exp(lam) if moments else 1.0
    size = math.fsum(np.abs(c).tolist())
    s = 0 if moments else 2 if lam < 708 else 5
    rounding = total * size * (2.0 * lam + c.size + s + 4) * 2.0**-53
    underflow = (size + (c.size + 1)) * (kmax + 1) * 2.0**-1021
    scale = 1.0 - (2 * kmax + c.size + 6) * 2.0**-53
    plain, tail = (total * x for x in _truncation(lam, c, kmax))
    w = (np.cumprod(np.concatenate(([1.0], lam / np.arange(1.0, kmax + 1)))) if moments
         else _poisson_masses(lam, kmax))
    mass = np.convolve(w, c)[: kmax + 1]
    return (mass, (plain + rounding + underflow) / scale,
            (tail + kmax * (rounding + underflow)) / scale, tail)


def invert_moments(moments: FactorialMoments, kmax: int) -> SignedPmf:
    """Recover a mass function from its factorial moments.

    Applies g(k) = sum_m r_m(k) w_m, r_m(k) = (-1)^(m-k) C(m, k) 2^-m, to
    the stored weighted moments w_m = 2^m mu_m / m!, m = 0..M, as one
    matrix-vector product.  Row m has sum_k |r_m(k)| = 1, so the moments
    past M move the masses by at most their tail in l1, and row m > kmax
    puts 1 - s_m, s_m = sum_{k <= kmax} |r_m(k)|, past kmax.  With u =
    2^-53, g_n = n u / (1 - n u) and W = sum_m |w_m|, ``tail_bound`` is
    sum_{m > kmax} |w_m| (1 - s_m), the moments' tail and ``rounding`` (so
    it holds against the exact law) and the rounding of the inversion:

    * Pascal's rule r_(m+1)(k) = (r_m(k - 1) - r_m(k)) / 2 subtracts two
      terms of opposite sign, one rounding, and halves exactly above
      2^-1022, so row m is within g_m of r_m; a halving below 2^-1022 loses
      at most 2^-1075, at most m 2^-1075 an entry.
    * The product adds g_(M+1) sum_m |w_m| |r_m(k)|, so the masses' l1
      rounding is within g_(2M+1) W.
    * Past kmax, the computed s_m is within g_(M+kmax+1) of s_m <= 1, and
      the product adds g_(M+1) W.
    * A product below 2^-1022 loses at most 2^-1075; with the rows' losses
      that adds at most (kmax + 1)(M + 1)(W + 1) 2^-1074.

    g_(4M+kmax+8) W covers the three g terms and leaves 5u W >= 5u for the
    fsum of W and the bound's own operations.
    """
    if kmax < 0:
        raise ValueError("kmax must be >= 0")
    rows = []
    row = np.zeros(kmax + 1)  # r_m(k) for k = 0..kmax, by Pascal's rule
    row[0] = 1.0
    for _ in range(moments.weighted.size):
        rows.append(row)
        row = 0.5 * (np.concatenate(([0.0], row[:-1])) - row)
    rows = np.array(rows)
    mass = moments.weighted @ rows
    rest = np.abs(moments.weighted[kmax + 1:]) @ (1.0 - np.abs(rows[kmax + 1:]).sum(axis=1))
    size, top = math.fsum(np.abs(moments.weighted).tolist()), 4 * len(rows) + kmax + 4
    error = (top * 2.0**-53 * size / (1.0 - top * 2.0**-53) + moments.tail + moments.rounding
             + (kmax + 1) * len(rows) * (size + 1.0) * 2.0**-1074)
    return SignedPmf(mass, float(rest) + error, "inverted")
