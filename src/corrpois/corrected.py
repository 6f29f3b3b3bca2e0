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

import math
import sys
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .pmf import (FactorialMoments, ProbVector, SignedPmf, _poisson_masses, poisson_tail_bound,
                  power_sums)

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
    "build_phi2",
    "build_phi3",
    "build_phi3_tilde",
    "invert_moments",
]

MOMENT_MATCHED = "moment-matched-from-ProbVector"
USER_SUPPLIED = "user-supplied"


@dataclass(frozen=True)
class CorrectionSpec:
    """Order, mean and correction coefficients of a corrected measure.

    ``gamma`` maps polynomial degree j (2 <= j <= 2 nu - 2) to the
    coefficient gamma_j; missing degrees count as zero, and an empty map
    (forced when nu = 1) is the plain Poisson.
    """

    nu: int
    lam: float
    gamma: Mapping[int, float] = field(default_factory=dict)
    provenance: str = USER_SUPPLIED

    def __post_init__(self) -> None:
        if self.nu < 1:
            raise ValueError("order nu must be >= 1")
        if not self.lam > 0:
            raise ValueError("corrected measures require a positive mean")
        gamma = {int(j): float(g) for j, g in self.gamma.items() if g != 0.0}
        for j in gamma:
            if not 2 <= j <= 2 * self.nu - 2:
                raise ValueError(f"gamma degree {j} outside 2..{2 * self.nu - 2}")
        object.__setattr__(self, "gamma", gamma)

    def moments(self) -> FactorialMoments:
        """Weighted factorial moments 2^m mu_m / m! = a_m - sum_j gamma_j (2 lam)^j a_(m-j).

        Here a_m = (2 lam)^m / m! = e^(2 lam) pi_(2 lam)(m), so w = e^(2 lam)
        (pi_(2 lam) * c) with c = ``_spec_kernel(spec, True)``, cut at M =
        ``_cutoff(2 lam, c)``, past every correction degree and the first
        unmatched moment.  The tail sum_{m>M} m |w_m| is e^(2 lam) times the
        index-weighted bound of ``_truncation``.  Raises OverflowError when
        e^(2 lam) exceeds binary64 (lam above about 354).
        """
        x = 2.0 * self.lam
        scale = math.exp(x)
        c = _spec_kernel(self, True)
        top = _cutoff(x, c)
        a = np.cumprod(np.concatenate(([1.0], x / np.arange(1.0, top + 1))))
        w = a.copy()
        for j, g in self.gamma.items():
            w[j:] -= g * x**j * a[: top + 1 - j]
        return FactorialMoments(w, scale * _truncation(x, c, top)[1])


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
    power sums are not all floats (Fractions stay exact)."""
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

    Rounding, for a float c within a relative 4u of the exact c_k: a product
    node sums at most w + 1 products and divides by a rounded binomial, and
    P_d is a binary tree of d - 1 nodes over d leaves, so by induction
    parts[d, w] is within g_m of the same computation on |c|, m = w (w + 7).
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

    Orders 1..8 match the factorial moments of S_n up to that order, for any
    probabilities; "3t" is order 3 without its gamma_4.  Every other order
    raises ValueError, and so does a mean whose power lam^(2 order - 2)
    falls below the normal floating-point range, where the coefficients
    would lose their precision or divide by zero.
    """
    nu = 3 if order == "3t" else order
    if nu not in range(1, 9):
        raise ValueError(f"unsupported order: {order!r}")
    return _spec_from_power_sums(power_sums(p, int(nu)).values, order)


def _spec_from_power_sums(lams: Sequence[float], order: int | str) -> CorrectionSpec:
    """``spec_for_order`` for a supported order, from the power sums
    lams[j - 1] = lambda_j (j = 1..nu at least; later ones are not read)."""
    nu = 3 if order == "3t" else int(order)
    return _spec_from_parts(_series_powers(_log_coefficients(lams, nu - 1), nu - 1),
                            lams[0], order)


def _spec_from_parts(parts: np.ndarray, lam: float, order: int | str) -> CorrectionSpec:
    """``_spec_from_power_sums`` from the parts of E_w, w < nu (``_series_powers``)."""
    nu = 3 if order == "3t" else int(order)
    if not lam > 0:
        raise ValueError("corrected measures require a positive mean")
    if lam ** (2 * nu - 2) < sys.float_info.min:
        raise ValueError(f"mean {lam!r} too small for order {nu}: lam^{2 * nu - 2} underflows")
    gamma = _gamma_from_parts(parts, lam)
    if order == "3t":
        del gamma[4]
    return CorrectionSpec(nu, lam, gamma, MOMENT_MATCHED)


@dataclass(frozen=True)
class CorrectedMeasure:
    spec: CorrectionSpec
    pmf: SignedPmf

    @property
    def moments(self) -> FactorialMoments:
        """The spec's factorial moments, computed on access: they need
        e^(2 lam), which overflows long before the masses do."""
        return self.spec.moments()


def build_phi_nu(spec: CorrectionSpec, kmax: int | None = None,
                 label: str | None = None) -> CorrectedMeasure:
    """Corrected measure of arbitrary order from an explicit coefficient spec.

    The masses on 0..K are pi * c, the Poisson(lam) masses convolved with the
    kernel of the module docstring.  A binary64 number is an integer over a
    power of two, so each c_i is found exactly, over the largest denominator,
    and rounded once.  With S = sum_i |c_i|, u = 2^-53, g_n = n u / (1 - n u),
    Z ~ Poisson(lam) and s = 3 for lam < 708, 6 from there on, the tail bound

        (sum_i |c_i| P(Z >= K + 1 - i) + (2 lam + 2 nu + s) u S
         + (S + 2 nu) (K + 1) 2^-1021) / (1 - (2K + 2 nu + 2) u)

    bounds the masses past K plus the rounding of those up to K, both in
    absolute value:

    * |phi(k)| <= sum_i |c_i| pi(k - i), i <= 2 nu - 2, gives the first term
      (``_truncation``).  Without ``kmax``, K is ``_cutoff``'s, where the
      masses past K, weighted by k or not, sum to at most 2^-60 S.
    * The correctly rounded c_i cost u S.  The pi(m) of ``poisson_pmf`` are
      each within a relative g_(2m+2) below lam = 708 (exp within an ulp,
      two roundings a step) and g_(2m+5) from there on, which covers its
      scaled start h 2^E h: from h = e^(-lam/2) within an ulp, that is
      within about 5u.  They cost S sum_m pi(m) g_(2m+s-1), about
      (2 lam + s - 1) u S.  A mass sums
      2 nu - 1 products c_i pi(k - i), erring by g_(2 nu - 1) times their
      absolute sum: about (2 nu - 1) u S.  The products of these errors stay
      below u S for the supported lam < 1416, and the denominator covers
      each g_n and the rounding of S and of the first term.
    * Below 2^-1022 relative bounds give way to absolute ones.  A mass that
      ``poisson_pmf`` scales back below 2^-1022 is off by at most 2^-1075
      more, and one that its recurrence takes there past the mode is, like
      its exact value, below 2^-1021; a product c_i pi(k - i) that underflows
      is off by at most 2^-1075.  That is the third term.
    """
    c = _spec_kernel(spec)
    kmax = _cutoff(spec.lam, c) if kmax is None else kmax
    mass, tail, _ = _poisson_convolution(spec.lam, c, kmax)
    if label is None:
        label = f"phi{spec.nu}" if spec.gamma or spec.nu == 1 else "poisson"
    return CorrectedMeasure(spec, SignedPmf(mass, tail, label))


def _spec_kernel(spec: CorrectionSpec, moments: bool = False) -> np.ndarray:
    """The coefficients of c(x) = 1 - sum_j gamma_j lam^j (x - 1)^j, or with
    ``moments`` those of c(1 + 2s) = 1 - sum_j gamma_j (2 lam)^j s^j, each found
    exactly from the binary64 lam and gamma_j and rounded once."""
    a, b = spec.lam.as_integer_ratio()
    den = max([1] + [g.as_integer_ratio()[1] * b**j for j, g in spec.gamma.items()])
    c = [den] + [0] * (2 * spec.nu - 2)
    for j, g in spec.gamma.items():
        n, d = g.as_integer_ratio()
        num = n * a**j * (den // (d * b**j))
        if moments:
            c[j] -= num << j
        else:
            for i in range(j + 1):
                c[i] -= (-1) ** (j - i) * math.comb(j, i) * num
    return np.array([x / den for x in c])


def _cutoff(lam: float, c: np.ndarray) -> int:
    """Where pi_lam * c is cut: the least K >= len(c) + ceil(lam) at which
    lam P(Z >= K + 1 - len(c)) + (len(c) - 1) P(Z >= K + 2 - len(c)), the
    largest per-unit term of ``_truncation``'s index-weighted sum, is at most
    2^-60.  So the entries past K, weighted by their index or not, sum to at
    most 2^-60 sum_i |c_i|, below the rounding of the convolution.  The
    Chernoff bound falls with K past lam: gallop, then bisect."""
    def above(k: int) -> bool:
        return (lam * poisson_tail_bound(lam, k + 1 - c.size)
                + (c.size - 1) * poisson_tail_bound(lam, k + 2 - c.size)) > 2.0**-60

    lo = top = c.size + math.ceil(lam)
    while above(top):
        lo, top = top + 1, 2 * top + 1
    while lo < top:
        mid = (lo + top) // 2
        lo, top = (mid + 1, top) if above(mid) else (lo, mid)
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


def _poisson_convolution(lam: float, c: np.ndarray, kmax: int) -> tuple[np.ndarray, float, float]:
    """pi * c on 0..K, the Poisson(lam) masses convolved with a kernel c, and
    bounds on sum_k |e_k| and on sum_k k |e_k|, where e_k is the rounding of
    an entry up to K and the whole entry past K (``build_phi_nu``'s
    derivation, for a kernel whose entries are each rounded once).  Past K
    the bounds are ``_truncation``'s; up to K, the rounding weighted by k is
    at most K times its sum."""
    size = math.fsum(np.abs(c).tolist())
    u = 2.0**-53
    s = 3 if lam < 708 else 6
    rounding = size * (2.0 * lam + (c.size + 1) + s) * u
    underflow = (size + (c.size + 1)) * (kmax + 1) * 2.0**-1021
    scale = 1.0 - (2 * kmax + c.size + 3) * u
    plain, weighted = _truncation(lam, c, kmax)
    mass = np.convolve(_poisson_masses(lam, kmax), c)[: kmax + 1]
    return (mass, (plain + rounding + underflow) / scale,
            (weighted + kmax * (rounding + underflow)) / scale)


def build_phi2(p: ProbVector, kmax: int | None = None) -> CorrectedMeasure:
    """Order-2 corrected measure for S_n (variance matching)."""
    return build_phi_nu(spec_phi2(p), kmax, label="phi2")


def build_phi3(p: ProbVector, kmax: int | None = None) -> CorrectedMeasure:
    """Order-3 corrected measure for S_n (moments matched up to order 3)."""
    return build_phi_nu(spec_phi3(p), kmax, label="phi3")


def build_phi3_tilde(p: ProbVector, kmax: int | None = None) -> CorrectedMeasure:
    """Simplified order-3 corrected measure (P_2, P_3 corrections only)."""
    return build_phi_nu(spec_phi3_tilde(p), kmax, label="phi3-tilde")


def invert_moments(moments: FactorialMoments, kmax: int) -> SignedPmf:
    """Recover a mass function from its factorial moments.

    Applies g(k) = sum_{m>=k} (-1)^(m-k) C(m, k) 2^-m w_m to the stored
    weighted moments w_m = 2^m mu_m / m!, as one matrix-vector product.
    Since C(m, k) 2^-m <= 1, each g(k) misses at most the moments' tail; the
    recorded tail bound is (kmax + 1) times that plus the mass deficit of
    the truncated support.
    """
    if kmax < 0:
        raise ValueError("kmax must be >= 0")
    rows = []
    row = np.zeros(kmax + 1)  # (-1)^(m-k) C(m, k) 2^-m for k = 0..kmax, by Pascal's rule
    row[0] = 1.0
    for _ in range(moments.weighted.size):
        rows.append(row)
        row = 0.5 * (np.concatenate(([0.0], row[:-1])) - row)
    mass = moments.weighted @ np.array(rows)
    deficit = abs(1.0 - math.fsum(mass.tolist()))
    return SignedPmf(mass, deficit + (kmax + 1) * moments.tail, "inverted")
