"""Poisson-Charlier orthogonal polynomials at a fixed mean.

P_m is evaluated through its explicit triangular expansion

    P_m(k) = sum_{j=0}^m (-1)^(m-j) C(m, j) lam^(m-j) (k)_j,

one compensated sum per point.  The three-term recurrence, which the
corrected masses run, misses the orthogonality tolerance at lam = 0.1.

The module also provides numeric verification of the two identities the rest
of the package leans on: orthogonality E P_m(Z) P_nu(Z) = m! lam^m delta and
the covariance identity E P_m(Z) g(Z) = lam^m E D^m g(Z), where D is the
forward difference operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .pmf import poisson_pmf, poisson_tail_bound

__all__ = [
    "charlier",
    "charlier_values",
    "default_kmax",
    "OrthogonalityReport",
    "CovarianceReport",
    "orthogonality_check",
    "covariance_identity_check",
]


def _charlier_at(m: int, lam: float, ks: np.ndarray) -> np.ndarray:
    """P_m at the integer points ks by the explicit sum."""
    rows = []
    ff = np.ones(ks.size)  # (k)_j
    for j in range(m + 1):
        rows.append((-1.0) ** (m - j) * math.comb(m, j) * lam ** (m - j) * ff)
        ff = ff * (ks - j)
    return np.array([math.fsum(terms) for terms in np.array(rows).T.tolist()])


def charlier(m: int, lam: float, k: int) -> float:
    """Value of the degree-m Charlier polynomial at integer k."""
    if m < 0 or k < 0:
        raise ValueError("require m >= 0 and k >= 0")
    if lam <= 0:
        raise ValueError("lam must be positive")
    return float(_charlier_at(m, lam, np.array([float(k)]))[0])


def charlier_values(m: int, lam: float, kmax: int) -> np.ndarray:
    """P_m(k) for k = 0..kmax, one compensated sum per point."""
    if m < 0 or kmax < 0:
        raise ValueError("require m >= 0 and kmax >= 0")
    if lam <= 0:
        raise ValueError("lam must be positive")
    out = _charlier_at(m, lam, np.arange(kmax + 1, dtype=float))
    out.flags.writeable = False
    return out


def default_kmax(lam: float, degree: int) -> int:
    """Truncation point for expectations of degree-`degree` polynomials: past
    lam + 20 sqrt(lam) + 4 degree their Poisson-weighted tails decay fast."""
    return max(50, math.ceil(lam + 20.0 * math.sqrt(lam) + 4 * degree))


@dataclass(frozen=True)
class OrthogonalityReport:
    m: int
    nu: int
    lam: float
    value: float
    expected: float
    deviation: float
    tail_bound: float
    kmax: int
    within_tol: bool


@dataclass(frozen=True)
class CovarianceReport:
    m: int
    lam: float
    lhs: float
    rhs: float
    difference: float
    tail_bound: float
    kmax: int


def orthogonality_check(m: int, nu: int, lam: float, tol: float = 1e-9) -> OrthogonalityReport:
    """Compare the truncated sum E P_m(Z) P_nu(Z) with m! lam^m delta_{m,nu}.

    ``tol`` is relative to sqrt(m! lam^m nu! lam^nu), the Cauchy-Schwarz bound
    on E |P_m P_nu|.  As |P_j(k)| <= (k + lam)^j, the terms past K total at
    most pi(K + 1) (K + 1 + lam)^d / (1 - r), d = m + nu, with the ratio
    r = lam / (K + 2) ((K + 2 + lam) / (K + 1 + lam))^d below 1 when supported.
    """
    if m > 12 or nu > 12:
        raise ValueError("orthogonality check supports degrees up to 12")
    if lam > 10:
        raise ValueError("orthogonality check supports lam <= 10")
    kmax = default_kmax(lam, m + nu)
    pois = poisson_pmf(lam, kmax + 1).mass
    pm = charlier_values(m, lam, kmax)
    pn = pm if nu == m else charlier_values(nu, lam, kmax)
    value = math.fsum(pois[k] * pm[k] * pn[k] for k in range(kmax + 1))
    expected = math.factorial(m) * lam**m if m == nu else 0.0
    d = m + nu
    r = lam / (kmax + 2) * ((kmax + 2 + lam) / (kmax + 1 + lam)) ** d
    tail = pois[kmax + 1] * (kmax + 1 + lam) ** d / (1.0 - r)
    dev = abs(value - expected)
    scale = math.sqrt(math.factorial(m) * lam**m * math.factorial(nu) * lam**nu)
    return OrthogonalityReport(m, nu, lam, value, expected, dev, tail, kmax,
                               dev <= tol * scale + tail)


def forward_difference(g: Callable[[int], float], m: int, k: int) -> float:
    """m-th iterated forward difference of g at k."""
    vals = [g(k + i) for i in range(m + 1)]
    for _ in range(m):
        vals = [vals[i + 1] - vals[i] for i in range(len(vals) - 1)]
    return vals[0]


def covariance_identity_check(m: int, lam: float, g: Callable[[int], float],
                              kmax: int | None = None) -> CovarianceReport:
    """Evaluate both sides of E P_m(Z) g(Z) = lam^m E D^m g(Z), truncated.

    g must be evaluable on 0..kmax+max(m, 50).  The recorded tail, the Poisson
    Chernoff tail past kmax times 1 + the largest |P_m g| on the next 50
    points, is an estimate, not a proven bound: g is arbitrary.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    if lam <= 0:
        raise ValueError("lam must be positive")
    if kmax is None:
        kmax = default_kmax(lam, m)
    pois = poisson_pmf(lam, kmax)
    pm = charlier_values(m, lam, kmax + 50)
    lhs = math.fsum(pois.mass[k] * pm[k] * g(k) for k in range(kmax + 1))
    rhs = lam**m * math.fsum(
        pois.mass[k] * forward_difference(g, m, k) for k in range(kmax + 1)
    )
    tail = poisson_tail_bound(lam, kmax + 1) * (
        1.0 + max(abs(pm[k] * g(k)) for k in range(kmax + 1, kmax + 51)))
    return CovarianceReport(m, lam, lhs, rhs, lhs - rhs, tail, kmax)
