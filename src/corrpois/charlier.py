"""Poisson-Charlier orthogonal polynomials at a fixed mean.

P_m is evaluated through its explicit triangular expansion

    P_m(k) = sum_{j=0}^m (-1)^(m-j) C(m, j) lam^(m-j) (k)_j,

not a three-term recurrence: degrees stay small (m <= 12 everywhere in this
package) and the explicit sum is the directly checkable definition.  The
recurrence is kept in the test-suite as an independent oracle.

The module also provides numeric verification of the two identities the rest
of the package leans on: orthogonality E P_m(Z) P_nu(Z) = m! lam^m delta and
the covariance identity E P_m(Z) g(Z) = lam^m E D^m g(Z), where D is the
forward difference operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .pmf import poisson_pmf, poisson_tail_bound

__all__ = [
    "falling_factorial",
    "charlier",
    "charlier_values",
    "default_kmax",
    "poly_tail_envelope",
    "OrthogonalityReport",
    "CovarianceReport",
    "orthogonality_check",
    "covariance_identity_check",
]


def falling_factorial(k: int, m: int) -> float:
    """(k)_m = k (k-1) ... (k-m+1), with (k)_0 = 1; zero when m > k >= 0."""
    if k < 0 or m < 0:
        raise ValueError("falling factorial requires k >= 0 and m >= 0")
    out = 1.0
    for i in range(m):
        out *= k - i
    return out


def _charlier_at(m: int, lam: float, ks: np.ndarray) -> np.ndarray:
    """P_m at the integer points ks: the explicit sum, one compensated sum per point."""
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
    """Truncation point for expectations of degree-`degree` polynomials.

    Polynomial-times-Poisson tails decay superexponentially past
    lam + 20 sqrt(lam) + 4*degree; a Chernoff tail bound is attached to each
    report so the truncation stays honest.
    """
    return max(50, math.ceil(lam + 20.0 * math.sqrt(lam) + 4 * degree))


def poly_tail_envelope(lam: float, kmax: int,
                       rows: Callable[[np.ndarray], Iterable[np.ndarray]]) -> float:
    """Tail estimate for Poisson(lam) weighted by a sum of polynomial rows.

    Returns the Chernoff mass beyond kmax times 1 + sum over rows of the
    largest |row| on the 50 points kmax+1..kmax+50; ``rows`` maps those
    points to the row values.  This is an estimate from 50 lookahead points,
    not a proven bound on the infinite tail.
    """
    env = 1.0
    for row in rows(np.arange(kmax + 1, kmax + 51, dtype=float)):
        env += float(np.max(np.abs(row)))
    return poisson_tail_bound(lam, kmax + 1) * env


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
    """Compare the truncated sum E P_m(Z) P_nu(Z) with m! lam^m delta_{m,nu}."""
    if m > 12 or nu > 12:
        raise ValueError("orthogonality check supports degrees up to 12")
    if lam > 10:
        raise ValueError("orthogonality check supports lam <= 10")
    kmax = default_kmax(lam, m + nu)
    pois = poisson_pmf(lam, kmax)
    pm = charlier_values(m, lam, kmax)
    pn = pm if nu == m else charlier_values(nu, lam, kmax)
    value = math.fsum(pois.mass[k] * pm[k] * pn[k] for k in range(kmax + 1))
    expected = math.factorial(m) * lam**m if m == nu else 0.0
    tail = poly_tail_envelope(
        lam, kmax, lambda ks: [_charlier_at(m, lam, ks) * _charlier_at(nu, lam, ks)])
    dev = abs(value - expected)
    return OrthogonalityReport(m, nu, lam, value, expected, dev, tail, kmax,
                               dev <= tol + tail)


def forward_difference(g: Callable[[int], float], m: int, k: int) -> float:
    """m-th iterated forward difference of g at k."""
    vals = [g(k + i) for i in range(m + 1)]
    for _ in range(m):
        vals = [vals[i + 1] - vals[i] for i in range(len(vals) - 1)]
    return vals[0]


def covariance_identity_check(m: int, lam: float, g: Callable[[int], float],
                              kmax: int | None = None) -> CovarianceReport:
    """Evaluate both sides of E P_m(Z) g(Z) = lam^m E D^m g(Z), truncated.

    g must be evaluable on 0..kmax+m.  Both expectations are truncated at
    kmax and the recorded tail bound covers the Poisson mass left out
    (times a polynomial envelope for the left side).
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    if lam <= 0:
        raise ValueError("lam must be positive")
    if kmax is None:
        kmax = default_kmax(lam, m)
    pois = poisson_pmf(lam, kmax)
    pm = charlier_values(m, lam, kmax)
    lhs = math.fsum(pois.mass[k] * pm[k] * g(k) for k in range(kmax + 1))
    rhs = lam**m * math.fsum(
        pois.mass[k] * forward_difference(g, m, k) for k in range(kmax + 1)
    )
    tail = poly_tail_envelope(
        lam, kmax, lambda ks: [_charlier_at(m, lam, ks) * np.array([g(int(k)) for k in ks])])
    return CovarianceReport(m, lam, lhs, rhs, lhs - rhs, tail, kmax)
