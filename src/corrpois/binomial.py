"""Exact combinatorics for the equal-probability (binomial) case.

With p_i = lam/n the power sums are lambda_(k+1) = lam^(k+1) n^(-k).  The
weight-w part E_w of exp(L), graded as in ``corrected.gamma_from_power_sums``,
is a sum of products of lambda_(k+1) whose k add up to w, so [t^j] E_w is
lam^j n^(-w) times its value at unit power sums.  The correction coefficients
gamma_j(nu) are therefore exact polynomials in 1/n, free of lam, and the
n^(-w) column of the table is what the order-(w+1) spec adds to the order-w
one at unit power sums.  Written out, the first nu terms of the falling
factorial expansion

    (n)_m / n^m = 1 - A_1/n + A_2/n^2 - ... +- A_(nu-1)/n^(nu-1) + ...

equal 1 - sum_j gamma_j (m)_j exactly, where A_k = A_k(m-1) is the
elementary symmetric function of 1..m-1 of order k (an unsigned Stirling
number of the first kind).

Everything in this module is exact: arbitrary-precision integers and
``fractions.Fraction`` throughout.  The companion constants

    C_nu(lam) = lam^(nu+1) e^(2 lam) Q_(nu-1)(lam)

bound the order-two factorial moment distance for the binomial case by
C_nu(lam) n^(-nu); the Q polynomials come from an exact integral recurrence
on their coefficients, and obey an equivalent differential one.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping

from .corrected import MAX_ORDER, gamma_from_power_sums
from .pmf import InputError

__all__ = [
    "RationalPolynomial",
    "GammaTable",
    "stirling_unsigned",
    "solve_gamma_table",
    "gamma_floats",
    "q_polynomial",
    "c_constant",
    "c_constant_series",
    "PUBLISHED_GAMMA_TABLE",
    "SUSPECT_PUBLISHED_ENTRIES",
    "compare_with_published",
]


@dataclass(frozen=True)
class RationalPolynomial:
    """Polynomial with exact rational coefficients, index = degree."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        c = [Fraction(x) for x in self.coeffs]
        while len(c) > 1 and c[-1] == 0:
            c.pop()
        if not c:
            c = [Fraction(0)]
        object.__setattr__(self, "coeffs", tuple(c))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __add__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [Fraction(0)] * (n - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            a[i] += c
        return RationalPolynomial(tuple(a))

    def scale(self, s) -> "RationalPolynomial":
        s = Fraction(s)
        return RationalPolynomial(tuple(c * s for c in self.coeffs))

    def eval_float(self, x: float) -> float:
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * x + float(c)
        return acc


def stirling_unsigned(m: int, k: int) -> int:
    """A_k(m-1): sum of k-fold products over 1 <= i_1 < ... < i_k <= m-1.

    These are the unsigned Stirling numbers of the first kind arranged as
    expansion coefficients of (n)_m in powers of n; A_k = 0 for k >= m and
    A_0 = 1.  Exact integer arithmetic, no overflow possible.
    """
    if m < 0 or k < 0:
        raise ValueError("require m >= 0 and k >= 0")
    if k == 0:
        return 1
    if k >= m:
        return 0
    e = [0] * (k + 1)
    e[0] = 1
    for v in range(1, m):
        for j in range(min(k, v), 0, -1):
            e[j] += v * e[j - 1]
    return e[k]


@dataclass(frozen=True)
class GammaTable:
    """Correction coefficients gamma_j(nu), exact polynomials in 1/n.

    ``entries[j]`` is a RationalPolynomial in the variable 1/n (coefficient
    index = power of 1/n, constant term always zero), for j = 2..2 nu - 2.

    With a_k / L the coefficients c_k of gamma_j over their least common
    denominator L and D its degree, gamma_j(n) = (sum_k a_k n^(D-k)) /
    (L n^D): the constructor computes the a_k and L once, and ``gamma_at``
    and ``gamma_floats`` evaluate the numerator by Horner's rule in integers.
    """

    nu: int
    entries: Mapping[int, RationalPolynomial]

    def __post_init__(self) -> None:
        integers = {}
        for j, poly in self.entries.items():
            lcd = math.lcm(*(c.denominator for c in poly.coeffs))
            integers[j] = (tuple(c.numerator * (lcd // c.denominator) for c in poly.coeffs), lcd)
        # not a field: equality, hashing and the JSON export read ``entries``
        object.__setattr__(self, "_integers", integers)

    def _ratio(self, j: int, n: int) -> tuple[int, int]:
        """gamma_j(n) as (numerator, denominator), both integers."""
        coeffs, lcd = self._integers[j]
        num = 0
        for a in coeffs:
            num = num * n + a
        return num, lcd * n ** (len(coeffs) - 1)

    def gamma_at(self, j: int, n: int) -> Fraction:
        return Fraction(*self._ratio(j, n)) if j in self._integers else Fraction(0)

    def to_json_dict(self) -> dict:
        return {
            "nu": self.nu,
            "gamma": {
                str(j): [[k, str(c)] for k, c in enumerate(poly.coeffs) if c != 0]
                for j, poly in sorted(self.entries.items())
            },
        }


@functools.cache
def solve_gamma_table(nu: int) -> GammaTable:
    """Exact gamma_j(nu) for the equal-probability corrected measure.

    By the weight grading of the module docstring, the n^(-w) coefficient of
    gamma_j is gamma_j at order w + 1 minus gamma_j at order w, both from
    ``gamma_from_power_sums`` on unit power sums.  An order outside
    2..MAX_ORDER raises InputError.
    """
    if not 2 <= nu <= MAX_ORDER:
        raise InputError(f"nu must be between 2 and {MAX_ORDER}, got {nu}")
    by_order = [gamma_from_power_sums([Fraction(1)] * nu, order) for order in range(1, nu + 1)]
    polys = {j: RationalPolynomial((0, *(b.get(j, 0) - a.get(j, 0)
                                         for a, b in zip(by_order, by_order[1:]))))
             for j in range(2, 2 * nu - 1)}
    # read-only: the cached table is shared by every caller
    table = GammaTable(nu, MappingProxyType(polys))
    if table.entries[2].coeffs != (Fraction(0), Fraction(1, 2)):
        raise AssertionError("gamma_2 must equal 1/(2n) for every order")
    return table


def gamma_floats(nu: int, n: int) -> dict[int, float]:
    """gamma_j(nu) evaluated at a concrete n, as floats keyed by degree j.

    Each is one division of the integers of ``GammaTable._ratio``, which
    CPython rounds correctly, as it does ``float(Fraction)``: the floats are
    gamma_j(n) rounded to nearest.  An n that is not an integer >= 1 has no
    binomial and raises ValueError.
    """
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    if nu == 1:
        return {}
    table = solve_gamma_table(nu)
    ratios = {j: table._ratio(j, int(n)) for j in sorted(table.entries)}
    return {j: num / den for j, (num, den) in ratios.items()}


# Coefficient listing as printed in the published table for this correction
# family (j: {power of 1/n: coefficient}); columns for successive orders
# extend each other, so the cumulative form below carries the whole table.
PUBLISHED_GAMMA_TABLE: dict[int, dict[int, Fraction]] = {
    2: {1: Fraction(1, 2)},
    3: {2: Fraction(-1, 3)},
    4: {2: Fraction(-1, 8), 3: Fraction(1, 4)},
    5: {3: Fraction(1, 6), 4: Fraction(-1, 5)},
    6: {3: Fraction(1, 48), 4: Fraction(-13, 72), 5: Fraction(1, 6)},
    7: {4: Fraction(-1, 24), 5: Fraction(11, 60), 6: Fraction(-1, 7)},
    8: {4: Fraction(-1, 384), 5: Fraction(17, 388), 6: Fraction(-29, 160)},
    9: {5: Fraction(1, 144), 6: Fraction(-59, 810)},
    10: {5: Fraction(1, 3840), 6: Fraction(-7, 576)},
    11: {6: Fraction(-1, 1152)},
    12: {6: Fraction(-1, 46080)},
}

# Entries flagged as likely misprints (solver output is authoritative either
# way; the flag only distinguishes "known suspect" from "new disagreement").
SUSPECT_PUBLISHED_ENTRIES: frozenset[tuple[int, int]] = frozenset({(8, 5)})


def compare_with_published(nu: int) -> list[dict]:
    """Diff the solved table for order nu against the published listing.

    Returns one record per disagreeing (j, 1/n-power) cell with both values
    as exact rational strings.  Agreement everywhere yields an empty list.
    """
    table = solve_gamma_table(nu)
    mismatches = []
    for j in range(2, 2 * nu - 1):
        poly = table.entries.get(j)
        solved = {
            k: c for k, c in enumerate(poly.coeffs if poly is not None else ()) if c != 0
        }
        printed = {k: c for k, c in PUBLISHED_GAMMA_TABLE.get(j, {}).items() if k <= nu - 1}
        for k in sorted(set(solved) | set(printed)):
            a, b = printed.get(k), solved.get(k)
            if a != b:
                mismatches.append({
                    "j": j,
                    "power": k,
                    "published": str(a) if a is not None else None,
                    "computed": str(b) if b is not None else None,
                    "flagged_suspect": (j, k) in SUSPECT_PUBLISHED_ENTRIES,
                })
    return mismatches


def q_polynomial(nu: int) -> RationalPolynomial:
    """Q_nu, exactly, from the integral recurrence

        Q_(nu+1)(lam) = 2 Q_nu(lam) + 2 int_0^1 y^(nu+2) (2 lam y - 1) Q_nu(lam y) dy

    starting from Q_0 = 1.  On coefficients: a term c lam^i contributes
    c lam^i (2 lam / (nu+i+4) - 1 / (nu+i+3)) to the integral.
    """
    if nu < 0:
        raise ValueError("nu must be >= 0")
    q = RationalPolynomial((Fraction(1),))
    for s in range(nu):
        parts = [Fraction(0)] * (q.degree + 2)
        for i, c in enumerate(q.coeffs):
            parts[i + 1] += c * Fraction(2, s + i + 4)
            parts[i] -= c * Fraction(1, s + i + 3)
        q = q.scale(2) + RationalPolynomial(tuple(parts)).scale(2)
    return q


_SERIES_REL_TOL = 1e-14  # c_constant_series stops at a term this small next to the sum


def c_constant_series(nu: int, lam: float) -> tuple[float, float]:
    """The distance constant as the series (1/2) sum_m (2 lam)^m / m! A_nu(m-1).

    Returns (value, tail_bound); the tail bound is twice the last retained
    term, valid once consecutive terms certifiably at least halve.
    """
    if nu < 1:
        raise ValueError("nu must be >= 1")
    if not 0 < lam < math.inf:
        raise ValueError(f"lam must be finite and positive, got {lam!r}")
    total = 0.0
    w = 1.0  # (2 lam)^m / m!
    m = 0
    last = math.inf
    row = [1] + [0] * nu  # stirling_unsigned(m, k) for k = 0..nu, one step per m
    while True:
        term = w * row[nu] if m >= nu else 0.0
        total += term
        w *= 2.0 * lam / (m + 1)
        for j in range(min(nu, m), 0, -1):
            row[j] += m * row[j - 1]
        m += 1
        if m > nu + 2:  # a term 0 here has underflowed, as all later ones do
            if m > 4 * lam + 2 * nu + 4 and term <= 0.5 * last and term <= _SERIES_REL_TOL * total:
                return 0.5 * total, term
            last = term
        if m > 10_000:
            raise RuntimeError("series failed to converge")


def c_constant(nu: int, lam: float) -> float:
    """Closed form lam^(nu+1) e^(2 lam) Q_(nu-1)(lam).

    Cross-checked against the Stirling-number series before returning; a
    disagreement beyond the series tail bound is an internal error.  Raises
    OverflowError when the value leaves binary64.
    """
    if nu < 1:
        raise ValueError("nu must be >= 1")
    if not 0 < lam < math.inf:
        raise ValueError(f"lam must be finite and positive, got {lam!r}")
    value = lam ** (nu + 1) * math.exp(2.0 * lam) * q_polynomial(nu - 1).eval_float(lam)
    if not math.isfinite(value):
        raise OverflowError(f"C_{nu}(lam) exceeds binary64 at lam = {lam!r}")
    series, tail = c_constant_series(nu, lam)
    if abs(value - series) > tail + 1e-10 * abs(value):
        raise RuntimeError(
            f"closed form {value} and series {series} disagree beyond tolerance"
        )
    return value
