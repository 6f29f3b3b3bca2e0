"""Computable verification of the inequalities behind the corrected measures.

Every check produces a BoundReport with both sides, a holds flag and the
slack, so a failing instance is immediately inspectable.  "Holds" always
means lhs <= rhs + tol with tol = 1e-12 absolute plus 1e-9 relative, set by
``BoundReport.make`` alone; equality cases are tested separately (and much
more tightly) in the test suite.

The central objects are the theta quantities

    theta_j(m, s) = sum_{k=j}^m (-1)^(k-j) C(m, k) lambda_(k+s) lam^(m-k),

which are nonnegative for probabilities in [0, 1] and drive the two-sided
factorial moment sandwich

    lam^m - (m)_2/2 l2 lam^(m-2)  <=  mu_m  <=  mu_m(order-3 measure)

and the refined lower bound carrying the lambda_4 correction.  On top of
those sit the order-2 and order-3 distance bounds and the empirical
convergence-rate fits for the equal-probability case.

``check_theta`` decides theta >= 0 like every other check: its report is
-e <= theta, e the proven bound on theta's rounding, under the same rule.
``check_simplified_order3`` (Remark 2) builds the report
``simplified-order3-limit-gap``, |n^2 d_n - e^(-lam) lam^4/8| <= 5% of that
limit for the last difference d_n its fit kept.  A rate fit refuses too few
usable points with ``FitRefused``, a ValueError.  An order, index, cut or
grid outside its documented range is refused with ``pmf.InputError``
before any work.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .corrected import (_checked_order, build_phi_nu, spec_for_order, spec_phi2, spec_phi3,
                        spec_poisson)
from .distances import _SLACK, _U, d2_exact_product, hellinger, sn_distance
from .pmf import (
    InputError,
    PowerSums,
    ProbVector,
    _sn,
    equal_probs,
    factorial_moments_sn,
    poisson_binomial_pmf,
    power_sums,
)

__all__ = [
    "BoundReport",
    "RateFit",
    "FitRefused",
    "SimplifiedOrder3Probe",
    "theta",
    "check_theta",
    "check_sandwich",
    "check_lower3",
    "check_order2_bound",
    "check_order3_bound",
    "check_classic_chain",
    "fit_rate",
    "fit_loglog",
    "check_simplified_order3",
    "simplified_order3_differences",
    "falling_factorial",
]

ABS_TOL = 1e-12
REL_TOL = 1e-9


def _digest(payload: dict) -> str:
    """First 16 hex digits of the SHA-256 of ``payload`` as sorted-key JSON.

    A probability vector enters it as ``_probs_hex``, the bytes of its
    entries (zeros dropped at construction stay out): printing each float's
    repr instead would cost more than the check it labels at large n.
    """
    canon = json.dumps(payload, sort_keys=True, default=str).encode()
    return hashlib.sha256(canon).hexdigest()[:16]


def _probs_hex(p: ProbVector) -> str:
    """Lowercase hex of the probabilities' little-endian binary64 bytes, read
    off the vector's shared float array (``pmf._sn``)."""
    return np.asarray(_sn(p).floats(), dtype="<f8").tobytes().hex()


@dataclass(frozen=True)
class BoundReport:
    """One checked inequality lhs <= rhs with its slack and tolerance.

    ``make`` is the only builder: ``holds`` means lhs <= rhs + ``tolerance``,
    ``slack`` is rhs - lhs, and ``tolerance`` is atol + rtol max(|lhs|, |rhs|).
    ``inputs_digest`` is ``_digest`` of the check's inputs: computed once per
    check call and shared by every report that call returns.
    """

    name: str
    lhs: float
    rhs: float
    holds: bool
    slack: float
    tolerance: float
    inputs_digest: str

    @staticmethod
    def make(name: str, lhs: float, rhs: float, digest: str,
             atol: float = ABS_TOL, rtol: float = REL_TOL) -> "BoundReport":
        """The report of lhs <= rhs, or OverflowError naming it when a side,
        the slack or the tolerance is not finite: an overflowed bound
        compares as nothing."""
        slack = rhs - lhs
        tol = atol + rtol * max(abs(lhs), abs(rhs))
        if not all(map(math.isfinite, (lhs, rhs, slack, tol))):
            raise OverflowError(f"{name} leaves binary64: lhs = {lhs!r}, rhs = {rhs!r}, "
                                f"slack = {slack!r}, tolerance = {tol!r}")
        return BoundReport(name, lhs, rhs, lhs <= rhs + tol, slack, tol, digest)


class FitRefused(ValueError):
    """A rate fit's refusal: fewer than 3 usable points to fit."""


@dataclass(frozen=True)
class RateFit:
    """Least-squares exponent of distance against n on a log-log grid, over
    the sizes and positive distances ``fit_loglog`` kept."""

    order: int | str
    grid: tuple[int, ...]
    distances: tuple[float, ...]
    slope: float
    intercept: float
    r_squared: float
    note: str = ""  # dropped points and an unreliable fit, "" when neither


def theta(j: int, m: int, s: int, ps: PowerSums) -> float:
    """The alternating power-sum combination theta_j(m, s), nonnegative for
    probabilities in [0, 1].  Requires 0 <= j <= m and s >= 1 (InputError)
    and power sums up to order m + s; its rounding is bounded by
    ``check_theta``, which decides the sign."""
    return _theta(j, m, s, ps, 0)[0]


def _theta(j: int, m: int, s: int, ps: PowerSums, n: int) -> tuple[float, float]:
    """theta_j(m, s) and a bound e on its gap to the exact value, for the
    power sums of n probabilities.

    The term of index k is +-C(m, k) lambda_(k+s) lam^(m-k), with lam^i from
    the running product of ``ps.lam`` (OverflowError naming the power where
    it leaves binary64) and C(m, k) correctly rounded.  Counting one rounding
    of C, k + s of lambda_(k+s) (``power_sums``), 2i - 1 of lam^i and two
    products, each computed term is within g = g_(2m+s+2) of the exact one,
    plus D_k = 2 C(m, k) max(lam^i, 1) (A + (i + 2) 2^-1075) for what
    underflows: lambda_(k+s)'s own term A <= (1 + u) n (m + s) 2^-1075, and
    at most 2^-1075 for each product, scaled by the later factors (lam^i
    underflows only for lam < 1).  Since |exact| <= (|t| + D_k)/(1 - g), the
    sum of the terms is within (g sum |t| + sum D_k)/(1 - g), and fsum adds
    u |theta|.  Each D_k is at most (n + 1)(m + s + 2) 2^-1074 C(m, k)
    max(lam^i, 1); ``under`` takes 2^-1073 in its place, twice that, which
    covers the computed power in place of the exact one and the rounding of
    ``under`` where it is subnormal.  ``_SLACK`` covers the rest of the
    bound's arithmetic.
    """
    _check_indices(j, m, s)
    if ps.order < m + s:
        raise ValueError(f"power sums up to order {m + s} needed, have {ps.order}")
    powers = [1.0]
    for i in range(1, m - j + 1):
        powers.append(powers[-1] * ps.lam)
        if powers[-1] == math.inf:
            raise OverflowError(f"lam^{i} exceeds binary64 at order m = {m}")
    terms = [(-1.0) ** (k - j) * _comb(m, k) * ps[k + s] * powers[m - k]
             for k in range(j, m + 1)]
    tiny = (n + 1) * (m + s + 2) * 2.0**-1073
    under = math.fsum(tiny * _comb(m, k) * max(powers[m - k], 1.0) for k in range(j, m + 1))
    g = (2 * m + s + 2) * _U / (1.0 - (2 * m + s + 2) * _U)
    value = math.fsum(terms)
    error = (g * math.fsum(map(abs, terms)) + under) / (1.0 - g) + _U * abs(value)
    return value, error * _SLACK


def _check_indices(j: int, m: int, s: int) -> None:
    """InputError, naming the first index out of range, unless 0 <= j <= m
    and s >= 1."""
    for name, value, low in (("j", j, 0), ("m", m, 0), ("s", s, 1)):
        if value < low:
            raise InputError(f"{name} must be >= {low}, got {value}")
    if j > m:
        raise InputError(f"j must be <= m, got {j} > {m}")


def check_theta(p: ProbVector, at: tuple[int, int, int] | None = None) -> list[BoundReport]:
    """One report -e <= theta_j(m, s), e its rounding bound (``_theta``):
    at ``at`` = (j, m, s), checked first (``_check_indices``), or else at the
    first (j, m, s) over m = 0..8, j = 0..m, s = 1..4 whose theta is least."""
    if at is not None:
        _check_indices(*at)
    digest = _digest({"probs": _probs_hex(p)})
    ps = power_sums(p, 12 if at is None else at[1] + at[2])
    grid = [at] if at else [(j, m, s) for m in range(9) for j in range(m + 1) for s in range(1, 5)]
    value, error, (j, m, s) = min(((*_theta(*t, ps, p.n), t) for t in grid), key=lambda r: r[0])
    name = "theta-min" if at is None else "theta"
    return [BoundReport.make(f"{name}[j={j},m={m},s={s}]", -error, value, digest)]


def falling_factorial(k: int, m: int) -> float:
    """(k)_m = k (k-1) ... (k-m+1), with (k)_0 = 1; zero when m > k >= 0."""
    if k < 0 or m < 0:
        raise ValueError("falling factorial requires k >= 0 and m >= 0")
    out = 1.0
    for i in range(m):
        out *= k - i
    return out


def _power(lam: float, k: int, m: int) -> float:
    """lam^k in a term of order m, or OverflowError naming both."""
    try:
        return lam**k
    except OverflowError:
        raise OverflowError(f"lam^{k} exceeds binary64 at order m = {m}") from None


def _comb(m: int, k: int) -> float:
    """C(m, k) as a float, or OverflowError naming it and the order."""
    try:
        return float(math.comb(m, k))
    except OverflowError:
        raise OverflowError(f"C({m}, {k}) exceeds binary64 at order m = {m}") from None


def _moment_term(m: int, j: int, divisor: float, coef: float, lam: float) -> float:
    """(m)_j / divisor * coef * lam^(m-j), safe when the falling factorial is 0."""
    f = falling_factorial(m, j)
    if f == 0.0:
        return 0.0
    return f / divisor * coef * _power(lam, m - j, m)


def sandwich_sides(ps: PowerSums, m: int) -> tuple[float, float]:
    """Lower and upper closed-form bounds on mu_m (orders 2 and 3)."""
    lam = ps.lam
    lower = _power(lam, m, m) - _moment_term(m, 2, 2.0, ps[2], lam)
    upper = (lower + _moment_term(m, 3, 3.0, ps[3], lam)
             + _moment_term(m, 4, 8.0, ps[2] ** 2, lam))
    return lower, upper


def refined_lower(ps: PowerSums, m: int) -> float:
    """The sharper lower bound carrying the lambda_4 correction."""
    lam = ps.lam
    _, upper = sandwich_sides(ps, m)
    f4 = falling_factorial(m, 4)
    if f4 == 0.0:
        return upper
    return upper - f4 * falling_factorial(m, 2) / 48.0 * ps[4] * _power(lam, m - 4, m)


def check_sandwich(p: ProbVector, mmax: int) -> list[BoundReport]:
    """Two-sided factorial moment sandwich for m = 1..mmax (InputError unless
    mmax >= 1)."""
    if mmax < 1:
        raise InputError(f"mmax must be >= 1, got {mmax}")
    ps = power_sums(p, 4)
    mu = factorial_moments_sn(p, mmax)
    digest = _digest({"probs": _probs_hex(p), "mmax": mmax})
    reports = []
    for m in range(1, mmax + 1):
        lower, upper = sandwich_sides(ps, m)
        value = mu(m)
        reports.append(BoundReport.make(f"mu-lower2[m={m}]", lower, value, digest))
        reports.append(BoundReport.make(f"mu-upper3[m={m}]", value, upper, digest))
    return reports


def check_lower3(p: ProbVector, mmax: int) -> list[BoundReport]:
    """Refined lower bound (with the lambda_4 term) for m = 1..mmax
    (InputError unless mmax >= 1)."""
    if mmax < 1:
        raise InputError(f"mmax must be >= 1, got {mmax}")
    ps = power_sums(p, 4)
    mu = factorial_moments_sn(p, mmax)
    digest = _digest({"probs": _probs_hex(p), "mmax": mmax})
    return [
        BoundReport.make(f"mu-lower-refined[m={m}]", refined_lower(ps, m), mu(m), digest)
        for m in range(1, mmax + 1)
    ]


def check_order2_bound(p: ProbVector) -> list[BoundReport]:
    """The order-2 distance bound chain, plus the classical comparison.

    Reports d2(f_n, order-2) <= (4/3 l3 + l2^2) e^(2 lam) <= (4/3 + lam)
    e^(2 lam) l3, the Cauchy step l2^2 <= lam*l3 the chain rests on, and the
    classical Poisson rate d_tv(f_n, Poisson) <= (1 - e^-lam)/lam * l2 for
    contrast.
    """
    ps = power_sums(p, 3)
    lam = ps.lam
    digest = _digest({"probs": _probs_hex(p)})
    dist = d2_exact_product(p, spec_phi2(p))
    rhs1 = (4.0 / 3.0 * ps[3] + ps[2] ** 2) * math.exp(2.0 * lam)
    rhs2 = (4.0 / 3.0 + lam) * math.exp(2.0 * lam) * ps[3]
    dtv = sn_distance(p, spec_poisson(lam), "tv")
    return [
        BoundReport.make("d2-bound-order2", dist.value, rhs1, digest),
        BoundReport.make("d2-bound-order2-weaker", rhs1, rhs2, digest),
        BoundReport.make("cauchy-l2sq-le-lam-l3", ps[2] ** 2, lam * ps[3], digest),
        BoundReport.make("tv-poisson-classic-upper", dtv.value,
                         (1.0 - math.exp(-lam)) / lam * ps[2], digest),
    ]


def check_order3_bound(p: ProbVector) -> list[BoundReport]:
    """The order-3 distance bound d2 <= (2/3)(lam^2+4lam+3) e^(2lam) l4."""
    ps = power_sums(p, 4)
    lam = ps.lam
    digest = _digest({"probs": _probs_hex(p)})
    dist = d2_exact_product(p, spec_phi3(p))
    rhs = 2.0 / 3.0 * (lam**2 + 4.0 * lam + 3.0) * math.exp(2.0 * lam) * ps[4]
    return [BoundReport.make("d2-bound-order3", dist.value, rhs, digest)]


def check_classic_chain(p: ProbVector) -> list[BoundReport]:
    """Classical Poisson approximation facts for S_n against Poisson(lam).

    Bundles the two-sided total variation rate, the Hellinger bound (which
    requires every p_i < 1), the Hellinger-to-tv chain, tv <= d2 and the
    Wasserstein chain d_W <= d2tilde <= 2(1+lam) e^(2lam) l2.
    """
    if any(x >= 1.0 for x in p.probs):
        raise ValueError("the Hellinger bound requires every probability below 1")
    ps = power_sums(p, 2)
    lam = ps.lam
    digest = _digest({"probs": _probs_hex(p)})
    pois = spec_poisson(lam)
    dtv, dw, d2v, d2t = (sn_distance(p, pois, metric).value
                         for metric in ("tv", "wass", "d2", "d2tilde"))
    dh = hellinger(poisson_binomial_pmf(p), build_phi_nu(pois).pmf).value
    hel_rhs = math.fsum(x**3 / (1.0 - x) for x in p.probs) / lam
    return [
        BoundReport.make("tv-poisson-classic-lower",
                         min(1.0, 1.0 / lam) / 32.0 * ps[2], dtv, digest),
        BoundReport.make("tv-poisson-classic-upper", dtv,
                         (1.0 - math.exp(-lam)) / lam * ps[2], digest),
        BoundReport.make("hellinger-sq-bound", dh**2, hel_rhs, digest),
        BoundReport.make("tv-le-hellinger-chain", dtv,
                         dh * math.sqrt(max(0.0, 2.0 - dh**2)), digest),
        BoundReport.make("tv-le-d2", dtv, d2v, digest),
        BoundReport.make("wasserstein-le-d2tilde", dw, d2t, digest),
        BoundReport.make("d2tilde-classic-bound", d2t,
                         2.0 * (1.0 + lam) * math.exp(2.0 * lam) * ps[2], digest),
    ]


def fit_loglog(grid: Sequence[int], distances: Sequence[float],
               order: int | str) -> RateFit:
    """Ordinary least squares of log(distance) on log(n).

    The grid must hold strictly increasing sizes >= 1 (InputError).  Only
    positive distances are fitted: the fit's ``note`` counts the distances
    that underflowed to 0 and the negative values it dropped, and says when
    an r^2 below 0.98 marks the fit unreliable.  Fewer than 3 points left is
    refused with ``FitRefused``.
    """
    pts = [(n, d) for n, d in zip(_checked_grid(grid), distances) if d > 0.0]
    zeros = sum(d == 0.0 for d in distances)
    negatives = sum(d < 0.0 for d in distances)
    notes = [f"dropped {k} {what}" for k, what in
             ((zeros, "underflowed distance(s)"), (negatives, "negative value(s)")) if k]
    if len(pts) < 3:
        raise FitRefused("fit refused: fewer than 3 usable points")
    xs = [math.log(n) for n, _ in pts]
    ys = [math.log(d) for _, d in pts]
    k = len(pts)
    mx = math.fsum(xs) / k
    my = math.fsum(ys) / k
    sxx = math.fsum((x - mx) ** 2 for x in xs)
    sxy = math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = my - slope * mx
    ss_res = math.fsum((y - intercept - slope * x) ** 2 for x, y in zip(xs, ys))
    ss_tot = math.fsum((y - my) ** 2 for y in ys)
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    if r2 < 0.98:
        notes.append(f"log-log fit for order {order} unreliable (r^2 = {r2:.4f})")
    return RateFit(order, tuple(n for n, _ in pts), tuple(d for _, d in pts),
                   slope, intercept, r2, "; ".join(notes))


def rate_distance(order: int | str, n: int, lam: float, metric: str) -> float:
    """One point of the rate curve: the metric between Bin(n, lam/n) and the
    corrected measure of the given order."""
    p = equal_probs(n, lam)
    return sn_distance(p, spec_for_order(p, order), metric).value


def _checked_grid(n_grid: Sequence[int]) -> list[int]:
    """The grid as a list, or InputError naming it unless its sizes are at
    least 1 and strictly increasing."""
    grid = list(n_grid)
    if any(n < 1 for n in grid) or any(b <= a for a, b in zip(grid, grid[1:])):
        raise InputError(f"grid {grid} must hold sizes >= 1 in strictly increasing order")
    return grid


def fit_rate(lam: float, orders: Iterable[int | str], n_grid: Sequence[int],
             metric: str = "d2") -> list[RateFit]:
    """Empirical convergence exponents on an equal-probability grid.

    For each order, builds the corrected measure at every n in the grid,
    computes the chosen metric against Bin(n, lam/n), and fits
    log(distance) against log(n) (``fit_loglog``).  The mean must be finite
    and positive and the metric ``tv`` or ``d2`` (ValueError), the grid
    entries strictly increasing sizes >= 1 and each order 1..MAX_ORDER or
    "3t" (InputError, in that order), and every size at least 2 lam so the
    probabilities stay small (ValueError); each is checked before any point
    is computed.
    """
    if not 0 < lam < math.inf:
        raise ValueError(f"lam must be finite and positive, got {lam!r}")
    if metric not in ("tv", "d2"):
        raise ValueError(f"unknown metric: {metric!r}")
    grid = _checked_grid(n_grid)
    orders = list(orders)
    for order in orders:
        _checked_order(order)
    if any(n < 2 * lam for n in grid):
        raise ValueError("every grid entry must be >= 2*lam")
    return [fit_loglog(grid, [rate_distance(order, n, lam, metric) for n in grid], order)
            for order in orders]


def _series(first: float, ratio, k: int) -> float:
    """Sum of first, first*ratio(k), first*ratio(k)*ratio(k+1), ... until a term
    no longer moves the sum (or vanishes)."""
    total, term = 0.0, first
    while abs(term) > 2.0**-53 * abs(total):
        total += term
        term *= ratio(k)
        k += 1
    return total


def simplified_order3_differences(lam: float, n_grid: Sequence[int]) -> list[float]:
    """f_n(0) - simplified(0) at each n of the grid, for Bin(n, lam/n).

    Refuses a mean that is not finite and positive (ValueError), a grid that
    is not strictly increasing sizes >= 1 reaching 10^3 (InputError), and a
    size n < lam, whose lam/n is no probability (ValueError).

    With a = lam/n, f_n(0) = (1 - a)^n = e^(-lam) e^x for
    x = lam + n log(1 - a) = -lam sum_{k>=2} a^(k-1)/k, and the simplified
    mass at 0 is e^(-lam)(1 - lam a/2 - lam a^2/3), whose last two terms are
    the series' first two.  So the difference is e^(-lam)((e^x - 1 - x) + r)
    with r = -lam sum_{k>=4} a^(k-1)/k, and the two masses, equal to about
    lam^4/(8 n^2), are never subtracted: both parts are summed as series
    where they are small (a <= 1/2, |x| <= 1), and |r| is about 2/n of
    e^x - 1 - x.  Past a = 1/2, x comes from the logarithm of (n - lam)/n,
    whose numerator is exact there (Sterbenz); at n = lam, f_n(0) = 0.
    """
    if not 0 < lam < math.inf:
        raise ValueError(f"lam must be finite and positive, got {lam!r}")
    grid = _checked_grid(n_grid)
    if max(grid) < 1000:
        raise InputError("grid must reach at least 10^3")
    if grid[0] < lam:
        raise ValueError(f"probability outside [0, 1]: {lam / grid[0]!r}")
    diffs = []
    for n in grid:
        a = lam / n
        if n == lam:
            diffs.append(-math.exp(-lam) * (1.0 - lam / 2.0 - lam / 3.0))
            continue
        if a <= 0.5:
            r = -lam * _series(a**3 / 4.0, lambda k: a * k / (k + 1), 4)
            x = r - lam * a / 2.0 - lam * a * a / 3.0
        else:
            x = lam + n * math.log((n - lam) / n)
            r = x + lam * a / 2.0 + lam * a * a / 3.0
        if abs(x) <= 1.0:
            ex = _series(x * x / 2.0, lambda k: x / (k + 1), 2)
        else:
            ex = math.expm1(x) - x
        diffs.append(math.exp(-lam) * (ex + r))
    return diffs


@dataclass(frozen=True)
class SimplifiedOrder3Probe:
    """Remark 2's probe: the fit of f_n(0) - simplified(0) against n, n^2
    times the last difference it kept, the limit e^(-lam) lam^4 / 8 that
    product approaches, and the report that the two are within 5%."""

    fit: RateFit
    n2_scaled_last: float
    limit: float
    report: BoundReport


def check_simplified_order3(lam: float,
                            n_grid: Sequence[int] | None = None) -> SimplifiedOrder3Probe:
    """Rate probe for the simplified order-3 measure at the origin.

    Fits f_n(0) - simplified(0) along the grid (``simplified_order3_differences``,
    by default 10, 100, 1000, 10^4); n^2 times the last kept difference should
    approach e^(-lam) lam^4 / 8, exposing that the simplified variant is
    second-order only.  The report ``simplified-order3-limit-gap`` reads
    |n^2 d_n - limit| <= limit / 20, its digest that of lam and the grid.
    """
    grid = (10, 100, 1000, 10_000) if n_grid is None else n_grid
    fit = fit_loglog(grid, simplified_order3_differences(lam, grid), "3t")
    scaled = fit.grid[-1]**2 * fit.distances[-1]
    limit = math.exp(-lam) * lam**4 / 8.0
    report = BoundReport.make("simplified-order3-limit-gap", abs(scaled - limit), 0.05 * limit,
                              _digest({"lambda": lam, "grid": list(grid)}))
    return SimplifiedOrder3Probe(fit, scaled, limit, report)
