"""Computable verification of the inequalities behind the corrected measures.

Every check produces a BoundReport with both sides, a holds flag and the
slack, so a failing instance is immediately inspectable.  "Holds" always
means lhs <= rhs + tol with tol = 1e-12 absolute plus 1e-9 relative;
equality cases are tested separately (and much more tightly) in the test
suite.

The central objects are the theta quantities

    theta_j(m, s) = sum_{k=j}^m (-1)^(k-j) C(m, k) lambda_(k+s) lam^(m-k),

which are nonnegative for probabilities in [0, 1] and drive the two-sided
factorial moment sandwich

    lam^m - (m)_2/2 l2 lam^(m-2)  <=  mu_m  <=  mu_m(order-3 measure)

and the refined lower bound carrying the lambda_4 correction.  On top of
those sit the order-2 and order-3 distance bounds and the empirical
convergence-rate fits for the equal-probability case.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .charlier import falling_factorial
from .corrected import build_phi_nu, spec_for_order, spec_phi2, spec_phi3, spec_poisson
from .distances import d2_exact_product, hellinger, sn_distance
from .pmf import (
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
    "theta",
    "check_sandwich",
    "check_lower3",
    "check_order2_bound",
    "check_order3_bound",
    "check_classic_chain",
    "fit_rate",
    "fit_loglog",
    "check_simplified_order3",
    "simplified_order3_differences",
    "random_prob_vectors",
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
    def make(name: str, lhs: float, rhs: float, digest: str) -> "BoundReport":
        tol = ABS_TOL + REL_TOL * max(abs(lhs), abs(rhs))
        return BoundReport(name, lhs, rhs, lhs <= rhs + tol, rhs - lhs, tol, digest)

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "holds": self.holds,
            "slack": self.slack,
            "tolerance": self.tolerance,
            "inputs_digest": self.inputs_digest,
        }


@dataclass(frozen=True)
class RateFit:
    """Least-squares exponent of distance against n on a log-log grid."""

    order: int | str
    grid: tuple[int, ...]
    distances: tuple[float, ...]
    slope: float
    intercept: float
    r_squared: float
    note: str = ""  # dropped points and an unreliable fit, "" when neither

    def __post_init__(self) -> None:
        g = self.grid
        if any(b <= a for a, b in zip(g, g[1:])):
            raise ValueError("grid must be strictly increasing")
        if any(d <= 0 for d in self.distances):
            raise ValueError("fit refused: distances must be strictly positive")

    def to_json_dict(self) -> dict:
        return {
            "order": self.order,
            "grid": list(self.grid),
            "distances": list(self.distances),
            "slope": self.slope,
            "intercept": self.intercept,
            "r_squared": self.r_squared,
            "note": self.note,
        }


def theta(j: int, m: int, s: int, ps: PowerSums) -> float:
    """The alternating power-sum combination theta_j(m, s).

    Requires power sums up to order m + s.  The value is provably
    nonnegative; anything below -1e-12 of the term scale signals a numerics
    problem and raises.
    """
    if not 0 <= j <= m:
        raise ValueError("require 0 <= j <= m")
    if s < 1:
        raise ValueError("require s >= 1")
    if ps.order < m + s:
        raise ValueError(f"power sums up to order {m + s} needed, have {ps.order}")
    lam = ps.lam
    terms = [(-1.0) ** (k - j) * _comb(m, k) * ps[k + s] * _power(lam, m - k, m)
             for k in range(j, m + 1)]
    value = math.fsum(terms)
    scale = max(1.0, math.fsum(abs(t) for t in terms))
    if value < -1e-12 * scale:
        raise RuntimeError(f"theta_{j}({m},{s}) = {value} < 0 beyond numeric slack")
    return value


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
    """Two-sided factorial moment sandwich for m = 1..mmax."""
    if mmax < 1:
        raise ValueError("mmax must be >= 1")
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
    """Refined lower bound (with the lambda_4 term) for m = 1..mmax."""
    if mmax < 1:
        raise ValueError("mmax must be >= 1")
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
    dh = hellinger(poisson_binomial_pmf(p), build_phi_nu(pois, label="phi1").pmf).value
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

    Distances that underflowed to 0 are dropped, and an r^2 below 0.98 marks
    the fit unreliable; the fit's ``note`` says so.
    """
    pts = [(n, d) for n, d in zip(grid, distances) if d > 0.0]
    notes = []
    if len(pts) < len(grid):
        notes.append(f"dropped {len(grid) - len(pts)} underflowed distance(s)")
    if len(pts) < 3:
        raise ValueError("fit refused: fewer than 3 usable points")
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
    spec = spec_for_order(p, order)
    if metric not in ("tv", "d2"):
        raise ValueError(f"unknown metric: {metric!r}")
    return sn_distance(p, spec, metric).value


def _checked_grid(n_grid: Sequence[int]) -> list[int]:
    """The grid as a list, or ValueError naming it unless its sizes are at
    least 1 and strictly increasing."""
    grid = list(n_grid)
    if any(n < 1 for n in grid) or any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError(f"grid {grid} must hold sizes >= 1 in strictly increasing order")
    return grid


def fit_rate(lam: float, orders: Iterable[int | str], n_grid: Sequence[int],
             metric: str = "d2") -> list[RateFit]:
    """Empirical convergence exponents on an equal-probability grid.

    For each order, builds the corrected measure at every n in the grid,
    computes the chosen metric against Bin(n, lam/n), and fits
    log(distance) against log(n).  Grid entries must be strictly increasing
    and at least 2 lam so the probabilities stay small.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    grid = _checked_grid(n_grid)
    if any(n < 2 * lam for n in grid):
        raise ValueError("every grid entry must be >= 2*lam")
    fits = []
    for order in orders:
        distances = [rate_distance(order, n, lam, metric) for n in grid]
        fits.append(fit_loglog(grid, distances, order))
    return fits


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

    Refuses (ValueError) a mean that is not finite and positive, a grid that
    is not strictly increasing sizes >= 1 reaching 10^3, and a size n < lam,
    whose lam/n is no probability.

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
        raise ValueError("lam must be finite and positive")
    grid = _checked_grid(n_grid)
    if max(grid) < 1000:
        raise ValueError("grid must reach at least 10^3")
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


def check_simplified_order3(lam: float, n_grid: Sequence[int] | None = None) -> RateFit:
    """Rate probe for the simplified order-3 measure at the origin.

    Fits f_n(0) - simplified(0) along the grid (``simplified_order3_differences``);
    n^2 times the last entry should approach e^(-lam) lam^4 / 8, exposing that
    the simplified variant is second-order only.
    """
    grid = (10, 100, 1000, 10_000) if n_grid is None else n_grid
    return fit_loglog(grid, simplified_order3_differences(lam, grid), "3t")


def random_prob_vectors(count: int, nmax: int = 30, pmax: float = 0.5,
                        seed: int = 0) -> list[ProbVector]:
    """Reproducible corpus of probability vectors for the property suites.

    Sizes are uniform on 1..nmax and entries uniform on [0, pmax); one seed
    always draws the same vectors.  Report digests hash the probabilities
    drawn, not the seed.
    """
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(1, nmax + 1))
        out.append(ProbVector(tuple(rng.uniform(0.0, pmax, n).tolist())))
    return out
