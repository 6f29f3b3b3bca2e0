"""Exact machinery for sums of independent Bernoulli indicators.

Given success probabilities p_1..p_n, this module computes the exact
distribution of S_n = I_1 + ... + I_n (the Poisson-binomial distribution),
its factorial moments through elementary symmetric functions, the power sums
of the probabilities, and the plain Poisson mass function used as the base
of every corrected approximation.

All scalars are binary64.  Plain summations go through ``math.fsum`` so that
quantities of order n^-3 .. n^-4 survive with comfortable headroom.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

__all__ = [
    "ProbVector",
    "PowerSums",
    "SignedPmf",
    "FactorialMoments",
    "poisson_pmf",
    "poisson_binomial_pmf",
    "elementary_symmetric",
    "factorial_moments_sn",
    "power_sums",
    "poisson_tail_bound",
    "load_probs",
    "equal_probs",
]


@dataclass(frozen=True)
class ProbVector:
    """Success probabilities of independent 0-1 indicators.

    Entries equal to zero are exactly neutral for every downstream quantity
    and only bloat n, so they are dropped at construction; ``dropped_zeros``
    records how many were removed.  Entries equal to one are legal: they pass
    through the distribution recurrence as a deterministic shift.
    """

    probs: tuple[float, ...]
    dropped_zeros: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        kept: list[float] = []
        dropped = 0
        for x in self.probs:
            x = float(x)
            if math.isnan(x) or x < 0.0 or x > 1.0:
                raise ValueError(f"probability outside [0, 1]: {x!r}")
            if x == 0.0:
                dropped += 1
            else:
                kept.append(x)
        object.__setattr__(self, "probs", tuple(kept))
        object.__setattr__(self, "dropped_zeros", dropped)

    @property
    def n(self) -> int:
        return len(self.probs)

    @property
    def lam(self) -> float:
        """Mean of S_n, the first power sum."""
        return math.fsum(self.probs)

    def power_sum(self, j: int) -> float:
        if j < 1:
            raise ValueError("power sum order must be >= 1")
        return math.fsum(x**j for x in self.probs)


def equal_probs(n: int, lam: float) -> ProbVector:
    """The equal-probability vector [lam/n] * n (binomial case)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return ProbVector((lam / n,) * n)


def load_probs(path: str) -> ProbVector:
    """Read a probability vector from a file.

    Two formats are accepted: a JSON array of numbers, or plain text with one
    decimal per line.  Values outside [0, 1] are rejected.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.strip()
    if not stripped:
        raise ValueError(f"empty probability file: {path}")
    if stripped.startswith("["):
        values = json.loads(stripped)
        if not isinstance(values, list) or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in values
        ):
            raise ValueError(f"JSON probability file must be an array of numbers: {path}")
    else:
        values = []
        for lineno, line in enumerate(stripped.splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            try:
                values.append(float(line))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: not a decimal: {line!r}") from None
    return ProbVector(tuple(float(v) for v in values))


@dataclass(frozen=True)
class PowerSums:
    """Power sums lambda_j = sum_i p_i^j for j = 1..order.

    Since every p_i <= 1 the sequence is non-increasing in j; that and the
    two Cauchy-type products lambda_2^2 <= lambda*lambda_3 and
    lambda_2*lambda_3 <= lambda*lambda_4 are asserted at construction
    (with a small floating-point allowance).
    """

    values: tuple[float, ...]  # values[j-1] = lambda_j

    def __post_init__(self) -> None:
        v = self.values
        for j in range(1, len(v)):
            if v[j] > v[j - 1] * (1 + 1e-12) + 1e-300:
                raise ValueError(f"power sums must be non-increasing, got lambda_{j} = "
                                 f"{v[j - 1]} < lambda_{j + 1} = {v[j]}")
        tol = 1e-12
        if len(v) >= 3 and v[1] ** 2 > v[0] * v[2] * (1 + tol) + 1e-300:
            raise ValueError("Cauchy inequality lambda_2^2 <= lambda*lambda_3 violated")
        if len(v) >= 4 and v[1] * v[2] > v[0] * v[3] * (1 + tol) + 1e-300:
            raise ValueError("Cauchy inequality lambda_2*lambda_3 <= lambda*lambda_4 violated")

    @property
    def order(self) -> int:
        return len(self.values)

    @property
    def lam(self) -> float:
        return self.values[0] if self.values else 0.0

    def __getitem__(self, j: int) -> float:
        if not 1 <= j <= len(self.values):
            raise KeyError(f"power sum of order {j} not computed (have 1..{len(self.values)})")
        return self.values[j - 1]


def power_sums(p: ProbVector, jmax: int = 6) -> PowerSums:
    """Exact power sums lambda_1..lambda_jmax with compensated accumulation."""
    if jmax < 1:
        raise ValueError("jmax must be >= 1")
    return PowerSums(tuple(math.fsum(x**j for x in p.probs) for j in range(1, jmax + 1)))


@dataclass(frozen=True)
class SignedPmf:
    """A finitely supported, possibly signed, mass function on {0, 1, ...}.

    ``mass[k]`` is the mass at k for k = 0..support_max.  ``tail_bound`` is a
    rigorous bound on the total mass ignored beyond support_max, so the
    retained masses always sum to 1 within tail_bound.  Proper distributions
    (e.g. the Poisson-binomial itself) carry tail_bound = 0 and nonnegative
    mass everywhere.
    """

    mass: np.ndarray
    tail_bound: float
    label: str

    def __post_init__(self) -> None:
        arr = np.asarray(self.mass, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("mass must be a nonempty 1-D array")
        if not np.all(np.isfinite(arr)):
            raise ValueError("mass must be finite")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "mass", arr)
        if self.tail_bound < 0:
            raise ValueError("tail_bound must be nonnegative")
        total = math.fsum(arr.tolist())
        slack = self.tail_bound + 1e-12
        if not (1.0 - slack <= total <= 1.0 + slack):
            raise ValueError(f"masses sum to {total}, outside 1 +/- {slack}")

    @property
    def support_max(self) -> int:
        return self.mass.size - 1

    @property
    def is_proper(self) -> bool:
        return bool(np.all(self.mass >= 0.0))

    def total(self) -> float:
        return math.fsum(self.mass.tolist())


@dataclass(frozen=True)
class FactorialMoments:
    """A factorial moment sequence m -> mu_m with mu_0 = 1.

    ``degree`` is the highest falling-factorial order appearing in a closed
    form (0 when not applicable) and ``mmax_hint`` the natural series length
    (n for a sum of n indicators); both only steer series truncation
    heuristics downstream.
    """

    mu: Callable[[int], float]
    degree: int = 0
    mmax_hint: int = 0

    def __post_init__(self) -> None:
        if abs(self.mu(0) - 1.0) > 1e-12:
            raise ValueError("mu(0) must equal 1")

    def __call__(self, m: int) -> float:
        if m < 0:
            raise ValueError("moment order must be >= 0")
        return self.mu(m)


def poisson_tail_bound(lam: float, kfirst: int) -> float:
    """Chernoff bound on the Poisson(lam) mass at {kfirst, kfirst+1, ...}.

    P(Z >= K) <= exp(-lam) (e lam / K)^K for K > lam; returns 1 when the
    bound does not apply (K <= lam).
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    if kfirst <= lam:
        return 1.0
    return math.exp(-lam + kfirst * (1.0 + math.log(lam) - math.log(kfirst)))


def poisson_pmf(lam: float, kmax: int) -> SignedPmf:
    """Poisson(lam) masses on 0..kmax via the multiplicative recurrence.

    The tail bound is the exact complement of the retained mass (plus a
    small rounding guard), which is both rigorous and tighter than the
    Chernoff form; the Chernoff bound remains available separately for
    polynomial-weighted tails.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    if kmax < 0:
        raise ValueError("kmax must be >= 0")
    mass = np.empty(kmax + 1)
    mass[0] = math.exp(-lam)
    for k in range(1, kmax + 1):
        mass[k] = mass[k - 1] * (lam / k)
    tail = max(0.0, 1.0 - math.fsum(mass.tolist())) + 1e-15 * (kmax + 2)
    return SignedPmf(mass, tail, "poisson")


def _linear_product(a: Iterable[float], b: Iterable[float], length: int) -> np.ndarray:
    """Coefficients 0..length-1 of prod_i (a_i + b_i x), one factor at a time.

    Each factor applies c_k <- a_i c_k + b_i c_(k-1) to the coefficients it
    can reach; terms of degree length and above are dropped.
    """
    c = np.zeros(length)
    c[0] = 1.0
    for i, (ai, bi) in enumerate(zip(a, b)):
        top = min(i + 2, length)
        c[1:top] = c[1:top] * ai + c[: top - 1] * bi
        c[0] *= ai
    return c


def poisson_binomial_pmf(p: ProbVector) -> SignedPmf:
    """Exact distribution of S_n, the coefficients of prod_i ((1-p_i) + p_i x).

    The recurrence f(k) <- (1-p_i) f(k) + p_i f(k-1) is exact and keeps every
    intermediate nonnegative, so the result is a proper distribution with
    zero tail bound and support 0..n.
    """
    f = _linear_product([1.0 - pi for pi in p.probs], p.probs, p.n + 1)
    return SignedPmf(f, 0.0, "poisson-binomial")


def elementary_symmetric(p: ProbVector, mmax: int) -> np.ndarray:
    """Elementary symmetric functions S_{n,m} of the probabilities, m = 0..mmax.

    These are the coefficients of prod_i (1 + p_i x); entries with m > n are
    exactly zero.
    """
    if mmax < 0:
        raise ValueError("mmax must be >= 0")
    e = _linear_product([1.0] * p.n, p.probs, mmax + 1)
    e.flags.writeable = False
    return e


def factorial_moments_sn(p: ProbVector, mmax: int | None = None) -> FactorialMoments:
    """Factorial moments of S_n: mu_m = m! S_{n,m}, zero for every m > n."""
    if mmax is None:
        mmax = p.n
    if mmax < 0:
        raise ValueError("mmax must be >= 0")
    e = elementary_symmetric(p, min(mmax, p.n))
    n = p.n
    # m! overflows binary64 past m = 170 while S_{n,m} underflows in step;
    # beyond that the product is assembled in log space instead
    direct = min(mmax, n, 170)
    factorials = [1.0]
    for m in range(1, direct + 1):
        factorials.append(factorials[-1] * m)

    def mu(m: int) -> float:
        if m > n:
            return 0.0
        if m > mmax:
            raise ValueError(f"moments computed only up to order {mmax}")
        if m <= direct:
            return float(factorials[m] * e[m])
        if e[m] == 0.0:
            return 0.0
        return math.exp(math.lgamma(m + 1) + math.log(e[m]))

    return FactorialMoments(mu, degree=0, mmax_hint=n)
