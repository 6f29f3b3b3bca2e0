"""Exact machinery for sums of independent Bernoulli indicators.

Given success probabilities p_1..p_n, this module computes the distribution
of S_n = I_1 + ... + I_n (the Poisson-binomial distribution) and its
factorial moments through elementary symmetric functions, both by one
product tree with a derived rounding bound; also the power sums of the
probabilities and the plain Poisson mass function used as the base of every
corrected approximation.

All scalars are binary64.  Plain summations go through ``math.fsum`` so that
quantities of order n^-3 .. n^-4 survive with comfortable headroom.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = [
    "ProbVector",
    "PowerSums",
    "SignedPmf",
    "FactorialMoments",
    "poisson_pmf",
    "poisson_binomial_pmf",
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
    through the product of ``poisson_binomial_pmf`` as a deterministic shift.
    The hash and ``lam`` are computed on first use and kept: every cache
    keyed on a vector hashes it.
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

    def __hash__(self) -> int:
        return self._hash

    def __getstate__(self) -> dict:
        # a copy computes its own hash and mean: hashes may differ between builds
        return {"probs": self.probs, "dropped_zeros": self.dropped_zeros}

    @functools.cached_property
    def _hash(self) -> int:
        return hash((self.probs, self.dropped_zeros))

    @functools.cached_property
    def lam(self) -> float:
        """Mean of S_n, the first power sum."""
        return math.fsum(self.probs)


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
    """Power sums lambda_1..lambda_jmax, each within g_j = j u / (1 - j u)
    relative of the exact one, short of underflow (``_Sn.power_sums``), and
    a longer run repeats the bits of a shorter one; they come from ``_sn``,
    which computes each order once per vector."""
    if jmax < 1:
        raise ValueError("jmax must be >= 1")
    return PowerSums(_sn(p).power_sums(jmax))


@dataclass(frozen=True)
class SignedPmf:
    """A finitely supported, possibly signed, mass function on {0, 1, ...}.

    ``mass[k]`` is the mass at k for k = 0..support_max.  ``tail_bound`` is
    the builder's proven bound on sum_k |mass[k] - f(k)| over the support,
    f the exact law, plus the exact mass sum_k |f(k)| beyond it.  So the
    masses sum to 1 within tail_bound, which the constructor checks up to
    the rounding of its own fsum (u (1 + tail_bound), u = 2^-53) and of the
    slack: (tail_bound + 4u)(1 + 4u) covers both after its two roundings.

    S_n's masses at large n are mostly underflowed zeros (about 250 nonzero of
    100,001 for 10^5 probabilities 5/10^5), so the constructor records where
    the nonzero masses end, and its fsum check, ``total`` and the pointwise
    distances ``tv`` and ``hellinger`` read ``mass`` only up to there.  Zeros
    add nothing to an fsum, so every value keeps its bits (an all-zero array
    is read whole).
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
        # one comparison when the last mass is nonzero, as it is for every
        # corrected measure; not a field, so the CLI does not print it
        end = arr.size
        if arr[-1] == 0.0:
            nonzero = np.flatnonzero(arr)
            if nonzero.size:
                end = int(nonzero[-1]) + 1
        object.__setattr__(self, "_end", end)
        total = self.total()
        slack = (self.tail_bound + 2.0**-51) * (1.0 + 2.0**-51)
        if not abs(total - 1.0) <= slack:
            raise ValueError(f"masses sum to {total}, outside 1 +/- {slack}")

    @property
    def support_max(self) -> int:
        return self.mass.size - 1

    @property
    def is_proper(self) -> bool:
        return bool(np.all(self.mass[: self._end] >= 0.0))

    def total(self) -> float:
        return math.fsum(self.mass[: self._end].tolist())


@dataclass(frozen=True)
class FactorialMoments:
    """A factorial moment sequence, stored weighted by the d2 weights.

    ``weighted[m]`` = 2^m mu_m / m! for m = 0..M (read-only, weighted[0] = 1)
    and ``tail`` bounds sum_{m>M} m |2^m mu_m / m!|: 0 when every later
    moment vanishes, inf when nothing is known about them.  ``root_bound``
    is a proven b with |mu_m| <= b^m for every m, inf when none is known.
    ``rounding`` bounds sum_{m<=M} |weighted[m] - 2^m mu_m / m!|, mu_m the
    exact law's: 0 for an array taken as exact.
    Calling the object returns mu_m itself.  A NaN entry is refused, naming
    its order; an infinite one is kept, and reading it raises OverflowError.
    """

    weighted: np.ndarray
    tail: float
    root_bound: float = math.inf
    rounding: float = 0.0

    def __post_init__(self) -> None:
        w = np.array(self.weighted, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weighted moments must be a nonempty 1-D array")
        if np.isnan(w).any():
            raise ValueError(f"weighted moment of order {int(np.isnan(w).argmax())} is NaN")
        if abs(w[0] - 1.0) > 1e-12:
            raise ValueError("mu(0) must equal 1")
        if not self.tail >= 0:
            raise ValueError("tail must be nonnegative")
        if not self.root_bound >= 0:
            raise ValueError("root_bound must be nonnegative")
        if not self.rounding >= 0:
            raise ValueError("rounding must be nonnegative")
        w.flags.writeable = False
        object.__setattr__(self, "weighted", w)

    def __call__(self, m: int) -> float:
        """mu_m, or OverflowError when it lies beyond binary64.

        Past m = 170, where m! overflows, mu_m = m! |w| / 2^m is assembled in
        log space: from log(2^-m |w|) where that is a normal number, else from
        log |w| - m log 2.  An entry stored below 2^-1022, subnormal or 0.0,
        carries the product tree's absolute underflow error, up to
        (n - 1)(m + 1)(m + 2) B 2^-1076 (``_linear_product``), which is then no
        longer small next to the entry: 1500 probabilities 5/1500 store
        subnormal entries at m = 287..296, and mu_296 read off them is 2.3 %
        low.  A 0.0 may stand for any mu_m below 2^-1074 m! / 2^m.  From m = 24
        on, where m! / 2^m >= 2^52, such an entry may hide a normal mu_m, so
        it reads as 0.0 only where m log2 b <= -1076 (b = ``root_bound``):
        then |mu_m| <= 2^-1076, whose correctly rounded value is 0.0, and the
        rounding of the computed m log2 b, a few u of it, is far inside the
        factor 2 to 2^-1075.  Elsewhere the read raises ValueError naming m
        (m = 287 for 1500 probabilities 5/1500; m = 1500 for 20/1500, where
        mu_m is about 1e1302).  Below m = 24 it reads as stored.
        """
        if m < 0:
            raise ValueError("moment order must be >= 0")
        if m >= self.weighted.size:
            if self.tail == 0.0:
                return 0.0
            raise ValueError(f"moments stored only up to order {self.weighted.size - 1}")
        w = float(self.weighted[m])
        if abs(w) < sys.float_info.min and m >= 24:
            if self.root_bound == 0.0 or m * math.log2(self.root_bound) <= -1076:
                return 0.0
            raise ValueError(f"factorial moment of order {m} underflowed below 2^-1022 in storage")
        if m <= 170:
            mu = w * math.ldexp(math.prod(range(2, m + 1), start=1.0), -m)
        else:
            e = math.ldexp(abs(w), -m)
            if e >= sys.float_info.min:
                log_e = math.log(e)
            else:  # 2^-m |w| is subnormal and would lose digits
                log_e = math.log(abs(w)) - m * math.log(2.0)
            try:
                mu = math.copysign(math.exp(math.lgamma(m + 1) + log_e), w)
            except OverflowError:
                mu = math.inf
        if not math.isfinite(mu):
            raise OverflowError(f"factorial moment of order {m} exceeds the float range")
        return mu


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

    The recurrence starts at e^-lam.  Where that is subnormal (lam above
    about 708) it starts instead at h 2^E h, with h = e^(-lam/2) and
    E = ceil(lam / (2 ln 2)): a normal number within about 5u of e^-lam 2^E
    (u = 2^-53), and the masses are scaled back by 2^-E at the end.  Means
    from 1416 on raise ValueError, since there h is no longer normal.

    Rounding.  With u = 2^-53 and g_n = n u / (1 - n u), pi(k) is within
    g_(2k+s) of e^-lam lam^k / k!, s = 2 below lam = 708 (exp within an
    ulp, two roundings a step) and 5 from there on (the scaled start); a
    mass below 2^-1022 is, like its exact value, within 2^-1021.  As
    sum_k k pi(k) <= lam, the masses' l1 rounding is at most R = (2 lam + s)
    u / (1 - (2 kmax + s) u) + (kmax + 1) 2^-1021.  The exact mass past kmax
    is 1 minus the retained exact mass, so within R of 1 - sum_k pi(k); the
    tail bound is that complement plus 2 R, and 4u more (the + 2 below)
    covers the fsum, the subtraction and the bound's own rounding.  It is
    tighter than the Chernoff form, which remains available for
    polynomial-weighted tails.
    """
    mass = _poisson_masses(lam, kmax)
    s = 2 if lam < 708 else 5
    rounding = ((2.0 * lam + s + 2) * 2.0**-53 / (1.0 - (2 * kmax + s) * 2.0**-53)
                + (kmax + 1) * 2.0**-1021)
    tail = max(0.0, 1.0 - math.fsum(mass.tolist())) + 2.0 * rounding
    return SignedPmf(mass, tail, "poisson")


def _poisson_masses(lam: float, kmax: int) -> np.ndarray:
    """The masses of ``poisson_pmf`` as a plain array."""
    if lam <= 0:
        raise ValueError("lam must be positive")
    if lam >= 1416:
        raise ValueError(f"Poisson mean {lam!r} too large: masses need lam < 1416")
    if kmax < 0:
        raise ValueError("kmax must be >= 0")
    first = math.exp(-lam)
    scale = 0
    if first < sys.float_info.min:
        h = math.exp(-lam / 2.0)
        scale = math.ceil(lam / (2.0 * math.log(2.0)))
        first = h * math.ldexp(h, scale)
    # mass[k] = mass[k - 1] * (lam / k), one rounded product at a time
    mass = np.cumprod(np.concatenate(([first], lam / np.arange(1.0, kmax + 1))))
    return np.ldexp(mass, -scale) if scale else mass


def _linear_product(a: Sequence[float], b: Sequence[float]) -> np.ndarray:
    """Coefficients 0..n of P(x) = prod_i (a_i + b_i x), for a_i, b_i >= 0.

    A pairwise tree: the n factors are the columns of a 2 x n array stored
    coefficient-major (row i holds coefficient i of every factor), each level
    multiplies columns 2r and 2r+1, and an odd last column is carried up
    unchanged, so D = ceil(log2 n) levels do all the work.  The carried column is held apart from the array: padded with
    zeros, it would meet an overflowed coefficient as inf * 0 = NaN.  A
    level of h pairs of d coefficients copies its left and right factors
    into two contiguous d x h arrays and takes, where h >= d, d row updates,
    each adding coefficient i of every left factor times the first ones of
    its right factor at once, and where h < d one np.convolve per pair.
    What np.convolve and the carried column return loses the trailing
    coefficients that are zero in every factor: exact zeros add nothing,
    and far out the coefficients of a product of many factors underflow to
    zero, where the top levels would spend most of their O(n^2) products.
    When every factor has the bits of every other (all p_i equal, as in the
    binomial case), the array keeps one column and the count of factors it
    stands for.  Every pair of a level then has the same product, so the
    level computes it once, by the kernel the rule above picks for h =
    count // 2 pairs, and an odd count carries the column: D products
    instead of n - 1, each by the general tree's arithmetic, so with its
    bits and the rounding below.

    Rounding.  Every term of P_j is a product of n nonnegative factor
    coefficients, so the error is relative: with u = 2^-53 and
    g_K = K u / (1 - K u), the computed c_j is within g_K P_j if no term
    meets more than K roundings on its way up the tree.  A term meets
    * one multiplication at each of the n - 1 nodes, except that a product
      with an exact 1 is exact: when every a_i = 1, only the max(j - 1, 0)
      nodes joining two parts of the term round;
    * at a node of n_v factors, where its partial coefficient j_v is a sum
      of t <= min(j_v, n_v - j_v) + 1 products, at most t - 1 additions, in
      whatever order np.convolve takes them.  The nodes of one level share
      no factor, so their j_v add up to at most j: a level adds at most
      min(j, n - j).
    So K_j = m_j + D min(j, n - j), with m_j = n - 1, or max(j - 1, 0) when
    every a_i = 1.  That is not g_O(log n) for every j: for the elementary
    symmetric functions it is about (j + 1) D roundings, against n + j for
    the factor-at-a-time recurrence, and for a general product it is larger
    than that recurrence's 2n at central j.
    Underflow.  A multiplication below 2^-1022 may lose 2^-1075 more, an
    addition nothing.  A node makes at most (j + 1)(j + 2) / 2 products
    that reach c_j, and a loss in coefficient i there reaches c_j times a
    coefficient of the other factors' product, at most B = prod_i max(1,
    a_i + b_i).  So c_j is also off by at most (n - 1)(j + 1)(j + 2) B
    2^-1076 (1 + g_K) in absolute terms.
    """
    cols = np.vstack((a, b))  # coefficient i of factor r at cols[i, r]
    count = 1  # how many equal factors each column stands for
    if _one_value(cols[-1]) and _one_value(cols[0]):  # b first: a is often all ones
        cols, count = cols[:, :1], cols.shape[1]
    carried = np.ones(1)  # product of the factors carried so far; 1 is exact
    while cols.shape[1] * count > 1:
        if cols.shape[1] * count % 2:
            carried = _cut_zeros(np.convolve(cols[:, -1], carried))
            cols, count = (cols, count - 1) if count > 1 else (cols[:, :-1], 1)
        if count > 1:  # the one product of a level of count // 2 equal pairs
            left = right = cols
            pairs = count = count // 2
        else:
            left, right = np.ascontiguousarray(cols[:, 0::2]), np.ascontiguousarray(cols[:, 1::2])
            pairs = left.shape[1]
        d = left.shape[0]
        if pairs >= d:
            cols = np.zeros((2 * d - 1, left.shape[1]))
            for i in range(d):
                cols[i:i + d] += left[i] * right
        else:
            cols = _cut_zeros(np.array([np.convolve(x, y) for x, y in zip(left.T, right.T)]).T)
    c = np.zeros(len(a) + 1)
    top = np.convolve(cols[:, 0], carried) if cols.shape[1] else carried
    c[:top.size] = top
    return c


def _product_error(c: np.ndarray | float, n: int, ones: bool, big: float) -> np.ndarray:
    """Bound on |c_j - P_j| for c = ``_linear_product`` of n factors (c.size <=
    n + 1): g_K |c_j| over 1 - g_K with the largest of that docstring's K_j,
    K <= m + D n / 2 (m = n - 1, or max(j - 1, 0) <= n - 1 when every a_i = 1
    (``ones``)), plus its underflow term at j = n with B <= ``big``.  For the
    pmf (not ``ones``), the a_i = fl(1 - p_i) of ``poisson_binomial_pmf``
    add n more roundings, so the bound is against the exact law (|P_j - c_j|
    <= g_K P_j, so P_j <= |c_j| / (1 - g_K))."""
    depth = math.ceil(math.log2(n)) if n > 1 else 0
    k = max(depth * n / 2 + (n - 1 if ones else 2 * n - 1), 0)
    g = k * 2.0**-53  # (g_K |c| + U) / (1 - g_K) <= (K u |c| + U) / (1 - 2 K u)
    # four times the term at j = n: 2^-1076 itself underflows to 0 in binary64
    under = 2.0**-1074 * max(n - 1, 0) * (n + 1.0) * (n + 2.0) * big
    return (g * np.abs(c) + under) / (1.0 - 2.0 * g)


def _one_value(x: np.ndarray) -> bool:
    """Whether the float64 array x is nonempty and every entry has the bits
    of its first (so 0.0 and -0.0 differ); the first and last values are
    compared first, which settles most unequal arrays at once."""
    return (x.size > 0 and x.item(0) == x.item(-1)
            and bool((x.view(np.int64) == x[:1].view(np.int64)).all()))


def _cut_zeros(x: np.ndarray) -> np.ndarray:
    """x without the trailing coefficients (rows) that are zero in every
    factor (column); one is kept."""
    if x[-1].any():
        return x
    nonzero = np.flatnonzero(np.any(x.reshape(x.shape[0], -1) != 0.0, axis=1))
    return x[:nonzero[-1] + 1 if nonzero.size else 1]


def poisson_binomial_pmf(p: ProbVector) -> SignedPmf:
    """Distribution of S_n, the coefficients of prod_i ((1 - p_i) + p_i x).

    The pairwise tree of ``_linear_product`` keeps every intermediate
    nonnegative, so the result is a proper distribution on 0..n.  The masses
    are not exact: the tree puts f(k) within g_K of the product of the
    binary64 factors, K = n - 1 + D min(k, n - k) (D = ceil(log2 n)), plus
    an underflow term, and rounding 1 - p_i adds at most (n - k) u.
    ``_product_error`` bounds each entry's gap to the exact law f by g_K
    f(k) at the largest K plus the underflow term at j = n, with B <= 2; the
    exact masses sum to 1, so ``tail_bound`` is that g_K plus n + 1 such
    underflow terms, read off n alone (0 for n = 0).  The masses come from
    ``_sn``.  Equal p_i (the binomial case) cost the tree one product a
    level, O(log n) convolutions, with the same bits.
    """
    bound = float(_product_error(1.0, p.n, False, 2.0 * (p.n + 1)))  # B <= 2, n + 1 entries
    return SignedPmf(_sn(p).array(False), bound, "poisson-binomial")


def factorial_moments_sn(p: ProbVector, mmax: int | None = None) -> FactorialMoments:
    """Factorial moments of S_n up to order min(mmax, n), zero past n.

    The weighted moments 2^m mu_m / m! = 2^m S_{n,m}, S_{n,m} the elementary
    symmetric functions of the p_i, are the coefficients of prod_i (1 + 2 p_i
    x), the one array of ``_sn``.  A cut ``mmax < n`` is its first mmax + 1
    entries, so every cut reads the same bits.  The tail is 0 when the array
    reaches n and unknown (inf) when mmax cuts it short.  ``root_bound`` is
    fsum(p) rounded up by 2u: at least the exact sum lambda of the binary64
    p_i, and mu_m = m! e_m <= lambda^m.  ``rounding`` is the whole array's
    (``_Sn.rounding``), which bounds every cut's too.
    """
    if mmax is None:
        mmax = p.n
    if mmax < 0:
        raise ValueError("mmax must be >= 0")
    tail = 0.0 if mmax >= p.n else math.inf
    sn = _sn(p)
    return FactorialMoments(sn.array(True)[:mmax + 1], tail, p.lam * (1.0 + 2.0**-52),
                            sn.rounding())


class _Sn:
    """What one vector's exact layer shares among its callers: the
    probabilities as one float array and S_n's two full-length arrays, all
    read-only, the moments' rounding bound, and the power sums
    lambda_1..lambda_j computed so far, each built on first use.  A longer
    run of power sums replaces the tuple, so a tuple handed out never
    changes, and a build that raises leaves the record as it was.
    """

    __slots__ = ("p", "sums", "arrays", "probs", "moment_rounding")

    def __init__(self, p: ProbVector) -> None:
        self.p = p
        self.sums: tuple[float, ...] = ()
        self.arrays: dict[bool, np.ndarray] = {}
        self.probs: np.ndarray | None = None
        self.moment_rounding: float | None = None

    def floats(self) -> np.ndarray:
        """p.probs as a float64 array; 1.0 - x and 2.0 * x on it round as
        they do on each float, so the trees see the same factors."""
        if self.probs is None:
            x = np.array(self.p.probs, dtype=float)
            x.flags.writeable = False
            self.probs = x
        return self.probs

    def power_sums(self, last: int) -> tuple[float, ...]:
        """lambda_1..lambda_last: x^j by the running product y <- y x from
        y = x over the float array, one rounding a step, and one correctly
        rounded fsum per order.  A longer run starts again from x, so it
        repeats the bits of a shorter one.

        With u = 2^-53 and g_j = j u / (1 - j u), y_j is within g_(j-1) x^j
        of x^j, plus (j - 1) 2^-1075 where products underflow: a subnormal
        product is off by at most 2^-1075, and every later one, by x <= 1,
        is subnormal too, so its error stays absolute.  The fsum adds u
        relative where its exact sum is normal and nothing where it is
        subnormal (exact), so lambda_j is within g_j lambda_j + (1 + u)
        n (j - 1) 2^-1075.  Since fl(y x) <= y for x <= 1 and fsum is
        monotone, lambda_(j+1) <= lambda_j holds exactly.  np.power is not
        used: its last bit differs from libm pow, by platform.

        When the n entries are equal, y is one float and lambda_j = fl(n y):
        the fsum of n copies of y is the correctly rounded n y, and so is the
        one product, as n < 2^53 is a float; the bits are those of the fsum,
        subnormal y included, in O(1) per order instead of O(n).
        """
        if len(self.sums) < last:
            x = y = self.floats()
            equal = _one_value(x)
            if equal:
                x = y = float(x[0])
            sums = list(self.sums)
            for j in range(1, last + 1):
                if j > len(sums):
                    sums.append(self.p.n * y if equal else math.fsum(y.tolist()))
                y = y * x
            self.sums = tuple(sums)
        return self.sums[:last]

    def array(self, moments: bool) -> np.ndarray:
        """The coefficients 0..n of prod_i ((1 - p_i) + p_i x), or with
        ``moments`` those of prod_i (1 + 2 p_i x), the weighted factorial
        moments, so the pmf, the moments at every cut and the direct
        differences of ``distances`` read the same bits."""
        a = self.arrays.get(moments)
        if a is None:
            x = self.floats()
            if moments:
                with np.errstate(over="ignore"):  # an overflowed entry raises when it is read
                    a = _linear_product(np.ones(x.size), 2.0 * x)
            else:
                a = _linear_product(1.0 - x, x)
            a.flags.writeable = False
            self.arrays[moments] = a
        return a

    def rounding(self) -> float:
        """A bound on sum_m |w_m - exact w_m| over ``array(True)``.

        Each entry's ``_product_error`` is linear in its |w_m|, so for these
        nonnegative entries their sum is that error of fsum(w) with n + 1
        underflow terms, B <= prod_i (1 + 2 p_i) <= e^(2 lam), whose rounding
        the factor 2 covers.  fsum is within u of the entries' sum, which
        the largest K covers: for n >= 2 every entry's K_m is at most K -
        floor(n / 2).  inf where e^(2 lam) or the sum leaves binary64.
        """
        if self.moment_rounding is None:
            n = self.p.n
            try:
                size = math.fsum(self.array(True).tolist())
                big = 2.0 * math.exp(2.0 * self.p.lam) * (n + 1)
            except OverflowError:
                size = big = math.inf
            self.moment_rounding = float(_product_error(size, n, True, big))
        return self.moment_rounding


@functools.lru_cache(maxsize=2)  # the last two vectors
def _sn(p: ProbVector) -> _Sn:
    """The shared record of an equal vector: repeated calls reuse its builds."""
    return _Sn(p)
