import functools
import itertools
import math
from decimal import Context, Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from corrpois import ProbVector, corrected, distances, pmf
from corrpois.binomial import RationalPolynomial
from corrpois.corrected import gamma_from_power_sums

# Single shared corpus for the randomized verification suites: sizes up to
# 30, entries up to 0.5, fixed seed so failures are reproducible verbatim.
CORPUS_SEED = 0


SHARED_BUILDS = (pmf._sn, corrected._matched, corrected._measure, distances._difference)


def clear_caches():
    for cached in SHARED_BUILDS:
        cached.cache_clear()


@pytest.fixture(autouse=True)
def fresh_caches():
    """Each test builds S_n's arrays and power sums, the matched specs, the
    measures' arrays and the differences itself, so one that patches the
    builders is not served an entry an earlier test left."""
    clear_caches()


def random_prob_vectors(count, nmax=30, pmax=0.5, seed=0):
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


@pytest.fixture(scope="session")
def corpus():
    return random_prob_vectors(1000, nmax=30, pmax=0.5, seed=CORPUS_SEED)


@pytest.fixture(scope="session")
def corpus_wide():
    """Smaller corpus with entries up to 0.9 for the Hellinger checks."""
    return random_prob_vectors(300, nmax=30, pmax=0.9, seed=2)


def q_derivative(q):
    """The derivative of a ``RationalPolynomial``: lam Q' is
    ``q_shift_up(q_derivative(q))`` in the Q polynomials' recurrence."""
    return RationalPolynomial(tuple(i * c for i, c in enumerate(q.coeffs) if i > 0))


def q_shift_up(q):
    """A ``RationalPolynomial`` multiplied by its variable."""
    return RationalPolynomial((Fraction(0),) + q.coeffs)


def enumerate_outcomes(probs):
    """Brute-force oracle: iterate all 2^n indicator outcomes.

    Yields (k, probability) pairs, one per outcome.
    """
    n = len(probs)
    for bits in itertools.product((0, 1), repeat=n):
        prob = 1.0
        for b, p in zip(bits, probs):
            prob *= p if b else (1.0 - p)
        yield sum(bits), prob


def enumerated_pmf(probs):
    """Exact pmf of the indicator sum by outcome enumeration (n small)."""
    mass = [0.0] * (len(probs) + 1)
    for k, prob in enumerate_outcomes(probs):
        mass[k] += prob
    return mass


def enumerated_factorial_moment(probs, m):
    """E[(S)_m] by outcome enumeration."""
    total = 0.0
    for k, prob in enumerate_outcomes(probs):
        ff = 1.0
        for i in range(m):
            ff *= k - i
        total += prob * ff
    return total


def rel_close(a, b, rtol, floor=1.0):
    return abs(a - b) <= rtol * max(floor, abs(a), abs(b))


def exact_d2_oracle(probs, nu, spec=None):
    """d2 between S_n and the order-nu measure with exact coefficients, or
    the measure of ``spec`` with its binary64 mean and gamma, by the closed
    product form.

    The power sums of the binary64 probabilities are exact Fractions, so are
    the gamma of ``gamma_from_power_sums`` and the product prod_i (1 + 2 p_i);
    only e^(2 lam) is rounded, at 80 digits and then at twice as many until
    two precisions agree to 40 digits on a nonzero value (e^(2 lam) is
    irrational, so the value is never zero), which outlasts the cancellation in
    (1/2) |prod_i (1 + 2 p_i) - e^(2 lam) (1 - sum_j gamma_j (2 lam)^j)|.
    """
    ps = [Fraction(x) for x in probs]
    if spec is None:
        lams = [sum(x**j for x in ps) for j in range(1, nu + 1)]
        gamma, two_lam = gamma_from_power_sums(lams, nu), 2 * lams[0]
    else:
        gamma = {j: Fraction(g) for j, g in spec.gamma.items()}
        two_lam = 2 * Fraction(spec.lam)
    low = 1 - sum(g * two_lam**j for j, g in gamma.items())
    prod = Fraction(1)
    for x in ps:
        prod *= 1 + 2 * x

    def dec(f):
        return Decimal(f.numerator) / Decimal(f.denominator)

    last, prec = None, 80
    while True:
        with localcontext(Context(prec=prec, Emin=-10**9, Emax=10**9)):
            value = abs(dec(prod) - dec(two_lam).exp() * dec(low)) / 2
            if value and last is not None and abs(value - last) <= Decimal(10) ** -40 * value:
                return float(value)
        last, prec = value, 2 * prec
        assert prec <= 10**5, "oracle failed to settle"


@functools.lru_cache(maxsize=8)
def _exact_sn(probs):
    """Numerators of the S_n pmf and weighted factorial moments, and their
    common denominator: the coefficients of prod_i ((1 - p_i) + p_i x) and
    prod_i (1 + 2 p_i x) in exact integers over den^n, den the largest
    denominator of the binary64 p_i (all powers of two)."""
    ps = [Fraction(x) for x in probs]
    den = max([1] + [x.denominator for x in ps])
    pmf, mom = [1], [1]
    for x in ps:
        a = x.numerator * (den // x.denominator)
        pmf = [u * (den - a) + v * a for u, v in zip(pmf + [0], [0] + pmf)]
        mom = [u * den + v * 2 * a for u, v in zip(mom + [0], [0] + mom)]
    return pmf, mom, den ** len(ps)


def exact_distances(probs, nu, spec=None):
    """tv, wass, d2 and d2tilde between S_n and the order-nu measure with
    exact coefficients and the exact mean sum_i p_i, or the measure of
    ``spec`` with its binary64 mean and gamma (a dict of floats).

    S_n is exact (``_exact_sn``).  The measure's generating function is
    e^(lam t) T(t), T = 1 - sum_j gamma_j lam^j t^j, so its masses are
    e^-lam sum_i c_i lam^(k-i) / (k-i)! with c the coefficients of T(x - 1),
    and its weighted factorial moments sum_j T_j 2^j (2 lam)^(m-j) / (m-j)!,
    both in Decimal.  The sums run until the geometric bound on what is left
    falls below 1e-45 of the value; the precision doubles from 80 digits
    until two precisions agree to 40 digits.  n <= 60 keeps it fast.
    """
    ps = [Fraction(x) for x in probs]
    if spec is None:
        lams = [sum(x**j for x in ps) for j in range(1, nu + 1)]
        gamma, lam = gamma_from_power_sums(lams, nu), lams[0]
    else:
        gamma = {j: Fraction(g) for j, g in spec.gamma.items()}
        lam = Fraction(spec.lam)
    t = {0: Fraction(1)}
    for j, g in gamma.items():
        t[j] = t.get(j, 0) - g * lam**j
    deg = max(t)
    c = [sum(t.get(j, 0) * math.comb(j, i) * (-1) ** (j - i) for j in range(i, deg + 1))
         for i in range(deg + 1)]
    pmf, mom, den = _exact_sn(tuple(probs))
    last, prec = None, 80
    while True:
        with localcontext(Context(prec=prec, Emin=-10**9, Emax=10**9)):
            value = _exact_readings(pmf, mom, den, lam, c, t)
            if last is not None and all(abs(a - b) <= Decimal(10) ** -40 * a
                                        for a, b in zip(value, last)):
                return dict(zip(("tv", "wass", "d2", "d2tilde"), map(float, value)))
        last, prec = value, 2 * prec
        assert prec <= 10**4, "oracle failed to settle"


def _exact_readings(pmf, mom, den, lam, c, t):
    def dec(f):
        f = Fraction(f)
        return Decimal(f.numerator) / Decimal(f.denominator)

    big_l, n = dec(lam), len(pmf) - 1
    size = sum(abs(dec(x)) for x in c)
    tsize = sum(abs(dec(x)) * 2**j for j, x in t.items())
    cd = [dec(x) for x in c]
    td = {j: dec(x) * 2**j for j, x in t.items()}
    top = n + len(c) + int(4 * lam) + 40
    while True:
        pi = [(-big_l).exp()]  # Poisson(lam) masses
        a = [Decimal(1)]  # (2 lam)^m / m!
        for m in range(1, top + 1):
            pi.append(pi[-1] * big_l / m)
            a.append(a[-1] * 2 * big_l / m)
        delta = [(dec(Fraction(pmf[k], den)) if k <= n else 0)
                 - sum(x * pi[k - i] for i, x in enumerate(cd) if k >= i)
                 for k in range(top + 1)]
        moment = [(dec(Fraction(mom[m], den)) if m <= n else 0)
                  - sum(x * a[m - j] for j, x in td.items() if m >= j)
                  for m in range(top + 1)]
        tv = sum(abs(x) for x in delta) / 2
        running, wass = Decimal(0), Decimal(0)
        for x in delta[:-1]:
            running += x
            wass += abs(running)
        d2 = sum(abs(x) for x in moment) / 2
        d2t = sum(m * abs(x) for m, x in enumerate(moment)) / 2
        # what is left past top, weighted by the index: (top + deg) times the
        # geometric tails of pi and of a from top - deg on
        k = top - len(c)
        left = (top + len(c)) * (size * pi[k] / (1 - big_l / (k + 1))
                                 + tsize * a[k] / (1 - 2 * big_l / (k + 1)))
        if k > 2 * big_l and left <= Decimal(10) ** -45 * min(tv, d2):
            return tv, wass, d2, d2t
        top *= 2
