import itertools
from decimal import Context, Decimal, localcontext
from fractions import Fraction

import pytest

from corrpois import random_prob_vectors
from corrpois.corrected import gamma_from_power_sums

# Single shared corpus for the randomized verification suites: sizes up to
# 30, entries up to 0.5, fixed seed so failures are reproducible verbatim.
CORPUS_SEED = 0


@pytest.fixture(scope="session")
def corpus():
    return random_prob_vectors(1000, nmax=30, pmax=0.5, seed=CORPUS_SEED)


@pytest.fixture(scope="session")
def corpus_wide():
    """Smaller corpus with entries up to 0.9 for the Hellinger checks."""
    return random_prob_vectors(300, nmax=30, pmax=0.9, seed=2)


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
