import copy
import dataclasses
import hashlib
import json
import math
import pickle
import sys
from decimal import Context, Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrpois import (
    FactorialMoments,
    ProbVector,
    SignedPmf,
    check_lower3,
    check_sandwich,
    equal_probs,
    factorial_moments_sn,
    load_probs,
    poisson_binomial_pmf,
    poisson_pmf,
    power_sums,
)
from corrpois.pmf import _cut_zeros, _linear_product, _product_error, _sn

from conftest import enumerated_factorial_moment, enumerated_pmf, random_prob_vectors

U = Fraction(1, 2**53)


def exact_linear_product(a, b):
    """Exact coefficients of prod_i (a_i + b_i x) for dyadic a_i, b_i (binary64
    values or Fractions with power-of-two denominators), as Fractions: the
    factors are scaled to integers by their largest denominator."""
    a, b = [Fraction(x) for x in a], [Fraction(x) for x in b]
    scale = max((x.denominator for x in a + b), default=1)
    c = [1]
    for ai, bi in zip(a, b):
        ia, ib = (ai * scale).numerator, (bi * scale).numerator
        c = [ia * x + ib * y for x, y in zip(c + [0], [0] + c)]
    return [Fraction(x, scale ** len(a)) for x in c]


def tree_error_bound(exact, j, n, ones, pmf=False, big=1):
    """The rounding bound of ``pmf._linear_product`` on coefficient j of a
    product of n factors: g_K exact + (n - 1)(j + 1)(j + 2) big 2^-1076 (1 + g_K)
    with K = m_j + ceil(log2 n) min(j, n - j), m_j = max(j - 1, 0) when every
    a_i = 1 (``ones``) and n - 1 otherwise, plus n - j for the rounding of
    1 - p_i when ``exact`` is the pmf of the exact probabilities."""
    if j > n:
        return 0
    k = n - j if pmf else 0
    if n > 1:
        k += (max(j - 1, 0) if ones else n - 1) + (n - 1).bit_length() * min(j, n - j)
    g = k * U / (1 - k * U)
    return g * exact + max(n - 1, 0) * (j + 1) * (j + 2) * big * Fraction(1, 2**1076) * (1 + g)


def assert_within_tree_bound(got, exact, n, ones, pmf=False, big=1, seen=None):
    """Every entry of ``got`` within ``tree_error_bound`` of ``exact`` (zero
    past its end); ``seen`` caches (j, value) pairs already checked."""
    seen = set() if seen is None else seen
    for j, c in enumerate(got.tolist()):
        if (j, c) in seen:
            continue
        want = exact[j] if j < len(exact) else 0
        assert abs(Fraction(c) - want) <= tree_error_bound(want, j, n, ones, pmf, big), (j, c)
        seen.add((j, c))


class TestProbVector:
    def test_zero_entries_dropped(self):
        p = ProbVector((0.0, 0.3, 0.0, 0.7))
        assert p.probs == (0.3, 0.7)
        assert p.n == 2

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            ProbVector((0.5, 1.25))
        with pytest.raises(ValueError):
            ProbVector((-0.1,))
        with pytest.raises(ValueError):
            ProbVector((float("nan"),))

    def test_empty_is_legal(self):
        p = ProbVector(())
        assert p.n == 0
        assert p.lam == 0.0
        pmf = poisson_binomial_pmf(p)
        assert pmf.mass.tolist() == [1.0]

    def test_ones_pass_through(self):
        pmf = poisson_binomial_pmf(ProbVector((1.0, 0.5)))
        assert np.allclose(pmf.mass, [0.0, 0.5, 0.5], atol=0)

    def test_lam_is_the_fsum(self):
        for p in random_prob_vectors(50, seed=3) + [spread_probs(1600, 70.0)]:
            for _ in range(2):  # the first read computes it, the second reads it back
                assert p.lam.hex() == math.fsum(p.probs).hex()

    def test_equal_vectors_share_hash_and_record(self):
        probs = [0.2, 0.5, 0.125]
        a, b = ProbVector(probs), ProbVector(tuple(probs))
        assert a is not b and a == b and hash(a) == hash(b)
        poisson_binomial_pmf(a)
        hits = _sn.cache_info().hits
        poisson_binomial_pmf(b)
        assert _sn.cache_info().hits == hits + 1
        assert _sn(a) is _sn(b)

    def test_vectors_differing_only_in_zeros_are_equal_and_share_a_record(self):
        a, b = ProbVector((0.1, 0.0)), ProbVector((0.1,))
        assert a == b and hash(a) == hash(b)
        assert _sn(a) is _sn(b)

    @pytest.mark.parametrize("copy_of", [lambda p: pickle.loads(pickle.dumps(p)), copy.deepcopy],
                             ids=["pickle", "deepcopy"])
    def test_copies_compute_their_own_hash_and_mean(self, copy_of):
        p = ProbVector((0.1, 0.0, 0.2, 0.3))
        fresh = ProbVector((0.1, 0.0, 0.2, 0.3))
        hash(p), p.lam
        vars(p)["lam"] = -1.0  # a kept value, as from another build, is not carried
        q = copy_of(p)
        assert q == fresh
        assert hash(q) == hash(fresh)
        assert q.lam == math.fsum((0.1, 0.2, 0.3))

    def test_replace_does_not_inherit_kept_values(self):
        p = ProbVector((0.1, 0.2, 0.3))
        hash(p), p.lam
        q = dataclasses.replace(p, probs=(0.4, 0.0, 0.5))
        fresh = ProbVector((0.4, 0.0, 0.5))
        assert q == fresh != p
        assert hash(q) == hash(fresh) != hash(p)
        assert q.lam == 0.9 == fresh.lam


class TestPoissonPmf:
    def test_single_point_and_tail(self):
        pmf = poisson_pmf(1.0, 0)
        assert pmf.mass[0] == pytest.approx(math.exp(-1.0), rel=1e-15)
        assert pmf.tail_bound == pytest.approx(1.0 - math.exp(-1.0), rel=1e-12)

    def test_recurrence_value(self):
        pmf = poisson_pmf(2.0, 2)
        assert pmf.mass[2] == pytest.approx(2.0 * math.exp(-2.0), rel=1e-15)

    def test_mass_nearly_complete(self):
        pmf = poisson_pmf(0.5, 40)
        assert abs(pmf.total() - 1.0) <= 1e-15

    def test_rejects_nonpositive_mean(self):
        with pytest.raises(ValueError):
            poisson_pmf(0.0, 10)
        with pytest.raises(ValueError):
            poisson_pmf(-1.0, 10)

    @pytest.mark.parametrize("lam", [0.5, 5.0, 85.6, 700.0, 707.9])
    def test_plain_start_below_708(self, lam):
        kmax = math.ceil(2 * lam) + 20
        want = np.empty(kmax + 1)
        want[0] = math.exp(-lam)
        for k in range(1, kmax + 1):
            want[k] = want[k - 1] * (lam / k)
        assert poisson_pmf(lam, kmax).mass.tobytes() == want.tobytes()

    @pytest.mark.parametrize("lam", [708.5, 720.0, 745.0, 800.0, 1000.0, 1415.9])
    def test_scaled_start_where_exp_underflows(self, lam):
        kmax = math.ceil(lam + 12 * math.sqrt(lam))
        mass = poisson_pmf(lam, kmax).mass
        assert abs(math.fsum(mass.tolist()) - 1.0) <= 1e-12
        mode = math.floor(lam)
        want = math.exp(-lam + mode * math.log(lam) - math.lgamma(mode + 1))
        assert mass[mode] == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("lam", [0.5, 30.0, 710.0])
    def test_tail_bound_covers_the_gap_to_the_exact_masses(self, lam):
        # sum_k |mass[k] - pi(k)| plus the exact mass past kmax, in 60 digits
        with localcontext(Context(prec=60)):
            for kmax in (0, int(lam), math.ceil(lam + 12 * math.sqrt(lam) + 40)):
                pmf = poisson_pmf(lam, kmax)
                exact, term = [], (-Decimal(lam)).exp()
                for k in range(kmax + 1):
                    exact.append(term)
                    term = term * Decimal(lam) / (k + 1)
                gap = sum(abs(Decimal(m) - e) for m, e in zip(pmf.mass.tolist(), exact))
                assert gap + (1 - sum(exact)) <= Decimal(pmf.tail_bound), kmax

    def test_mean_from_1416_refused(self):
        poisson_pmf(1415.99, 10)
        with pytest.raises(ValueError, match="1416"):
            poisson_pmf(1416.0, 10)


class TestPoissonBinomial:
    def test_single_bernoulli(self):
        pmf = poisson_binomial_pmf(ProbVector((0.5,)))
        assert pmf.mass.tolist() == [0.5, 0.5]
        assert pmf.tail_bound == 2.0**-53 / (1.0 - 2.0**-52)  # g_1: rounding 1 - p

    @pytest.mark.parametrize("lam", [0.01, 1.0, 30.0, 300.0, 1000.0])
    def test_builds_at_n_1e5_within_its_bound(self, lam):
        pmf = poisson_binomial_pmf(equal_probs(10**5, lam))
        assert abs(pmf.total() - 1.0) <= pmf.tail_bound < 2e-10

    @pytest.mark.parametrize("p", [ProbVector((0.1, 0.2, 0.3)), ProbVector((1.0, 1.0, 0.5)),
                                   equal_probs(40, 5.0), *random_prob_vectors(6, seed=17)],
                             ids=lambda p: f"n{p.n}")
    def test_tail_bound_covers_the_gap_to_the_exact_law(self, p):
        exact = exact_linear_product([1 - Fraction(x) for x in p.probs],
                                     [Fraction(x) for x in p.probs])
        pmf = poisson_binomial_pmf(p)
        gap = sum(abs(Fraction(c) - e) for c, e in zip(pmf.mass.tolist(), exact))
        assert gap <= Fraction(pmf.tail_bound)

    def test_small_cases_match_enumeration(self):
        for probs in [(0.1,), (0.1, 0.2), (0.1, 0.2, 0.3), (0.9, 0.4, 0.05)]:
            got = poisson_binomial_pmf(ProbVector(probs)).mass
            want = enumerated_pmf(probs)
            assert np.allclose(got, want, atol=1e-14, rtol=0)

    def test_equal_probs_match_binomial_closed_form(self):
        n, lam = 20, 2.0
        pmf = poisson_binomial_pmf(equal_probs(n, lam))
        p = lam / n
        for k in range(n + 1):
            want = math.comb(n, k) * p**k * (1 - p) ** (n - k)
            assert abs(pmf.mass[k] - want) <= 1e-13

    def test_permutation_invariance(self):
        rng = np.random.default_rng(11)
        probs = rng.uniform(0, 1, 15)
        base = poisson_binomial_pmf(ProbVector(tuple(probs)))
        for _ in range(3):
            rng.shuffle(probs)
            other = poisson_binomial_pmf(ProbVector(tuple(probs)))
            assert np.allclose(base.mass, other.mass, atol=1e-15, rtol=0)

    def test_mass_sums_to_one_at_scale(self):
        rng = np.random.default_rng(3)
        p = ProbVector(tuple(rng.uniform(0, 1, 10_000).tolist()))
        pmf = poisson_binomial_pmf(p)
        assert abs(pmf.total() - 1.0) <= 1e-13


class TestElementarySymmetric:
    """S_n's weighted moments 2^m S_{n,m}, S_{n,m} the elementary symmetric
    functions of the p_i, and its pmf, by the product tree."""

    def test_pairs_by_hand(self):
        w = factorial_moments_sn(ProbVector((0.1, 0.2, 0.3))).weighted
        assert w[2] == pytest.approx(4 * (0.1 * 0.2 + 0.1 * 0.3 + 0.2 * 0.3), rel=1e-15)

    def test_order_zero_is_one(self):
        assert factorial_moments_sn(ProbVector((0.4, 0.9)), 0).weighted.tolist() == [1.0]

    def test_beyond_n_is_zero(self):
        mu = factorial_moments_sn(ProbVector((0.1, 0.2, 0.3)), 4)
        assert mu.weighted.size == 4 and mu.tail == 0.0
        assert mu(4) == 0.0

    def test_within_tree_bound_of_exact_product(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            n = int(rng.integers(1, 201))
            p = ProbVector(tuple(rng.uniform(0.0, 1.0, n).tolist()))
            exact = exact_linear_product([1.0] * p.n, [2.0 * x for x in p.probs])
            big = math.prod(1 + 2 * Fraction(x) for x in p.probs)
            seen = set()
            for mmax in (0, 3, p.n, p.n + 5):
                got = factorial_moments_sn(p, mmax).weighted
                assert got.size == min(mmax, p.n) + 1
                assert_within_tree_bound(got, exact, p.n, ones=True, big=big, seen=seen)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.one_of(st.floats(0.0, 1.0), st.just(1.0)), max_size=60))
    def test_tree_bound_at_every_cut(self, probs):
        p = ProbVector(tuple(probs))
        n, q = p.n, [Fraction(x) for x in p.probs]
        doubled = exact_linear_product([1] * n, [2 * x for x in q])
        a = [1.0 - x for x in p.probs]
        dist = exact_linear_product([1 - x for x in q], q)
        big_doubled = math.prod(1 + 2 * x for x in q)
        big_dist = math.prod(max(1, Fraction(x) + y) for x, y in zip(a, q))
        seen = (set(), set())
        for length in range(1, n + 3):
            assert_within_tree_bound(factorial_moments_sn(p, length - 1).weighted, doubled, n,
                                     ones=True, big=big_doubled, seen=seen[0])
        assert_within_tree_bound(_linear_product(a, p.probs), dist, n,
                                 ones=False, pmf=True, big=big_dist, seen=seen[1])
        mass = poisson_binomial_pmf(p).mass
        assert mass.size == n + 1
        assert_within_tree_bound(mass, dist, n, ones=False, pmf=True, big=big_dist, seen=seen[1])
        # the bound that the distances to a corrected measure add for S_n's arrays
        for got, exact, ones, big in ((mass, dist, False, 2.0),
                                      (factorial_moments_sn(p).weighted, doubled, True,
                                       2.0 * float(big_doubled))):
            bound = _product_error(got, n, ones, big).tolist()
            assert all(abs(Fraction(c) - e) <= b for c, e, b in zip(got.tolist(), exact, bound))
        # the moments' recorded rounding, which d2 and invert_moments add
        fm = factorial_moments_sn(p)
        gap = sum(abs(Fraction(c) - e) for c, e in zip(fm.weighted.tolist(), doubled))
        assert gap <= Fraction(fm.rounding)

    def test_first_moment_is_a_pairwise_sum(self):
        # ceil(log2 10^5) = 17 levels, against 10^5 sequential additions
        p = equal_probs(10**5, 50.0)
        got = factorial_moments_sn(p, 15)(1)
        assert abs(got - math.fsum(p.probs)) <= 2 * 17 * 2.0**-53 * p.lam

    def test_no_nan_where_moments_overflow(self):
        w = factorial_moments_sn(equal_probs(3000, 450.0)).weighted
        assert not np.isnan(w).any()
        assert np.isinf(w).any()


def spread_probs(n, lam, seed=0):
    """n probabilities of mean lam, spread by weights uniform on [0.2, 1.8)."""
    w = np.random.default_rng(seed).uniform(0.2, 1.8, n)
    return ProbVector(tuple((lam * w / math.fsum(w.tolist())).tolist()))


class TestArrayFedTrees:
    """The trees read the vector's float array and give the bits of the same
    trees fed Python lists of 1 - p_i, 2 p_i and 1."""

    VECTORS = (random_prob_vectors(50)
               + [equal_probs(n, lam) for n in (500, 1600) for lam in (1.0, 30.0)]
               + [spread_probs(n, lam) for n in (500, 1600) for lam in (1.0, 100.0)])

    @pytest.mark.parametrize("p", VECTORS, ids=lambda p: f"n{p.n}")
    def test_bits_match_list_fed_trees(self, p):
        probs = list(p.probs)
        ones, doubled = [1.0] * p.n, [2.0 * x for x in probs]
        assert (_sn(p).array(False).tobytes()
                == _linear_product([1.0 - x for x in probs], probs).tobytes())
        assert _sn(p).array(True).tobytes() == _linear_product(ones, doubled).tobytes()
        for m in sorted({0, 3, 15, max(p.n - 1, 0)}):
            if m < p.n:
                assert (factorial_moments_sn(p, m).weighted.tobytes()
                        == _linear_product(ones, doubled)[:m + 1].tobytes())


def level_loop_oracle(a, b):
    """The product tree with no case for equal factors: every level multiplies
    all its pairs, n - 1 products in all."""
    cols = np.vstack((a, b))
    c = np.zeros(cols.shape[1] + 1)
    carried = np.ones(1)
    while cols.shape[1] > 1:
        if cols.shape[1] % 2:
            carried = _cut_zeros(np.convolve(cols[:, -1], carried))
            cols = cols[:, :-1]
        left, right = np.ascontiguousarray(cols[:, 0::2]), np.ascontiguousarray(cols[:, 1::2])
        d, pairs = left.shape
        if pairs >= d:
            cols = np.zeros((2 * d - 1, pairs))
            for i in range(d):
                cols[i:i + d] += left[i] * right
        else:
            cols = _cut_zeros(np.array([np.convolve(x, y) for x, y in zip(left.T, right.T)]).T)
    top = np.convolve(cols[:, 0], carried) if cols.shape[1] else carried
    c[:top.size] = top
    return c


class TestEqualFactorTrees:
    """A tree of equal factors makes one product a level and keeps the bits
    of the tree that makes them all."""

    @settings(max_examples=120, deadline=None)
    @given(st.one_of(st.integers(0, 300), st.sampled_from([500, 1000, 1601, 4097])),
           st.one_of(st.sampled_from([1e-100, 0.5, 1.0]), st.floats(1e-100, 1.0)))
    def test_bits_match_the_level_loop(self, n, p):
        x = np.full(n, p)
        with np.errstate(over="ignore", invalid="ignore"):  # (1, 2) factors overflow
            for a, b in ((1.0 - x, x), (np.ones(n), 2.0 * x)):
                assert _linear_product(a, b).tobytes() == level_loop_oracle(a, b).tobytes()

    def test_binomial_pmf_makes_logarithmically_many_convolutions(self, monkeypatch):
        n = 10**5
        calls = []
        convolve = np.convolve
        monkeypatch.setattr(np, "convolve", lambda *args: calls.append(1) or convolve(*args))
        _sn.cache_clear()
        poisson_binomial_pmf(equal_probs(n, 50.0))
        assert 0 < len(calls) <= 2 * math.ceil(math.log2(n)) + 1

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 3000), st.one_of(st.floats(5e-324, 1.0), st.floats(5e-324, 1e-300),
                                           st.sampled_from([5e-324, 2.0**-1022, 1e-160, 1.0])))
    def test_power_sums_keep_the_fsum_bits(self, n, x):
        p = ProbVector((x,) * n)
        y = xs = np.array(p.probs)
        want = []
        for _ in range(12):
            want.append(math.fsum(y.tolist()))
            y = y * xs
        _sn.cache_clear()
        assert power_sums(p, 12).values == tuple(want)


def pinned_vectors():
    """Seeded vectors of every tree shape: n = 1..3 (no level or one), odd
    levels (31), slice and convolve levels (500, 1601), a p = 1 entry, all
    p equal, and p near 1e-100, whose products underflow to zero."""
    vectors = {}
    for n in (1, 2, 3, 31, 500, 1601):
        rng = np.random.default_rng(n)
        vectors[f"n{n}"] = ProbVector(tuple(rng.uniform(0.0, min(1.0, 40.0 / n), n).tolist()))
    rng = np.random.default_rng(7)
    vectors["one"] = ProbVector((0.25, 1.0) + tuple(rng.uniform(0.0, 0.6, 20).tolist()))
    vectors["equal"] = equal_probs(1000, 30.0)
    vectors["tiny"] = ProbVector(
        tuple((1e-100 * np.random.default_rng(8).uniform(0.5, 1.5, 40)).tolist()))
    return vectors


def sha16(a):
    return hashlib.sha256(a.tobytes()).hexdigest()[:16]


def dot_kernel_probe():
    """np.convolve sums through numpy's dot, which is BLAS ddot, whose
    summation order depends on the CPU kernel: this digest tells them apart."""
    x = np.random.default_rng(0).uniform(0.0, 1.0, 1000)
    return sha16(np.convolve(x, x[::-1].copy()))


# First 16 hex digits of the SHA-256 of the bytes of the pmf, the uncut
# weighted moments and the moments at mmax = 15, one table per dot kernel (set by OPENBLAS_CORETYPE): a rewrite of the tree
# that keeps its summation order keeps these bits.
PINNED_TREE_BITS = {
    "4e62fc9ba73bd7a6": {  # SkylakeX (AVX-512)
        "n1": ("b809631d87d9aa07", "d0f6f2a0c48d41e7", "d0f6f2a0c48d41e7"),
        "n2": ("7cfc575be78c86ed", "9b287808f0c54b62", "9b287808f0c54b62"),
        "n3": ("6d07580b5e879629", "34e36177416aa4e5", "34e36177416aa4e5"),
        "n31": ("5ba9c30462c5b79d", "6ac323157355d983", "7aaaa3caa545b036"),
        "n500": ("716968081308620b", "ad2daf0726d2415f", "6452d732ebb6845f"),
        "n1601": ("62e70ff42efe466b", "25ca9255f52e7ea3", "0c0e5efb840decf7"),
        "one": ("96502d849be97074", "e3bc8af9547aaf78", "073f04b6fcb79895"),
        "equal": ("72b866ceb25bcd5d", "e965f28e7edfccfb", "be5206a4c76b4c93"),
        "tiny": ("50288093a18f8c64", "4f59294e053ffe4b", "9428b24e049d2708"),
    },
    "468a345f40f0299a": {  # Haswell and Zen (AVX2)
        "n1": ("b809631d87d9aa07", "d0f6f2a0c48d41e7", "d0f6f2a0c48d41e7"),
        "n2": ("7cfc575be78c86ed", "9b287808f0c54b62", "9b287808f0c54b62"),
        "n3": ("6d07580b5e879629", "34e36177416aa4e5", "34e36177416aa4e5"),
        "n31": ("3e16502310703db7", "824dd4cce00d9f07", "257be0408b0fe2b4"),
        "n500": ("bbff0d12da6b30c5", "6e6b4cd0c9609fdc", "12de4507ff578584"),
        "n1601": ("dd99dcad14b927da", "e9476652838c8bde", "8027d5797cf39bd9"),
        "one": ("c5bc13ccd96e0b8a", "390755d8a8dc0639", "ecc2ff2707cecc23"),
        "equal": ("d93204cfe01bc124", "7d32c7e77e8ae5b7", "c897dfd5c4135fdb"),
        "tiny": ("50288093a18f8c64", "4f59294e053ffe4b", "9428b24e049d2708"),
    },
    "40a9ad54100b8746": {  # Sandybridge (AVX)
        "n1": ("b809631d87d9aa07", "d0f6f2a0c48d41e7", "d0f6f2a0c48d41e7"),
        "n2": ("7cfc575be78c86ed", "9b287808f0c54b62", "9b287808f0c54b62"),
        "n3": ("6d07580b5e879629", "34e36177416aa4e5", "34e36177416aa4e5"),
        "n31": ("3e16502310703db7", "824dd4cce00d9f07", "257be0408b0fe2b4"),
        "n500": ("3442f44d676e347e", "811d1178bff529de", "12de4507ff578584"),
        "n1601": ("20260347db35ed1e", "35a3b53bc2b98e9f", "8027d5797cf39bd9"),
        "one": ("c5bc13ccd96e0b8a", "390755d8a8dc0639", "ecc2ff2707cecc23"),
        "equal": ("4c91a26e82295d1a", "3f54f6e7147bf798", "c897dfd5c4135fdb"),
        "tiny": ("50288093a18f8c64", "4f59294e053ffe4b", "9428b24e049d2708"),
    },
}


class TestPinnedTreeBits:
    """The product tree's arrays keep the bits they had when these were
    recorded; on a dot kernel with no record the test cannot say and skips."""

    @pytest.mark.parametrize("name", list(pinned_vectors()))
    def test_arrays_keep_their_bits(self, name):
        pins = PINNED_TREE_BITS.get(dot_kernel_probe())
        if pins is None:
            pytest.skip("no pins recorded for this BLAS dot kernel")
        p = pinned_vectors()[name]
        with np.errstate(over="ignore"):
            arrays = (poisson_binomial_pmf(p).mass, factorial_moments_sn(p).weighted,
                      factorial_moments_sn(p, 15).weighted)
        assert tuple(sha16(a) for a in arrays) == pins[name]


class TestCutMoments:
    """A cut of S_n's moments is a prefix of its one uncut array."""

    @staticmethod
    def assert_cuts_are_prefixes(p):
        full = factorial_moments_sn(p).weighted
        for m in range(p.n):
            cut = factorial_moments_sn(p, m)
            assert cut.weighted.tobytes() == full[:m + 1].tobytes(), m
            assert cut.tail == math.inf

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.one_of(st.floats(0.0, 1.0), st.just(1.0)), max_size=60))
    def test_every_cut_reads_the_uncut_bits(self, probs):
        self.assert_cuts_are_prefixes(ProbVector(tuple(probs)))

    @pytest.mark.parametrize("name", list(pinned_vectors()))
    def test_pinned_vectors_cut_to_prefixes(self, name):
        self.assert_cuts_are_prefixes(pinned_vectors()[name])

    def test_bound_checks_build_no_tree_of_their_own(self, monkeypatch):
        p = spread_probs(1318, 30.0)
        factorial_moments_sn(p)
        calls = []
        monkeypatch.setattr("corrpois.pmf._linear_product",
                            lambda *args: calls.append(1) or _linear_product(*args))
        check_sandwich(p, 15)
        check_lower3(p, 10)
        assert calls == []


class TestFactorialMoments:
    @pytest.mark.parametrize("weighted, order", [([math.nan, 0.5], 0), ([1.0, math.nan], 1)])
    def test_nan_entry_refused_by_its_order(self, weighted, order):
        with pytest.raises(ValueError, match=f"order {order} is NaN"):
            FactorialMoments(np.array(weighted), 0.0)

    def test_infinite_entry_raises_when_read(self):
        mu = FactorialMoments(np.array([1.0, math.inf]), 0.0)
        assert mu(0) == 1.0
        with pytest.raises(OverflowError):
            mu(1)

    def test_hand_value(self):
        mu = factorial_moments_sn(ProbVector((0.1, 0.2, 0.3)))
        assert mu(2) == pytest.approx(2.0 * 0.11, rel=1e-14)

    def test_bernoulli(self):
        mu = factorial_moments_sn(ProbVector((0.37,)))
        assert mu(1) == pytest.approx(0.37)
        assert mu(2) == 0.0

    def test_two_coins(self):
        mu = factorial_moments_sn(ProbVector((0.5, 0.5)))
        assert mu(2) == pytest.approx(0.5, rel=1e-15)

    def test_matches_enumeration(self):
        probs = (0.15, 0.6, 0.33)
        mu = factorial_moments_sn(ProbVector(probs), mmax=6)
        for m in range(7):
            want = enumerated_factorial_moment(probs, m)
            assert abs(mu(m) - want) <= 1e-14 * max(1.0, abs(want))

    def test_matches_pmf_weighted_sum(self):
        rng = np.random.default_rng(7)
        p = ProbVector(tuple(rng.uniform(0, 1, 100).tolist()))
        mu = factorial_moments_sn(p, mmax=20)
        pmf = poisson_binomial_pmf(p)
        for m in range(21):
            ff = np.ones(pmf.mass.size)
            for i in range(m):
                ff *= np.arange(pmf.mass.size) - i
            want = math.fsum((ff * pmf.mass).tolist())
            assert abs(mu(m) - want) <= 1e-10 * max(1.0, abs(want))

    def test_dominated_by_mean_powers(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            p = ProbVector(tuple(rng.uniform(0, 0.9, rng.integers(1, 12)).tolist()))
            mu = factorial_moments_sn(p, mmax=20)
            lam = p.lam
            for m in range(1, 21):
                assert mu(m) <= lam**m * (1 + 1e-12)

    def test_weighted_is_doubled_elementary_symmetric(self):
        rng = np.random.default_rng(23)
        p = ProbVector(tuple(rng.uniform(0, 1, 40).tolist()))
        fm = factorial_moments_sn(p)
        e = _linear_product(np.ones(p.n), np.array(p.probs))
        assert fm.weighted.tolist() == [math.ldexp(x, m) for m, x in enumerate(e.tolist())]
        assert fm.tail == 0.0
        assert factorial_moments_sn(p, 5).tail == math.inf
        with pytest.raises(ValueError):
            factorial_moments_sn(p, 5)(6)

    def test_beyond_float_range_raises(self):
        with pytest.raises(OverflowError):
            factorial_moments_sn(equal_probs(3000, 450.0))(170)
        with pytest.raises(OverflowError):
            factorial_moments_sn(equal_probs(1000, 20.0))(300)
        with pytest.raises(OverflowError, match="order 300 "):
            factorial_moments_sn(equal_probs(1000, 30.0))(300)

    def test_past_170_reads_every_stored_entry(self):
        # 2^-m |w| is subnormal from about m = 248 on; it used to read 0.0 there
        n, lam = 1500, 5.0
        fm = factorial_moments_sn(equal_probs(n, lam))
        assert fm.weighted[248] == pytest.approx(7.66e-250, rel=1e-3)
        assert fm(248) == pytest.approx(8.8e163, rel=1e-2)
        for m in range(171, n + 1):
            w = float(fm.weighted[m])
            if abs(w) < sys.float_info.min:  # subnormal or 0.0: the tree's underflow
                # error is no longer small next to it (mu_296 would read 2.3 % low)
                with pytest.raises(ValueError, match=f"order {m} "):
                    fm(m)
                continue
            got = fm(m)
            e = math.ldexp(w, -m)
            if e >= sys.float_info.min:  # the bits of the read before subnormal 2^-m |w|
                assert got == math.exp(math.lgamma(m + 1) + math.log(e))
            # log mu_m = log(n! / (n - m)! (lam / n)^m); underflow in the product
            # tree adds an absolute error below 2^-1022 to w
            log_exact = math.lgamma(n + 1) - math.lgamma(n - m + 1) + m * math.log(lam / n)
            assert abs(math.log(got) - log_exact) <= 1e-9 + 2.0**-1022 / w
        assert min(m for m in range(n + 1) if fm.weighted[m] < sys.float_info.min) == 287
        assert min(m for m in range(n + 1) if fm.weighted[m] == 0.0) == 297

    def test_underflowed_entry_refuses_where_it_may_hide_a_normal_moment(self):
        with pytest.raises(ValueError, match="order 1500 "):
            factorial_moments_sn(equal_probs(1500, 20.0))(1500)
        # p near 1e-100: entries from m = 4 on are 0.0, and below m = 24
        # (m! / 2^m < 2^52) they read as before, bit for bit
        p = ProbVector(tuple((1e-100 * np.random.default_rng(8).uniform(0.5, 1.5, 40)).tolist()))
        fm = factorial_moments_sn(p)
        for m in range(24):
            w = float(fm.weighted[m])
            assert fm(m) == w * math.ldexp(math.factorial(m), -m)
        assert fm(23) == 0.0
        # from m = 24 on, mu_m <= fsum(p)^m, about 1e-2350: 0.0 is its rounding
        for m in range(24, 41):
            assert fm(m) == 0.0
        # with no bound on mu_m, a 0.0 at m = 24 may hide a normal mu_m
        with pytest.raises(ValueError, match="order 24 "):
            FactorialMoments(np.array([1.0] + [0.0] * 24), 0.0)(24)


class TestPowerSums:
    def test_hand_value(self):
        ps = power_sums(ProbVector((0.1, 0.2, 0.3)), 2)
        assert ps[2] == pytest.approx(0.14, rel=1e-15)

    def test_equal_probs_closed_form(self):
        n, lam = 16, 2.0
        ps = power_sums(equal_probs(n, lam), 4)
        for j in range(1, 5):
            assert ps[j] == pytest.approx(lam**j / n ** (j - 1), rel=1e-13)

    def test_empty_vector(self):
        ps = power_sums(ProbVector(()), 3)
        assert ps.values == (0.0, 0.0, 0.0)

    def test_monotone_in_order(self):
        rng = np.random.default_rng(23)
        p = ProbVector(tuple(rng.uniform(0, 1, 40).tolist()))
        ps = power_sums(p, 8)
        for j in range(1, 8):
            assert ps[j] >= ps[j + 1]

    ENTRIES = st.one_of(st.floats(0.0, 1.0), st.floats(0.0, 1e-300), st.floats(0.0, 1e-160),
                        st.floats(0.999, 1.0), st.just(1.0))

    @settings(max_examples=150, deadline=None)
    @given(st.lists(ENTRIES, max_size=30))
    def test_running_product_bound(self, probs):
        """The running product's proven bound against exact Fraction sums,
        read as g_j lambda_j + n (j - 1) 2^-1075 (the proof also allows a
        factor 1 + u on the second term)."""
        p = ProbVector(tuple(probs))
        lams = power_sums(p, 12).values
        assert power_sums(p, 1).values[0] == p.lam
        exact = [Fraction(x) for x in p.probs]
        terms = exact
        for j, got in enumerate(lams, start=1):
            want = sum(terms, Fraction(0))
            g = j * U / (1 - j * U)
            assert abs(Fraction(got) - want) <= g * want + p.n * (j - 1) * Fraction(1, 2**1075), j
            terms = [t * x for t, x in zip(terms, exact)]
        assert all(b <= a for a, b in zip(lams, lams[1:]))

    @settings(max_examples=50, deadline=None)
    @given(st.lists(ENTRIES, max_size=30))
    def test_longer_run_repeats_the_bits(self, probs):
        p = ProbVector(tuple(probs))
        _sn.cache_clear()
        short = power_sums(p, 3).values
        assert power_sums(p, 8).values[:3] == short
        _sn.cache_clear()
        assert power_sums(p, 8).values[:3] == short


class TestSignedPmf:
    def test_sum_outside_tail_bound_rejected(self):
        with pytest.raises(ValueError):
            SignedPmf(np.array([0.5, 0.4]), 0.0, "bad")

    def test_no_allowance_past_the_tail_bound(self):
        with pytest.raises(ValueError):
            SignedPmf(np.array([0.5, 0.5 + 2**-45]), 0.0, "x")

    def test_signed_mass_allowed_within_bound(self):
        pmf = SignedPmf(np.array([1.2, -0.2]), 0.0, "signed")
        assert not pmf.is_proper

    def test_mass_is_read_only(self):
        pmf = poisson_pmf(1.0, 5)
        with pytest.raises(ValueError):
            pmf.mass[0] = 0.0


class TestLoadProbs:
    def test_text_lines(self, tmp_path):
        f = tmp_path / "p.txt"
        f.write_text("0.1\n0.2\n\n0.3\n")
        assert load_probs(str(f)).probs == (0.1, 0.2, 0.3)

    def test_json_array(self, tmp_path):
        f = tmp_path / "p.json"
        f.write_text(json.dumps([0.25, 0.5]))
        assert load_probs(str(f)).probs == (0.25, 0.5)

    def test_rejects_out_of_range(self, tmp_path):
        f = tmp_path / "p.txt"
        f.write_text("0.5\n1.5\n")
        with pytest.raises(ValueError):
            load_probs(str(f))

    def test_rejects_garbage(self, tmp_path):
        f = tmp_path / "p.txt"
        f.write_text("0.5\nhello\n")
        with pytest.raises(ValueError):
            load_probs(str(f))

    def test_json_integer_beyond_binary64_names_the_file(self, tmp_path):
        f = tmp_path / "p.json"
        f.write_text(f"[0.5, {10**400}]")
        with pytest.raises(ValueError) as refusal:
            load_probs(str(f))
        assert str(refusal.value) == ("JSON probability file holds an integer beyond binary64: "
                                      f"{f}")
