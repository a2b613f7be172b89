import itertools
import time
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ruledsurf import (
    Curve,
    SplitBundle,
    frobenius_pullback,
    hn_data,
    min_destabilizing_e,
    symmetric_power_stats,
)

degree_lists = st.lists(st.integers(-5, 5), min_size=1, max_size=5)


def mu_max_bruteforce(degrees):
    """Max average degree over all non-empty sub-multisets."""
    best = None
    for r in range(1, len(degrees) + 1):
        for combo in itertools.combinations(degrees, r):
            mu = Fraction(sum(combo), r)
            if best is None or mu > best:
                best = mu
    return best


def sym_power_bruteforce(degrees, n):
    """Enumerate all degree-n monomials in the summands."""
    rank = 0
    degree = 0
    r = len(degrees)
    for k in itertools.product(range(n + 1), repeat=r):
        if sum(k) != n:
            continue
        rank += 1
        degree += sum(ki * di for ki, di in zip(k, degrees))
    return rank, degree


class TestCurve:
    def test_canonical_degree(self):
        assert Curve(0).canonical_degree == -2
        assert Curve(3).canonical_degree == 4

    def test_rejects_negative_genus(self):
        with pytest.raises(ValueError):
            Curve(-1)

    def test_rejects_composite_characteristic(self):
        with pytest.raises(ValueError):
            Curve(1, 4)

    @pytest.mark.parametrize("p", [1, -3])
    def test_rejects_characteristic_below_two(self, p):
        with pytest.raises(ValueError, match="0 or a prime"):
            Curve(1, p)

    @pytest.mark.parametrize("genus, p", [(1.5, 0), (True, 0), ("2", 0), (1, 2.0), (1, True)])
    def test_rejects_non_integer_fields(self, genus, p):
        # A float genus would otherwise reach the lattice sums and fail
        # there with TypeError; a bool would pass as 0 or 1.
        with pytest.raises(ValueError, match="genus and characteristic must be integers"):
            Curve(genus, p)

    def test_accepts_primes(self):
        Curve(1, 2)
        Curve(1, 97)

    def test_large_prime_decided_quickly(self):
        assert Curve(1, 1000000000000000003).characteristic == 1000000000000000003

    def test_rejects_carmichael_and_strong_pseudoprime(self):
        # 561 fools the Fermat test to every coprime base; 3215031751 is a
        # strong pseudoprime to the bases 2, 3, 5 and 7.
        for n in (561, 3215031751):
            with pytest.raises(ValueError, match="0 or a prime"):
                Curve(1, n)

    def test_primality_matches_trial_division(self):
        def trial(n):
            return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))
        for n in range(2, 3000):
            try:
                Curve(0, n)
                accepted = True
            except ValueError:
                accepted = False
            assert accepted == trial(n), n

    def test_characteristic_beyond_primality_bound(self):
        with pytest.raises(ValueError, match="below 3317044064679887385961981"):
            Curve(1, 3317044064679887385961981)


class TestSplitBundle:
    def test_canonicalizes_order(self):
        assert SplitBundle((0, 5)).degrees == (5, 0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            SplitBundle(())

    def test_rejects_bool_degree(self):
        with pytest.raises(ValueError):
            SplitBundle((True, 0))

    def test_rejects_non_integer_before_sorting(self):
        # Unsortable entries must still give ValueError, not TypeError.
        with pytest.raises(ValueError):
            SplitBundle((1, "x"))
        with pytest.raises(ValueError):
            SplitBundle((1.5, 0))

    def test_slope(self):
        assert SplitBundle((3, 1, 1, 0)).slope == Fraction(5, 4)


class TestRecords:
    """Beyond the contract in tests/test_records.py: defaults, sorted degrees."""

    def test_keywords_and_defaults(self):
        assert Curve(genus=2) == Curve(2) == Curve(2, characteristic=0)
        assert Curve(genus=2).characteristic == 0
        assert SplitBundle(degrees=[0, 5, 2]).degrees == (5, 2, 0)


class TestHNData:
    def test_two_distinct_degrees(self):
        b = SplitBundle((5, 0))
        assert hn_data(b) == ((5, 1), (0, 1))
        assert b.mu_max == 5 and b.mu_min == 0

    def test_single_block_semistable(self):
        b = SplitBundle((2, 2, 2))
        assert hn_data(b) == ((2, 3),)
        assert b.mu_max == b.mu_min == 2

    def test_three_blocks(self):
        b = SplitBundle((3, 1, 1, 0))
        assert hn_data(b) == ((3, 1), (1, 2), (0, 1))
        assert b.mu_max == 3 and b.mu_min == 0

    @given(degree_lists)
    def test_permutation_invariance(self, degrees):
        bundles = [SplitBundle(tuple(p)) for p in itertools.permutations(degrees)]
        assert len({hn_data(b) for b in bundles}) == 1
        assert len({(b.mu_max, b.mu_min) for b in bundles}) == 1

    @given(degree_lists)
    def test_mu_max_matches_subsum_search(self, degrees):
        b = SplitBundle(tuple(degrees))
        assert b.mu_max == mu_max_bruteforce(degrees)
        assert b.mu_min == -mu_max_bruteforce([-d for d in degrees])
        blocks = hn_data(b)
        assert (blocks[0][0], blocks[-1][0]) == (b.mu_max, b.mu_min)

    @given(degree_lists)
    def test_multiplicities_sum_to_rank(self, degrees):
        blocks = hn_data(SplitBundle(tuple(degrees)))
        assert sum(mult for _, mult in blocks) == len(degrees)
        slopes = [s for s, _ in blocks]
        assert slopes == sorted(slopes, reverse=True)
        assert len(set(slopes)) == len(slopes)


class TestSymmetricPower:
    def test_rank2_square(self):
        assert symmetric_power_stats(SplitBundle((1, 0)), 2)[:2] == (3, 3)

    def test_line_bundle_power(self):
        for n in range(6):
            assert symmetric_power_stats(SplitBundle((4,)), n)[:2] == (1, 4 * n)

    def test_rank3_against_enumeration(self):
        bundle = SplitBundle((2, 1, 0))
        rank, degree, slope = symmetric_power_stats(bundle, 4)
        assert (rank, degree) == (15, sym_power_bruteforce((2, 1, 0), 4)[1])
        assert rank == 15

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            symmetric_power_stats(SplitBundle((1,)), -1)

    @given(st.lists(st.integers(-3, 3), min_size=1, max_size=4),
           st.integers(0, 6))
    def test_matches_enumeration(self, degrees, n):
        bundle = SplitBundle(tuple(degrees))
        rank, degree, slope = symmetric_power_stats(bundle, n)
        assert (rank, degree) == sym_power_bruteforce(bundle.degrees, n)

    def test_slope_scaling_exhaustive(self):
        # mu(S^n E) = n mu(E) for r <= 4, |d_i| <= 5, n <= 8
        for r in range(1, 5):
            for degrees in itertools.combinations_with_replacement(range(-5, 6), r):
                bundle = SplitBundle(degrees)
                for n in range(9):
                    assert symmetric_power_stats(bundle, n)[2] == n * bundle.slope


class TestFrobenius:
    def test_scaling(self):
        assert frobenius_pullback(Curve(1, 2), SplitBundle((1, 0)), 2).degrees == (4, 0)
        assert frobenius_pullback(Curve(1, 3), SplitBundle((2, -1)), 1).degrees == (6, -3)

    def test_identity(self):
        b = SplitBundle((3, 1))
        assert frobenius_pullback(Curve(2, 0), b, 0) == b

    def test_char_zero_rejected(self):
        with pytest.raises(ValueError, match="characteristic zero"):
            frobenius_pullback(Curve(1, 0), SplitBundle((1, 0)), 1)

    def test_negative_e_rejected(self):
        with pytest.raises(ValueError, match="e must be non-negative"):
            frobenius_pullback(Curve(1, 3), SplitBundle((1, 0)), -1)

    @given(st.lists(st.integers(-4, 4), min_size=1, max_size=4),
           st.sampled_from([2, 3, 5]), st.integers(0, 3), st.integers(0, 3))
    def test_composition(self, degrees, p, e1, e2):
        curve = Curve(1, p)
        bundle = SplitBundle(tuple(degrees))
        once = frobenius_pullback(curve, frobenius_pullback(curve, bundle, e1), e2)
        assert once == frobenius_pullback(curve, bundle, e1 + e2)

    def test_printable_bound(self):
        # The bound is checked before p**e is built: a 10^8-fold pullback
        # would otherwise run for more than a minute.
        start = time.perf_counter()
        with pytest.raises(ValueError, match="limit of 4300"):
            frobenius_pullback(Curve(1, 3), SplitBundle((2, 1)), 10**8)
        assert time.perf_counter() - start < 1.0


class TestMinDestabilizingE:
    def test_p2_g2(self):
        assert min_destabilizing_e(Curve(2, 2), SplitBundle((1, 0))) == 2

    def test_genus1_any_char(self):
        for p in (0, 2, 3, 5):
            assert min_destabilizing_e(Curve(1, p), SplitBundle((1, 0))) == 0

    def test_equal_degrees_none(self):
        assert min_destabilizing_e(Curve(3, 5), SplitBundle((2, 2))) is None

    def test_char_zero_below_threshold_none(self):
        assert min_destabilizing_e(Curve(2, 0), SplitBundle((1, 0))) is None

    def test_rank_rejected(self):
        with pytest.raises(ValueError):
            min_destabilizing_e(Curve(1, 2), SplitBundle((1, 0, 0)))

    @given(st.sampled_from([2, 3, 5, 7]), st.integers(0, 5),
           st.integers(-4, 4), st.integers(-4, 4))
    def test_minimality(self, p, g, d1, d2):
        curve = Curve(g, p)
        bundle = SplitBundle((d1, d2))
        e = min_destabilizing_e(curve, bundle)
        gap = bundle.degrees[0] - bundle.degrees[1]
        if e is None:
            assert gap == 0
        else:
            assert p**e * gap > 2 * g - 2
            if e >= 1:
                assert p ** (e - 1) * gap <= 2 * g - 2
