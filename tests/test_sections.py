from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ruledsurf import (
    Curve,
    H0Interval,
    NumClass,
    RuledSurface,
    SplitBundle,
    Verdict,
    big_test,
    canonical_class,
    growth_classify,
    h0_class_interval,
    h0_interval_curve,
    volume,
)
from ruledsurf import sections
from ruledsurf.sections import ladder, lattice_work


def surface(g, *degrees, p=0):
    return RuledSurface(Curve(g, p), SplitBundle(degrees))


def compositions(total, parts):
    """All k in Z^parts_{>=0} with sum(k) = total."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in compositions(total - head, parts - 1):
            yield (head,) + rest


def brute_force_interval(s, cls):
    """Reference for h0_class_interval: one curve interval per lattice point."""
    if cls.a < 0:
        return H0Interval(0, 0)
    if cls.a == 0 and cls.b == 0:
        return H0Interval(1, 1)
    lo = hi = 0
    for k in compositions(cls.a, s.rank):
        iv = h0_interval_curve(s.curve, sum(ki * di for ki, di in zip(k, s.bundle.degrees)) + cls.b)
        lo += iv.lo
        hi += iv.hi
    return H0Interval(lo, hi)


class TestH0IntervalCurve:
    def test_negative_degree(self):
        assert h0_interval_curve(Curve(2), -1) == H0Interval(0, 0)

    def test_degree_zero(self):
        assert h0_interval_curve(Curve(1), 0) == H0Interval(0, 1)

    def test_genus0_exact_from_minus_one(self):
        # On P^1 every line bundle of degree d >= -1 has exactly d + 1 sections.
        assert h0_interval_curve(Curve(0), 0) == H0Interval(1, 1)
        assert h0_interval_curve(Curve(0), -1) == H0Interval(0, 0)
        assert h0_interval_curve(Curve(0), 3) == H0Interval(4, 4)

    def test_riemann_roch_exact(self):
        assert h0_interval_curve(Curve(2), 5) == H0Interval(4, 4)

    def test_special_range_clifford(self):
        # chi = 0 from below, Clifford floor(2/2)+1 = 2 from above; a
        # hyperelliptic pencil attains the upper bound.
        assert h0_interval_curve(Curve(3), 2) == H0Interval(0, 2)

    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError):
            H0Interval(3, 2)


class TestH0ClassInterval:
    def test_elliptic_anticanonical(self):
        # k in {(2,0),(1,1),(0,2)} -> curve degrees 1, 0, -1
        assert h0_class_interval(surface(1, 1, 0), NumClass(2, -1)) == H0Interval(1, 2)

    def test_structure_sheaf(self):
        assert h0_class_interval(surface(2, 3, 1), NumClass(0, 0)) == H0Interval(1, 1)

    def test_genus2_exact(self):
        # curve degrees 3, -2, -7; only the first is effective and it is
        # beyond 2g-2, so the count is exact.
        assert h0_class_interval(surface(2, 5, 0), NumClass(2, -7)) == H0Interval(2, 2)

    def test_negative_a(self):
        assert h0_class_interval(surface(1, 1, 0), NumClass(-1, 10)) == H0Interval(0, 0)

    @given(st.integers(0, 40), st.lists(st.integers(-6, 6), min_size=2, max_size=6),
           st.integers(0, 12), st.integers(-40, 40))
    @settings(max_examples=300)
    def test_matches_brute_force(self, g, degrees, a, b):
        s = surface(g, *degrees)
        assert h0_class_interval(s, NumClass(a, b)) == brute_force_interval(s, NumClass(a, b))

    @pytest.mark.parametrize("g, degrees, cls", [
        (0, (3, 1, -2), NumClass(7, 2)),     # genus 0: exact from degree -1 up
        (0, (0, 0), NumClass(5, -1)),        # genus 0, equal degrees
        (2, (4, 4), NumClass(6, -20)),       # equal last two degrees: step 0
        (5, (3, 1, 1), NumClass(9, -4)),     # step 0 in rank 3
        (3, (2, -1, -1, -1), NumClass(8, 3)),
        (3, (4, 1), NumClass(0, 5)),         # a = 0, b != 0: one point of degree b
        (3, (4, 1), NumClass(0, -5)),
        (30, (1, 0), NumClass(1, 0)),        # the high-genus (1, 0) class
        (30, (1, 0), NumClass(64, 0)),
    ])
    def test_matches_brute_force_cases(self, g, degrees, cls):
        s = surface(g, *degrees)
        assert h0_class_interval(s, cls) == brute_force_interval(s, cls)

    def test_rank2_large_m_is_fast(self):
        # O(g) for rank 2 whatever a is: a brute-force walk would visit
        # 10^12 points here.
        # degrees 5j for j = 0..a: [0, 1] at j = 0, then exactly 5j - 2.
        a = 10**12
        exact = 5 * a * (a + 1) // 2 - 2 * a
        assert h0_class_interval(surface(3, 5, 0), NumClass(a, 0)) == H0Interval(exact, exact + 1)

    def test_work_bound(self):
        # a = 128 in rank 4 at g = 40 is C(131, 2) + C(130, 2) * 79 =
        # 670,930 work units, near the largest benchmark query, and runs;
        # C(4003, 2) + C(4002, 2) * 3 units do not.
        assert h0_class_interval(surface(40, 3, 1, 0, -2), NumClass(128, 0)).lo > 0
        with pytest.raises(ValueError, match="limit of 4000000"):
            h0_class_interval(surface(2, 3, 1, 0, -2), NumClass(4000, 0))

    @given(st.integers(0, 6), st.lists(st.integers(-5, 5), min_size=2, max_size=6),
           st.integers(0, 10), st.integers(-30, 30))
    @settings(max_examples=200)
    def test_work_counts_calls(self, g, degrees, a, b):
        # One work unit is one call: the recursion makes exactly
        # C(a+r-1, r-2) calls, C(a+r-2, r-2) of them rank-2 leaves, and
        # each leaf makes at most min(a+1, max(1, 2g-1)) curve calls.
        s = surface(g, *degrees)
        cls = NumClass(a, b)
        assume((a, b) != (0, 0))
        calls = {"slice": 0, "curve": 0}
        per_leaf = []

        def count_slice(*args):
            calls["slice"] += 1
            return walk(*args)

        def count_curve(*args):
            calls["curve"] += 1
            return curve(*args)

        def count_leaf(*args):
            before = calls["curve"]
            result = leaf(*args)
            per_leaf.append(calls["curve"] - before)
            return result

        walk, curve, leaf = (sections._slice_interval, sections.h0_interval_curve,
                             sections._progression_interval)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sections, "_slice_interval", count_slice)
            mp.setattr(sections, "h0_interval_curve", count_curve)
            mp.setattr(sections, "_progression_interval", count_leaf)
            h0_class_interval(s, cls)
        r = s.rank
        leaf_bound = min(a + 1, max(1, 2 * g - 1))
        assert calls["slice"] == comb(a + r - 1, r - 2)
        assert len(per_leaf) == comb(a + r - 2, r - 2)
        assert max(per_leaf) <= leaf_bound
        assert lattice_work(s, cls) == calls["slice"] + len(per_leaf) * leaf_bound

    @given(st.integers(1, 3), st.integers(-3, 3), st.integers(-3, 3),
           st.integers(0, 4), st.integers(-5, 5), st.integers(0, 4))
    @settings(max_examples=60)
    def test_monotone_in_b(self, g, d1, d2, a, b, extra):
        s = surface(g, d1, d2)
        lower = h0_class_interval(s, NumClass(a, b))
        upper = h0_class_interval(s, NumClass(a, b + extra))
        if (a, b) != (0, 0) and (a, b + extra) != (0, 0):
            assert upper.lo >= lower.lo and upper.hi >= lower.hi


class TestVolume:
    def test_elliptic_example(self):
        assert volume(surface(1, 1, 0), NumClass(2, -1)) == 1

    def test_zero_outside_big_cone(self):
        s = surface(2, 2, 0)
        assert volume(s, -canonical_class(s)) == 0
        assert volume(s, NumClass(0, 5)) == 0
        assert volume(s, NumClass(-1, 5)) == 0

    def test_confluent_knots_rank3(self):
        # repeated summand degrees merge into one higher-multiplicity knot
        s = surface(2, 4, 2, 2)
        assert volume(s, NumClass(3, -10)) == 2

    @given(st.integers(1, 3), st.integers(-4, 4), st.integers(-4, 4),
           st.integers(-5, 5), st.integers(-5, 5))
    def test_positive_iff_big(self, g, d1, d2, a, b):
        s = surface(g, d1, d2)
        cls = NumClass(a, b)
        assert (volume(s, cls) > 0) == big_test(s, cls)

    @given(st.integers(1, 3), st.integers(-4, 4), st.integers(-4, 4),
           st.integers(-5, 5), st.integers(-5, 5), st.sampled_from([1, 2, 3]))
    def test_homogeneity(self, g, d1, d2, a, b, t):
        s = surface(g, d1, d2)
        cls = NumClass(a, b)
        assert volume(s, t * cls) == Fraction(t) ** 2 * volume(s, cls)

    @given(st.integers(1, 3), st.integers(-4, 4), st.integers(-4, 4),
           st.integers(-5, 5), st.integers(-5, 5), st.integers(-3, 3))
    def test_twist_invariance(self, g, d1, d2, a, b, t):
        s = surface(g, d1, d2)
        twisted = surface(g, d1 + t, d2 + t)
        assert volume(s, NumClass(a, b)) == volume(twisted, NumClass(a, b - a * t))

    def test_lattice_sum_converges_to_volume(self):
        # Richardson-style check: the exact lattice sums approach the
        # returned rational at rate O(1/m).
        s = surface(1, 1, 0)
        cls = NumClass(2, -1)
        vol = volume(s, cls)
        errors = []
        for m in (8, 16, 32, 64):
            lo = h0_class_interval(s, m * cls).lo
            errors.append(abs(vol - Fraction(2 * lo, m * m)))
        assert errors == sorted(errors, reverse=True)
        assert errors[-1] <= Fraction(1, 64)


class TestGrowthClassify:
    def test_big_certified(self):
        rep = growth_classify(surface(2, 5, 0), NumClass(2, -7), ladder(64))
        assert rep.verdict is Verdict.BIG_CERTIFIED

    def test_not_big_at_boundary(self):
        rep = growth_classify(surface(2, 2, 0), NumClass(2, -4), ladder(64))
        assert rep.verdict is Verdict.NOT_BIG_CERTIFIED

    def test_fiber_class_not_big(self):
        rep = growth_classify(surface(3, 1, 0), NumClass(0, 1), ladder(32))
        assert rep.verdict is Verdict.NOT_BIG_CERTIFIED
        # On P^1 the counts 4m+1 of 4m fibers pass any ceiling of the form
        # (1+g)(rm+1)^(r-1) = 2m+1; the zero volume still decides.
        rep = growth_classify(surface(0, 1, 0), NumClass(0, 4), ladder(16))
        assert rep.verdict is Verdict.NOT_BIG_CERTIFIED

    def test_m_max_too_small(self):
        with pytest.raises(ValueError):
            ladder(7)

    @given(st.integers(0, 40), st.lists(st.integers(-4, 6), min_size=2, max_size=3),
           st.integers(0, 4), st.integers(-8, 8), st.sampled_from((8, 16)))
    @settings(max_examples=200)
    def test_verdict_follows_volume(self, g, degrees, a, b, m_max):
        s = surface(g, *degrees)
        cls = NumClass(a, b)
        rep = growth_classify(s, cls, ladder(m_max))
        assert rep.volume == volume(s, cls)
        assert (rep.verdict is Verdict.NOT_BIG_CERTIFIED) == (rep.volume == 0)
        if rep.verdict in (Verdict.BIG_CERTIFIED, Verdict.INCONCLUSIVE):
            assert rep.volume > 0

    @given(st.integers(0, 40), st.lists(st.integers(-4, 6), min_size=2, max_size=3),
           st.integers(0, 4), st.integers(-8, 8), st.sampled_from((8, 16, 32, 64)))
    @settings(max_examples=100)
    def test_top_rung_decides(self, g, degrees, a, b, m):
        # The lower rungs only feed the printed samples: sampling m alone
        # gives the same report as its whole ladder, less those samples.
        s = surface(g, *degrees)
        cls = NumClass(a, b)
        top = growth_classify(s, cls, (m,))
        full = growth_classify(s, cls, ladder(m))
        assert top.verdict is full.verdict
        assert top.fitted_lo_coefficient == full.fitted_lo_coefficient
        assert top.volume == full.volume
        assert top.samples == full.samples[-1:]

    def test_high_genus_section_class_inconclusive(self):
        # Big (volume 1), but at g = 30 the Riemann-Roch lower bounds up to
        # m = 64 reach only 1260/4096 of the asymptote: not yet half.
        rep = growth_classify(surface(30, 1, 0), NumClass(1, 0), ladder(64))
        assert rep.volume == 1
        assert rep.fitted_lo_coefficient == Fraction(1260, 4096)
        assert rep.verdict is Verdict.INCONCLUSIVE

    def test_explicit_lower_bound(self):
        # On a big instance with non-negative degrees the section count is
        # bounded below by (a*m - g) * (delta*m - 1)^(r-1) for the linear
        # margin a and any small enough positive rational delta.
        cases = [
            (2, (5, 0)),
            (1, (3, 0)),
            (2, (4, 1, 0)),
        ]
        for g, degrees in cases:
            s = surface(g, *degrees)
            r = s.rank
            d = s.bundle.degrees
            margin = (r - 1) * d[0] - sum(d[1:]) - (2 * g - 2)
            assert margin > 0
            delta = Fraction(margin, 2 * (r - 1) * d[0])
            a_coeff = (
                (1 - delta) * (r - 1) * d[0] - sum(d[1:]) - (2 * g - 2)
            )
            assert a_coeff > 0
            mk = -canonical_class(s)
            for m in (16, 32, 64) if r == 2 else (16, 24):
                lo = h0_class_interval(s, m * mk).lo
                bound = (a_coeff * m - g) * (delta * m - 1) ** (r - 1)
                assert lo >= bound
