import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ruledsurf import (
    Curve,
    NumClass,
    RuledSurface,
    SplitBundle,
    big_test,
    canonical_class,
    intersect,
    nef_test,
    pseff_test,
)

small_classes = st.builds(NumClass, st.integers(-6, 6), st.integers(-6, 6))


def rank2_surface(g=1, d1=1, d2=0, p=0):
    return RuledSurface(Curve(g, p), SplitBundle((d1, d2)))


class TestNumClass:
    @pytest.mark.parametrize("bad", [1.5, True, Fraction(1, 2)])
    def test_rejects_non_integers(self, bad):
        for args in ((bad, 0), (0, bad)):
            with pytest.raises(ValueError, match="must be integers"):
                NumClass(*args)


class TestRuledSurface:
    def test_rank_one_rejected(self):
        with pytest.raises(ValueError):
            RuledSurface(Curve(1), SplitBundle((1,)))

    def test_rank_limit(self):
        assert RuledSurface(Curve(1), SplitBundle((0,) * 128)).rank == 128
        with pytest.raises(ValueError, match="limit of 128"):
            RuledSurface(Curve(1), SplitBundle((0,) * 129))


class TestRecords:
    """NumClass arithmetic; the record contract is pinned in test_records.py."""

    def test_arithmetic(self):
        c, d = NumClass(3, -1), NumClass(1, 2)
        assert -c == NumClass(-3, 1) and type(-c) is NumClass
        assert c - d == NumClass(2, -3) and type(c - d) is NumClass
        assert 2 * c == NumClass(6, -2) and type(2 * c) is NumClass
        with pytest.raises(ValueError, match="must be integers"):
            0.5 * c

    @pytest.mark.parametrize("op", [
        lambda c: c + c, lambda c: c * 2, lambda c: c * c, lambda c: c + (1,),
    ], ids=["sum", "times_int", "times_class", "plus_tuple"])
    def test_no_tuple_arithmetic(self, op):
        # Neither concatenation nor repetition: c + d and c * t are undefined.
        with pytest.raises(TypeError):
            op(NumClass(1, 0))


class TestCanonicalClass:
    def test_elliptic(self):
        assert canonical_class(rank2_surface(1, 1, 0)) == NumClass(-2, 1)

    def test_quadric(self):
        assert canonical_class(rank2_surface(0, 0, 0)) == NumClass(-2, -2)

    def test_genus2(self):
        assert canonical_class(rank2_surface(2, 5, 0)) == NumClass(-2, 7)

    def test_rank3(self):
        s = RuledSurface(Curve(3), SplitBundle((4, 0, 0)))
        assert canonical_class(s) == NumClass(-3, 8)


class TestIntersect:
    def test_defining_relations_rank2(self):
        s = rank2_surface(1, 1, 0)
        xi, f = NumClass(1, 0), NumClass(0, 1)
        assert intersect(s, [xi, xi]) == 1
        assert intersect(s, [xi, f]) == 1
        assert intersect(s, [f, f]) == 0

    def test_xi_cubed_rank3(self):
        s = RuledSurface(Curve(1), SplitBundle((1, 0, 0)))
        xi = NumClass(1, 0)
        assert intersect(s, [xi, xi, xi]) == 1

    def test_k_squared_exhaustive(self):
        for g in range(11):
            for d1 in range(-10, 11):
                for d2 in range(-10, d1 + 1):
                    s = rank2_surface(g, d1, d2)
                    k = canonical_class(s)
                    assert intersect(s, [k, k]) == 8 * (1 - g)

    def test_wrong_arity(self):
        s = rank2_surface()
        with pytest.raises(ValueError):
            intersect(s, [NumClass(1, 0)])

    @given(small_classes, small_classes)
    def test_symmetric(self, c1, c2):
        s = rank2_surface(2, 3, -1)
        assert intersect(s, [c1, c2]) == intersect(s, [c2, c1])

    @given(small_classes, small_classes, small_classes, st.integers(-3, 3))
    def test_multilinear(self, c1, c2, c3, t):
        s = rank2_surface(1, 2, 0)
        assert intersect(s, [NumClass(c1.a + t * c3.a, c1.b + t * c3.b), c2]) == (
            intersect(s, [c1, c2]) + t * intersect(s, [c3, c2])
        )


class TestBigTest:
    def test_theorem_threshold_g2(self):
        s = rank2_surface(2, 5, 0)
        assert big_test(s, NumClass(2, -7))

    def test_equality_not_big(self):
        s = rank2_surface(1, 1, 0)
        assert not big_test(s, NumClass(1, -1))

    def test_fiber_classes_not_big(self):
        assert not big_test(rank2_surface(2, 3, 1), NumClass(0, 5))

    def test_rank3_criterion(self):
        s = RuledSurface(Curve(3), SplitBundle((4, 0, 0)))
        assert big_test(s, NumClass(3, -8))

    @given(st.integers(1, 4), st.integers(-4, 4), st.integers(-4, 4),
           small_classes, st.integers(-3, 3))
    def test_twist_invariance(self, g, d1, d2, cls, t):
        s = RuledSurface(Curve(g), SplitBundle((d1, d2)))
        twisted = RuledSurface(Curve(g), SplitBundle((d1 + t, d2 + t)))
        shifted = NumClass(cls.a, cls.b - cls.a * t)
        assert big_test(s, cls) == big_test(twisted, shifted)

    @given(st.integers(1, 3), st.integers(-4, 4), st.integers(-4, 4), small_classes)
    def test_big_implies_pseff(self, g, d1, d2, cls):
        s = RuledSurface(Curve(g), SplitBundle((d1, d2)))
        if big_test(s, cls):
            assert pseff_test(s, cls)

    @given(st.integers(1, 3), st.integers(-4, 4), st.integers(-4, 4),
           small_classes, st.integers(0, 5))
    def test_monotone_in_b(self, g, d1, d2, cls, extra):
        s = RuledSurface(Curve(g), SplitBundle((d1, d2)))
        if big_test(s, cls):
            assert big_test(s, NumClass(cls.a, cls.b + extra))


class TestPseffTest:
    def test_boundary_class(self):
        s = rank2_surface(2, 3, 0)
        boundary = NumClass(1, -3)
        assert pseff_test(s, boundary)
        assert not big_test(s, boundary)

    def test_fiber_is_pseff(self):
        assert pseff_test(rank2_surface(), NumClass(0, 1))

    def test_negative_a_rejected(self):
        assert not pseff_test(rank2_surface(), NumClass(-1, 100))


class TestNefTest:
    def test_example_nef_and_big(self):
        s = rank2_surface(1, 1, 0)
        cls = NumClass(1, 0)
        assert nef_test(s, cls) and big_test(s, cls)

    def test_fiber_nef_not_big(self):
        s = rank2_surface(1, 1, 0)
        assert nef_test(s, NumClass(0, 1))
        assert not big_test(s, NumClass(0, 1))

    def test_negative_section_not_nef(self):
        s = rank2_surface(1, 1, 0)
        sigma = NumClass(1, -1)
        assert intersect(s, [sigma, sigma]) == -1
        assert not nef_test(s, sigma)

    def test_rank3_rule(self):
        # Nef iff a >= 0 and b >= -a*d_r: on (2, 1, -1), xi + f is nef and
        # xi is not, as it pairs to -1 with the section of E -> O(-1).
        s = RuledSurface(Curve(1), SplitBundle((2, 1, -1)))
        assert nef_test(s, NumClass(1, 1)) and nef_test(s, NumClass(0, 1))
        assert not nef_test(s, NumClass(1, 0))
        assert not nef_test(s, NumClass(-1, 10))

    @given(st.integers(2, 6), st.one_of(st.integers(0, 5), st.just(10**9)), st.data())
    @settings(max_examples=300, deadline=None)
    def test_rule_is_curve_pairings(self, r, g, data):
        # Nef iff D pairs non-negatively with a line l in a fiber and with
        # the section sigma_r of E -> L_r, both computed by intersect
        # alone: xi^(r-2).f is a line, and the product of xi - d_i*f over
        # i < r is sigma_r.
        degrees = sorted(data.draw(st.lists(st.integers(-8, 8), min_size=r, max_size=r)),
                         reverse=True)
        s = RuledSurface(Curve(g), SplitBundle(degrees))
        cls = NumClass(data.draw(st.integers(-3, 8)), data.draw(st.integers(-60, 60)))
        on_section = intersect(s, [cls, *(NumClass(1, -d) for d in degrees[:-1])])
        on_line = intersect(s, [cls, *[NumClass(1, 0)] * (r - 2), NumClass(0, 1)])
        assert (on_section, on_line) == (cls.a * degrees[-1] + cls.b, cls.a)
        assert nef_test(s, cls) == (on_line >= 0 and on_section >= 0)

    @given(st.integers(1, 3), st.integers(-4, 4), st.integers(-4, 4), small_classes)
    def test_nef_and_positive_implies_big(self, g, d1, d2, cls):
        s = RuledSurface(Curve(g), SplitBundle((d1, d2)))
        if nef_test(s, cls) and cls.a > 0 and intersect(s, [cls, cls]) > 0:
            assert big_test(s, cls)


def test_anticanonical_nef_and_big():
    # -K = r*xi - (2g - 2 + deg E)*f is nef and big iff g = 0 and
    # sum_i (d_i - d_r) <= 2; in rank 2 that is e <= 2 on F_e.
    for r in range(2, 6):
        for degrees in itertools.combinations_with_replacement(range(3, -4, -1), r):
            for g in range(4):
                s = RuledSurface(Curve(g), SplitBundle(degrees))
                mk = -canonical_class(s)
                want = g == 0 and sum(d - degrees[-1] for d in degrees) <= 2
                assert (nef_test(s, mk) and big_test(s, mk)) == want, (g, degrees)
