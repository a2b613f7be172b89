from fractions import Fraction
from math import comb, factorial, lcm

import pytest
from hypothesis import assume, example, given, settings
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
    intersect,
    nef_test,
    pseff_test,
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


def walk_by_k(g, degrees, i, base, left):
    """Reference for h0_class_interval on large slices: the O(a) walk the
    closed form replaced.  It loops over k_i at every rank down to one
    progression in rank 2, whose degrees beyond 2g-2 are summed as an
    arithmetic series and whose at most 2g-1 degrees in [0, 2g-2] go
    through h0_interval_curve one by one."""
    if i == len(degrees) - 2:
        start, step, n = base + left * degrees[-1], degrees[-2] - degrees[-1], left + 1
        if step == 0:
            iv = h0_interval_curve(Curve(g), start)
            return n * iv.lo, n * iv.hi
        first_nonneg = min(n, max(0, -(start // step)))
        first_exact = min(n, max(first_nonneg, (2 * g - 2 - start) // step + 1))
        lo = hi = 0
        for j in range(first_nonneg, first_exact):
            iv = h0_interval_curve(Curve(g), start + j * step)
            lo += iv.lo
            hi += iv.hi
        count = n - first_exact
        exact = count * (start - g + 1) + step * (first_exact + n - 1) * count // 2
        return lo + exact, hi + exact
    lo = hi = 0
    for k in range(left + 1):
        plo, phi = walk_by_k(g, degrees, i + 1, base + k * degrees[i], left - k)
        lo += plo
        hi += phi
    return lo, hi


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

    def test_explicit_statement(self):
        # The brute-force oracle reads this function, so it is pinned to
        # the plain statement and not to the ramps it is computed from.
        for g in range(301):
            curve = Curve(g)
            for d in range(-20, 701):
                want = (0, 0) if d < 0 else (max(0, d - g + 1), max(d // 2 + 1, d - g + 1))
                iv = h0_interval_curve(curve, d)
                assert (iv.lo, iv.hi) == want, (g, d)


class TestH0ClassInterval:
    @pytest.mark.parametrize("g", [0, 1, 2, 7, 10**9])
    def test_ramps_shift_by_genus(self, g):
        # A leaf reads the ramps of genus 0 and shifts e by -g in the first
        # and the third ramp for each curve, summing the first in one sum.
        (q0, c0, e0), free, (q2, c2, e2) = sections._ramps(0)
        assert q0 == 1
        assert sections._ramps(g) == ((q0, c0, e0 - g), free, (q2, c2, e2 - g))

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
        # O(1) for rank 2 whatever a and g are: a brute-force walk would
        # visit 10^12 points here.
        # degrees 5j for j = 0..a: [0, 1] at j = 0, then exactly 5j - 2.
        a = 10**12
        exact = 5 * a * (a + 1) // 2 - 2 * a
        assert h0_class_interval(surface(3, 5, 0), NumClass(a, 0)) == H0Interval(exact, exact + 1)

    @given(st.integers(3, 5), st.one_of(st.integers(0, 3), st.integers(0, 10**3)),
           st.integers(0, 10**4), st.data())
    @settings(max_examples=100, deadline=None)
    def test_matches_walk_by_k(self, r, g, a, data):
        # The floor sums of each rank-3 node against the O(a) walk, on
        # slices too large for the brute force.  a is halved until the
        # walk's leaves times its curve calls per leaf are cheap, so large
        # a comes with low genus or rank 3.  Gaps up to 10^9 give the
        # Euclid-like loop of _floor_sums long runs of quotients.
        while comb(a + r - 2, r - 2) * min(a + 1, max(1, 2 * g - 1)) > 30_000:
            a //= 2
        span = data.draw(st.sampled_from((12, 10**9)))
        degrees = sorted(data.draw(st.lists(st.integers(-span, span), min_size=r, max_size=r)),
                         reverse=True)
        # Centre the slice's degrees near the Clifford band [0, 2g-2].
        b = -a * data.draw(st.integers(-span, span)) + data.draw(st.integers(-3 * g - 20, 3 * g + 20))
        assume((a, b) != (0, 0))
        got = h0_class_interval(surface(g, *degrees), NumClass(a, b))
        assert got == H0Interval(*walk_by_k(g, degrees, 0, b, a))

    def test_work_bound(self):
        # a = 128 in rank 4 at g = 40 is 130 calls, 129 of them nodes,
        # priced at 4,576 units, and runs; a = 400000 is 400,002 calls
        # priced at 14,799,840 units, and does not.
        assert h0_class_interval(surface(40, 3, 1, 0, -2), NumClass(128, 0)).lo > 0
        with pytest.raises(ValueError, match="limit of 6000000"):
            h0_class_interval(surface(2, 3, 1, 0, -2), NumClass(400000, 0))

    def test_work_weighs_long_integers(self):
        # The same rank-4 slice, 20,002 calls and 20,001 nodes, sums in
        # 0.8 s with 10-digit degrees, under the limit, and is priced 18
        # times as high with 4,000-digit ones, over it.
        cls = NumClass(20000, 0)
        short = lattice_work(surface(1, 10**10, 1, 0, -10**10), cls)
        long = lattice_work(surface(1, 10**4000, 1, 0, -10**4000), cls)
        assert short == 3854146
        assert long == 18 * short > sections.MAX_LATTICE_WORK

    @given(st.integers(0, 6), st.lists(st.one_of(st.integers(-5, 5), st.integers(-10**6, 10**6)),
                                       min_size=2, max_size=6),
           st.integers(0, 30), st.integers(-60, 60))
    @example(1, [1, 1], 1, 0)  # the degree 1 just past the band [0, 0] of g = 1
    @settings(max_examples=200, deadline=None)
    def test_work_counts_calls(self, g, degrees, a, b):
        # No curve call on any path.  The one recursion, _slice_intervals,
        # is one call, its leaf, in rank 2, and C(a+r-2, r-3) calls in rank
        # r >= 3, C(a+r-3, r-3) of them leaves of rank 3.  A leaf sums
        # lo's ramp (q = 1) and, when its degree range meets the band
        # 0 <= d <= 2g-2, hi's two (q = 2): three ramp sums, or one, lo's,
        # off the band (hi = lo there), each over q^dim sublattices, dim
        # its one step in rank 2 or two in rank 3: 1 or 5 series in rank
        # 2, 1 or 9 triangles in a rank-3 leaf.  Every _floor_sums call
        # takes at most 2*min(bits(n+1), bits(c)) - 1 steps, one divmod of
        # a and one of b each, and calls and ramp sums together are at most
        # lattice_work.
        s = surface(g, *degrees)
        cls = NumClass(a, b)
        assume((a, b) != (0, 0))
        calls = {"slice": 0, "series": 0, "triangle": 0, "curve": 0, "divmod": 0}

        def counting(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        original = sections._floor_sums

        def floor_sums(n, a, b, c):
            before = calls["divmod"]
            got = original(n, a, b, c)
            assert calls["divmod"] - before <= 2 * max(0, 2 * min((n + 1).bit_length(),
                                                                c.bit_length()) - 1)
            return got

        with pytest.MonkeyPatch.context() as mp:
            for name, attr in (("slice", "_slice_intervals"), ("series", "_series"),
                               ("triangle", "_triangle_sum"), ("curve", "h0_interval_curve")):
                mp.setattr(sections, attr, counting(name, getattr(sections, attr)))
            mp.setattr(sections, "divmod", counting("divmod", divmod), raising=False)
            mp.setattr(sections, "_floor_sums", floor_sums)
            h0_class_interval(s, cls)
        r = s.rank
        assert calls["curve"] == 0
        # The leaf of rank 2 or 3 at the root: its degrees lie in
        # [a*d_r + b, a*d_1 + b].
        low, high = a * s.bundle.degrees[-1] + b, a * s.bundle.degrees[0] + b
        meets = not (high < 0 or max(low, 0) > 2 * g - 2)
        if r == 2:
            assert calls == {"slice": 1, "series": 5 if meets else 1, "triangle": 0, "curve": 0,
                             "divmod": 0}
            leaves, hi_leaves = 1, int(meets)
        else:
            leaves = comb(a + r - 3, r - 3)
            assert calls["slice"] == comb(a + r - 2, r - 3)
            assert calls["series"] == 0
            # Every leaf sums lo's ramp in one triangle, some also hi's two
            # in four each.
            hi_leaves, odd = divmod(calls["triangle"] - leaves, 8)
            assert odd == 0 and 0 <= hi_leaves <= leaves
        if r == 3:
            assert calls["triangle"] == (9 if meets else 1)
        units = calls["slice"] + leaves + 2 * hi_leaves
        assert units <= lattice_work(s, cls)

    @given(st.integers(1, 3), st.integers(-3, 3), st.integers(-3, 3),
           st.integers(0, 4), st.integers(-5, 5), st.integers(0, 4))
    @settings(max_examples=60)
    def test_monotone_in_b(self, g, d1, d2, a, b, extra):
        s = surface(g, d1, d2)
        lower = h0_class_interval(s, NumClass(a, b))
        upper = h0_class_interval(s, NumClass(a, b + extra))
        if (a, b) != (0, 0) and (a, b + extra) != (0, 0):
            assert upper.lo >= lower.lo and upper.hi >= lower.hi


class TestFloorSums:
    @given(st.integers(-1, 40), st.integers(-60, 60), st.integers(-500, 500),
           st.integers(1, 60))
    @settings(max_examples=500)
    def test_matches_brute_force(self, n, a, b, c):
        floors = [(a * i + b) // c for i in range(n + 1)]
        assert sections._floor_sums(n, a, b, c) == (
            sum(floors), sum(i * f for i, f in enumerate(floors)), sum(f * f for f in floors))

    @pytest.mark.parametrize("k", [2, 3, 10, 20, 40, 1438])
    def test_steps_on_fibonacci_gaps(self, k):
        # Consecutive Fibonacci numbers c = F_k, a = F_(k+1) make every
        # quotient 1, the most steps for their size; at k = 1438 (300
        # digits) the 1,435 steps pass the interpreter's recursion limit.
        # A step makes two divmod calls.
        c, a = 0, 1
        for _ in range(k):
            c, a = a, c + a
        n, b = c - 1, -c // 3
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sections, "divmod", lambda x, y: calls.append(y) or divmod(x, y),
                       raising=False)
            f, g, h = sections._floor_sums(n, a, b, c)
        steps = len(calls) // 2
        assert k - 3 <= steps <= 2 * min((n + 1).bit_length(), c.bit_length()) - 1
        if n < 10**4:
            floors = [(a * i + b) // c for i in range(n + 1)]
            assert (f, g, h) == (sum(floors), sum(i * x for i, x in enumerate(floors)),
                                 sum(x * x for x in floors))

    @given(st.integers(-400, 100), st.integers(0, 20), st.integers(0, 20), st.integers(-1, 25))
    @settings(max_examples=500)
    def test_triangle_matches_brute_force(self, x, extra, step, n):
        # The two leaf sums: R(x + w.steps) over w >= 0, |w| <= n, on the
        # two steps (slope, step) of a rank-3 leaf and the one step of a
        # rank-2 leaf.
        slope = step + extra
        assert sections._triangle_sum(x, n, (slope, step)) == sum(
            max(0, x + k * slope + j * step) for k in range(n + 1) for j in range(n + 1 - k))
        assert sections._series(x, n, (step,)) == sum(max(0, x + j * step) for j in range(n + 1))


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



def residue_divdiff(knots):
    """Reference for the table: the divided difference of max(t, 0)**r over
    the r knots v, the sum over the distinct positive knots p of the
    residue at p of t**r / prod(t - v_j).  At p of multiplicity m it is the
    coefficient of (t - p)**(m-1): the Taylor coefficients C(r, k) p**(r-k)
    of t**r at p, divided by t - v = (p - v) + (t - p) for each other knot
    v, by c_k <- (c_k - c_(k-1))/(p - v)."""
    total = Fraction(0)
    for p in {v for v in knots if v > 0}:
        c = [Fraction(comb(len(knots), k) * p ** (len(knots) - k)) for k in range(knots.count(p))]
        for v in knots:
            if v != p:
                for k in range(len(c)):
                    c[k] = (c[k] - (c[k - 1] if k else 0)) / (p - v)
        total += c[-1]
    return total


def residue_volume(s, cls):
    """Reference for volume: a^(r-1) times the residue sum."""
    knots = [cls.a * d + cls.b for d in s.bundle.degrees]
    return Fraction(cls.a) ** (s.rank - 1) * residue_divdiff(knots)


# Knot magnitudes: small ones repeat and hit 0, large ones are distinct.
MAGNITUDES = st.one_of(st.integers(0, 3), st.integers(0, 10**6))


@st.composite
def knot_sets(draw):
    """r = 2..7 knots, by sign pattern: none negative, none positive, one
    positive, one negative, two or more on each side of 0 (r >= 4), or
    any."""
    pattern = draw(st.sampled_from(("no_neg", "no_pos", "one_pos", "one_neg", "two_each", "any")))
    r = draw(st.integers(4 if pattern == "two_each" else 2, 7))
    mags = draw(st.lists(MAGNITUDES, min_size=r, max_size=r))
    if pattern == "no_neg":
        knots = mags
    elif pattern == "no_pos":
        knots = [-m for m in mags]
    elif pattern == "one_pos":
        knots = [1 + mags[0]] + [-m for m in mags[1:]]
    elif pattern == "one_neg":
        knots = [-1 - mags[0]] + mags[1:]
    elif pattern == "two_each":
        knots = ([1 + m for m in mags[:2]] + [-1 - m for m in mags[2:4]]
                 + [draw(st.sampled_from((m, -m))) for m in mags[4:]])
    else:
        knots = [draw(st.sampled_from((m, -m))) for m in mags]
    return draw(st.permutations(knots))


class TestVolumeClosedForm:
    # volume against closed forms: the residue sum, D^r on nef classes
    # and, in rank 2, the Zariski decomposition.
    @given(knot_sets())
    @settings(max_examples=600)
    def test_table_matches_residue_sum(self, knots):
        assert sections._truncated_power_divdiff(knots) == residue_divdiff(knots)

    @given(st.integers(0, 40), st.lists(st.integers(-6, 6), min_size=2, max_size=6),
           st.integers(1, 5), st.integers(-30, 30))
    @settings(max_examples=400)
    def test_volume_matches_table(self, g, degrees, a, b):
        s = surface(g, *degrees)
        assert volume(s, NumClass(a, b)) == residue_volume(s, NumClass(a, b))

    @given(st.integers(2, 6), st.one_of(st.integers(0, 5), st.integers(0, 10**9)),
           st.data())
    @settings(max_examples=300, deadline=None)
    def test_nef_volume_is_top_intersection(self, r, g, data):
        # On a nef class, a >= 0 and b >= -a*d_r, vol(D) = D^r.
        degrees = data.draw(st.lists(st.integers(-8, 8), min_size=r, max_size=r))
        s = surface(g, *degrees)
        a = data.draw(st.integers(0, 8))
        cls = NumClass(a, data.draw(st.integers(-a * min(degrees), -a * min(degrees) + 40)))
        assert nef_test(s, cls)
        assert volume(s, cls) == intersect(s, [cls] * r)

    @given(st.integers(2, 8), st.one_of(st.integers(0, 40), st.just(10**9)), st.data())
    @settings(max_examples=400, deadline=None)
    def test_volume_bounds_top_intersection(self, r, g, data):
        # vol(D) >= D^r, with equality on nef classes and, for a > 0, only
        # on them (see nef_test); for a > 0, D is pseff iff D + f is big
        # iff vol(D + f) > 0.  b runs over both sides of the nef and the
        # pseff boundaries.
        degrees = data.draw(st.lists(st.integers(-8, 8), min_size=r, max_size=r))
        s = surface(g, *degrees)
        a = data.draw(st.integers(0, 8))
        b = data.draw(st.integers(-a * max(degrees) - 10, -a * min(degrees) + 10))
        cls, plus = NumClass(a, b), NumClass(a, b + 1)
        vol, top = volume(s, cls), intersect(s, [cls] * r)
        assert vol >= top
        if nef_test(s, cls):
            assert vol == top
        if a > 0:
            assert nef_test(s, cls) == (vol == top)
            assert pseff_test(s, cls) == big_test(s, plus) == (volume(s, plus) > 0)

    def test_zariski_rank2(self):
        # In rank 2 the closed form is the Zariski decomposition: with
        # e = d1 - d2 and C_0 the negative section, vol = D^2 when D.C_0
        # >= 0, else D^2 + (D.C_0)^2/e, on the big cone.
        for d1 in range(-3, 7):
            for d2 in range(-3, d1 + 1):
                s, e = surface(2, d1, d2), d1 - d2
                for a in range(1, 5):
                    for b in range(-20, 21):
                        cls = NumClass(a, b)
                        if not big_test(s, cls):
                            assert volume(s, cls) == 0
                            continue
                        square, dc0 = a * a * (d1 + d2) + 2 * a * b, a * d2 + b
                        want = square if dc0 >= 0 else square + Fraction(dc0 * dc0, e)
                        assert volume(s, cls) == want, (d1, d2, a, b)


class TestLeadingCoefficient:
    def test_third_difference_is_volume(self):
        # lo(m) is exact outside the Clifford band, so along m = k*M, M a
        # multiple of its quasi-period, it is a cubic in k whose leading
        # coefficient is vol/3!: the third difference over M^3 is vol and
        # the fourth is 0.  On the 160 rows of the rank-3 scan grid.
        rows = [(g, (d1, d2, d3)) for g in (1, 2) for d1 in range(0, 5)
                for d2 in range(-2, min(4, d1) + 1) for d3 in range(-2, min(4, d2) + 1)]
        assert len(rows) == 160
        for g, degrees in rows:
            s = surface(g, *degrees)
            gaps = [x - y for i, x in enumerate(degrees) for y in degrees[i + 1:] if x != y]
            period = 8 * lcm(*gaps)
            anti = -canonical_class(s)
            diffs = [h0_class_interval(s, k * period * anti).lo for k in range(1, 6)]
            for _ in range(3):
                diffs = [y - x for x, y in zip(diffs, diffs[1:])]
            assert [Fraction(d, period**3) for d in diffs] == [volume(s, anti)] * 2, (g, degrees)
            assert diffs[1] - diffs[0] == 0

    def test_second_difference_is_volume_at_high_genus(self):
        # Rank 2, on the 91 bundles of the rank-2 scan grid at g = 0..40,
        # 1,000 and 10^6, for (1, 0) and -K: along m = m0 + k*P, with P =
        # 2*(d1 - d2) (2 if d1 = d2) and m0 = 2 + max floor(|T|/|v_i|) over
        # the thresholds T in {g - 1, 0, 2g + 1} and the non-zero knots v_i
        # = a*d_i + b, lo and hi are quadratics in k: each second
        # difference over P^2 is the volume, and the third difference is 0.
        genera = [*range(41), 1000, 10**6]
        bundles = [(d1, d2) for d1 in range(-4, 9) for d2 in range(-4, d1 + 1)]
        assert len(genera) * len(bundles) == 3913
        for g in genera:
            for degrees in bundles:
                s = surface(g, *degrees)
                period = 2 * (degrees[0] - degrees[1]) or 2
                for cls in NumClass(1, 0), -canonical_class(s):
                    knots = [abs(cls.a * d + cls.b) for d in degrees]
                    m0 = 2 + max((abs(t) // v for t in (g - 1, 0, 2 * g + 1)
                                  for v in knots if v), default=0)
                    samples = [h0_class_interval(s, (m0 + k * period) * cls) for k in range(4)]
                    for bound in zip(*samples):
                        diffs = [y - 2 * x + w for w, x, y in zip(bound, bound[1:], bound[2:])]
                        assert [Fraction(d, period**2) for d in diffs] == [volume(s, cls)] * 2, \
                            (g, degrees, cls)
                        assert diffs[1] - diffs[0] == 0


def classify(s, cls, rungs):
    """growth_classify on the one row (s, cls): (verdict, volume, intervals)."""
    [(vol, [verdict], samples)] = growth_classify(f"class {cls}", [(s, cls, [s.curve])], rungs)
    return verdict, vol, tuple(interval for [interval] in samples)


class TestGrowthClassify:
    @given(st.lists(st.integers(-6, 6), min_size=2, max_size=4), st.integers(-3, 64),
           st.integers(-40, 40),
           st.lists(st.one_of(st.integers(0, 40), st.just(10**9)), min_size=1, max_size=4),
           st.lists(st.sampled_from((0, 2, 3)), min_size=1, max_size=3))
    @settings(max_examples=100)
    def test_group_values_read_no_curve(self, degrees, a, b, genera, chars):
        # A scan takes the price, the volume and the slope test once per
        # (bundle, class) for all of its rows, whatever their curves: the
        # three agree on every genus and characteristic.
        bundle, cls = SplitBundle(tuple(degrees)), NumClass(a, b)

        def values(curve):
            s = RuledSurface(curve, bundle)
            return lattice_work(s, cls), volume(s, cls), big_test(s, cls)

        want = values(Curve(0))
        assert all(values(Curve(g, p)) == want for g in genera for p in chars)

    @given(st.lists(st.tuples(st.one_of(st.integers(0, 60), st.integers(0, 2), st.just(10**9)),
                              st.sampled_from((0, 2, 3))), min_size=1, max_size=6),
           st.integers(-6, 9), st.lists(st.one_of(st.just(0), st.integers(0, 6)),
                                        min_size=1, max_size=3), st.data())
    @settings(max_examples=300, deadline=None)
    def test_group_matches_brute_force(self, rows, low, gaps, data):
        # A group is summed in one pass over its curves, in rank 2, 3 or 4
        # (a small there, for the brute force), each row against the
        # per-point oracle: unsorted and repeated genera, equal degrees,
        # a <= 0 and the class (0, 0), and slices below every ramp
        # (b < -a*d_1), on either side of the band or across it.
        degrees = [low + sum(gaps[i:]) for i in range(len(gaps))] + [low]
        a = data.draw(st.one_of(st.just(0), st.integers(-3, (40, 20, 8)[len(gaps) - 1])))
        d1, g = degrees[0], data.draw(st.sampled_from([g for g, _ in rows]))
        near = 3 * min(g, 60) + 20
        b = data.draw(st.one_of(st.just(0), st.integers(-a * low - near, -a * low + near),
                                st.integers(-a * d1 - 400, -a * d1 - 1)))
        bundle, cls = SplitBundle(tuple(degrees)), NumClass(a, b)
        curves = [Curve(g, p) for g, p in rows]
        [(_, _, [intervals])] = growth_classify(
            "group", [(RuledSurface(curves[0], bundle), cls, curves)], (1,))
        assert intervals == [brute_force_interval(RuledSurface(curve, bundle), cls)
                             for curve in curves]

    def test_big_certified(self):
        verdict, _, _ = classify(surface(2, 5, 0), NumClass(2, -7), ladder(64))
        assert verdict is Verdict.BIG_CERTIFIED

    def test_not_big_at_boundary(self):
        verdict, _, _ = classify(surface(2, 2, 0), NumClass(2, -4), ladder(64))
        assert verdict is Verdict.NOT_BIG_CERTIFIED

    def test_fiber_class_not_big(self):
        verdict, _, _ = classify(surface(3, 1, 0), NumClass(0, 1), ladder(32))
        assert verdict is Verdict.NOT_BIG_CERTIFIED
        # On P^1 the counts 4m+1 of 4m fibers pass any ceiling of the form
        # (1+g)(rm+1)^(r-1) = 2m+1; the zero volume still decides.
        verdict, _, _ = classify(surface(0, 1, 0), NumClass(0, 4), ladder(16))
        assert verdict is Verdict.NOT_BIG_CERTIFIED

    def test_m_max_too_small(self):
        with pytest.raises(ValueError):
            ladder(7)

    @given(st.integers(0, 40), st.lists(st.integers(-4, 6), min_size=2, max_size=3),
           st.integers(0, 4), st.integers(-8, 8), st.sampled_from((8, 16)))
    @settings(max_examples=200)
    def test_verdict_follows_volume(self, g, degrees, a, b, m_max):
        s = surface(g, *degrees)
        cls = NumClass(a, b)
        verdict, vol, _ = classify(s, cls, ladder(m_max))
        assert vol == volume(s, cls)
        assert (verdict is Verdict.NOT_BIG_CERTIFIED) == (vol == 0)
        if verdict in (Verdict.BIG_CERTIFIED, Verdict.INCONCLUSIVE):
            assert vol > 0

    @given(st.integers(0, 40), st.lists(st.integers(-4, 6), min_size=2, max_size=3),
           st.integers(0, 4), st.integers(-8, 8), st.sampled_from((8, 16, 32, 64)))
    @settings(max_examples=100)
    def test_top_rung_decides(self, g, degrees, a, b, m):
        # The lower rungs only feed the printed samples: sampling m alone
        # gives the same verdict, volume and fitted coefficient as its
        # whole ladder, less those samples.
        s = surface(g, *degrees)
        cls = NumClass(a, b)
        top = classify(s, cls, (m,))
        full = classify(s, cls, ladder(m))
        fitted = lambda intervals: Fraction(factorial(s.rank) * intervals[-1].lo, m**s.rank)
        assert top[0] is full[0]
        assert fitted(top[2]) == fitted(full[2])
        assert top[1] == full[1]
        assert top[2] == full[2][-1:]

    def test_high_genus_section_class_inconclusive(self):
        # Big (volume 1), but at g = 30 the Riemann-Roch lower bounds up to
        # m = 64 reach only 1260/4096 of the asymptote: not yet half.
        verdict, vol, intervals = classify(surface(30, 1, 0), NumClass(1, 0), ladder(64))
        assert vol == 1
        assert Fraction(2 * intervals[-1].lo, 64**2) == Fraction(1260, 4096)
        assert verdict is Verdict.INCONCLUSIVE

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
