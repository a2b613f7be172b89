"""Section counting over the lattice slice and the exact asymptotic volume.

For a split bundle the pushforward of O_X(a) twisted by a degree-b
pullback decomposes into line bundles on the curve, one per lattice point
k in Z^r_{>=0} with sum(k) = a, of degree sum(k_i d_i) + b.  The per-point
count is only known up to bounds (Riemann-Roch from below, Clifford from
above in the special range), so the result type is an interval.

Both bounds are sums of ramps R(floor((d + c)/q) + e), R(x) = max(0, x),
q in {1, 2}.  The sums read E only up to a twist, P_C(E) = P_C(E (x) L):
the gaps d_i - d_r of all summands but the last, and the base b + a*d_r.
The direct-sum recursion Sym^a(L + E') = sum over k = 0..a of L^k (x)
Sym^(a-k) E' fixes k_1, moving the base by k_1 times the first gap, down
to one leaf of rank 2 or 3, of degrees base + w.gaps over w >= 0,
|w| <= left.  There each ramp is split into the sublattices on which its
floor is gone, q of them at a rank-2 leaf and q^2 at a rank-3 leaf.  Each
sublattice is then a line, an arithmetic series from its first positive
term, or a triangle, row by row a polynomial, less the negative terms of
the rows only partly positive, which floor sums give in O(log).

The bounds read the curve only through its genus, never its
characteristic, so a leaf sums a group of genera sharing the bundle and
the class in one pass: the sublattice starts and the ramp that reads no
genus once for the group, then per genus one sum for lo and, inside the
band, the others for hi: two series at a rank-2 leaf, four triangles at
a rank-3 one.  Rank 2 costs O(1) a genus whatever a and g are, rank 3
O(log(min(a, d_2 - d_3) + 1)), and rank r the recursion down to
C(a+r-3, r-3) rank-3 leaves.  Outside the band 0 <= d <= 2g-2 (so at
g = 0 everywhere) hi = lo, and a leaf whose degree range misses the band
sums only lo.

The exact limit lim r! h^0(mD)/m^r is the integral of the positive part
of the linear form over the dilated simplex; by Hermite-Genocchi it
equals a^(r-1) times the divided difference of t -> max(t, 0)^r over the
vertex values v_i = a*d_i + b (in rank 2, the Zariski decomposition's
vol = D^2 + (D.C_0)^2/e).  It is read off one divided-difference table,
with repeated vertex values handled as confluent knots (derivative
entries), never by perturbation.

growth_classify classifies groups of rows that share a bundle and a class
on different genera; its docstring says what it shares between groups,
and lattice_work's how they are priced.  This module keeps no state
across calls: a caller's shared work is what it puts in one
growth_classify call.
"""
from __future__ import annotations

import enum
from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction
from math import comb, factorial

from .bundles import DIGIT_LIMIT, MAX_DIGITS, Curve, check_digits
from .surfaces import NumClass, RuledSurface

# Python's own refusal to convert an int past MAX_DIGITS digits, worded
# once: for the command line, and for the counts growth_classify refuses
# to sum because they could not be printed.
TOO_LONG = f"a number passes the limit of {MAX_DIGITS} decimal digits"


class H0Interval(namedtuple("H0Interval", "lo hi")):
    """Certified bounds lo <= h^0 <= hi."""

    __slots__ = ()

    def __new__(cls, lo: int, hi: int) -> H0Interval:
        if not 0 <= lo <= hi:
            raise ValueError("interval needs 0 <= lo <= hi")
        return super().__new__(cls, lo, hi)


class Verdict(enum.Enum):
    BIG_CERTIFIED = "BIG_CERTIFIED"
    NOT_BIG_CERTIFIED = "NOT_BIG_CERTIFIED"
    INCONCLUSIVE = "INCONCLUSIVE"

    # Members are singletons: hashed by identity, in C, rather than by
    # Enum's name hash, in Python, since a scan looks one up per genus.
    __hash__ = object.__hash__


# The curve bound at genus 0 as ramps R(floor((d + c)/q) + e), R(x) =
# max(0, x), each given as (q, c, e): lo(d) = R(d + 1) is the first, and
# hi(d) = R(floor(d/2) + 1) + R(floor((d+1)/2)) the sum of the other two.
# A genus g subtracts g from the e of the first and the third ramp, and
# the first has q = 1: the leaves of _slice_intervals, the table's only
# reader, apply both rules.
_RAMPS = (1, 0, 1), (2, 0, 1), (2, 1, 0)


def h0_interval_curve(curve: Curve, degree: int) -> H0Interval:
    """Bounds for h^0 of a degree-d line bundle on the curve: [0, 0] for
    d < 0, else [max(0, d-g+1), max(floor(d/2)+1, d-g+1)].  Riemann-Roch
    bounds from below and Clifford from above; beyond 2g-2, where d - g + 1
    is exact, it is the larger of the two (so on P^1 every d is exact).  At
    d = 0 and g > 0 the twist may or may not be trivial: [0, 1].  The
    leaves sum these bounds as the ramps of _RAMPS; this function states
    them without that table, so that the brute-force references that sum
    it do not move with the leaves.
    """
    if degree < 0:
        return H0Interval(0, 0)
    riemann_roch = degree - curve.genus + 1
    return H0Interval(max(0, riemann_roch), max(degree // 2 + 1, riemann_roch))


def _first_at_least_zero(a: int, b: int, end: int) -> int:
    """The least t in [0, end) with a + b*t >= 0, for b >= 0; end if none."""
    if a >= 0:
        return 0
    return end if b == 0 else min(end, -(a // b))


def _floor_sums(n: int, a: int, b: int, c: int) -> tuple[int, int, int]:
    """(sum F, sum i*F, sum F^2) over 0 <= i <= n of F(i) = floor((a*i + b)/c),
    for c > 0; zeros when n < 0.

    The reduction of Concrete Mathematics 3.5, as a loop (it runs deeper
    than the recursion limit): a step takes a and b modulo c, moving F by
    p*i + s, then swaps i and F, leaving the sums for (m - 1, c, c - b - 1,
    a), m = F(n); the steps are then unwound.  At most 2*min(bits(n + 1),
    bits(c)) - 1 steps: the moduli are Euclid's remainders, c_(k+2) <
    c_k/2, and n_(k+1) < n_k*c_(k+1)/c_k, so n_(k+2) < n_k/2; a step on
    n = 0 or c = 1 is the last.
    """
    steps = []
    while n >= 0:
        p, a = divmod(a, c)
        s, b = divmod(b, c)
        m = (a * n + b) // c
        steps.append((n, m, p, s))
        n, a, b, c = m - 1, c, c - b - 1, a
    f = g2 = h = 0  # the sums for the last step's swap; g2 = 2 * sum i*F
    for n, m, p, s in reversed(steps):
        nm = n * m
        f, g2, h = nm - f, nm * (n + 1) - f - h, nm * m - f - g2
        s1 = n * (n + 1) // 2
        t, u = p * s1 + s * (n + 1), p * (s1 * (2 * n + 1) // 3) + s * s1
        f, g2, h = f + t, g2 + 2 * u, h + p * (u + g2) + s * (t + 2 * f)
    return f, g2 // 2, h


def _triangle_sum(x: int, n: int, gaps: Sequence[int]) -> int:
    """Sum of R(x + k*slope + j*step) over k, j >= 0, k + j <= n >= -1, for
    gaps = (slope, step), slope >= step >= 0: a rank-3 leaf's sum, as
    _series is a rank-2 leaf's.

    Row k, y = x + k*slope, is empty before ke, the first k with y + (n -
    k)*step >= 0, and whole from kf, the first k with y >= 0.  The rows from
    ke, summed whole, are C(n-ke+2, 2)(x + n*slope) + C(n-ke+2, 3)(step -
    2*slope); those before kf lose their terms j < -F, F = floor(y/step),
    -F*y + step*F(F+1)/2, added back by _floor_sums over i = k - ke.
    """
    slope, step = gaps
    kf = _first_at_least_zero(x, slope, n + 1)
    ke = min(kf, _first_at_least_zero(x + n * step, slope - step, n + 1))
    total = comb(n - ke + 2, 2) * (x + n * slope) + comb(n - ke + 2, 3) * (step - 2 * slope)
    if ke < kf:
        y = x + ke * slope
        f, g, h = _floor_sums(kf - ke - 1, slope, y, step)
        total += ((2 * y - step) * f + 2 * slope * g - step * h) // 2
    return total


def _series(x: int, n: int, gaps: Sequence[int]) -> int:
    """Sum of R(x + t*step) over t = 0..n >= -1, for gaps = (step,),
    step >= 0: an arithmetic series from its first term >= 0 on."""
    step, = gaps
    first = _first_at_least_zero(x, step, n + 1)
    count = n + 1 - first
    return count * (x + first * step) + step * count * (count - 1) // 2


def _sublattices(ramp: tuple[int, int, int], base: int, gaps: Sequence[int],
                 left: int) -> list[tuple[int, int]]:
    """The ramp R(floor((d + c)/q) + e) over the degrees d = base + w.gaps,
    w >= 0, |w| <= left, for one or two gaps, as q^len(gaps) sums: on
    w = q*w' + v, v in [0, q)^len(gaps), it is R(x_v + w'.gaps), x_v =
    floor((base + v.gaps + c)/q) + e, over |w'| <= (left - |v|) // q.
    Returns each (x_v, (left - |v|) // q)."""
    q, c, e = ramp
    if len(gaps) == 1:
        step, = gaps
        return [((base + v * step + c) // q + e, (left - v) // q) for v in range(q)]
    slope, step = gaps
    return [((base + u * slope + v * step + c) // q + e, (left - u - v) // q)
            for u in range(q) for v in range(q)]


def _slice_intervals(gaps: Sequence[int], base: int, left: int,
                     genera: Sequence[int]) -> list[tuple[int, int]]:
    """(lo, hi) on each of the genera: the curve intervals summed over the
    degrees base + w.gaps, w >= 0, |w| <= left, gaps >= 0 descending, as
    the sum over the first coordinate k = 0..left of the slice of
    gaps[1:] at base + k*gaps[0], down to a leaf of one or two gaps: each
    ramp of _RAMPS is summed over its _sublattices, by _series on one gap,
    _triangle_sum on two, the ramps that read the genus (see _RAMPS) for
    each genus, and hi's first, which reads none, once for all.  Off the
    band (base + left*gaps[0] < 0, or max(base, 0) > 2g - 2, that is
    g < (max(base, 0) + 3) // 2), hi = lo.
    """
    if len(gaps) > 2:
        sums = [(0, 0)] * len(genera)
        step, rest = gaps[0], gaps[1:]
        for k in range(left + 1):
            part = _slice_intervals(rest, base + k * step, left - k, genera)
            sums = [(lo + plo, hi + phi) for (lo, hi), (plo, phi) in zip(sums, part)]
        return sums
    total = _series if len(gaps) == 1 else _triangle_sum
    # lo's ramp has q = 1: one sum over all of the leaf.
    (_, c, e), free_ramp, genus_ramp = _RAMPS
    lo_x = base + c + e
    band = (max(base, 0) + 3) // 2 if base + left * gaps[0] >= 0 else None
    free = None
    pairs = []
    for g in genera:
        lo = total(lo_x - g, left, gaps)
        if band is None or g < band:
            pairs.append((lo, lo))
            continue
        if free is None:
            free = 0
            for x, n in _sublattices(free_ramp, base, gaps, left):
                free += total(x, n, gaps)
            tied = _sublattices(genus_ramp, base, gaps, left)
        hi = free
        for x, n in tied:
            hi += total(x - g, n, gaps)
        pairs.append((lo, hi))
    return pairs


# Most work units (see lattice_work) the lattice sums of one request may
# take together: one h0_class_interval call, or all rungs of all rows of
# one growth_classify call.  The slowest accepted requests known take
# about 8 s, measured in-process on a shared 2-vCPU Intel Xeon with Python
# 3.11.7 (medians of 6 and of 30 calls, three rounds each):
# h0 --genus 1000000000 --degrees 11,10,9,8,7,6,5,4,3,2,1,0 --class 13,-71
# (4,240,379 units, about 1.7 microseconds a unit) 6.5-7.6 s, and
# --degrees 4,2,1,0 --class 240002,-480004 (5,999,992 units) 5.6-6.3 s.
MAX_LATTICE_WORK = 6 * 10**6


def lattice_work(surface: RuledSurface, cls: NumClass) -> int:
    """Work units of h0_class_interval(surface, cls), fitted to measured
    times; 0 when a < 0.

    A rank-2 row is priced a flat 4 units at any a: its leaf
    (_slice_intervals) sums it in one arithmetic series for lo and, inside
    the band 0 <= d <= 2g-2, two more for hi, besides its share of the
    series taken once for the group.  In rank r >= 3 the recursion makes
    C(a+r-2, r-3) calls, C(a+r-3, r-3) of them rank-3 leaves.  A leaf with
    left = l sums each of its three ramps (lo's alone off the band) over
    q^2 <= 4 triangles, each in at most 2*min(bits(l+1), bits(s)) - 1
    floor-sum steps, s = d_{r-1} - d_r, and is priced min(l+1, M) units a
    ramp, M = 4*(min(bits(a+1), bits(s)) + 1), times 1 + bits(a)//2048 for
    a step's products of counts of bits(a) bits; over the leaves,
    C(a+r-2, r-2) - C(a+r-2-M, r-2).
    Every unit is weighted 1 + size*(bits(a) + 500) // 400000 for long
    integers, size the bit length of |b| + a*max|d_i|, a bound on |degree|.

    The price reads the bundle and the class, not the curve: it is the
    same on every genus and characteristic, so a row's does not ask
    whether the row meets the band, and growth_classify takes it once for
    a (bundle, class) group and charges it once for each of its genera.
    It reads max|d_i|, which a twist moves, so it is taken for each input
    group as given, also where growth_classify sums several groups once:
    the total stays an upper bound on the work done.
    """
    if cls.a < 0:
        return 0
    a, r, degrees = cls.a, surface.rank, surface.bundle.degrees
    if r == 2:
        units = 4
    else:
        bits = min((a + 1).bit_length(), (degrees[-2] - degrees[-1]).bit_length())
        m = min(a + 1, 4 * (bits + 1))
        ramps = comb(a + r - 2, r - 2) - comb(a + r - 2 - m, r - 2)
        units = comb(a + r - 2, r - 3) + 3 * (1 + a.bit_length() // 2048) * ramps
    size = (abs(cls.b) + a * max(abs(d) for d in degrees)).bit_length()
    return units * (1 + size * (a.bit_length() + 500) // 400000)


def _check_work(what: str, work: int) -> None:
    """Refuse, naming `what`, a request whose lattice sums together need
    `work` units (see lattice_work) above MAX_LATTICE_WORK: checked before
    any sum, the total bounds each sum's, since no sum's work is negative.
    """
    if work > MAX_LATTICE_WORK:
        raise ValueError(f"{what}: the lattice sums need {work} work units, "
                         f"above the limit of {MAX_LATTICE_WORK}")


def _intervals(degrees: Sequence[int], cls: NumClass, genera: Sequence[int]) -> list[H0Interval]:
    """h0_class_interval of cls on the bundle of the given degrees over a
    curve of each of the genera, a query already priced by _check_work:
    one lattice sum for all the genera, on the twisted gaps d_i - d_r and
    base b + a*d_r, unless a < 0 or cls = (0, 0)."""
    if cls.a < 0:
        return [H0Interval(0, 0)] * len(genera)
    if cls.a == 0 and cls.b == 0:
        return [H0Interval(1, 1)] * len(genera)
    low = degrees[-1]
    pairs = _slice_intervals([d - low for d in degrees[:-1]], cls.b + cls.a * low, cls.a, genera)
    return [H0Interval(lo, hi) for lo, hi in pairs]


def h0_class_interval(surface: RuledSurface, cls: NumClass) -> H0Interval:
    """Sum the curve intervals over the lattice slice sum(k) = a by the
    direct-sum recursion down to a leaf of rank 2 or 3 (see the module
    docstring).
    The class (0, 0) is the structure sheaf: its unique lattice point
    carries the identically trivial twist, so the count is exactly 1.

    Raises ValueError, before walking, when the work exceeds
    MAX_LATTICE_WORK.
    """
    _check_work(f"class {cls}", lattice_work(surface, cls))
    [interval] = _intervals(surface.bundle.degrees, cls, [surface.curve.genus])
    return interval


def _check_digits(x: Fraction | int) -> Fraction | int:
    """x, unless its numerator or denominator passes MAX_DIGITS digits."""
    check_digits("volume: the exact arithmetic needs numbers above", x.numerator, x.denominator)
    return x


def _truncated_power_divdiff(knots: Sequence[int]) -> Fraction | int:
    """Divided difference of t -> max(t, 0)**n over the n given knots,
    with repeated knots treated as confluent (derivative) entries; one row
    of the table is kept, row[i] spanning v[i..i+span], and span 0 is the
    confluent entry of order 0, the function itself.  Raises ValueError
    when an entry passes MAX_DIGITS digits."""
    v = sorted(knots)
    n = len(v)
    row = [0] * n
    for span in range(n):
        for i in range(n - span):
            if v[i] == v[i + span]:
                # The span-th derivative of max(t, 0)**n over span!; only
                # orders span < n occur, where the truncated power is
                # still continuous.
                entry = comb(n, span) * max(v[i], 0) ** (n - span)
            else:
                entry = Fraction(row[i + 1] - row[i]) / (v[i + span] - v[i])
            row[i] = _check_digits(entry)
    return row[0]


def volume(surface: RuledSurface, cls: NumClass) -> Fraction:
    """Exact lim r! h^0(m*cls)/m^r; positive exactly on big classes.

    It is a^(r-1) times one table of _truncated_power_divdiff over the
    knots v_i = a*d_i + b (see the module docstring).  Raises ValueError
    when an entry of that table or the volume itself has more than
    MAX_DIGITS decimal digits.
    """
    if cls.a <= 0:
        return Fraction(0)
    knots = [cls.a * d + cls.b for d in surface.bundle.degrees]
    return _check_digits(Fraction(cls.a) ** (surface.rank - 1) * _truncated_power_divdiff(knots))


def ladder(m_max: int) -> tuple[int, ...]:
    """The halving ladder m_max // 2^k >= 8, ascending, that `h0 --m-max` prints."""
    if m_max < 8:
        raise ValueError("m_max must be at least 8")
    return tuple(m_max >> k for k in reversed(range(m_max.bit_length() - 3)))


def _verdicts(r: int, vol: Fraction, m_max: int, tops: Sequence[H0Interval]) -> list[Verdict]:
    """The verdict on a class cls of volume vol in rank r on each genus,
    from that genus's interval at m_max * cls in `tops`.

    - NOT_BIG_CERTIFIED iff vol == 0.  A class is big exactly when its
      volume is positive, and the upper bounds at finitely many m cannot
      show that the counts grow slower than m^r: any ceiling on them is a
      guess.  Only the exact volume can certify non-bigness.
    - BIG_CERTIFIED iff fitted = r! * lo / m_max^r > vol / 2: the
      certified lower bounds already reach half of the exact asymptote.
      Decided in integers, for vol = num/den, as lo > t = floor(num *
      m_max^r / (2 * r! * den)), the same test as 2 * r! * lo * den >
      num * m_max^r since lo is an integer; t is taken once for all genera.
    - INCONCLUSIVE otherwise: vol > 0, but the count at m_max does not
      yet confirm it.
    """
    if vol == 0:
        return [Verdict.NOT_BIG_CERTIFIED] * len(tops)
    t = vol.numerator * m_max**r // (2 * factorial(r) * vol.denominator)
    big, inconclusive = Verdict.BIG_CERTIFIED, Verdict.INCONCLUSIVE
    return [big if top.lo > t else inconclusive for top in tops]


def growth_classify(what: str, groups: Sequence[tuple[RuledSurface, NumClass, Sequence[int]]],
                    rungs: Sequence[int]
                    ) -> list[tuple[Fraction, list[Verdict], list[list[H0Interval]]]]:
    """Classify the bigness of classes on projective bundles from their
    exact volume, confirmed by section counts.  A group (surface, cls,
    genera) asks for cls on P_C(E), E the bundle of the surface, for each
    g of genera, C any curve of genus g, in any characteristic: the
    module docstring says why the answer is the same on each.

    Samples the interval of h0_class_interval on m*cls at each m of the
    ascending rungs, for every genus (`scan` passes (m_max,), `h0 --m-max`
    (1, *ladder(m_max))).  The price of all sums together, each group's
    lattice_work at each rung times its number of genera, is checked
    first, before any scaled class is built: above MAX_LATTICE_WORK,
    ValueError, naming `what`, is raised before any sum (lattice_work says
    why each group is priced as given).

    P_C(E) = P_C(E (x) L), so the volume, the sums and the verdicts read a
    group only through its twist class (cls.a, the knots cls.a*d_i +
    cls.b, the genera): groups of one twist class, such as -K on bundles
    of equal gaps, are classified once, on one of them, and share one
    result object.  At each rung the genera are summed in one pass, each
    checked lo <= hi.  Every volume is taken before the sums, so one past
    MAX_DIGITS digits is refused at once.  The top rung is summed first,
    and only it decides, by the rule of _verdicts.  Lower rungs are there
    only to be printed, and the top one with them: when there are any, a
    top-rung count past MAX_DIGITS digits is refused, ValueError(TOO_LONG),
    before they are summed.  Returns, for each input group, in input
    order, (volume, the verdict on each genus, for each rung the interval
    on each genus).
    """
    _check_work(what, sum(len(genera) * lattice_work(surface, m * cls)
                          for surface, cls, genera in groups for m in rungs))
    # Each group's twist class, as a slot in first-seen order: one setdefault
    # a group, so each key is hashed once.
    index = {}
    slots = [index.setdefault((cls.a, tuple(cls.a * d + cls.b for d in surface.bundle.degrees),
                               tuple(genera)), len(index)) for surface, cls, genera in groups]
    # One group for each slot, in slot order: any of a class's groups will do.
    classes = list(dict(zip(slots, groups)).values())
    queries = [[m * cls for m in rungs] for _, cls, _ in classes]
    volumes = [volume(surface, cls) for surface, cls, _ in classes]
    tops = [_intervals(surface.bundle.degrees, scaled[-1], genera)
            for (surface, _, genera), scaled in zip(classes, queries)]
    if len(rungs) > 1 and any(top.hi >= DIGIT_LIMIT for group in tops for top in group):
        raise ValueError(TOO_LONG)
    results = [(vol, _verdicts(surface.rank, vol, rungs[-1], top),
                [_intervals(surface.bundle.degrees, q, genera) for q in scaled[:-1]] + [top])
               for (surface, _, genera), scaled, vol, top in zip(classes, queries, volumes, tops)]
    return [results[slot] for slot in slots]
