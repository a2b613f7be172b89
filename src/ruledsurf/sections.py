"""Section counting over the lattice slice and the exact asymptotic volume.

For a split bundle the pushforward of O_X(a) twisted by a degree-b
pullback decomposes into line bundles on the curve, one per lattice point
k in Z^r_{>=0} with sum(k) = a, of degree sum(k_i d_i) + b.  The per-point
count is only known up to bounds (Riemann-Roch from below, Clifford from
above in the special range), so the result type is an interval.

The slice is summed as a union of arithmetic progressions: once
k_1..k_{r-2} are fixed, the points with k_{r-1} + k_r = left have degrees
start + j*(d_{r-1} - d_r) for j = 0..left.  Degrees beyond 2g-2 are exact
and summed by the arithmetic-series formula, negative degrees contribute
nothing, and only the at most 2g-1 degrees in [0, 2g-2] are bounded one
by one.  Rank 2 costs O(g) whatever a is; rank r costs O(a^(r-2) * g).

The exact limit lim r! h^0(mD)/m^r is the integral of the positive part
of the linear form over the dilated simplex; by Hermite-Genocchi it
equals a^(r-1) times the divided difference of t -> max(t, 0)^r over the
vertex values v_i = a*d_i + b.  Repeated vertex values are handled as
confluent knots (derivative entries), never by perturbation.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Iterator, Sequence

from .bundles import Curve
from .surfaces import NumClass, RuledSurface


@dataclass(frozen=True)
class H0Interval:
    """Certified bounds lo <= h^0 <= hi."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if not 0 <= self.lo <= self.hi:
            raise ValueError("interval needs 0 <= lo <= hi")


class Verdict(enum.Enum):
    BIG_CERTIFIED = "BIG_CERTIFIED"
    NOT_BIG_CERTIFIED = "NOT_BIG_CERTIFIED"
    INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class GrowthReport:
    samples: tuple[tuple[int, H0Interval], ...]
    verdict: Verdict
    fitted_lo_coefficient: Fraction
    volume: Fraction


def h0_interval_curve(curve: Curve, degree: int) -> H0Interval:
    """Bounds for h^0 of a degree-d line bundle on the curve.

    Beyond 2g-2 the count d - g + 1 is exact (on P^1 that is every
    d >= -1); otherwise d < 0 gives [0, 0], d = 0 gives [0, 1] (the twist
    may or may not be trivial), and in the special range 0 < d <= 2g-2
    the Euler characteristic bounds from below and Clifford's inequality
    from above.
    """
    g = curve.genus
    if degree > 2 * g - 2:
        exact = degree - g + 1
        return H0Interval(exact, exact)
    if degree < 0:
        return H0Interval(0, 0)
    if degree == 0:
        return H0Interval(0, 1)
    return H0Interval(max(0, degree - g + 1), degree // 2 + 1)


def _progression_interval(curve: Curve, start: int, step: int, n: int) -> tuple[int, int]:
    """Sum the curve intervals over the degrees start + j*step, 0 <= j < n.

    step >= 0.  Negative degrees contribute nothing; degrees beyond 2g-2
    are exact (d - g + 1) and are summed as one arithmetic series; only
    the at most 2g-1 degrees in [0, 2g-2] go through h0_interval_curve.
    """
    if step == 0:
        iv = h0_interval_curve(curve, start)
        return n * iv.lo, n * iv.hi
    g = curve.genus
    first_nonneg = min(n, max(0, -(start // step)))
    first_exact = min(n, max(first_nonneg, (2 * g - 2 - start) // step + 1))
    lo = hi = 0
    for j in range(first_nonneg, first_exact):
        iv = h0_interval_curve(curve, start + j * step)
        lo += iv.lo
        hi += iv.hi
    count = n - first_exact
    # sum of (start + j*step - g + 1) for first_exact <= j < n
    exact = count * (start - g + 1) + step * (first_exact + n - 1) * count // 2
    return lo + exact, hi + exact


def _prefixes(degrees: Sequence[int], base: int, left: int) -> Iterator[tuple[int, int]]:
    """(base + sum(k_i d_i), left - sum(k_i)) for every k >= 0 over the given
    degrees with sum(k) <= left."""
    if not degrees:
        yield base, left
        return
    for k in range(left + 1):
        yield from _prefixes(degrees[1:], base + k * degrees[0], left - k)


# Most work units (see lattice_work) one h0_class_interval call, the rungs
# of one growth_classify call, or the top rungs of all rows of one scan
# together may take.  A unit costs 0.3-1.3 microseconds (2 vCPUs, Python
# 3.11.7; the most at genus 1, where a prefix has at most one curve call),
# so an accepted call can take up to about 13 s.
MAX_LATTICE_WORK = 10**7


def lattice_work(surface: RuledSurface, cls: NumClass) -> int:
    """Work units of h0_class_interval(surface, cls): C(a+r-2, r-2)
    prefixes, each one unit plus at most min(a+1, 2g-1) curve calls; 0 when
    a < 0, where no lattice is walked."""
    if cls.a < 0:
        return 0
    head, genus = surface.rank - 2, surface.curve.genus
    return comb(cls.a + head, head) * (1 + min(cls.a + 1, max(0, 2 * genus - 1)))


def check_lattice_work(what: str, work: int) -> None:
    """Raise ValueError when work exceeds MAX_LATTICE_WORK."""
    if work > MAX_LATTICE_WORK:
        raise ValueError(f"{what}: the lattice sums need {work} work units, "
                         f"above the limit of {MAX_LATTICE_WORK}")


def h0_class_interval(surface: RuledSurface, cls: NumClass) -> H0Interval:
    """Sum the curve intervals over the lattice slice sum(k) = a.

    The walk fixes k_1..k_{r-2}; the remaining k_{r-1} + k_r = left points
    have degrees start + j*(d_{r-1} - d_r), j = 0..left, one arithmetic
    progression each.  The class (0, 0) is the structure sheaf: its unique
    lattice point carries the identically trivial twist, so the count is
    exactly 1.

    Raises ValueError, before walking, when the work exceeds
    MAX_LATTICE_WORK.
    """
    if cls.a < 0:
        return H0Interval(0, 0)
    if cls.a == 0 and cls.b == 0:
        return H0Interval(1, 1)
    check_lattice_work(f"class {cls}", lattice_work(surface, cls))
    *head, d_prev, d_last = surface.bundle.degrees
    curve = surface.curve
    lo = hi = 0
    for base, left in _prefixes(head, cls.b, cls.a):
        plo, phi = _progression_interval(curve, base + left * d_last, d_prev - d_last, left + 1)
        lo += plo
        hi += phi
    return H0Interval(lo, hi)


# Python's default limit on the decimal digits of an int it converts to str.
MAX_DIGITS = 4300
_DIGIT_LIMIT = 10**MAX_DIGITS


def _check_digits(x: Fraction) -> Fraction:
    """x, unless its numerator or denominator passes MAX_DIGITS digits."""
    if abs(x.numerator) >= _DIGIT_LIMIT or x.denominator >= _DIGIT_LIMIT:
        raise ValueError(f"volume: the exact arithmetic needs numbers above the "
                         f"limit of {MAX_DIGITS} decimal digits")
    return x


def _truncated_power_divdiff(knots: Sequence[int], power: int) -> Fraction:
    """Divided difference of t -> max(t, 0)**power over the given knots,
    with repeated knots treated as confluent (derivative) entries; one row
    of the table is kept, row[i] spanning v[i..i+span]."""
    v = sorted(Fraction(x) for x in knots)
    n = len(v)

    def confluent(t: Fraction, k: int) -> Fraction:
        # k-th derivative of max(t,0)**power divided by k!; only orders
        # k < power occur, where the truncated power is still continuous.
        if t <= 0:
            return Fraction(0)
        return comb(power, k) * t ** (power - k)

    row = [_check_digits(confluent(t, 0)) for t in v]
    for span in range(1, n):
        for i in range(n - span):
            if v[i] == v[i + span]:
                row[i] = _check_digits(confluent(v[i], span))
            else:
                row[i] = _check_digits((row[i + 1] - row[i]) / (v[i + span] - v[i]))
    return row[0]


# Highest rank volume accepts.  With degrees below 100 in absolute value
# its r passes over a row of r exact Fractions cost about 0.1 s at rank
# 128, near the interpreter's start-up, and grow faster than r^3: about
# 1 s at rank 256-300.  Larger degrees cost more, up to MAX_DIGITS.
MAX_RANK = 128


def volume(surface: RuledSurface, cls: NumClass) -> Fraction:
    """Exact lim r! h^0(m*cls)/m^r; positive exactly on big classes.

    Raises ValueError when the rank exceeds MAX_RANK, or when an entry of
    the divided-difference table or the volume itself has more than
    MAX_DIGITS decimal digits.
    """
    r = surface.rank
    if r > MAX_RANK:
        raise ValueError(f"volume: rank {r} is above the limit of {MAX_RANK}")
    if cls.a <= 0:
        return Fraction(0)
    knots = [cls.a * d + cls.b for d in surface.bundle.degrees]
    return _check_digits(Fraction(cls.a) ** (r - 1) * _truncated_power_divdiff(knots, r))


def ladder(m_max: int) -> tuple[int, ...]:
    """The halving ladder m_max // 2^k >= 8, ascending, that `h0 --m-max` prints."""
    if m_max < 8:
        raise ValueError("m_max must be at least 8")
    return tuple(m_max >> k for k in reversed(range(m_max.bit_length() - 3)))


def growth_classify(surface: RuledSurface, cls: NumClass, rungs: Sequence[int]) -> GrowthReport:
    """Classify bigness from the exact volume, confirmed by section counts.

    Samples h0_class_interval on m*cls at each m of the ascending rungs (a
    scan passes (m_max,), `h0 --m-max` ladder(m_max)); rungs whose summed
    lattice_work exceeds MAX_LATTICE_WORK raise ValueError before any sum.
    Only the last rung decides: with fitted = r! * lo(m_max) / m_max^r,

    - NOT_BIG_CERTIFIED iff vol == 0.  A class is big exactly when its
      volume is positive, and the upper bounds at finitely many m cannot
      show that the counts grow slower than m^r: any ceiling on them is a
      guess.  Only the exact volume can certify non-bigness.
    - BIG_CERTIFIED iff fitted > vol / 2: the certified lower bounds
      already reach half of the exact asymptote.
    - INCONCLUSIVE otherwise: vol > 0, but the count at m_max does not
      yet confirm it.
    """
    m_max = rungs[-1]
    check_lattice_work(f"class {cls} up to m = {m_max}",
                       sum(lattice_work(surface, m * cls) for m in rungs))
    r = surface.rank
    samples = tuple((m, h0_class_interval(surface, m * cls)) for m in rungs)
    fitted = Fraction(factorial(r) * samples[-1][1].lo, m_max**r)
    vol = volume(surface, cls)
    if vol == 0:
        verdict = Verdict.NOT_BIG_CERTIFIED
    elif fitted > vol / 2:
        verdict = Verdict.BIG_CERTIFIED
    else:
        verdict = Verdict.INCONCLUSIVE
    return GrowthReport(samples, verdict, fitted, vol)
