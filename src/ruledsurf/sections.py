"""Section counting over the lattice slice and the exact asymptotic volume.

For a split bundle the pushforward of O_X(a) twisted by a degree-b
pullback decomposes into line bundles on the curve, one per lattice point
k in Z^r_{>=0} with sum(k) = a, of degree sum(k_i d_i) + b.  The per-point
count is only known up to bounds (Riemann-Roch from below, Clifford from
above in the special range), so the result type is an interval.

The slice is summed by the direct-sum recursion
Sym^a(L + E') = sum over k = 0..a of L^k (x) Sym^(a-k) E': fixing k_1
leaves the slice of E' one rank lower.  In rank 2 the points have degrees
start + j*(d_1 - d_2) for j = 0..a, one arithmetic progression: degrees
beyond 2g-2 are exact and summed by the arithmetic-series formula,
negative degrees contribute nothing, and only the at most 2g-1 degrees in
[0, 2g-2] are bounded one by one.  Rank 2 costs O(g) whatever a is; rank
r costs O(a^(r-2) * g).

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
from typing import Sequence

from .bundles import MAX_DIGITS, Curve
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
    """Bounds for h^0 of a degree-d line bundle on the curve: [0, 0] for
    d < 0, else [max(0, d-g+1), max(floor(d/2)+1, d-g+1)].  Riemann-Roch
    bounds from below and Clifford from above; beyond 2g-2, where d - g + 1
    is exact, it is the larger of the two (so on P^1 every d is exact).  At
    d = 0 and g > 0 the twist may or may not be trivial: [0, 1].
    """
    if degree < 0:
        return H0Interval(0, 0)
    chi = degree - curve.genus + 1
    return H0Interval(max(0, chi), max(degree // 2 + 1, chi))


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


def _slice_interval(curve: Curve, degrees: Sequence[int], i: int, base: int,
                    left: int) -> tuple[int, int]:
    """Sum the curve intervals over k_i + ... + k_r = left, at degrees
    base + sum(k_j d_j) over j >= i: the sum over k_i = 0..left of the
    slice one rank lower, down to the progression of the last two degrees."""
    if i == len(degrees) - 2:
        return _progression_interval(curve, base + left * degrees[-1],
                                     degrees[-2] - degrees[-1], left + 1)
    lo = hi = 0
    for k in range(left + 1):
        plo, phi = _slice_interval(curve, degrees, i + 1, base + k * degrees[i], left - k)
        lo += plo
        hi += phi
    return lo, hi


# Most work units (see lattice_work) one h0_class_interval call, the rungs
# of one growth_classify call, or the top rungs of all rows of one scan
# together may take.  A unit is one call of the walk.  On 2 vCPUs with
# Python 3.11.7 a unit cost 0.2-2.0 microseconds with degrees of up to 100
# digits (a curve call 1.6) and up to 2.4 on a busy host, so an accepted
# call takes about 10 s at most.
MAX_LATTICE_WORK = 4 * 10**6


def lattice_work(surface: RuledSurface, cls: NumClass) -> int:
    """Work units of h0_class_interval(surface, cls), one per call it makes:
    C(a+r-1, r-2) calls of the recursion, of which the C(a+r-2, r-2) rank-2
    leaves each make at most min(a+1, max(1, 2g-1)) curve calls; 0 when
    a < 0, where no lattice is walked."""
    if cls.a < 0:
        return 0
    a, r, genus = cls.a, surface.rank, surface.curve.genus
    return comb(a + r - 1, r - 2) + comb(a + r - 2, r - 2) * min(a + 1, max(1, 2 * genus - 1))


def check_lattice_work(what: str, work: int) -> None:
    """Raise ValueError when work exceeds MAX_LATTICE_WORK."""
    if work > MAX_LATTICE_WORK:
        raise ValueError(f"{what}: the lattice sums need {work} work units, "
                         f"above the limit of {MAX_LATTICE_WORK}")


def h0_class_interval(surface: RuledSurface, cls: NumClass) -> H0Interval:
    """Sum the curve intervals over the lattice slice sum(k) = a.

    The direct-sum recursion fixes k_1, then k_2, ..., down to rank 2,
    where the points with k_{r-1} + k_r = left have degrees
    start + j*(d_{r-1} - d_r), j = 0..left, one arithmetic progression.
    The class (0, 0) is the structure sheaf: its unique lattice point
    carries the identically trivial twist, so the count is exactly 1.

    Raises ValueError, before walking, when the work exceeds
    MAX_LATTICE_WORK.
    """
    if cls.a < 0:
        return H0Interval(0, 0)
    if cls.a == 0 and cls.b == 0:
        return H0Interval(1, 1)
    check_lattice_work(f"class {cls}", lattice_work(surface, cls))
    return H0Interval(*_slice_interval(surface.curve, surface.bundle.degrees, 0, cls.b, cls.a))


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


def volume(surface: RuledSurface, cls: NumClass) -> Fraction:
    """Exact lim r! h^0(m*cls)/m^r; positive exactly on big classes.

    Raises ValueError when an entry of the divided-difference table or
    the volume itself has more than MAX_DIGITS decimal digits.
    """
    r = surface.rank
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
