"""Curves, split vector bundles, slopes, and Frobenius twists.

Everything here is pure integer / exact rational arithmetic.  A curve is
known to the rest of the library only through its genus and the
characteristic of the ground field; a bundle only through the multiset of
degrees of its line-bundle summands.  The Harder-Narasimhan filtration of
a split bundle is its grading by degree, so mu_max and mu_min are its
largest and smallest degrees.
"""
from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import groupby
from math import comb


# The most decimal digits of a number the CLI reads or prints: Python's
# default int <-> str limit, which cli.main installs whatever
# PYTHONINTMAXSTRDIGITS says.  check_digits refuses past it early, where
# the work would otherwise grow first.
MAX_DIGITS = 4300
DIGIT_LIMIT = 10**MAX_DIGITS


def check_digits(what: str, *numbers: int) -> None:
    """Raise ValueError, starting with `what`, if a number passes MAX_DIGITS digits."""
    for x in numbers:
        if abs(x) >= DIGIT_LIMIT:
            raise ValueError(f"{what} the limit of {MAX_DIGITS} decimal digits")


def is_int(x: object) -> bool:
    """Whether x is an int and not a bool: the test of every integer field."""
    return isinstance(x, int) and not isinstance(x, bool)


# Miller-Rabin with the first 13 primes as bases decides primality exactly
# for every n below this bound (Sorenson & Webster 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    if n >= _MR_BOUND:
        raise ValueError(f"characteristic must be below {_MR_BOUND} to be tested for primality")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for base in _MR_BASES:
        x = pow(base, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Curve(namedtuple("Curve", "genus characteristic")):
    """Smooth projective curve of the given genus over a field of the given
    characteristic (0 or a prime)."""

    __slots__ = ()

    def __new__(cls, genus: int, characteristic: int = 0) -> Curve:
        if not (is_int(genus) and is_int(characteristic)):
            raise ValueError("genus and characteristic must be integers")
        if genus < 0:
            raise ValueError("genus must be non-negative")
        if characteristic != 0 and not _is_prime(characteristic):
            raise ValueError("characteristic must be 0 or a prime")
        return super().__new__(cls, genus, characteristic)

    @property
    def canonical_degree(self) -> int:
        return 2 * self.genus - 2


class SplitBundle(namedtuple("SplitBundle", "degrees")):
    """Direct sum of line bundles, recorded by their degrees.

    The degree list is canonicalized to non-increasing order on
    construction, so two bundles with the same summands compare equal.
    """

    __slots__ = ()

    def __new__(cls, degrees: tuple[int, ...]) -> SplitBundle:
        degs = tuple(degrees)
        if not degs:
            raise ValueError("a bundle needs at least one summand")
        if not all(map(is_int, degs)):
            raise ValueError("summand degrees must be integers")
        return super().__new__(cls, tuple(sorted(degs, reverse=True)))

    @property
    def rank(self) -> int:
        return len(self.degrees)

    @property
    def det_degree(self) -> int:
        return sum(self.degrees)

    @property
    def slope(self) -> Fraction:
        return Fraction(self.det_degree, self.rank)

    @property
    def mu_max(self) -> int:
        return self.degrees[0]

    @property
    def mu_min(self) -> int:
        return self.degrees[-1]


def hn_data(bundle: SplitBundle) -> tuple[tuple[int, int], ...]:
    """(slope, multiplicity) blocks in strictly decreasing slope order: for
    a split bundle the HN filtration is its grading by degree."""
    return tuple((d, len(list(group))) for d, group in groupby(bundle.degrees))


def symmetric_power_stats(bundle: SplitBundle, n: int) -> tuple[int, int, Fraction]:
    """Rank, degree, and slope of the n-th symmetric power.

    rank S^n(E) = C(r-1+n, n) and deg S^n(E) = C(r-1+n, r) * deg E;
    consequently mu(S^n E) = n * mu(E).
    """
    if n < 0:
        raise ValueError("symmetric power exponent must be non-negative")
    r = bundle.rank
    rank = comb(r - 1 + n, n)
    degree = comb(r - 1 + n, r) * bundle.det_degree
    return rank, degree, n * bundle.slope


def frobenius_pullback(curve: Curve, bundle: SplitBundle, e: int) -> SplitBundle:
    """Pull back along e iterations of Frobenius: degrees scale by p^e.

    Raises ValueError when a degree p^e * d would pass MAX_DIGITS decimal
    digits, without ever building a p^e much larger than that.
    """
    if e < 0:
        raise ValueError("e must be non-negative")
    if e == 0:
        return bundle
    p = curve.characteristic
    if p == 0:
        raise ValueError("Frobenius undefined in characteristic zero")
    if not any(bundle.degrees):
        return bundle
    what = f"frobenius: e = {e} makes the degrees p^e*d pass"
    # 2**(e * (bits(p) - 1)) <= p**e: an e that is too large is refused unbuilt.
    check_digits(what, 1 << min(e * (p.bit_length() - 1), DIGIT_LIMIT.bit_length()))
    scale = p**e
    check_digits(what, scale * max(abs(d) for d in bundle.degrees))
    return SplitBundle(tuple(scale * d for d in bundle.degrees))


def min_destabilizing_e(curve: Curve, bundle: SplitBundle) -> int | None:
    """Least e >= 0 with p^e * (d_1 - d_2) > 2g - 2 for a rank-2 bundle.

    In characteristic 0 only e = 0 is tried.  Returns None when no such e
    exists (equal degrees, or characteristic 0 with gap <= 2g - 2).
    """
    if bundle.rank != 2:
        raise ValueError("min_destabilizing_e requires a rank-2 bundle")
    gap = bundle.degrees[0] - bundle.degrees[1]
    if gap == 0:
        return None
    bound = curve.canonical_degree
    if gap > bound:
        return 0
    if curve.characteristic == 0:
        return None
    p = curve.characteristic
    e = 0
    scaled = gap
    while scaled <= bound:
        e += 1
        scaled *= p
    return e
