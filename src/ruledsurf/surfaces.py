"""Projective bundles over a curve and their numerical divisor classes.

Classes live in the lattice Z*xi + Z*f, where xi is the tautological class
of O_X(1) and f the fiber class.  The intersection relations are
xi^r = deg E, xi^(r-1).f = 1, and any product with two or more fiber
factors vanishes.

Big/pseudoeffective tests use the slope criterion: a*xi + b*f is big iff
a > 0 and b + a*mu_max(E) > 0, mu_max(E) being the largest summand
degree.  For the anticanonical class of a rank-2 surface this reads
deg L - deg M > 2g - 2, and for O(n) twisted by a degree-c pullback it
reads n*deg L + c > 0 on P(L + O).  The nef test is the dual statement
with mu_min, in every rank: a >= 0 and b + a*mu_min(E) >= 0.
"""
from __future__ import annotations

from collections import namedtuple
from math import prod

from .bundles import Curve, SplitBundle, is_int


class NumClass(namedtuple("NumClass", "a b")):
    """Numerical class a*xi + b*f."""

    __slots__ = ()

    def __new__(cls, a: int, b: int) -> NumClass:
        if not (is_int(a) and is_int(b)):
            raise ValueError("class coefficients a, b must be integers")
        return super().__new__(cls, a, b)

    # Not the tuple's concatenation and repetition: c + d and c * t raise
    # TypeError, as they would on a class that is no tuple.
    def __add__(self, other: object) -> NumClass:
        return NotImplemented

    __mul__ = __add__

    def __sub__(self, other: "NumClass") -> "NumClass":
        return NumClass(self.a - other.a, self.b - other.b)

    def __neg__(self) -> "NumClass":
        return NumClass(-self.a, -self.b)

    def __rmul__(self, t: int) -> "NumClass":
        return NumClass(t * self.a, t * self.b)

    def __str__(self) -> str:
        return f"({self.a}, {self.b})"


# Highest rank a projective bundle may have: it bounds both the volume's
# divided-difference table and the depth of the lattice walk (one frame
# per summand).  With degrees below 100 in absolute value the table costs
# about 0.08 s at rank 128 and grows faster than r^3 (0.56 s at rank 256,
# 0.85 s at 300), on a 2-vCPU Intel Xeon with Python 3.11.7; larger
# degrees cost more, up to bundles.MAX_DIGITS.
MAX_RANK = 128


class RuledSurface(namedtuple("RuledSurface", "curve bundle")):
    """P_C(E) for a split bundle E of rank 2..MAX_RANK (a surface when
    r = 2, a higher projective bundle otherwise)."""

    __slots__ = ()

    def __new__(cls, curve: Curve, bundle: SplitBundle) -> RuledSurface:
        r = bundle.rank
        if r < 2:
            raise ValueError("projective bundle needs rank >= 2")
        if r > MAX_RANK:
            raise ValueError(f"projective bundle: rank {r} is above the limit of {MAX_RANK}")
        return super().__new__(cls, curve, bundle)

    @property
    def rank(self) -> int:
        return self.bundle.rank


def canonical_class(surface: RuledSurface) -> NumClass:
    """K_X = -r*xi + pi^*(K_C + det E)."""
    return NumClass(
        -surface.rank,
        surface.curve.canonical_degree + surface.bundle.det_degree,
    )


def intersect(surface: RuledSurface, classes: list[NumClass]) -> int:
    """Top intersection number of r numerical classes."""
    r = surface.rank
    if len(classes) != r:
        raise ValueError(f"expected {r} classes, got {len(classes)}")
    e = surface.bundle.det_degree
    all_a = prod(c.a for c in classes)
    cross = sum(
        classes[j].b * prod(classes[i].a for i in range(r) if i != j)
        for j in range(r)
    )
    return e * all_a + cross


def big_test(surface: RuledSurface, cls: NumClass) -> bool:
    """a*xi + b*f is big iff a > 0 and b + a*mu_max(E) > 0."""
    if cls.a <= 0:
        return False
    return cls.b + cls.a * surface.bundle.mu_max > 0


def pseff_test(surface: RuledSurface, cls: NumClass) -> bool:
    """Closure of the big cone: a >= 0 and b + a*mu_max(E) >= 0."""
    if cls.a < 0:
        return False
    return cls.b + cls.a * surface.bundle.mu_max >= 0


def nef_test(surface: RuledSurface, cls: NumClass) -> bool:
    """Nef iff a >= 0 and b + a*d_r >= 0, d_r = mu_min(E), in every rank:
    a*xi + b*f = a*(xi - d_r*f) + (b + a*d_r)*f, and xi - d_r*f is the O(1)
    of E (x) L_r^-1, a sum of line bundles of degree >= 0, so it is nef.
    Sharp: the class is a*d_r + b on the section sigma_r of the quotient
    E -> L_r, and a on a line in a fiber (Lazarsfeld, Positivity II, 6.1-6.2).

    For a > 0 the volume tells the same: D^r = a^(r-1) * sum(v_i), the
    divided difference of t^r over the knots v_i = a*d_i + b, so
    vol(D) - D^r = a^(r-1) * h[v_1, ..., v_r] with h(t) = max(t, 0)^r - t^r
    = (-1)^(r+1) * max(-t, 0)^r.  By Hermite-Genocchi that is a^(r-1) * r! *
    the integral of max(-l, 0) over the standard simplex, l = sum(lambda_i
    v_i): >= 0, and 0 iff every knot is >= 0, i.e. iff a*d_r + b >= 0.  So
    D is nef iff vol(D) = D^r, and otherwise vol(D) > D^r.
    """
    if cls.a < 0:
        return False
    return cls.b + cls.a * surface.bundle.mu_min >= 0
