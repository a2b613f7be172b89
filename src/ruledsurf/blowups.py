"""Iterated blow-ups of a ruled surface and the bigness certificate.

The numerical lattice of the blown-up surface is Z*xi + Z*f + Z*e_1 +
... + Z*e_n with each exceptional class of self-intersection -1,
orthogonal to everything else.  The canonical class gains +e_i at each
step, so K^2 drops by exactly one per blow-up.

A blow-up scenario records an effective "budget" class D on the base and,
for each blow-up, a flag: the author's assertion that the center lies on the
strict transform of D.  If -K - D is big on the base and every center
honors the assertion, the anticanonical class upstairs decomposes as
(pullback of the big class) + (pullback(D) - sum e_i), the second summand
effective, so -K stays big.  The certificate is sufficient only: a false
result means "not certified", never "not big".
"""
from __future__ import annotations

from collections import namedtuple

from .bundles import is_int
from .surfaces import NumClass, RuledSurface, big_test, canonical_class, intersect, pseff_test


class ExtClass(namedtuple("ExtClass", "a b exc")):
    """Class a*xi + b*f + sum(exc_i * e_i) on a blown-up surface."""

    __slots__ = ()

    def __new__(cls, a: int, b: int, exc: tuple[int, ...] = ()) -> ExtClass:
        if not (is_int(a) and is_int(b)):
            raise ValueError("class coefficients a, b must be integers")
        if not (isinstance(exc, tuple) and all(map(is_int, exc))):
            raise ValueError("exceptional coefficients must be a tuple of integers")
        return super().__new__(cls, a, b, exc)

    def __str__(self) -> str:
        parts = [f"{self.a}*xi", f"{self.b}*f"]
        parts += [f"{c}*e{i + 1}" for i, c in enumerate(self.exc) if c != 0]
        return " + ".join(parts)


class BlownUpSurface(namedtuple("BlownUpSurface", "base n")):
    """Rank-2 ruled surface after n successive point blow-ups."""

    __slots__ = ()

    def __new__(cls, base: RuledSurface, n: int = 0) -> BlownUpSurface:
        if not isinstance(base, RuledSurface):
            raise ValueError("base must be a RuledSurface")
        if base.rank != 2:
            raise ValueError("blow-ups supported over rank-2 bases only")
        if not is_int(n):
            raise ValueError("n must be an integer")
        if n < 0:
            raise ValueError("n must be non-negative")
        return super().__new__(cls, base, n)

    def canonical_class(self) -> ExtClass:
        k = canonical_class(self.base)
        return ExtClass(k.a, k.b, (1,) * self.n)


def check_class(surface: BlownUpSurface, cls: ExtClass, other: ExtClass) -> int:
    """Symmetric bilinear pairing in the extended lattice."""
    base_part = intersect(surface.base, [NumClass(cls.a, cls.b), NumClass(other.a, other.b)])
    # A missing exceptional coefficient is 0, so zip's truncation to the
    # shorter tuple drops only zero products.
    return base_part - sum(x * y for x, y in zip(cls.exc, other.exc))


class BlowupScenario(namedtuple("BlowupScenario", "base budget_class steps")):
    """A base surface, an effective budget class D, and a chain of blow-up
    steps, each recorded by its incidence flag (True: the center lies on
    the strict transform of D).  Rejected at construction if a field has
    the wrong type, a step being a bool, or if the budget is not
    pseudoeffective on the base."""

    __slots__ = ()

    def __new__(cls, base: RuledSurface, budget_class: NumClass,
                steps: tuple[bool, ...] = ()) -> BlowupScenario:
        try:
            steps = tuple(steps)
        except TypeError:
            raise ValueError("steps must be booleans") from None
        if not isinstance(base, RuledSurface):
            raise ValueError("base must be a RuledSurface")
        if not isinstance(budget_class, NumClass):
            raise ValueError("budget class must be a NumClass")
        if not all(isinstance(step, bool) for step in steps):
            raise ValueError("steps must be booleans")
        if not pseff_test(base, budget_class):
            raise ValueError("budget class is not pseudoeffective on the base")
        return super().__new__(cls, base, budget_class, steps)


BigAnticanonicalCertificate = namedtuple(
    "BigAnticanonicalCertificate",
    "certified big_part big_part_is_big effective_part steps_on_strict_transform")


def certify_big_anticanonical(scenario: BlowupScenario) -> BigAnticanonicalCertificate:
    """Certify -K big upstairs via -K(X~) = f*(-K - D) + (f*D - sum e_i)."""
    base = scenario.base
    d = scenario.budget_class
    big_part = -canonical_class(base) - d
    big_ok = big_test(base, big_part)
    steps_ok = all(scenario.steps)
    effective_part = ExtClass(d.a, d.b, (-1,) * len(scenario.steps))
    return BigAnticanonicalCertificate(
        certified=big_ok and steps_ok,
        big_part=big_part,
        big_part_is_big=big_ok,
        effective_part=effective_part,
        steps_on_strict_transform=steps_ok,
    )
