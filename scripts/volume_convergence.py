#!/usr/bin/env python3
"""Print the convergence of the exact lattice-sum ratios to the volume.

For a chosen surface and class, tabulates r! * lo(mD) / m^r along a
doubling ladder next to the exact limit, showing the O(1/m) envelope.

Usage: python3 scripts/volume_convergence.py [genus d1 d2 [a b]]
"""
import sys
from fractions import Fraction
from math import factorial

from ruledsurf import (
    Curve,
    NumClass,
    RuledSurface,
    SplitBundle,
    canonical_class,
    growth_classify,
)
from ruledsurf.sections import ladder


def run(genus: int, d1: int, d2: int, a=None, b=None) -> None:
    surface = RuledSurface(Curve(genus), SplitBundle((d1, d2)))
    cls = NumClass(a, b) if a is not None else -canonical_class(surface)
    r, rungs = surface.rank, ladder(128)
    [(_, vol, intervals)] = growth_classify(f"class {cls} up to m = 128", [(surface, cls)], rungs)
    print(f"surface: genus {genus}, degrees {surface.bundle.degrees}")
    print(f"class: {cls}  volume: {vol}")
    print("m\tlo\tratio\terror\tm*error")
    for m, iv in zip(rungs, intervals):
        ratio = Fraction(factorial(r) * iv.lo, m**r)
        err = abs(vol - ratio)
        print(f"{m}\t{iv.lo}\t{ratio}\t{err}\t{m * err}")


if __name__ == "__main__":
    try:
        args = [int(x) for x in sys.argv[1:]]
    except ValueError:
        args = None
    if args is None or len(args) not in (0, 3, 5):
        print("usage: python3 scripts/volume_convergence.py [genus d1 d2 [a b]]", file=sys.stderr)
        sys.exit(2)
    try:
        run(*(args or [1, 1, 0]))
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        sys.exit(2)
