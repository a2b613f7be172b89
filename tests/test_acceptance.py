"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines.
"""
import itertools
import json
import random
from fractions import Fraction
from math import factorial
from pathlib import Path

from ruledsurf import (
    BlownUpSurface,
    Curve,
    NumClass,
    RuledSurface,
    SplitBundle,
    Verdict,
    big_test,
    canonical_class,
    check_class,
    growth_classify,
    h0_class_interval,
    min_destabilizing_e,
    nef_test,
    symmetric_power_stats,
    volume,
)
from ruledsurf.cli import EXIT_OK, main
from ruledsurf.sections import ladder

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def report(num: int, desc: str, ok: bool) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def rank2_grid():
    for g in (1, 2, 3):
        for d1 in range(-3, 7):
            for d2 in range(-3, d1 + 1):
                yield g, d1, d2


def test_criterion_1_rank2_grid():
    ok = True
    for g, d1, d2 in rank2_grid():
        s = RuledSurface(Curve(g), SplitBundle((d1, d2)))
        mk = -canonical_class(s)
        expected = d1 - d2 > 2 * g - 2
        if big_test(s, mk) != expected:
            ok = False
            break
        [(_, [verdict], _)] = growth_classify("-K", [(s, mk, [g])], ladder(64))
        if d1 - d2 != 2 * g - 2:
            want = Verdict.BIG_CERTIFIED if expected else Verdict.NOT_BIG_CERTIFIED
            if verdict is not want:
                ok = False
                break
        else:
            if verdict not in (Verdict.NOT_BIG_CERTIFIED, Verdict.INCONCLUSIVE):
                ok = False
                break
            if volume(s, mk) != 0:
                ok = False
                break
    report(1, "rank-2 anticanonical threshold grid with oracle agreement at m_max=64", ok)


def test_criterion_2_rank3_grid():
    ok = True
    for g in (1, 2):
        for d1 in range(0, 5):
            for d2 in range(-2, d1 + 1):
                for d3 in range(-2, d2 + 1):
                    s = RuledSurface(Curve(g), SplitBundle((d1, d2, d3)))
                    mk = -canonical_class(s)
                    expected = 2 * d1 - d2 - d3 > 2 * g - 2
                    if big_test(s, mk) != expected:
                        ok = False
                    [(_, [verdict], _)] = growth_classify("-K", [(s, mk, [g])], ladder(24))
                    if 2 * d1 - d2 - d3 != 2 * g - 2:
                        want = (Verdict.BIG_CERTIFIED if expected
                                else Verdict.NOT_BIG_CERTIFIED)
                        ok = ok and verdict is want
                    else:
                        ok = ok and verdict in (
                            Verdict.NOT_BIG_CERTIFIED, Verdict.INCONCLUSIVE
                        ) and volume(s, mk) == 0
    report(2, "rank-3 anticanonical spot-grid with oracle agreement at m_max=24", ok)


def test_criterion_3_volume_consistency():
    big_points = [(g, d1, d2) for g, d1, d2 in rank2_grid()
                  if d1 - d2 > 2 * g - 2]
    rng = random.Random(20260825)
    sample = rng.sample(big_points, 50)
    ms = (8, 16, 32, 64)
    ok = True
    fitted_c = Fraction(0)
    for g, d1, d2 in sample:
        s = RuledSurface(Curve(g), SplitBundle((d1, d2)))
        mk = -canonical_class(s)
        vol = volume(s, mk)
        errors = []
        for m in ms:
            lo = h0_class_interval(s, m * mk).lo
            errors.append(abs(vol - Fraction(factorial(2) * lo, m**2)))
        # monotone convergence of the ratio along the doubling ladder
        if errors != sorted(errors, reverse=True):
            ok = False
        fitted_c = max(fitted_c, *(m * e for m, e in zip(ms, errors)))
    # with the fitted constant the O(1/m) envelope holds on every sample
    for g, d1, d2 in sample:
        s = RuledSurface(Curve(g), SplitBundle((d1, d2)))
        mk = -canonical_class(s)
        vol = volume(s, mk)
        for m in ms:
            lo = h0_class_interval(s, m * mk).lo
            if abs(vol - Fraction(2 * lo, m**2)) > fitted_c / m:
                ok = False
    # volume vanishes exactly off the big cone
    for g, d1, d2 in rank2_grid():
        if d1 - d2 > 2 * g - 2:
            continue
        s = RuledSurface(Curve(g), SplitBundle((d1, d2)))
        if volume(s, -canonical_class(s)) != 0:
            ok = False
    report(3, f"volume vs lattice sums on 50 seeded big instances (fitted C={fitted_c})", ok)


def test_criterion_4_intersection_invariants():
    ok = True
    for g, d1, d2 in rank2_grid():
        s = RuledSurface(Curve(g), SplitBundle((d1, d2)))
        k = canonical_class(s)
        from ruledsurf import intersect
        if intersect(s, [k, k]) != 8 * (1 - g):
            ok = False
    for g in (1, 2, 3):
        base = RuledSurface(Curve(g), SplitBundle((2, 0)))
        for n in range(21):
            bu = BlownUpSurface(base, n=n)
            kk = bu.canonical_class()
            if check_class(bu, kk, kk) != 8 * (1 - g) - n:
                ok = False
    report(4, "K^2 = 8(1-g) on the grid and 8(1-g)-n after n <= 20 blow-ups", ok)


def test_criterion_5_blowup_scenarios(tmp_path, capsys):
    ok = True
    for name in ("fibers_deg3_elliptic.json", "section_deg1_elliptic.json"):
        path = SCENARIOS / name
        assert main(["blowup", str(path)]) == EXIT_OK
        out = capsys.readouterr().out
        if "certified: true" not in out:
            ok = False
        doc = json.loads(path.read_text())
        for i in range(len(doc["steps"])):
            flipped = json.loads(path.read_text())
            flipped["steps"][i]["on_strict_transform"] = False
            tmp = tmp_path / f"flip_{name}_{i}.json"
            tmp.write_text(json.dumps(flipped))
            assert main(["blowup", str(tmp)]) == EXIT_OK
            if "certified: false" not in capsys.readouterr().out:
                ok = False
    report(5, "shipped blow-up scenarios certify; flipping any incidence flag de-certifies", ok)


def test_criterion_6_cone_over_cubic():
    s = RuledSurface(Curve(1), SplitBundle((1, 0)))
    sigma = NumClass(1, -1)
    cls = -canonical_class(s) - sigma
    ok = nef_test(s, cls) and big_test(s, cls)
    report(6, "-K - sigma nef and big on P(O + O(1)) over a genus-1 curve", ok)


def test_criterion_7_frobenius():
    ok = True
    cases = [
        (2, 2, (1, 0), 2),
        (3, 2, (1, 0), 1),
    ]
    for p, g, degrees, expected in cases:
        e = min_destabilizing_e(Curve(g, p), SplitBundle(degrees))
        if e != expected:
            ok = False
        gap = degrees[0] - degrees[1]
        if not (p**e * gap > 2 * g - 2):
            ok = False
        if e >= 1 and not (p ** (e - 1) * gap <= 2 * g - 2):
            ok = False
    for p in (0, 2, 3, 5, 7):
        if min_destabilizing_e(Curve(1, p), SplitBundle((1, 0))) != 0:
            ok = False
    report(7, "minimal Frobenius twist indices verified by direct substitution", ok)


def test_criterion_8_symmetric_power_oracle():
    ok = True
    for r in range(1, 5):
        for degrees in itertools.combinations_with_replacement(range(-3, 4), r):
            bundle = SplitBundle(degrees)
            for n in range(7):
                rank, degree, slope = symmetric_power_stats(bundle, n)
                o_rank = 0
                o_degree = 0
                for k in itertools.product(range(n + 1), repeat=r):
                    if sum(k) != n:
                        continue
                    o_rank += 1
                    o_degree += sum(ki * di for ki, di in zip(k, bundle.degrees))
                if (rank, degree) != (o_rank, o_degree):
                    ok = False
    report(8, "symmetric-power rank/degree match monomial enumeration (r<=4, n<=6, |d|<=3)", ok)


def test_criterion_9_hirzebruch_grid():
    # F_n is P(O + O(n)) over P^1: degrees (n, 0) at genus 0.  vol(-K) is
    # 8 for n <= 2, where -K is nef, and (n + 2)^2/n beyond; in general,
    # with e = d1 - d2, it is 8(1 - g) + (e + 2g - 2)^2/e where -K is big
    # (e > 2g - 2) and meets the negative section negatively (e > 2 - 2g).
    hirzebruch = [RuledSurface(Curve(0), SplitBundle((n, 0))) for n in range(7)]
    ok = ([volume(s, -canonical_class(s)) for s in hirzebruch]
          == [8, 8, 8, Fraction(25, 3), 9, Fraction(49, 5), Fraction(32, 3)])
    for g in range(4):
        for e in range(9):
            s = RuledSurface(Curve(g), SplitBundle((e, 0)))
            mk = -canonical_class(s)
            nef_and_big = nef_test(s, mk) and big_test(s, mk) and volume(s, mk) > 0
            if nef_and_big != (g == 0 and e <= 2):
                ok = False
            if e > abs(2 * g - 2) and volume(s, mk) != 8 * (1 - g) + Fraction((e + 2 * g - 2) ** 2, e):
                ok = False
    report(9, "vol(-K) on F_0..F_6 is 8, 8, 8, 25/3, 9, 49/5, 32/3; "
              "-K nef and big iff g = 0 and e <= 2 (g <= 3, e <= 8)", ok)
