"""Independent checks of CLI output.

Every reference here is computed by the benchmark from the inputs it
generated, never by calling the package.  An op fails when:

- its exit code is not the expected one, or it printed a traceback;
- a scan row has agree=false;
- the `big` column or any other bigness claim contradicts the slope test
  (big iff a > 0 and b + a*max(d) > 0), or a *_CERTIFIED verdict does;
- an h0 interval (for the class or any sampled rung) is empty, or is not
  inside the sum over the lattice slice of the per-point bounds (0 below
  degree 0, [0, 1] at 0, Riemann-Roch below and Clifford above in the
  special range, exactly d - g + 1 beyond 2g - 2); a sound tightening
  stays inside, a wrong sum need not;
- k_squared_step_i != 8(1-g) - i after i blow-ups;
- the Frobenius pull-back degrees are not p^e * d.

Two failure classes are kept apart.  A *verdict* failure is an oracle
verdict that contradicts the slope test (agree=false, or a *_CERTIFIED
label on the wrong side); the seed commit has such rows at high genus, and
they are counted, never filtered.  Every other failure is a *hard*
failure: the program broke a contract that holds at the seed commit, and
it makes the run incorrect.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from workloads import Op, anticanonical, ladder


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0  # ops failing any rule, verdict failures included
    verdict_failed: int = 0
    problems: list[str] = field(default_factory=list)  # hard failures

    def add(self, other: "Outcome") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.verdict_failed += other.verdict_failed
        self.problems += other.problems


def slope_big(cls: tuple[int, int], degrees: tuple[int, ...]) -> bool:
    a, b = cls
    return a > 0 and b + a * max(degrees) > 0


def point_bounds(genus: int, degree: int) -> tuple[int, int]:
    """Bounds for h^0 of a degree-d line bundle on a genus-g curve."""
    if degree < 0:
        return 0, 0
    if degree == 0:
        return 0, 1
    if degree > 2 * genus - 2:
        return degree - genus + 1, degree - genus + 1
    return max(0, degree - genus + 1), degree // 2 + 1


def _progression_bounds(genus: int, start: int, step: int, n: int) -> tuple[int, int]:
    """Sum of point_bounds over the degrees start + j*step, 0 <= j < n, step >= 0.

    Degrees beyond max(0, 2g-2) are exact and summed in closed form; only
    the at most 2g - 1 degrees in [0, 2g-2] are visited one by one."""
    if step == 0:
        lo, hi = point_bounds(genus, start)
        return n * lo, n * hi
    top = max(0, 2 * genus - 2)
    first_nonneg = min(n, max(0, -(start // step)))  # least j with start + j*step >= 0
    first_exact = min(n, max(0, (top - start) // step + 1))  # least j beyond top
    exact_n = n - first_exact
    exact = exact_n * (start - genus + 1) + step * (first_exact + n - 1) * exact_n // 2
    lo = hi = exact
    for j in range(first_nonneg, first_exact):
        plo, phi = point_bounds(genus, start + j * step)
        lo += plo
        hi += phi
    return lo, hi


@lru_cache(maxsize=4096)
def slice_bounds(genus: int, degrees: tuple[int, ...], a: int, b: int) -> tuple[int, int]:
    """Sum of point_bounds over the lattice slice k in Z^r_{>=0}, sum(k) = a,
    at degree sum(k_i d_i) + b, for r >= 2.  The last two coordinates run
    along an arithmetic progression, so a rank-r slice costs C(a+r-2, r-2)
    progressions.  Cached: a traced run checks each output several times."""
    if a < 0:
        return 0, 0
    degs = sorted(degrees, reverse=True)
    lo = hi = 0

    def walk(i: int, left: int, base: int) -> None:
        nonlocal lo, hi
        if i == len(degs) - 2:
            plo, phi = _progression_bounds(genus, base + left * degs[-1], degs[-2] - degs[-1], left + 1)
            lo += plo
            hi += phi
            return
        for k in range(left + 1):
            walk(i + 1, left - k, base + k * degs[i])

    walk(0, a, b)
    return lo, hi


def _bool(flag: bool) -> str:
    return "true" if flag else "false"


def _cls_str(cls: tuple[int, int]) -> str:
    return f"({cls[0]}, {cls[1]})"


def _fields(stdout: str) -> dict[str, str]:
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            out[key] = value
    return out


def _interval(text: str) -> tuple[int, int]:
    lo, hi = text.strip("[]").split(",")
    return int(lo), int(hi)


def _min_destabilizing_e(genus: int, char: int, degrees: tuple[int, ...]) -> Optional[int]:
    """Least e >= 0 with p^e * (d1 - d2) > 2g - 2 (char 0 tries e = 0 only)."""
    gap = degrees[0] - degrees[1]
    if gap == 0:
        return None
    e = 0
    while gap * max(char, 1) ** e <= 2 * genus - 2:
        if char == 0:
            return None
        e += 1
    return e


class _Judge:
    """Collects the rule violations of one op (or one scan row)."""

    def __init__(self, where: str):
        self.where = where
        self.hard: list[str] = []
        self.verdict = False

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.hard.append(f"{self.where}: {what}")

    def verdict_vs_slope(self, verdict: Optional[str], big: bool) -> None:
        if (verdict == "BIG_CERTIFIED" and not big) or (verdict == "NOT_BIG_CERTIFIED" and big):
            self.verdict = True

    def outcome(self, attempted: int = 1) -> Outcome:
        bad = bool(self.hard) or self.verdict
        return Outcome(attempted, int(bad), int(self.verdict and not self.hard), self.hard)


def _check_scan(op: Op, rc: int, stdout: str) -> Outcome:
    lines = stdout.splitlines()
    grid, cls = op.ctx["grid"], op.ctx["cls"]
    rank = len(grid[0][2])
    header = ["genus", "char", "d1", "d2", "d3"][: 2 + rank] + \
        ["a", "b", "big", "verdict", "volume", "agree"]
    if not lines or lines[0].split("\t") != header or len(lines) != len(grid) + 1:
        return Outcome(op.rows, op.rows, 0, [f"{' '.join(op.argv)}: malformed TSV"])
    total = Outcome()
    any_disagree = False
    for (g, p, degs), line in zip(grid, lines[1:]):
        cols = line.split("\t")
        judge = _Judge(f"scan row {g},{p},{degs}")
        if len(cols) != len(header):
            judge.expect(False, "wrong column count")
            total.add(judge.outcome())
            continue
        want = cls if cls is not None else anticanonical(g, degs)
        big = slope_big(want, degs)
        judge.expect(cols[: 2 + rank] == [str(x) for x in (g, p, *degs)], "row out of order")
        judge.expect(cols[2 + rank: 4 + rank] == [str(want[0]), str(want[1])], "wrong class")
        judge.expect(cols[4 + rank] == _bool(big), "big column contradicts the slope test")
        judge.expect((Fraction(cols[6 + rank]) > 0) == big, "volume sign contradicts the slope test")
        judge.verdict_vs_slope(cols[5 + rank], big)
        if cols[7 + rank] == "false":
            judge.verdict = True
            any_disagree = True
        total.add(judge.outcome())
    if rc != (1 if any_disagree else 0):
        total.problems.append(f"{' '.join(op.argv)}: exit {rc} does not match the agree column")
        total.failed = total.attempted
    return total


def _check_classify(op: Op, f: dict[str, str], judge: _Judge) -> None:
    genus, char, degs, cls = (op.ctx[k] for k in ("genus", "char", "degrees", "cls"))
    a, b = cls
    judge.expect(f.get("class") == _cls_str(cls), "wrong class")
    judge.expect(f.get("canonical_class") == _cls_str((-len(degs), 2 * genus - 2 + sum(degs))),
                 "wrong canonical class")
    big = slope_big(cls, degs)
    judge.expect(f.get("big") == _bool(big), "big contradicts the slope test")
    judge.expect(f.get("pseff") == _bool(a >= 0 and b + a * max(degs) >= 0),
                 "pseff contradicts the slope test")
    if len(degs) == 2:
        judge.expect(f.get("nef") == _bool(a >= 0 and b + a * min(degs) >= 0),
                     "nef contradicts the slope test")
    judge.expect((Fraction(f.get("volume", "0")) > 0) == big, "volume sign contradicts the slope test")
    if char and len(degs) == 2:
        e = _min_destabilizing_e(genus, char, degs)
        judge.expect(f.get("min_destabilizing_e") == ("none" if e is None else str(e)),
                     "wrong min_destabilizing_e")


def _check_h0(op: Op, f: dict[str, str], judge: _Judge) -> None:
    cls, degs, m_max = op.ctx["cls"], op.ctx["degrees"], op.ctx["m_max"]
    big = slope_big(cls, degs)
    judge.expect(f.get("class") == _cls_str(cls), "wrong class")
    judge.expect((Fraction(f["volume"]) > 0) == big, "volume sign contradicts the slope test")
    rungs = [(1, "h0", (int(f["h0_lo"]), int(f["h0_hi"])))]
    if m_max is not None:
        rungs += [(m, f"sample_m_{m}", _interval(f[f"sample_m_{m}"])) for m in ladder(m_max)]
        judge.verdict_vs_slope(f.get("verdict"), big)
    for m, name, (lo, hi) in rungs:
        ref_lo, ref_hi = slice_bounds(op.ctx["genus"], degs, m * cls[0], m * cls[1])
        judge.expect(ref_lo <= lo <= hi <= ref_hi,
                     f"{name} [{lo}, {hi}] is not inside the per-point bounds [{ref_lo}, {ref_hi}]")


def _check_frobenius(op: Op, f: dict[str, str], judge: _Judge) -> None:
    genus, p, degs, e = (op.ctx[k] for k in ("genus", "char", "degrees", "e"))
    judge.expect(f.get("pullback_degrees") == ",".join(str(p**e * d) for d in degs),
                 "pull-back degrees are not p^e * d")
    if len(degs) == 2:
        want = _min_destabilizing_e(genus, p, degs)
        judge.expect(f.get("min_destabilizing_e") == ("none" if want is None else str(want)),
                     "wrong min_destabilizing_e")


def _check_blowup(op: Op, f: dict[str, str], judge: _Judge) -> None:
    sc = op.ctx["scenario"]
    g, degs = sc["base"]["genus"], tuple(sorted(sc["base"]["degrees"], reverse=True))
    budget = (sc["budget_class"]["a"], sc["budget_class"]["b"])
    k_a, k_b = anticanonical(g, degs)
    big_part = (k_a - budget[0], k_b - budget[1])
    big = slope_big(big_part, degs)
    on_strict = all(step["on_strict_transform"] for step in sc["steps"])
    judge.expect(f.get("big_part") == _cls_str(big_part), "wrong big_part")
    judge.expect(f.get("big_part_is_big") == _bool(big), "big_part_is_big contradicts the slope test")
    judge.expect(f.get("steps_on_strict_transform") == _bool(on_strict), "wrong incidence summary")
    judge.expect(f.get("certified") == _bool(big and on_strict), "wrong certificate")
    for i in range(len(sc["steps"]) + 1):
        judge.expect(f.get(f"k_squared_step_{i}") == str(8 * (1 - g) - i),
                     f"k_squared_step_{i} != 8(1-g) - {i}")


_CHECKERS = {"classify": _check_classify, "h0": _check_h0,
             "frobenius": _check_frobenius, "blowup": _check_blowup}


def check(op: Op, rc: Optional[int], stdout: str, stderr: str) -> Outcome:
    """Judge one invocation; rc is None when the call raised instead of exiting."""
    where = " ".join(op.argv)
    if rc not in op.expect_exit or "Traceback" in stderr:
        what = "raised" if rc is None else f"exit {rc}"
        return Outcome(op.rows, op.rows, 0, [f"{where}: {what}, expected {op.expect_exit}"])
    if op.kind == "scan":
        return _check_scan(op, rc, stdout)
    judge = _Judge(where)
    if op.kind == "invalid":
        judge.expect(stdout == "", "printed to stdout on a rejected input")
    else:
        try:
            _CHECKERS[op.kind](op, _fields(stdout), judge)
        except (KeyError, ValueError) as err:
            judge.expect(False, f"unparsable output ({err!r})")
    return judge.outcome()
