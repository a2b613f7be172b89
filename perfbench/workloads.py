"""Seeded inputs for the four benchmark workloads.

A workload is a list of passes; a pass is a list of CLI invocations
(`Op`s).  Everything here is derived from the seed alone, so the same seed
gives the same argv lists and scenario files.  The scan grids are pinned:
their row counts (160 and 3,731) and the number of rows on which the
seed commit's oracle disagrees (0 and 105) are the reference points that
later changes are compared against, so the seed does not move them.
"""
from __future__ import annotations

import json
import random
import shutil
from dataclasses import dataclass, field
from math import comb
from pathlib import Path
from typing import Optional

WORKLOADS = ("scan-r3", "scan-r2", "h0-deep", "cli-oneshot")

# Passes built per seed for the seeded workloads; a run cycles through
# them, and a pass takes a second or more, so a run never repeats one.
N_PASSES = 64

# Seconds one pass, with the set-up probe after it, takes at the seed
# commit on a 2-vCPU Xeon VM.  A run of S seconds times round(S / PASS_SECONDS)
# passes: a fixed count, so the ops a run checks, and with them its
# attempted and failed counts, depend on the seed and S and not on how fast
# the machine was during the run.
PASS_SECONDS = {"scan-r3": 6.1, "scan-r2": 1.25, "h0-deep": 3.5, "cli-oneshot": 1.55}

PRIMES = (2, 3, 5, 7, 11, 13)


@dataclass
class Op:
    """One CLI invocation and what the checker needs to judge its output."""

    argv: list[str]
    kind: str  # scan | classify | h0 | frobenius | blowup | invalid
    expect_exit: tuple[int, ...] = (0,)
    ctx: dict = field(default_factory=dict)
    rows: int = 1  # benchmark ops this invocation stands for
    lattice_points: int = 0  # sum of C(a+r-1, r-1) over the class slices it asks for


@dataclass
class Workload:
    name: str
    passes: list[list[Op]]

    def pass_ops(self, i: int) -> list[Op]:
        return self.passes[i % len(self.passes)]


# ------------------------------------------------------------ reference maths

def anticanonical(genus: int, degrees: tuple[int, ...]) -> tuple[int, int]:
    """-K = r*xi - (2g-2 + deg E)*f."""
    return len(degrees), -(2 * genus - 2) - sum(degrees)


def ladder(m_max: int) -> list[int]:
    """The rungs m_max, m_max/2, ... >= 8 that the growth classifier samples."""
    ms = []
    m = m_max
    while m >= 8:
        ms.append(m)
        m //= 2
    return ms[::-1]


def slice_points(a: int, r: int) -> int:
    """Lattice points k in Z^r_{>=0} with sum(k) = a."""
    return comb(a + r - 1, r - 1) if a >= 0 else 0


def problem_points(a: int, r: int, m_max: Optional[int], with_base: bool) -> int:
    pts = slice_points(a, r) if with_base else 0
    if m_max is not None:
        pts += sum(slice_points(m * a, r) for m in ladder(m_max))
    return pts


def passes_per_run(name: str, seconds: float) -> int:
    return max(1, round(seconds / PASS_SECONDS[name]))


# ---------------------------------------------------------------------- scans

def scan_op(genus: tuple[int, int], d1: tuple[int, int], d2: tuple[int, int],
            d3: Optional[tuple[int, int]], cls: Optional[tuple[int, int]],
            m_max: int) -> Op:
    argv = ["scan", "--genus-range", "{}:{}".format(*genus),
            "--d1-range={}:{}".format(*d1), "--d2-range={}:{}".format(*d2)]
    if d3 is not None:
        argv.append("--d3-range={}:{}".format(*d3))
    if cls is not None:
        argv.append(f"--class={cls[0]},{cls[1]}")
    argv += ["--m-max", str(m_max)]

    grid = []
    for g in range(genus[0], genus[1] + 1):
        for a1 in range(d1[0], d1[1] + 1):
            for a2 in range(d2[0], min(d2[1], a1) + 1):
                if d3 is None:
                    grid.append((g, 0, (a1, a2)))
                else:
                    for a3 in range(d3[0], min(d3[1], a2) + 1):
                        grid.append((g, 0, (a1, a2, a3)))
    points = 0
    for g, _, degs in grid:
        a, _ = cls if cls is not None else anticanonical(g, degs)
        points += problem_points(a, len(degs), m_max, with_base=False)
    return Op(argv, "scan", (0, 1), {"grid": grid, "cls": cls},
              rows=len(grid), lattice_points=points)


def _scan_r3(small: bool) -> Workload:
    if small:
        op = scan_op((1, 1), (0, 1), (-1, 1), (-1, 1), None, 8)
    else:
        op = scan_op((1, 2), (0, 4), (-2, 4), (-2, 4), None, 64)
    return Workload("scan-r3", [[op]])


def _scan_r2(small: bool) -> Workload:
    if small:
        op = scan_op((0, 2), (-1, 2), (-1, 2), None, (1, 0), 8)
    else:
        op = scan_op((0, 40), (-4, 8), (-4, 8), None, (1, 0), 64)
    return Workload("scan-r2", [[op]])


# -------------------------------------------------------------------- h0-deep

def _degrees(rng: random.Random, r: int) -> tuple[int, ...]:
    return tuple(sorted((rng.randint(-4, 8) for _ in range(r)), reverse=True))


def _surface_argv(genus: int, degrees: tuple[int, ...], char: int = 0) -> list[str]:
    argv = ["--genus", str(genus), "--degrees=" + ",".join(map(str, degrees))]
    if char:
        argv += ["--char", str(char)]
    return argv


def h0_op(genus: int, degrees: tuple[int, ...], cls: Optional[tuple[int, int]],
          m_max: Optional[int]) -> Op:
    argv = ["h0", *_surface_argv(genus, degrees)]
    if cls is not None:
        argv.append(f"--class={cls[0]},{cls[1]}")
    if m_max is not None:
        argv += ["--m-max", str(m_max)]
    eff = cls if cls is not None else anticanonical(genus, degrees)
    return Op(argv, "h0", (0,), {"genus": genus, "degrees": degrees, "cls": eff, "m_max": m_max},
              lattice_points=problem_points(eff[0], len(degrees), m_max, with_base=True))


def _h0_pass(rng: random.Random, small: bool) -> list[Op]:
    """One query per slot.  Each slot fixes (a, r), so the lattice size and
    the work barely depend on the seed; the last slot sits at high genus,
    where the Clifford branch of the per-point bound is active."""
    g = [rng.randint(0, 40) for _ in range(3)] + [rng.randint(20, 40)]
    d2, d3, d4, d2b = _degrees(rng, 2), _degrees(rng, 3), _degrees(rng, 4), _degrees(rng, 2)
    k_a, k_b = anticanonical(g[1], d3)
    mult = 4 if small else 256
    return [
        h0_op(g[0], d2, None, 64 if small else 65536),
        h0_op(g[1], d3, (mult * k_a, mult * k_b), None),
        h0_op(g[2], d4, None, 8 if small else 32),
        h0_op(g[3], d2b, (1, 0), 64),
    ]


def _h0_deep(seed: int, small: bool) -> Workload:
    rng = random.Random(f"h0-deep/{seed}")
    return Workload("h0-deep", [_h0_pass(rng, small) for _ in range(1 if small else N_PASSES)])


# ---------------------------------------------------------------- cli-oneshot

def _classify_op(rng: random.Random, char: int, with_class: bool) -> Op:
    genus = rng.randint(0, 40)
    degrees = _degrees(rng, 2 if char else rng.choice((2, 3)))
    argv = ["classify", *_surface_argv(genus, degrees, char)]
    cls = None
    if with_class:
        cls = (rng.randint(-2, 8), rng.randint(-10, 10))
        argv.append(f"--class={cls[0]},{cls[1]}")
    eff = cls if cls is not None else anticanonical(genus, degrees)
    return Op(argv, "classify", (0,), {"genus": genus, "char": char, "degrees": degrees, "cls": eff})


def _frobenius_op(rng: random.Random) -> Op:
    genus, char, e = rng.randint(0, 40), rng.choice(PRIMES), rng.randint(0, 3)
    degrees = _degrees(rng, rng.choice((2, 3)))
    argv = ["frobenius", *_surface_argv(genus, degrees, char), "--e", str(e)]
    return Op(argv, "frobenius", (0,), {"genus": genus, "char": char, "degrees": degrees, "e": e})


def _blowup_op(path: Path, scenario: dict) -> Op:
    return Op(["blowup", str(path)], "blowup", (0,), {"scenario": scenario})


def _random_scenario(rng: random.Random) -> dict:
    genus = rng.randint(0, 6)
    d1, d2 = _degrees(rng, 2)
    a = rng.randint(0, 2)
    b = -a * d1 + rng.randint(0, 4)  # b + a*mu_max >= 0: pseudoeffective
    steps = [{"on_strict_transform": rng.random() < 0.8} for _ in range(rng.randint(0, 8))]
    return {"base": {"genus": genus, "characteristic": rng.choice((0,) + PRIMES),
                     "degrees": [d1, d2]},
            "budget_class": {"a": a, "b": b}, "steps": steps}


def _h0_small_op(rng: random.Random) -> Op:
    genus = rng.randint(0, 40)
    degrees = _degrees(rng, rng.choice((2, 3)))
    cls = (rng.randint(1, 8), rng.randint(-8, 8))
    return h0_op(genus, degrees, cls, rng.choice((None, 8, 16)))


def _invalid_op(rng: random.Random, workdir: Path, tag: str) -> Op:
    """An input the CLI must reject with exit code 2."""
    g = rng.randint(0, 40)
    menu = [
        ["classify", "--genus", str(-1 - g), "--degrees", "1,0"],
        ["classify", "--genus", str(g), "--char", str(rng.choice((4, 6, 9, 15))), "--degrees", "1,0"],
        ["classify", "--genus", str(g), "--degrees", "1,x"],
        ["classify", "--genus", str(g), "--degrees", str(rng.randint(-4, 8))],
        ["classify", "--degrees", "1,0"],
        ["h0", "--genus", str(g), "--degrees", "1,0", "--class", "1"],
        ["h0", "--genus", str(g), "--degrees", "1,0", "--m-max", str(rng.randint(0, 7))],
        ["frobenius", "--genus", str(g), "--degrees", "2,1", "--e", str(rng.randint(1, 3))],
        ["frobenius", "--genus", str(g), "--char", "3", "--degrees", "2,1", "--e", "-1"],
        ["scan", "--genus-range", "2:1", "--d1-range=0:1", "--d2-range=0:1"],
        ["nosuch"],
        "not_pseff",
        "bad_json",
    ]
    choice = rng.choice(menu)
    if isinstance(choice, list):
        return Op(choice, "invalid", (2,))
    path = workdir / f"invalid-{tag}.json"
    if choice == "bad_json":
        path.write_text('{"base": ')
    else:
        scenario = _random_scenario(rng)
        d1 = scenario["base"]["degrees"][0]
        scenario["budget_class"] = {"a": 1, "b": -d1 - rng.randint(1, 4)}
        path.write_text(json.dumps(scenario))
    return Op(["blowup", str(path)], "invalid", (2,))


def _cli_pass(rng: random.Random, i: int, workdir: Path, shipped: list[tuple[Path, dict]]) -> list[Op]:
    """Ten invocations: classify in char 0 and p, frobenius, blow-ups on a
    shipped and a generated scenario, small h0 queries, one invalid input."""
    scenario = _random_scenario(rng)
    path = workdir / f"scenario-{i}.json"
    path.write_text(json.dumps(scenario))
    return [
        _classify_op(rng, 0, False),
        _classify_op(rng, rng.choice(PRIMES), rng.random() < 0.5),
        _frobenius_op(rng),
        _blowup_op(*shipped[i % len(shipped)]),
        _blowup_op(path, scenario),
        _h0_small_op(rng),
        _h0_small_op(rng),
        _classify_op(rng, 0, True),
        _frobenius_op(rng),
        _invalid_op(rng, workdir, str(i)),
    ]


def _cli_oneshot(seed: int, small: bool, workdir: Path, root: Path) -> Workload:
    shipped = []
    for src in sorted((root / "scenarios").glob("*.json")):
        dst = workdir / f"shipped-{src.name}"
        shutil.copyfile(src, dst)
        shipped.append((dst, json.loads(src.read_text())))
    if not shipped:
        raise FileNotFoundError(f"no shipped scenarios under {root / 'scenarios'}")
    rng = random.Random(f"cli-oneshot/{seed}")
    n = 1 if small else N_PASSES
    return Workload("cli-oneshot", [_cli_pass(rng, i, workdir, shipped) for i in range(n)])


def build(name: str, seed: int, workdir: Path, root: Path, small: bool = False) -> Workload:
    """Build a workload's passes; scenario files go into workdir."""
    if name == "scan-r3":
        return _scan_r3(small)
    if name == "scan-r2":
        return _scan_r2(small)
    if name == "h0-deep":
        return _h0_deep(seed, small)
    if name == "cli-oneshot":
        return _cli_oneshot(seed, small, workdir, root)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
