import hashlib
import json
import os
import random
import re
import shlex
import subprocess
import sys
import time
from collections import namedtuple
from fractions import Fraction
from math import comb
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ruledsurf import Curve, NumClass, RuledSurface, SplitBundle, Verdict, big_test, sections
from ruledsurf.cli import EXIT_DISAGREE, EXIT_IO, EXIT_OK, EXIT_VALIDATION, main

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"


# A rank-3 scan of 24^3 rows whose gaps d_2 - d_3 have 40 bits, up to m = 2^40.
WIDE_GAP_SCAN = ("--genus-range", "1:1", "--d1-range=2000000000000:2000000000023",
                 "--d2-range=1000000000000:1000000000023", "--d3-range=0:23",
                 "--m-max", str(2**40))

# The benchmark's two scan grids, without their --m-max 64: rank 2 under
# the class (1, 0), rank 3 under -K.  COSTS pins what each one costs.
SCAN_R2 = ("scan", "--genus-range", "0:40", "--d1-range=-4:8", "--d2-range=-4:8", "--class=1,0")
SCAN_R3 = ("scan", "--genus-range", "1:2", "--d1-range=0:4", "--d2-range=-2:4", "--d3-range=-2:4")
SCAN_R2_MINUS_K = SCAN_R2[:-1]  # SCAN_R2's grid under -K

# tests/test_oracle.py's knots-shifted plant, as source: sections.volume of
# the class (a, b - 1), whose knots are the class's shifted by -1.  It makes
# a scan disagree whatever the clean program's own verdicts, so the tests
# of the exit-1 path set it: by monkeypatch in this process, and in a
# spawned one ahead of the entry point's run(), as CI does (PLANTED_RUN).
KNOTS_SHIFTED = ("lambda surface, cls, volume=sections.volume: "
                 "volume(surface, sections.NumClass(cls.a, cls.b - 1))")
PLANTED_RUN = (f"from ruledsurf import sections; sections.volume = {KNOTS_SHIFTED}; "
               "from ruledsurf.__main__ import run; raise SystemExit(run())")


def knots_shifted():
    """The planted volume, to set in place of sections.volume."""
    return eval(KNOTS_SHIFTED, {"sections": sections})


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_refused(capsys, *argv):
    """Run argv and check the refusal every rejected input must end in:
    exit 2, nothing on stdout, and a short message of the CLI's own on
    stderr, with neither a traceback, Python's own refusal to convert a
    long integer nor a long number echoed back.  Returns stderr."""
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (EXIT_VALIDATION, "")
    assert len(err.encode()) < 1000
    assert "Traceback" not in err and "set_int_max_str_digits" not in err
    return err


def readme_commands():
    """Every `ruledsurf ...` command in the README's CLI code block, its
    backslash continuations joined, as an argv list without the program."""
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"^## CLI\n+```sh\n(.*?)^```", readme, re.S | re.M)
    assert block, "README.md has no ```sh block under '## CLI'"
    lines = block[1].replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("ruledsurf ")]
    assert commands, "README.md's CLI block has no ruledsurf command"
    return commands


def pytest_generate_tests(metafunc):
    if "readme_argv" in metafunc.fixturenames:
        commands = readme_commands()
        metafunc.parametrize("readme_argv", commands, ids=map(" ".join, commands))


def test_readme_example(capsys, tmp_path, readme_argv):
    # The README's CLI block is the one list of examples: each runs as
    # written, with --out in tmp_path and files read from the repository
    # root, and exits 0 (a scan exits 1 if any row disagrees).
    argv = [str(tmp_path / arg) if flag == "--out"
            else str(ROOT / arg) if (ROOT / arg).is_file() else arg
            for flag, arg in zip(["", *readme_argv], readme_argv)]
    code, _, err = run_cli(capsys, *argv)
    assert (code, err) == (EXIT_OK, "")


@pytest.fixture
def run_logged(capsys, monkeypatch):
    """run_cli, returning also a log of what the command costs, in counts
    that no host or Python version moves: log.sums, the class of each sum
    (an _intervals call) once per genus summed, in order; log.passes, those
    calls; log.prices, the (bundle, class) of each lattice_work call;
    log.priced_in_sum, whether a price came during a sum; log.units, the
    work _check_work is given; log.leaves, the calls of _series,
    _triangle_sum and _floor_sums; log.tables, of _truncated_power_divdiff;
    log.records, the NumClass, RuledSurface and Curve built (in __new__)."""
    intervals, work, check = sections._intervals, sections.lattice_work, sections._check_work
    log = None

    def tally(field, f):
        def counted(*args, **kwargs):
            vars(log)[field] += 1
            return f(*args, **kwargs)
        return counted

    def summing(degrees, cls, genera):
        log.sums += [cls] * len(genera)
        priced = len(log.prices)
        got = intervals(degrees, cls, genera)
        log.priced_in_sum |= len(log.prices) > priced
        return got

    def pricing(surface, cls):
        log.prices.append((surface.bundle, cls))
        return work(surface, cls)

    def checking(what, units):
        log.units += units
        return check(what, units)

    def run(*argv):
        nonlocal log
        log = SimpleNamespace(sums=[], prices=[], priced_in_sum=False, units=0, passes=0,
                              leaves=0, tables=0, NumClass=0, RuledSurface=0, Curve=0)
        code, out, err = run_cli(capsys, *argv)
        log.records = log.NumClass, log.RuledSurface, log.Curve
        return code, out, err, log

    monkeypatch.setattr(sections, "_intervals", tally("passes", summing))
    monkeypatch.setattr(sections, "lattice_work", pricing)
    monkeypatch.setattr(sections, "_check_work", checking)
    for name, field in [("_series", "leaves"), ("_triangle_sum", "leaves"),
                        ("_floor_sums", "leaves"), ("_truncated_power_divdiff", "tables")]:
        monkeypatch.setattr(sections, name, tally(field, getattr(sections, name)))
    for record in NumClass, RuledSurface, Curve:
        monkeypatch.setattr(record, "__new__", staticmethod(tally(record.__name__, record.__new__)))
    return run


def scenario_json(**overrides):
    """A scenario file's text: two fibers' budget over degrees (3, 0) on an
    elliptic curve, and seven blow-ups on its strict transform, each
    top-level field replaced by the one given."""
    doc = {
        "base": {"genus": 1, "characteristic": 0, "degrees": [3, 0]},
        "budget_class": {"a": 0, "b": 2},
        "steps": [{"on_strict_transform": True} for _ in range(7)],
    }
    doc.update(overrides)
    return json.dumps(doc).encode()


class TestClassify:
    def test_rank3_prints_nef_after_pseff(self, capsys):
        # -K = 3*xi + 0*f on P(O(2) + O + O) over P^1 is nef, with
        # vol = (3*xi)^3 = 27*deg E = 54.
        code, out, _ = run_cli(capsys, "classify", "--genus", "0", "--degrees", "2,0,0")
        assert code == EXIT_OK
        assert "big: true\npseff: true\nnef: true\nvolume: 54\n" in out

    def test_rank_128_small_degrees_print_volume(self, capsys):
        # Under the digit limit: 128 degrees below 100 in absolute value.
        degrees = ",".join(str(d) for d in random.Random(7).choices(range(-99, 100), k=128))
        code, out, err = run_cli(capsys, "classify", "--genus", "2", f"--degrees={degrees}")
        assert (code, err) == (EXIT_OK, "")
        assert "big: true" in out
        assert Fraction(out.split("volume: ")[1].split()[0]) > 0


class TestScan:
    def test_small_grid_agrees(self, capsys):
        code, out, _ = run_cli(
            capsys, "scan", "--genus-range", "1:2", "--d1-range", "0:4",
            "--d2-range", "0:0", "--m-max", "32",
        )
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        header = lines[0].split("\t")
        assert header == ["genus", "char", "d1", "d2", "a", "b", "big",
                          "verdict", "volume", "agree"]
        assert len(lines) == 1 + 2 * 5
        assert all(line.split("\t")[-1] == "true" for line in lines[1:])

    @pytest.mark.parametrize("argv, code, digest", [
        ((*SCAN_R2, "--m-max", "64"), EXIT_DISAGREE,
         "c31911b0f2002c55549d817a870fb904eb71d012cc587f97631502e47c06bde6"),
        ((*SCAN_R3, "--m-max", "64"), EXIT_OK,
         "f3671322ac0358c51837ae2dcef9d52a81ec9bbe7d417325b111d05db8ef4cdb"),
        (("scan", "--genus-range", "0:4", "--chars", "3,2,2,0", "--d1-range=-4:8",
          "--d2-range=-4:8", "--class=1,0", "--m-max", "64"), EXIT_OK,
         "9bbcbc442f5e56cc73932f1b46a1652ab02dd249592aafc0fe671fccc13a4022"),
        (("scan", "--genus-range", "0:9", "--chars", "3,2,2,0", "--d1-range=-4:8",
          "--d2-range=-4:8", "--m-max", "16"), EXIT_OK,
         "f0132c9b2e657df7fe87188aace403947dcbbe28f54ccfe326eee3afdde22399"),
        (("scan", "--genus-range", "0:3", "--chars", "2,0", "--d1-range=0:3", "--d2-range=-2:2",
          "--d3-range=-2:2", "--class=1,0", "--m-max", "32"), EXIT_OK,
         "99335d39f76197ab376d2b1a811539590f520da2cc1253914065f0095d305d98"),
        ((*SCAN_R2_MINUS_K, "--m-max", "64"), EXIT_OK,
         "588c60d781ad22af355def11cc97ab30eb61205ffdd413f5602c53afd452c8aa"),
    ], ids=["rank2", "rank3", "chars-one-block", "chars-minus-k", "chars-rank3",
            "rank2-minus-k"])
    def test_grid_tsv_pinned(self, capsys, argv, code, digest):
        # The TSV byte for byte, the order of its rows too: the
        # benchmark's two scan grids (scan-r2 has 105 INCONCLUSIVE rows, so
        # exit 1); three grids over several characteristics, a repeated one
        # scanned once: a fixed class in one block of 5 genera, -K in
        # blocks of one genus, each genus's rows written for its 3
        # characteristics, and a fixed class in rank 3; last, SCAN_R2 under -K.
        got, out, err = run_cli(capsys, *argv)
        assert (got, err) == (code, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_repeated_characteristic_scanned_once(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--genus-range", "1:1", "--chars", "2,2",
                               "--d1-range=1:1", "--d2-range=0:0")
        assert code == EXIT_OK
        assert out.splitlines()[1:] == ["1\t2\t1\t0\t2\t-1\ttrue\tBIG_CERTIFIED\t1\ttrue"]

    def test_unwritable_out(self, capsys):
        code, _, err = run_cli(
            capsys, "scan", "--genus-range", "1:1", "--d1-range", "1:1",
            "--d2-range", "0:0", "--out", "/nonexistent-dir/out.tsv",
        )
        assert code == EXIT_IO
        assert err == "error: [Errno 2] No such file or directory: '/nonexistent-dir/out.tsv'\n"

    def test_disagreement_sets_exit_code(self, capsys, monkeypatch):
        # Under the knots-shifted plant the two big rows read vol = 0 and
        # disagree: the exit code must follow each row's agree flag.
        monkeypatch.setattr(sections, "volume", knots_shifted())
        code, out, _ = run_cli(
            capsys, "scan", "--genus-range", "29:30", "--d1-range", "0:1",
            "--d2-range", "0:0", "--class", "1,0", "--m-max", "16",
        )
        assert code == EXIT_DISAGREE
        rows = out.splitlines()[1:]
        assert len(rows) == 4
        assert sum(row.endswith("\tfalse") for row in rows) == 2

    def test_zero_volume_on_big_class_disagrees(self, capsys, monkeypatch):
        # A volume that wrongly reads 0 on a big class must show up as a
        # disagreement with the slope test.
        monkeypatch.setattr("ruledsurf.sections.volume", lambda surface, cls: Fraction(0))
        code, out, _ = run_cli(
            capsys, "scan", "--genus-range", "1:1", "--d1-range", "1:1",
            "--d2-range", "0:0", "--m-max", "16",
        )
        assert code == EXIT_DISAGREE
        row = out.splitlines()[1].split("\t")
        assert row[6] == "true"  # big by the slope test
        assert row[-1] == "false"

    def test_disagreeing_scan_writes_out(self, tmp_path, monkeypatch):
        monkeypatch.setattr(sections, "volume", knots_shifted())
        out = tmp_path / "grid.tsv"
        code = main(["scan", "--genus-range", "29:30", "--d1-range", "0:1",
                     "--d2-range", "0:0", "--class", "1,0", "--m-max", "16",
                     "--out", str(out)])
        assert code == EXIT_DISAGREE
        assert len(out.read_text().splitlines()) == 1 + 4

    def test_inverted_interval_refused(self, capsys):
        # A lattice sum that returned lo > hi, in any rank, is caught by
        # H0Interval on every scan row, as on every h0 query: every rank
        # sums through the one recursion, _slice_intervals.
        scan = ("scan", "--genus-range", "1:1", "--d1-range", "1:1", "--d2-range", "0:0",
                "--m-max", "16")
        cases = [scan, (*scan, "--d3-range", "0:0"),
                 ("h0", "--genus", "1", "--degrees", "1,0,0,0", "--class", "2,0")]
        for argv in cases:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(sections, "_slice_intervals",
                           lambda gaps, base, left, genera: [(2, 1)] * len(genera))
                code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (EXIT_VALIDATION, "")
            assert err == "error: interval needs 0 <= lo <= hi\n"

    @staticmethod
    def assert_rows_match_classifier(out, m_max, ranks):
        # Every row's verdict and volume are growth_classify's at (m_max,)
        # on that row alone, its big flag the slope test's, and its agree
        # flag whether the verdict certifies that flag.
        rows = [line.split("\t") for line in out.splitlines()[1:]]
        assert rows
        for row in rows:
            g, p, *degs = map(int, row[:2 + ranks])
            a, b = map(int, row[2 + ranks:4 + ranks])
            surface = RuledSurface(Curve(g, p), SplitBundle(tuple(degs)))
            cls = NumClass(a, b)
            [(vol, [verdict], _)] = sections.growth_classify(
                "row", [(surface, cls, [g])], (m_max,))
            big = big_test(surface, cls)
            agree = verdict is (Verdict.BIG_CERTIFIED if big else Verdict.NOT_BIG_CERTIFIED)
            assert row[4 + ranks:] == [str(big).lower(), verdict.value, str(vol),
                                       str(agree).lower()]

    @pytest.mark.parametrize("argv, m_max, ranks", [
        (["--genus-range", "29:30", "--d1-range=-2:3", "--d2-range=-2:1", "--class", "1,0"], 16, 2),
        (["--genus-range", "0:2", "--chars", "0,2", "--d1-range=0:3", "--d2-range=-2:2",
          "--d3-range=-2:2"], 32, 3),
        # A fixed class: one group a bundle, each over 10 genera written
        # for 2 characteristics, the genus 7 to 9 rows INCONCLUSIVE and
        # the lower ones not.
        (["--genus-range", "0:9", "--chars", "0,2", "--d1-range=-2:3", "--d2-range=-2:1",
          "--class", "1,0"], 16, 2),
        # The same in rank 3, over 7 genera, INCONCLUSIVE at genus 6.
        (["--genus-range", "0:6", "--chars", "0,2", "--d1-range=0:3", "--d2-range=-2:2",
          "--d3-range=-2:2", "--class", "1,0"], 16, 3),
    ])
    def test_rows_follow_classifier(self, capsys, argv, m_max, ranks):
        code, out, _ = run_cli(capsys, "scan", *argv, "--m-max", str(m_max))
        assert code in (EXIT_OK, EXIT_DISAGREE)
        # With a fixed class the rows reach INCONCLUSIVE, the third branch
        # of the rule.
        assert "INCONCLUSIVE" in out or "--class" not in argv
        self.assert_rows_match_classifier(out, m_max, ranks)

    @given(st.integers(0, 12), st.integers(0, 4), st.integers(-3, 3), st.integers(0, 3),
           st.booleans(), st.one_of(st.none(), st.tuples(st.integers(-2, 3), st.integers(-6, 6))),
           st.integers(8, 40))
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_rows_follow_classifier_property(self, capsys, g, dg, d, dd, rank3, cls, m_max):
        argv = ["scan", f"--genus-range={g}:{g + dg}", f"--d1-range={d}:{d + dd}",
                f"--d2-range={d - dd}:{d}", "--m-max", str(m_max)]
        if rank3:
            argv.append(f"--d3-range={d - 2 * dd}:{d - dd}")
        if cls is not None:
            argv.append("--class={},{}".format(*cls))
        code, out, _ = run_cli(capsys, *argv)
        assert code in (EXIT_OK, EXIT_DISAGREE)
        self.assert_rows_match_classifier(out, m_max, 3 if rank3 else 2)

    @given(st.integers(0, 12), st.integers(0, 4), st.integers(-3, 3), st.integers(0, 3),
           st.booleans(), st.one_of(st.none(), st.tuples(st.integers(-2, 3), st.integers(-6, 6))),
           st.integers(-20, 20), st.integers(8, 40))
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_twisted_grid_gives_same_cells(self, capsys, g, dg, d, dd, rank3, cls, t, m_max):
        # P_C(E) = P_C(E (x) L): twisting every bundle by a line bundle of
        # degree t, and a fixed class (a, b) to (a, b - a*t), moves each
        # row's d_i by t and b by -a*t (as -K moves), and no other cell.
        def scan(t):
            argv = ["scan", f"--genus-range={g}:{g + dg}", f"--d1-range={d + t}:{d + dd + t}",
                    f"--d2-range={d - dd + t}:{d + t}", "--m-max", str(m_max)]
            if rank3:
                argv.append(f"--d3-range={d - 2 * dd + t}:{d - dd + t}")
            if cls is not None:
                argv.append(f"--class={cls[0]},{cls[1] - cls[0] * t}")
            code, out, err = run_cli(capsys, *argv)
            return code, err, [line.split("\t") for line in out.splitlines()]

        ranks = 3 if rank3 else 2
        code, err, rows = scan(0)
        assert code in (EXIT_OK, EXIT_DISAGREE)
        shifted = [[*row[:2], *(str(int(x) + t) for x in row[2:2 + ranks]), row[2 + ranks],
                    str(int(row[3 + ranks]) - int(row[2 + ranks]) * t), *row[4 + ranks:]]
                   for row in rows[1:]]
        assert scan(t) == (code, err, [rows[0], *shifted])

    def test_prices_each_row_once(self, run_logged):
        # lattice_work reads no curve: on each benchmark scan grid it is
        # called once for each (bundle, class) group, at m_max * cls, and
        # never during a sum.
        grids = [(SCAN_R2, EXIT_DISAGREE, 3731, 91), (SCAN_R3, EXIT_OK, 160, 160)]
        for argv, code, rows, groups in grids:
            got, out, _, log = run_logged(*argv, "--m-max", "64")
            fields = [line.split("\t") for line in out.splitlines()[1:]]
            pairs = {(SplitBundle(tuple(map(int, row[2:-6]))),
                      64 * NumClass(*map(int, row[-6:-4]))) for row in fields}
            assert (got, len(fields), log.priced_in_sum) == (code, rows, False)
            assert len(log.prices) == len(set(log.prices)) == groups
            assert set(log.prices) == pairs

    @pytest.mark.parametrize("argv, tables", [(SCAN_R2, 91), (SCAN_R3, 56)])
    def test_grid_builds_one_table_per_knot_set(self, run_logged, argv, tables):
        # The rows of the two benchmark scan grids share few knot sets
        # (a*d_i + b), and one scan builds the divided-difference table
        # once for each, as it sums each once: within the one
        # growth_classify call, with no state kept across calls.
        code, out, _, log = run_logged(*argv, "--m-max", "64")
        assert code in (EXIT_OK, EXIT_DISAGREE)
        assert len(out.splitlines()) in (1 + 3731, 1 + 160)
        assert log.tables == log.passes == tables


class TestBlowup:
    def test_long_chain_report_is_linear(self, capsys, tmp_path):
        n = 100_000
        argv, _ = with_scenario(tmp_path, ["blowup", "{path}"],
                                scenario_json(steps=[{"on_strict_transform": True}] * n))
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_OK
        # genus 1: K^2 = 8(1 - g) = 0 on the base, and each blow-up lowers it by one
        k_lines = [line for line in out.splitlines() if line.startswith("k_squared_step_")]
        assert k_lines == [f"k_squared_step_{i}: {-i}" for i in range(n + 1)]


class TestOut:
    @pytest.mark.parametrize("argv", [
        ["scan", "--genus-range", "2:1", "--d1-range", "0:1", "--d2-range", "0:1"],
        ["h0", "--genus", "1", "--degrees", "1,0", "--m-max", "3"],
    ])
    def test_rejected_input_keeps_existing_file(self, tmp_path, argv):
        out = tmp_path / "keep.txt"
        out.write_text("earlier results\n")
        assert main(argv + ["--out", str(out)]) == EXIT_VALIDATION
        assert out.read_text() == "earlier results\n"


TEN_DIGIT_DEGREES = ",".join(str(d) for d in random.Random(7).sample(range(10**9, 10**10), 128))


def _rank2_sums(g, m):
    """lo and hi summed over the degrees d = 0..m, for m even and above 2g:
    lo sums d - g + 1 over d >= g; hi sums floor(d/2) + 1, plus ceil(d/2) - g
    where that is positive (each value i > g of ceil(d/2) occurs twice)."""
    tri = lambda n: n * (n + 1) // 2
    return tri(m - g + 1), (m // 2) ** 2 + m + 1 + 2 * tri(m // 2 - g)


def _fibonacci_pair(bits):
    """Consecutive Fibonacci numbers F' < F, F the first of `bits` bits."""
    f, g = 1, 1
    while g.bit_length() < bits:
        f, g = g, f + g
    return f, g


OVER_WORK = "work units, above the limit of 6000000"
OVER_DIGITS = "the limit of 4300 decimal digits"

# 4,300 digits, the most the CLI reads or prints; -K on degrees (D, D)
# has b = -2D, one digit more.
D = 9 * 10**4299
# 4,301 digits, one too many
LONG = "1" + "0" * 4300

# A scenario file's text with the given digits as a degree, written out
# since json.dumps, like the CLI, refuses more than 4,300 of them.
SCENARIO_DEGREE = (b'{"base": {"genus": 1, "characteristic": 0, "degrees": [%s, 0]}, '
                   b'"budget_class": {"a": 0, "b": 1}, "steps": []}')


def too_long(what):
    return f"{what}: a number passes the limit of 4300 decimal digits\n"


def refused(name, argv, reason, scenario=None):
    """A row of REJECTED, with the test id `name`: argv, a phrase of its
    refusal, and the bytes of a scenario file, written to a path that argv
    and the reason name as {path}."""
    return pytest.param(argv, reason, scenario, id=name)


def with_scenario(tmp_path, argv, scenario):
    """argv with {path} naming a file of the scenario bytes in tmp_path,
    and that path."""
    path = tmp_path / "scenario.json"
    if scenario is not None:
        path.write_bytes(scenario)
    return [arg.format(path=path) for arg in argv], path


def accepted(name, command, lines, scenario=None):
    """A row of ACCEPTED: as refused(), with argv written as one command
    split at spaces, and the lines stdout holds, whole and in order."""
    return pytest.param(command.split(" "), lines, scenario, id=name)


# Inputs that must succeed, each with its test id and lines of its
# output: test_accepted_quickly checks that it exits 0 within 1 s with
# nothing on stderr and each line on stdout, whole and in order, and that
# --out writes the same bytes and nothing to stdout.
ACCEPTED = [
    # -K on the elliptic P(O(1) + O) is big, but meets the section of
    # degree 0 negatively
    accepted("classify-elliptic-minus-k", "classify --genus 1 --degrees 1,0",
             ["big: true", "nef: false", "volume: 1"]),
    accepted("classify-explicit-class", "classify --genus 1 --degrees 1,0 --class 1,0",
             ["big: true", "nef: true"]),
    accepted("classify-genus2-not-big", "classify --genus 2 --degrees 2,0",
             ["big: false", "volume: 0"]),
    accepted("classify-min-destabilizing-e", "classify --genus 2 --char 2 --degrees 1,0",
             ["min_destabilizing_e: 2"]),
    accepted("classify-large-prime-char",
             "classify --genus 2 --char 1000000000000000003 --degrees 1,0",
             ["min_destabilizing_e: 1"]),
    # the volume of (1, 0) on degrees (K, 0) is K, and the table's entry
    # D^2 = K^2 has 4,300 digits at K = 10^2150 - 1 (4,301 at 10^2150,
    # a REJECTED row)
    accepted("classify-table-entry-at-digit-limit",
             f"classify --genus 1 --class 1,0 --degrees {10**2150 - 1},0",
             [f"volume: {10**2150 - 1}"]),
    # knots (K, K), K = 2^4760 - 1 and 2^4760, whose table entries, K^2
    # at most, have 2,866 digits: one volume, 2K
    *(accepted(f"classify-knots-{k.bit_length()}-bits",
               f"classify --genus 1 --degrees=0,0 --class=1,{k}", [f"volume: {2 * k}"])
      for k in (2**4760 - 1, 2**4760)),
    # a scan row and classify agree on the same surface
    accepted("classify-single-point", "classify --genus 2 --degrees 5,0",
             ["big: true", "volume: 9/5"]),
    accepted("scan-single-point",
             "scan --genus-range 2:2 --d1-range 5:5 --d2-range 0:0 --m-max 32",
             ["2\t0\t5\t0\t2\t-7\ttrue\tBIG_CERTIFIED\t9/5\ttrue"]),
    accepted("scan-small-grid", "scan --genus-range 1:1 --d1-range=-1:2 --d2-range=-1:1 --m-max 16",
             ["genus\tchar\td1\td2\ta\tb\tbig\tverdict\tvolume\tagree",
              "1\t0\t-1\t-1\t2\t2\tfalse\tNOT_BIG_CERTIFIED\t0\ttrue"]),
    accepted("scan-rank3-header",
             "scan --genus-range 1:1 --d1-range 1:2 --d2-range 0:0 --d3-range 0:0 --m-max 16",
             ["genus\tchar\td1\td2\td3\ta\tb\tbig\tverdict\tvolume\tagree",
              "1\t0\t1\t0\t0\t3\t-1\ttrue\tBIG_CERTIFIED\t8\ttrue"]),
    # the 160-row rank-3 grid of acceptance criterion 2 at m = 64: every
    # row agrees
    accepted("scan-r3", " ".join([*SCAN_R3, "--m-max", "64"]),
             ["genus\tchar\td1\td2\td3\ta\tb\tbig\tverdict\tvolume\tagree",
              "1\t0\t0\t-2\t-2\t3\t4\ttrue\tBIG_CERTIFIED\t16\ttrue"]),
    # genus 1: K^2 = 8(1 - g) = 0 on the base, and each blow-up lowers it
    # by one
    accepted("blowup-certified", "blowup {path}",
             ["certified: true", "k_squared_step_0: 0", "k_squared_step_7: -7"], scenario_json()),
    accepted("blowup-first-step-off-transform", "blowup {path}",
             ["certified: false", "steps_on_strict_transform: false"],
             scenario_json(steps=[{"on_strict_transform": i > 0} for i in range(7)])),
    accepted("h0-elliptic-minus-k", "h0 --genus 1 --degrees 1,0", ["h0_lo: 1", "h0_hi: 2"]),
    # P^1 x P^1: the class xi has k in {(1,0),(0,1)}, two degree-0 points
    # on P^1, each with exactly one section
    accepted("h0-genus0-degree0-exact", "h0 --genus 0 --degrees 0,0 --class 1,0",
             ["h0_lo: 2", "h0_hi: 2"]),
    accepted("h0-growth-section", "h0 --genus 2 --degrees 5,0 --m-max 32",
             ["verdict: BIG_CERTIFIED", "sample_m_32: [950, 951]"]),
    # -K's ladders up to m = 64, each rung in order, in rank 2 and 3
    accepted("h0-rank2-ladder-64", "h0 --genus 2 --degrees 5,0 --m-max 64",
             ["sample_m_8: [65, 65]", "sample_m_16: [245, 245]", "sample_m_32: [950, 951]",
              "sample_m_64: [3744, 3745]"]),
    accepted("h0-rank3-ladder-64", "h0 --genus 2 --degrees 4,0,-2 --m-max 64",
             ["sample_m_8: [2178, 2189]", "sample_m_16: [15961, 15983]",
              "sample_m_32: [122034, 122077]", "sample_m_64: [954041, 954127]"]),
    # big (volume 1) but not yet confirmed by the counts up to m = 64:
    # never labelled NOT_BIG_CERTIFIED
    accepted("h0-high-genus-big-class-inconclusive",
             "h0 --genus 30 --degrees 1,0 --class 1,0 --m-max 64",
             ["volume: 1", "verdict: INCONCLUSIVE"]),
    # m*(3, -3) has one point of degree >= 0, k = (3m, 0, 0) of degree 0,
    # so every rung is [0, 1]
    accepted("h0-rank3-every-rung-0-1", "h0 --genus 2 --degrees 1,0,0 --m-max 100000000",
             ["h0_lo: 0", "h0_hi: 1", "verdict: NOT_BIG_CERTIFIED",
              *(f"sample_m_{m}: [0, 1]" for m in sections.ladder(10**8))]),
    # degrees d = 0..N, N = 10^9 = g, all in the Clifford band [0, 2g-2]:
    # only d = N has d-g+1 > 0, and hi sums floor(d/2)+1 = (N/2)^2 + N + 1
    accepted("h0-genus-1e9-band", "h0 --genus 1000000000 --degrees 1,0 --class 1000000000,0",
             ["h0_lo: 1", "h0_hi: {}".format((10**9 // 2) ** 2 + 10**9 + 1)]),
    # as the O(a^2) walk over its 8 million rank-2 progressions sums them
    accepted("h0-rank4-class-4000", "h0 --genus 2 --degrees 3,1,0,-2 --class 4000,0",
             ["h0_lo: 27060638312711", "h0_hi: 27060641517512"]),
    accepted("h0-genus-1e6-ladder-2-39",
             f"h0 --genus 1000000 --degrees 1,0 --class 1,0 --m-max {2**39}",
             ["h0_lo: 0", "h0_hi: 2", "verdict: BIG_CERTIFIED",
              "sample_m_{}: [{}, {}]".format(2**39, *_rank2_sums(10**6, 2**39))]),
    # genus 0, where lo = hi sums d + 1 over the 2,000,001 leaves
    accepted("h0-genus0-class-2000000",
             "h0 --genus 0 --degrees 1000000,500000,0 --class 2000000,0",
             ["class: (2000000, 0)", "h0_lo: 2000003000003000003000001",
              "h0_hi: 2000003000003000003000001", "volume: 12000000000000000000000000"]),
    # gap 10^6 at a = 1.9*10^6, hi summed too: each node is O(log), not
    # O(min(a, gap))
    accepted("h0-gap-1e6-class-1900000",
             "h0 --genus 5 --degrees 2000000,1000000,0 --class 1900000,-1000",
             ["class: (1900000, -1000)", "h0_lo: 3429505413189677138600000",
              "h0_hi: 3429505413189677138600000", "volume: 41153999978340000000000000001/2000"]),
    # 18 rungs up to m = 2^20; at genus 1 lo sums the degrees of the
    # slice, 5*10^6 * m * C(m+2, 2), and hi = lo + 1 for the one d = 0
    accepted("h0-rank3-ladder-2-20-genus1",
             "h0 --genus 1 --degrees 10000000,5000000,0 --class 1,0 --m-max 1048576",
             ["h0_lo: 15000000", "h0_hi: 15000001", "volume: 15000000", "verdict: BIG_CERTIFIED",
              *(f"sample_m_{m}: [{lo}, {lo + 1}]" for m in sections.ladder(2**20)
                for lo in [5 * 10**6 * m * comb(m + 2, 2)])]),
    # 18 rungs of a rank-3 ladder up to m = 2^20
    accepted("h0-rank3-ladder-2-20-genus2", "h0 --genus 2 --degrees 4,0,-2 --m-max 1048576",
             ["class: (3, -4)", "volume: 64/3", "verdict: BIG_CERTIFIED"]),
    # genus 0 again, at a = 1.3*10^6: lo = hi = C(a+2, 2)(1 + 5*10^5 a)
    # and the volume is a^3 deg E
    accepted("h0-genus0-class-1300000",
             "h0 --genus 0 --degrees 1000000,500000,0 --class 1300000,0",
             ["h0_lo: {}".format(comb(1300002, 2) * (1 + 5 * 10**5 * 1300000)),
              "h0_hi: {}".format(comb(1300002, 2) * (1 + 5 * 10**5 * 1300000)),
              "volume: {}".format(1300000**3 * 1500000)]),
    accepted("frobenius-pullback", "frobenius --genus 1 --char 2 --degrees 1,0 --e 2",
             ["pullback_degrees: 4,0", "min_destabilizing_e: 0"]),
    # p^e alone passes 4,300 digits, but every pulled-back degree is 0
    accepted("frobenius-zero-degrees-any-e", "frobenius --genus 1 --char 2 --degrees 0,0 --e 20000",
             ["pullback_degrees: 0,0"]),
    # 3^e * 2 first reaches 4,301 digits at e = 9012 (a REJECTED row)
    accepted("frobenius-e-at-digit-limit", "frobenius --genus 1 --char 3 --degrees 2,1 --e 9011",
             [f"pullback_degrees: {2 * 3**9011},{3**9011}"]),
]

# Every input that must only be refused, each with its test id and a
# phrase of its refusal: test_rejected_quickly checks that it exits 2
# within 1 s with nothing on stdout and a short stderr.  The first 34
# rows keep the ids argv0 to argv33 they were numbered by; a row is
# added at the end, under a name of its own.
REJECTED = [*(refused(f"argv{i}", argv, reason) for i, (argv, reason) in enumerate([
    # the class and each of its 15 rungs are under the limit, together
    # they are not
    (["h0", "--genus", "1", "--degrees", "3,1,0,-2", "--class", "1,0", "--m-max", "131072"],
     OVER_WORK),
    # 4,000-digit degrees: 18 times the 3,854,146 units of the same
    # slice with 10-digit ones
    (["h0", "--genus", "1", "--degrees", f"{10**4000},1,0,-{10**4000}", "--class", "20000,0"],
     OVER_WORK),
    # a rank-4 slice: 400,001 rank-3 nodes
    (["h0", "--genus", "2", "--degrees", "3,1,0,-2", "--class", "400000,0"], OVER_WORK),
    # a rank-3 slice whose a has 6,001 bits: its floor sums multiply
    # counts that long
    (["h0", "--genus", "1", "--degrees", f"{3 * 2**2000},{2**2001 + 1},0",
      "--class", f"{2**6000},0"], OVER_WORK),
    (["scan", "--genus-range", "0:1000000000", "--d1-range", "0:1", "--d2-range", "0:1"],
     "points before filtering, above the limit of 100000"),
    # every row's top rung is under the limit; the 13,824 rows together are not
    (["scan", *WIDE_GAP_SCAN], OVER_WORK),
    (["classify", "--genus", "2", "--degrees", ",".join(str(d) for d in range(600))],
     "rank 600 is above the limit of 128"),
    # the divided differences of 128 or 64 ten-digit degrees outgrow
    # the printable digits
    (["classify", "--genus", "2", "--degrees", TEN_DIGIT_DEGREES], OVER_DIGITS),
    (["classify", "--genus", "2", "--degrees", ",".join(TEN_DIGIT_DEGREES.split(",")[:64])],
     OVER_DIGITS),
    # 83,291,670 recursion calls on a rank-100 slice with a = 4
    (["h0", "--genus", "1", "--degrees", ",".join(str(d) for d in range(100, 0, -1)),
      "--class", "4,-400"], OVER_WORK),
    # a walk 1,199 frames deep, past the interpreter's recursion limit
    (["h0", "--genus", "1", "--degrees", ",".join(["0"] * 1200), "--class", "1,0"],
     "rank 1200 is above the limit of 128"),
    # the table's entry D^2 = 10^4400 has 4,401 digits, though the
    # volume 10^2200 has fewer
    (["classify", "--genus", "1", "--degrees", f"{10**2200},0", "--class", "1,0"],
     OVER_DIGITS),
    # the volume a^(r-1) * r * K has over 4,300 digits, though no entry
    # of the table over the knots (K, ..., K), K^r at most, has
    *((["classify", "--genus", "1", "--degrees=0,0", f"--class={10**2900},{k}"],
       OVER_DIGITS) for k in (2**4760 - 1, 2**4760)),
    *((["classify", "--genus", "1", "--degrees=0,0,0", f"--class={10**1900},{k}"],
       OVER_DIGITS) for k in (2**2379 - 1, 2**2379)),
    # more genera than len() of a range can count
    (["scan", "--genus-range", f"0:{10**20}", "--d1-range=0:1", "--d2-range=0:1"],
     "points before filtering, above the limit of 100000"),
    # a volume past 4,300 digits, refused before the lattice sums (about
    # 5 s of them on 2 vCPUs, under the work limit): degrees (F + F', F',
    # 0), F' < F consecutive Fibonacci numbers, F of 1,383 bits
    *((["h0", "--genus", "1000000000", "--degrees", f"{f + g},{f},0",
        "--class", f"{a},{-(a * (f + g) // 2)}"], OVER_DIGITS)
      for f, g in [_fibonacci_pair(1383)] for a in [2**6000 - 12345]),
    # a command-line number of 4,301 digits, refused by argparse
    (["classify", "--genus", "1" + "0" * 4300, "--degrees", "1,0"],
     "argument --genus: a number passes the limit of 4300 decimal digits"),
    (["classify", "--genus", "1", "--degrees", "1" + "0" * 4300 + ",0"],
     "argument --degrees: a number passes the limit of 4300 decimal digits"),
    # a value that starts with "-" needs the --class=-1,0 form
    (["classify", "--genus", "1", "--degrees", "1,0", "--class", "-1,0"],
     "argument --class: expected one argument"),
    # scan and h0 read --m-max by one type, and refuse a top rung below 8
    # in the same words
    (["scan", "--genus-range", "1:1", "--d1-range=1:1", "--d2-range=0:0", "--m-max", "7"],
     "ruledsurf scan: error: argument --m-max: must be at least 8\n"),
    (["h0", "--genus", "1", "--degrees", "1,0", "--m-max=-8"],
     "ruledsurf h0: error: argument --m-max: must be at least 8\n"),
    # m has 151 digits and the work 153: named by their length, not echoed
    (["h0", "--genus", "1", "--degrees", "3,1,0,-2", "--class", "1,0", "--m-max", str(10**150)],
     "error: class (1, 0) up to m = <151 digits>: the lattice sums need <153 digits> work "
     "units, above the limit of 6000000\n"),
    # malformed or out-of-range values, each refused in its own words
    (["classify", "--genus", "-1", "--degrees", "1,0"], "error: genus must be non-negative\n"),
    (["classify", "--genus", "1", "--degrees", "1,x"],
     "argument --degrees: expected a comma-separated list of integers, got '1,x'\n"),
    (["classify", "--genus", "1", "--char", "3317044064679887385961981", "--degrees", "1,0"],
     "characteristic must be below 3317044064679887385961981"),
    (["frobenius", "--genus", "1", "--degrees", "1,0", "--e", "1"],
     "error: Frobenius undefined in characteristic zero\n"),
    (["scan", "--genus-range", "1-2", "--d1-range", "0:1", "--d2-range", "0:0"],
     "argument --genus-range: expected an inclusive range lo:hi, got '1-2'\n"),
    (["scan", "--genus-range", "1:1", "--d1-range", "0:0", "--d2-range", "3:3"],
     "error: scan grid is empty"),
    # malformed tokens of over 3,000 characters, named by the length of
    # their long runs of digits or, failing those, by their own
    (["classify", "--genus", "1", "--degrees", "1,x" + "0" * 3000],
     "got '1,x<3000 digits>'\n"),
    (["scan", "--genus-range", "5:-" + "9" * 3000, "--d1-range=0:1", "--d2-range=0:1"],
     "argument --genus-range: empty range '5:-<3000 digits>'\n"),
    (["classify", "--genus", "1", "--degrees", "x" * 3000],
     "expected a comma-separated list of integers, got <3002 characters>\n"),
    # argparse's own refusals pass through the same rule
    (["classify", "--genus", "1", "--degrees", "1,0", "y" * 3000],
     "ruledsurf: error: unrecognized arguments: <3000 characters>\n"),
])),
    # the table's entry D^2 = K^2 has 4,301 digits at K = 10^2150, though
    # the volume K has fewer (K = 10^2150 - 1 is an ACCEPTED row)
    refused("classify-table-entry-past-digit-limit",
            ["classify", "--genus", "1", "--class", "1,0", "--degrees", f"{10**2150},0"],
            OVER_DIGITS),
    # 3^e * 2 first reaches 4,301 digits at e = 9012
    refused("frobenius-e-past-digit-limit",
            ["frobenius", "--genus", "1", "--char", "3", "--degrees", "2,1", "--e", "9012"],
            "e = 9012 makes the degrees p^e*d pass the limit of 4300 decimal digits"),
    # a command-line number of 4,301 digits in each option that reads a
    # number, refused by argparse by the option's name, not echoed back
    refused("token-classify-genus",
            ["classify", f"--genus={LONG}", "--char=0", "--degrees=1,0", "--class=1,0"],
            too_long("argument --genus")),
    refused("token-classify-char",
            ["classify", "--genus=1", f"--char={LONG}", "--degrees=1,0", "--class=1,0"],
            too_long("argument --char")),
    refused("token-classify-degrees",
            ["classify", "--genus=1", "--char=0", f"--degrees={LONG}", "--class=1,0"],
            too_long("argument --degrees")),
    refused("token-classify-class",
            ["classify", "--genus=1", "--char=0", "--degrees=1,0", f"--class={LONG}"],
            too_long("argument --class")),
    refused("token-scan-chars",
            ["scan", "--genus-range=1:1", f"--chars={LONG}", "--d1-range=0:1", "--d2-range=0:0"],
            too_long("argument --chars")),
    refused("token-scan-genus-range",
            ["scan", f"--genus-range=0:{LONG}", "--chars=0", "--d1-range=0:1", "--d2-range=0:0"],
            too_long("argument --genus-range")),
    refused("token-scan-d1-range",
            ["scan", "--genus-range=1:1", "--chars=0", f"--d1-range=0:{LONG}", "--d2-range=0:0"],
            too_long("argument --d1-range")),
    refused("token-h0-m-max", ["h0", "--genus=1", "--degrees=1,0", f"--m-max={LONG}"],
            too_long("argument --m-max")),
    refused("token-frobenius-e",
            ["frobenius", "--genus=1", "--char=3", "--degrees=2,1", f"--e={LONG}"],
            too_long("argument --e")),
    # h0's counts at the top rung m = 10^1500 or 10^2200 have more than
    # 4,300 digits, too many to print, though the lattice sums are under
    # the work limit: refused once the top rung is summed, before the
    # thousands of rungs below it (summing them first takes seconds)
    refused("h0-counts-digits-r3", ["h0", "--genus", "1", "--degrees", "1,0,0", "--class", "1,0",
                                    "--m-max", str(10**1500)], too_long("error: h0")),
    refused("h0-counts-digits-r2", ["h0", "--genus", "1", "--degrees", "1,0", "--class", "1,0",
                                    "--m-max", str(10**2200)], too_long("error: h0")),
    # -K on degrees (D, D), of 4,301 digits, worded by main
    refused("classify-default-class-digits", ["classify", "--genus", "1", "--degrees", f"{D},{D}"],
            too_long("error: classify")),
    refused("h0-default-class-digits", ["h0", "--genus", "1", "--degrees", f"{D},{D}"],
            too_long("error: h0")),
    refused("scan-default-class-digits",
            ["scan", "--genus-range", "1:1", f"--d1-range={D}:{D}", f"--d2-range={D}:{D}"],
            too_long("error: scan")),
    *(refused(f"classify-class-{name}", ["classify", "--genus", "1", "--degrees", "1,0",
                                         "--class", cls],
              f"argument --class: expected two integers a,b, got '{cls}'\n")
      for name, cls in [("malformed", "1,x"), ("three-numbers", "1,2,3")]),
    # a number is ASCII digits with an optional sign: int() alone would
    # read other scripts' digits and underscores
    refused("genus-arabic-indic-digit", ["classify", "--genus=٣", "--degrees=1,0"],
            "argument --genus: expected an integer, got '٣'\n"),
    refused("degrees-underscore", ["classify", "--genus=1", "--degrees=1_0,0"],
            "argument --degrees: expected a comma-separated list of integers, got '1_0,0'\n"),
    refused("class-arabic-indic-digit", ["classify", "--genus=1", "--degrees=1,0", "--class=1,٠"],
            "argument --class: expected two integers a,b, got '1,٠'\n"),
    refused("genus-range-arabic-indic-digit",
            ["scan", "--genus-range=0:٢", "--d1-range=0:1", "--d2-range=0:0"],
            "argument --genus-range: expected an inclusive range lo:hi, got '0:٢'\n"),
    # 50,001 genera of one characteristic are under the grid cap; counted
    # twice they would pass it.  The grid is then refused as empty.
    refused("scan-chars-repeated-under-cap", ["scan", "--genus-range", "0:50000", "--chars",
                                              "0,0", "--d1-range=0:0", "--d2-range=1:1"],
            "error: scan grid is empty (degree ranges never satisfy d1 >= d2)\n"),
    # the refusal names the ranges given: d3 in rank 3 only
    refused("scan-grid-empty-rank3", ["scan", "--genus-range", "1:1", "--d1-range=0:0",
                                      "--d2-range=0:0", "--d3-range=1:1"],
            "error: scan grid is empty (degree ranges never satisfy d1 >= d2 >= d3)\n"),
    # scenario files: malformed, mistyped or refused by the records
    refused("blowup-missing-field", ["blowup", "{path}"],
            "error: scenario.budget_class.b: required field missing\n",
            scenario_json(budget_class={"a": 0})),
    refused("blowup-wrong-type", ["blowup", "{path}"],
            "error: scenario.steps[0].on_strict_transform: expected a boolean\n",
            scenario_json(steps=[{"on_strict_transform": "yes"}])),
    refused("blowup-not-object", ["blowup", "{path}"], "error: scenario: expected a JSON object\n",
            b"[]"),
    refused("blowup-degree-not-integer", ["blowup", "{path}"],
            "error: scenario.base.degrees: expected a list of integers\n",
            scenario_json(base={"genus": 1, "characteristic": 0, "degrees": [3, 0.5]})),
    refused("blowup-step-not-object", ["blowup", "{path}"],
            "error: scenario.steps[0]: expected an object\n", scenario_json(steps=[True])),
    refused("blowup-budget-not-pseff", ["blowup", "{path}"],
            "error: budget class is not pseudoeffective on the base\n",
            scenario_json(budget_class={"a": -1, "b": 0})),
    refused("blowup-rank3-base", ["blowup", "{path}"],
            "error: blow-ups supported over rank-2 bases only\n",
            scenario_json(base={"genus": 1, "characteristic": 0, "degrees": [3, 0, 0]})),
    # not JSON: malformed, nested past json's recursion (RecursionError,
    # not JSONDecodeError), or not UTF-8
    refused("blowup-invalid-json", ["blowup", "{path}"], "error: {path}: not valid JSON (",
            b"{not json"),
    refused("blowup-nested-json", ["blowup", "{path}"], "error: {path}: not valid JSON (",
            b"[" * 100000 + b"]" * 100000),
    refused("blowup-not-utf8", ["blowup", "{path}"],
            "error: {path}: not valid JSON ('utf-8' codec can't decode byte 0xff in position 0: "
            "invalid start byte)\n", b"\xff\xfe{}"),
    # a degree of 4,301 digits, and one whose big part -K - (0, 1) =
    # (2, -10^4300) would have as many
    refused("blowup-degree-digits", ["blowup", "{path}"], too_long("error: blowup"),
            SCENARIO_DEGREE % LONG.encode()),
    refused("blowup-big-part-digits", ["blowup", "{path}"], too_long("error: blowup"),
            SCENARIO_DEGREE % (b"9" * 4300)),
]

# The argv of each ACCEPTED row, by its test id.
ARGV = {row.id: row.values[0] for row in ACCEPTED}


def over_limit(what, units):
    """The refusal of a command, named `what`, whose sums need `units` work units."""
    return f"error: {what}: the lattice sums need {units} work units, above the limit of 6000000\n"


# What a command costs, in run_logged's counts (prices is len(log.prices)).
# A row may add rows, a scan's TSV rows; sums; or error, what a refusal by
# price names, its stderr being over_limit(error, units).  A change to the
# work re-pins these, and says by how much.
Cost = namedtuple("Cost", "id argv code units passes leaves tables prices records rows sums error",
                  defaults=(None, None, None))
TOP_RUNG = "scan --genus-range 1:2 --d1-range 0:4 --d2-range 0:0 --m-max 64".split()
# TOP_RUNG's sums, 64 * (-K) = 64 * (r, 2 - 2g - d1) per (genus, bundle), no lower rung.
TOPS = {r: [64 * NumClass(r, 2 - 2 * g - d1) for g in (1, 2) for d1 in range(5)] for r in (2, 3)}

COSTS = [
    # The benchmark's scan grids: a scan sums, and builds one table, once
    # per twist class (a, knots a*d_i + b, genera), and prices each group.
    Cost("scan-r2", (*SCAN_R2, "--m-max", "64"), EXIT_DISAGREE,
         14924, 91, 7565, 91, 91, (183, 91, 2), 3731),
    Cost("scan-r3", (*SCAN_R3, "--m-max", "64"), EXIT_OK,
         4480, 56, 852, 56, 160, (536, 160, 3), 160),
    Cost("scan-r2-minus-k", (*SCAN_R2_MINUS_K, "--m-max", "64"), EXIT_OK,
         14924, 533, 729, 533, 3731, (11726, 3731, 42), 3731),
    Cost("scan-rank2-top-rung", TOP_RUNG, EXIT_OK, 40, 10, 42, 10, 10, (40, 10, 3), 10, TOPS[2]),
    Cost("scan-rank3-top-rung", (*TOP_RUNG, "--d3-range", "0:0"), EXIT_OK,
         130, 10, 82, 10, 10, (40, 10, 3), 10, TOPS[3]),
    Cost("scan-chars-top-rung", (*TOP_RUNG, "--chars", "0,2,3"), EXIT_OK,
         40, 10, 42, 10, 10, (40, 10, 5), 30, TOPS[2]),
    # h0 in rank 2, 3 and 4; up to m = 64, the top rung is summed first,
    # then the class itself and each rung below it.
    Cost("h0-rank2", ARGV["h0-growth-section"], EXIT_OK, 16, 4, 20, 1, 4, (10, 1, 1)),
    Cost("h0-rank3", ARGV["h0-rank3-every-rung-0-1"], EXIT_OK, 325, 25, 225, 1, 25, (52, 1, 1)),
    Cost("h0-rank4", ARGV["h0-rank4-class-4000"], EXIT_OK, 147840, 1, 31210, 1, 1, (3, 1, 1)),
    Cost("h0-rank2-ladder-64", ARGV["h0-rank2-ladder-64"], EXIT_OK, 20, 5, 25, 1, 5,
         (12, 1, 1), sums=[m * NumClass(2, -7) for m in (64, 1, 8, 16, 32)]),
    Cost("h0-rank3-ladder-64", ARGV["h0-rank3-ladder-64"], EXIT_OK, 161, 5, 82, 1, 5,
         (12, 1, 1), sums=[m * NumClass(3, -4) for m in (64, 1, 8, 16, 32)]),
    # Refused before any sum, priced all together (one genus once for all
    # its characteristics), though each of WIDE_GAP_SCAN's rows is under the limit.
    Cost("over-limit-rank3-scan", ("scan", *WIDE_GAP_SCAN), EXIT_VALIDATION, 6815232, 0, 0, 0,
         13824, (41472, 13824, 2), error="scan of 13824 rows up to m = 1099511627776"),
    Cost("over-limit-rank3-scan-chars", ("scan", *WIDE_GAP_SCAN, "--chars", "0,2"),
         EXIT_VALIDATION, 6815232, 0, 0, 0, 13824, (41472, 13824, 3),
         error="scan of 27648 rows up to m = 1099511627776"),
    Cost("over-limit-rank2-scan", (*SCAN_R2, "--m-max", str(10**4000)), EXIT_VALIDATION,
         6775004, 0, 0, 0, 91, (92, 91, 2), error="scan of 3731 rows up to m = <4001 digits>"),
    # The class (739,840 units) and its one rung m = 8 (5,919,840).
    Cost("over-limit-rank4-ladder",
         "h0 --genus 2 --degrees 3,1,0,-2 --class 20000,0 --m-max 8".split(), EXIT_VALIDATION,
         6659680, 0, 0, 0, 2, (3, 1, 1), error="class (20000, 0) up to m = 8"),
    Cost("over-limit-rank2-ladder",
         f"h0 --genus 1 --degrees 1,0 --class 1,0 --m-max {10**4000}".split(), EXIT_VALIDATION,
         8290068, 0, 0, 0, 13286, (13287, 1, 1), error="class (1, 0) up to m = <4001 digits>"),
]


# The one peak-RSS ceiling, in KiB, on the largest accepted inputs known:
# a measurement of those inputs, not a bound on every input.
ACCEPTED_PEAK_KIB = 200 * 1024


def spawn_peak(argv):
    """main(argv) in one fresh child, waited for: its exit code, stdout bytes,
    stderr, and its own peak RSS (ru_maxrss, in KiB on Linux), printed last
    to stderr once stdout is flushed."""
    child = ("import resource, sys; from ruledsurf.cli import main; code = main(sys.argv[1:]); "
             "sys.stdout.flush(); print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, "
             "file=sys.stderr); raise SystemExit(code)")
    proc = subprocess.run([sys.executable, "-c", child, *argv], capture_output=True,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), timeout=60)
    *err, peak = proc.stderr.decode().splitlines(keepends=True)
    return proc.returncode, proc.stdout, "".join(err), int(peak)


class TestWorkBounds:
    @pytest.mark.parametrize("argv, what, units", [
        # 10^5 rows of -K, each a pair of 4,300-digit integers at m_max.
        (("scan", "--genus-range", "0:99999", "--d1-range=1:1", "--d2-range=0:0",
          "--m-max", str(10**4298)), "scan of 100000 rows up to m = <4299 digits>", 211589536),
        # 50,086 bundles of a 4,300-digit fixed class.
        (("scan", "--genus-range", "0:0", "--d1-range=0:315", "--d2-range=0:315",
          f"--class={10**4299},0", "--m-max", "8"), "scan of 50086 rows up to m = 8", 105979844),
    ], ids=["minus-k-100000-rows", "class-4300-digits-50086-rows"])
    def test_refusal_by_price_peak_memory(self, argv, what, units):
        # A refusal by price comes before any class is scaled by m, so a
        # refused scan holds its grid's rows and not their scaled classes:
        # under 100 MB of peak RSS in a fresh process, where building the
        # scaled classes first took 449 MB and 135 MB.
        code, out, err, peak = spawn_peak(argv)
        assert (code, out, err) == (EXIT_VALIDATION, b"", over_limit(what, units))
        assert peak < 100 * 1024

    def test_largest_ladder_peak_memory(self):
        # The largest accepted h0 ladder known, 6,974 rungs up to m = 10^2100,
        # read through a pipe: 140 MB of peak RSS measured.
        code, out, err, peak = spawn_peak(
            f"h0 --genus 1 --degrees 1,0 --class 1,0 --m-max {10**2100}".split())
        assert (code, len(out), err) == (EXIT_OK, 36751645, "")
        assert peak < ACCEPTED_PEAK_KIB

    def test_largest_minus_k_scan_peak_memory(self):
        # The heaviest accepted -K scan known, 10^5 rows at m = 10^100:
        # 170-176 MB of peak RSS measured.
        code, out, err, peak = spawn_peak(["scan", "--genus-range", "0:99999", "--d1-range=1:1",
                                           "--d2-range=0:0", "--m-max", str(10**100)])
        assert (code, len(out), err) == (EXIT_OK, 5233365, "")
        assert peak < ACCEPTED_PEAK_KIB

    @pytest.mark.parametrize("argv, passes, leaves", [
        ((*SCAN_R2, "--m-max", "64"), 91, 7565),
        ((*SCAN_R3, "--m-max", "64"), 56, 852),
    ], ids=["scan-r2", "scan-r3"])
    def test_pinned_sums_and_leaf_calls(self, run_logged, argv, passes, leaves):
        # The benchmark's scan grids sum each twist class once, in one pass
        # over its genera: scan-r3's 160 groups are 56 classes, scan-r2's
        # 91 groups 91.  COSTS pins the same two counts with the rest of
        # what each command costs.
        code, _, err, log = run_logged(*argv)
        assert (code in (EXIT_OK, EXIT_DISAGREE), err) == (True, "")
        assert (log.passes, log.leaves) == (passes, leaves)

    @pytest.mark.parametrize("row", COSTS, ids=lambda row: row.id)
    def test_costs_pinned(self, run_logged, row):
        code, out, err, log = run_logged(*row.argv)
        assert (code, log.units, log.passes, log.leaves, log.tables, len(log.prices),
                log.records) == row[2:9]
        # Every price comes before any sum, once for each (bundle, class).
        assert (log.priced_in_sum, len(set(log.prices))) == (False, len(log.prices))
        assert row.sums in (None, log.sums)
        if code == EXIT_VALIDATION:
            assert (out, log.sums, err) == ("", [], over_limit(row.error, row.units))
            return
        assert (err, row.error) == ("", None)
        if row.argv[0] == "scan":
            # The (bundle, m_max * cls) of the prices are those its rows read back.
            m_max = int(row.argv[row.argv.index("--m-max") + 1])
            fields = [line.split("\t") for line in out.splitlines()[1:]]
            assert len(fields) == row.rows
            assert set(log.prices) == {(SplitBundle(tuple(map(int, f[2:-6]))),
                                        m_max * NumClass(*map(int, f[-6:-4]))) for f in fields}

    @pytest.mark.parametrize("argv, lines, scenario", ACCEPTED)
    def test_accepted_quickly(self, capsys, tmp_path, argv, lines, scenario):
        # Each h0 query is fast only because its walk is in closed form: no
        # loop over k_1, over the band degrees or over a rank-3 node's rows.
        # The 1 s bound is a loose check of that, far above the query's
        # time, not a timing.
        argv, _ = with_scenario(tmp_path, argv, scenario)
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert (code, err) == (EXIT_OK, "")
        rest = iter(out.splitlines())
        assert [line for line in lines if line not in rest] == []
        path = tmp_path / "out.txt"
        assert run_cli(capsys, *argv, "--out", str(path)) == (EXIT_OK, "", "")
        assert path.read_bytes() == out.encode()

    def test_rank3_huge_class_is_fast(self, capsys):
        # A rank-3 node is O(log) by floor sums: 37 work units at a = 10^12.
        # The 0.1 s bound checks that loosely; it is not a timing.
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "h0", "--genus", "2", "--degrees", "4,0,-2",
                               "--class", "1000000000000,-5")
        assert time.perf_counter() - start < 0.1
        assert code == EXIT_OK
        assert int(out.split("h0_lo: ")[1].split()[0]) > 0

    @pytest.mark.parametrize("argv, reason, scenario", REJECTED)
    def test_rejected_quickly(self, capsys, tmp_path, argv, reason, scenario):
        argv, path = with_scenario(tmp_path, argv, scenario)
        start = time.perf_counter()
        err = run_refused(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert reason.format(path=path) in err


class TestDigitLimit:
    def test_limit_is_not_taken_from_environment(self):
        # A lower PYTHONINTMAXSTRDIGITS neither refuses a 701-digit degree
        # nor its volume.
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONINTMAXSTRDIGITS="640")
        big = "1" + "0" * 700
        proc = subprocess.run([sys.executable, "-m", "ruledsurf", "classify", "--genus", "1",
                               "--degrees", f"{big},0"],
                              env=env, capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
        assert f"volume: {big}\n" in proc.stdout


@pytest.mark.parametrize("argv, code, planted", [
    (["classify", "--genus", "2", "--char", "2", "--degrees", "1,0"], EXIT_OK, False),
    (["scan", "--genus-range", "29:30", "--d1-range", "0:1", "--d2-range", "0:0",
      "--class", "1,0", "--m-max", "16"], EXIT_DISAGREE, True),
    (["classify", "--genus", "-1", "--degrees", "1,0"], EXIT_VALIDATION, False),
    (["classify", "--genus", "1", "--degrees", "1,0", "--out", "{tmp}/missing/out.txt"],
     EXIT_IO, False),
], ids=["classify", "disagreeing-scan", "refused", "unwritable-out"])
def test_entry_point_matches_main(capsys, monkeypatch, tmp_path, argv, code, planted):
    # `python -m ruledsurf` (the console script's code too) freezes the
    # start-up heap and then runs main(): the same exit code, stdout and
    # stderr as main() called in this process.  The disagreeing scan runs
    # under the knots-shifted plant on both sides, spawned through run().
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    entry = ["-c", PLANTED_RUN] if planted else ["-m", "ruledsurf"]
    proc = subprocess.run([sys.executable, *entry, *argv],
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                          capture_output=True, text=True, timeout=60)
    if planted:
        monkeypatch.setattr(sections, "volume", knots_shifted())
    assert (proc.returncode, proc.stdout, proc.stderr) == run_cli(capsys, *argv)
    assert proc.returncode == code


CLASSIFY = ("classify", "--genus", "1", "--degrees", "1,0")


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_closed_stdout_ends_quietly(capsys, tmp_path, unbuffered):
    # A reader that closes stdout early ends the command with its own exit
    # code and nothing on stderr, at interpreter exit too.  The scan-r2
    # TSV under the knots-shifted plant (more than a pipe holds) fails in
    # main's print after one line is read; classify's few lines, into a
    # pipe closed before the start, fail in main's print, which flushes.
    # With fd 1 closed at start-up sys.stdout is None: nothing fails, and
    # --out is written.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONUNBUFFERED=unbuffered)
    command = [sys.executable, "-m", "ruledsurf"]
    with subprocess.Popen([sys.executable, "-c", PLANTED_RUN, *SCAN_R2, "--m-max", "64"], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == b"genus\tchar\td1\td2\ta\tb\tbig\tverdict\tvolume\tagree\n"
        proc.stdout.close()
        assert (proc.stderr.read(), proc.wait(timeout=60)) == (b"", EXIT_DISAGREE)
    read_end, write_end = os.pipe()
    os.close(read_end)
    proc = subprocess.run([*command, *CLASSIFY], env=env,
                          stdout=write_end, stderr=subprocess.PIPE, timeout=60)
    os.close(write_end)
    assert (proc.returncode, proc.stderr) == (EXIT_OK, b"")
    out = tmp_path / "out.txt"
    closed = ["sh", "-c", 'exec "$0" "$@" >&-', *command, *CLASSIFY]
    for argv in closed, [*closed, "--out", str(out)]:
        proc = subprocess.run(argv, env=env, stderr=subprocess.PIPE, timeout=60)
        assert (proc.returncode, proc.stderr) == (EXIT_OK, b"")
    assert out.read_text() == run_cli(capsys, *CLASSIFY)[1]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_full_stdout_exits_3(unbuffered):
    # A stdout the OS cannot write, a full device, fails the command with
    # exit 3 and one error line, whether the write fails within main's
    # print (scan-r2's TSV, or unbuffered) or in the flush that ends it.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONUNBUFFERED=unbuffered)
    for argv in CLASSIFY, (*SCAN_R2, "--m-max", "64"):
        with open("/dev/full", "wb") as full:
            proc = subprocess.run([sys.executable, "-m", "ruledsurf", *argv], env=env,
                                  stdout=full, stderr=subprocess.PIPE, timeout=60)
        assert (proc.returncode, proc.stderr) == (
            EXIT_IO, b"error: [Errno 28] No space left on device\n")


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("stderr", ["2>/dev/full", "2>&-"], ids=["full", "closed"])
def test_dead_stderr_changes_nothing(capsys, tmp_path, stderr, unbuffered):
    # A stderr the OS cannot write, or closed at start-up (sys.stderr is
    # None), loses the refusal's lines and nothing else: the refusal keeps
    # its exit code and stdout stays empty, as a success keeps exit 0 and
    # its stdout.  The interpreter runs directly: a wrapper script in front
    # of it could itself hold fd 2 open.
    if stderr == "2>/dev/full" and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONUNBUFFERED=unbuffered)
    command = ["sh", "-c", f'exec "$0" "$@" {stderr}', sys.executable, "-m", "ruledsurf"]
    for argv, code, out in [
        (("classify", "--genus", "-1", "--degrees", "1,0"), EXIT_VALIDATION, ""),
        ((*CLASSIFY, "--out", str(tmp_path / "missing" / "out.txt")), EXIT_IO, ""),
        (("classify", "--genus", "x", "--degrees", "1,0"), EXIT_VALIDATION, ""),
        (CLASSIFY, EXIT_OK, run_cli(capsys, *CLASSIFY)[1]),
    ]:
        proc = subprocess.run([*command, *argv], env=env, stdout=subprocess.PIPE,
                              text=True, timeout=60)
        assert (proc.returncode, proc.stdout) == (code, out), argv


def test_startup_loads_no_heavy_module():
    # A one-shot command is mostly start-up: importing the CLI loads
    # neither dataclasses (with inspect) nor typing, and json only once
    # blowup reads a scenario.  -S keeps site from loading typing itself.
    probe = ("import sys, ruledsurf.cli; "
             "print(sorted({'dataclasses', 'inspect', 'typing', 'json'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", probe],
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


# ------------------------------------------------------------------ argv fuzz

_JUNK = st.sampled_from(["", "x", "1.5", "1,0", "-", "3:1", " 2", "1e3", "5",
                         "1,,2", "0x10", "٣", "1_0", str(10**30)])


def _token(good):
    """Mostly well-formed values, one time in sixteen a malformed one."""
    # Hypothesis favours the ends of an integer range, so the malformed
    # branch sits in the middle.
    return st.integers(0, 15).flatmap(lambda i: _JUNK if i == 8 else good)


def _entry(lo, hi):
    """Small integers, one time in sixteen +-D, at the digit limit."""
    return st.integers(0, 15).flatmap(
        lambda i: st.sampled_from([D, -D]) if i == 8 else st.integers(lo, hi))


def _range(lo, hi):
    """lo:hi ranges, now and then an empty one."""
    return st.tuples(st.integers(lo, hi), st.integers(-1, 2)).map(
        lambda r: f"{r[0]}:{r[0] + r[1]}")


_TOKENS = {
    "--genus": _token(st.integers(-1, 45).map(str)),
    "--char": _token(st.sampled_from(["0", "2", "3", "5", "7919", "4", "561"])),
    "--degrees": _token(st.lists(_entry(-4, 8), min_size=2, max_size=4)
                        .map(lambda ds: ",".join(map(str, ds)))),
    "--class": _token(st.tuples(_entry(-3, 6), _entry(-12, 12))
                      .map(lambda c: f"{c[0]},{c[1]}")),
    "--m-max": _token(st.sampled_from(["8", "16", "7"])),
    "--e": _token(st.integers(-1, 5).map(str)),
    "--chars": _token(st.sampled_from(["0", "2,3", "5,5", "0,4"])),
    "--genus-range": _token(_range(-1, 3)),
    "--d1-range": _token(_range(-2, 2)),
    "--d2-range": _token(_range(-2, 2)),
    "--d3-range": _token(_range(-2, 2)),
}
_FLAGS = {
    "classify": ["--genus", "--char", "--degrees", "--class"],
    "scan": ["--genus-range", "--chars", "--d1-range", "--d2-range", "--d3-range",
             "--class", "--m-max"],
    "blowup": [],
    "h0": ["--genus", "--char", "--degrees", "--class", "--m-max"],
    "frobenius": ["--genus", "--char", "--degrees", "--e"],
}


@st.composite
def _argv(draw, tmp: Path):
    command = draw(st.sampled_from([*_FLAGS, "nosuch"]))
    argv = [command]
    for flag in _FLAGS.get(command, []):
        if draw(st.integers(0, 19)) != 10:  # mostly present, sometimes missing
            argv.append(f"{flag}={draw(_TOKENS[flag])}")
    if command == "blowup":
        argv.append(draw(st.sampled_from([
            str(SCENARIOS / "fibers_deg3_elliptic.json"), str(tmp / "broken.json"),
            str(tmp / "missing.json"), str(tmp)])))
    out = draw(st.sampled_from([None, tmp / "out.txt", tmp / "no" / "out.txt", tmp]))
    if out is not None:
        argv.append(f"--out={out}")
    return argv


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("fuzz")
    (tmp / "broken.json").write_text('{"base": ')
    return tmp


@given(data=st.data())
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_argv_fuzz_exits_cleanly(fuzz_dir, capsys, data):
    # Small inputs only: every call must return a documented exit code
    # and raise nothing (a traceback fails the test), and a non-ASCII
    # digit or an underscore in a number is refused.  The 1 s bound is a
    # loose check that small inputs take closed-form work, not a timing.
    argv = data.draw(_argv(fuzz_dir))
    start = time.perf_counter()
    code = main(argv)
    assert time.perf_counter() - start < 1.0
    assert code in (EXIT_OK, EXIT_DISAGREE, EXIT_VALIDATION, EXIT_IO)
    if any(arg.partition("=")[2] in ("٣", "1_0") for arg in argv):
        assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert len(err) < 2000
    assert "set_int_max_str_digits" not in err
    # argparse's fallback when a type= raises a plain ValueError, as
    # type=int does: every number is read by one type of the CLI's own.
    assert not re.search(r"invalid \w+ value", err)
