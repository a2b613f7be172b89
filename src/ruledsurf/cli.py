"""Command-line front end.

Subcommands: classify | scan | blowup | h0 | frobenius.  Exit codes:
0 success / agreement, 1 oracle disagreement, 2 validation failure
(a request over a work limit included), 3 file I/O failure (reading a
scenario file, or writing --out or stdout).  A reader that closes stdout
early fails nothing: the command ends quietly with its own exit code.
Refusals are written to stderr alone; a stderr that cannot be written,
or is closed, loses them and changes neither the exit code nor stdout.
"""
from __future__ import annotations

import argparse
import itertools
import math
import re
import sys
from collections.abc import Sequence
from fractions import Fraction

from .blowups import BlownUpSurface, BlowupScenario, certify_big_anticanonical, check_class
from .bundles import (MAX_DIGITS, Curve, SplitBundle, frobenius_pullback, hn_data, is_int,
                      min_destabilizing_e)
from .sections import TOO_LONG, Verdict, growth_classify, ladder, volume
from .surfaces import NumClass, RuledSurface, big_test, canonical_class, nef_test, pseff_test

EXIT_OK = 0
EXIT_DISAGREE = 1
EXIT_VALIDATION = 2
EXIT_IO = 3

# Most grid points (genera x characteristics x degree ranges, before the
# non-increasing filter over the ranges given) one scan may ask for.
MAX_SCAN_POINTS = 10**5


def _too_long(err: ValueError) -> bool:
    """Whether err is Python's own refusal to convert an int past
    MAX_DIGITS digits, or growth_classify's to sum counts too long to print."""
    return "set_int_max_str_digits" in str(err) or str(err) == TOO_LONG


def _shorten(message: str) -> str:
    """message with each run of more than 100 digits, and then each other
    word of more than 100 characters, named by its length: the one rule
    by which a refusal shows user text, so that it never echoes a long
    token back."""
    message = re.sub(r"\d{101,}", lambda run: f"<{len(run[0])} digits>", message)
    return re.sub(r"\S{101,}", lambda word: f"<{len(word[0])} characters>", message)


def _to_stderr(text: str) -> None:
    """Write text to stderr: a stderr that is None (fd 2 closed at
    start-up) or that the OS cannot write loses the text, and changes
    neither the exit code nor stdout."""
    try:
        sys.stderr.write(text)
    except (AttributeError, OSError):
        pass


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser, and the parser of each subcommand, whose
    refusals (exit 2, after the usage line) pass through _shorten.  The
    usage and error lines go through _to_stderr: argparse's own error()
    prints the usage to stdout when sys.stderr is None, and before Python
    3.11 lets a failed write of its message escape."""

    def error(self, message: str):
        _to_stderr(f"{self.format_usage()}{self.prog}: error: {_shorten(message)}\n")
        self.exit(EXIT_VALIDATION)


def _ints(text: str, sep: str = ",", count: int = 0,
          shape: str = "a comma-separated list of integers") -> tuple[int, ...]:
    """The argparse type of every number on the command line: the integers
    of `text` split at `sep`, exactly `count` of them if `count` is set.
    An integer is ASCII digits with an optional sign and whitespace:
    int() alone would also read other scripts' digits and underscores.
    argparse prints its ArgumentTypeError after the usage line, exit 2."""
    malformed = argparse.ArgumentTypeError(f"expected {shape}, got {text!r}")
    if not text.isascii() or "_" in text:
        raise malformed
    try:
        values = tuple(int(part) for part in text.split(sep))
    except ValueError as err:
        raise (argparse.ArgumentTypeError(TOO_LONG) if _too_long(err) else malformed) from None
    if count and len(values) != count:
        raise malformed
    return values


def _int(text: str) -> int:
    return _ints(text, count=1, shape="an integer")[0]


def _m_max(text: str) -> int:
    """--m-max of scan and h0: the top rung of the halving ladder m >= 8."""
    m_max = _int(text)
    if m_max < 8:
        raise argparse.ArgumentTypeError("must be at least 8")
    return m_max


def _class(text: str) -> NumClass:
    return NumClass(*_ints(text, count=2, shape="two integers a,b"))


def _range(text: str) -> range:
    lo, hi = _ints(text, ":", 2, "an inclusive range lo:hi")
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return range(lo, hi + 1)


def _bool_str(flag: bool) -> str:
    return "true" if flag else "false"


def _build_surface(args: argparse.Namespace) -> RuledSurface:
    return RuledSurface(Curve(args.genus, args.char), SplitBundle(args.degrees))


def _class_of(args: argparse.Namespace, surface: RuledSurface) -> NumClass:
    """--class, which defaults to -K of the surface."""
    return args.num_class if args.num_class is not None else -canonical_class(surface)


# ---------------------------------------------------------------- classify

def cmd_classify(args: argparse.Namespace) -> tuple[int, list[str]]:
    surface = _build_surface(args)
    bundle = surface.bundle
    cls = _class_of(args, surface)
    lines = [
        f"genus: {surface.curve.genus}",
        f"characteristic: {surface.curve.characteristic}",
        f"degrees: {','.join(str(d) for d in bundle.degrees)}",
        f"slope: {bundle.slope}",
        "hn_blocks: " + " ".join(f"{slope}^{mult}" for slope, mult in hn_data(bundle)),
        f"mu_max: {bundle.mu_max}",
        f"mu_min: {bundle.mu_min}",
        f"semistable: {_bool_str(bundle.mu_max == bundle.mu_min)}",
        f"canonical_class: {canonical_class(surface)}",
        f"class: {cls}",
        f"big: {_bool_str(big_test(surface, cls))}",
        f"pseff: {_bool_str(pseff_test(surface, cls))}",
        f"nef: {_bool_str(nef_test(surface, cls))}",
        f"volume: {volume(surface, cls)}",
    ]
    if surface.curve.characteristic > 0 and bundle.rank == 2:
        e = min_destabilizing_e(surface.curve, bundle)
        lines.append(f"min_destabilizing_e: {'none' if e is None else e}")
    return EXIT_OK, lines


# -------------------------------------------------------------------- scan

def cmd_scan(args: argparse.Namespace) -> tuple[int, list[str]]:
    """The scan grid's rows, in emission order: genera and characteristics
    (each once, sorted) in that order, each curve with every bundle, the
    non-increasing degree tuples of the ranges given in lexicographic
    order.  The sums read the curve only through its genus, so rows are
    classified in blocks of genera that share each bundle's class, each
    genus once for all the characteristics: a fixed --class puts every
    genus in one block, -K (which reads the genus) makes one block a genus."""
    genera, chars = args.genus_range, sorted(set(args.chars))
    ranges = {name: r for name in ("d1", "d2", "d3") if (r := getattr(args, f"{name}_range"))}
    # stop - start, not len(): len() of a range past sys.maxsize overflows.
    size = len(chars) * math.prod(r.stop - r.start for r in (genera, *ranges.values()))
    if size > MAX_SCAN_POINTS:
        raise ValueError(f"scan grid has {size} points before filtering, "
                         f"above the limit of {MAX_SCAN_POINTS}")
    bundles = [SplitBundle(degs) for degs in itertools.product(*ranges.values())
               if all(x >= y for x, y in zip(degs, degs[1:]))]
    if not bundles:
        raise ValueError(f"scan grid is empty (degree ranges never satisfy {' >= '.join(ranges)})")
    # Curve refuses a negative genus before a characteristic, and genera
    # ascend: the least genus meets the grid's first refusal, if any.
    for p in chars:
        Curve(genera[0], p)
    blocks = [genera] if args.num_class is not None else [[g] for g in genera]
    # A group for each bundle in each block: the class on the bundle over a
    # curve of each of the block's genera.  The surface over the block's
    # first genus stands for them all: -K reads only the genus, and the
    # slope test only the bundle.
    surfaces = [(RuledSurface(Curve(block[0]), bundle), block)
                for block in blocks for bundle in bundles]
    groups = [(surface, _class_of(args, surface), block) for surface, block in surfaces]
    classified = growth_classify(f"scan of {len(bundles) * len(genera) * len(chars)} rows "
                                 f"up to m = {args.m_max}", groups, (args.m_max,))
    lines = ["\t".join(["genus", "char", *ranges, "a", "b", "big", "verdict", "volume", "agree"])]
    code = EXIT_OK
    # The columns after the curve's two: a list for each group of the
    # block, an entry for each of its genera.  The block's rows are
    # written, each genus's once for each characteristic, once its last
    # bundle's column is done.
    columns = []
    for (surface, cls, block), (vol, verdicts, _) in zip(groups, classified):
        big = big_test(surface, cls)
        expected = Verdict.BIG_CERTIFIED if big else Verdict.NOT_BIG_CERTIFIED
        if verdicts.count(expected) < len(verdicts):
            code = EXIT_DISAGREE
        head = "\t".join(map(str, [*surface.bundle.degrees, *cls, _bool_str(big), ""]))
        tails = dict.fromkeys(verdicts)
        for verdict in tails:
            tails[verdict] = f"{head}{verdict.value}\t{vol}\t{_bool_str(verdict is expected)}"
        columns.append(list(map(tails.__getitem__, verdicts)))
        if len(columns) == len(bundles):
            for j, g in enumerate(block):
                cells = [column[j] for column in columns]
                lines += [f"{g}\t{p}\t{cell}" for p in chars for cell in cells]
            columns = []
    return code, lines


# ------------------------------------------------------------------ blowup

_KIND_NAMES = {int: "an integer", bool: "a boolean", list: "a list", dict: "an object"}


def _require(obj: dict, key: str, kind, where: str):
    if key not in obj:
        raise ValueError(f"{where}.{key}: required field missing")
    value = obj[key]
    # json.load builds exact int/bool/list/dict values, so an exact type
    # test also keeps true/false out of integer fields.
    if type(value) is not kind:
        raise ValueError(f"{where}.{key}: expected {_KIND_NAMES[kind]}")
    return value


def load_scenario(path: str) -> BlowupScenario:
    """Parse and validate a scenario JSON file against the fixed schema."""
    import json  # only this command reads JSON; the others start without it

    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as err:
            raise ValueError(f"{path}: not valid JSON ({err})")
    if not isinstance(raw, dict):
        raise ValueError("scenario: expected a JSON object")
    base = _require(raw, "base", dict, "scenario")
    genus = _require(base, "genus", int, "scenario.base")
    characteristic = _require(base, "characteristic", int, "scenario.base")
    degrees = _require(base, "degrees", list, "scenario.base")
    if not all(map(is_int, degrees)):
        raise ValueError("scenario.base.degrees: expected a list of integers")
    budget = _require(raw, "budget_class", dict, "scenario")
    a = _require(budget, "a", int, "scenario.budget_class")
    b = _require(budget, "b", int, "scenario.budget_class")
    steps_raw = _require(raw, "steps", list, "scenario")
    steps = []
    for i, step in enumerate(steps_raw):
        if not isinstance(step, dict):
            raise ValueError(f"scenario.steps[{i}]: expected an object")
        steps.append(_require(step, "on_strict_transform", bool, f"scenario.steps[{i}]"))
    surface = RuledSurface(Curve(genus, characteristic), SplitBundle(tuple(degrees)))
    return BlowupScenario(surface, NumClass(a, b), tuple(steps))


def cmd_blowup(args: argparse.Namespace) -> tuple[int, list[str]]:
    scenario = load_scenario(args.scenario)
    cert = certify_big_anticanonical(scenario)
    lines = [
        f"certified: {_bool_str(cert.certified)}",
        f"big_part: {cert.big_part}",
        f"big_part_is_big: {_bool_str(cert.big_part_is_big)}",
        f"steps_on_strict_transform: {_bool_str(cert.steps_on_strict_transform)}",
        f"effective_part: {cert.effective_part}",
        "witness: -K(Xtilde) = pullback(big_part) + effective_part",
    ]
    # Each blow-up adds one orthogonal (-1)-class to K, so K_i^2 = K_n^2 + (n - i).
    n = len(scenario.steps)
    surface = BlownUpSurface(scenario.base, n)
    k = surface.canonical_class()
    k_squared = check_class(surface, k, k)
    lines += [f"k_squared_step_{i}: {k_squared + n - i}" for i in range(n + 1)]
    return EXIT_OK, lines


# ---------------------------------------------------------------------- h0

def cmd_h0(args: argparse.Namespace) -> tuple[int, list[str]]:
    surface = _build_surface(args)
    cls = _class_of(args, surface)
    if args.m_max is None:
        what, rungs = f"class {cls}", (1,)
    else:
        what, rungs = f"class {cls} up to m = {args.m_max}", (1, *ladder(args.m_max))
    groups = [(surface, cls, [surface.curve.genus])]
    [(vol, [verdict], samples)] = growth_classify(what, groups, rungs)
    intervals = [interval for [interval] in samples]
    lines = [
        f"class: {cls}",
        f"h0_lo: {intervals[0].lo}",
        f"h0_hi: {intervals[0].hi}",
        f"volume: {vol}",
    ]
    if args.m_max is not None:
        r = surface.rank
        fitted = Fraction(math.factorial(r) * intervals[-1].lo, args.m_max**r)
        lines += [f"verdict: {verdict.value}", f"fitted_lo_coefficient: {fitted}"]
        for m, sample in zip(rungs[1:], intervals[1:]):
            lines.append(f"sample_m_{m}: [{sample.lo}, {sample.hi}]")
    return EXIT_OK, lines


# --------------------------------------------------------------- frobenius

def cmd_frobenius(args: argparse.Namespace) -> tuple[int, list[str]]:
    curve = Curve(args.genus, args.char)
    bundle = SplitBundle(args.degrees)
    pulled = frobenius_pullback(curve, bundle, args.e)
    lines = [f"pullback_degrees: {','.join(str(d) for d in pulled.degrees)}"]
    if bundle.rank == 2:
        e = min_destabilizing_e(curve, bundle)
        lines.append(f"min_destabilizing_e: {'none' if e is None else e}")
    return EXIT_OK, lines


# -------------------------------------------------------------------- main

def _add_surface_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--genus", type=_int, required=True)
    parser.add_argument("--char", type=_int, default=0)
    parser.add_argument("--degrees", type=_ints, required=True,
                        help="comma-separated summand degrees, e.g. 1,0")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ruledsurf",
        description="Exact bigness/nefness tests on projective bundles over curves, "
                    "with section-count oracles and blow-up certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser("classify", help="classify one surface / class")
    _add_surface_args(p_classify)
    p_classify.add_argument("--class", dest="num_class", type=_class, default=None,
                            help="class a,b (default: -K)")
    p_classify.set_defaults(func=cmd_classify)

    p_scan = sub.add_parser("scan", help="grid scan with oracle agreement check")
    p_scan.add_argument("--genus-range", type=_range, required=True, help="inclusive lo:hi")
    p_scan.add_argument("--chars", type=_ints, default=(0,), help="comma-separated characteristics")
    p_scan.add_argument("--d1-range", type=_range, required=True, help="inclusive lo:hi")
    p_scan.add_argument("--d2-range", type=_range, required=True, help="inclusive lo:hi")
    p_scan.add_argument("--d3-range", type=_range, default=None, help="inclusive lo:hi (rank 3)")
    p_scan.add_argument("--class", dest="num_class", type=_class, default=None,
                        help="class a,b (default: -K per surface)")
    p_scan.add_argument("--m-max", type=_m_max, default=32)
    p_scan.set_defaults(func=cmd_scan)

    p_blowup = sub.add_parser("blowup", help="certify a blow-up scenario file")
    p_blowup.add_argument("scenario", help="path to a scenario JSON file")
    p_blowup.set_defaults(func=cmd_blowup)

    p_h0 = sub.add_parser("h0", help="section-count interval for a class")
    _add_surface_args(p_h0)
    p_h0.add_argument("--class", dest="num_class", type=_class, default=None,
                      help="class a,b (default: -K)")
    p_h0.add_argument("--m-max", type=_m_max, default=None,
                      help="also run the growth classifier up to this m")
    p_h0.set_defaults(func=cmd_h0)

    p_frob = sub.add_parser("frobenius", help="Frobenius pull-back of a bundle")
    _add_surface_args(p_frob)
    p_frob.add_argument("--e", type=_int, default=0, help="number of Frobenius iterations")
    p_frob.set_defaults(func=cmd_frobenius)

    # Added last so that --out keeps its place at the end of each usage line.
    for subparser in sub.choices.values():
        subparser.add_argument("--out", default=None)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    # Every number the CLI reads or prints is held to MAX_DIGITS digits by
    # Python's own int <-> str limit, whatever PYTHONINTMAXSTRDIGITS says.
    sys.set_int_max_str_digits(MAX_DIGITS)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return EXIT_VALIDATION if err.code not in (0, None) else EXIT_OK

    try:
        # Output is written only once the command has succeeded, so a
        # rejected input never truncates an existing --out file.
        code, lines = args.func(args)
        if not args.out:
            try:
                print("\n".join(lines), flush=True)
            except BrokenPipeError:
                pass  # the reader has stopped reading: not a failure of the command
            return code
        with open(args.out, "w") as out:
            print("\n".join(lines), file=out)
        return code
    except OSError as err:
        code, message = EXIT_IO, str(err)
    except ValueError as err:
        code = EXIT_VALIDATION
        message = f"{args.command}: {TOO_LONG}" if _too_long(err) else str(err)
    _to_stderr(f"error: {_shorten(message)}\n")
    return code
