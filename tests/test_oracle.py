"""The section-count oracle's strength, pinned by planted bugs.

Each row of PLANTED replaces one function or constant of the package by
monkeypatch, runs the benchmark's scan grids at --m-max 64 in-process,
and pins for each grid how many rows the plant makes disagree that agree
on the clean program (scan-r2 already disagrees on 105 rows), or
REFUSED when the scan is refused for an inverted interval.  Pins are
lower bounds.  A plant the oracle does not see keeps its row with a pin
of 0 and the reason it survives: the table records the blind spots too.
"""
import inspect
from collections import namedtuple
from fractions import Fraction

import pytest

from ruledsurf import H0Interval, cli, sections
from ruledsurf.cli import EXIT_DISAGREE, EXIT_OK, EXIT_VALIDATION
from test_cli import SCAN_R2, SCAN_R3, knots_shifted, run_cli

GRIDS = {"scan-r2": (*SCAN_R2, "--m-max", "64"), "scan-r3": (*SCAN_R3, "--m-max", "64")}
REFUSED = "interval needs 0 <= lo <= hi"

VOLUME = sections.volume
INTERVALS = sections._intervals
TRIANGLE = sections._triangle_sum


def edited(name, old, new):
    """sections.<name> with the one `old` of its source replaced by `new`."""
    source = inspect.getsource(getattr(sections, name))
    assert source.count(old) == 1, old
    namespace = dict(vars(sections))
    exec(source.replace(old, new), namespace)
    return namespace[name]


def band_by(shift):
    """_slice_intervals with the band's genus threshold moved by shift."""
    return edited("_slice_intervals", "band = (max(base, 0) + 3) // 2",
                  f"band = (max(base, 0) + 3) // 2 + {shift}")


# plant(): the (target, name, value) to set; pins: each grid's pin.
Plant = namedtuple("Plant", "id plant pins reason", defaults=(None,))
HI_UNREAD = "no verdict reads hi: a scan decides from lo and vol, and checks only hi >= lo"

PLANTED = [
    Plant("knots-shifted", lambda: (sections, "volume", knots_shifted()),
          {"scan-r2": 143, "scan-r3": 14}),
    Plant("volume-truncated", lambda: (sections, "volume",
                                       lambda s, cls: Fraction(int(VOLUME(s, cls)))),
          {"scan-r2": 170, "scan-r3": 5}),
    Plant("volume-halved", lambda: (sections, "volume", lambda s, cls: VOLUME(s, cls) / 2),
          {"scan-r2": 0, "scan-r3": 0},
          "a smaller vol only lowers the threshold lo must pass: it clears 74 of scan-r2's "
          "105 INCONCLUSIVE rows and flags none"),
    Plant("big-test-reads-mu-min", lambda: (
              cli, "big_test", lambda s, cls: cls.a > 0 and cls.b + cls.a * s.bundle.mu_min > 0),
          {"scan-r2": 1542, "scan-r3": 135}),
    Plant("lo-ramp-minus-one", lambda: (sections, "_RAMPS", ((1, 0, 0), *sections._RAMPS[1:])),
          {"scan-r2": 10, "scan-r3": 0},
          "lo loses at most 1 a lattice point, C(66, 2) = 2,145 at m = 64 in rank 3, and "
          "every big rank-3 row clears its threshold by more"),
    Plant("lo-ramp-plus-one", lambda: (sections, "_RAMPS", ((1, 0, 2), *sections._RAMPS[1:])),
          {"scan-r2": REFUSED, "scan-r3": REFUSED}),
    Plant("hi-is-lo", lambda: (sections, "_intervals", lambda degrees, cls, genera: [
              H0Interval(lo, lo) for lo, _ in INTERVALS(degrees, cls, genera)]),
          {"scan-r2": 0, "scan-r3": 0}, HI_UNREAD),
    Plant("band-raised", lambda: (sections, "_slice_intervals", band_by(1)),
          {"scan-r2": 0, "scan-r3": 0}, f"it sets hi = lo at the band's edge; {HI_UNREAD}"),
    Plant("band-lowered", lambda: (sections, "_slice_intervals", band_by(-1)),
          {"scan-r2": 0, "scan-r3": 0},
          "equivalent: the curves it adds to the band have g = 0 or every degree past 2g - 2, "
          "where hi's two ramps already sum to lo"),
    Plant("rank3-gaps-swapped", lambda: (sections, "_triangle_sum",
                                         lambda x, n, gaps: TRIANGLE(x, n, gaps[::-1])),
          {"scan-r2": 0, "scan-r3": REFUSED}, "a rank-2 scan sums no triangle"),
]


def agree_flags(capsys, grid):
    """The scan's exit code, stdout, stderr and each row's agree flag."""
    code, out, err = run_cli(capsys, *GRIDS[grid])
    return code, out, err, [row.rsplit("\t", 1)[1] for row in out.splitlines()[1:]]


def test_every_plant_has_its_reason():
    # A row that shows 0 new disagreements on a grid says why it survives;
    # a row caught on every grid needs no reason.
    for row in PLANTED:
        assert set(row.pins) == set(GRIDS)
        assert (0 in row.pins.values()) == (row.reason is not None), row.id


@pytest.mark.parametrize("grid", GRIDS)
@pytest.mark.parametrize("row", PLANTED, ids=lambda row: row.id)
def test_planted_bug_is_flagged(capsys, grid, row):
    code, _, err, before = agree_flags(capsys, grid)
    assert (code, err) == ((EXIT_DISAGREE, "") if grid == "scan-r2" else (EXIT_OK, ""))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(*row.plant())
        code, out, err, after = agree_flags(capsys, grid)
    pin = row.pins[grid]
    if pin == REFUSED:
        assert (code, out, err) == (EXIT_VALIDATION, "", f"error: {REFUSED}\n")
        return
    new = sum(was == "true" and now == "false" for was, now in zip(before, after))
    assert (len(after), err) == (len(before), "")
    assert new >= pin
    if new:
        assert code == EXIT_DISAGREE
