"""The contract every record of the package keeps: an immutable named tuple,
built by keyword or by position, shown by `repr` (and its own `str` where it
has one), equal and hashed by value, equal to the plain tuple of its fields,
and refused with a ValueError of a fixed message when malformed.  One row a
record; the generic tests below run over the rows."""
from collections import namedtuple

import pytest

import ruledsurf
from ruledsurf import (
    BigAnticanonicalCertificate,
    BlownUpSurface,
    BlowupScenario,
    Curve,
    ExtClass,
    H0Interval,
    NumClass,
    RuledSurface,
    SplitBundle,
)

# kwargs: a keyword build, defaults left out; fields: the tuple it must
# equal; other: a record of another value; str: None where it is the repr;
# refusals: (id, kwargs, the ValueError's message).
Row = namedtuple("Row", "make kwargs fields other repr str refusals", defaults=(None, ()))

BASE = RuledSurface(Curve(1), SplitBundle((1, 0)))
BASE_REPR = ("RuledSurface(curve=Curve(genus=1, characteristic=0), "
             "bundle=SplitBundle(degrees=(1, 0)))")

ROWS = [
    Row(BigAnticanonicalCertificate,
        dict(certified=True, big_part=NumClass(2, -1), big_part_is_big=True,
             effective_part=ExtClass(0, 0, (-1,)), steps_on_strict_transform=True),
        (True, NumClass(2, -1), True, ExtClass(0, 0, (-1,)), True),
        BigAnticanonicalCertificate(False, NumClass(2, -1), True, ExtClass(0, 0, (-1,)), False),
        "BigAnticanonicalCertificate(certified=True, big_part=NumClass(a=2, b=-1), "
        "big_part_is_big=True, effective_part=ExtClass(a=0, b=0, exc=(-1,)), "
        "steps_on_strict_transform=True)"),
    Row(BlownUpSurface, dict(base=BASE), (BASE, 0), BlownUpSurface(BASE, 2),
        f"BlownUpSurface(base={BASE_REPR}, n=0)",
        refusals=[
            ("rank-3-base", dict(base=RuledSurface(Curve(1), SplitBundle((1, 0, 0)))),
             "blow-ups supported over rank-2 bases only"),
            ("negative-n", dict(base=BASE, n=-1), "n must be non-negative"),
            ("float-n", dict(base=BASE, n=1.5), "n must be an integer"),
            ("bool-n", dict(base=BASE, n=True), "n must be an integer"),
            ("base-not-surface", dict(base="x"), "base must be a RuledSurface"),
        ]),
    Row(BlowupScenario, dict(base=BASE, budget_class=NumClass(0, 1)), (BASE, NumClass(0, 1), ()),
        BlowupScenario(BASE, NumClass(0, 1), (True,)),
        f"BlowupScenario(base={BASE_REPR}, budget_class=NumClass(a=0, b=1), steps=())",
        refusals=[
            ("budget-not-pseff", dict(base=BASE, budget_class=NumClass(-1, 0)),
             "budget class is not pseudoeffective on the base"),
            ("base-not-surface", dict(base=BASE.bundle, budget_class=NumClass(0, 1)),
             "base must be a RuledSurface"),
            ("budget-not-class", dict(base=BASE, budget_class=(0, 1)),
             "budget class must be a NumClass"),
            # a step that is true but no flag would certify
            ("step-not-bool", dict(base=BASE, budget_class=NumClass(0, 1), steps=("no",)),
             "steps must be booleans"),
            ("step-int", dict(base=BASE, budget_class=NumClass(0, 1), steps=(1,)),
             "steps must be booleans"),
        ]),
    Row(Curve, dict(genus=2), (2, 0), Curve(2, 3), "Curve(genus=2, characteristic=0)",
        refusals=[
            ("negative-genus", dict(genus=-1), "genus must be non-negative"),
            ("float-genus", dict(genus=1.5), "genus and characteristic must be integers"),
            ("composite-characteristic", dict(genus=1, characteristic=4),
             "characteristic must be 0 or a prime"),
        ]),
    Row(ExtClass, dict(a=1, b=2), (1, 2, ()), ExtClass(1, 2, (0,)),
        "ExtClass(a=1, b=2, exc=())", "1*xi + 2*f"),
    Row(H0Interval, dict(lo=1, hi=2), (1, 2), H0Interval(1, 1), "H0Interval(lo=1, hi=2)",
        refusals=[
            ("lo-above-hi", dict(lo=3, hi=2), "interval needs 0 <= lo <= hi"),
            ("negative-lo", dict(lo=-1, hi=0), "interval needs 0 <= lo <= hi"),
        ]),
    Row(NumClass, dict(a=1, b=-2), (1, -2), NumClass(-2, 1), "NumClass(a=1, b=-2)", "(1, -2)",
        refusals=[
            ("float-a", dict(a=1.5, b=0), "class coefficients a, b must be integers"),
        ]),
    Row(RuledSurface, dict(curve=Curve(1), bundle=SplitBundle((0, 1))),
        (Curve(1), SplitBundle((1, 0))), RuledSurface(Curve(2), SplitBundle((1, 0))), BASE_REPR,
        refusals=[
            ("rank-1", dict(curve=Curve(1), bundle=SplitBundle((1,))),
             "projective bundle needs rank >= 2"),
            ("rank-129", dict(curve=Curve(1), bundle=SplitBundle((0,) * 129)),
             "projective bundle: rank 129 is above the limit of 128"),
            ("curve-not-curve", dict(curve="c", bundle=SplitBundle((1, 0))),
             "curve must be a Curve"),
            ("bundle-not-bundle", dict(curve=Curve(1), bundle=(1, 0)),
             "bundle must be a SplitBundle"),
        ]),
    Row(SplitBundle, dict(degrees=[0, 5, 2]), ((5, 2, 0),), SplitBundle((5, 2, 1)),
        "SplitBundle(degrees=(5, 2, 0))",
        refusals=[
            ("empty", dict(degrees=()), "a bundle needs at least one summand"),
            ("non-integer-degree", dict(degrees=(1, "x")), "summand degrees must be integers"),
        ]),
]


@pytest.fixture(params=ROWS, ids=lambda row: row.make.__name__)
def row(request):
    return request.param


def test_every_record_has_a_row():
    records = [name for name in ruledsurf.__all__
               if isinstance(getattr(ruledsurf, name), type)
               and issubclass(getattr(ruledsurf, name), tuple)]
    assert sorted(row.make.__name__ for row in ROWS) == sorted(records)


def test_builds(row):
    record = row.make(**row.kwargs)
    assert record == row.make(*row.fields) == row.fields
    assert list(record) == list(row.fields)


def test_equality_and_hash_by_value(row):
    record = row.make(**row.kwargs)
    assert record == row.make(**row.kwargs)
    assert hash(record) == hash(row.make(**row.kwargs)) == hash(row.fields)
    assert type(row.other) is row.make and row.other != record


def test_read_only(row):
    record = row.make(**row.kwargs)
    for name in (*row.make._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)


def test_repr_and_str(row):
    record = row.make(**row.kwargs)
    assert repr(record) == row.repr
    assert str(record) == (row.str or row.repr)


@pytest.mark.parametrize("make, kwargs, message", [
    pytest.param(row.make, kwargs, message, id=f"{row.make.__name__}-{name}")
    for row in ROWS for name, kwargs, message in row.refusals
])
def test_refused(make, kwargs, message):
    with pytest.raises(ValueError) as err:
        make(**kwargs)
    assert str(err.value) == message
