"""`Record` against `@dataclass(frozen=True)`: twin classes with the same
fields must behave alike, and the package's records must hash as the
tuple of their fields, as the dataclasses they replaced did."""

import copy
import dataclasses
import functools
import pickle

import pytest

from twosquares.formula import Atom, Copula, Schema, parse
from twosquares.record import Record
from twosquares.search import Model
from twosquares.starb import FiniteBooleanAlgebra, UltraElement
from twosquares.verdicts import Counterexample, Valid


def _classes(namespace, base, decorate):
    """The twin classes, named `namespace.Name` so that pickle finds them."""

    @decorate
    class Point(base):
        x: int
        y: int = 0

    @decorate
    class Labelled(Point):
        label: str = "p"

    @decorate
    class Ordered(base):
        low: int
        high: int

        def __post_init__(self):
            if self.low > self.high:
                raise ValueError("low above high")

    @decorate
    class Squared(base):
        n: int

        @functools.cached_property
        def square(self):
            return self.n * self.n

    @decorate
    class Empty(base):
        pass

    classes = (Point, Labelled, Ordered, Squared, Empty)
    for cls in classes:
        cls.__qualname__ = f"{namespace}.{cls.__name__}"
    return classes


class Records:
    Point, Labelled, Ordered, Squared, Empty = _classes("Records", Record, lambda cls: cls)


class Dataclasses:
    Point, Labelled, Ordered, Squared, Empty = _classes(
        "Dataclasses", object, dataclasses.dataclass(frozen=True)
    )


def instances(ns):
    """The same constructor calls on either namespace's classes."""
    return (
        ns.Point(1),
        ns.Point(1, 0),
        ns.Point(x=1, y=2),
        ns.Point(2, y=1),
        ns.Labelled(1),
        ns.Labelled(1, 0, "p"),
        ns.Labelled(1, label="q"),
        ns.Ordered(1, 2),
        ns.Ordered(high=3, low=3),
        ns.Squared(3),
        ns.Squared(-3),
        ns.Empty(),
        ns.Empty(),
    )


def test_twins_agree_on_repr_hash_fields_and_equality():
    records, twins = instances(Records), instances(Dataclasses)
    for r, d in zip(records, twins):
        assert repr(r).removeprefix("Records.") == repr(d).removeprefix("Dataclasses.")
        fields = tuple(getattr(d, f.name) for f in dataclasses.fields(d))
        assert hash(r) == hash(d) == hash(fields)
        assert type(r).__match_args__ == type(d).__match_args__
        assert r != d and d != r
        assert r.__eq__(d) is NotImplemented and d.__eq__(r) is NotImplemented
    assert [[a == b for b in records] for a in records] == [[a == b for b in twins] for a in twins]
    assert [[a != b for b in records] for a in records] == [[a != b for b in twins] for a in twins]


def test_twins_agree_on_errors():
    def failures(ns):
        calls = (
            lambda: ns.Point(),
            lambda: ns.Point(1, 2, 3),
            lambda: ns.Point(1, z=3),
            lambda: ns.Point(1, x=1),
            lambda: ns.Labelled(1, 2, "a", "b"),
            lambda: ns.Ordered(2, 1),
            lambda: ns.Empty(1),
        )
        messages = []
        for call in calls:
            with pytest.raises((TypeError, ValueError)) as error:
                call()
            messages.append((error.type, str(error.value)))
        return messages

    assert failures(Records) == failures(Dataclasses)

    def frozen(obj):
        messages = []
        for change in (lambda: setattr(obj, "x", 5), lambda: setattr(obj, "z", 5),
                       lambda: delattr(obj, "x"), lambda: delattr(obj, "z")):
            with pytest.raises(AttributeError) as error:
                change()
            messages.append(str(error.value))
        return messages

    assert frozen(Records.Point(1)) == frozen(Dataclasses.Point(1))


def test_cached_property_sits_in_the_instance_dict():
    for ns in (Records, Dataclasses):
        s = ns.Squared(4)
        before = hash(s)
        assert s.square == 16 and vars(s) == {"n": 4, "square": 16}
        assert hash(s) == before and s == ns.Squared(4)


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_copy_and_pickle_round_trips(protocol):
    for ns in (Records, Dataclasses):
        for obj in instances(ns):
            for twin in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj, protocol))):
                assert type(twin) is type(obj) and twin == obj and hash(twin) == hash(obj)
                assert vars(twin) == vars(obj)


def test_package_records_hash_as_the_tuple_of_their_fields():
    f = parse("S a P -> S i P")
    alg = FiniteBooleanAlgebra(2)
    assert alg.top  # cached properties stay out of the hash
    analytic = Model(("1",), (("P", 0), ("S", 1)), False)
    synthetic = Model(("u",), (("S", 1),), True)
    cases = (
        (Atom("S", Copula.A, "P"), ("S", Copula.A, "P")),
        (Schema(f, ("P", "S")), (f, ("P", "S"))),
        (Valid(3), (3,)),
        (Counterexample(synthetic, (("S sa P", False),)), (synthetic, (("S sa P", False),))),
        (analytic, (("1",), (("P", 0), ("S", 1)), False)),
        (synthetic, (("u",), (("S", 1),), True)),
        (alg, (2,)),
        (UltraElement(alg, 1, 2), (alg, 1, 2)),
    )
    for record, fields in cases:
        assert hash(record) == hash(fields), record
        assert pickle.loads(pickle.dumps(record)) == record


# --- methods built on first use -------------------------------------------------

class PickledFirst:
    Point, Labelled, Ordered, Squared, Empty = _classes("PickledFirst", Record, lambda cls: cls)


class PickledFirstTwins:
    Point, Labelled, Ordered, Squared, Empty = _classes(
        "PickledFirstTwins", object, dataclasses.dataclass(frozen=True)
    )


def _fresh():
    """New twin namespaces, whose record classes have built no method yet."""
    records = type("Records", (), dict(zip("Point Labelled Ordered Squared Empty".split(),
                                           _classes("Records", Record, lambda cls: cls))))
    twins = type("Dataclasses", (), dict(zip("Point Labelled Ordered Squared Empty".split(),
                                             _classes("Dataclasses", object,
                                                      dataclasses.dataclass(frozen=True)))))
    return records, twins


def _hashes(ns):
    return [hash(obj) for obj in instances(ns)]


def _equalities(ns):
    objs = instances(ns)
    return [[a == b for b in objs] for a in objs] + [[a != b for b in objs] for a in objs]


def _copies(ns):
    objs = instances(ns)
    return [(twin == obj, hash(twin) == hash(obj), vars(twin) == vars(obj))
            for obj in objs for twin in (copy.copy(obj), copy.deepcopy(obj))]


def _pickles(ns):
    objs = instances(ns)
    return [(twin == obj, hash(twin) == hash(obj), vars(twin) == vars(obj))
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1) for obj in objs
            for twin in [pickle.loads(pickle.dumps(obj, protocol))]]


def _subclass_first(ns):
    labelled = (ns.Labelled(1), ns.Labelled(1, 0, "p"), ns.Labelled(2, label="q"))
    results = [repr(x).split(".", 1)[1] for x in labelled]
    results += [hash(x) for x in labelled] + [a == b for a in labelled for b in labelled]
    points = (ns.Point(1), ns.Point(1, 0))
    return results + [hash(p) for p in points] + [p == x for p in points for x in labelled]


def _failed_first_construction(ns):
    results = []
    for args in ((2, 1), (1, 2), (2, 1), (3, 3)):
        try:
            results.append(repr(ns.Ordered(*args)).split(".", 1)[1])
        except ValueError as error:
            results.append(str(error))
    return results


@pytest.mark.parametrize(
    "first_use",
    [[_hashes, _equalities], [_equalities, _hashes], [_copies], [_subclass_first],
     [_failed_first_construction, _hashes, _equalities]],
    ids=["hash-before-eq", "eq-before-hash", "copy", "subclass-before-base", "post-init-raises"],
)
def test_twins_agree_whatever_is_used_first(first_use):
    records, twins = _fresh()
    assert [use(records) for use in first_use] == [use(twins) for use in first_use]
    # each stub used has been replaced by the generated method, named after
    # the class as it was made, not as it was renamed
    for name in ("__init__", "__eq__", "__hash__"):
        assert getattr(records.Point, name).__qualname__ == f"_classes.<locals>.Point.{name}"


def test_a_pickle_round_trip_as_the_first_comparison():
    assert _pickles(PickledFirst) == _pickles(PickledFirstTwins)
    assert PickledFirst.Point.__eq__.__qualname__ == "_classes.<locals>.Point.__eq__"

