"""Differential oracle for `pathpatch.record.Record`.

Every record class in the package must behave like the frozen dataclass
that `dataclasses.make_dataclass` builds from the class's own annotations
and defaults: binding of positional, keyword and default arguments, the
`TypeError` of a bad call, `==`, `!=`, `hash`, `repr`, `replace`, and the
`AttributeError` of assignment and deletion. The classes with a
hand-written constructor are covered like the rest, so a constructor that
binds a field wrongly, or keeps `_values` out of field order, fails here.
"""

import dataclasses
import importlib
import itertools
import pkgutil

import pytest

import pathpatch
from pathpatch.analysis import CallEdge, ControlDep
from pathpatch.ir import IRFunction, IRProgram
from pathpatch.paths import PathDag
from pathpatch.record import Record, replace

for _module in pkgutil.walk_packages(pathpatch.__path__, "pathpatch."):
    importlib.import_module(_module.name)

RECORDS = sorted(Record.__subclasses__(), key=lambda c: (c.__module__, c.__qualname__))
HOT = {"ExecutionResult", "CaseVerdict"}

# Fields that a `__post_init__` reads need values of the right shape.
SHAPED = {
    ("PathDag", "edges"): lambda k: (("a", f"b{k}", k),),
    ("ControlDepGraph", "deps"): lambda k: (ControlDep(f"g{k}", "a", k),),
    ("CallGraph", "edges"): lambda k: (CallEdge("main", f"s{k}", "f", False),),
}


def declared(cls):
    """The class's fields and defaults, read from its definition."""
    own = vars(cls)
    names = list(own.get("__annotations__", {}))
    return names, {name: own[name] for name in names if name in own}


def twin(cls):
    names, defaults = declared(cls)
    specs = [
        (name, object, dataclasses.field(default_factory=lambda d=defaults[name]: d))
        if name in defaults
        else (name, object)
        for name in names
    ]
    return dataclasses.make_dataclass(cls.__qualname__, specs, frozen=True)


TWINS = {cls: twin(cls) for cls in RECORDS}


def sample(cls, k):
    """Distinct values for every field: variant `k` of each."""
    names, _ = declared(cls)
    return {
        name: SHAPED.get((cls.__name__, name), lambda k, name=name: f"{name}{k}")(k)
        for name in names
    }


def state(obj):
    """Everything observable about a record or its twin, `hash` included."""
    names, _ = declared(type(obj))
    try:
        digest = hash(obj)
    except TypeError:
        digest = TypeError
    return tuple(getattr(obj, name) for name in names), repr(obj), digest


def pair(cls, *args, **kwargs):
    return cls(*args, **kwargs), TWINS[cls](*args, **kwargs)


def raises_type_error(make) -> bool:
    try:
        make()
    except TypeError:
        return True
    return False


def test_every_record_class_is_covered():
    names = {cls.__name__ for cls in RECORDS}
    assert HOT <= names
    assert {"IRFunction", "PostDominators", "BinOp", "Patch"} <= names


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__qualname__)
def test_binding_matches_the_dataclass(cls):
    names, defaults = declared(cls)
    values = sample(cls, 1)
    required = {n: v for n, v in values.items() if n not in defaults}
    calls = [
        ((), values),
        (tuple(values.values()), {}),
        ((), required),
        (tuple(required.values())[:1], dict(list(required.items())[1:])),
    ]
    if names:
        calls.append(((values[names[0]],), {n: values[n] for n in names[1:]}))
    for args, kwargs in calls:
        record, expected = pair(cls, *args, **kwargs)
        assert state(record) == state(expected)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__qualname__)
def test_bad_calls_raise_type_error_like_the_dataclass(cls):
    names, defaults = declared(cls)
    values = sample(cls, 1)
    bad = [
        lambda c: c(*values.values(), "extra"),
        lambda c: c(**values, no_such_field=1),
    ]
    if names:
        first = names[0]
        bad.append(lambda c: c(values[first], **values))
    for name in names:
        if name not in defaults:
            bad.append(lambda c, name=name: c(**{n: v for n, v in values.items() if n != name}))
    for make in bad:
        assert raises_type_error(lambda: make(TWINS[cls]))
        assert raises_type_error(lambda: make(cls))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__qualname__)
def test_equality_hash_repr_and_replace_match_the_dataclass(cls):
    names, _ = declared(cls)
    one, two = sample(cls, 1), sample(cls, 2)
    a, ta = pair(cls, **one)
    b, tb = pair(cls, **one)
    variants = [pair(cls, **dict(one, **{name: two[name]})) for name in names]
    for (x, tx), (y, ty) in itertools.product([(a, ta), (b, tb)] + variants, repeat=2):
        assert (x == y) == (tx == ty)
        assert (x != y) == (tx != ty)
        if x == y and state(x)[2] is not TypeError:
            assert hash(x) == hash(y)
    for name in names:
        changed = replace(a, **{name: two[name]})
        assert state(changed) == state(dataclasses.replace(ta, **{name: two[name]}))
    assert replace(a) == a and state(replace(a)) == state(ta)
    assert raises_type_error(lambda: dataclasses.replace(ta, no_such_field=1))
    assert raises_type_error(lambda: replace(a, no_such_field=1))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__qualname__)
def test_assignment_and_deletion_raise_attribute_error(cls):
    names, _ = declared(cls)
    record, expected = pair(cls, **sample(cls, 1))
    before = state(record)
    for name in names + ["not_a_field"]:
        for obj in (expected, record):
            with pytest.raises(AttributeError):
                setattr(obj, name, "changed")
            with pytest.raises(AttributeError):
                delattr(obj, name)
    assert state(record) == before


def test_records_of_different_classes_are_never_equal():
    made = [cls(**sample(cls, 1)) for cls in RECORDS]
    twins = [TWINS[cls](**sample(cls, 1)) for cls in RECORDS]
    for (x, tx), (y, ty) in itertools.product(zip(made, twins), repeat=2):
        assert (x == y) == (tx == ty) == (type(x) is type(y))
        assert (x != y) == (tx != ty)


def test_replace_runs_post_init_again():
    dag = PathDag("f", "a", "c", ("a", "b", "c"), (("a", "b", 0),))
    moved = replace(dag, edges=(("a", "c", 1), ("b", "c", None)))
    assert dag.successors("a") == (("b", 0),)
    assert moved.successors("a") == (("c", 1),)
    assert moved.successors("b") == (("c", None),)


def test_attributes_that_are_not_fields_are_not_compared_printed_or_copied():
    fn = IRFunction("f", "f", (), "int", {}, None)
    program = IRProgram({"f": fn}, "f", {})
    object.__setattr__(program, "fast", ("cache",))
    fresh = IRProgram({"f": fn}, "f", {})
    assert program == fresh and repr(program) == repr(fresh)
    assert "cache" not in repr(program)
    assert replace(program).fast == ()
