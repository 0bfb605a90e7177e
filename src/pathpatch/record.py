"""Immutable value records, without generated code.

`Record` is the base of every value class in the package: IR nodes, syntax
tree nodes, path-graph pieces and results. A subclass declares its fields
as annotations, in order; a class attribute of the same name is that
field's default:

    class Frame(Record):
        function: str
        call_site: str | None = None

Every subclass shares one `__init__`, which binds positional arguments,
keyword arguments and defaults, raises `TypeError` for a missing, unknown,
repeated or extra argument, and then calls the class's `__post_init__`,
if it has one. Instances are frozen: assigning or deleting any attribute
raises `AttributeError`. Two records are equal when they have the same
class and equal field values, equal records hash alike, and `repr` reads
`Name(field=value, ...)`. `replace` builds a changed copy.

Nothing is generated per class: no `exec`, no `compile`, and no import of
`dataclasses`, which would cost a fresh process about 1 ms per class and
pull in `inspect`, `ast` and `tokenize`. `__init_subclass__` only records
the field names and defaults.

Each field is stored as its own instance attribute, in field order, by
`object.__setattr__`, so attribute reads keep CPython's fast path for
instances whose attributes are always set in the same order; the field
values are also kept as one tuple, `_values`, which `==`, `hash`, `repr`
and `replace` use. Never fill `self.__dict__` directly: that loses the
fast path and made attribute reads twice as slow.

A default is shared by every instance that takes it, so a default must be
immutable. An attribute that is not a field, such as a cache or an index
built from the fields, is set with `object.__setattr__` (usually in
`__post_init__`); it is never compared, printed or copied by `replace`.

Hot classes: the shared `__init__` is a loop and costs about twice what a
constructor written for the class does. A class built once per interpreter
run or per test verdict (thousands of times in one invocation) therefore
writes its own `__init__`, with the same parameters
and defaults as its fields, which stores each field and then `_values` in
field order. Classes built a number of times proportional to the program's
size use the shared one.
"""

from __future__ import annotations


class Record:
    """Base of the immutable value classes; see the module docstring."""

    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}
    _post_init = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = cls.__dict__
        cls._fields = tuple(own.get("__annotations__", ()))
        cls._defaults = {name: own[name] for name in cls._fields if name in own}
        cls._post_init = own.get("__post_init__")

    def __init__(self, *args, **kwargs):
        cls = type(self)
        if kwargs or len(args) != len(cls._fields):
            args = cls._bind(args, kwargs)
        store = object.__setattr__
        for name, value in zip(cls._fields, args):
            store(self, name, value)
        store(self, "_values", args)
        if cls._post_init is not None:
            cls._post_init(self)

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> tuple:
        """The field values in field order, from a call's arguments."""
        fields = cls._fields
        if len(args) > len(fields):
            raise TypeError(
                f"{cls.__qualname__}() takes {len(fields)} arguments "
                f"but {len(args)} were given"
            )
        values = list(args)
        for name in fields[len(args):]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif name in cls._defaults:
                values.append(cls._defaults[name])
            else:
                raise TypeError(f"{cls.__qualname__}() missing argument {name!r}")
        if kwargs:
            name = next(iter(kwargs))
            problem = "multiple values for" if name in fields else "an unexpected keyword"
            raise TypeError(f"{cls.__qualname__}() got {problem} argument {name!r}")
        return tuple(values)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self):
        return hash(self._values)

    def __repr__(self):
        body = ", ".join(
            f"{name}={value!r}" for name, value in zip(self._fields, self._values)
        )
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def replace(obj: Record, **changes) -> Record:
    """A copy of `obj` with the given fields changed. Like
    `dataclasses.replace`, it runs the class's constructor, so
    `__post_init__` runs again and attributes that are not fields are not
    carried over."""
    cls = type(obj)
    values = [changes.pop(name, value) for name, value in zip(cls._fields, obj._values)]
    if changes:
        raise TypeError(f"{cls.__qualname__} has no field {next(iter(changes))!r}")
    return cls(*values)
