"""Immutable value records, with no code generated at import.

A record class names its fields in `__slots__` and, for trailing fields
that may be left out, their defaults in a `_defaults` dict. `Record` gives
it a frozen value: one constructor that takes the fields in slot order,
positionally or by keyword, equality by exact class and field values, the
hash of the field tuple, a `Name(field=value, ...)` repr, assignment and
deletion that raise AttributeError, and `copy`/`pickle` support. `replace`
builds a changed copy.

The standard library's frozen data classes write and compile these
methods when their module is imported, and every command-line call would
pay for that at start-up.
"""

from __future__ import annotations


class Record:
    __slots__ = ()
    _defaults = {}

    def __init_subclass__(cls):
        # A class may keep private slots after its fields, by naming the
        # fields in `_fields` itself; those start unset.
        if "_fields" not in cls.__dict__:
            cls._fields = cls.__slots__
        # the slots' own setters, which pass by the refusing __setattr__
        cls._setters = tuple(getattr(cls, f).__set__ for f in cls._fields)

    def __init__(self, *args, **kwargs):
        setters = self._setters
        if kwargs or len(args) != len(setters):
            args = self._bind(args, kwargs)
        i = 0  # an index, not zip(): this loop runs per record made
        for set_field in setters:
            set_field(self, args[i])
            i += 1

    def _bind(self, args, kwargs) -> list:
        """One value per field from args and kwargs, with `_defaults` for
        the trailing fields neither gives; TypeError names the class."""
        name, fields = type(self).__qualname__, self._fields
        if len(args) > len(fields):
            raise TypeError(f"{name} takes {len(fields)} fields, "
                            f"got {len(args)}")
        rest = fields[len(args):]
        for f in kwargs:
            if f not in rest:
                raise TypeError(f"{name} got field {f!r} twice" if f in fields
                                else f"{name} has no field {f!r}")
        given = {**self._defaults, **kwargs}
        for f in rest:
            if f not in given:
                raise TypeError(f"{name} lacks field {f!r}")
        return [*args, *[given[f] for f in rest]]

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return f"{type(self).__qualname__}(" + ", ".join(
            f"{f}={getattr(self, f)!r}" for f in self._fields) + ")"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


def replace(obj: Record, **changes) -> Record:
    """A copy of obj with the named fields changed. The names that are no
    field are left over, for the constructor to refuse."""
    values = [changes.pop(f, v) for f, v in zip(obj._fields, obj._values())]
    return type(obj)(*values, **changes)
