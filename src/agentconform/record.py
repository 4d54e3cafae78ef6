"""Immutable value records, with no code generated at import.

A record class names its fields in `__slots__` and writes its own
`__init__`, with one parameter per field in slot order and one
`object.__setattr__` per field. `Record` gives it the rest of a frozen
value: equality by exact class and field values, the hash of the field
tuple, a `Name(field=value, ...)` repr, assignment and deletion that raise
AttributeError, and `copy`/`pickle` support. `replace` builds a changed copy.

The standard library's frozen data classes write and compile these
methods when their module is imported, and every command-line call would
pay for that at start-up.
"""

from __future__ import annotations


class Record:
    __slots__ = ()

    def __init_subclass__(cls):
        # A class may keep private slots after its fields, by naming the
        # fields in `_fields` itself.
        if "_fields" not in cls.__dict__:
            cls._fields = cls.__slots__

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
    """A copy of obj with the named fields changed."""
    unknown = changes.keys() - set(obj._fields)
    if unknown:
        raise TypeError(f"{type(obj).__qualname__} has no field "
                        f"{sorted(unknown)[0]!r}")
    return type(obj)(*[changes[f] if f in changes else getattr(obj, f)
                       for f in obj._fields])
