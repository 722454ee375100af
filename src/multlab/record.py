"""Plain record classes: equality, hashing, repr and freezing from a field list.

A record names its fields, in constructor order, in `_fields`, and writes
its own `__init__`.  Equality holds between instances of the same class
whose `_compared` fields (by default all of `_fields`) are equal.  A
`Frozen` record stores its fields once, through `_set`; any later
assignment raises AttributeError, and it hashes its compared fields.  A
plain `Record` is mutable and unhashable.

These are the methods `dataclasses` would generate, written once by hand:
importing that module loads `inspect` and `ast`, and each decorated class
compiles its methods at import; together that was about a third of the
package's set-up time.
"""

from __future__ import annotations


class Record:
    _fields: tuple[str, ...] = ()
    _compared: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "_compared" not in vars(cls):
            cls._compared = cls._fields

    def _key(self) -> tuple:
        return tuple([getattr(self, f) for f in self._compared])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    __hash__ = None

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"


class Frozen(Record):
    def _set(self, **fields) -> None:
        self.__dict__.update(fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._key())
