"""The one base of the package's immutable values.

Every value class is a `Record`.  The record types take their fields
positionally through `Record.__init__`; `UniPoly`, `BiPoly` and
`RationalFunction` take only the immutability from it and keep their own
constructor, equality, hash and repr, because they compare equal to scalars.
"""

from __future__ import annotations


class Record:
    """An immutable value with the fields named by the subclass's
    `__slots__`, set once by `__init__` and refused to `setattr` and `del`.

    Records compare equal only to records of the same class with equal
    field values, hash by those values, and print as `Name(field=value, ...)`.
    """

    __slots__ = ()

    def __init__(self, *values):
        names = self.__slots__
        if len(values) != len(names):
            raise TypeError(
                f"{type(self).__name__} takes {len(names)} fields, got {len(values)}"
            )
        for name, value in zip(names, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is type(self):
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"
