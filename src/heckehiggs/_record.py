"""The shared base of the package's small immutable records."""

from __future__ import annotations


class Record:
    """An immutable value with the fields named by the subclass's
    `__slots__`, which its `__init__` sets with `object.__setattr__`.

    Records compare equal only to records of the same class with equal
    field values, hash by those values, and print as `Name(field=value, ...)`.
    """

    __slots__ = ()

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
