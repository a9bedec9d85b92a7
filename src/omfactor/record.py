"""Base of the package's immutable records.

A record lists its fields in `__slots__` and sets them in its own
`__init__` with `object.__setattr__`. It then compares and hashes by the
tuple of its field values, in slot order, and prints as
`Name(field=value, ...)`. Records of different classes are never equal.
"""

from __future__ import annotations


class Record:
    __slots__ = ()

    def __setattr__(self, name, value) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"
