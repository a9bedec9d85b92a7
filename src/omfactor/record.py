"""Base of the package's immutable records.

A record lists its fields in `__slots__`, and the base constructor sets
them in slot order, positional arguments first, then keywords. It compares
and hashes by the tuple of its field values, in slot order, and prints as
`Name(field=value, ...)`. Records of different classes are never equal.

A subclass defines `__init__`, storing through `_set`, only to check or
derive fields (`Type`, `FactorCertificate`, `ResidualResult`), to normalize
them (`Poly`), or to give defaults (`RunResult`).
A slot that holds a value derived on first use (`ResidualResult._poly`
and `_vecs`, with `_field` the field they lie over, and `Type._optimal`
and `Type._representative`) is no field: such a record overrides
`_values` and `__repr__` to list its fields alone.
`finitefield.FqElt`, built and compared on every tower operation, stays
outside: the base made its build 2x and its comparison 10x slower.
"""

from __future__ import annotations


# Bound once: a global read is cheaper than object's attribute on each store.
_set = object.__setattr__


class Record:
    __slots__ = ()

    def __init__(self, *args, **kwargs) -> None:
        names = self.__slots__
        if len(args) > len(names):
            raise TypeError(f"{type(self).__name__} takes {len(names)} fields, got {len(args)}")
        if kwargs or len(args) < len(names):
            try:
                args += tuple([kwargs.pop(name) for name in names[len(args):]])
            except KeyError as missing:
                raise TypeError(f"{type(self).__name__} is missing field {missing}") from None
            for name in kwargs:
                why = "given twice" if name in names else "unknown"
                raise TypeError(f"{type(self).__name__} field {name!r} is {why}")
        for name, value in zip(names, args):
            _set(self, name, value)

    def __setattr__(self, name, value) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"
