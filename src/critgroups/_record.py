"""The base of the package's records: small immutable values with named fields.

A record class lists its fields in ``__slots__``, in the order its
``__init__`` takes them, and sets each one there with
``object.__setattr__``.  The base supplies what the records share:

* equality between records of the same class with equal fields, and a
  hash consistent with it;
* a repr that names every field, e.g. ``SnfResult(diag=(2, 0), rank=1)``;
* assignment and deletion of attributes raise ``AttributeError``;
* copying and pickling rebuild the record through its constructor.

Records are neither tuples nor iterable, so a record never equals a tuple
of its field values.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    __slots__ = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        # the field values: one value for a one-field record, else a tuple
        cls._key = attrgetter(*cls.__slots__)

    def _set(self, *values) -> None:
        """Set the fields to ``values``, in ``__slots__`` order; for ``__init__``."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of an immutable {type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of an immutable {type(self).__name__}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)
