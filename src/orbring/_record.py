"""The shared base of the package's immutable value records.

Each record lists its fields in __slots__ and writes its own __init__, which
takes them in that order, validates, normalises and stores through
object.__setattr__; assignment and deletion afterwards raise AttributeError.
Equality, hashing, repr, copying and pickling are derived here from the
fields in __slots__ order, so the package needs no class decorator that
generates code at import time.
"""

from __future__ import annotations

from operator import attrgetter

__all__ = ["Record"]


class Record:
    """Base of a slotted record compared field by field.

    A subclass that compares by identity sets __eq__ = object.__eq__ and
    __hash__ = object.__hash__; a class keyword repr_omit=(...) names fields
    left out of the repr.
    """

    __slots__ = ()

    def __init_subclass__(cls, *, repr_omit: tuple[str, ...] = ()) -> None:
        super().__init_subclass__()
        names = cls.__slots__
        # attrgetter of one name returns the bare value, which still compares
        # and hashes field-wise; __reduce__ wraps it in a tuple
        cls._fields = attrgetter(*names)
        cls._repr_names = tuple(name for name in names if name not in repr_omit)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields(self) == self._fields(other)

    def __hash__(self) -> int:
        return hash(self._fields(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._repr_names)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        # rebuilt through __init__, since __setattr__ refuses slot restore;
        # normalisation is idempotent, so the copy has the same fields
        values = self._fields(self)
        return self.__class__, values if len(self.__slots__) > 1 else (values,)
