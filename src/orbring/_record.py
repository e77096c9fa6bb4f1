"""The shared base of the package's immutable value records.

Each record lists its fields in __slots__, and Record.__init__ stores them
in that order, given by position or by name; assignment and deletion
afterwards raise AttributeError.  Records that only store take that __init__
(AxiomCheck passes its counterexample=None default on to it).  RationalPhase,
MonomialMap, OrbifoldSpec and CyclotomicNumber validate and normalise in
their own __init__, which takes the fields in the same order and stores
through object.__setattr__.  Equality, hashing, repr, copying and pickling
are derived here from the fields in __slots__ order, so the package needs no
class decorator that generates code at import time.
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

    def __init__(self, *values, **named):
        names = self.__slots__
        if named and named.keys() == set(names[len(values):]):
            # popping every name empties named, which marks them all taken
            values += tuple(map(named.pop, names[len(values):]))
        if len(values) != len(names) or named:
            raise TypeError(
                f"{type(self).__name__} takes the fields {', '.join(names)} once each, "
                "by position or by name"
            )
        for name, value in zip(names, values):
            object.__setattr__(self, name, value)

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
