"""Immutable value classes on plain `__slots__`.

A CLI run is mostly interpreter start-up, so the package avoids the
standard library's record decorators: their module pulls in `inspect`,
`ast` and `copy`, and each decorated class generates and compiles its
methods at import.  `Frozen` gives the same frozen-record behaviour
over the fields named in `_fields`, in order.
"""

from __future__ import annotations

from operator import attrgetter


class Frozen:
    """Base of the immutable value classes.

    Assignment and deletion raise AttributeError; equality holds only
    between instances of the same class with equal fields; the hash is
    that of the field tuple; the repr lists the fields as keywords.
    Subclasses declare `__slots__` and `_fields`; `__init__` checks its
    input, then stores the slot values through `_fill`.  `_stores` holds
    the slots' own setters, in slot order, which bypass the raising
    `__setattr__`; a hot constructor calls them directly.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._stores = tuple(cls.__dict__[name].__set__ for name in cls.__slots__)
        get = attrgetter(*cls._fields)
        # attrgetter of a single name returns the value, not a 1-tuple
        if len(cls._fields) == 1:
            cls._astuple = lambda self: (get(self),)
        else:
            cls._astuple = lambda self: get(self)

    def _fill(self, *values) -> None:
        """Store values into the slots, in slot order."""
        for store, value in zip(self._stores, values):
            store(self, value)

    @classmethod
    def _raw(cls, *values):
        """An instance of exactly the slot values, stored without the
        checks of the constructor."""
        out = object.__new__(cls)
        out._fill(*values)
        return out

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self):
        return hash(self._astuple())

    def __reduce__(self):
        # copy and pickle rebuild through __init__, which re-validates
        return (self.__class__, self._astuple())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"
