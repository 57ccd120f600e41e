"""Frozen value classes without ``dataclasses``.

:func:`record` gives a class the methods of ``@dataclass(frozen=True)``
from its field annotations, by closures instead of ``exec``: ``==`` (other
classes get ``NotImplemented``), ``hash`` of the field tuple, ``repr``, and
an ``AttributeError`` on assignment or deletion.  A generic ``__init__``
takes every field, positionally or by keyword, and then runs
``__post_init__`` if the class has one; a class with defaults or checks
writes its own ``__init__``.  ``_trusted(*values)`` builds an instance from
its field values in field order with no check at all, for values the
library has already validated and put in canonical form: ``IFRelation``,
whose ``den`` must stay reduced, calls it from its own ``_from_cells`` and
``_build``.  Fields are set with ``object.__setattr__`` or straight into the
instance dict, and ``copy``, pickling and ``functools.cached_property`` work
as on any plain class.

The hash is computed on first use and kept in the instance dict, because
values are hashed again and again as dict keys (a relation inside a
lattice inside a fuzzy diagram).  ``__getstate__`` leaves it out of pickles
and copies: a ``str`` hashes differently in each process, so a kept hash
would be wrong where the pickle is loaded.

A method the class body defines wins.
"""

from __future__ import annotations

from operator import attrgetter

_HASH = "_hash"  # the instance-dict key of the cached hash


class FrozenInstanceError(AttributeError):
    """An assignment to, or deletion of, an attribute of a record."""


def record(cls: type) -> type:
    fields = tuple(cls.__annotations__)
    post_init = getattr(cls, "__post_init__", None)

    def __init__(self, *args, **kwargs) -> None:
        if len(args) > len(fields):
            raise TypeError(f"{cls.__name__}() takes {len(fields)} arguments, got {len(args)}")
        values = dict(zip(fields, args))
        for name, value in kwargs.items():
            if name not in fields or name in values:
                raise TypeError(f"{cls.__name__}() got an unexpected or repeated argument {name!r}")
            values[name] = value
        for name in fields:
            if name not in values:
                raise TypeError(f"{cls.__name__}() missing argument {name!r}")
            object.__setattr__(self, name, values[name])
        if post_init is not None:
            self.__post_init__()

    def _trusted(*values):
        """An instance of the field values, in field order, with no check."""
        obj = object.__new__(cls)
        obj.__dict__.update(zip(fields, values))
        return obj

    key = attrgetter(*fields)  # the field tuple; the bare value for one field
    one_field = len(fields) == 1

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self) -> int:
        state = self.__dict__
        h = state.get(_HASH)
        if h is None:
            h = state[_HASH] = hash((key(self),) if one_field else key(self))
        return h

    def __getstate__(self) -> dict:
        state = self.__dict__
        if _HASH in state:
            state = state.copy()
            del state[_HASH]
        return state

    def __repr__(self) -> str:
        items = ", ".join(f"{name}={getattr(self, name)!r}" for name in fields)
        return f"{self.__class__.__qualname__}({items})"

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    for method in (__init__, _trusted, __eq__, __hash__, __getstate__, __repr__, __setattr__,
                   __delattr__):
        name = method.__name__
        if name not in cls.__dict__:
            method.__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, staticmethod(method) if method is _trusted else method)
    return cls
