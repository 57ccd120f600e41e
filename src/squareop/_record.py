"""Frozen value classes without ``dataclasses``.

:func:`record` gives a class the methods of ``@dataclass(frozen=True)``
from its field annotations, by closures instead of ``exec``: ``==`` (other
classes get ``NotImplemented``), ``hash`` of the field tuple, ``repr``, and
an ``AttributeError`` on assignment or deletion.  A generic ``__init__``
takes every field, positionally or by keyword, and then runs
``__post_init__`` if the class has one; a class with defaults writes its
own ``__init__``.  Fields are set with ``object.__setattr__``, and
pickling, ``copy`` and ``functools.cached_property`` work as on any plain
class.

A method the class body defines wins.  Classes built in bulk write their
own ``__init__``, and classes compared or hashed in bulk their own ``==``
and ``hash``: attribute reads written out in a method run faster than the
generic getter here.
"""

from __future__ import annotations

from operator import attrgetter


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

    key = attrgetter(*fields)  # the field tuple; the bare value for one field

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(key(self))

    def __repr__(self) -> str:
        items = ", ".join(f"{name}={getattr(self, name)!r}" for name in fields)
        return f"{self.__class__.__qualname__}({items})"

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    for method in (__init__, __eq__, __hash__, __repr__, __setattr__, __delattr__):
        if method.__name__ not in cls.__dict__:
            method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
            setattr(cls, method.__name__, method)
    return cls
