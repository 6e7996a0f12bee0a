"""The one memo of orbatlas, and the cached hash of its values.

`@memo(key)` memoizes a pure function on `key(*args, **kwargs)`.  Every
stored result is a hit, `False` and `None` included; a call that raises
stores nothing.  Each memoized function counts its `hits` and `misses`,
and `clear()` empties every memo and resets the counters.  There is no size
bound: the memos live as long as the process.

`@cached_hash` makes a frozen dataclass its own dict key: its hash is
computed once, from the fields it compares, and equality checks identity,
then that hash, then the fields.
"""

from __future__ import annotations

import functools
from dataclasses import fields
from operator import attrgetter

_MISSING = object()
_MEMOS = []


def memo(key):
    def decorate(fn):
        table = {}

        @functools.wraps(fn)
        def memoized(*args, **kwargs):
            k = key(*args, **kwargs)
            out = table.get(k, _MISSING)
            if out is _MISSING:
                memoized.misses += 1
                out = table[k] = fn(*args, **kwargs)
            else:
                memoized.hits += 1
            return out

        memoized.table, memoized.hits, memoized.misses = table, 0, 0
        _MEMOS.append(memoized)
        return memoized
    return decorate


def clear():
    for m in _MEMOS:
        m.table.clear()
        m.hits = m.misses = 0


def cached_hash(cls):
    """Class decorator for a frozen dataclass.  Fields declared with
    `compare=False` take part in neither the hash nor the equality.  The
    hash is stored in the instance's `__dict__` on first use."""
    compared = attrgetter(*(f.name for f in fields(cls) if f.compare))

    def __hash__(self):
        h = self.__dict__.get("_hash")
        if h is None:
            h = self.__dict__["_hash"] = hash(compared(self))
        return h

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return hash(self) == hash(other) and compared(self) == compared(other)

    cls.__hash__, cls.__eq__ = __hash__, __eq__
    return cls
