"""The one memo of orbatlas, and the cached hash of its values.

`@memo` memoizes a pure function on its arguments: the key is the tuple of
the call's positional arguments, with keywords placed and defaults applied,
so `f(a)`, `f(a, 4)` and `f(a, bound=4)` share one entry when the default
is 4.  A method's key holds `self`, so equal instances share entries.  The
function takes no `*args`, `**kwargs` or keyword-only parameters, each
argument must be a value that is its own key, and only results that cannot
be mutated may be stored.  Every stored result is a hit, `False` and `None`
included; a call that raises stores nothing.  Each memoized function counts
its `hits` and `misses`; `clear()` empties every memo and resets the
counters.  There is no size bound: the memos live as long as the process.

`@cached_hash` makes a frozen dataclass its own dict key: its hash is
computed once, from all of its fields, and equality checks identity, then
that hash, then the fields.
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import fields
from operator import attrgetter

_MISSING = object()
_MEMOS = []


def memo(fn):
    table = {}
    signature = inspect.signature(fn)
    arity = len(signature.parameters)

    @functools.wraps(fn)
    def memoized(*args, **kwargs):
        if kwargs or len(args) != arity:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            args = bound.args
        out = table.get(args, _MISSING)
        if out is _MISSING:
            memoized.misses += 1
            out = table[args] = fn(*args)
        else:
            memoized.hits += 1
        return out

    memoized.table, memoized.hits, memoized.misses = table, 0, 0
    _MEMOS.append(memoized)
    return memoized


def clear():
    for m in _MEMOS:
        m.table.clear()
        m.hits = m.misses = 0


def cached_hash(cls):
    """Class decorator for a frozen dataclass: every field takes part in
    the hash and the equality.  The hash is stored in the instance's
    `__dict__` on first use."""
    every = attrgetter(*(f.name for f in fields(cls)))

    def __hash__(self):
        h = self.__dict__.get("_hash")
        if h is None:
            h = self.__dict__["_hash"] = hash(every(self))
        return h

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return hash(self) == hash(other) and every(self) == every(other)

    cls.__hash__, cls.__eq__ = __hash__, __eq__
    return cls
