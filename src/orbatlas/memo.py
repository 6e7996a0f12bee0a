"""The one memo of orbatlas.

`@memo(key)` memoizes a pure function on `key(*args, **kwargs)`.  Every
stored result is a hit, `False` and `None` included; a call that raises
stores nothing.  Each memoized function counts its `hits` and `misses`,
and `clear()` empties every memo and resets the counters.  There is no size
bound: the memos live as long as the process.
"""

from __future__ import annotations

import functools

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
