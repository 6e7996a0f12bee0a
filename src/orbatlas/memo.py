"""The one memo of orbatlas, and the interning of its values.

`@memo` memoizes a pure function on its arguments: the key is the tuple of
the call's positional arguments, with keywords placed and defaults applied,
so `f(a)`, `f(a, 4)` and `f(a, bound=4)` share one entry when the default
is 4.  A method's key holds `self`, so equal instances share entries.  The
function takes no `*args`, `**kwargs` or keyword-only parameters, each
argument must be a value that is its own key, and only results that are
never mutated may be stored: values, tuples, booleans, `None`, and the
`Pseudogroup` of `atlas.closure`, whose dicts nothing changes once
`closure` has returned.  Every stored result is a hit, `False` and `None`
included; a call that raises stores nothing.  Each memoized function counts
its `hits` and `misses`, and `cache_info()` gives `(hits, misses, None,
size)`, in the order of the standard library's `CacheInfo`; `clear()`
empties every memo and resets the counters.  There is no size bound: the
memos live as long as the process.

`@interned` makes equal values one object.  The class call, the one
constructor, first puts the value in canonical form, then looks up its
canonical field tuple in the class's table and returns the live object it
finds there; only a value not found is set up.  So equality is identity,
and so is the hash (`object.__hash__`, computed in C): two equal values are
one object, and a value that is a key of a dict, a set or a memo is held
alive by it, so its id is not reused while it is a key.  Every field takes
part, certificates and annotations included.  The table holds its objects
weakly: a value that nothing else holds leaves it.  Nothing empties a
table, `clear()` included, since an equal value built later must still be
the object that lives on.
"""

from __future__ import annotations

import functools
import inspect
import weakref

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
    memoized.cache_info = lambda: (memoized.hits, memoized.misses, None, len(table))
    _MEMOS.append(memoized)
    return memoized


def clear():
    for m in _MEMOS:
        m.table.clear()
        m.hits = m.misses = 0


class _Ref(weakref.ref):
    """A weak reference to an interned value, holding its key in the table
    (`weakref.KeyedRef` without its Python-level constructor)."""

    __slots__ = ("key",)


def interned(cls):
    """Class decorator: equal values of `cls` are one object.

    Two independent hooks.  `_canonical`, static, with the field names as
    parameters (`dataclasses.replace` passes keywords), gives the canonical
    field tuple of a call; without it the fields are the call's arguments
    bound to the set-up's parameters, defaults applied.  `_setup(self,
    *fields)` fills a new object; without it `__init__` (for a dataclass,
    the generated one) does, and leaves the class, so that finding a value
    sets nothing up again.  `__eq__` and `__hash__` are `object`'s, the
    dataclass-generated ones replaced.  Pickling and copying rebuild
    through the constructor, so they give back the object itself."""
    table = {}
    if "_setup" in vars(cls):
        setup = cls._setup
    else:
        setup = cls.__init__
        del cls.__init__
    if "_canonical" in vars(cls):
        canonical = cls._canonical
    else:
        signature = inspect.signature(setup)
        signature = signature.replace(parameters=list(signature.parameters.values())[1:])
        arity = len(signature.parameters)

        def canonical(*args, **kwargs):
            if kwargs or len(args) != arity:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                return bound.args
            return args

    def drop(ref):
        if table.get(ref.key) is ref:
            del table[ref.key]

    def __new__(c, *args, **kwargs):
        fields = canonical(*args, **kwargs)
        ref = table.get(fields)
        if ref is not None:
            obj = ref()
            if obj is not None:
                return obj
        obj = object.__new__(c)
        setup(obj, *fields)
        object.__setattr__(obj, "_fields", fields)
        ref = table[fields] = _Ref(obj, drop)
        ref.key = fields
        return obj

    def __reduce__(self):
        return self.__class__, self._fields

    cls.__new__, cls.__reduce__ = __new__, __reduce__
    cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__
    cls._interned = table
    return cls
