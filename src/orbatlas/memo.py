"""The one memo of orbatlas, and the interning of its values.

`@memo` memoizes a pure function on its arguments: it is
`functools.lru_cache(maxsize=None)`, the standard library's cache written
in C, registered so that `clear()` reaches it.  The key is the call's
arguments as given, so `f(a, b)` and `f(a, b=b)` would be two entries.  So
that one value of the arguments is one key, the package calls every
memoized function by position, and a function with a default is refused
when decorated, as is one with `*args`, `**kwargs`, keyword-only or
positional-only parameters.  A method's key holds `self`, so equal
instances share entries.  Each argument must be a value that is its own
key, and only results that are never mutated may be stored: values,
tuples, booleans, `None`, strings, and the `Pseudogroup` of
`atlas.closure`, which closes a source chart when it is first read and
whose families of a source, once read, never change.
Every stored result is a hit, `False` and `None` included; a call that
raises stores nothing.  `cache_info()` gives `(hits, misses, None, size)`;
`clear()` empties every memo and resets the counters.  There is no size
bound: the memos live as long as the process.

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

A value's fields are its class's annotations, or else the parameters of
its `_setup`, the one set-up hook.  `interned` builds the three derived
forms of every value, each once, on first use.  The key `key()` is the
key of the fields, or of those `_key_fields` names; only a leaf value of
geometry (a map, an interval, a polygon), whose fields are integers,
writes them as rationals by its hook `_form`.  The saved choice-table
order reads `key()`.  The canonical sorts read the order key `order()`:
the shape of `key()` with an order leaf (`geometry._leaf`) in place of
each rational, so it orders values exactly as `key()` does, while nearly
every comparison is decided between integers, in C.  The chart names of
`atlas.pullback_square` read the key text `key_text()`: `repr(key())`,
joined from the key texts of the same fields (`field_text`), so that a
text once built, of a map, a region or an entry, is never walked again.

Neither decorator generates code: parameters are read from a function's
code object and fields from a class's annotations, so importing orbatlas
execs nothing and loads neither `inspect` nor `dataclasses`.
"""

from __future__ import annotations

import functools
import weakref

_MISSING = object()
_MEMOS = []
_CO_VARARGS, _CO_VARKEYWORDS = 0x04, 0x08


def _parameters(fn):
    """The parameter names of a plain function, read from its code object.
    Only parameters that may be passed either way and have no default are
    allowed: `*args`, `**kwargs`, keyword-only and positional-only
    parameters and defaults are refused."""
    code = fn.__code__
    if (code.co_flags & (_CO_VARARGS | _CO_VARKEYWORDS) or code.co_kwonlyargcount
            or code.co_posonlyargcount or fn.__defaults__):
        raise TypeError(f"{fn.__qualname__}: only parameters without a default that may "
                        "be passed by position or keyword are supported")
    return code.co_varnames[:code.co_argcount]


def _binder(name, params, defaults):
    """`bind(*args, **kwargs)`: the tuple of all parameters of a call,
    keywords placed and defaults applied; a call that the function itself
    would refuse raises `TypeError`."""
    arity = len(params)
    required = arity - len(defaults)

    def bind(*args, **kwargs):
        if len(args) > arity:
            raise TypeError(f"{name}() takes {arity} arguments but {len(args)} were given")
        out = list(args)
        for i in range(len(args), arity):
            value = kwargs.pop(params[i], _MISSING)
            if value is _MISSING:
                if i < required:
                    raise TypeError(f"{name}() missing required argument {params[i]!r}")
                value = defaults[i - required]
            out.append(value)
        for key in kwargs:
            what = "multiple values for" if key in params else "an unexpected keyword"
            raise TypeError(f"{name}() got {what} argument {key!r}")
        return tuple(out)

    return bind


def memo(fn):
    _parameters(fn)
    memoized = functools.lru_cache(maxsize=None)(fn)
    _MEMOS.append(memoized)
    return memoized


def clear():
    for m in _MEMOS:
        m.cache_clear()


class _Ref(weakref.ref):
    """A weak reference to an interned value, holding its key in the table
    (`weakref.KeyedRef` without its Python-level constructor)."""

    __slots__ = ("key",)


def _field_key(value, name):
    """The key of a field by the method `name`, "key" or "order": a value's
    `key()` or `order()`, a tuple's items' keys, and anything else as it is."""
    if isinstance(value, tuple):
        return tuple([_field_key(v, name) for v in value])
    method = getattr(value, name, None)
    return value if method is None else method()


def field_text(value):
    """The key text of a field, `repr(_field_key(value, "key"))`: a value's
    `key_text()`, a tuple's items' texts joined as `repr` joins a tuple's,
    and the `repr` of anything else."""
    if isinstance(value, tuple):
        texts = [field_text(v) for v in value]
        return f"({', '.join(texts)}{',' if len(texts) == 1 else ''})"
    method = getattr(value, "key_text", None)
    return repr(value) if method is None else method()


def interned(cls):
    """Class decorator: equal values of `cls` are one object.

    The fields are the class's annotated names, in order, a field's default
    being the class attribute of its name; without annotations they are the
    parameters of `_setup(self, ...)`, which take no defaults, and a class
    with neither is refused.
    An annotated class gets a set-up that assigns each field with
    `object.__setattr__` (never `__dict__` as a whole, which on CPython 3.11
    slows every later attribute read), `__repr__` in the form
    `Class(field=value, ...)`, a frozen `__setattr__` and `__delattr__`,
    `__replace__(**changes)` (the protocol of `copy.replace`).  Every class
    gets `key()`, `order()` and `key_text()`, each built once: `_field_key`
    and `field_text` of its fields, or of those named by `_key_fields`.  A
    leaf class builds `key()` and `order()` by its `_form(self, name)`
    instead, and its key text is `field_text(key())`.  A slotted `_setup`
    class sets the slots `_key`, `_order` and `_text` to None itself.

    `_canonical`, static, with the field names as parameters (`__replace__`
    passes keywords), gives the canonical field tuple of a call.  Without
    it, a call with one argument per field and no keywords is its own field
    tuple, and any other call is bound to the fields, defaults applied.
    `_setup(self, *fields)` fills a new object in place of the field
    set-up.  `__eq__` and `__hash__` are `object`'s.  Pickling and copying
    rebuild through the constructor, so they give back the object itself."""
    table = {}
    own = vars(cls)
    names = tuple(own.get("__annotations__", ()))
    defaults = tuple(own[n] for n in names if n in own)
    if names:
        def field_setup(obj, *fields, _set=object.__setattr__):
            for name, value in zip(names, fields):
                _set(obj, name, value)

        def __repr__(self):
            body = ", ".join(f"{n}={v!r}" for n, v in zip(names, self._fields))
            return f"{type(self).__qualname__}({body})"

        def __setattr__(self, name, value):
            raise AttributeError(f"cannot assign to field {name!r}")

        def __delattr__(self, name):
            raise AttributeError(f"cannot delete field {name!r}")

        def __replace__(self, **changes):
            return type(self)(*[changes.pop(n, v) for n, v in zip(names, self._fields)],
                              **changes)

        cls.__repr__, cls.__replace__ = __repr__, __replace__
        cls.__setattr__, cls.__delattr__ = __setattr__, __delattr__
        cls._key = cls._order = cls._text = None
    elif "_setup" in own:
        (_, *names), defaults = _parameters(cls._setup), ()
    else:
        raise TypeError(f"{cls.__qualname__}: neither annotated fields nor a _setup")
    keyed = [names.index(n) for n in own.get("_key_fields", names)]
    leaf = "_form" in own

    def key_fields(self):
        fields = self._fields
        return tuple(fields[i] for i in keyed)

    if leaf:
        derive = cls._form
    else:
        def derive(self, name):
            return _field_key(key_fields(self), name)

    def key(self):
        if self._key is None:
            object.__setattr__(self, "_key", derive(self, "key"))
        return self._key

    def order(self):
        if self._order is None:
            object.__setattr__(self, "_order", derive(self, "order"))
        return self._order

    def key_text(self):
        if self._text is None:
            text = field_text(self.key() if leaf else key_fields(self))
            object.__setattr__(self, "_text", text)
        return self._text

    cls.key, cls.order, cls.key_text = key, order, key_text
    setup = cls._setup if "_setup" in own else field_setup
    if "_canonical" in own:
        canonical, arity = cls._canonical, -1
    else:
        canonical, arity = _binder(cls.__qualname__, names, defaults), len(names)

    def drop(ref):
        if table.get(ref.key) is ref:
            del table[ref.key]

    def __new__(c, *args, **kwargs):
        # one argument per field and no keywords: the call is bound already
        fields = args if len(args) == arity and not kwargs else canonical(*args, **kwargs)
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
