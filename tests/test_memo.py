import ast
import functools
import gc
import importlib
import itertools
import os
import pickle
import pkgutil
import subprocess
import sys
from math import gcd
from pathlib import Path

import pytest

import orbatlas
from orbatlas import atlas as atl
from orbatlas import cli
from orbatlas import fixtures as fx
from orbatlas import fractions as frc
from orbatlas import fred as frd
from orbatlas import geometry as geo
from orbatlas import groupoid as gpd
from orbatlas import memo as memo_mod
from orbatlas.atlas import WORD_BOUND, classify_morphism
from orbatlas.fixtures import (
    ATLASES,
    EXPECTED_CLASS,
    MIRROR_REF,
    MORPHISMS,
    TRIV_SHIFTED,
    catalog_2cells,
)
from orbatlas.geometry import AffineMap, PartialAffineIso, Region, aff1, aff2
from orbatlas.memo import memo
from orbatlas.gred import EquivalenceReport
from orbatlas.reports import ComposabilityError, NoSuchCellError, Report, UndecidedError, Violation

SRC = Path(memo_mod.__file__).parent


def memo_cache(fn):
    """The cache dict of a memoized function: the one dict among the objects
    it refers to that is not its `__dict__`."""
    found = [x for x in gc.get_referents(fn) if type(x) is dict and x is not fn.__dict__]
    assert len(found) == 1, fn
    return found[0]


def _size(fn):
    return fn.cache_info().currsize


def _misses(fn):
    return fn.cache_info().misses


def _is_memo(x):
    return any(x is fn for fn in memo_mod._MEMOS)


def _counting(results):
    """A memoized function returning results[x], and the list of the
    arguments it was really called with."""
    seen = []

    @memo
    def f(x):
        seen.append(x)
        return results[x]
    return f, seen


def test_false_and_none_are_hits():
    f, seen = _counting({0: False, 1: None, 2: 0})
    for _ in range(3):
        assert [f(0), f(1), f(2)] == [False, None, 0]
    assert seen == [0, 1, 2]


def test_counters_count():
    f, seen = _counting({0: "a", 1: "b"})
    for x in (0, 1, 0, 0, 1):
        f(x)
    assert f.cache_info() == (3, 2, None, 2)
    assert sorted(memo_cache(f).values()) == ["a", "b"]


def test_a_default_is_refused():
    """One value of the arguments is one key only when every call passes
    every argument: a parameter with a default is refused when decorated."""
    def g(x, k=1):
        return x * k

    def h(x, k=None):
        return x

    for fn in (g, h):
        with pytest.raises(TypeError):
            memo(fn)


def _keyword_calls(path, names):
    """The calls in a module of a function named in `names` that pass a
    keyword argument."""
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call) and node.keywords:
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name in names:
                out.append(f"{path.name}:{node.lineno}")
    return out


def _memo_names():
    for module in pkgutil.iter_modules(orbatlas.__path__):
        importlib.import_module(f"orbatlas.{module.name}")
    return {fn.__name__ for fn in memo_mod._MEMOS if fn.__module__.startswith("orbatlas.")}


def test_memoized_functions_are_called_by_position():
    """A keyword argument would be a second entry for the same arguments."""
    names = _memo_names()
    assert {"closure", "compose", "_fred0", "preimage_under"} <= names
    found = [hit for path in sorted(SRC.glob("*.py")) for hit in _keyword_calls(path, names)]
    assert found == []


def test_keyword_call_guard_sees_both_forms(tmp_path):
    p = tmp_path / "m.py"
    p.write_text("closure(a, bound=4)\nx = m.compose(other=g)\nclosure(a, 4)\n"
                 "m.compose(g)\nfred0(a, bound=4)\n")
    assert _keyword_calls(p, {"closure", "compose"}) == ["m.py:1", "m.py:2"]


BAD_CALLS = [((1, 2, 3, 4), {}), ((1,), {}), ((1, 2), {"z": 3}), ((1, 2), {"x": 3}),
             ((), {"y": 2, "k": 3})]


@pytest.mark.parametrize("args, kwargs", BAD_CALLS)
def test_a_bad_call_raises_as_a_direct_call(args, kwargs):
    """Too many arguments, a missing one, an unknown keyword and a keyword
    that clashes with a positional argument raise `TypeError`, as in a
    direct call, and store nothing."""
    def g(x, y, k):
        return x + y + k

    memoized = memo(g)
    with pytest.raises(TypeError):
        g(*args, **kwargs)
    with pytest.raises(TypeError):
        memoized(*args, **kwargs)
    assert _size(memoized) == 0 and not memo_cache(memoized)


def test_a_bad_value_call_raises():
    """The same four faults in a call of a value class without
    `_canonical`, whose fields are bound like a function's parameters, and
    an unknown field given to `__replace__`."""
    iso = PartialAffineIso(aff1(1), Region.interval(0, 1))
    ch = atl.ChangeOfCharts("M", "M", iso)
    assert atl.ChangeOfCharts("M", dst="M", iso=iso) is ch
    for args, kwargs in ((("M", "M", iso, iso), {}), (("M",), {}),
                         (("M", "M"), {"z": iso}), (("M", "M"), {"src": "M"})):
        with pytest.raises(TypeError):
            atl.ChangeOfCharts(*args, **kwargs)
    with pytest.raises(TypeError):
        ch.__replace__(z=3)


def test_fields_are_the_annotations_or_the_setup_parameters():
    """A class without annotations has the parameters of its `_setup` as
    fields, bound like a function's; a class with neither annotations nor
    `_setup` is refused when decorated, and so is a `_setup` that takes
    `*args`."""
    iv = geo.Interval(1, 3, 2)
    assert geo.Interval(1, d=2, hi=3) is iv and iv._fields == (1, 3, 2)
    assert geo.Polygon(((0, 0), (1, 0), (0, 1)), 1)._fields == (((0, 0), (1, 0), (0, 1)), 1)
    with pytest.raises(TypeError):
        geo.Interval(1, 3)

    class Plain:
        def __init__(self, x):
            self.x = x

    class Starred:
        def _setup(self, *parts):
            pass

    for cls in (Plain, Starred):
        with pytest.raises(TypeError):
            memo_mod.interned(cls)


def test_only_plain_parameters_are_accepted():
    def star(*args):
        return args

    def stars(x, **kwargs):
        return x

    def keyword_only(x, *, k=1):
        return x

    def positional_only(x, /):
        return x

    for fn in (star, stars, keyword_only, positional_only):
        with pytest.raises(TypeError):
            memo(fn)


def _generating_imports(path):
    """The imports of `dataclasses` and `inspect` in a module, which load
    code generation (`ast`, `dis`, `tokenize`) into every process."""
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        if any(n.split(".")[0] in ("dataclasses", "inspect") for n in names):
            out.append(f"{path.name}:{node.lineno}")
    return out


def test_src_imports_neither_dataclasses_nor_inspect():
    found = [hit for path in sorted(SRC.glob("*.py")) for hit in _generating_imports(path)]
    assert found == []


def test_import_guard_sees_both(tmp_path):
    p = tmp_path / "m.py"
    p.write_text("import os, inspect\nfrom dataclasses import dataclass\n"
                 "def f():\n    import inspect.x\n")
    assert _generating_imports(p) == ["m.py:1", "m.py:2", "m.py:4"]


def test_importing_the_cli_loads_no_code_generation():
    """A fresh interpreter (without `site`, so that nothing else loads them)
    that imports the command line has none of these modules."""
    code = ("import sys, orbatlas.cli\n"
            "print(sorted({'dataclasses', 'inspect', 'ast', 'dis'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(SRC.parent)), check=True)
    assert out.stdout == "[]\n"


def test_fred0_and_fred1_share_an_entry_whatever_the_bound_spelling():
    """The bound of `fred0` and `fred1` defaults; each is a plain function
    that passes it on, by position, to its memo."""
    a, m = ATLASES["MIRROR"], MORPHISMS["flip_M"]
    memo_mod.clear()
    assert frd.fred0(a) is frd.fred0(a, WORD_BOUND) is frd.fred0(a, bound=WORD_BOUND)
    assert list(memo_cache(frd._fred0)) == [(a, WORD_BOUND)]
    memo_mod.clear()
    assert frd.fred1(m) is frd.fred1(m, WORD_BOUND) is frd.fred1(m, bound=WORD_BOUND)
    assert list(memo_cache(frd._fred1)) == [(m, WORD_BOUND)]
    assert not _is_memo(frd.fred0) and not _is_memo(frd.fred1)


def test_exceptions_are_not_stored():
    calls = []

    @memo
    def h(x):
        calls.append(x)
        raise ValueError(x)
    for _ in range(2):
        with pytest.raises(ValueError):
            h(1)
    assert calls == [1, 1]


def test_clear_empties_every_memo():
    f, seen = _counting({0: "a"})
    f(0)
    f(0)
    classify_morphism(MORPHISMS["flip_M"], WORD_BOUND)
    assert _size(f) and _size(classify_morphism)
    memo_mod.clear()
    assert not memo_cache(f) and not memo_cache(classify_morphism)
    assert f.cache_info() == (0, 0, None, 0) == classify_morphism.cache_info()
    f(0)
    assert seen == [0, 0]


def _module_level_empty_dicts(path):
    tree = ast.parse(path.read_text())
    out = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            value = node.value
        elif isinstance(node, ast.AnnAssign):
            value = node.value
        else:
            continue
        empty_literal = isinstance(value, ast.Dict) and not value.keys
        empty_call = (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
                      and value.func.id == "dict" and not value.args and not value.keywords)
        if empty_literal or empty_call:
            out.append(f"{path.name}:{node.lineno}")
    return out


def test_no_ad_hoc_module_level_memo_dicts():
    found = [hit for path in sorted(SRC.glob("*.py"))
             for hit in _module_level_empty_dicts(path)]
    assert found == [], f"module-level memo dicts; use orbatlas.memo instead: {found}"


def test_guard_sees_a_memo_dict(tmp_path):
    p = tmp_path / "m.py"
    p.write_text("_x_memo = {}\n_y: dict = dict()\nTABLE = {1: 2}\n")
    assert _module_level_empty_dicts(p) == ["m.py:1", "m.py:2"]


def test_groupoid_is_w_matches_is_morita():
    gops = frc.groupoid_ops()
    objects = [(n, frd.fred0(a)) for n, a in sorted(ATLASES.items())]
    objects.append(("TRIV_SHIFTED", frd.fred0(TRIV_SHIFTED)))
    cells = [(n, frd.fred1(m)) for n, m in sorted(MORPHISMS.items())]
    uni = frc.depth2_universe(gops, objects, cells)
    for name, m in uni.cells:
        expected = gpd.is_morita(m).ok
        assert gops.is_w(m) is expected, name
        assert gops.is_w(m) is expected, name


# -- the atlas memos are exact ------------------------------------------------
#
# A certificate is a field of its morphism, so the arguments of a memoized
# atlas construction hold every certificate that its result carries or reads.
# The inputs are the catalog morphisms, the atlases at their ends, their
# identity 2-cells and the catalog 2-cells.

def _atlas_cases():
    b = WORD_BOUND
    ms = [m for _, m in sorted(MORPHISMS.items())]
    ends = list(dict.fromkeys([m.source for m in ms] + [m.target for m in ms]))
    refinements = [m for n, m in sorted(MORPHISMS.items())
                   if EXPECTED_CLASS[n] == "refinement"]
    etale = [m for m in ms if m.is_etale()]
    cells = list(dict.fromkeys([atl.identity_2cell(m) for m in ms]
                               + list(catalog_2cells().values())))
    return {
        "closure": [(a, b) for a in ends],
        "identity_morphism": [(a, b) for a in ends],
        "identity_2cell": [(m,) for m in ms],
        "compose_morphisms": [(g, f) for g in ms for f in ms if f.target == g.source],
        "classify_morphism": [(m, b) for m in ms],
        # parallel pairs, each morphism with itself among them, and a pair
        # that is not parallel
        "equal_morphisms": [(f, g) for f in ms for g in ms
                            if (f.source, f.target) == (g.source, g.target)]
        + [(ms[0], ms[1])],
        "equal_2cells": [
            (sigma, delta) for sigma in cells for delta in cells
            if sigma.source_morphism.source == delta.source_morphism.source
            and sigma.source_morphism.target == delta.source_morphism.target],
        "pullback_square": [(f, w, b) for f in ms for w in refinements
                            if f.target == w.target],
        "unique_2cell_open_embeddings": [
            (w1, w2, b) for w1 in etale for w2 in etale
            if (w1.source, w1.target) == (w2.source, w2.target)],
        "horizontal_compose": [
            (xi, delta) for xi in cells for delta in cells
            if delta.source_morphism.target == xi.source_morphism.source],
        # parallel cells: about half do not compose, raise and store nothing
        "vertical_compose": [
            (sigma, delta) for sigma in cells for delta in cells
            if sigma.source_morphism.source == delta.source_morphism.source
            and sigma.source_morphism.target == delta.source_morphism.target],
    }


ATLAS_MEMOS = sorted(_atlas_cases())


def _certificates(x):
    """Every certificate inside a value, in order: a morphism's own, those of
    the two morphisms of a 2-cell, those of the items of a tuple."""
    if isinstance(x, atl.Morphism):
        return [x.certificate]
    if isinstance(x, atl.TwoCell):
        return _certificates(x.source_morphism) + _certificates(x.target_morphism)
    if isinstance(x, tuple):
        return [c for item in x for c in _certificates(item)]
    return []


def _copy(x):
    """A value-equal copy, certificates included, that shares no object."""
    return x if isinstance(x, int) else cli.loads(cli.dumps(x))


def _recertified(x, pick):
    """`x` with the certificate changed of each morphism inside it, in the
    order of `_certificates`, for which `pick()` is true, and nothing else:
    none for a certified morphism, the merge of its ends for one without."""
    if isinstance(x, atl.Morphism):
        if not pick():
            return x
        alt = None if x.certificate is not None else atl.merge_atlases(x.source, x.target)
        return x.__replace__(certificate=alt)
    if isinstance(x, atl.TwoCell):
        return x.__replace__(source_morphism=_recertified(x.source_morphism, pick),
                             target_morphism=_recertified(x.target_morphism, pick))
    if isinstance(x, tuple):
        return tuple(_recertified(item, pick) for item in x)
    return x


def _outcome(fn, args):
    try:
        return fn(*args), None
    except (ComposabilityError, NoSuchCellError, UndecidedError) as e:
        return None, type(e)


def _value(x):
    """`x`, or the parts of a `Pseudogroup`, which has no value equality."""
    if isinstance(x, atl.Pseudogroup):
        return x.families, x.complete, x.overflowed
    return x


def _exact(fn, args):
    """The memoized call gives what the bare function gives, certificates
    included, or raises as it does and stores nothing."""
    want, want_error = _outcome(fn.__wrapped__, args)
    size = _size(fn)
    got, error = _outcome(fn, args)
    assert error is want_error, (fn.__name__, args)
    if error is not None:
        assert _size(fn) == size
        return None
    assert _value(got) == _value(want), (fn.__name__, args)
    assert _certificates(got) == _certificates(want), (fn.__name__, args)
    return got


def test_every_atlas_memo_is_covered():
    memoized = sorted(name for name, v in vars(atl).items()
                      if _is_memo(v) and v.__module__ == atl.__name__)
    assert memoized == ATLAS_MEMOS


@pytest.mark.parametrize("name", ATLAS_MEMOS)
def test_atlas_memo_is_exact(name):
    memo_mod.clear()
    fn = getattr(atl, name)
    cases = _atlas_cases()[name]
    assert cases
    for args in cases:
        got = _exact(fn, args)
        if got is None:
            continue
        # a value-equal copy finds the stored object
        assert fn(*map(_copy, args)) is got, (name, args)
        # another certificate on any one morphism is another entry, and its
        # result carries that certificate
        for k in range(len(_certificates(args))):
            count = itertools.count()
            other = _recertified(args, lambda: next(count) == k)
            assert _certificates(other) != _certificates(args)
            misses = _misses(fn)
            again = _exact(fn, other)
            assert _misses(fn) == misses + 1, (name, args, k)
            assert again is None or fn(*other) is again


def test_undecided_identity_is_never_stored():
    """MIRROR_REF's closure is incomplete at word bound 1 and complete at 2."""
    memo_mod.clear()
    for _ in range(2):
        with pytest.raises(UndecidedError):
            atl.identity_morphism(MIRROR_REF, 1)
    ident = atl.identity_morphism(MIRROR_REF, WORD_BOUND)
    assert ident.certificate == MIRROR_REF
    for _ in range(2):
        with pytest.raises(UndecidedError):
            atl.identity_morphism(MIRROR_REF, 1)
    assert list(memo_cache(atl.identity_morphism)) == [(MIRROR_REF, WORD_BOUND)]


def test_clear_empties_the_atlas_memos():
    cases = _atlas_cases()
    fns = [getattr(atl, name) for name in ATLAS_MEMOS]
    for fn, name in zip(fns, ATLAS_MEMOS):
        fn(*cases[name][0])
    assert all(_size(fn) for fn in fns)
    memo_mod.clear()
    assert not any(memo_cache(fn) for fn in fns)
    assert all(fn.cache_info() == (0, 0, None, 0) for fn in fns)


def test_clear_empties_the_closure():
    """The closure is in the one memo: `clear()` empties it, and the next
    call computes the same families again."""
    first = atl.closure(MIRROR_REF, WORD_BOUND)
    assert atl.closure(MIRROR_REF, WORD_BOUND) is first
    hits, misses, maxsize, size = atl.closure.cache_info()
    assert hits >= 1 and misses >= 1 and maxsize is None and size >= 1
    memo_mod.clear()
    assert atl.closure.cache_info() == (0, 0, None, 0)
    again = atl.closure(MIRROR_REF, WORD_BOUND)
    assert again is not first and _value(again) == _value(first)
    assert atl.closure.cache_info() == (0, 1, None, 1)


# -- the geometry memos are exact ---------------------------------------------
#
# The geometry values are their own keys: equal values have equal integer
# forms and hashes.  The inputs are the catalog chart domains, the regions
# and maps of the closure families, and the lifts of the catalog morphisms;
# each memo also meets calls that raise.

def _geometry_values():
    atlases = [a for _, a in sorted(ATLASES.items())] + [TRIV_SHIFTED]
    families = [(m, r) for a in atlases
                for _, _, m, r in atl.closure(a, WORD_BOUND).items()]
    regions = [c.domain for a in atlases for c in a.charts] + [r for _, r in families]
    maps = [m for m, _ in families] + [L for _, m in sorted(MORPHISMS.items())
                                       for _, L in m.lifts]
    return list(dict.fromkeys(regions)), list(dict.fromkeys(maps))


def _geometry_cases():
    """name -> (argument tuples, (argument tuple, error) pairs that raise)."""
    regions, maps = _geometry_values()
    same = [(r, m) for r in regions for m in maps if r.dim == m.dim]
    line, square = Region.interval(0, 1), Region.polygon([(0, 0), (1, 0), (0, 1)])
    mismatch = geo.DimensionMismatchError
    leaves = {(e // g, m._d // g) for m in maps for e in m._m + m._o for g in [gcd(e, m._d)]}
    return {
        # reduced rationals, each a miss of its own; an unreduced one is a
        # second miss that finds the reduced leaf
        "_leaf": (sorted(leaves), [((1, 0), ZeroDivisionError), ((0, 0), ZeroDivisionError)]),
        "AffineMap.compose": (
            [(g, f) for g in maps for f in maps if g.dim == f.dim],
            [((aff1(2), aff2([[1, 0], [0, 1]])), mismatch)]),
        "AffineMap.inverse": (
            [(m,) for m in maps],
            [((aff1(0),), geo.NonInvertibleMapError),
             ((aff2([[1, 2], [2, 4]]),), geo.NonInvertibleMapError)]),
        "Region.intersect": (
            [(r, q) for r in regions for q in regions if r.dim == q.dim],
            [((line, square), mismatch)]),
        "Region.union": (
            [(r, q) for r in regions for q in regions if r.dim == q.dim],
            [((line, square), mismatch)]),
        "PartialAffineIso.inverse": (
            [(PartialAffineIso.make(m, r),) for r, m in same],
            [((PartialAffineIso(aff1(0), line),), geo.NonInvertibleMapError),
             ((PartialAffineIso(aff2([[1, 2], [2, 4]]), square),), geo.NonInvertibleMapError)]),
        "Region.image": (
            same,
            [((line, aff1(0, 1)), geo.NonInvertibleMapError),
             ((square, aff2([[1, 1], [1, 1]])), geo.NonInvertibleMapError),
             ((line, aff2([[1, 0], [0, 1]])), mismatch)]),
        "Region.preimage_under": (
            [(r, m, t) for r, m in same for t in regions if t.dim == r.dim],
            [((line, aff1(1), square), mismatch),
             ((line, aff2([[1, 0], [0, 1]]), line), mismatch)]),
        "Region._covers_witness": (
            [(r, parts) for r in regions
             for parts in [()] + [(q,) for q in regions if q.dim == r.dim]
             + [tuple(q for q in regions if q.dim == r.dim and q != r)]],
            [((line, (square,)), mismatch)]),
    }


GEOMETRY_MEMOS = sorted(_geometry_cases())


def _geometry_memo(name):
    return functools.reduce(getattr, name.split("."), geo)


def _geometry_objects(x):
    """The geometry objects inside a value: regions, their pieces, maps and
    partial isomorphisms."""
    if isinstance(x, tuple):
        return [o for item in x for o in _geometry_objects(item)]
    if isinstance(x, PartialAffineIso):
        return [x, *_geometry_objects((x.map, x.dom))]
    if isinstance(x, Region):
        return [x, *x.pieces]
    return [x] if isinstance(x, AffineMap) else []


def test_every_geometry_memo_is_covered():
    memoized = sorted(f"{cname}.{name}" for cname, cls in vars(geo).items()
                      if isinstance(cls, type) and cls.__module__ == geo.__name__
                      for name, v in vars(cls).items() if _is_memo(v))
    memoized += sorted(name for name, v in vars(geo).items() if _is_memo(v))
    assert memoized == GEOMETRY_MEMOS


@pytest.mark.parametrize("name", GEOMETRY_MEMOS)
def test_geometry_memo_is_exact(name):
    fn = _geometry_memo(name)
    cases, raising = _geometry_cases()[name]
    assert cases
    # after the cases: building them runs closures, which fill these memos
    memo_mod.clear()
    for args in cases:
        misses = _misses(fn)
        got = fn(*args)
        assert _misses(fn) == misses + 1, (name, args)
        assert got == fn.__wrapped__(*args), (name, args)
        # equal values are one object: a pickled copy is the original, maps,
        # regions and their pieces alike, and it finds the stored object
        copy = pickle.loads(pickle.dumps(args))
        ids = [[id(o) for o in _geometry_objects(x)] for x in (args, copy)]
        assert ids[0] == ids[1]
        assert fn(*copy) is got, (name, args)
    for args, error in raising:
        size = _size(fn)
        for call in (fn.__wrapped__, fn, fn):
            with pytest.raises(error):
                call(*args)
        assert _size(fn) == size, (name, args)


# -- the inverse change, structure-functor, Morita and groupoid memos are exact
#
# The inputs are the catalog atlases and morphisms, the generators of the
# atlases and the changes of the entries of the morphisms, the `fred1` images
# of the morphisms, their identity transformations and the `fred2` images of
# the catalog 2-cells.  A changed part of the key is a new entry: the target
# chart of a change, the bound of `fred0`, the certificate of `fred1`'s
# morphism, and the annotation of a source groupoid for the rest.

def _other_cases():
    b = WORD_BOUND
    ms = [m for _, m in sorted(MORPHISMS.items())]
    images = [frd.fred1(m, b) for m in ms]
    nts = list(dict.fromkeys([gpd.identity_nat_transf(psi) for psi in images]
                             + [frd.fred2(c, b) for c in catalog_2cells().values()]))
    entries = dict.fromkeys(e for m in ms for e in m.entries)
    changes = dict.fromkeys([g for _, a in sorted(ATLASES.items()) for g in a.generators]
                            + [c for e in entries for c in (e.change, e.nu)])
    return {
        "atlas.ChangeOfCharts.inverse": [(c,) for c in changes],
        "fred._fred0": [(a, b) for _, a in sorted(ATLASES.items())] + [(TRIV_SHIFTED, b)],
        "fred._fred1": [(m, b) for m in ms],
        "fred.fred_inverse": [(psi,) for psi in images],
        "groupoid.equal_gpd_morphisms": [
            (phi, psi) for phi in images for psi in images
            if (phi.source, phi.target) == (psi.source, psi.target)],
        "groupoid.equal_nat_transfs": [
            (beta, alpha) for beta in nts for alpha in nts
            if beta.source_morphism.source == alpha.source_morphism.source
            and beta.source_morphism.target == alpha.source_morphism.target],
        "fractions._gpd_is_w": [(psi,) for psi in images],
        "groupoid.identity_nat_transf": [(psi,) for psi in images],
        "groupoid.horizontal_compose_nt": [
            (xi, delta) for xi in nts for delta in nts
            if delta.source_morphism.target == xi.source_morphism.source],
    }


def _regrouped(x, g, h):
    """`x` with the groupoid `g` replaced by `h` wherever it occurs: as an end
    of a groupoid morphism, in the morphisms of a transformation and in the
    items of a tuple."""
    if x is g:
        return h
    if isinstance(x, gpd.GroupoidMorphism):
        return x.__replace__(source=_regrouped(x.source, g, h),
                             target=_regrouped(x.target, g, h))
    if isinstance(x, gpd.NatTransf):
        return x.__replace__(source_morphism=_regrouped(x.source_morphism, g, h),
                             target_morphism=_regrouped(x.target_morphism, g, h))
    if isinstance(x, tuple):
        return tuple(_regrouped(item, g, h) for item in x)
    return x


def _another_atlas(atlas):
    """An atlas with the same charts and pseudogroup and another value: the
    identity of its first chart is one more generator."""
    c = atlas.charts[0]
    ident = atl.ChangeOfCharts(c.cid, c.cid, PartialAffineIso(AffineMap.identity(c.dim), c.domain))
    return atl.Atlas(atlas.charts, atlas.generators + (ident,))


def _changed(name, args):
    if name == "atlas.ChangeOfCharts.inverse":
        # the same germs into a renamed chart
        c = args[0]
        return (c.__replace__(dst=c.dst + "'"),)
    if name == "fred._fred0":
        return args[0], args[1] + 1
    if name == "fred._fred1":
        return _recertified(args, lambda: True)
    # the source groupoid of the last argument, annotated with another atlas
    last = args[-1]
    g = last.source_morphism.source if isinstance(last, gpd.NatTransf) else last.source
    return _regrouped(args, g, g.__replace__(annotation=_another_atlas(g.annotation)))


OTHER_MEMOS = sorted(_other_cases())


def _memo_named(name):
    module, attr = name.split(".", 1)
    return functools.reduce(getattr, attr.split("."), importlib.import_module(f"orbatlas.{module}"))


@pytest.mark.parametrize("name", OTHER_MEMOS)
def test_other_memo_is_exact(name):
    fn = _memo_named(name)
    cases = _other_cases()[name]
    # after the cases: `fred1` fills the structure-functor memos
    memo_mod.clear()
    for args in cases:
        misses = _misses(fn)
        got = _exact(fn, args)
        assert _misses(fn) == misses + 1, (name, args)
        assert fn(*pickle.loads(pickle.dumps(args))) is got, (name, args)
        other = _changed(name, args)
        assert other != args
        _exact(fn, other)
        assert _misses(fn) == misses + 2, (name, args)


def test_fred_inverse_needs_presenting_atlases():
    """A groupoid annotated with no atlas, or with a chart cover, presents no
    atlas: `fred_inverse` raises and stores nothing."""
    memo_mod.clear()
    psi = frd.fred1(MORPHISMS["flip_M"], WORD_BOUND)
    g = psi.source
    for note in (None, tuple(g.pieces)):
        other = _regrouped(psi, g, g.__replace__(annotation=note))
        for _ in range(2):
            with pytest.raises(frd.UnsupportedGroupoidError):
                frd.fred_inverse(other)
    assert _size(frd.fred_inverse) == 0 and not memo_cache(frd.fred_inverse)
    assert frd.fred_inverse(psi) is MORPHISMS["flip_M"]
    assert list(memo_cache(frd.fred_inverse)) == [(psi,)]


def test_every_memo_is_covered():
    """Every memo of the package, in every module, has exactness cases."""
    for module in pkgutil.iter_modules(orbatlas.__path__):
        importlib.import_module(f"orbatlas.{module.name}")
    memoized = sorted(f"{fn.__module__.removeprefix('orbatlas.')}.{fn.__qualname__}"
                      for fn in memo_mod._MEMOS if fn.__module__.startswith("orbatlas."))
    covered = ([f"atlas.{name}" for name in ATLAS_MEMOS]
               + [f"geometry.{name}" for name in GEOMETRY_MEMOS] + OTHER_MEMOS)
    assert memoized == sorted(covered)


def test_covers_witness_reads_a_generator_once():
    """Parts given as a generator give the answer of the same parts as a
    list.  Each call starts from empty memos, so that the list's answer is
    not simply found again."""
    whole = Region.interval(-1, 1)
    left, right, wide = Region.interval(-1, 0), Region.interval(0, 1), Region.interval(-1, 2)
    for parts, want in (([left, right], (0,)), ([left, wide], None), ([wide], None),
                        ([], (0,))):
        memo_mod.clear()
        assert whole.covers_witness(p for p in parts) == want
        memo_mod.clear()
        assert whole.covers_witness(parts) == want
        memo_mod.clear()
        assert whole.covers(p for p in parts) is (want is None)


# -- no memo stores a mutable container ---------------------------------------

MUTABLE = (list, dict, set)
RECORDS = (Violation, Report, frc.Universe, EquivalenceReport, frc.TwoCatOps)


def _mutable_inside(x, seen):
    """The first list, dict or set found inside a value: the value itself, the
    items of its tuples and frozensets, the fields of its interned values
    (the pieces of a region included) and the attributes of its records.  `seen` maps the id of each value walked to
    the value, which keeps it alive, so that no later value takes its id."""
    if id(x) in seen:
        return None
    seen[id(x)] = x
    if isinstance(x, MUTABLE):
        return x
    if isinstance(x, (tuple, frozenset)):
        items = x
    elif "_interned" in vars(type(x)):
        items = x._fields
    elif isinstance(x, RECORDS):
        items = vars(x).values()
    else:
        return None
    for item in items:
        found = _mutable_inside(item, seen)
        if found is not None:
            return found
    return None


def test_no_memo_stores_a_mutable_container():
    """Over the catalog, its `fred1` images, the BF3 checks of one slice of
    the depth-2 atlas universe, as a `bf-atlas` benchmark job cuts it, and
    the BF3 and BF4 checks of the same slice of the groupoid universe (its
    BF4 composes transformations horizontally)."""
    memo_mod.clear()
    morphisms, _ = fx._build_morphisms()
    catalog_2cells()
    for _, m in sorted(morphisms.items()):
        frd.fred1(m, WORD_BOUND)
    for instance, axioms in (("atlas", (3,)), ("groupoid", (3, 4))):
        ops, uni = cli._builtin_universe(instance, WORD_BOUND)
        table = frc.ChoiceTable()
        for axiom in axioms:
            assert frc.check_bf(ops, axiom, frc.Universe(uni.objects, uni.cells[::8]),
                                table).ok
    stored = [fn for fn in memo_mod._MEMOS if memo_cache(fn)]
    names = {fn.__qualname__ for fn in stored}
    assert {"Region.preimage_under", "_fred1", "pullback_square",
            "fred_inverse", "horizontal_compose_nt"} <= names
    for fn in stored:
        seen = {}
        for entry in memo_cache(fn).items():
            found = _mutable_inside(entry, seen)
            assert found is None, (fn.__qualname__, type(found).__name__)


def test_mutable_guard_sees_a_list():
    assert _mutable_inside((1, frc.Universe((2, [3]), ())), {}) == [3]
    assert _mutable_inside(frc.Universe({"a": 1}, ()), {}) == {"a": 1}
    assert _mutable_inside(Violation("X", "x", (1, [2])), {}) == [2]
    assert _mutable_inside(((), set()), {}) == set()
    assert _mutable_inside((Region.interval(0, 1), frozenset({2})), {}) is None
