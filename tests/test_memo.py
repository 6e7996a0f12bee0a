import ast
import dataclasses
import itertools
import pickle
from pathlib import Path

import pytest

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
from orbatlas.geometry import AffineMap, Region, aff1, aff2
from orbatlas.memo import memo
from orbatlas.reports import ComposabilityError, NoSuchCellError, UndecidedError

SRC = Path(memo_mod.__file__).parent


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
    assert (f.hits, f.misses) == (3, 2)


def test_key_is_the_arguments_with_defaults_applied():
    calls = []

    @memo
    def g(x, k=1):
        calls.append((x, k))
        return x * k
    assert g(2) == g(2, 1) == g(2, k=1) == g(x=2) == 2
    assert g(2, k=3) == g(2, 3) == 6
    assert calls == [(2, 1), (2, 3)]
    assert list(g.table) == [(2, 1), (2, 3)]


def test_fred0_and_fred1_share_an_entry_whatever_the_bound_spelling():
    a, m = ATLASES["MIRROR"], MORPHISMS["flip_M"]
    assert frd.fred0(a) is frd.fred0(a, WORD_BOUND) is frd.fred0(a, bound=WORD_BOUND)
    assert frd.fred1(m) is frd.fred1(m, WORD_BOUND) is frd.fred1(m, bound=WORD_BOUND)


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
    assert f.table and classify_morphism.table
    memo_mod.clear()
    assert not f.table and not classify_morphism.table
    assert (f.hits, f.misses) == (0, 0) == (classify_morphism.hits, classify_morphism.misses)
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
        "compose_morphisms": [(g, f) for g in ms for f in ms if f.target == g.source],
        "classify_morphism": [(m, b) for m in ms],
        "pullback_square": [(f, w, b) for f in ms for w in refinements
                            if f.target == w.target],
        "unique_2cell_open_embeddings": [
            (w1, w2, b) for w1 in etale for w2 in etale
            if (w1.source, w1.target) == (w2.source, w2.target)],
        "horizontal_compose": [
            (xi, delta) for xi in cells for delta in cells
            if delta.source_morphism.target == xi.source_morphism.source],
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
        return dataclasses.replace(x, certificate=alt)
    if isinstance(x, atl.TwoCell):
        return dataclasses.replace(x, source_morphism=_recertified(x.source_morphism, pick),
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
    size = len(fn.table)
    got, error = _outcome(fn, args)
    assert error is want_error, (fn.__name__, args)
    if error is not None:
        assert len(fn.table) == size
        return None
    assert _value(got) == _value(want), (fn.__name__, args)
    assert _certificates(got) == _certificates(want), (fn.__name__, args)
    return got


def test_every_atlas_memo_is_covered():
    memoized = sorted(name for name, v in vars(atl).items()
                      if callable(v) and hasattr(v, "table") and v.__module__ == atl.__name__)
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
            misses = fn.misses
            again = _exact(fn, other)
            assert fn.misses == misses + 1, (name, args, k)
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
    assert list(atl.identity_morphism.table) == [(MIRROR_REF, WORD_BOUND)]


def test_clear_empties_the_atlas_memos():
    cases = _atlas_cases()
    fns = [getattr(atl, name) for name in ATLAS_MEMOS]
    for fn, name in zip(fns, ATLAS_MEMOS):
        fn(*cases[name][0])
    assert all(fn.table for fn in fns)
    memo_mod.clear()
    assert not any(fn.table for fn in fns)
    assert all((fn.hits, fn.misses) == (0, 0) for fn in fns)


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
    return {
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
    cls, attr = name.split(".")
    return vars(getattr(geo, cls))[attr]


def _geometry_objects(x):
    """The geometry objects inside a value: regions, their pieces, maps."""
    if isinstance(x, tuple):
        return [o for item in x for o in _geometry_objects(item)]
    if isinstance(x, Region):
        return [x, *x.pieces]
    return [x] if isinstance(x, AffineMap) else []


def test_every_geometry_memo_is_covered():
    memoized = sorted(f"{cname}.{name}" for cname, cls in vars(geo).items()
                      if isinstance(cls, type) and cls.__module__ == geo.__name__
                      for name, v in vars(cls).items() if hasattr(v, "table"))
    memoized += sorted(name for name, v in vars(geo).items()
                       if callable(v) and hasattr(v, "table"))
    assert memoized == GEOMETRY_MEMOS


@pytest.mark.parametrize("name", GEOMETRY_MEMOS)
def test_geometry_memo_is_exact(name):
    fn = _geometry_memo(name)
    cases, raising = _geometry_cases()[name]
    assert cases
    # after the cases: building them runs closures, which fill these memos
    memo_mod.clear()
    for args in cases:
        misses = fn.misses
        got = fn(*args)
        assert fn.misses == misses + 1, (name, args)
        assert got == fn.__wrapped__(*args), (name, args)
        # equal values are one object: a pickled copy is the original, maps,
        # regions and their pieces alike, and it finds the stored object
        copy = pickle.loads(pickle.dumps(args))
        ids = [[id(o) for o in _geometry_objects(x)] for x in (args, copy)]
        assert ids[0] == ids[1]
        assert fn(*copy) is got, (name, args)
    for args, error in raising:
        size = len(fn.table)
        for call in (fn.__wrapped__, fn, fn):
            with pytest.raises(error):
                call(*args)
        assert len(fn.table) == size, (name, args)


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


def _mutable_inside(x, seen):
    """The first list, dict or set found inside a value: the value itself, the
    items of its tuples and frozensets, the fields of its dataclasses and
    the pieces of its regions.  `seen` maps the id of each value walked to
    the value, which keeps it alive, so that no later value takes its id."""
    if id(x) in seen:
        return None
    seen[id(x)] = x
    if isinstance(x, MUTABLE):
        return x
    if isinstance(x, (tuple, frozenset)):
        items = x
    elif dataclasses.is_dataclass(x) and not isinstance(x, type):
        items = [getattr(x, f.name) for f in dataclasses.fields(x)]
    elif isinstance(x, Region):
        items = x.pieces
    else:
        return None
    for item in items:
        found = _mutable_inside(item, seen)
        if found is not None:
            return found
    return None


def test_no_memo_stores_a_mutable_container():
    """Over the catalog, its `fred1` images and the BF3 checks of one slice
    of the depth-2 universe, as a `bf-atlas` benchmark job cuts it."""
    memo_mod.clear()
    morphisms, _ = fx._build_morphisms()
    catalog_2cells()
    for _, m in sorted(morphisms.items()):
        frd.fred1(m, WORD_BOUND)
    ops, uni = cli._builtin_universe("atlas", WORD_BOUND)
    assert frc.check_bf(ops, 3, frc.Universe(uni.objects, uni.cells[::8]),
                        frc.ChoiceTable()).ok
    stored = [fn for fn in memo_mod._MEMOS if fn.table]
    names = {fn.__qualname__ for fn in stored}
    assert {"Region.preimage_under", "fred1", "pullback_square"} <= names
    for fn in stored:
        seen = {}
        for entry in fn.table.items():
            found = _mutable_inside(entry, seen)
            assert found is None, (fn.__qualname__, type(found).__name__)


def test_mutable_guard_sees_a_list():
    @dataclasses.dataclass(frozen=True)
    class Box:
        items: object

    assert _mutable_inside((1, Box((2, [3]))), {}) == [3]
    assert _mutable_inside(Box({"a": 1}), {}) == {"a": 1}
    assert _mutable_inside(((), set()), {}) == set()
    assert _mutable_inside((Region.interval(0, 1), frozenset({2})), {}) is None
