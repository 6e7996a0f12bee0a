"""The hash/equality contract of the hash-consed value classes.

Each of the eleven frozen value classes of the atlas and groupoid layers,
and `AffineMap`, `Interval`, `Polygon` and `Region`, is interned over all
of its fields: equal values are one object, so equality and the hash are
those of identity.  Over the fixture catalog, its structure-functor
images, both depth-2 universes and the squares their BF3 check chooses,
two values are equal exactly when their content is equal, equal values
hash alike and are one object, and a value survives a trip through its
canonical JSON with its hash.

The `key()` of an annotated value is the key of its fields
(`memo._field_key`).  Two classes narrow theirs with `_key_fields`, which
omit on purpose what `pullback_square`'s chart names, the saved
choice-table order and the benchmark's count of Morita tests never needed:
the endpoints and the certificate of a morphism, and the endpoints of a
groupoid morphism.  So the keys of 2-cells and natural transformations,
which hold those, omit them too.  The content key below adds them, so that
it is exactly what equality compares.  The order key `order()`, which the
canonical sorts read, orders every value as its `key()` does, and the key
text `key_text()` is `repr(key())`.
"""

import copy
import gc
import importlib
import itertools
import pickle
import pkgutil
import weakref
from collections import defaultdict
from fractions import Fraction

import pytest

import orbatlas
from orbatlas import cli
from orbatlas import fractions as frc
from orbatlas import fred as frd
from orbatlas import memo
from orbatlas.atlas import (
    WORD_BOUND,
    Atlas,
    ChangeOfCharts,
    Chart,
    Classification,
    Morphism,
    PEntry,
    TwoCell,
    classify_morphism,
)
from orbatlas.fixtures import ATLASES, MORPHISMS, TRIV_SHIFTED, catalog_2cells
from orbatlas.geometry import (
    AffineMap,
    Germ,
    Interval,
    PartialAffineIso,
    Polygon,
    Region,
    aff1,
)
from orbatlas.groupoid import ArrowFamily, GroupoidMorphism, NatTransf, PresentedGroupoid
from test_catalog_golden import _values as catalog_values
from test_memo import memo_cache

COMPLETE_KEY = (Chart, ChangeOfCharts, PartialAffineIso, Atlas, PEntry, ArrowFamily,
                PresentedGroupoid)
CLASSES = COMPLETE_KEY + (Morphism, TwoCell, GroupoidMorphism, NatTransf)


def content(x):
    if isinstance(x, COMPLETE_KEY):
        return x.key()
    if isinstance(x, Morphism):
        cert = None if x.certificate is None else x.certificate.key()
        return (x.source.key(), x.target.key(), x.key(), cert)
    if isinstance(x, GroupoidMorphism):
        return (content(x.source), content(x.target), x.key())
    if isinstance(x, TwoCell):
        return (content(x.source_morphism), content(x.target_morphism),
                tuple((cid, tuple((r.key(), ch.key()) for r, ch in items))
                      for cid, items in x.patches))
    if isinstance(x, NatTransf):
        return (content(x.source_morphism), content(x.target_morphism),
                tuple((p, tuple((r.key(), fid) for r, fid in items))
                      for p, items in x.assignments))
    raise TypeError(type(x).__name__)


def _collect(values, classes=CLASSES):
    """Every value of `classes` (by default the eleven) reachable from
    `values` through the fields of interned values and tuples, by class,
    each object once."""
    by_class, seen = defaultdict(list), set()
    stack = list(values)
    while stack:
        x = stack.pop()
        if isinstance(x, tuple):
            stack.extend(x)
        elif isinstance(x, classes) and id(x) not in seen:
            seen.add(id(x))
            by_class[type(x)].append(x)
            stack.extend(x._fields)
    return by_class


@pytest.fixture(scope="module")
def top_level():
    atlases = dict(ATLASES, TRIV_SHIFTED=TRIV_SHIFTED)
    out = list(atlases.values()) + list(MORPHISMS.values()) + list(catalog_2cells().values())
    out += [frd.fred0(a) for a in atlases.values()]
    out += [frd.fred1(m) for m in MORPHISMS.values()]
    out += [frd.fred2(c, WORD_BOUND) for c in catalog_2cells().values()]
    for instance in ("atlas", "groupoid"):
        ops, uni = cli._builtin_universe(instance, WORD_BOUND)
        out += [o for _, o in uni.objects] + [c for _, c in uni.cells]
    return out


@pytest.fixture(scope="module")
def by_class(top_level):
    squares = []
    for instance in ("atlas", "groupoid"):
        ops, uni = cli._builtin_universe(instance, WORD_BOUND)
        table = frc.ChoiceTable()
        assert frc.check_bf(ops, 3, uni, table).ok
        squares += [x for square in table.entries.values() for x in square]
    return _collect(top_level + squares)


def test_every_class_is_covered(by_class):
    assert set(by_class) == set(CLASSES)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_equal_exactly_when_content_is_equal(by_class, cls):
    groups = defaultdict(list)
    for x in by_class[cls]:
        groups[content(x)].append(x)
    reps = []
    for members in groups.values():
        first = members[0]
        reps.append(first)
        for x in members[1:]:
            assert x == first and not x != first
            assert hash(x) == hash(first)
    clashes = [(a, b) for a, b in itertools.combinations(reps, 2) if a == b or not a != b]
    assert clashes == []


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_equal_values_have_equal_keys(by_class, cls):
    by_value = defaultdict(set)
    for x in by_class[cls]:
        by_value[x].add(x.key())
    assert all(len(keys) == 1 for keys in by_value.values())
    if cls in COMPLETE_KEY:
        by_key = defaultdict(set)
        for x in by_value:
            by_key[x.key()].add(x)
        assert all(len(xs) == 1 for xs in by_key.values())


# The order keys that five classes wrote by hand before `interned` gave
# every annotated class the key of its fields; each restated all fields.
def _reference_key(x):
    if isinstance(x, Chart):
        return (x.cid, _reference_key(x.domain), tuple(map(_reference_key, x.group)))
    if isinstance(x, ChangeOfCharts):
        return (x.src, x.dst, _reference_key(x.iso))
    if isinstance(x, Atlas):
        return (tuple(map(_reference_key, x.charts)), tuple(map(_reference_key, x.generators)))
    if isinstance(x, PEntry):
        return (_reference_key(x.change), _reference_key(x.nu))
    if isinstance(x, PartialAffineIso):
        return (_reference_key(x.map), _reference_key(x.dom))
    return x.key()


@pytest.mark.parametrize("cls", (Chart, ChangeOfCharts, Atlas, PEntry, PartialAffineIso),
                         ids=lambda c: c.__name__)
def test_field_keys_are_the_reference_keys(by_class, cls):
    """Over the catalog, both depth-2 universes and the BF3 squares, the
    key of the fields is the hand-written key, in value and in `repr`, and
    it is built once per value."""
    assert cls.key.__module__ == "orbatlas.memo"
    for x in by_class[cls]:
        k, ref = x.key(), _reference_key(x)
        assert k == ref and repr(k) == repr(ref)
        assert x.key() is k


def test_morphism_keys_collide_but_values_do_not(by_class):
    # the reason for the content key: emb_T_M and incl_M_MR o emb_T_M
    incl_emb = frc.atlas_ops().compose1(MORPHISMS["incl_M_MR"], MORPHISMS["emb_T_M"])
    assert incl_emb.key() == MORPHISMS["emb_T_M"].key()
    assert incl_emb != MORPHISMS["emb_T_M"]


def test_recertified_and_reannotated_values_are_other_values(by_class):
    for m in by_class[Morphism]:
        other = m.__replace__(certificate=m.target if m.certificate is None else None)
        assert other != m and not other == m
    for g in by_class[PresentedGroupoid]:
        other = g.__replace__(annotation=ATLASES["TRIV"] if g.annotation is None else None)
        assert other != g and not other == g


def test_a_recertified_morphism_has_its_own_entries():
    """`leg1_MR_M` without its certificate is still a refinement, through
    the merge of its ends; it is another key of the classification memo and
    of a choice table, and its square is another square."""
    w = MORPHISMS["leg1_MR_M"]
    bare = w.__replace__(certificate=None)
    assert bare != w
    memo.clear()
    assert classify_morphism(w, WORD_BOUND) == classify_morphism(bare, WORD_BOUND)
    assert set(memo_cache(classify_morphism)) == {(w, WORD_BOUND), (bare, WORD_BOUND)}
    ops, table, f = frc.atlas_ops(WORD_BOUND), frc.ChoiceTable(), MORPHISMS["flip_M"]
    square = frc.chosen_square(ops, table, f, w)
    bare_square = frc.chosen_square(ops, table, f, bare)
    assert set(table.entries) == {(f, w), (f, bare)}
    assert bare_square != square and bare_square == ops.square(f, bare)


def test_canonical_json_round_trip_keeps_value_and_hash(top_level):
    for x in top_level:
        again = cli.parse(cli.serialize(x))
        assert again == x and hash(again) == hash(x)


# -- equal values are one object ----------------------------------------------

GEOMETRY = (AffineMap, Interval, Polygon, Region)
INTERNED = CLASSES + GEOMETRY


def _content_or_key(x):
    return x.key() if isinstance(x, GEOMETRY) else content(x)


def test_every_interned_class_is_covered():
    """The interned classes of the package are the fifteen above, and the
    germs, classifications, spans and fraction cells checked below."""
    found = set()
    for module in pkgutil.iter_modules(orbatlas.__path__):
        mod = importlib.import_module(f"orbatlas.{module.name}")
        found |= {c for c in vars(mod).values() if isinstance(c, type) and "_interned" in vars(c)}
    assert found == set(INTERNED) | {Germ, Classification, frc.Span, frc.FractionCell}


def test_catalog_values_come_back_as_themselves():
    """Every value of the catalog snapshot, spans and fraction cells
    included, is the object that its canonical JSON parses to."""
    values = catalog_values()
    assert {frc.Span, frc.FractionCell} <= {type(v) for v in values.values()}
    assert [name for name, v in values.items() if cli.loads(cli.dumps(v)) is not v] == []


def test_key_texts_are_the_reprs_of_the_keys():
    """Every value of the catalog snapshot, spans and fraction cells
    included, and every interned value inside it: `key_text()` is
    `repr(key())`, built once per value."""
    classes = INTERNED + (Germ, Classification, frc.Span, frc.FractionCell)
    found = _collect(catalog_values().values(), classes)
    assert set(INTERNED) | {frc.Span, frc.FractionCell} <= set(found)
    for xs in found.values():
        for x in xs:
            assert x.key_text() == repr(x.key()), x
            assert x.key_text() is x.key_text()


@pytest.mark.parametrize("cls", INTERNED, ids=lambda c: c.__name__)
def test_order_keys_sort_as_keys(by_class, cls):
    """Over the values of each class, a sort by `order()` is the sort by
    `key()`, ties included, and `order()` is built once per value."""
    values = _collect([x for xs in by_class.values() for x in xs], INTERNED)[cls]
    assert len(values) > 1
    by_key, by_order = sorted(values, key=cls.key), sorted(values, key=cls.order)
    assert [id(x) for x in by_order] == [id(x) for x in by_key]
    assert all(x.order() is x.order() for x in values)


def test_germs_and_classifications_are_interned():
    g = Germ((Fraction(1, 2),), aff1(-1))
    assert Germ((Fraction(1, 2),), map=aff1(-1)) is g
    assert pickle.loads(pickle.dumps(g)) is g and g.__replace__() is g
    for m in MORPHISMS.values():
        c = classify_morphism(m, WORD_BOUND)
        assert Classification(c.label, c.notes, c.witness) is c
        assert pickle.loads(pickle.dumps(c)) is c and c.__replace__() is c


# A constructor call of each class that sorts or merges its parts, with
# those parts reversed or passed as a dict: the constructor is the one
# path to a value, so it finds the value itself.
PERMUTED = {
    Chart: lambda c: Chart(c.cid, c.domain, c.group[::-1]),
    Atlas: lambda a: Atlas(a.charts[::-1], a.generators[::-1]),
    Morphism: lambda m: Morphism(m.source, m.target, reversed(m.chart_map), dict(m.lifts[::-1]),
                                 m.entries[::-1], m.certificate),
    TwoCell: lambda c: TwoCell(c.source_morphism, c.target_morphism,
                               {cid: items[::-1] for cid, items in c.patches[::-1]}),
    PresentedGroupoid: lambda g: PresentedGroupoid(dict(g.pieces[::-1]), g.families[::-1],
                                                   g.annotation),
    GroupoidMorphism: lambda psi: GroupoidMorphism(psi.source, psi.target,
                                                   dict(psi.object_map[::-1]),
                                                   dict(psi.family_map[::-1])),
    NatTransf: lambda a: NatTransf(a.source_morphism, a.target_morphism,
                                   {p: items[::-1] for p, items in a.assignments[::-1]}),
}


@pytest.mark.parametrize("cls", INTERNED, ids=lambda c: c.__name__)
def test_equal_values_are_one_object(by_class, cls):
    """Over the catalog, its structure-functor images, both depth-2
    universes, the catalog 2-cells and the squares of one BF3 pass: objects
    with equal content are one object, so `a == b` is `a is b`; pickling,
    copying, an empty `replace` and a constructor call with the parts in
    another order (PERMUTED) give back the object itself.  So does a call
    of a class without `_canonical` with its fields, by position (taken as
    they are) or by keyword (bound)."""
    values = _collect([x for xs in by_class.values() for x in xs], INTERNED)[cls]
    assert values
    by_content = defaultdict(list)
    for x in values:
        by_content[_content_or_key(x)].append(x)
    assert all(len(xs) == 1 for xs in by_content.values())
    names = _field_names(cls)
    for x in values:
        assert pickle.loads(pickle.dumps(x)) is x
        assert copy.copy(x) is x and copy.deepcopy(x) is x
        if cls not in GEOMETRY:
            assert x.__replace__() is x
        if cls in PERMUTED:
            assert PERMUTED[cls](x) is x
        if "_canonical" not in vars(cls):
            assert cls(*x._fields) is x
            assert cls(**dict(zip(names, x._fields))) is x


def _field_names(cls):
    """The fields of an interned class: its annotations, or else the
    parameters of its `_setup` after `self`."""
    if "__annotations__" in vars(cls):
        return tuple(cls.__annotations__)
    code = cls._setup.__code__
    return code.co_varnames[1:code.co_argcount]


@pytest.mark.parametrize("cls", INTERNED, ids=lambda c: c.__name__)
def test_values_hash_by_identity(by_class, cls):
    """Equal values are one object, so the hash is the identity hash,
    computed in C, and no value stores a hash of its own."""
    assert cls.__hash__ is object.__hash__ and cls.__eq__ is object.__eq__
    values = _collect([x for xs in by_class.values() for x in xs], INTERNED)[cls]
    assert values
    for x in values:
        assert hash(x) == object.__hash__(x)
        assert not hasattr(x, "_hash")


def test_canonical_pieces_are_a_fixed_point(by_class):
    """A region's pieces are in canonical form, so the constructor given
    them, as a tuple or a list, finds the region itself: over the values
    above and unions of disjoint pieces."""
    regions = _collect([x for xs in by_class.values() for x in xs], INTERNED)[Region]
    regions += [Region.interval(2, 3).union(Region.interval(0, 1)),
                Region.interval(0, 1).union(Region.interval(1, 2)).union(Region.interval(3, 5)),
                Region.polygon([(2, 0), (3, 0), (2, 1)]).union(
                    Region.polygon([(0, 0), (1, 0), (1, 1), (0, 1)]))]
    assert [len(r.pieces) for r in regions[-3:]] == [2, 3, 2]
    for r in regions:
        assert Region(r.dim, r.pieces) is r and Region(r.dim, list(r.pieces)) is r


def test_a_dropped_value_leaves_its_table():
    """The tables hold their values weakly: once the last holder drops a
    value, it leaves its class's table, and nothing dead stays behind."""
    m = aff1(7919, Fraction(1, 7919))
    r = Region.interval(Fraction(1, 7919), Fraction(2, 7919))
    ch = ChangeOfCharts("leak0", "leak1", PartialAffineIso(m, r))
    classes = (AffineMap, Region, PartialAffineIso, ChangeOfCharts)
    alive = [weakref.ref(x) for x in (m, r, ch.iso, ch)]
    gc.collect()
    sizes = [len(cls._interned) for cls in classes]
    del m, r, ch
    gc.collect()
    assert [ref() for ref in alive] == [None] * 4
    assert [len(cls._interned) for cls in classes] == [n - 1 for n in sizes]
    assert all(ref() is not None for cls in classes for ref in cls._interned.values())


def test_a_fraction_field_and_an_int_field_are_equal_keys():
    """`Fraction(1) == 1` with equal hashes, so a map built from a
    `Fraction` integer form finds the map built from ints."""
    one = AffineMap((1,), (0,), 1)
    assert one is AffineMap.identity(1)
    assert AffineMap((Fraction(1),), (Fraction(0),), Fraction(1)) is one
    assert one._m == (1,) and type(one._m[0]) is int
