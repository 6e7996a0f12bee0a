"""The hash/equality contract of the hash-consed value classes.

Each of the eleven frozen value classes of the atlas and groupoid layers,
and `AffineMap` and `Region`, is interned over all of its fields: its hash
is computed once, and equal values are one object.  Over the fixture
catalog, its structure-functor images, both depth-2 universes and the
squares their BF3 check chooses, two values are equal exactly when their
content is equal, equal values hash alike and are one object, and a value
survives a trip through its canonical JSON with its hash.

`key()` omits what `pullback_square`'s chart names and the canonical sort
orders never needed: the endpoints and the certificate of a morphism, the
ids of arrow families and the annotation of a groupoid.  The content key
below adds them, so that it is exactly what equality compares.
"""

import copy
import dataclasses
import gc
import itertools
import pickle
import weakref
from collections import defaultdict
from fractions import Fraction

import pytest

from orbatlas import cli
from orbatlas import fractions as frc
from orbatlas import fred as frd
from orbatlas import memo
from orbatlas.atlas import (
    WORD_BOUND,
    Atlas,
    ChangeOfCharts,
    Chart,
    Morphism,
    PEntry,
    TwoCell,
    classify_morphism,
)
from orbatlas.fixtures import ATLASES, MORPHISMS, TRIV_SHIFTED, catalog_2cells
from orbatlas.geometry import AffineMap, PartialAffineIso, Region, aff1
from orbatlas.groupoid import ArrowFamily, GroupoidMorphism, NatTransf, PresentedGroupoid

COMPLETE_KEY = (Chart, ChangeOfCharts, PartialAffineIso, Atlas, PEntry)
CLASSES = COMPLETE_KEY + (Morphism, TwoCell, ArrowFamily, PresentedGroupoid,
                          GroupoidMorphism, NatTransf)


def content(x):
    if isinstance(x, COMPLETE_KEY):
        return x.key()
    if isinstance(x, ArrowFamily):
        return (x.fid, x.key())
    if isinstance(x, PresentedGroupoid):
        ann = x.annotation
        if isinstance(ann, Atlas):
            ann = ann.key()
        elif ann is not None:  # a cover: (piece id, region) pairs
            ann = tuple((pid, r.key()) for pid, r in ann)
        return (x.key(), tuple(f.fid for f in x.families), ann)
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
    `values` through dataclass fields and tuples, by class, each object
    once."""
    by_class, seen = defaultdict(list), set()
    stack = list(values)
    while stack:
        x = stack.pop()
        if isinstance(x, tuple):
            stack.extend(x)
        elif isinstance(x, classes) and id(x) not in seen:
            seen.add(id(x))
            by_class[type(x)].append(x)
            if dataclasses.is_dataclass(x):
                stack.extend(getattr(x, f.name) for f in dataclasses.fields(x))
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


@pytest.mark.parametrize("cls", [c for c in CLASSES if hasattr(c, "key")],
                         ids=lambda c: c.__name__)
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


def test_morphism_keys_collide_but_values_do_not(by_class):
    # the reason for the content key: emb_T_M and incl_M_MR o emb_T_M
    incl_emb = frc.atlas_ops().compose1(MORPHISMS["incl_M_MR"], MORPHISMS["emb_T_M"])
    assert incl_emb.key() == MORPHISMS["emb_T_M"].key()
    assert incl_emb != MORPHISMS["emb_T_M"]


def test_recertified_and_reannotated_values_are_other_values(by_class):
    for m in by_class[Morphism]:
        other = dataclasses.replace(m, certificate=m.target if m.certificate is None else None)
        assert other != m and not other == m
    for g in by_class[PresentedGroupoid]:
        other = dataclasses.replace(g, annotation=ATLASES["TRIV"] if g.annotation is None
                                    else None)
        assert other != g and not other == g


def test_a_recertified_morphism_has_its_own_entries():
    """`leg1_MR_M` without its certificate is still a refinement, through
    the merge of its ends; it is another key of the classification memo and
    of a choice table, and its square is another square."""
    w = MORPHISMS["leg1_MR_M"]
    bare = dataclasses.replace(w, certificate=None)
    assert bare != w
    memo.clear()
    assert classify_morphism(w, WORD_BOUND) == classify_morphism(bare, WORD_BOUND)
    assert set(classify_morphism.table) == {(w, WORD_BOUND), (bare, WORD_BOUND)}
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

INTERNED = CLASSES + (AffineMap, Region)


def _content_or_key(x):
    return x.key() if isinstance(x, (AffineMap, Region)) else content(x)


@pytest.mark.parametrize("cls", INTERNED, ids=lambda c: c.__name__)
def test_equal_values_are_one_object(by_class, cls):
    """Over the catalog, its structure-functor images, both depth-2
    universes, the catalog 2-cells and the squares of one BF3 pass: objects
    with equal content are one object, so `a == b` is `a is b`; pickling,
    copying and an empty `replace` give back the object itself."""
    values = _collect([x for xs in by_class.values() for x in xs], INTERNED)[cls]
    assert values
    by_content = defaultdict(list)
    for x in values:
        by_content[_content_or_key(x)].append(x)
    assert all(len(xs) == 1 for xs in by_content.values())
    for x in values:
        assert pickle.loads(pickle.dumps(x)) is x
        assert copy.copy(x) is x and copy.deepcopy(x) is x
        if dataclasses.is_dataclass(x):
            assert dataclasses.replace(x) is x


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
