"""The hash/equality contract of the hash-consed value classes.

Each of the eleven frozen value classes of the atlas and groupoid layers
hashes once and compares by its compared fields.  Over the fixture catalog,
its structure-functor images, both depth-2 universes and the squares their
BF3 check chooses, two values are equal exactly when their content is
equal, equal values hash alike, and a value survives a trip through its
canonical JSON with its hash.

`key()` omits what `pullback_square`'s chart names and the canonical sort
orders never needed: the endpoints of a morphism and the ids of arrow
families.  The content key below adds them, so that it is exactly what
equality compares.
"""

import dataclasses
import itertools
from collections import defaultdict

import pytest

from orbatlas import cli
from orbatlas import fractions as frc
from orbatlas import fred as frd
from orbatlas.atlas import WORD_BOUND, Atlas, ChangeOfCharts, Chart, Morphism, PEntry, TwoCell
from orbatlas.fixtures import ATLASES, MORPHISMS, TRIV_SHIFTED, catalog_2cells
from orbatlas.geometry import PartialAffineIso
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
        return (x.key(), tuple(f.fid for f in x.families))
    if isinstance(x, Morphism):
        return (x.source.key(), x.target.key(), x.key())
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


def _collect(values):
    """Every value of the eleven classes reachable from `values` through
    fields and tuples, by class, each object once."""
    by_class, seen = defaultdict(list), set()
    stack = list(values)
    while stack:
        x = stack.pop()
        if isinstance(x, tuple):
            stack.extend(x)
        elif isinstance(x, CLASSES) and id(x) not in seen:
            seen.add(id(x))
            by_class[type(x)].append(x)
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


def test_uncompared_fields_take_no_part(by_class):
    for m in by_class[Morphism]:
        bare = dataclasses.replace(m, certificate=None)
        assert bare == m and hash(bare) == hash(m)
    for g in by_class[PresentedGroupoid]:
        bare = dataclasses.replace(g, annotation=None)
        assert bare == g and hash(bare) == hash(g)


def test_canonical_json_round_trip_keeps_value_and_hash(top_level):
    for x in top_level:
        again = cli.parse(cli.serialize(x))
        assert again == x and hash(again) == hash(x)
