"""The derived forms that each value builds once.

- The key text `key_text()` of a value is built once from the key texts
  of its fields, and is `repr(key())` exactly.  The chart names of
  `pullback_square` hash the key texts of the fields of the two
  morphisms, so no chart id moves, and the built-in md5 gives hashlib's
  digest.
- The lookups of atlases, morphisms, 2-cells, groupoids and closures read indexes
  built once per value; each gives what a scan of the value gives, an
  unknown id raises as before, and a lookup that may find several items
  returns a tuple, which no caller can change.
- The key, the order key and the key text of generated maps, intervals,
  polygons and regions are the forms built from their integer fields,
  and a sort by `order()` is the sort by `key()`.
"""

import hashlib
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbatlas import atlas as atl
from orbatlas import fractions as frc
from orbatlas import fred as frd
from orbatlas.atlas import WORD_BOUND, Morphism
from orbatlas.fixtures import ATLASES, EXPECTED_CLASS, MORPHISMS, TRIV_SHIFTED, catalog_2cells
from orbatlas.geometry import AffineMap, Interval, Polygon, Region, _leaf

OBJECTS = sorted(ATLASES.items()) + [("TRIV_SHIFTED", TRIV_SHIFTED)]


@pytest.fixture(scope="module")
def atlas_cells():
    """The catalog morphisms, the cells of the depth-2 atlas universe and
    the cells of that construction applied to the depth-2 universe."""
    ops = frc.atlas_ops(WORD_BOUND)
    depth2 = frc.depth2_universe(ops, OBJECTS, sorted(MORPHISMS.items()))
    again = frc.depth2_universe(ops, OBJECTS, depth2.cells)
    assert len(again.cells) == 68
    cells = [m for _, m in sorted(MORPHISMS.items())]
    cells += [m for _, m in depth2.cells] + [m for _, m in again.cells]
    return list(dict.fromkeys(cells))


@pytest.fixture(scope="module")
def groupoid_universe():
    ops = frc.groupoid_ops(WORD_BOUND)
    objects = [(n, frd.fred0(a, WORD_BOUND)) for n, a in OBJECTS]
    cells = [(n, frd.fred1(m, WORD_BOUND)) for n, m in sorted(MORPHISMS.items())]
    uni = frc.depth2_universe(ops, objects, cells)
    groupoids = [g for _, g in uni.objects]
    groupoids += [g for _, psi in uni.cells for g in (psi.source, psi.target)]
    return list(dict.fromkeys(groupoids)), [psi for _, psi in uni.cells]


def _atlases(cells):
    out = [a for _, a in OBJECTS]
    out += [a for m in cells for a in (m.source, m.target, m.certificate) if a is not None]
    return list(dict.fromkeys(out))


# -- the key text of a morphism ------------------------------------------------

def _check_key_text(x):
    assert x.key_text() == repr(x.key())
    assert x.key_text() is x.key_text()


def test_key_text_is_the_repr_of_the_key(atlas_cells):
    for m in atlas_cells:
        _check_key_text(m)
        for _, lift in m.lifts:
            _check_key_text(lift)
        for e in m.entries:
            _check_key_text(e)
            for piece in e.change.dom.pieces + e.nu.dom.pieces:
                _check_key_text(piece)


def test_key_text_of_short_tuples():
    """A morphism with one lift and one entry, whose tuples print a
    trailing comma, and one with none."""
    iv = Region.interval(0, 1)
    a = atl.Atlas([atl.Chart("U", iv, [])])
    ident = atl.ChangeOfCharts.make("U", "U", AffineMap.identity(1), iv)
    one = Morphism(a, a, {"U": "U"}, {"U": AffineMap.identity(1)}, [atl.PEntry(ident, ident)])
    empty = atl.Atlas([])
    none = Morphism(empty, empty, {}, {}, [])
    for m in (one, none):
        _check_key_text(m)


@pytest.fixture(scope="module")
def bf3_squares():
    """The squares that BF3 chooses over the depth-2 atlas universe, by
    their pair (f, w)."""
    ops = frc.atlas_ops(WORD_BOUND)
    table = frc.ChoiceTable()
    universe = frc.depth2_universe(ops, OBJECTS, sorted(MORPHISMS.items()))
    assert frc.check_bf(ops, 3, universe, table).ok
    assert len(table.entries) == 164
    return table.entries


def test_key_text_of_every_bf3_pair(bf3_squares):
    for f, w in bf3_squares:
        _check_key_text(f)
        _check_key_text(w)


def test_pullback_chart_token_is_the_md5_of_the_key_repr(bf3_squares):
    """Each chart id of the middle of a BF square of the depth-2 atlas
    universe ends in the first 6 hex digits of the md5 of
    `repr((f.key(), w.key(), bound))`, then its index in the middle."""
    for (f, w), (d, *_) in bf3_squares.items():
        tok = hashlib.md5(repr((f.key(), w.key(), WORD_BOUND)).encode()).hexdigest()[:6]
        ends = sorted(c.cid.rsplit("|", 1)[1] for c in d.charts)
        assert ends == sorted(f"{tok}{i}" for i in range(len(d.charts)))


def test_morphism_keys_are_built_once(atlas_cells, groupoid_universe):
    for m in atlas_cells[:10] + groupoid_universe[1][:10]:
        assert m.key() is m.key()


# -- the lookup indexes --------------------------------------------------------

def test_chart_lookup_is_the_scan(atlas_cells):
    for a in _atlases(atlas_cells):
        for cid in a.chart_ids():
            assert a.chart(cid) is [c for c in a.charts if c.cid == cid][0]
        with pytest.raises(KeyError) as err:
            a.chart("no such chart")
        assert err.value.args == ("no chart 'no such chart'",)


def test_morphism_lookups_are_the_scans(atlas_cells):
    for m in atlas_cells:
        for cid, j in m.chart_map:
            assert m.chart_image(cid) == j
        for cid, lift in m.lifts:
            assert m.lift(cid) is lift
        for what in (m.chart_image, m.lift):
            with pytest.raises(KeyError) as err:
                what("no such chart")
            assert err.value.args == ("no such chart",)
        families = {(e.change.src, e.change.dst, e.change.map) for e in m.entries}
        families.add(("no such chart", "no such chart", AffineMap.identity(m.source.dim)))
        for src, dst, g in families:
            got = m.entries_with(src, dst, g)
            assert isinstance(got, tuple)
            assert got == tuple(e for e in m.entries if e.change.src == src
                                and e.change.dst == dst and e.change.map == g)


def _two_cells(atlas_cells, groupoid_universe):
    """The catalog 2-cells, the identity 2-cells of the cells of both depth-2
    universes (the groupoid ones through `fred_inverse`) and the 2-cells of
    the pullback squares of the catalog morphisms along its refinements."""
    ms = [m for _, m in sorted(MORPHISMS.items())]
    refinements = [m for n, m in sorted(MORPHISMS.items()) if EXPECTED_CLASS[n] == "refinement"]
    morphisms = atlas_cells + [frd.fred_inverse(psi) for psi in groupoid_universe[1]]
    cells = list(catalog_2cells().values()) + [atl.identity_2cell(m) for m in morphisms]
    cells += [atl.pullback_square(f, w, WORD_BOUND)[3] for f in ms for w in refinements
              if f.target == w.target and f.is_etale()]
    return list(dict.fromkeys(cells))


def test_patch_lookup_is_the_scan(atlas_cells, groupoid_universe):
    cells = _two_cells(atlas_cells, groupoid_universe)
    assert len(cells) > 100
    for cell in cells:
        for cid in cell.source_morphism.source.chart_ids() + ("no such chart",):
            got = cell.patches_at(cid)
            assert got is dict(cell.patches).get(cid, ())
            assert got is cell.patches_at(cid)


def test_groupoid_lookups_are_the_scans(groupoid_universe):
    groupoids, _ = groupoid_universe
    for g in groupoids:
        for f in g.families:
            assert g.family(f.fid) is f
        with pytest.raises(KeyError) as err:
            g.family("no such family")
        assert err.value.args == ("no family 'no such family'",)
        pids = g.piece_ids() + ("no such piece",)
        for src, dst in itertools.product(pids, repeat=2):
            got = g.families_between(src, dst)
            assert isinstance(got, tuple)
            assert got == tuple(f for f in g.families if f.src == src and f.dst == dst)
        keys = {(f.src, f.dst, f.map) for f in g.families}
        keys.add(("no such piece", pids[0], AffineMap.identity(g.dim)))
        for src, dst, m in keys:
            got = g.families_with(src, dst, m)
            assert isinstance(got, tuple)
            assert got == tuple(f for f in g.families
                                if f.src == src and f.dst == dst and f.map == m)


def test_closure_items_are_sorted_once(atlas_cells):
    for a in _atlases(atlas_cells):
        cl = atl.closure(a, WORD_BOUND)
        scan = tuple((src, dst, m, by_map[m])
                     for (src, dst), by_map in sorted(cl.families.items())
                     for m in sorted(by_map, key=lambda m: m.key()))
        assert cl.items() == scan
        assert cl.items() is cl.items()


# -- the forms of generated geometry values ------------------------------------

_rational = st.builds(Fraction, st.integers(min_value=-12, max_value=12),
                      st.integers(min_value=1, max_value=6))
_points = st.lists(st.tuples(_rational, _rational), min_size=3, max_size=6)
_polygons = _points.map(Polygon.make).filter(lambda p: p is not None)


@st.composite
def _maps(draw):
    n = draw(st.sampled_from((1, 2)))
    row = st.lists(_rational, min_size=n, max_size=n)
    return AffineMap.make(draw(st.lists(row, min_size=n, max_size=n)), draw(row))


@st.composite
def _intervals(draw):
    lo, hi = sorted(draw(st.lists(_rational, min_size=2, max_size=2, unique=True)))
    return Interval.make(lo, hi)


def _form(x, entry):
    """The key (entry `Fraction`) or the order key (entry `_leaf`) of a
    geometry value, built from its integer fields."""
    if isinstance(x, AffineMap):
        (m, o, d), n = x._fields, x.dim
        return (tuple(tuple(entry(e, d) for e in m[i * n:(i + 1) * n]) for i in range(n)),
                tuple(entry(e, d) for e in o))
    if isinstance(x, Interval):
        lo, hi, d = x._fields
        return entry(lo, d), entry(hi, d)
    if isinstance(x, Polygon):
        v, d = x._fields
        return tuple((entry(a, d), entry(b, d)) for a, b in v)
    return x.dim, tuple(_form(p, entry) for p in x.pieces)


def _check_forms(values):
    for x in values:
        assert x.key() == _form(x, Fraction) and x.key() is x.key()
        assert x.order() == _form(x, _leaf) and x.order() is x.order()
        assert x.key_text() == repr(x.key()) and x.key_text() is x.key_text()
    by_key = sorted(values, key=lambda x: x.key())
    assert [id(x) for x in sorted(values, key=lambda x: x.order())] == [id(x) for x in by_key]


@settings(max_examples=150, deadline=None)
@given(st.lists(_maps(), min_size=1, max_size=6))
def test_map_forms(maps):
    _check_forms(maps)
    for m in maps:
        assert m.key() == (m.matrix, m.offset)


@settings(max_examples=150, deadline=None)
@given(st.lists(_intervals(), min_size=1, max_size=6))
def test_interval_forms(intervals):
    _check_forms(intervals)
    for i in intervals:
        assert i.key() == (i.lo, i.hi) and i.lo < i.hi


@settings(max_examples=100, deadline=None)
@given(st.lists(_polygons, min_size=1, max_size=4))
def test_polygon_forms(polygons):
    _check_forms(polygons)
    for p in polygons:
        assert p.key() is p.verts


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_region_forms(data):
    """Regions of 1-4 pieces given in shuffled order: the pieces of a
    region are in `key()` order, and its pieces shuffled give the region
    itself.  So do the given pieces shuffled in dimension 1; in the plane
    the greedy merge of three overlapping pieces may depend on their
    order, so there a shuffled call gives a region of the same set."""
    regions = []
    for _ in range(data.draw(st.integers(min_value=1, max_value=4))):
        dim = data.draw(st.sampled_from((1, 2)))
        pieces = data.draw(st.lists(_intervals() if dim == 1 else _polygons,
                                    min_size=1, max_size=4))
        r = Region(dim, data.draw(st.permutations(pieces)))
        assert list(r.pieces) == sorted(r.pieces, key=lambda p: p.key())
        assert Region(dim, data.draw(st.permutations(r.pieces))) is r
        again = Region(dim, data.draw(st.permutations(pieces)))
        assert again is r if dim == 1 else again.same_set(r)
        _check_forms(list(r.pieces))
        regions.append(r)
    _check_forms(regions)
