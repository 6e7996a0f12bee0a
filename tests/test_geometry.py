from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbatlas.geometry import (
    EmptyRegionError,
    NonInvertibleMapError,
    PartialAffineIso,
    Region,
    aff1,
    aff2,
    germ_of,
    interior_point,
)

TRI = Region.polygon([(1, 0), (0, 1), (-1, -1)])
ROT3 = aff2([[0, -1], [1, -1]])


def iv(a, b):
    return Region.interval(a, b)


def test_interval_intersection():
    assert iv(0, 1).intersect(iv(F(1, 2), 2)) == iv(F(1, 2), 1)
    assert iv(0, 1).intersect(iv(1, 2)).is_empty()


def test_components_disjoint_pieces():
    r = iv(0, 1).union(iv(2, 3))
    assert r.components() == [iv(0, 1), iv(2, 3)]
    # touching open intervals do not merge: 1 is in neither piece
    s = iv(0, 1).union(iv(1, 2))
    assert len(s.pieces) == 2
    assert len(s.components()) == 2


def test_overlapping_intervals_merge_canonically():
    assert iv(0, 1).union(iv(F(1, 2), 2)) == iv(0, 2)
    assert iv(-1, 1) == iv(-1, F(1, 4)).union(iv(0, 1))


def test_covers_exact_on_boundary_points():
    assert iv(-1, 1).covers([iv(-1, F(1, 4)), iv(0, 1)])
    # the single point 0 is missing here
    assert not iv(-1, 1).covers([iv(-1, 0), iv(0, 1)])
    assert iv(-1, 1).covers_witness([iv(-1, 0), iv(0, 1)]) == (F(0),)


def test_difference_is_open_interior():
    assert iv(0, 2).difference(iv(0, 1)) == iv(1, 2)
    assert iv(0, 1).difference(iv(0, 1)).is_empty()
    d = iv(0, 3).difference(iv(1, 2))
    assert d == iv(0, 1).union(iv(2, 3))


def test_interior_point_deterministic():
    assert interior_point(iv(0, 1)) == (F(1, 2),)
    r = iv(-1, 1).union(iv(2, 3))
    assert interior_point(r) == interior_point(Region(1, r.pieces))
    assert interior_point(TRI) == (F(0), F(0))


def test_triangle_rotation_symmetry():
    assert TRI.image(ROT3).same_set(TRI)
    assert TRI.image(ROT3) == TRI  # canonical form is identical
    assert ROT3.compose(ROT3).compose(ROT3).is_identity()


def test_polygon_intersection_and_difference():
    sq = Region.polygon([(0, 0), (2, 0), (2, 2), (0, 2)])
    sq2 = Region.polygon([(1, 1), (3, 1), (3, 3), (1, 3)])
    inter = sq.intersect(sq2)
    assert inter.same_set(Region.polygon([(1, 1), (2, 1), (2, 2), (1, 2)]))
    assert sq.difference(sq).is_empty()
    d = sq.difference(sq2)
    assert not d.is_empty()
    assert not d.contains_point((F(3, 2), F(3, 2)))
    assert d.contains_point((F(1, 2), F(1, 2)))


def test_polygon_covers_with_overlap():
    sq = Region.polygon([(0, 0), (2, 0), (2, 2), (0, 2)])
    left = Region.polygon([(0, 0), (F(5, 4), 0), (F(5, 4), 2), (0, 2)])
    right = Region.polygon([(F(3, 4), 0), (2, 0), (2, 2), (F(3, 4), 2)])
    assert sq.covers([left, right])
    # with a seam instead of an overlap the shared edge is uncovered
    l2 = Region.polygon([(0, 0), (1, 0), (1, 2), (0, 2)])
    r2 = Region.polygon([(1, 0), (2, 0), (2, 2), (1, 2)])
    w = sq.covers_witness([l2, r2])
    assert w is not None and w[0] == 1


def test_covers_of_own_components():
    r = iv(0, 1).union(iv(2, 3))
    assert r.covers(r.components())
    assert TRI.covers(TRI.components())


def test_preimage_under_noninvertible_map():
    sq = Region.polygon([(0, 0), (2, 0), (2, 2), (0, 2)])
    proj = aff2([[1, 0], [0, 0]])  # collapse y
    strip = Region.polygon([(F(1, 2), 0), (1, 0), (1, 2), (F(1, 2), 2)])
    pre = sq.preimage_under(proj, strip)
    # points with x in (1/2, 1) and y=0 land inside strip? proj sends (x,y)->(x,0),
    # which is on strip's boundary, never strictly inside -> empty
    assert pre.is_empty()
    box = Region.polygon([(F(1, 2), -1), (1, -1), (1, 3), (F(1, 2), 3)])
    pre2 = sq.preimage_under(proj, box)
    assert pre2.same_set(Region.polygon([(F(1, 2), 0), (1, 0), (1, 2), (F(1, 2), 2)]))


def test_image_requires_invertible():
    with pytest.raises(NonInvertibleMapError):
        iv(0, 1).image(aff1(0))


def test_empty_region_interior_point():
    with pytest.raises(EmptyRegionError):
        Region.empty(1).interior_point()


def test_region_intersect_and_covers():
    assert iv(0, 1).intersect(iv(F(1, 2), 2)) == iv(F(1, 2), 1)
    assert iv(-1, 1).covers([iv(-1, F(1, 4)).union(iv(0, 1))])


def test_germ_rigidity_and_composition():
    ident = PartialAffineIso.make(aff1(1), iv(0, 1))
    g = germ_of(ident, (F(1, 2),))
    assert g.map.is_identity()
    mirror = PartialAffineIso.make(aff1(-1), iv(-1, 1))
    ident2 = PartialAffineIso.make(aff1(1), iv(-1, 1))
    assert germ_of(mirror, (F(0),)) != germ_of(ident2, (F(0),))
    lam1 = PartialAffineIso.make(aff1(2, 1), iv(0, 1))
    lam2 = PartialAffineIso.make(aff1(-1, 3), iv(0, 4))
    x = (F(1, 3),)
    lhs = germ_of(lam2, lam1(x)).compose(germ_of(lam1, x))
    rhs = germ_of(lam2.compose(lam1), x)
    assert lhs == rhs


rationals = st.fractions(min_value=-5, max_value=5)


@st.composite
def intervals(draw):
    a = draw(rationals)
    b = draw(rationals.filter(lambda x: x != a))
    return Region.interval(min(a, b), max(a, b))


@st.composite
def regions1(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    r = Region.empty(1)
    for _ in range(n):
        r = r.union(draw(intervals()))
    return r


@settings(max_examples=60, deadline=None)
@given(regions1())
def test_difference_with_self_is_empty(r):
    assert r.difference(r).is_empty()


@settings(max_examples=60, deadline=None)
@given(regions1())
def test_covers_components(r):
    assert r.covers(r.components())


@settings(max_examples=60, deadline=None)
@given(regions1(), regions1())
def test_intersection_subset(a, b):
    i = a.intersect(b)
    if not i.is_empty():
        assert i.covers([a]) and i.covers([b])
        assert a.union(i).same_set(a)
        assert b.union(i).same_set(b)


@settings(max_examples=60, deadline=None)
@given(regions1(), st.fractions(min_value=-3, max_value=3).filter(lambda x: x != 0), rationals)
def test_image_respects_composition(r, a, b):
    m = aff1(a, b)
    m2 = aff1(2, -1)
    assert r.image(m).image(m2) == r.image(m2.compose(m))


@settings(max_examples=40, deadline=None)
@given(regions1(), regions1())
def test_difference_then_covers(a, b):
    # the open difference together with b always covers a up to boundaries:
    # here we only check the difference stays inside a
    d = a.difference(b)
    if not d.is_empty():
        assert d.covers([a])
        assert d.intersect(b).is_empty()


coords = st.fractions(min_value=-4, max_value=4)


@st.composite
def triangles(draw):
    pts = [(draw(coords), draw(coords)) for _ in range(3)]
    r = Region.polygon(pts)
    return r


@settings(max_examples=25, deadline=None)
@given(triangles(), triangles())
def test_triangle_intersection_inside_both(a, b):
    i = a.intersect(b)
    if not i.is_empty():
        assert i.covers([a]) and i.covers([b])
        p = i.interior_point()
        assert a.contains_point(p) and b.contains_point(p)


@settings(max_examples=25, deadline=None)
@given(triangles(), triangles())
def test_triangle_difference_disjoint_from_subtrahend(a, b):
    if a.is_empty():
        return
    d = a.difference(b)
    assert d.intersect(b).is_empty()
    assert d.is_empty() or d.covers([a])
    assert a.difference(a).is_empty()


@settings(max_examples=25, deadline=None)
@given(triangles(), triangles(), triangles())
def test_triangle_union_covers_parts(a, b, c):
    u = a.union(b).union(c)
    for part in (a, b, c):
        if not part.is_empty():
            assert part.covers([u])
    assert u.covers([a, b, c])


@settings(max_examples=30, deadline=None)
@given(triangles())
def test_triangle_image_preimage_roundtrip(a):
    if a.is_empty():
        return
    m = aff2([[0, -1], [1, -1]], (F(1, 3), F(-2, 5)))
    img = a.image(m)
    assert img.image(m.inverse()) == a
    back = img.preimage_under(m.inverse(), a)
    assert back.same_set(img)
