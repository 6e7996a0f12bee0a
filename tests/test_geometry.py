from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from orbatlas import memo
from orbatlas.fixtures import ATLASES
from orbatlas.geometry import (
    AffineMap,
    _leaf,
    EmptyRegionError,
    NonInvertibleMapError,
    PartialAffineIso,
    Region,
    aff1,
    aff2,
    germ_of,
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
    assert iv(0, 1).interior_point() == (F(1, 2),)
    r = iv(-1, 1).union(iv(2, 3))
    assert r.interior_point() == Region(1, r.pieces).interior_point()
    assert TRI.interior_point() == (F(0), F(0))


def test_interior_point_off_agreement_lines():
    flip = aff1(-1, 1)
    assert aff1(1).agreement(flip) == (2, 1)          # x = 1 - x at 1/2 only
    assert aff1(1).agreement(aff1(1, 3)) is None      # parallel: never equal
    assert iv(0, 1).interior_point_off([aff1(1).agreement(flip)]) == (F(3, 4),)
    swap, rot = aff2([[0, 1], [1, 0]]), ROT3
    lines = [swap.agreement(aff2([[1, 0], [0, 1]])), swap.agreement(rot),
             swap.agreement(rot.compose(rot))]
    assert TRI.interior_point() == (0, 0)             # on all three lines
    x = TRI.interior_point_off(lines)
    assert TRI.contains_point(x)
    assert swap(x) not in (x, rot(x), rot(rot(x)))


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


_DOMAINS = [c.domain for a in ATLASES.values() for c in a.charts]
_coeffs = st.fractions(min_value=-1, max_value=1, max_denominator=4)


@st.composite
def containments(draw):
    """A catalog chart domain, an invertible rational map and a catalog chart
    domain of the same dimension."""
    src = draw(st.sampled_from(_DOMAINS))
    tgt = draw(st.sampled_from([d for d in _DOMAINS if d.dim == src.dim]))
    n = src.dim
    c = draw(st.lists(_coeffs, min_size=n * n, max_size=n * n))
    m = AffineMap.make([c[i * n:(i + 1) * n] for i in range(n)],
                       draw(st.lists(_coeffs, min_size=n, max_size=n)))
    assume(m.is_invertible())
    return src, m, tgt


@settings(max_examples=150, deadline=None)
@given(containments())
def test_escape_witness_agrees_with_the_image_for_invertible_maps(case):
    src, m, tgt = case
    w = src.escape_witness(m, tgt)
    assert (w is None) == src.image(m).covers([tgt])
    if w is not None:
        assert src.contains_point(w) and not tgt.contains_point(m(w))


# -- order leaves ---------------------------------------------------------------

def leaf(x):
    return _leaf(x.numerator, x.denominator)


_HUGE = 2 ** 1100
_rationals = st.one_of(
    st.fractions(),
    st.builds(F, st.integers(), st.integers(min_value=1, max_value=10 ** 30)),
    st.builds(lambda n, d: F(n * _HUGE, d), st.integers().filter(bool),
              st.integers(min_value=1, max_value=1000)),
    st.builds(lambda n: F(1, n * _HUGE), st.integers(min_value=1, max_value=1000)))
# closer than 2**-64, and zero
_NUDGES = [F(0), F(1, 2 ** 70), F(-1, 2 ** 70), F(1, 3 * 2 ** 65), F(1, _HUGE)]


def _sign(a, b):
    return (a > b) - (a < b)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_leaves_compare_as_their_rationals(data):
    """The sign of a leaf comparison is the sign of the comparison of the
    rationals, for independent rationals, rationals closer than 2**-64 and
    rationals beyond 2**1100 in size; equal rationals are one leaf, reduced
    or not."""
    x = data.draw(_rationals)
    y = data.draw(st.one_of(_rationals, st.sampled_from(_NUDGES).map(lambda t: x + t)))
    lx, ly = leaf(x), leaf(y)
    assert _sign(lx, ly) == _sign(x, y)
    assert (lx == ly) == (x == y) and (lx is ly) == (x == y)
    assert lx[1] == x and _leaf(3 * x.numerator, 3 * x.denominator) is lx


def test_close_rationals_tie_on_the_integer_and_the_fraction_decides():
    for k in (1, 2, -5, 10 ** 9, 3 * _HUGE + 1):
        lo, hi = leaf(F(k, 3)), leaf(F(k, 3) + F(1, 2 ** 70))
        assert lo[0] == hi[0] and lo < hi and not hi < lo


def test_cleared_leaves_still_compare_exactly():
    """A leaf built after `memo.clear()` is another object, and it still
    compares equal to the leaf of the same rational built before."""
    before = leaf(F(1, 3))
    memo.clear()
    after = leaf(F(1, 3))
    assert after is not before and after == before and not after < before
    assert sorted([leaf(F(2, 3)), after, leaf(F(-1, 3))]) == [
        leaf(F(-1, 3)), before, leaf(F(2, 3))]
