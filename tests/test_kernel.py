"""Property tests of the integer geometry kernel against plain `Fraction`
formulas written out here: affine maps (compose, inverse, application,
determinant) and convex pieces and regions (clip, contains, intersect,
preimage_under, covers_witness), in dimensions 1 and 2."""

from fractions import Fraction as F

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from orbatlas.geometry import AffineMap, Polygon, Region

EXAMPLES = settings(max_examples=30, deadline=None)

small = st.fractions(min_value=-3, max_value=3, max_denominator=5)
coeff = st.integers(min_value=-4, max_value=4)


@st.composite
def maps(draw, dim):
    m = [[draw(small) for _ in range(dim)] for _ in range(dim)]
    return m, [draw(small) for _ in range(dim)]


@st.composite
def points(draw, dim):
    return tuple(draw(small) for _ in range(dim))


@st.composite
def polygons(draw):
    """A convex piece: the hull of 3-5 random points."""
    poly = Polygon.make([draw(points(2)) for _ in range(draw(st.integers(3, 5)))])
    assume(poly is not None)
    return poly


@st.composite
def regions(draw, dim):
    """A union of one or two random pieces."""
    r = Region.empty(dim)
    for _ in range(draw(st.integers(1, 2))):
        if dim == 1:
            a, b = draw(small), draw(small)
            r = r.union(Region.interval(min(a, b), max(a, b)))
        else:
            r = r.union(Region(2, [draw(polygons())]))
    assume(not r.is_empty())
    return r


# -- plain Fraction formulas --------------------------------------------------

def ref_apply(m, o, p):
    return tuple(sum(m[i][j] * p[j] for j in range(len(p))) + o[i] for i in range(len(p)))


def ref_compose(m1, o1, m2, o2):
    n = len(o1)
    m = [[sum(m1[i][k] * m2[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return m, list(ref_apply(m1, o1, o2))


def ref_det(m):
    return m[0][0] if len(m) == 1 else m[0][0] * m[1][1] - m[0][1] * m[1][0]


def ref_inverse(m, o):
    d = ref_det(m)
    if len(m) == 1:
        inv = [[1 / m[0][0]]]
    else:
        inv = [[m[1][1] / d, -m[0][1] / d], [-m[1][0] / d, m[0][0] / d]]
    return inv, [-x for x in ref_apply(inv, [0] * len(o), o)]


def rows(m):
    return tuple(tuple(F(e) for e in row) for row in m)


def halfplane(a, b, c):
    """a*x + b*y >= c with rational c as an integer halfplane."""
    return (a * c.denominator, b * c.denominator, c.numerator)


def edges(verts):
    return [(verts[i], verts[(i + 1) % len(verts)]) for i in range(len(verts))]


def side(p, q, x):
    """Twice the signed area of (p, q, x): positive when x is left of p->q."""
    return (q[0] - p[0]) * (x[1] - p[1]) - (q[1] - p[1]) * (x[0] - p[0])


def ref_inside(verts, x):
    """x strictly inside the CCW convex polygon."""
    return all(side(p, q, x) > 0 for p, q in edges(verts))


def ref_in_region(r, x):
    if r.dim == 1:
        return any(p.lo < x[0] < p.hi for p in r.pieces)
    return any(ref_inside(p.verts, x) for p in r.pieces)


def ref_clip(verts, a, b, c):
    """Sutherland-Hodgman clip to a*x + b*y >= c, then the corners of the
    result (no repeated or collinear points)."""
    s = [a * x + b * y - c for x, y in verts]
    out = []
    for (p, q), sp, sq in zip(edges(verts), s, s[1:] + s[:1]):
        if sp >= 0:
            out.append(p)
        if sp * sq < 0:
            t = sp / (sp - sq)
            out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
    pts = [p for i, p in enumerate(out) if p != out[i - 1]]
    return {pts[i] for i in range(len(pts))
            if side(pts[i - 1], pts[i], pts[(i + 1) % len(pts)]) != 0}


def probes(*regions):
    """Rational test points: every vertex, every edge midpoint and the
    centroid of every piece, and points between them."""
    out = set()
    for r in regions:
        for p in r.pieces:
            vs = p.vertices()
            c = tuple(sum(v[k] for v in vs) / len(vs) for k in range(r.dim))
            out.add(c)
            for v, w in zip(vs, vs[1:] + vs[:1]):
                out.add(v)
                out.add(tuple((v[k] + w[k]) / 2 for k in range(r.dim)))
                out.add(tuple((c[k] + 2 * v[k]) / 3 for k in range(r.dim)))
    return out


# -- affine maps ----------------------------------------------------------------

@EXAMPLES
@given(st.sampled_from([1, 2]).flatmap(lambda n: st.tuples(maps(n), maps(n), points(n))))
def test_compose_call_and_det(args):
    (m1, o1), (m2, o2), p = args
    f, g = AffineMap.make(m1, o1), AffineMap.make(m2, o2)
    m, o = ref_compose(m1, o1, m2, o2)
    fg = f.compose(g)
    assert fg.matrix == rows(m) and fg.offset == tuple(o)
    assert fg == AffineMap.make(m, o) and hash(fg) == hash(AffineMap.make(m, o))
    assert f(p) == ref_apply(m1, o1, p)
    assert fg(p) == f(g(p))
    assert f.det() == ref_det(m1)
    assert f.is_invertible() == (ref_det(m1) != 0)


@EXAMPLES
@given(st.sampled_from([1, 2]).flatmap(lambda n: st.tuples(maps(n), points(n))))
def test_inverse(args):
    (m, o), p = args
    assume(ref_det(m) != 0)
    f = AffineMap.make(m, o)
    im, io = ref_inverse(m, o)
    inv = f.inverse()
    assert inv.matrix == rows(im) and inv.offset == tuple(io)
    assert inv.compose(f).is_identity() and f.compose(inv).is_identity()
    assert inv(f(p)) == p


# -- convex pieces ----------------------------------------------------------------

@EXAMPLES
@given(polygons(), coeff, coeff, small)
def test_clip(poly, a, b, c):
    assume(a or b)
    got = poly.clip(halfplane(a, b, c))
    want = ref_clip(poly.verts, a, b, c)
    if got is None:
        assert len(want) < 3
    else:
        assert set(got.verts) == want
        assert got.verts[0] == min(got.verts) and got.measure() > 0


@EXAMPLES
@given(polygons(), points(2))
def test_contains(poly, x):
    r = Region(2, [poly])
    for y in probes(r) | {x}:
        assert poly.contains(y) == ref_inside(poly.verts, y)
        assert r.contains_point(y) == ref_inside(poly.verts, y)


# -- regions ----------------------------------------------------------------------

@EXAMPLES
@given(st.sampled_from([1, 2]).flatmap(lambda n: st.tuples(regions(n), regions(n))))
def test_intersect(args):
    r, s = args
    i = r.intersect(s)
    for x in probes(r, s):
        assert i.contains_point(x) == (ref_in_region(r, x) and ref_in_region(s, x))


@EXAMPLES
@given(st.sampled_from([1, 2]).flatmap(
    lambda n: st.tuples(regions(n), maps(n), regions(n))))
def test_preimage_under(args):
    r, (m, o), t = args
    pre = r.preimage_under(AffineMap.make(m, o), t)
    pts = probes(r, t)
    if ref_det(m) != 0:
        im, io = ref_inverse(m, o)
        pts |= {ref_apply(im, io, y) for y in probes(t)}
    for x in pts:
        assert pre.contains_point(x) == (ref_in_region(r, x)
                                         and ref_in_region(t, ref_apply(m, o, x)))


def ref_covered_1d(r, parts):
    """Exact 1-dimensional coverage: from the left end of each piece, jump
    to the farthest right end of an open interval that covers the points
    just right of it (first step) or the point itself (later steps)."""
    ivs = [(p.lo, p.hi) for q in parts for p in q.pieces]
    for piece in r.pieces:
        reach, first = piece.lo, True
        while reach < piece.hi:
            nxt = [b for a, b in ivs if (a <= reach if first else a < reach) and b > reach]
            if not nxt:
                return False
            reach, first = max(nxt), False
    return True


@EXAMPLES
@given(regions(1), st.lists(regions(1), max_size=3))
def test_covers_witness_1d(r, parts):
    w = r.covers_witness(parts)
    assert (w is None) == ref_covered_1d(r, parts)
    if w is not None:
        assert ref_in_region(r, w) and not any(ref_in_region(q, w) for q in parts)


@EXAMPLES
@given(regions(2), st.lists(regions(2), max_size=3), coeff, coeff, small,
       st.fractions(min_value=F(1, 8), max_value=1))
def test_covers_witness_2d(r, parts, a, b, c, eps):
    assume(a or b)
    w = r.covers_witness(parts)
    if w is None:
        assert all(any(ref_in_region(q, x) for q in parts)
                   for x in probes(r) if ref_in_region(r, x))
    else:
        assert ref_in_region(r, w) and not any(ref_in_region(q, w) for q in parts)
    # the two open sides of a line cover r exactly when they overlap, or
    # when the line misses the interior of r
    def halves(lo, hi):
        return [Region(2, [h for p in r.pieces if (h := p.clip(g)) is not None])
                for g in (halfplane(a, b, lo), halfplane(-a, -b, -hi))]
    assert r.covers(halves(c - eps, c + eps))
    w = r.covers_witness(halves(c, c))
    crosses = any(min(vals) < c < max(vals) for vals in
                  ([a * x + b * y for x, y in p.verts] for p in r.pieces))
    assert (w is not None) == crosses
    if w is not None:
        assert a * w[0] + b * w[1] == c and ref_in_region(r, w)
