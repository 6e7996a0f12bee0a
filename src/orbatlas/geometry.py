"""Exact algebra of open rational polytope unions and partial affine maps.

Everything here is exact; there is no floating point anywhere.  A
:class:`Region` is a finite union of *open* convex pieces (open intervals in
dimension 1, interiors of convex polygons in dimension 2).  Open sets are
represented by the closed convex hulls of their pieces; a point belongs to a
piece iff it is *strictly* inside every bounding halfplane.

The kernel computes on integers only.  Each value is held as integer
numerators over one positive denominator, divided by the gcd of all its
integers, so equal values have equal integer forms (and equal maps and
regions are one object, see `memo.interned`):

- an :class:`AffineMap` ``x |-> (M x + o) / d`` as the flat matrix ``M``, the
  offset ``o`` and ``d``;
- an :class:`Interval` as ``(lo, hi)`` over ``d``;
- a :class:`Polygon` as its vertices over ``d``;
- a halfplane ``a.x >= c`` as the integer tuple ``(a..., c)``.

``Fraction`` appears only at the boundary: the ``make`` constructors, the
points passed to ``AffineMap.__call__`` and ``contains_point`` or returned as
points and witnesses, and the ``matrix``, ``offset``, ``lo``, ``hi``,
``verts``, ``key()`` and ``repr`` views, which are built on first use and
cached.

The crucial consequence of staying affine is rigidity: two affine maps that
agree on a nonempty open set are equal.  Germs of partial affine isomorphisms
are therefore just pairs (base point, affine map) and all germ-level
comparisons reduce to exact equality of rational matrices.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .memo import interned, memo


class GeometryError(Exception):
    pass


class DimensionMismatchError(GeometryError):
    pass


class NonInvertibleMapError(GeometryError):
    pass


class EmptyRegionError(GeometryError):
    pass


def frac(x) -> Fraction:
    """Coerce ints, strings like '2/3' and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise GeometryError(f"not an exact rational: {x!r}")


def _over(values):
    """Integer numerators of rationals over their least common denominator;
    the result is gcd-normalized."""
    d = lcm(*(v.denominator for v in values))
    return [v.numerator * (d // v.denominator) for v in values], d


def _homogeneous(p):
    """A rational point as integer numerators over one positive denominator."""
    if len(p) == 1:
        return (p[0].numerator,), p[0].denominator
    x, y = p
    xd, yd = x.denominator, y.denominator
    return (x.numerator * yd, y.numerator * xd), xd * yd


def _check_supported(n):
    if n not in (1, 2):
        raise DimensionMismatchError("only dimensions 1 and 2 are supported")


# ---------------------------------------------------------------------------
# Affine maps
# ---------------------------------------------------------------------------

def _affine(m, o, d) -> "AffineMap":
    """The map x |-> (m x + o) / d for integer m (flat, row-major), o and
    d != 0, normalized."""
    if d < 0:
        m, o, d = tuple(-e for e in m), tuple(-e for e in o), -d
    g = gcd(d, *m, *o)
    if g != 1:
        m, o, d = tuple(e // g for e in m), tuple(e // g for e in o), d // g
    return AffineMap(m, o, d)


@interned
class AffineMap:
    """x |-> matrix @ x + offset with exact rational entries, held as
    x |-> (M x + o) / d with integer M (flat, row-major), o and d > 0."""

    __slots__ = ("dim", "_m", "_o", "_d", "_view", "_fields", "_hash", "__weakref__")

    def __init__(self, m: tuple, o: tuple, d: int):
        # m, o, d must already be normalized; use `make` from rationals
        self.dim = len(o)
        self._m, self._o, self._d = m, o, d
        self._view = None

    @staticmethod
    def make(matrix, offset) -> "AffineMap":
        rows = [[frac(e) for e in row] for row in matrix]
        off = [frac(e) for e in offset]
        n = len(off)
        if len(rows) != n or any(len(row) != n for row in rows):
            raise DimensionMismatchError("matrix/offset shape mismatch")
        _check_supported(n)
        nums, d = _over([e for row in rows for e in row] + off)
        return AffineMap(tuple(nums[:n * n]), tuple(nums[n * n:]), d)

    @staticmethod
    def identity(dim: int) -> "AffineMap":
        _check_supported(dim)
        return AffineMap((1,), (0,), 1) if dim == 1 else AffineMap((1, 0, 0, 1), (0, 0), 1)

    def _views(self):
        if self._view is None:
            d, n = self._d, self.dim
            es = [Fraction(e, d) for e in self._m]
            self._view = (tuple(tuple(es[i * n:(i + 1) * n]) for i in range(n)),
                          tuple(Fraction(e, d) for e in self._o))
        return self._view

    @property
    def matrix(self) -> tuple:
        return self._views()[0]

    @property
    def offset(self) -> tuple:
        return self._views()[1]

    def __call__(self, p: tuple) -> tuple:
        if len(p) != self.dim:
            raise DimensionMismatchError("point dimension mismatch")
        (x, *rest), w = _homogeneous(p)
        m, o, d = self._m, self._o, self._d * w
        if not rest:
            return (Fraction(m[0] * x + o[0] * w, d),)
        y = rest[0]
        return (Fraction(m[0] * x + m[1] * y + o[0] * w, d),
                Fraction(m[2] * x + m[3] * y + o[1] * w, d))

    def _det(self) -> int:
        """The determinant times d**dim: an integer of the same sign."""
        m = self._m
        return m[0] if self.dim == 1 else m[0] * m[3] - m[1] * m[2]

    def det(self) -> Fraction:
        return Fraction(self._det(), self._d ** self.dim)

    def is_invertible(self) -> bool:
        return self._det() != 0

    @memo
    def compose(self, other: "AffineMap") -> "AffineMap":
        """self after other: (self.compose(other))(x) == self(other(x))."""
        if self.dim != other.dim:
            raise DimensionMismatchError("composing maps of different dimension")
        a, p, e = other._m, other._o, other._d
        m, o = self._m, self._o
        if self.dim == 1:
            return _affine((m[0] * a[0],), (m[0] * p[0] + o[0] * e,), self._d * e)
        return _affine(
            (m[0] * a[0] + m[1] * a[2], m[0] * a[1] + m[1] * a[3],
             m[2] * a[0] + m[3] * a[2], m[2] * a[1] + m[3] * a[3]),
            (m[0] * p[0] + m[1] * p[1] + o[0] * e, m[2] * p[0] + m[3] * p[1] + o[1] * e),
            self._d * e)

    @memo
    def inverse(self) -> "AffineMap":
        # y = (M x + o)/d  <=>  x = adj(M) (d y - o) / det(M)
        det = self._det()
        if det == 0:
            raise NonInvertibleMapError("affine map is singular")
        m, o, d = self._m, self._o, self._d
        if self.dim == 1:
            return _affine((d,), (-o[0],), det)
        adj = (m[3], -m[1], -m[2], m[0])
        return _affine(tuple(d * e for e in adj),
                       (-(adj[0] * o[0] + adj[1] * o[1]), -(adj[2] * o[0] + adj[3] * o[1])),
                       det)

    def agreement(self, other: "AffineMap"):
        """A halfplane `(a..., c)` whose boundary `a.x = c` holds every point
        where two different maps agree, or None where they agree nowhere."""
        d, e, n = self._d, other._d, self.dim
        m = [p * e - q * d for p, q in zip(self._m, other._m)]
        o = [q * d - p * e for p, q in zip(self._o, other._o)]
        for i in range(n):
            a = m[i * n:(i + 1) * n]
            if any(a):
                return _halfplane(*a, o[i])
        return None

    def is_identity(self) -> bool:
        return self._d == 1 and not any(self._o) and self._m == ((1,) if self.dim == 1 else (1, 0, 0, 1))

    def key(self):
        return self._views()

    def __repr__(self):
        return f"AffineMap({self.matrix}, {self.offset})"


def aff1(a, b=0) -> AffineMap:
    """1-dimensional map x |-> a*x + b."""
    return AffineMap.make([[a]], [b])


def aff2(rows, off=(0, 0)) -> AffineMap:
    return AffineMap.make(rows, off)


# ---------------------------------------------------------------------------
# Convex pieces
# ---------------------------------------------------------------------------

def _halfplane(*coeffs):
    """gcd-normalized integer halfplane (a..., c) meaning a.x >= c."""
    g = gcd(*coeffs)
    return coeffs if g == 1 else tuple(e // g for e in coeffs)


def _interval(ln, ld, hn, hd):
    """The open interval (ln/ld, hn/hd) for positive ld, hd, or None when it
    is empty."""
    if ln * hd >= hn * ld:
        return None
    d = lcm(ld, hd)
    lo, hi = ln * (d // ld), hn * (d // hd)
    g = gcd(lo, hi, d)
    return Interval(lo // g, hi // g, d // g)


class Interval:
    """Open interval (lo, hi) with rational endpoints, lo < hi, held as
    integer numerators over one positive denominator."""

    __slots__ = ("_lo", "_hi", "_d", "_meas", "_k", "_view")

    def __init__(self, lo: int, hi: int, d: int):
        # normalized integers; use `make` from rationals
        self._lo, self._hi, self._d = lo, hi, d
        self._meas = hi - lo      # the length is _meas / d
        self._k = (lo, hi, d)
        self._view = None

    @staticmethod
    def make(lo, hi) -> "Interval":
        (a, b), d = _over([frac(lo), frac(hi)])
        return Interval(a, b, d)

    def key(self):
        if self._view is None:
            self._view = (Fraction(self._lo, self._d), Fraction(self._hi, self._d))
        return self._view

    @property
    def lo(self) -> Fraction:
        return self.key()[0]

    @property
    def hi(self) -> Fraction:
        return self.key()[1]

    def __eq__(self, other):
        return isinstance(other, Interval) and self._k == other._k

    def __hash__(self):
        return hash(self._k)

    def __repr__(self):
        return f"Interval(lo={self.lo!r}, hi={self.hi!r})"

    def measure(self) -> Fraction:
        return Fraction(self._meas, self._d)

    def _has(self, num, w) -> bool:
        x = num[0] * self._d
        return self._lo * w < x < self._hi * w

    def interior_point(self) -> tuple:
        return (Fraction(self._lo + self._hi, 2 * self._d),)

    def intersect(self, other: "Interval"):
        if self._k == other._k:
            return self
        a, b = self, other
        lo = a if a._lo * b._d >= b._lo * a._d else b
        hi = a if a._hi * b._d <= b._hi * a._d else b
        if lo is hi:
            return lo
        return _interval(lo._lo, lo._d, hi._hi, hi._d)

    def image(self, m: AffineMap) -> "Interval":
        (a,), (o,), d = m._m, m._o, self._d
        u, v = a * self._lo + o * d, a * self._hi + o * d
        if u == v:
            raise NonInvertibleMapError("interval collapsed by singular map")
        return _interval(min(u, v), m._d * d, max(u, v), m._d * d)

    def hull_with(self, other: "Interval") -> "Interval":
        a, b = self, other
        lo = a if a._lo * b._d <= b._lo * a._d else b
        hi = a if a._hi * b._d >= b._hi * a._d else b
        return _interval(lo._lo, lo._d, hi._hi, hi._d)

    def halfplanes(self):
        """Inward halfplanes (a, c) meaning a*x >= c."""
        return (_halfplane(self._d, self._lo), _halfplane(-self._d, -self._hi))

    def clip(self, h) -> "Interval | None":
        """Closed clip to the side a*x >= c of h = (a, c), a != 0."""
        a, c = h
        if a > 0:
            return _interval(max(self._lo * a, c * self._d), self._d * a, self._hi, self._d)
        return _interval(self._lo, self._d, min(self._hi * -a, -c * self._d), self._d * -a)

    def vertices(self):
        return ((self.lo,), (self.hi,))


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _hull(points):
    """Monotone-chain convex hull, CCW, no collinear vertices."""
    pts = sorted(set(points))
    if len(pts) < 3:
        return pts
    lower = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def _polygon(pts, d) -> "Polygon | None":
    """Polygon from a CCW chain of distinct integer points over d without
    collinear vertices: rotated to the least vertex, normalized, and None
    unless it has positive area."""
    if len(pts) < 3:
        return None
    k = pts.index(min(pts))
    pts = pts[k:] + pts[:k]
    g = gcd(d, *itertools.chain.from_iterable(pts))
    if g != 1:
        pts, d = [(x // g, y // g) for x, y in pts], d // g
    poly = Polygon(tuple(pts), d)
    return poly if poly._meas > 0 else None


class Polygon:
    """Open interior of a convex polygon; vertices CCW starting at the
    lexicographically least one, no three consecutive collinear, held as
    integer numerators over one positive denominator."""

    __slots__ = ("_v", "_d", "_meas", "_k", "_hp", "_view")

    def __init__(self, v: tuple, d: int):
        # normalized vertex numerators; use `make` from rationals
        self._v, self._d = v, d
        s = 0
        for i in range(len(v)):
            (x1, y1), (x2, y2) = v[i - 1], v[i]
            s += x1 * y2 - x2 * y1
        self._meas = s            # twice the area is _meas / d**2
        self._k = (d, v)
        self._hp = self._view = None

    @staticmethod
    def make(points) -> "Polygon | None":
        pts = [tuple(frac(c) for c in p) for p in points]
        nums, d = _over([c for p in pts for c in p])
        return _polygon(_hull(zip(nums[::2], nums[1::2])), d)

    @property
    def verts(self) -> tuple:
        if self._view is None:
            d = self._d
            self._view = tuple((Fraction(x, d), Fraction(y, d)) for x, y in self._v)
        return self._view

    def key(self):
        return self.verts

    def __eq__(self, other):
        return isinstance(other, Polygon) and self._k == other._k

    def __hash__(self):
        return hash(self._k)

    def __repr__(self):
        return f"Polygon(verts={self.verts!r})"

    def measure(self) -> Fraction:
        return Fraction(self._meas, self._d * self._d)  # twice the area

    def halfplanes(self):
        """Inward halfplanes (a, b, c) meaning a*x + b*y >= c."""
        if self._hp is None:
            v, d = self._v, self._d
            out = []
            for i in range(len(v)):
                (x1, y1), (x2, y2) = v[i], v[(i + 1) % len(v)]
                a, b = y1 - y2, x2 - x1
                g = gcd(a, b)
                a, b = a // g, b // g
                out.append(_halfplane(a * d, b * d, a * x1 + b * y1))
            self._hp = tuple(out)
        return self._hp

    def _has(self, num, w) -> bool:
        x, y = num
        for a, b, c in self.halfplanes():
            if a * x + b * y - c * w <= 0:
                return False
        return True

    def contains(self, p) -> bool:
        return self._has(*_homogeneous(p))

    def _centroid(self):
        v = self._v
        return (sum(x for x, _ in v), sum(y for _, y in v)), len(v) * self._d

    def interior_point(self) -> tuple:
        (x, y), w = self._centroid()
        return (Fraction(x, w), Fraction(y, w))

    def clip(self, h) -> "Polygon | None":
        """Closed clip to the side a*x + b*y >= c of h = (a, b, c)
        (Sutherland-Hodgman).  A cut point lies strictly inside an edge, so
        the kept chain has no repeated and no collinear vertices."""
        a, b, c = h
        v, d = self._v, self._d
        cd = c * d
        sides = [a * x + b * y - cd for x, y in v]
        if min(sides) >= 0:
            return self
        if max(sides) <= 0:
            return None
        n = len(v)
        out = []                # points (x, y, k) over d * k
        for i in range(n):
            sp, sq = sides[i], sides[(i + 1) % n]
            (px, py), (qx, qy) = v[i], v[(i + 1) % n]
            if sp >= 0:
                out.append((px, py, 1))
            if (sp > 0 and sq < 0) or (sp < 0 and sq > 0):
                # p + t (q - p) with t = sp / (sp - sq)
                k = sp - sq
                if k < 0:
                    sp, sq, k = -sp, -sq, -k
                out.append((qx * sp - px * sq, qy * sp - py * sq, k))
        if len(out) < 3:
            return None
        m = lcm(*(k for _, _, k in out))
        return _polygon([(x * (m // k), y * (m // k)) for x, y, k in out], d * m)

    def intersect(self, other: "Polygon"):
        if self._k == other._k or _piece_inside(self, other):
            return self
        if _piece_inside(other, self):
            return other
        cur = self
        for h in other.halfplanes():
            cur = cur.clip(h)
            if cur is None:
                return None
        return cur

    def image(self, m: AffineMap) -> "Polygon":
        (a, b, c, e), (o, p), d = m._m, m._o, self._d
        od, pd = o * d, p * d
        pts = [(a * x + b * y + od, c * x + e * y + pd) for x, y in self._v]
        if m._det() < 0:
            pts.reverse()
        # an invertible map keeps vertices distinct and never collinear
        poly = _polygon(pts, m._d * d)
        if poly is None:
            raise NonInvertibleMapError("polygon collapsed by singular map")
        return poly

    def hull_with(self, other: "Polygon") -> "Polygon":
        d = lcm(self._d, other._d)
        s, t = d // self._d, d // other._d
        pts = [(x * s, y * s) for x, y in self._v] + [(x * t, y * t) for x, y in other._v]
        return _polygon(_hull(pts), d)

    def vertices(self):
        return self.verts


def _piece_dim(piece) -> int:
    return 1 if isinstance(piece, Interval) else 2


def _measure_pair(p):
    """The measure of a piece as (numerator, positive denominator)."""
    return p._meas, (p._d if isinstance(p, Interval) else p._d * p._d)


def _sort_key(pieces):
    """Sort key over `pieces` equal to the order of their rational `key()`s:
    the numerators over one common denominator."""
    m = lcm(*(p._d for p in pieces))

    def key(p):
        s = m // p._d
        if isinstance(p, Interval):
            return (p._lo * s, p._hi * s)
        return tuple((x * s, y * s) for x, y in p._v)
    return key


# ---------------------------------------------------------------------------
# Exact coverage of open sets
# ---------------------------------------------------------------------------

def _cover_1d(lo, hi, open_ivs):
    """Is the open interval (lo, hi) contained in the union of the given open
    intervals?  Rationals are (numerator, positive denominator) pairs.
    Returns None on success, else an uncovered rational witness as a pair.

    Method: every endpoint of a covering interval that falls strictly inside
    (lo, hi) is a cut; between consecutive cuts each covering interval either
    contains the whole cell or misses it, so testing cell midpoints and the
    cuts themselves decides coverage exactly.  Everything is scaled to twice
    the common denominator, so that midpoints stay integers.
    """
    s = 2 * lcm(lo[1], hi[1], *(e[1] for ab in open_ivs for e in ab))
    lo, hi = lo[0] * (s // lo[1]), hi[0] * (s // hi[1])
    ivs = [(a[0] * (s // a[1]), b[0] * (s // b[1])) for a, b in open_ivs]
    ivs = [(a, b) for a, b in ivs if a < b]
    cuts = sorted({e for ab in ivs for e in ab if lo < e < hi})
    bounds = [lo] + cuts + [hi]
    candidates = cuts + [(a + b) // 2 for a, b in zip(bounds, bounds[1:])]
    for x in candidates:
        if not any(a < x < b for a, b in ivs):
            return (x, s)
    return None


def _line_range(piece: Polygon, h, strict):
    """The t-range of the points p0 + t*d of the line {a.x == c} of
    h = (a0, a1, c), with p0 = (c/a0, 0) or (0, c/a1) and d = (-a1, a0),
    that lie in the piece: open if strict, else closed.  Returns rational
    pairs (t_lo, t_hi), or None if the range is empty or degenerate."""
    a0, a1, c = h
    lead, j = (a0, 0) if a0 != 0 else (a1, 1)
    t_lo = t_hi = None
    for hh in piece.halfplanes():
        hd = hh[0] * -a1 + hh[1] * a0
        hp = hh[j] * c                  # h.p0 == hp / lead
        k = hh[2]
        if hd == 0:
            # the line is parallel to this edge: inside iff h.p0 >= k (> k)
            diff = (hp - k * lead) * lead
            if diff < 0 or (strict and diff == 0):
                return None
            continue
        t = (k * lead - hp, lead * hd)
        if t[1] < 0:
            t = (-t[0], -t[1])
        if hd > 0:
            if t_lo is None or t[0] * t_lo[1] > t_lo[0] * t[1]:
                t_lo = t
        elif t_hi is None or t[0] * t_hi[1] < t_hi[0] * t[1]:
            t_hi = t
    if t_lo is None or t_hi is None or t_lo[0] * t_hi[1] >= t_hi[0] * t_lo[1]:
        return None
    return t_lo, t_hi


def _piece_inside(p, q) -> bool:
    """Exact test for one open convex piece inside another: for
    full-dimensional convex sets this is containment of the closures,
    i.e. every vertex of p lies in the closed q."""
    if isinstance(p, Interval):
        return q._lo * p._d <= p._lo * q._d and p._hi * q._d <= q._hi * p._d
    v, d = p._v, p._d
    for a, b, c in q.halfplanes():
        cd = c * d
        for x, y in v:
            if a * x + b * y < cd:
                return False
    return True


def _covers_piece(piece, parts):
    """Decide exactly whether the open piece is contained in the union of the
    open pieces `parts`.  Returns None, or an uncovered point as witness."""
    if isinstance(piece, Interval):
        w = _cover_1d((piece._lo, piece._d), (piece._hi, piece._d),
                      [((p._lo, p._d), (p._hi, p._d)) for p in parts])
        return None if w is None else (Fraction(*w),)

    # collect the boundary lines of the parts that cross the piece's interior
    lines = {}
    v, d = piece._v, piece._d
    for q in parts:
        for h in q.halfplanes():
            a, b, c = h
            vals = [a * x + b * y for x, y in v]
            if min(vals) < c * d < max(vals):
                # unoriented normal form of the line a.x == c
                lines[h if a > 0 or (a == 0 and b > 0) else (-a, -b, -c)] = h

    # cells of the induced subdivision: no part boundary crosses a cell, so a
    # single interior point decides the whole cell
    cells = [piece]
    for a, b, c in lines.values():
        nxt = []
        for cell in cells:
            for half in (cell.clip((a, b, c)), cell.clip((-a, -b, -c))):
                if half is not None:
                    nxt.append(half)
        cells = nxt
    for cell in cells:
        p = cell._centroid()
        if not any(q._has(*p) for q in parts):
            return (Fraction(p[0][0], p[1]), Fraction(p[0][1], p[1]))

    # points of the piece on a dividing line: 1-dimensional coverage along it
    for h in lines.values():
        clipped = _line_range(piece, h, strict=False)
        if clipped is None:
            continue
        ranges = []
        for q in parts:
            r = _line_range(q, h, strict=True)
            if r is not None:
                ranges.append(r)
        w = _cover_1d(*clipped, ranges)
        if w is not None:
            a0, a1, c = h
            t = Fraction(*w)
            p0 = (Fraction(c, a0), Fraction(0)) if a0 != 0 else (Fraction(0), Fraction(c, a1))
            return (p0[0] - t * a1, p0[1] + t * a0)
    return None


# ---------------------------------------------------------------------------
# Regions
# ---------------------------------------------------------------------------

@interned
class Region:
    """Finite union of open convex pieces in Q^n, n in {1, 2}.

    Canonical form: pieces in normal form, overlapping pairs merged greedily
    whenever their union is convex, sorted by vertex key.  Set-equal regions
    built through the same canonicalization serialize identically; semantic
    set equality is available via :meth:`same_set`.
    """

    __slots__ = ("dim", "pieces", "_view", "_fields", "_hash", "__weakref__")

    def __init__(self, dim: int, pieces):
        """Nothing is left to do: `__new__` has put the pieces in canonical
        form and returned the one region of that value.  Every `Region(...)`
        call still passes through here, which is where profiles and
        `perfbench/tracer.py` count region constructions."""

    def _setup(self, dim, pieces):
        self.dim, self.pieces, self._view = dim, pieces, None

    @staticmethod
    def _canonical(dim, pieces):
        _check_supported(dim)
        pieces = list(pieces)
        for p in pieces:
            if _piece_dim(p) != dim:
                raise DimensionMismatchError("piece dimension mismatch")
        pieces = [p for p in pieces if p._meas > 0]
        if len(pieces) < 2:
            return dim, tuple(pieces)
        merged = True
        while merged:
            merged = False
            for i, j in itertools.combinations(range(len(pieces)), 2):
                p, q = pieces[i], pieces[j]
                inter = p.intersect(q)
                if inter is None or inter._meas <= 0:
                    continue
                h = p.hull_with(q)
                # for overlapping open convex pieces the hull equals the
                # union exactly when the measures match (any leftover point
                # would force disjoint supporting halfplanes)
                (hn, hd), (pn, pd), (qn, qd), (rn, rd) = map(_measure_pair, (h, p, q, inter))
                if hn * pd * qd * rd == (pn * qd * rd + qn * pd * rd - rn * pd * qd) * hd:
                    pieces = [pieces[k] for k in range(len(pieces)) if k not in (i, j)]
                    pieces.append(h)
                    merged = True
                    break
        uniq = list({p._k: p for p in pieces}.values())
        return dim, tuple(sorted(uniq, key=_sort_key(uniq)))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def interval(lo, hi) -> "Region":
        iv = Interval.make(lo, hi)
        return Region(1, [iv] if iv._meas > 0 else [])

    @staticmethod
    def polygon(pts) -> "Region":
        p = Polygon.make(pts)
        return Region(2, [p] if p is not None else [])

    @staticmethod
    def empty(dim: int) -> "Region":
        return Region(dim, [])

    # -- basics ------------------------------------------------------------

    def is_empty(self) -> bool:
        return not self.pieces

    def __repr__(self):
        return f"Region(dim={self.dim}, pieces={list(self.key()[1])})"

    def key(self):
        if self._view is None:
            self._view = (self.dim, tuple(p.key() for p in self.pieces))
        return self._view

    def _check_dim(self, other: "Region"):
        if self.dim != other.dim:
            raise DimensionMismatchError("regions of different dimension")

    def contains_point(self, p) -> bool:
        num, w = _homogeneous(p)
        return any(piece._has(num, w) for piece in self.pieces)

    # -- algebra -----------------------------------------------------------

    def _of(self, pieces, *others) -> "Region":
        """The region of `pieces`; when they are the pieces of self or of one
        of `others`, that region (canonical forms are fixed points)."""
        pieces = tuple(pieces)
        for r in (self,) + others:
            if pieces == r.pieces:
                return r
        return Region(self.dim, pieces)

    @memo
    def intersect(self, other: "Region") -> "Region":
        self._check_dim(other)
        out = []
        for p in self.pieces:
            for q in other.pieces:
                r = p.intersect(q)
                if r is not None and r._meas > 0:
                    out.append(r)
        return self._of(out, other)

    def union(self, other: "Region") -> "Region":
        self._check_dim(other)
        return Region(self.dim, list(self.pieces) + list(other.pieces))

    def difference(self, other: "Region") -> "Region":
        """Interior of the set difference (the set difference of open sets is
        not open in general; this returns its largest open subset).  The
        result is regularized: use :meth:`covers` for containment decisions."""
        self._check_dim(other)
        pieces = list(self.pieces)
        for q in other.pieces:
            nxt = []
            for p in pieces:
                if p.intersect(q) is None:
                    nxt.append(p)
                    continue
                if self.dim == 1:
                    # the parts of p left and right of q
                    for part in (_interval(p._lo, p._d, q._lo, q._d),
                                 _interval(q._hi, q._d, p._hi, p._d)):
                        if part is not None:
                            nxt.append(part.intersect(p))
                else:
                    rest = p
                    for a, b, c in q.halfplanes():
                        outside = rest.clip((-a, -b, -c))
                        if outside is not None:
                            nxt.append(outside)
                        rest = rest.clip((a, b, c))
                        if rest is None:
                            break
            pieces = [p for p in nxt if p._meas > 0]
        return Region(self.dim, pieces)

    @memo
    def image(self, m: AffineMap) -> "Region":
        if m.dim != self.dim:
            raise DimensionMismatchError("map dimension mismatch")
        if not m.is_invertible():
            raise NonInvertibleMapError("image requires an invertible map")
        return Region(self.dim, [p.image(m) for p in self.pieces])

    @memo
    def preimage_under(self, m: AffineMap, target: "Region") -> "Region":
        """{x in self : m(x) in target}, exact for arbitrary affine m."""
        self._check_dim(target)
        if m.dim != self.dim:
            raise DimensionMismatchError("map dimension mismatch")
        mm, mo, md = m._m, m._o, m._d
        pulled = []
        for q in target.pieces:
            # pull each a.y >= c back through y = (Mx + o)/d: (aM).x >= c d - a.o
            hs = []
            for h in q.halfplanes():
                if self.dim == 1:
                    a, c = h
                    aa = (a * mm[0],)
                    cc = c * md - a * mo[0]
                else:
                    a, b, c = h
                    aa = (a * mm[0] + b * mm[2], a * mm[1] + b * mm[3])
                    cc = c * md - (a * mo[0] + b * mo[1])
                if not any(aa):
                    if cc >= 0:  # constant a.(Mx+o) fails the strict bound
                        hs = None
                        break
                    continue
                hs.append(_halfplane(*aa, cc))
            pulled.append(hs)
        out = []
        for p in self.pieces:
            for hs in pulled:
                if hs is None:
                    continue
                cur = p
                for h in hs:
                    cur = cur.clip(h)
                    if cur is None:
                        break
                if cur is not None and cur._meas > 0:
                    out.append(cur)
        return self._of(out)

    def escape_witness(self, m: AffineMap, target: "Region"):
        """None when `m` carries self into `target`, else a rational point of
        self that `m` sends outside `target`; exact for arbitrary affine m."""
        return self.covers_witness([self.preimage_under(m, target)])

    def covers(self, parts) -> bool:
        return self.covers_witness(parts) is None

    def covers_witness(self, parts):
        """Exact decision of `self` being a subset of the union of `parts`;
        None if covered, else a rational point of self missing from the
        union.  Boundary points between parts count as uncovered (open
        sets), e.g. (-1,1) is not covered by (-1,0) and (0,1).  `parts` may
        be any iterable of regions: it is read once, into the tuple that
        the memo keys on."""
        return self._covers_witness(tuple(parts))

    @memo
    def _covers_witness(self, parts: tuple):
        allp = []
        for r in parts:
            self._check_dim(r)
            allp.extend(r.pieces)
        for piece in self.pieces:
            # fast exact path: containment in a single convex part
            if any(_piece_inside(piece, q) for q in allp):
                continue
            w = _covers_piece(piece, allp)
            if w is not None:
                return w
        return None

    def same_set(self, other: "Region") -> bool:
        if self == other:
            return True
        if self.dim != other.dim:
            return False
        return self.covers([other]) and other.covers([self])

    def components(self):
        """Connected components, grouping pieces by overlap.  Open pieces
        with disjoint interiors are disconnected even if their closures
        touch."""
        n = len(self.pieces)
        if n < 2:
            return [self] if n else []
        parent = list(range(n))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for i, j in itertools.combinations(range(n), 2):
            if self.pieces[i].intersect(self.pieces[j]) is not None:
                parent[find(i)] = find(j)
        groups = {}
        for i in range(n):
            groups.setdefault(find(i), []).append(self.pieces[i])
        comps = [Region(self.dim, ps) for ps in groups.values()]
        key = _sort_key([p for r in comps for p in r.pieces])
        return sorted(comps, key=lambda r: tuple(map(key, r.pieces)))

    def is_connected(self) -> bool:
        return len(self.components()) <= 1

    def interior_point(self) -> tuple:
        if not self.pieces:
            raise EmptyRegionError("empty region has no interior point")
        return self.pieces[0].interior_point()

    def interior_point_off(self, halfplanes) -> tuple:
        """An interior point of the first piece on none of the boundary lines
        `a.x = c` of `halfplanes`: each line cuts the piece down to one of
        its open sides, and at least one side keeps positive measure."""
        piece = self.pieces[0]
        for h in halfplanes:
            if h is not None:
                piece = piece.clip(h) or piece.clip(tuple(-e for e in h))
        return piece.interior_point()


# ---------------------------------------------------------------------------
# Partial affine isomorphisms and germs
# ---------------------------------------------------------------------------

@interned
@dataclass(frozen=True)
class PartialAffineIso:
    """An invertible affine map restricted to an open region; the codomain is
    always the exact image of the domain."""

    map: AffineMap
    dom: Region

    @staticmethod
    def make(m: AffineMap, dom: Region) -> "PartialAffineIso":
        if not m.is_invertible():
            raise NonInvertibleMapError("partial isomorphism needs an invertible map")
        if m.dim != dom.dim:
            raise DimensionMismatchError("map/domain dimension mismatch")
        return PartialAffineIso(m, dom)

    @property
    def cod(self) -> Region:
        return self.dom.image(self.map)

    def inverse(self) -> "PartialAffineIso":
        return PartialAffineIso(self.map.inverse(), self.cod)

    def compose(self, other: "PartialAffineIso") -> "PartialAffineIso":
        """self after other, domain shrunk to where the composite is defined."""
        dom = other.dom.preimage_under(other.map, self.dom)
        return PartialAffineIso(self.map.compose(other.map), dom)

    def __call__(self, p: tuple) -> tuple:
        return self.map(p)

    def key(self):
        return (self.map.key(), self.dom.key())


@dataclass(frozen=True)
class Germ:
    """Germ of a partial affine isomorphism at a point.  Affine rigidity
    makes two germs equal exactly when base points and maps are equal."""

    base_point: tuple
    map: AffineMap

    def target_point(self) -> tuple:
        return self.map(self.base_point)

    def compose(self, other: "Germ") -> "Germ":
        """self after other; requires other's target to be self's base."""
        if other.target_point() != self.base_point:
            raise GeometryError("germs not composable at these base points")
        return Germ(other.base_point, self.map.compose(other.map))


def germ_of(iso: PartialAffineIso, x) -> Germ:
    """Germ of the partial isomorphism at x; x must lie in the domain."""
    x = tuple(frac(c) for c in x)
    if not iso.dom.contains_point(x):
        raise GeometryError(f"point {x} not in the domain")
    return Germ(x, iso.map)


def clashes(pairs):
    """The overlaps on which germ families disagree: for each pair
    ((r1, v1), (r2, v2)) of regions carrying families with the affine maps
    v1 and v2, r1.intersect(r2) when v1 != v2 and it is nonempty.  By
    rigidity, families with equal maps agree wherever they overlap."""
    for (r1, v1), (r2, v2) in pairs:
        if v1 != v2:
            overlap = r1.intersect(r2)
            if not overlap.is_empty():
                yield overlap
