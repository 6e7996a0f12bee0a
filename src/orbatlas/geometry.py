"""Exact algebra of open rational polytope unions and partial affine maps.

Everything here is computed over ``fractions.Fraction``; there is no floating
point anywhere.  A :class:`Region` is a finite union of *open* convex pieces
(open intervals in dimension 1, interiors of convex polygons in dimension 2).
Open sets are represented by the closed convex hulls of their pieces; a point
belongs to a piece iff it is *strictly* inside every bounding halfplane.

The crucial consequence of staying affine is rigidity: two affine maps that
agree on a nonempty open set are equal.  Germs of partial affine isomorphisms
are therefore just pairs (base point, affine map) and all germ-level
comparisons reduce to exact equality of rational matrices.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction


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


# ---------------------------------------------------------------------------
# Affine maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AffineMap:
    """x |-> matrix @ x + offset with exact rational entries."""

    matrix: tuple
    offset: tuple

    @staticmethod
    def make(matrix, offset) -> "AffineMap":
        m = tuple(tuple(frac(e) for e in row) for row in matrix)
        o = tuple(frac(e) for e in offset)
        n = len(o)
        if len(m) != n or any(len(row) != n for row in m):
            raise DimensionMismatchError("matrix/offset shape mismatch")
        return AffineMap(m, o)

    @staticmethod
    def identity(dim: int) -> "AffineMap":
        m = tuple(tuple(Fraction(int(i == j)) for j in range(dim)) for i in range(dim))
        return AffineMap(m, tuple(Fraction(0) for _ in range(dim)))

    @property
    def dim(self) -> int:
        return len(self.offset)

    def __call__(self, p: tuple) -> tuple:
        if len(p) != self.dim:
            raise DimensionMismatchError("point dimension mismatch")
        return tuple(
            sum(self.matrix[i][j] * p[j] for j in range(self.dim)) + self.offset[i]
            for i in range(self.dim)
        )

    def det(self) -> Fraction:
        m = self.matrix
        if self.dim == 1:
            return m[0][0]
        if self.dim == 2:
            return m[0][0] * m[1][1] - m[0][1] * m[1][0]
        raise DimensionMismatchError("only dimensions 1 and 2 are supported")

    def is_invertible(self) -> bool:
        return self.det() != 0

    def compose(self, other: "AffineMap") -> "AffineMap":
        """self after other: (self.compose(other))(x) == self(other(x))."""
        if self.dim != other.dim:
            raise DimensionMismatchError("composing maps of different dimension")
        n = self.dim
        m = tuple(
            tuple(sum(self.matrix[i][k] * other.matrix[k][j] for k in range(n)) for j in range(n))
            for i in range(n)
        )
        return AffineMap(m, self(other.offset))

    def inverse(self) -> "AffineMap":
        d = self.det()
        if d == 0:
            raise NonInvertibleMapError("affine map is singular")
        if self.dim == 1:
            a = Fraction(1) / self.matrix[0][0]
            return AffineMap(((a,),), (-a * self.offset[0],))
        (a, b), (c, e) = self.matrix
        inv = ((e / d, -b / d), (-c / d, a / d))
        ox, oy = self.offset
        return AffineMap(inv, (-(inv[0][0] * ox + inv[0][1] * oy), -(inv[1][0] * ox + inv[1][1] * oy)))

    def is_identity(self) -> bool:
        return self == AffineMap.identity(self.dim)

    def key(self):
        return (self.matrix, self.offset)

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

@dataclass(frozen=True)
class Interval:
    """Open interval (lo, hi) with rational endpoints, lo < hi."""

    lo: Fraction
    hi: Fraction

    def measure(self) -> Fraction:
        return self.hi - self.lo

    def contains(self, p, strict=True) -> bool:
        x = p[0]
        if strict:
            return self.lo < x < self.hi
        return self.lo <= x <= self.hi

    def interior_point(self) -> tuple:
        return ((self.lo + self.hi) / 2,)

    def intersect(self, other: "Interval"):
        lo, hi = max(self.lo, other.lo), min(self.hi, other.hi)
        return Interval(lo, hi) if lo < hi else None

    def image(self, m: AffineMap) -> "Interval":
        a, b = m(( self.lo,))[0], m((self.hi,))[0]
        if a == b:
            raise NonInvertibleMapError("interval collapsed by singular map")
        return Interval(min(a, b), max(a, b))

    def hull_with(self, other: "Interval") -> "Interval":
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def halfplanes(self):
        # a*x >= c form, inward
        return (((Fraction(1),), self.lo), ((Fraction(-1),), -self.hi))

    def vertices(self):
        return ((self.lo,), (self.hi,))

    def key(self):
        return (self.lo, self.hi)


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


@dataclass(frozen=True)
class Polygon:
    """Open interior of a convex polygon; vertices CCW starting at the
    lexicographically least one, no three consecutive collinear."""

    verts: tuple

    @staticmethod
    def make(points) -> "Polygon | None":
        pts = _hull([tuple(frac(c) for c in p) for p in points])
        if len(pts) < 3:
            return None
        k = min(range(len(pts)), key=lambda i: pts[i])
        pts = pts[k:] + pts[:k]
        poly = Polygon(tuple(pts))
        return poly if poly.measure() > 0 else None

    @staticmethod
    def _from_convex(points) -> "Polygon | None":
        """Canonicalize an already-convex CCW vertex chain in linear time
        (deduplicate, drop collinear vertices, rotate to the least vertex)."""
        pts = [points[0]]
        for p in points[1:]:
            if p != pts[-1]:
                pts.append(p)
        while len(pts) > 1 and pts[0] == pts[-1]:
            pts.pop()
        if len(pts) < 3:
            return None
        out = []
        n = len(pts)
        for i in range(n):
            if _cross(pts[i - 1], pts[i], pts[(i + 1) % n]) != 0:
                out.append(pts[i])
        if len(out) < 3:
            return None
        k = min(range(len(out)), key=lambda i: out[i])
        poly = Polygon(tuple(out[k:] + out[:k]))
        return poly if poly.measure() > 0 else None

    def measure(self) -> Fraction:
        cached = getattr(self, "_measure", None)
        if cached is None:
            s = Fraction(0)
            v = self.verts
            for i in range(len(v)):
                x1, y1 = v[i]
                x2, y2 = v[(i + 1) % len(v)]
                s += x1 * y2 - x2 * y1
            cached = s  # twice the area, positive for CCW
            object.__setattr__(self, "_measure", cached)
        return cached

    def halfplanes(self):
        """Inward halfplanes ((ax, ay), c) meaning ax*x + ay*y >= c."""
        cached = getattr(self, "_hp", None)
        if cached is None:
            out = []
            v = self.verts
            for i in range(len(v)):
                (x1, y1), (x2, y2) = v[i], v[(i + 1) % len(v)]
                a = (-(y2 - y1), x2 - x1)
                out.append((a, a[0] * x1 + a[1] * y1))
            cached = tuple(out)
            object.__setattr__(self, "_hp", cached)
        return cached

    def contains(self, p, strict=True) -> bool:
        for a, c in self.halfplanes():
            s = a[0] * p[0] + a[1] * p[1]
            if (s <= c) if strict else (s < c):
                return False
        return True

    def interior_point(self) -> tuple:
        n = len(self.verts)
        return (
            sum(v[0] for v in self.verts) / n,
            sum(v[1] for v in self.verts) / n,
        )

    def clip(self, a, c) -> "Polygon | None":
        """Closed clip to the side a.x >= c (Sutherland-Hodgman)."""
        v = self.verts
        sides = [a[0] * p[0] + a[1] * p[1] - c for p in v]
        if all(s >= 0 for s in sides):
            return self
        out = []
        for i in range(len(v)):
            p, q = v[i], v[(i + 1) % len(v)]
            sp, sq = sides[i], sides[(i + 1) % len(v)]
            if sp >= 0:
                out.append(p)
            if (sp > 0 and sq < 0) or (sp < 0 and sq > 0):
                t = sp / (sp - sq)
                out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
        return Polygon._from_convex(out) if len(out) >= 3 else None

    def intersect(self, other: "Polygon"):
        cur = self
        for a, c in other.halfplanes():
            cur = cur.clip(a, c)
            if cur is None:
                return None
        return cur

    def image(self, m: AffineMap) -> "Polygon":
        pts = [m(v) for v in self.verts]
        if m.det() < 0:
            pts.reverse()
        poly = Polygon._from_convex(pts)
        if poly is None:
            raise NonInvertibleMapError("polygon collapsed by singular map")
        return poly

    def hull_with(self, other: "Polygon") -> "Polygon":
        return Polygon.make(self.verts + other.verts)

    def vertices(self):
        return self.verts

    def key(self):
        return self.verts


def _piece_dim(piece) -> int:
    return 1 if isinstance(piece, Interval) else 2


# ---------------------------------------------------------------------------
# Exact coverage of open sets
# ---------------------------------------------------------------------------

def _cover_1d(lo, hi, open_ivs):
    """Is the open interval (lo, hi) contained in the union of the given open
    intervals?  Returns None on success, else an uncovered rational witness.

    Method: every endpoint of a covering interval that falls strictly inside
    (lo, hi) is a cut; between consecutive cuts each covering interval either
    contains the whole cell or misses it, so testing cell midpoints and the
    cuts themselves decides coverage exactly.
    """
    ivs = [(a, b) for (a, b) in open_ivs if a < b]
    cuts = sorted({e for ab in ivs for e in ab if lo < e < hi})
    bounds = [lo] + cuts + [hi]
    candidates = list(cuts)
    for a, b in zip(bounds, bounds[1:]):
        candidates.append((a + b) / 2)
    for x in candidates:
        if not any(a < x < b for a, b in ivs):
            return x
    return None


def _line_params(piece: Polygon, a, c):
    """Clip the line {a.x == c} against a polygon's closed halfplanes.

    Returns (p0, d, t_lo, t_hi) with the closed intersection being
    {p0 + t*d : t_lo <= t <= t_hi}, or None if empty/degenerate.
    """
    d = (-a[1], a[0])
    if a[0] != 0:
        p0 = (c / a[0], Fraction(0))
    else:
        p0 = (Fraction(0), c / a[1])
    t_lo, t_hi = None, None
    for h, k in piece.halfplanes():
        hd = h[0] * d[0] + h[1] * d[1]
        hp = h[0] * p0[0] + h[1] * p0[1]
        if hd == 0:
            if hp < k:
                return None
            continue
        t = (k - hp) / hd
        if hd > 0:
            t_lo = t if t_lo is None else max(t_lo, t)
        else:
            t_hi = t if t_hi is None else min(t_hi, t)
    if t_lo is None or t_hi is None or t_lo >= t_hi:
        return None
    return (p0, d, t_lo, t_hi)


def _open_line_range(piece: Polygon, p0, d):
    """Open t-range where p0 + t*d is strictly inside the piece, or None."""
    t_lo, t_hi = None, None
    for h, k in piece.halfplanes():
        hd = h[0] * d[0] + h[1] * d[1]
        hp = h[0] * p0[0] + h[1] * p0[1]
        if hd == 0:
            if hp <= k:
                return None
            continue
        t = (k - hp) / hd
        if hd > 0:
            t_lo = t if t_lo is None else max(t_lo, t)
        else:
            t_hi = t if t_hi is None else min(t_hi, t)
    if t_lo is None or t_hi is None or t_lo >= t_hi:
        return None
    return (t_lo, t_hi)


def _piece_inside(p, q) -> bool:
    """Exact test for one open convex piece inside another: for
    full-dimensional convex sets this is containment of the closures,
    i.e. every vertex of p lies in the closed q."""
    if _piece_dim(p) == 1:
        return q.lo <= p.lo and p.hi <= q.hi
    return all(q.contains(v, strict=False) for v in p.verts)


def _covers_piece(piece, parts):
    """Decide exactly whether the open piece is contained in the union of the
    open pieces `parts`.  Returns None, or an uncovered point as witness."""
    if _piece_dim(piece) == 1:
        w = _cover_1d(piece.lo, piece.hi, [(p.lo, p.hi) for p in parts])
        return None if w is None else (w,)

    # collect the boundary lines of the parts that cross the piece's interior
    lines = {}
    for q in parts:
        for a, c in q.halfplanes():
            vals = [a[0] * v[0] + a[1] * v[1] for v in piece.verts]
            if min(vals) < c < max(vals):
                # unoriented normal form of the line a.x == c
                lead = a[0] if a[0] != 0 else a[1]
                lines[(a[0] / lead, a[1] / lead, c / lead)] = (a, c)

    # cells of the induced subdivision: no part boundary crosses a cell, so a
    # single interior point decides the whole cell
    cells = [piece]
    for a, c in lines.values():
        nxt = []
        for cell in cells:
            for half in (cell.clip(a, c), cell.clip((-a[0], -a[1]), -c)):
                if half is not None:
                    nxt.append(half)
        cells = nxt
    for cell in cells:
        p = cell.interior_point()
        if not any(q.contains(p) for q in parts):
            return p

    # points of the piece on a dividing line: 1-dimensional coverage along it
    for a, c in lines.values():
        clipped = _line_params(piece, a, c)
        if clipped is None:
            continue
        p0, d, t_lo, t_hi = clipped
        ranges = []
        for q in parts:
            r = _open_line_range(q, p0, d)
            if r is not None:
                ranges.append(r)
        w = _cover_1d(t_lo, t_hi, ranges)
        if w is not None:
            return (p0[0] + w * d[0], p0[1] + w * d[1])
    return None


# ---------------------------------------------------------------------------
# Regions
# ---------------------------------------------------------------------------

class Region:
    """Finite union of open convex pieces in Q^n, n in {1, 2}.

    Canonical form: pieces in normal form, overlapping pairs merged greedily
    whenever their union is convex, sorted by vertex key.  Set-equal regions
    built through the same canonicalization serialize identically; semantic
    set equality is available via :meth:`same_set`.
    """

    __slots__ = ("dim", "pieces", "_hash")

    def __init__(self, dim: int, pieces):
        if dim not in (1, 2):
            raise DimensionMismatchError("only dimensions 1 and 2 are supported")
        self.dim = dim
        self.pieces = self._canonical(dim, list(pieces))
        self._hash = hash((dim, tuple(p.key() for p in self.pieces)))

    @staticmethod
    def _canonical(dim, pieces):
        for p in pieces:
            if _piece_dim(p) != dim:
                raise DimensionMismatchError("piece dimension mismatch")
        pieces = [p for p in pieces if p.measure() > 0]
        merged = True
        while merged:
            merged = False
            for i, j in itertools.combinations(range(len(pieces)), 2):
                p, q = pieces[i], pieces[j]
                inter = p.intersect(q)
                if inter is None or inter.measure() <= 0:
                    continue
                h = p.hull_with(q)
                # for overlapping open convex pieces the hull equals the
                # union exactly when the measures match (any leftover point
                # would force disjoint supporting halfplanes)
                if h.measure() == p.measure() + q.measure() - inter.measure():
                    pieces = [pieces[k] for k in range(len(pieces)) if k not in (i, j)]
                    pieces.append(h)
                    merged = True
                    break
        uniq = {p.key(): p for p in pieces}
        return tuple(uniq[k] for k in sorted(uniq))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def interval(lo, hi) -> "Region":
        lo, hi = frac(lo), frac(hi)
        return Region(1, [Interval(lo, hi)] if lo < hi else [])

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

    def __eq__(self, other):
        return (
            isinstance(other, Region)
            and self.dim == other.dim
            and tuple(p.key() for p in self.pieces) == tuple(p.key() for p in other.pieces)
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Region(dim={self.dim}, pieces={[p.key() for p in self.pieces]})"

    def key(self):
        return (self.dim, tuple(p.key() for p in self.pieces))

    def _check_dim(self, other: "Region"):
        if self.dim != other.dim:
            raise DimensionMismatchError("regions of different dimension")

    def contains_point(self, p, strict=True) -> bool:
        return any(piece.contains(p, strict) for piece in self.pieces)

    # -- algebra -----------------------------------------------------------

    def intersect(self, other: "Region") -> "Region":
        self._check_dim(other)
        out = []
        for p in self.pieces:
            for q in other.pieces:
                r = p.intersect(q)
                if r is not None and r.measure() > 0:
                    out.append(r)
        return Region(self.dim, out)

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
                    if p.lo < q.lo:
                        nxt.append(Interval(p.lo, min(p.hi, q.lo)))
                    if q.hi < p.hi:
                        nxt.append(Interval(max(p.lo, q.hi), p.hi))
                else:
                    rest = p
                    for a, c in q.halfplanes():
                        outside = rest.clip((-a[0], -a[1]), -c)
                        if outside is not None and outside.measure() > 0:
                            nxt.append(outside)
                        rest = rest.clip(a, c)
                        if rest is None:
                            break
            pieces = [p for p in nxt if p.measure() > 0]
        return Region(self.dim, pieces)

    def image(self, m: AffineMap) -> "Region":
        if m.dim != self.dim:
            raise DimensionMismatchError("map dimension mismatch")
        if not m.is_invertible():
            raise NonInvertibleMapError("image requires an invertible map")
        return Region(self.dim, [p.image(m) for p in self.pieces])

    def preimage_under(self, m: AffineMap, target: "Region") -> "Region":
        """{x in self : m(x) in target}, exact for arbitrary affine m."""
        self._check_dim(target)
        if m.dim != self.dim:
            raise DimensionMismatchError("map dimension mismatch")
        out = []
        for p in self.pieces:
            for q in target.pieces:
                cur = p
                dead = False
                for a, c in q.halfplanes():
                    # pull a.y >= c back through y = Mx + o
                    if self.dim == 1:
                        aa = (a[0] * m.matrix[0][0],)
                        cc = c - a[0] * m.offset[0]
                    else:
                        aa = (
                            a[0] * m.matrix[0][0] + a[1] * m.matrix[1][0],
                            a[0] * m.matrix[0][1] + a[1] * m.matrix[1][1],
                        )
                        cc = c - (a[0] * m.offset[0] + a[1] * m.offset[1])
                    if all(x == 0 for x in aa):
                        if cc >= 0:  # constant a.(Mx+o) fails the strict bound
                            dead = True
                            break
                        continue
                    cur = self._clip_piece(cur, aa, cc)
                    if cur is None:
                        dead = True
                        break
                if not dead and cur is not None and cur.measure() > 0:
                    out.append(cur)
        return Region(self.dim, out)

    @staticmethod
    def _clip_piece(piece, a, c):
        if _piece_dim(piece) == 1:
            if a[0] > 0:
                lo = max(piece.lo, c / a[0])
                return Interval(lo, piece.hi) if lo < piece.hi else None
            hi = min(piece.hi, c / a[0])
            return Interval(piece.lo, hi) if piece.lo < hi else None
        return piece.clip(a, c)

    def covers(self, parts) -> bool:
        return self.covers_witness(parts) is None

    def covers_witness(self, parts):
        """Exact decision of `self` being a subset of the union of `parts`;
        None if covered, else a rational point of self missing from the
        union.  Boundary points between parts count as uncovered (open
        sets), e.g. (-1,1) is not covered by (-1,0) and (0,1)."""
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
        return sorted(comps, key=lambda r: r.key())

    def is_connected(self) -> bool:
        return len(self.components()) <= 1

    def interior_point(self) -> tuple:
        if not self.pieces:
            raise EmptyRegionError("empty region has no interior point")
        return self.pieces[0].interior_point()

    def sample_points(self, count: int, rng) -> list:
        """Deterministic rational sample points, `rng` a random.Random."""
        pts = []
        for _ in range(count):
            piece = self.pieces[rng.randrange(len(self.pieces))]
            vs = piece.vertices()
            weights = [Fraction(rng.randint(1, 97), 1) for _ in vs]
            tot = sum(weights)
            pts.append(tuple(
                sum(w * v[k] for w, v in zip(weights, vs)) / tot
                for k in range(self.dim)
            ))
        return pts


def interior_point(r: Region) -> tuple:
    """Deterministic rational interior point (centroid of the first
    canonical piece)."""
    return r.interior_point()


def distinct_points(region: Region, count: int) -> list:
    """Deterministic list of up to `count` distinct rational points in the
    region: piece centroids, then midpoints towards each vertex."""
    pts = []
    seen = set()
    queue = []
    for piece in region.pieces:
        c = piece.interior_point()
        queue.append(c)
        for v in piece.vertices():
            # stay strictly inside: step 1/3 of the way towards the vertex
            queue.append(tuple(ci + (vi - ci) / 3 for ci, vi in zip(c, v)))
            queue.append(tuple(ci + (vi - ci) * 2 / 3 for ci, vi in zip(c, v)))
    for p in queue:
        if p not in seen and region.contains_point(p):
            pts.append(p)
            seen.add(p)
        if len(pts) >= count:
            break
    return pts


# ---------------------------------------------------------------------------
# Partial affine isomorphisms and germs
# ---------------------------------------------------------------------------

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

    def restrict(self, region: Region) -> "PartialAffineIso":
        return PartialAffineIso(self.map, self.dom.intersect(region))

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

    def inverse(self) -> "Germ":
        return Germ(self.target_point(), self.map.inverse())


def germ_of(iso: PartialAffineIso, x) -> Germ:
    """Germ of the partial isomorphism at x; x must lie in the domain."""
    x = tuple(frac(c) for c in x)
    if not iso.dom.contains_point(x):
        raise GeometryError(f"point {x} not in the domain")
    return Germ(x, iso.map)
