"""Etale groupoids presented by affine arrow families.

The object space is a finite list of open region pieces; the arrow space is
a finite list of families, each denoting the set of germs of one partial
affine isomorphism between two pieces.  Source, target, multiplication,
unit and inverse act family-wise; the groupoid axioms reduce to closure of
the family list under restriction, composition and inversion, which is
checked exactly.  Properness and etaleness are structural in this
presentation; effectiveness is the statement that loop germs through a
point are separated by their affine maps, a finite check by rigidity.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .geometry import AffineMap, PartialAffineIso, Region
from .reports import ComposabilityError, Report


@dataclass(frozen=True)
class ArrowFamily:
    """The set of germs {(x, iso.map) : x in iso.dom} between two pieces."""

    fid: str
    src: str
    dst: str
    iso: PartialAffineIso

    @property
    def map(self) -> AffineMap:
        return self.iso.map

    @property
    def dom(self) -> Region:
        return self.iso.dom

    @property
    def cod(self) -> Region:
        return self.iso.cod

    def key(self):
        return (self.src, self.dst, self.iso.key())


@dataclass(frozen=True)
class PresentedGroupoid:
    pieces: tuple          # sorted (piece id, Region) pairs
    families: tuple        # ArrowFamily, sorted by fid
    annotation: object = field(default=None, compare=False)
    # annotation: an Atlas this groupoid presents, or a chart-cover
    # description ((piece id, Region), ...); consumed by atlas reconstruction

    @staticmethod
    def make(pieces, families, annotation=None) -> "PresentedGroupoid":
        ps = tuple(sorted(dict(pieces).items()))
        fs = tuple(sorted(families, key=lambda f: f.fid))
        if len({f.fid for f in fs}) != len(fs):
            raise ValueError("duplicate family ids")
        return PresentedGroupoid(ps, fs, annotation)

    @property
    def dim(self):
        return self.pieces[0][1].dim

    def piece(self, pid: str) -> Region:
        return dict(self.pieces)[pid]

    def piece_ids(self):
        return tuple(p for p, _ in self.pieces)

    def family(self, fid: str) -> ArrowFamily:
        for f in self.families:
            if f.fid == fid:
                return f
        raise KeyError(f"no family {fid!r}")

    def families_between(self, src, dst):
        return [f for f in self.families if f.src == src and f.dst == dst]

    def find_family(self, src, dst, m: AffineMap, region: Region = None):
        """A family with the given affine map whose domain covers `region`
        (or any with that map if region is None)."""
        for f in self.families_between(src, dst):
            if f.map == m and (region is None or region.covers([f.dom])):
                return f
        return None

    def key(self):
        return (tuple((p, r.key()) for p, r in self.pieces),
                tuple(f.key() for f in self.families))


def validate_groupoid(g: PresentedGroupoid) -> Report:
    """Closure of the family list under units, inverses and composition
    (each up to restriction); these are exactly the groupoid axioms for the
    family-wise structure maps."""
    rep = Report("groupoid")
    ids = dict(g.pieces)
    for f in g.families:
        if f.src not in ids or f.dst not in ids:
            rep.fail("LG0", f"family {f.fid} between unknown pieces")
            return rep
        if not f.dom.covers([ids[f.src]]):
            rep.fail("LG0", f"family {f.fid} domain escapes its piece")
        if not f.cod.covers([ids[f.dst]]):
            rep.fail("LG0", f"family {f.fid} codomain escapes its piece")
    for pid, region in g.pieces:
        e = g.find_family(pid, pid, AffineMap.identity(g.dim), region)
        if e is None:
            rep.fail("LG1", f"no unit family on piece {pid}")
    for f in g.families:
        inv = f.iso.inverse()
        got = g.find_family(f.dst, f.src, inv.map, inv.dom)
        if got is None:
            rep.fail("LG5", f"no inverse family for {f.fid}")
    for f1, f2 in itertools.product(g.families, repeat=2):
        if f1.dst != f2.src:
            continue
        dom = f1.dom.preimage_under(f1.map, f2.dom)
        if dom.is_empty():
            continue
        m = f2.map.compose(f1.map)
        doms = [f3.dom for f3 in g.families_between(f1.src, f2.dst) if f3.map == m]
        w = dom.covers_witness(doms)
        if w is not None:
            rep.fail("LG3", f"composite of {f1.fid} and {f2.fid} missing from the "
                            f"family list", w)
    return rep


def kappa(g: PresentedGroupoid, x0, x0p, arrow):
    """The germ of the local section through an arrow: for an arrow given as
    (family id, base point), the pair (base point, family map).  The arrow
    must run from x0 to x0p."""
    fid, base = arrow
    fam = g.family(fid)
    base = tuple(base)
    if not fam.dom.contains_point(base):
        raise ValueError("arrow base point not in the family domain")
    if tuple(x0) != base:
        raise ValueError("arrow does not start at the first point")
    if fam.map(base) != tuple(x0p):
        raise ValueError("arrow does not end at the second point")
    from .geometry import Germ
    return Germ(base, fam.map)


def loop_families_through(g: PresentedGroupoid, pid: str, x) -> list:
    x = tuple(x)
    return [f for f in g.families_between(pid, pid)
            if f.dom.contains_point(x) and f.map(x) == x]


def isotropy_order(g: PresentedGroupoid, pid: str, x) -> int:
    """Number of distinct loop germs at a point (the maps are distinct for a
    validated, deduplicated presentation)."""
    return len({f.map for f in loop_families_through(g, pid, x)})


def is_effective(g: PresentedGroupoid):
    """Injectivity of the passage from loops to germs: no two distinct loop
    families may carry the same affine map over a shared open region.
    Returns (bool, witness)."""
    for pid, _ in g.pieces:
        fams = g.families_between(pid, pid)
        for f1, f2 in itertools.combinations(fams, 2):
            if f1.map == f2.map and not f1.dom.intersect(f2.dom).is_empty():
                w = f1.dom.intersect(f2.dom).interior_point()
                return False, (pid, w, f1.fid, f2.fid)
    return True, None


def coarse_equal(g: PresentedGroupoid, p, q, assume_closed=None):
    """Orbit equality of two (piece, point) pairs.  For a presentation whose
    family list is closed under composition, one application of each family
    already reaches the whole orbit; otherwise verdicts may be undecided."""
    (pi, x), (qi, y) = (p[0], tuple(p[1])), (q[0], tuple(q[1]))
    if pi == qi and x == y:
        return "equal"
    for f in g.families_between(pi, qi):
        if f.dom.contains_point(x) and f.map(x) == y:
            return "equal"
    closed = assume_closed if assume_closed is not None else validate_groupoid(g).ok
    return "distinct" if closed else "undecided"


def orbit(g: PresentedGroupoid, p) -> set:
    """All (piece, point) pairs reachable from p (one step suffices for a
    composition-closed family list)."""
    pi, x = p[0], tuple(p[1])
    out = {(pi, x)}
    for f in g.families:
        if f.src == pi and f.dom.contains_point(x):
            out.add((f.dst, f.map(x)))
    return out


# ---------------------------------------------------------------------------
# Morphisms and natural transformations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GroupoidMorphism:
    source: PresentedGroupoid
    target: PresentedGroupoid
    object_map: tuple      # sorted (piece id, (target piece id, AffineMap))
    family_map: tuple      # sorted (family id, target family id)

    @staticmethod
    def make(source, target, object_map, family_map) -> "GroupoidMorphism":
        om = tuple(sorted((p, (q, m)) for p, (q, m) in dict(object_map).items()))
        fm = tuple(sorted(dict(family_map).items()))
        return GroupoidMorphism(source, target, om, fm)

    def on_piece(self, pid):
        return dict(self.object_map)[pid]

    def on_family(self, fid):
        return dict(self.family_map)[fid]

    def is_etale(self):
        return all(m.is_invertible() for _, (_, m) in self.object_map)

    def key(self):
        return (tuple((p, (q, m.key())) for p, (q, m) in self.object_map),
                self.family_map)


def identity_gpd_morphism(g: PresentedGroupoid) -> GroupoidMorphism:
    return GroupoidMorphism.make(
        g, g,
        {p: (p, AffineMap.identity(g.dim)) for p, _ in g.pieces},
        {f.fid: f.fid for f in g.families})


def compose_gpd_morphisms(b: GroupoidMorphism, a: GroupoidMorphism) -> GroupoidMorphism:
    if a.target.key() != b.source.key():
        raise ComposabilityError("groupoid morphisms not composable")
    om = {}
    for p, (q, m) in a.object_map:
        r, n = b.on_piece(q)
        om[p] = (r, n.compose(m))
    fm = {fid: b.on_family(t) for fid, t in a.family_map}
    return GroupoidMorphism.make(a.source, b.target, om, fm)


def equal_gpd_morphisms(a: GroupoidMorphism, b: GroupoidMorphism) -> bool:
    """Equality as set maps on objects and arrows: equal object maps, and
    matched families carry equal affine maps on the target side."""
    if a.source.key() != b.source.key() or a.target.key() != b.target.key():
        return False
    if a.object_map != b.object_map:
        return False
    for fid, t1 in a.family_map:
        t2 = b.on_family(fid)
        if a.target.family(t1).map != b.target.family(t2).map:
            return False
    return True


def validate_gpd_morphism(psi: GroupoidMorphism) -> Report:
    rep = Report("groupoid morphism")
    g, h = psi.source, psi.target
    om, fm = dict(psi.object_map), dict(psi.family_map)
    if set(om) != set(g.piece_ids()) or set(fm) != {f.fid for f in g.families}:
        rep.fail("GM0", "object/family maps not total")
        return rep
    for p, (q, m) in om.items():
        if m.is_invertible():
            if not g.piece(p).image(m).covers([h.piece(q)]):
                rep.fail("GM1", f"object map leaves the target piece at {p}")
        else:
            for x in _probe_points(g.piece(p)):
                if not h.piece(q).contains_point(m(x)):
                    rep.fail("GM1", f"object map leaves the target piece at {p}", x)
                    break
    for f in g.families:
        t = h.family(fm[f.fid])
        qs, ms = om[f.src]
        qt, mt = om[f.dst]
        if t.src != qs or t.dst != qt:
            rep.fail("GM2", f"family {f.fid} sent over the wrong pieces")
            continue
        # commutation with source/target/multiplication, exactly:
        # the target family's map must intertwine the object maps
        if t.map.compose(ms) != mt.compose(f.map):
            rep.fail("GM2", f"family image does not intertwine the object maps "
                            f"({f.fid})")
        if ms.is_invertible() and not f.dom.image(ms).covers([t.dom]):
            rep.fail("GM2", f"family image domain escapes the target family ({f.fid})")
    # multiplicativity and units on the family level
    for f1, f2 in itertools.product(g.families, repeat=2):
        if f1.dst != f2.src:
            continue
        m12 = f2.map.compose(f1.map)
        t12 = h.family(fm[f2.fid]).map.compose(h.family(fm[f1.fid]).map)
        bad = [f3 for f3 in g.families_between(f1.src, f2.dst)
               if f3.map == m12 and h.family(fm[f3.fid]).map != t12]
        if not bad:
            continue
        dom = f1.dom.preimage_under(f1.map, f2.dom)
        if dom.is_empty():
            continue
        for f3 in bad:
            if not f3.dom.intersect(dom).is_empty():
                rep.fail("GM3", "family map not multiplicative",
                         f3.dom.intersect(dom).interior_point())
    for f in g.families:
        if f.src == f.dst and f.map.is_identity():
            if not h.family(fm[f.fid]).map.is_identity():
                rep.fail("GM4", f"unit family {f.fid} not sent to a unit")
    return rep


def _probe_points(region: Region, count: int = 8):
    from .geometry import distinct_points
    return distinct_points(region, count)


@dataclass(frozen=True)
class NatTransf:
    """Assignment of a target arrow to every source object: piecewise, a
    region and the arrow family whose germs are taken over it."""

    source_morphism: GroupoidMorphism
    target_morphism: GroupoidMorphism
    assignments: tuple    # sorted (piece id, ((Region, family id), ...))

    @staticmethod
    def make(src_m, dst_m, assignments) -> "NatTransf":
        out = tuple(sorted(
            (p, tuple(sorted(items, key=lambda it: (it[0].key(), it[1]))))
            for p, items in dict(assignments).items()))
        return NatTransf(src_m, dst_m, out)

    def at(self, pid):
        return dict(self.assignments).get(pid, ())


def identity_nat_transf(psi: GroupoidMorphism) -> NatTransf:
    h = psi.target
    assigns = {}
    for p, (q, _) in psi.object_map:
        e = h.find_family(q, q, AffineMap.identity(h.dim), h.piece(q))
        assigns[p] = ((psi.source.piece(p), e.fid),)
    return NatTransf.make(psi, psi, assigns)


def validate_nat_transf(alpha: NatTransf) -> Report:
    rep = Report("natural transformation")
    p1, p2 = alpha.source_morphism, alpha.target_morphism
    if p1.source.key() != p2.source.key() or p1.target.key() != p2.target.key():
        rep.fail("NT0", "morphisms not parallel")
        return rep
    g, h = p1.source, p1.target
    for pid, region in g.pieces:
        items = alpha.at(pid)
        w = region.covers_witness([r for r, _ in items])
        if w is not None:
            rep.fail("NT0", f"assignment does not cover piece {pid}", w)
        q1, m1 = p1.on_piece(pid)
        q2, m2 = p2.on_piece(pid)
        for r, fid in items:
            fam = h.family(fid)
            # (NT1): sources and targets of the assigned arrows
            if fam.src != q1 or fam.dst != q2:
                rep.fail("NT1", f"assigned family over the wrong pieces at {pid}")
                continue
            if fam.map.compose(m1) != m2:
                rep.fail("NT1", "assigned arrows do not end at the second "
                                "morphism's image", r.interior_point())
            if m1.is_invertible() and not r.image(m1).covers([fam.dom]):
                rep.fail("NT1", f"assigned family domain too small at {pid}")
        # germ consistency on overlaps
        for (r1, f1), (r2, f2) in itertools.combinations(items, 2):
            if not r1.intersect(r2).is_empty():
                if h.family(f1).map != h.family(f2).map:
                    rep.fail("NT1", "overlapping assignments disagree",
                             r1.intersect(r2).interior_point())
    # (NT2): the exchange equation over every source arrow family, exactly;
    # the overlap region is only needed to confirm a map-level failure
    for f in g.families:
        t1 = h.family(p1.on_family(f.fid))
        t2 = h.family(p2.on_family(f.fid))
        for r1, a1 in alpha.at(f.src):
            for r2, a2 in alpha.at(f.dst):
                am1 = h.family(a1).map
                am2 = h.family(a2).map
                if am2.compose(t1.map) == t2.map.compose(am1):
                    continue
                overlap = f.dom.intersect(r1).preimage_under(f.map, r2)
                if not overlap.is_empty():
                    rep.fail("NT2", "exchange equation fails",
                             overlap.interior_point())
    return rep


def equal_nat_transfs(a: NatTransf, b: NatTransf) -> bool:
    """Equal source and target morphisms, and equal arrow germs wherever
    the assignments overlap."""
    if not (equal_gpd_morphisms(a.source_morphism, b.source_morphism)
            and equal_gpd_morphisms(a.target_morphism, b.target_morphism)):
        return False
    for pid in {p for p, _ in a.assignments} | {p for p, _ in b.assignments}:
        for r1, f1 in a.at(pid):
            for r2, f2 in b.at(pid):
                if not r1.intersect(r2).is_empty():
                    m1 = a.source_morphism.target.family(f1).map
                    m2 = b.source_morphism.target.family(f2).map
                    if m1 != m2:
                        return False
    return True


def vertical_compose_nt(beta: NatTransf, alpha: NatTransf) -> NatTransf:
    """beta after alpha: pointwise multiplication of the assigned arrows."""
    if not equal_gpd_morphisms(alpha.target_morphism, beta.source_morphism):
        raise ComposabilityError("natural transformations not composable")
    h = alpha.source_morphism.target
    assigns = {}
    for pid, _ in alpha.source_morphism.source.pieces:
        out = []
        for r1, f1 in alpha.at(pid):
            for r2, f2 in beta.at(pid):
                r = r1.intersect(r2)
                if r.is_empty():
                    continue
                m = h.family(f2).map.compose(h.family(f1).map)
                q1, _ = alpha.source_morphism.on_piece(pid)
                q2, _ = beta.target_morphism.on_piece(pid)
                m1 = dict(alpha.source_morphism.object_map)[pid][1]
                fam = None
                if m1.is_invertible():
                    fam = h.find_family(q1, q2, m, r.image(m1))
                if fam is None:
                    fam = h.find_family(q1, q2, m)
                if fam is None:
                    raise ComposabilityError(
                        "target families not closed under the needed composite")
                out.append((r, fam.fid))
        assigns[pid] = out
    return NatTransf.make(alpha.source_morphism, beta.target_morphism, assigns)


def invert_nat_transf(alpha: NatTransf) -> NatTransf:
    h = alpha.source_morphism.target
    assigns = {}
    for pid, items in alpha.assignments:
        out = []
        for r, fid in items:
            fam = h.family(fid)
            inv = fam.iso.inverse()
            got = h.find_family(fam.dst, fam.src, inv.map, inv.dom)
            if got is None:
                raise ComposabilityError("no inverse family available")
            out.append((r, got.fid))
        assigns[pid] = out
    return NatTransf.make(alpha.target_morphism, alpha.source_morphism, assigns)


def horizontal_compose_nt(xi: NatTransf, delta: NatTransf) -> NatTransf:
    """Composite alongside: for psi-squares xi between (g1, g2) and delta
    between (f1, f2), the transformation g1 f1 => g2 f2."""
    f1, f2 = delta.source_morphism, delta.target_morphism
    g1, g2 = xi.source_morphism, xi.target_morphism
    if f1.target.key() != g1.source.key():
        raise ComposabilityError("not horizontally composable")
    left = compose_gpd_morphisms(g1, f1)
    right = compose_gpd_morphisms(g2, f2)
    hz = g1.target
    assigns = {}
    for pid, _ in f1.source.pieces:
        out = []
        q1, m1 = f1.on_piece(pid)
        for r1, fid1 in delta.at(pid):
            # push the delta arrow through g1
            t1 = hz.family(g1.on_family(fid1))
            for r2, fid2 in xi.at(f2.on_piece(pid)[0]):
                # xi assignment at the image piece of f2
                m = hz.family(fid2).map.compose(t1.map)
                r = r1
                if m1.is_invertible():
                    # restrict to where the f2-image lies in the xi patch
                    q2, m2 = f2.on_piece(pid)
                    r = r.preimage_under(m2, r2)
                if r.is_empty():
                    continue
                pa, pm = left.on_piece(pid)
                qa, _ = right.on_piece(pid)
                fam = None
                if pm.is_invertible():
                    fam = hz.find_family(pa, qa, m, r.image(pm))
                if fam is None:
                    fam = hz.find_family(pa, qa, m)
                if fam is None:
                    raise ComposabilityError("missing composite family")
                out.append((r, fam.fid))
        assigns[pid] = out
    return NatTransf.make(left, right, assigns)


# ---------------------------------------------------------------------------
# Morita equivalences
# ---------------------------------------------------------------------------

def is_morita(psi: GroupoidMorphism):
    """Essential surjectivity (every target orbit meets the image) and full
    faithfulness (target germs between image points are exactly the images
    of source germs).  Returns (bool, Report)."""
    rep = Report("Morita equivalence")
    g, h = psi.source, psi.target
    if not psi.is_etale():
        rep.fail("ME2", "object map is not a local isomorphism")
        return False, rep

    # (ME1) essential surjectivity
    for qid, qreg in h.pieces:
        parts = []
        for p, (q, m) in psi.object_map:
            img = g.piece(p).image(m)
            for fam in h.families_between(q, qid):
                part = fam.dom.intersect(img)
                if not part.is_empty():
                    parts.append(part.image(fam.map))
        w = qreg.covers_witness(parts)
        if w is not None:
            rep.fail("ME1", f"orbit not reached in piece {qid}", w)

    # (ME2) fullness: every target family germ between image points is the
    # image of a source family germ
    for p in g.piece_ids():
        for pp in g.piece_ids():
            q, m = psi.on_piece(p)
            qq, mm = psi.on_piece(pp)
            for fam in h.families_between(q, qq):
                n = mm.inverse().compose(fam.map).compose(m)
                r = g.piece(p).preimage_under(m, fam.dom)
                r = r.preimage_under(n, g.piece(pp))
                if r.is_empty():
                    continue
                doms = [f.dom for f in g.families_between(p, pp) if f.map == n]
                w = r.covers_witness(doms)
                if w is not None:
                    rep.fail("ME2", f"target germ between image points not in the "
                                    f"image ({p}->{pp})", w)
    return rep.ok, rep


def find_unique_nat_transf(psi1: GroupoidMorphism, psi2: GroupoidMorphism):
    """Between two Morita equivalences inducing the same coarse map there is
    exactly one natural transformation; construct it piecewise by matching
    the local section psi2 o psi1^{-1} against the target families.
    Returns (NatTransf, None) or (None, coarse mismatch witness)."""
    g, h = psi1.source, psi1.target
    if psi2.source.key() != g.key() or psi2.target.key() != h.key():
        raise ComposabilityError("morphisms not parallel")
    assigns = {}
    for pid, region in g.pieces:
        q1, m1 = psi1.on_piece(pid)
        q2, m2 = psi2.on_piece(pid)
        if not (m1.is_invertible() and m2.is_invertible()):
            return None, (pid, "object maps not etale")
        target_map = m2.compose(m1.inverse())
        img = region.image(m1)
        cands = [f for f in h.families_between(q1, q2) if f.map == target_map]
        covered = img.covers_witness([f.dom for f in cands])
        if covered is not None:
            # witness: a source point whose two images are not connected by
            # any arrow with the right germ
            return None, (pid, m1.inverse()(covered))
        assigns[pid] = tuple((region.preimage_under(m1, f.dom), f.fid)
                             for f in cands
                             if not region.preimage_under(m1, f.dom).is_empty())
    return NatTransf.make(psi1, psi2, assigns), None


def coarse_homeomorphism_check(psi: GroupoidMorphism, samples: int = 16,
                               seed: int = 0) -> Report:
    """Spot-check that the induced coarse map of a Morita equivalence is a
    bijection on sampled orbit pairs."""
    import random
    rep = Report("coarse bijectivity")
    rng = random.Random(seed)
    g, h = psi.source, psi.target
    pts = []
    for pid, region in g.pieces:
        pts.extend((pid, x) for x in region.sample_points(max(1, samples // len(g.pieces)), rng))
    for (p1, x1), (p2, x2) in itertools.combinations(pts, 2):
        src_eq = coarse_equal(g, (p1, x1), (p2, x2), assume_closed=True)
        im1 = (psi.on_piece(p1)[0], psi.on_piece(p1)[1](x1))
        im2 = (psi.on_piece(p2)[0], psi.on_piece(p2)[1](x2))
        dst_eq = coarse_equal(h, im1, im2, assume_closed=True)
        if src_eq != dst_eq:
            rep.fail("CB", f"coarse map not injective/well-defined on a sample",
                     ((p1, x1), (p2, x2)))
    return rep
