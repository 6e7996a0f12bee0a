"""Charts, atlases, their morphisms and 2-morphisms.

The objects here form a strict 2-category.  A chart is a connected open
rational region together with a finite effective group of affine maps
preserving it; an atlas is a family of charts glued by certified changes of
charts.  Because every local datum is affine, germ equality is affine-map
equality, and all axioms of morphism representatives (M1)-(M5f) and of
2-morphism representatives (2Ma)-(2Me) are decided exactly.

Base points are never materialized: the coarse space of an atlas is the
quotient of its chart points by the pseudogroup generated by the declared
generators and the chart groups.  That pseudogroup is computed as a bounded
word closure; when the closure stabilizes below the bound it is complete and
negative answers are sound, otherwise verdicts degrade to "undecided".
"""

from __future__ import annotations

import itertools
from functools import cached_property

try:
    # the built-in md5 spares each process loading OpenSSL through hashlib
    from _md5 import md5
except ImportError:
    from hashlib import md5

from .geometry import AffineMap, PartialAffineIso, Region, clashes, descending_measure
from .memo import field_text, interned, memo
from .reports import ComposabilityError, NoSuchCellError, Report, UndecidedError, Violation

# The default word bound.  Everything that reaches `closure` takes the bound
# as an argument; the CLI's --bound, the two ops factories of `fractions`,
# `fred0`/`fred1` and the fixtures read this default, nothing else does.
WORD_BOUND = 4
FAMILY_CAP = 256


# ---------------------------------------------------------------------------
# Charts, changes of charts, atlases
# ---------------------------------------------------------------------------

@interned
class Chart:
    """Connected open region with a finite effective affine symmetry group.

    The quotient projection is implicit: a base point is the orbit of a
    chart point under the atlas pseudogroup."""

    cid: str
    domain: Region
    group: tuple

    @staticmethod
    def _canonical(cid, domain, group):
        maps = sorted(set(group), key=AffineMap.order)
        if not any(m.is_identity() for m in maps):
            maps = sorted(maps + [AffineMap.identity(domain.dim)], key=AffineMap.order)
        return cid, domain, tuple(maps)

    @property
    def dim(self):
        return self.domain.dim


@interned
class ChangeOfCharts:
    """Partial affine isomorphism from one chart to another, compatible with
    the implicit projections.  The domain may have several components; each
    component is a change of charts in its own right."""

    src: str
    dst: str
    iso: PartialAffineIso

    @staticmethod
    def make(src, dst, m: AffineMap, dom: Region) -> "ChangeOfCharts":
        return ChangeOfCharts(src, dst, PartialAffineIso.make(m, dom))

    @property
    def map(self) -> AffineMap:
        return self.iso.map

    @property
    def dom(self) -> Region:
        return self.iso.dom

    @property
    def cod(self) -> Region:
        return self.iso.cod

    @memo
    def inverse(self) -> "ChangeOfCharts":
        return ChangeOfCharts(self.dst, self.src, self.iso.inverse())

    def union(self, other: "ChangeOfCharts") -> "ChangeOfCharts":
        """The same germ family (src, dst, map) on the union of the two
        domains; `other` carries that family too."""
        return ChangeOfCharts(self.src, self.dst,
                              PartialAffineIso(self.map, self.dom.union(other.dom)))


def compose_changes(later: ChangeOfCharts, earlier: ChangeOfCharts):
    """later after earlier; None when the composite has empty domain."""
    if earlier.dst != later.src:
        raise ComposabilityError(
            f"changes not composable: {earlier.dst} != {later.src}")
    iso = later.iso.compose(earlier.iso)
    if iso.dom.is_empty():
        return None
    return ChangeOfCharts(earlier.src, later.dst, iso)


@interned
class Atlas:
    """Finite family of charts together with generating changes of charts."""

    charts: tuple
    generators: tuple

    @staticmethod
    def _canonical(charts, generators=()):
        charts = tuple(sorted(charts, key=lambda c: c.cid))
        ids = [c.cid for c in charts]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate chart ids")
        return charts, tuple(sorted(generators, key=ChangeOfCharts.order))

    @property
    def dim(self):
        if not self.charts:
            raise ValueError("atlas has no charts")
        return self.charts[0].dim

    @cached_property
    def _chart_index(self):
        return {c.cid: c for c in self.charts}

    def chart(self, cid: str) -> Chart:
        c = self._chart_index.get(cid)
        if c is None:
            raise KeyError(f"no chart {cid!r}")
        return c

    def chart_ids(self):
        return tuple(c.cid for c in self.charts)

    @cached_property
    def _parts(self):
        return frozenset(self.charts + self.generators)


def merge_many(*atlases):
    """Merge any number of atlases (ignoring Nones); None when inconsistent."""
    out = None
    for a in atlases:
        if a is None:
            continue
        out = a if out is None else merge_atlases(out, a)
        if out is None:
            return None
    return out


def merge_atlases(a: Atlas, b: Atlas):
    """Union of two atlases identifying charts with equal ids.  Returns None
    when a shared id carries different chart data (no canonical merge).
    An atlas with no charts merges to the other one, and so does an atlas
    whose charts and generators the other one holds."""
    if not a.charts:
        return b
    if not b.charts:
        return a
    if a.dim != b.dim:
        return None
    if b._parts <= a._parts:
        return a
    if a._parts <= b._parts:
        return b
    charts = {c.cid: c for c in a.charts}
    for c in b.charts:
        if c.cid in charts and charts[c.cid] != c:
            return None
        charts[c.cid] = c
    gens = dict.fromkeys(a.generators + b.generators)
    return Atlas(tuple(charts.values()), tuple(gens))


# ---------------------------------------------------------------------------
# Bounded pseudogroup closure
# ---------------------------------------------------------------------------

class Pseudogroup:
    """Word closure of the chart groups and declared generators, aggregated
    by affine map: families[(i, j)][map] is the union of the domains of all
    closure words from chart i to chart j with that affine map.

    A word never changes its first chart, so the closure is closed one
    source chart at a time, by `_close`, and a source is closed when it is
    first read.  `region`, `maps`, `covered` and `forced` read the families
    of one source chart; `families`, `complete`, `overflowed`, `items()`
    and `count()` read the whole closure and close every source still open,
    in seed order (`complete` and `overflowed` stop at the first source
    that settles them).  So `families` is ordered by source chart in seed
    order, then by pair insertion order, whichever source was read first.
    A source's families, once closed, never change.

    `FAMILY_CAP` bounds the families of one source chart: a source whose
    families exceed it stops, overflowed and incomplete.  The closure is
    `complete` when the rounds of every source stabilized within the bound,
    and `overflowed` when some source overflowed.  A miss read before the
    whole closure (`covered`, `refute`) reads `complete`, so it closes every
    source: the verdict of a miss is that of the whole closure."""

    def __init__(self, atlas: Atlas, bound: int):
        seeds = _seed_families(atlas)
        # letters[chart]: the seeds leaving the chart as (dst, m2, d2); on a
        # line, identity maps of a chart to itself are left out
        line = all(m.dim == 1 and dom.dim == 1 for _, _, m, dom in seeds)
        self._seeds, self._letters = {}, {}
        for src, dst, m, dom in seeds:
            self._seeds.setdefault(src, []).append((dst, m, dom))
            if not (line and src == dst and m.is_identity()):
                self._letters.setdefault(src, []).append((dst, m, dom))
        self._bound = bound
        self._closed = {}  # source chart -> {dst: {map: region}}
        self._exits = {}   # source chart -> (complete, overflowed)

    def _close(self, src):
        """Close the families leaving chart `src` and return them by target
        chart.  Appending one generating letter at a time reaches every
        word, so stability under a single append pass proves that the
        source's closure is full.

        The rounds are semi-naive: `absorb` records the key (dst, map) of
        every family it inserts or enlarges, and the next round steps only
        the families recorded by the one before, in family order.  A family
        that did not grow re-emits the steps that an earlier round already
        absorbed.  Where absorbing a region that a family already holds
        changes nothing, the families, their order, `complete`, `overflowed`
        and the round of the cap check are those of stepping every family
        in every round.  That holds on a line; in the plane a union with a
        region already held can give other pieces of the same set (next
        paragraph).  A round that records nothing proves stability.

        On a line, an identity map from a chart to itself is a seed but not
        a letter.  Its step sends the family (dst, m) with region `d1` to a
        part of `d1` under the same key, whose region holds `d1` already.  A
        canonical region of dimension 1 is its maximal open intervals, so
        the union of a region and a subset of it is that region: the step
        never changes a family, whether or not the chart is valid.  In the
        plane a canonical region may hold overlapping pieces, and a union
        with a subset can give other pieces of the same set (the invalid
        `CLIPPED` atlas of `tests/test_closure_reference.py`), so there the
        letters stay.  On `coherence` identity letters were 37% of all steps
        and those on a line 28% (on `bf-atlas` 27% and 9%).

        Each step is computed once per process: preimages, composites and
        unions are memoized in the geometry kernel.  A region whose pieces
        are all pieces of the family already is absorbed without a union
        (the pieces of a canonical region are pairwise unmergeable, so that
        union would only drop the duplicates), which keeps these trivial
        unions out of the memo.  Most steps give back the family's own
        current region, which the loop tests inline before calling
        `absorb`.  The steps are not kept: within one source a family is
        stepped again only once its region has grown, so a step does not
        repeat.  A table of the steps of each whole closure, counted over
        one pass of `coherence` and of `bf-atlas`, found every repeat in
        another source than the one that took the step first."""
        letters = self._letters
        fams = {}
        grown = set()  # keys (dst, m) inserted or enlarged since the last round

        def absorb(by_map, dst, m, cur, region):
            """Put `region` into the family (dst, m), whose dict is `by_map`
            and whose current region `cur` (or None) is not `region`."""
            if cur is None:
                if not region.is_empty():
                    by_map[m] = region
                    grown.add((dst, m))
                return
            if set(region.pieces) <= set(cur.pieces):
                return
            new = cur.union(region)
            if new is not cur:
                by_map[m] = new
                grown.add((dst, m))

        for dst, m, dom in self._seeds.get(src, ()):
            by_map = fams.setdefault(dst, {})
            cur = by_map.get(m)
            if cur is not dom:
                absorb(by_map, dst, m, cur, dom)
        complete = overflowed = False
        for _ in range(self._bound):
            snapshot = [(mid, m1, d1)
                        for mid, by_map in fams.items()
                        for m1, d1 in by_map.items()
                        if (mid, m1) in grown]
            grown.clear()
            for mid, m1, d1 in snapshot:
                for dst, m2, d2 in letters.get(mid, ()):
                    dom = d1.preimage_under(m1, d2)
                    if dom.is_empty():
                        continue
                    by_map = fams.setdefault(dst, {})
                    m21 = m2.compose(m1)
                    cur = by_map.get(m21)
                    if cur is not dom:
                        absorb(by_map, dst, m21, cur, dom)
            if sum(len(v) for v in fams.values()) > FAMILY_CAP:
                overflowed = True
                break
            if not grown:
                complete = True
                break
        self._closed[src] = fams
        self._exits[src] = complete, overflowed
        return fams

    def _source(self, src):
        """The families leaving chart `src`, by target chart."""
        fams = self._closed.get(src)
        return self._close(src) if fams is None else fams

    def _exit(self, src):
        """(complete, overflowed) of the rounds of source chart `src`."""
        self._source(src)
        return self._exits[src]

    @cached_property
    def families(self):
        return {(src, dst): by_map
                for src in self._seeds for dst, by_map in self._source(src).items()}

    @cached_property
    def complete(self):
        # an atlas without seeds has no source, and stabilizes in round one
        return self._bound > 0 and all(self._exit(src)[0] for src in self._seeds)

    @cached_property
    def overflowed(self):
        return any(self._exit(src)[1] for src in self._seeds)

    def region(self, src, dst, m: AffineMap):
        return self._source(src).get(dst, {}).get(m)

    def maps(self, src, dst):
        return self._source(src).get(dst, {})

    def covered(self, src, dst, m: AffineMap, region: Region):
        """Whether the region lies in the domain union of closure words with
        the given map.  True/False, or None when incomplete and not covered."""
        fam = self.region(src, dst, m)
        if fam is not None and region.covers([fam]):
            return True
        return False if self.complete else None

    def refute(self, message, witness):
        """Raise for a germ that the closure lacks.  The miss proves that no
        cell exists only when the closure is complete: `NoSuchCellError`
        with the `(chart id, point)` witness.  Otherwise a longer word may
        still supply the germ: `UndecidedError`."""
        if self.complete:
            raise NoSuchCellError(message, witness)
        raise UndecidedError(f"{message} within the word bound, "
                             f"whose pseudogroup closure is incomplete")

    def forced(self, src, dst, m: AffineMap, cid, region: Region, lift: AffineMap,
               message) -> Region:
        """The domain of the family from chart src to chart dst with the
        forced map `m`, which `lift` must carry `region` (of chart `cid`)
        into.  A miss is refuted at a point of the region that the lift
        sends outside the family, or at any point of it when the family is
        missing."""
        fam = self.region(src, dst, m)
        w = region.interior_point() if fam is None else region.escape_witness(lift, fam)
        if w is not None:
            self.refute(message, (cid, w))
        return fam

    def items(self):
        """The families as (src, dst, map, region), sorted by chart pair and
        then by map key."""
        return self._items

    @cached_property
    def _items(self):
        return tuple((src, dst, m, by_map[m])
                     for (src, dst), by_map in sorted(self.families.items())
                     for m in sorted(by_map, key=AffineMap.order))

    def count(self):
        return sum(len(v) for v in self.families.values())


def _seed_families(atlas: Atlas):
    seeds = []
    for c in atlas.charts:
        for g in c.group:
            seeds.append((c.cid, c.cid, g, c.domain))
    for gen in atlas.generators:
        seeds.append((gen.src, gen.dst, gen.map, gen.dom))
        inv = gen.inverse()
        seeds.append((inv.src, inv.dst, inv.map, inv.dom))
    return seeds


@memo
def closure(atlas: Atlas, bound: int) -> Pseudogroup:
    """Bounded pseudogroup closure of the atlas at the word bound.  The
    `Pseudogroup` closes each source chart when it is first read, so a
    caller that reads the families leaving a few charts closes only those;
    whole reads close the rest.  Every caller of one (atlas, bound) shares
    the one `Pseudogroup`, and so the sources it has closed.  The lifts of
    a morphism and the patches of a 2-cell read the families leaving one
    or two charts of a large search atlas: over one pass of `coherence`,
    281 of the 722 source charts of its closures were read."""
    return Pseudogroup(atlas, bound)


def coarse_equal_atlas(atlas: Atlas, p, q, bound: int):
    """Are two chart points (chart_id, point) in the same orbit of the
    pseudogroup?  Returns 'equal', 'distinct' or 'undecided'."""
    (ci, x), (cj, y) = p, q
    if ci == cj and x == y:
        return "equal"
    cl = closure(atlas, bound)
    for m, reg in cl.maps(ci, cj).items():
        if reg.contains_point(x) and m(x) == y:
            return "equal"
    return "distinct" if cl.complete else "undecided"


# ---------------------------------------------------------------------------
# Structural validation
# ---------------------------------------------------------------------------

def validate_chart(chart: Chart) -> Report:
    rep = Report(f"chart {chart.cid}")
    if chart.domain.is_empty():
        rep.fail("C1", "empty domain")
        return rep
    if not chart.domain.is_connected():
        rep.fail("C1", "domain not connected")
    maps = set(chart.group)
    for g in chart.group:
        if not g.is_invertible():
            rep.fail("C2", "group element not invertible", g)
            continue
        if not chart.domain.image(g).same_set(chart.domain):
            rep.fail("C2", f"group element does not preserve the domain", g)
        if g.inverse() not in maps:
            rep.fail("C3", "group not closed under inversion", g)
    for g, h in itertools.product(chart.group, repeat=2):
        if g.is_invertible() and h.is_invertible() and g.compose(h) not in maps:
            rep.fail("C3", "group not closed under composition", (g, h))
            break
    return rep


def validate_change(atlas: Atlas, ch: ChangeOfCharts) -> Report:
    rep = Report(f"change {ch.src}->{ch.dst}")
    try:
        src, dst = atlas.chart(ch.src), atlas.chart(ch.dst)
    except KeyError as e:
        rep.fail("CC1", str(e))
        return rep
    if ch.dom.is_empty():
        rep.fail("CC1", "empty domain")
        return rep
    if not ch.dom.covers([src.domain]):
        rep.fail("CC1", "domain not inside the source chart")
    if not ch.cod.covers([dst.domain]):
        rep.fail("CC2", "codomain not inside the target chart")
    for side, chart_, reg in (("CC3", src, ch.dom), ("CC4", dst, ch.cod)):
        for comp in reg.components():
            for g in chart_.group:
                img = comp.image(g)
                if not img.same_set(comp) and not img.intersect(comp).is_empty():
                    rep.fail(side, "component neither preserved nor moved off itself",
                             (g, comp.interior_point()))
    return rep


def validate_atlas(atlas: Atlas, bound: int) -> Report:
    rep = Report("atlas")
    if not atlas.charts:
        rep.fail("A1", "atlas has no charts")
        return rep
    dims = {c.dim for c in atlas.charts}
    if len(dims) != 1:
        rep.fail("A1", "charts of mixed dimension")
        return rep
    for c in atlas.charts:
        rep.absorb(validate_chart(c))
    for g in atlas.generators:
        rep.absorb(validate_change(atlas, g))
    if not rep.ok:
        return rep
    cl = closure(atlas, bound)
    if cl.overflowed:
        rep.note_undecided("pseudogroup closure exceeded the family cap")
    elif not cl.complete:
        rep.note_undecided("pseudogroup closure did not stabilize within the word bound")
    for src, dst, m, reg in cl.items():
        if not reg.covers([atlas.chart(src).domain]):
            rep.fail("A2", f"closure family escapes chart {src}", m)
        if not reg.image(m).covers([atlas.chart(dst).domain]):
            rep.fail("A2", f"closure family escapes chart {dst}", m)
    return rep


# ---------------------------------------------------------------------------
# Morphisms
# ---------------------------------------------------------------------------

@interned
class PEntry:
    """One element of the distinguished generating family of changes of
    charts carried by a morphism representative, with its assigned change of
    the target atlas."""

    change: ChangeOfCharts
    nu: ChangeOfCharts


def _normalize_entries(entries):
    merged = {}
    for e in entries:
        if e.change.dom.is_empty():
            continue
        k = (e.change.src, e.change.dst, e.change.map, e.nu.map, e.nu.src, e.nu.dst)
        prev = merged.get(k)
        merged[k] = e if prev is None else PEntry(prev.change.union(e.change),
                                                  prev.nu.union(e.nu))
    return tuple(sorted(merged.values(), key=PEntry.order))


@interned
class Morphism:
    """A morphism of atlases, held as a normalized representative of its
    germ-agreement class.  `certificate`, when present, is an atlas whose
    pseudogroup certifies that the lifts identify source and target points
    over the identity of the underlying space."""

    source: Atlas
    target: Atlas
    chart_map: tuple        # sorted (source chart id, target chart id) pairs
    lifts: tuple            # sorted (source chart id, AffineMap) pairs
    entries: tuple
    certificate: Atlas = None

    # the key omits the ends and the certificate: `pullback_square` names its
    # charts from it, and a saved choice table is ordered by it
    _key_fields = ("chart_map", "lifts", "entries")

    @staticmethod
    def _canonical(source, target, chart_map, lifts, entries, certificate=None):
        return (source, target, tuple(sorted(dict(chart_map).items())),
                tuple(sorted(dict(lifts).items())), _normalize_entries(entries), certificate)

    @cached_property
    def _chart_index(self):
        return dict(self.chart_map)

    @cached_property
    def _lift_index(self):
        return dict(self.lifts)

    @cached_property
    def _entry_index(self):
        index = {}
        for e in self.entries:
            index.setdefault((e.change.src, e.change.dst, e.change.map), []).append(e)
        return {k: tuple(es) for k, es in index.items()}

    def chart_image(self, cid: str) -> str:
        return self._chart_index[cid]

    def lift(self, cid: str) -> AffineMap:
        return self._lift_index[cid]

    def entries_with(self, src: str, dst: str, m: AffineMap):
        """The entries whose change carries the germ family (src, dst, m),
        in entry order."""
        return self._entry_index.get((src, dst, m), ())

    def is_etale(self) -> bool:
        return all(m.is_invertible() for _, m in self.lifts)


def validate_morphism(m: Morphism, bound: int) -> Report:
    rep = Report("morphism")
    src, tgt = m.source, m.target
    cm, lifts = dict(m.chart_map), dict(m.lifts)
    if set(cm) != set(src.chart_ids()) or set(lifts) != set(src.chart_ids()):
        rep.fail("M2", "chart map / lifts not defined on every source chart")
        return rep
    for i, j in cm.items():
        try:
            tgt.chart(j)
        except KeyError:
            rep.fail("M2", f"chart map sends {i} to unknown chart {j}")
            return rep

    # (M2)/(M3): each lift carries its chart domain into the assigned target
    # chart domain
    for i, j in cm.items():
        L = lifts[i]
        dom_i, dom_j = src.chart(i).domain, tgt.chart(j).domain
        if L.dim != src.dim:
            rep.fail("M3", f"lift at {i} has wrong dimension")
            continue
        w = dom_i.escape_witness(L, dom_j)
        if w is not None:
            rep.fail("M3", f"lift at {i} leaves the target chart", w)

    scl = closure(src, bound)
    tcl = closure(tgt, bound)
    if not scl.complete or not tcl.complete:
        rep.note_undecided("pseudogroup closure incomplete; good-subset checks partial")

    # entry-level structural checks and certification
    for e in m.entries:
        i, ip = e.change.src, e.change.dst
        if e.nu.src != cm.get(i) or e.nu.dst != cm.get(ip):
            rep.fail("M5", f"assigned change lives over the wrong chart pair ({i},{ip})")
            continue
        if scl.covered(i, ip, e.change.map, e.change.dom) is False:
            rep.fail("M4", "entry change not certified by the source pseudogroup",
                     e.change.map)
        if tcl.covered(e.nu.src, e.nu.dst, e.nu.map, e.nu.dom) is False:
            rep.fail("M5", "assigned change not certified by the target pseudogroup",
                     e.nu.map)
        L, Lp = lifts[i], lifts[ip]
        # (M5c) exact equation of affine maps, by rigidity
        if Lp.compose(e.change.map) != e.nu.map.compose(L):
            w = e.change.dom.interior_point()
            rep.fail("M5c", "lift does not intertwine the change with its image", w)
        # (M5a)/(M5b) domain and codomain containments
        w = e.change.dom.escape_witness(L, e.nu.dom)
        if w is not None:
            rep.fail("M5a", "image of the change domain escapes the assigned domain", w)
        w = e.change.cod.escape_witness(Lp, e.nu.cod)
        if w is not None:
            rep.fail("M5b", "image of the change codomain escapes the assigned codomain", w)

    # (M4): the entries reproduce every germ of the source pseudogroup
    for i, ip, mm, reg in scl.items():
        doms = [e.change.dom for e in m.entries_with(i, ip, mm)]
        w = reg.covers_witness(doms)
        if w is not None:
            rep.fail("M4", f"pseudogroup germ not reproduced by the good subset "
                           f"({i}->{ip})", w)

    # (M5d): overlapping entries with equal germs get equal assigned germs;
    # the germ families in the order of the sorted entries
    for i, ip, mm in dict.fromkeys((e.change.src, e.change.dst, e.change.map)
                                   for e in m.entries):
        es = [(e.change.dom, e.nu.map) for e in m.entries_with(i, ip, mm)]
        for overlap in clashes(itertools.combinations(es, 2)):
            rep.fail("M5d", f"equal germs with different assigned germs ({i}->{ip})",
                     overlap.interior_point())

    # (M5e): multiplicativity of the assignment on composable entries.  Several
    # pairs of entries can meet one fault; it is reported once.
    def fail_m5e(message, w):
        if Violation("M5e", message, w) not in rep.violations:
            rep.fail("M5e", message, w)

    for e1 in m.entries:
        for e2 in m.entries:
            if e1.change.dst != e2.change.src:
                continue
            u = e1.change.dom.preimage_under(e1.change.map, e2.change.dom)
            if u.is_empty():
                continue
            i, ip = e1.change.src, e2.change.dst
            m3 = e2.change.map.compose(e1.change.map)
            nu3 = e2.nu.map.compose(e1.nu.map)
            thirds = m.entries_with(i, ip, m3)
            w = u.covers_witness([e3.change.dom for e3 in thirds])
            if w is not None:
                fail_m5e(f"composite germ not reproduced inside the good subset ({i}->{ip})", w)
                continue
            for bad in clashes(((e3.change.dom, e3.nu.map), (u, nu3)) for e3 in thirds):
                fail_m5e(f"assignment not multiplicative ({i}->{ip})", bad.interior_point())

    # (M5f): identity germs map to identity germs
    for e in m.entries:
        if e.change.src == e.change.dst and e.change.map.is_identity():
            if not e.nu.map.is_identity():
                rep.fail("M5f", "identity germ assigned a non-identity germ",
                         e.change.dom.interior_point())
    return rep


@memo
def equal_morphisms(a: Morphism, b: Morphism) -> bool:
    """Germ-agreement equality: same chart map and lifts, and wherever two
    entries carry the same germ the assigned germs coincide."""
    if a.source != b.source or a.target != b.target:
        return False
    if a.chart_map != b.chart_map or a.lifts != b.lifts:
        return False
    return not any(clashes(
        ((e1.change.dom, e1.nu.map), (e2.change.dom, e2.nu.map)) for e1 in a.entries
        for e2 in b.entries_with(e1.change.src, e1.change.dst, e1.change.map)))


@memo
def identity_morphism(atlas: Atlas, bound: int) -> Morphism:
    """The identity of an atlas: the morphism with identity chart map and
    identity lifts, so that every germ of its closure is assigned to
    itself, certified by the atlas."""
    return morphism_from_lifts(
        atlas, atlas,
        {c.cid: c.cid for c in atlas.charts},
        {c.cid: AffineMap.identity(atlas.dim) for c in atlas.charts},
        bound, certificate=atlas)


@memo
def compose_morphisms(g: Morphism, f: Morphism) -> Morphism:
    """Composite g after f.  Each entry of f is matched, by exact affine
    equality, against the entries of g covering its assigned change; the
    entry is restricted to the matched part and handed g's assignment."""
    if f.target != g.source:
        raise ComposabilityError("target of the first factor is not the source of the second")
    cm = {i: g.chart_image(j) for i, j in f.chart_map}
    lifts = {i: g.lift(f.chart_image(i)).compose(L) for i, L in f.lifts}
    entries = []
    for e in f.entries:
        j, jp = e.nu.src, e.nu.dst
        covered = []
        Li = f.lift(e.change.src)
        for eg in g.entries_with(j, jp, e.nu.map):
            dom = e.change.dom.preimage_under(Li, eg.change.dom)
            if dom.is_empty():
                continue
            covered.append(dom)
            entries.append(PEntry(
                ChangeOfCharts(e.change.src, e.change.dst,
                               PartialAffineIso(e.change.map, dom)),
                eg.nu))
        if e.change.dom.covers_witness(covered) is not None:
            raise ComposabilityError(
                "good subset of the second factor does not reproduce an assigned germ")
    cert = None
    if f.certificate is not None and g.certificate is not None:
        cert = merge_atlases(f.certificate, g.certificate)
    return Morphism(f.source, g.target, cm, lifts, entries, certificate=cert)


def self_change_element(chart: Chart, ch: ChangeOfCharts) -> AffineMap:
    """The unique group element restricting to a change of charts from a
    chart to itself."""
    if ch.src != chart.cid or ch.dst != chart.cid:
        raise ValueError("change is not from the chart to itself")
    for g in chart.group:
        if g == ch.map:
            return g
    raise ValueError("no group element matches the change (invalid change of charts)")


def induced_hom(m: Morphism, cid: str) -> dict:
    """The group homomorphism induced on a chart's symmetry group: each
    element g goes to the unique target group element whose affine map is
    assigned to (any entry restricting) g."""
    src_chart = m.source.chart(cid)
    tgt_chart = m.target.chart(m.chart_image(cid))
    out = {}
    for g in src_chart.group:
        nus = {e.nu.map for e in m.entries_with(cid, cid, g)}
        if len(nus) != 1:
            raise ValueError(f"assignment of {g} is not uniquely determined")
        nu = nus.pop()
        if nu not in set(tgt_chart.group):
            raise ValueError("assigned map is not a target group element")
        out[g] = nu
    # homomorphism property and the intertwining equation, exactly
    L = m.lift(cid)
    for g, h in itertools.product(src_chart.group, repeat=2):
        if out[g.compose(h)] != out[g].compose(out[h]):
            raise ValueError("induced assignment is not a homomorphism")
    for g in src_chart.group:
        if L.compose(g) != out[g].compose(L):
            raise ValueError("induced homomorphism does not intertwine the lift")
    return out


def morphism_from_lifts(source: Atlas, target: Atlas, chart_map, lifts,
                        bound: int, certificate=None,
                        target_search: Atlas = None) -> Morphism:
    """The unique morphism with the given open-embedding lifts: the
    assignment is forced by conjugation through the lifts.  `target_search`,
    when given, is a larger atlas (containing the target's charts) whose
    pseudogroup is used to certify the forced assignments.  An incomplete
    source closure holds only the germs found so far, too few entries for
    a morphism, so that case is undecided."""
    chart_map, lifts = dict(chart_map), dict(lifts)
    for i, L in lifts.items():
        if not L.is_invertible():
            raise ValueError(f"lift at {i} is not an open embedding")
    scl = closure(source, bound)
    if not scl.complete:
        raise UndecidedError(
            f"source pseudogroup closure incomplete at word bound {bound}; "
            f"the morphism was not constructed")
    tcl = closure(target_search if target_search is not None else target, bound)
    entries = []
    for i, ip, mm, reg in scl.items():
        j, jp = chart_map[i], chart_map[ip]
        nu_map = lifts[ip].compose(mm).compose(lifts[i].inverse())
        fam = tcl.forced(j, jp, nu_map, i, reg, lifts[i],
                         f"no target germ matches the forced assignment {i}->{ip}")
        entries.append(PEntry(
            ChangeOfCharts(i, ip, PartialAffineIso(mm, reg)),
            ChangeOfCharts(j, jp, PartialAffineIso(nu_map, fam))))
    return Morphism(source, target, chart_map, lifts, entries,
                    certificate=certificate)


def inclusion(sub: Atlas, amb: Atlas, bound: int) -> Morphism:
    """Inclusion of an atlas into a larger one containing its charts."""
    for c in sub.charts:
        if amb.chart(c.cid) != c:
            raise ValueError(f"chart {c.cid} differs in the ambient atlas")
    return morphism_from_lifts(
        sub, amb,
        {c.cid: c.cid for c in sub.charts},
        {c.cid: AffineMap.identity(sub.dim) for c in sub.charts},
        bound, certificate=amb)


def pushforward(atlas: Atlas, h: AffineMap, bound: int):
    """Transport an atlas along an invertible affine map of the ambient
    space; returns the transported atlas and the induced isomorphism."""
    if not h.is_invertible():
        raise ValueError("pushforward needs an invertible affine map")
    hinv = h.inverse()
    ren = {c.cid: f"{c.cid}@push" for c in atlas.charts}
    charts = [Chart(ren[c.cid], c.domain.image(h),
                    [h.compose(g).compose(hinv) for g in c.group])
              for c in atlas.charts]
    gens = [ChangeOfCharts.make(ren[g.src], ren[g.dst],
                                h.compose(g.map).compose(hinv), g.dom.image(h))
            for g in atlas.generators]
    new_atlas = Atlas(charts, gens)
    mor = morphism_from_lifts(
        atlas, new_atlas, ren, {c.cid: h for c in atlas.charts}, bound)
    return new_atlas, mor


# ---------------------------------------------------------------------------
# Classification: refinements, weak equivalences, open embeddings
# ---------------------------------------------------------------------------

@interned
class Classification:
    label: str           # refinement | weak_equivalence | open_embedding |
                         # general | undecided
    notes: tuple = ()
    witness: object = None

    def __str__(self):
        n = f" ({'; '.join(self.notes)})" if self.notes else ""
        return self.label + n


def _essentially_surjective(m: Morphism, fams: Pseudogroup):
    """Three-valued: is every target orbit hit by a lifted source point?
    A found cover is sound at any bound; a miss needs a complete closure."""
    witness = None
    for jc in m.target.charts:
        parts = []
        for i, j in m.chart_map:
            img = m.source.chart(i).domain.image(m.lift(i))
            for mm, reg in fams.maps(j, jc.cid).items():
                part = reg.intersect(img)
                if not part.is_empty():
                    parts.append(part.image(mm))
        w = jc.domain.covers_witness(parts)
        if w is not None:
            witness = (jc.cid, w)
            break
    if witness is None:
        return True, None
    if fams.complete:
        return False, witness
    return None, witness


def _fully_faithful(m: Morphism, yfams: Pseudogroup, xfams: Pseudogroup):
    """Three-valued: does every target germ between lifted points come from
    a source germ (so the induced coarse map is injective and the morphism
    reflects identifications)?"""
    some_undecided = False
    for i in m.source.chart_ids():
        for ip in m.source.chart_ids():
            j, jp = m.chart_image(i), m.chart_image(ip)
            Li, Lp = m.lift(i), m.lift(ip)
            for mm, dm in yfams.maps(j, jp).items():
                n = Lp.inverse().compose(mm).compose(Li)
                r = m.source.chart(i).domain.preimage_under(Li, dm)
                r = r.preimage_under(n, m.source.chart(ip).domain)
                if r.is_empty():
                    continue
                got = xfams.covered(i, ip, n, r)
                if got is True:
                    continue
                if got is None:
                    some_undecided = True
                    continue
                fam = xfams.region(i, ip, n)
                w = r.covers_witness([fam] if fam is not None else [])
                return False, (i, w)
    if not yfams.complete or some_undecided:
        return None, None
    return True, None


def _lifts_certified(m: Morphism, ccl: Pseudogroup):
    """Three-valued: does the certificate closure `ccl` hold every lift's
    germ over its whole source chart?  None when a lift is not covered and
    the closure is incomplete."""
    for i, L in m.lifts:
        got = ccl.covered(i, m.chart_image(i), L, m.source.chart(i).domain)
        if got is not True:
            return got
    return True


@memo
def classify_morphism(m: Morphism, bound: int) -> Classification:
    """Strongest applicable class of a morphism.

    A morphism is a refinement when its lifts are open embeddings whose
    germs are certified by the pseudogroup of the declared joint structure
    (the morphism's certificate atlas, or the merge of source and target by
    shared chart ids) and the target orbits are exhausted; a weak
    equivalence when the induced coarse map is a certified bijection; an
    open embedding when it is a certified injection.  The certificate
    decides only the identity base: the target orbits are those of the
    target's own closure.

    The identity base is first tried on the seed families, `closure(cert,
    0)`: the chart groups, the generators and their inverses.  A lift
    covered there is covered at `bound` too, since a family's region only
    grows from one round to the next, so when every lift is covered the
    base is certified without closing the certificate.  A square's `w'`
    is settled this way, by its generators `did -> c1`.  Otherwise the
    certificate is closed at `bound`.  The source's closure is read only
    by `_fully_faithful`, which a refinement never reaches."""
    notes = []
    if not m.is_etale():
        return Classification("general", ("a lift is not an open embedding",))
    cert = m.certificate or merge_atlases(m.source, m.target)
    ident = False
    if cert is not None:
        ident = _lifts_certified(m, closure(cert, 0))
        if ident is not True:
            ident = _lifts_certified(m, closure(cert, bound))
        if ident is None:
            notes.append("identity-base certification undecided at this bound")
    tcl = closure(m.target, bound)
    surj, wit_s = _essentially_surjective(m, tcl)
    if ident is True and surj is True:
        return Classification("refinement")
    full, wit_f = _fully_faithful(m, tcl, closure(m.source, bound))
    if full is True and surj is True:
        return Classification("weak_equivalence", tuple(notes))
    if full is True and surj is False:
        return Classification("open_embedding", tuple(notes), wit_s)
    if full is False:
        return Classification("general", tuple(notes), wit_f)
    notes.append("word bound exhausted before the coarse conditions were settled")
    return Classification("undecided", tuple(notes))


# ---------------------------------------------------------------------------
# 2-morphisms
# ---------------------------------------------------------------------------

@interned
class TwoCell:
    """A 2-morphism between parallel morphisms, as a normalized family of
    patches (region of the source chart, change of the target atlas)."""

    source_morphism: Morphism
    target_morphism: Morphism
    patches: tuple        # sorted (chart id, ((Region, ChangeOfCharts), ...))

    @staticmethod
    def _canonical(source_morphism, target_morphism, patches):
        ps = []
        for cid, items in dict(patches).items():
            merged = {}
            for region, ch in items:
                if region.is_empty():
                    continue
                k = (ch.src, ch.dst, ch.map)
                prev = merged.get(k)
                merged[k] = (region, ch) if prev is None else (prev[0].union(region),
                                                              prev[1].union(ch))
            ps.append((cid, tuple(sorted(merged.values(),
                                         key=lambda p: (p[0].order(), p[1].order())))))
        return source_morphism, target_morphism, tuple(sorted(ps))

    @cached_property
    def _patch_index(self):
        return dict(self.patches)

    def patches_at(self, cid):
        return self._patch_index.get(cid, ())


@memo
def identity_2cell(f: Morphism) -> TwoCell:
    patches = {}
    for i, j in f.chart_map:
        dom = f.target.chart(j).domain
        patches[i] = [(f.source.chart(i).domain,
                       ChangeOfCharts(j, j, PartialAffineIso(AffineMap.identity(f.source.dim), dom)))]
    return TwoCell(f, f, patches)


def invert_2cell(c: TwoCell) -> TwoCell:
    patches = {cid: [(r, ch.inverse()) for r, ch in items]
               for cid, items in c.patches}
    return TwoCell(c.target_morphism, c.source_morphism, patches)


def validate_2cell(c: TwoCell, bound: int) -> Report:
    rep = Report("2-cell")
    f1, f2 = c.source_morphism, c.target_morphism
    if f1.source != f2.source or f1.target != f2.target:
        rep.fail("2M0", "morphisms are not parallel")
        return rep
    src, tgt = f1.source, f1.target
    tcl = closure(tgt, bound)
    for i in src.chart_ids():
        items = c.patches_at(i)
        j1, j2 = f1.chart_image(i), f2.chart_image(i)
        L1, L2 = f1.lift(i), f2.lift(i)
        # (2Ma) the patch regions cover the chart
        w = src.chart(i).domain.covers_witness([r for r, _ in items])
        if w is not None:
            rep.fail("2Ma", f"patches do not cover chart {i}", w)
        for region, ch in items:
            if ch.src != j1 or ch.dst != j2:
                rep.fail("2Mb", f"patch change over the wrong chart pair at {i}")
                continue
            got = tcl.covered(ch.src, ch.dst, ch.map, ch.dom)
            if got is False:
                rep.fail("2Mb", "patch change not certified by the target pseudogroup",
                         ch.map)
            elif got is None:
                rep.note_undecided(f"patch change at {i} not certified within the word bound")
            # (2Mb) image containments
            w = region.escape_witness(L1, ch.dom)
            if w is not None:
                rep.fail("2Mb", f"first lift image escapes the patch domain at {i}", w)
            w = region.escape_witness(L2, ch.cod)
            if w is not None:
                rep.fail("2Mb", f"second lift image escapes the patch codomain at {i}", w)
            # (2Mc) the patch change carries the first lift to the second; the
            # witness is off the line where the two maps may still agree
            moved = ch.map.compose(L1)
            if L2 != moved:
                w = region.interior_point_off([L2.agreement(moved)])
                rep.fail("2Mc", "patch change does not relate the two lifts", w)
        # (2Md) overlapping patches agree as germs
        germs = [(r, ch.map) for r, ch in items]
        for overlap in clashes(itertools.combinations(germs, 2)):
            rep.fail("2Md", "overlapping patches carry different germs",
                     overlap.interior_point())
    # (2Me) compatibility with every source germ; the germ equations are
    # map-level by rigidity, so overlap regions are only computed when an
    # equation actually fails somewhere
    scl = closure(src, bound)
    if not scl.complete:
        rep.note_undecided("source pseudogroup incomplete; (2Me) checked on the computed part")
    for i, ip, mm, reg in scl.items():
        e1s, e2s = f1.entries_with(i, ip, mm), f2.entries_with(i, ip, mm)
        for ra, cha in c.patches_at(i):
            for rap, chap in c.patches_at(ip):
                bad = [(e1, e2) for e1 in e1s for e2 in e2s
                       if e2.nu.map.compose(cha.map) != chap.map.compose(e1.nu.map)]
                if not bad:
                    continue
                w = reg.intersect(ra).preimage_under(mm, rap)
                if w.is_empty():
                    continue
                for e1, e2 in bad:
                    if e1.change.dom.intersect(w).is_empty():
                        continue
                    if e2.change.dom.intersect(w).is_empty():
                        continue
                    rep.fail("2Me", "patch germs do not intertwine the two assignments",
                             w.interior_point())
    return rep


@memo
def equal_2cells(a: TwoCell, b: TwoCell) -> bool:
    """Equal source and target morphisms, and germ agreement on overlaps of
    patch regions."""
    if not (equal_morphisms(a.source_morphism, b.source_morphism)
            and equal_morphisms(a.target_morphism, b.target_morphism)):
        return False
    return not any(clashes(
        ((r1, c1.map), (r2, c2.map))
        for i in {cid for cid, _ in a.patches} | {cid for cid, _ in b.patches}
        for r1, c1 in a.patches_at(i) for r2, c2 in b.patches_at(i)))


@memo
def vertical_compose(sigma: TwoCell, delta: TwoCell) -> TwoCell:
    """sigma after delta (both between morphisms with the same endpoints)."""
    if not equal_morphisms(delta.target_morphism, sigma.source_morphism):
        raise ComposabilityError("2-cells not vertically composable")
    patches = {}
    for i in delta.source_morphism.source.chart_ids():
        out = []
        for r1, c1 in delta.patches_at(i):
            for r2, c2 in sigma.patches_at(i):
                r = r1.intersect(r2)
                if r.is_empty():
                    continue
                comp = compose_changes(c2, c1)
                if comp is None:
                    continue
                out.append((r, comp))
        patches[i] = out
    return TwoCell(delta.source_morphism, sigma.target_morphism, patches)


@memo
def horizontal_compose(xi: TwoCell, delta: TwoCell) -> TwoCell:
    """Composite of [xi] (between g1, g2) alongside [delta] (between f1,
    f2): a 2-cell g1 f1 => g2 f2.  Each patch germ of delta is pushed
    through the assignment of g1 and composed with a patch germ of xi; by
    rigidity the stabilizer-shrinking of the patch regions that the general
    construction needs is unnecessary here."""
    f1, f2 = delta.source_morphism, delta.target_morphism
    g1, g2 = xi.source_morphism, xi.target_morphism
    if f1.target != g1.source:
        raise ComposabilityError("2-cells not horizontally composable")
    left = compose_morphisms(g1, f1)
    right = compose_morphisms(g2, f2)
    patches = {}
    for i in f1.source.chart_ids():
        j1, j2 = f1.chart_image(i), f2.chart_image(i)
        L1 = f1.lift(i)
        G1 = g1.lift(j1)
        out = []
        for ra, cha in delta.patches_at(i):
            for eg in g1.entries_with(j1, j2, cha.map):
                for sc, chc in xi.patches_at(j2):
                    gamma = compose_changes(chc, eg.nu)
                    if gamma is None:
                        continue
                    r = ra.preimage_under(L1, eg.change.dom)
                    r = r.preimage_under(G1.compose(L1), gamma.dom)
                    if r.is_empty():
                        continue
                    out.append((r, gamma))
        patches[i] = out
    return TwoCell(left, right, patches)


# ---------------------------------------------------------------------------
# Constructive squares: pullbacks along refinements
# ---------------------------------------------------------------------------

def _search_atlas(atlas: Atlas, *certificates) -> Atlas:
    """The atlas merged with each certificate in turn, skipping a
    certificate that does not merge consistently (or is None)."""
    for cert in certificates:
        if cert is not None:
            merged = merge_atlases(atlas, cert)
            if merged is not None:
                atlas = merged
    return atlas


@memo
def pullback_square(f: Morphism, w: Morphism, bound: int):
    """Fill the cospan f: C -> B <- A : w (with w a refinement and f with
    open-embedding lifts) to an invertible square

        D --f'--> A
        |w'       |w      with a 2-cell  f o w' => w o f'.
        C --f---> B

    The charts of D are the components, inside the charts of C, of the
    loci where a pseudogroup germ of B carries the f-image into the w-image
    of an A-chart; w' is the chart-wise inclusion (a refinement by
    construction) and f' transports through w."""
    C, B, A = f.source, f.target, w.source
    if w.target != B:
        raise ComposabilityError("the two morphisms do not share their target")
    if not f.is_etale() or not w.is_etale():
        raise ValueError("pullback squares need open-embedding lifts")
    search = _search_atlas(B, w.certificate, f.certificate)
    bcl = closure(search, bound)
    # chart ids of the pullback are content-addressed so that middles of
    # different squares never collide when certificates are merged: the md5
    # of `repr((f.key(), w.key(), bound))`, fed the key text of each field of
    # the two keys, so that no text of a whole morphism is built or kept
    h = md5(b"(")
    for m, end in ((f, ", "), (w, f", {bound!r})")):
        for part in ("(", field_text(m.chart_map), ", ", field_text(m.lifts), ", ",
                     field_text(m.entries), ")", end):
            h.update(part.encode())
    tok = h.hexdigest()[:6]

    # gather candidates per parent chart, then keep a deterministic covering
    # subset: any choice of square is valid, and small middles keep the
    # certificate closures tractable
    per_parent = {}
    for c in C.charts:
        jc = f.chart_image(c.cid)
        Lc = f.lift(c.cid)
        seen = set()
        cands = []
        for a in A.charts:
            ja = w.chart_image(a.cid)
            img_a = a.domain.image(w.lift(a.cid))
            for mm, dom in sorted(bcl.maps(jc, ja).items(), key=lambda kv: kv[0].order()):
                r = c.domain.preimage_under(Lc, dom)
                r = r.preimage_under(mm.compose(Lc), img_a)
                lift_fp = w.lift(a.cid).inverse().compose(mm).compose(Lc)
                for comp in r.components():
                    dk = (comp, a.cid, lift_fp)
                    if dk in seen:
                        continue
                    seen.add(dk)
                    cands.append((c.cid, a.cid, mm, dom, lift_fp, comp))
        per_parent[c.cid] = cands

    charts, pieces = [], []  # pieces: (did, cid, acid, mm, dom, lift_fp, comp)
    for c in C.charts:
        # identity germs first, then larger regions: keeps the chosen
        # squares as close to inclusions as the cospan allows
        cands = sorted(per_parent[c.cid],
                       key=lambda t: (0 if t[2].is_identity() else 1,
                                      descending_measure(t[5].pieces[0]), t[5].order(),
                                      t[4].order(), t[1]))
        kept, covered = [], []
        for cand in cands:
            if covered and c.domain.covers(covered):
                break
            comp = cand[5]
            if covered and comp.covers(covered):
                continue
            kept.append(cand)
            covered.append(comp)
        x = c.domain.covers_witness(covered)
        if x is not None:
            bcl.refute(f"the W-arrow does not reach every orbit over chart {c.cid}",
                       (c.cid, x))
        for (cid, acid, mm, dom, lift_fp, comp) in kept:
            did = f"{cid}|{acid}|{tok}{len(charts)}"
            group = [g for g in c.group if comp.image(g).same_set(comp)]
            charts.append(Chart(did, comp, group))
            pieces.append((did, cid, acid, mm, dom, lift_fp, comp))

    gens = []
    ccl = closure(C, bound)
    by_did = sorted(pieces, key=lambda p: p[0])
    for did1, c1, _, _, _, _, r1 in by_did:
        for did2, c2, _, _, _, _, r2 in by_did:
            for mm, dom in ccl.maps(c1, c2).items():
                g = r1.intersect(dom).preimage_under(mm, r2)
                if g.is_empty():
                    continue
                gens.append(ChangeOfCharts(did1, did2, PartialAffineIso(mm, g)))
    D = Atlas(charts, gens)

    cert = Atlas(
        tuple(C.charts) + tuple(charts),
        tuple(C.generators) + tuple(gens)
        + tuple(ChangeOfCharts(did, c1, PartialAffineIso(AffineMap.identity(C.dim), r1))
                for did, c1, _, _, _, _, r1 in pieces))
    w_prime = morphism_from_lifts(
        D, C, {did: c1 for did, c1, *_ in pieces},
        {did: AffineMap.identity(C.dim) for did, *_ in pieces},
        bound, certificate=cert)
    f_prime = morphism_from_lifts(
        D, A, {did: a1 for did, _, a1, *_ in pieces},
        {did: lift_fp for did, _, _, _, _, lift_fp, _ in pieces},
        bound, certificate=merge_many(cert, search, A),
        target_search=merge_many(search, A) or A)

    patches = {}
    for did, c1, a1, mm, dom, _, r1 in pieces:
        patches[did] = [(r1, ChangeOfCharts(f.chart_image(c1), w.chart_image(a1),
                                            PartialAffineIso(mm, dom)))]
    alpha = TwoCell(compose_morphisms(f, w_prime),
                    compose_morphisms(w, f_prime), patches)
    return D, w_prime, f_prime, alpha


def cancel_refinement_cell(v: Morphism, x: Morphism, y: Morphism, cell: TwoCell,
                           bound: int) -> TwoCell:
    """Given a refinement v: Y' -> Y, morphisms x, y: M -> Y' and a 2-cell
    (v x) => (v y), return the unique 2-cell x => y with i_v * it equal to
    the given cell."""
    if not v.is_etale():
        raise ValueError("cancellation needs open-embedding lifts on the refinement")
    tcl = closure(_search_atlas(x.target, v.certificate, x.certificate, y.certificate),
                  bound)
    patches = {}
    for i in x.source.chart_ids():
        j1, j2 = x.chart_image(i), y.chart_image(i)
        out = []
        for r, ch in cell.patches_at(i):
            d_map = v.lift(j2).inverse().compose(ch.map).compose(v.lift(j1))
            fam = tcl.forced(j1, j2, d_map, i, r, x.lift(i),
                             f"no germ cancels the cell at chart {i}")
            out.append((r, ChangeOfCharts(j1, j2, PartialAffineIso(d_map, fam))))
        patches[i] = out
    return TwoCell(x, y, patches)


@memo
def unique_2cell_open_embeddings(w1: Morphism, w2: Morphism,
                                 bound: int) -> TwoCell:
    """The unique 2-cell between two open embeddings with the same induced
    base map; the patch germ over each chart is forced to be the second lift
    after the inverse of the first."""
    if w1.source != w2.source or w1.target != w2.target:
        raise ComposabilityError("morphisms are not parallel")
    if not (w1.is_etale() and w2.is_etale()):
        raise ValueError("both morphisms must have open-embedding lifts")
    tcl = closure(_search_atlas(w1.target, w1.certificate, w2.certificate), bound)
    patches = {}
    for i in w1.source.chart_ids():
        d_map = w2.lift(i).compose(w1.lift(i).inverse())
        j1, j2 = w1.chart_image(i), w2.chart_image(i)
        dom = w1.source.chart(i).domain
        fam = tcl.forced(j1, j2, d_map, i, dom, w1.lift(i),
                         f"no germ connects the two lifts at chart {i}")
        patches[i] = [(dom, ChangeOfCharts(j1, j2, PartialAffineIso(d_map, fam)))]
    return TwoCell(w1, w2, patches)
