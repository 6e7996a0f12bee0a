"""The structure functor from atlases to presented etale groupoids.

An atlas is sent to the groupoid of germs of its pseudogroup: objects are
the chart domains, arrows the germ families of the bounded word closure.
On morphisms the functor applies the lifts to objects and the change
assignment to arrow families; on 2-cells it reads the patch germs as a
natural transformation.  On each hom-groupoid the functor is a bijection,
and the inverse reconstructions are implemented alongside it.
"""

from __future__ import annotations

from .atlas import (
    Atlas,
    ChangeOfCharts,
    Chart,
    Morphism,
    PEntry,
    TwoCell,
    WORD_BOUND,
    classify_morphism,
    closure,
)
from .geometry import AffineMap, PartialAffineIso
from .groupoid import (
    ArrowFamily,
    GroupoidMorphism,
    NatTransf,
    PresentedGroupoid,
    identity_gpd_morphism,
    is_morita,
)
from .memo import memo
from .reports import Report, UndecidedError


class UnsupportedGroupoidError(Exception):
    """Raised when a groupoid carries no chart-cover annotation on which an
    atlas could be reconstructed."""


@memo
def fred0(atlas: Atlas, bound: int = WORD_BOUND) -> PresentedGroupoid:
    """Germ groupoid of an atlas: one object piece per chart, one arrow
    family per affine map in the pseudogroup closure, undecided when the
    closure is incomplete.  The bound defaults for callers outside the
    package; the package always passes it."""
    cl = closure(atlas, bound)
    if cl.overflowed:
        raise UndecidedError(
            "pseudogroup closure exceeded the family cap; the groupoid of "
            "germs was not constructed")
    if not cl.complete:
        raise UndecidedError(
            f"pseudogroup closure incomplete at word bound {bound}; the "
            f"groupoid of germs was not constructed")
    pieces = {c.cid: c.domain for c in atlas.charts}
    families = []
    for k, (src, dst, m, reg) in enumerate(cl.items()):
        families.append(ArrowFamily(f"g{k}", src, dst, PartialAffineIso(m, reg)))
    return PresentedGroupoid.make(pieces, families, annotation=atlas)


def _family_lookup(g: PresentedGroupoid):
    return {(f.src, f.dst, f.map): f for f in g.families}


@memo
def fred1(m: Morphism, bound: int = WORD_BOUND) -> GroupoidMorphism:
    """Image of a morphism: lifts on objects, change assignment on arrows.
    The assignment must be single-valued on every germ family (it always is
    when the lifts are open embeddings).  The bound defaults as for fred0."""
    gs, gt = fred0(m.source, bound), fred0(m.target, bound)
    object_map = {i: (m.chart_image(i), m.lift(i)) for i in m.source.chart_ids()}
    tgt_by_map = _family_lookup(gt)
    family_map = {}
    for f in gs.families:
        nus = {e.nu.map for e in m.entries_at(f.src, f.dst)
               if e.change.map == f.map
               and not e.change.dom.intersect(f.dom).is_empty()}
        if len(nus) != 1:
            raise ValueError(
                f"the assignment is not single-valued on the germ family "
                f"{f.src}->{f.dst}; no family-wise image exists")
        key = (m.chart_image(f.src), m.chart_image(f.dst), nus.pop())
        if key not in tgt_by_map:
            raise ValueError("assigned germ not present in the target groupoid")
        family_map[f.fid] = tgt_by_map[key].fid
    return GroupoidMorphism.make(gs, gt, object_map, family_map)


def fred2(cell: TwoCell, bound: int) -> NatTransf:
    """Image of a 2-cell: the patch germs, read as arrows of the target
    groupoid of germs."""
    f1, f2 = cell.source_morphism, cell.target_morphism
    p1, p2 = fred1(f1, bound), fred1(f2, bound)
    gt = p1.target
    tgt_by_map = _family_lookup(gt)
    assigns = {}
    for i in f1.source.chart_ids():
        out = []
        for region, ch in cell.patches_at(i):
            key = (ch.src, ch.dst, ch.map)
            if key not in tgt_by_map:
                raise ValueError("patch germ not present in the target groupoid")
            out.append((region, tgt_by_map[key].fid))
        assigns[i] = out
    return NatTransf.make(p1, p2, assigns)


def fred_inverse(level: int, data):
    """Reconstruct the unique atlas-level cell with a given image.

    level 1 takes a GroupoidMorphism between groupoids of germs (their
    annotations must be the presenting atlases); level 2 takes a NatTransf
    between images of morphisms.  It reads the images and computes no
    closure, so it takes no word bound."""
    if level == 1:
        psi: GroupoidMorphism = data
        src, tgt = psi.source.annotation, psi.target.annotation
        if not isinstance(src, Atlas) or not isinstance(tgt, Atlas):
            raise UnsupportedGroupoidError(
                "groupoids do not carry presenting atlases")
        chart_map = {p: q for p, (q, _) in psi.object_map}
        lifts = {p: mm for p, (_, mm) in psi.object_map}
        entries = []
        for f in psi.source.families:
            t = psi.target.family(psi.on_family(f.fid))
            entries.append(PEntry(
                ChangeOfCharts(f.src, f.dst, f.iso),
                ChangeOfCharts(t.src, t.dst, t.iso)))
        return Morphism.make(src, tgt, chart_map, lifts, entries)
    if level == 2:
        alpha: NatTransf = data
        f1 = fred_inverse(1, alpha.source_morphism)
        f2 = fred_inverse(1, alpha.target_morphism)
        gt = alpha.source_morphism.target
        patches = {}
        for pid, items in alpha.assignments:
            out = []
            for region, fid in items:
                fam = gt.family(fid)
                out.append((region, ChangeOfCharts(fam.src, fam.dst, fam.iso)))
            patches[pid] = out
        return TwoCell.make(f1, f2, patches)
    raise ValueError("level must be 1 or 2")


def atlas_from_groupoid(g: PresentedGroupoid, bound: int):
    """An atlas presenting the groupoid, together with a Morita equivalence
    from its groupoid of germs.

    Restricted to annotated groupoids: the annotation is either the
    presenting atlas itself (the identity equivalence is returned) or a
    chart cover ((piece id, sub-region), ...), out of which sub-charts with
    their stabilizer groups and restricted generators are assembled."""
    note = g.annotation
    if isinstance(note, Atlas):
        again = fred0(note, bound)
        if again != g:
            raise UnsupportedGroupoidError(
                "annotation atlas does not present this groupoid")
        return note, identity_gpd_morphism(g)
    if isinstance(note, tuple) and note and all(
            isinstance(t, tuple) and len(t) == 2 for t in note):
        charts = []
        meta = []
        for k, (pid, region) in enumerate(note):
            group = []
            for f in g.families_between(pid, pid):
                if region.covers([f.dom]) and region.image(f.map).same_set(region):
                    group.append(f.map)
            cid = f"{pid}#c{k}"
            charts.append(Chart.make(cid, region, group))
            meta.append((cid, pid, region))
        gens = []
        for cid1, pid1, r1 in meta:
            for cid2, pid2, r2 in meta:
                for f in g.families_between(pid1, pid2):
                    dom = r1.intersect(f.dom).preimage_under(f.map, r2)
                    if dom.is_empty():
                        continue
                    gens.append(ChangeOfCharts(cid1, cid2, PartialAffineIso(f.map, dom)))
        atlas = Atlas.make(charts, gens)
        sub = fred0(atlas, bound)
        ident = AffineMap.identity(g.dim)
        object_map = {cid: (pid, ident) for cid, pid, _ in meta}
        parent = {cid: pid for cid, pid, _ in meta}
        family_map = {}
        for f in sub.families:
            match = None
            for t in g.families_between(parent[f.src], parent[f.dst]):
                if t.map == f.map and f.dom.covers([t.dom]):
                    match = t
                    break
            if match is None:
                raise UnsupportedGroupoidError(
                    "cover annotation does not generate the groupoid")
            family_map[f.fid] = match.fid
        psi = GroupoidMorphism.make(sub, g, object_map, family_map)
        return atlas, psi
    raise UnsupportedGroupoidError(
        "general groupoids without a chart-cover annotation are not supported")


def correspondence_check(m: Morphism, bound: int) -> Report:
    """Weak equivalences of atlases correspond exactly to Morita equivalences
    of their groupoids of germs; this checks both sides on one morphism.  It
    fails (WM) when they disagree, with the witness of the side that says
    no, and is undecided when the class is."""
    rep = Report("weak equivalence / Morita correspondence")
    cls = classify_morphism(m, bound)
    if cls.label == "undecided":
        rep.note_undecided(f"the morphism class is undecided: {cls}")
        return rep
    morita = is_morita(fred1(m, bound))
    if (cls.label in ("refinement", "weak_equivalence")) != morita.ok:
        no = cls.witness if morita.ok else morita.first().witness
        rep.fail("WM", f"the morphism is {cls.label} but its image is "
                       f"{'' if morita.ok else 'not '}a Morita equivalence", no)
    return rep
