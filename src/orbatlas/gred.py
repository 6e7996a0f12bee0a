"""The induced pseudofunctor between the two localized bicategories.

On objects it is the groupoid of germs; a span of atlases goes to the span
of its component images, and a fraction cell to the component-wise image
with the base cell read as a natural transformation.  The instance-level
equivalence criteria (A1)-(A5) are verified over the fixture catalog by
producing the connecting witnesses and validating them; the reports never
claim more than the checked universe.
"""

from __future__ import annotations

from . import atlas as atl
from . import fractions as frc
from . import fred as frd
from . import groupoid as gpd
from .reports import NoSuchCellError, Report, Violation


def gred1(span: frc.Span, bound: int) -> frc.Span:
    """Component-wise image of a localized 1-cell: the span of the images."""
    return frc.Span(frd.fred0(span.middle, bound),
                    frd.fred1(span.left, bound),
                    frd.fred1(span.right, bound))


def gred2(cell: frc.FractionCell, bound: int) -> frc.FractionCell:
    """Component-wise image of a fraction cell, with the coarse side
    condition decided exactly; a cell that fails it does not exist."""
    out = frc.FractionCell(
        gred1(cell.src_span, bound), gred1(cell.dst_span, bound),
        frd.fred0(cell.middle, bound),
        frd.fred1(cell.left_leg, bound),
        frd.fred1(cell.right_leg, bound),
        frd.fred2(cell.base, bound))
    v = side_condition_check(out).first()
    if v is not None:
        raise NoSuchCellError(f"coarse side condition fails: {v.message}", v.witness)
    return out


def side_condition_check(c: frc.FractionCell) -> Report:
    """The legs of a groupoid fraction cell must induce the same coarse map
    when composed with the span W-legs.  On a source piece U with leg
    composites (q1, m1) and (q2, m2), the families f: q1 -> q2 with
    f.map o m1 == m2 identify the two images on U cut by m1^-1(f.dom).  Any
    other family (the unit families included) joins them only on a proper
    affine subspace; the coarse maps are continuous into a Hausdorff orbit
    space, so the condition holds iff those parts cover U up to measure
    zero.  A failure's witness is `gpd.separating_point` of U, where the
    two orbits are distinct."""
    rep = Report("coarse side condition")
    left = gpd.compose_gpd_morphisms(c.src_span.left, c.left_leg)
    right = gpd.compose_gpd_morphisms(c.dst_span.left, c.right_leg)
    for pid, region in left.source.pieces:
        (q1, m1), (q2, m2) = left.on_piece(pid), right.on_piece(pid)
        if q1 == q2 and m1 == m2:
            continue
        x = gpd.separating_point(region, m1, m2, left.target.families_between(q1, q2))
        if x is not None:
            rep.fail("SC", "the two leg composites separate an orbit", (pid, x))
            return rep
    return rep


# The atlas-side embedded cells below are built from the layer functions, as
# `frc.universal_embed` and `frc.universal_embed2` build them from a bundle:
# an atlas bundle at the bound of the run needs a factory call with an
# argument, and the benchmark's traced `equiv-report` replaces the factories
# with wrappers that take none.  The groupoid slots used here (`id1`, `eq1`,
# `id2`, `comp2h`) read no bound.

def commutation_check(m, bound: int) -> bool:
    """U o F = G o U on an embedded 1-cell: the image of the embedded span
    equals the embedding of the image, on the nose."""
    gops = frc.groupoid_ops()
    lhs = gred1(frc.Span(m.source, atl.identity_morphism(m.source, bound), m), bound)
    rhs = frc.universal_embed(gops, frd.fred1(m, bound))
    return frc.span_equal(gops, lhs, rhs)


def commutation_check_2(cell, bound: int) -> bool:
    gops = frc.groupoid_ops()
    f1, f2 = cell.source_morphism, cell.target_morphism
    i = atl.identity_morphism(f1.source, bound)
    lhs = gred2(frc.FractionCell(
        frc.Span(f1.source, i, f1), frc.Span(f1.source, i, f2), f1.source, i, i,
        atl.horizontal_compose(cell, atl.identity_2cell(i))), bound)
    rhs = frc.universal_embed2(gops, frd.fred2(cell, bound))
    return (frc.span_equal(gops, lhs.src_span, rhs.src_span)
            and frc.span_equal(gops, lhs.dst_span, rhs.dst_span)
            and gpd.equal_nat_transfs(lhs.base, rhs.base))


# ---------------------------------------------------------------------------
# The equivalence criteria (A1)-(A5), instance checks over a catalog
# ---------------------------------------------------------------------------

def _from_germs(rep, name, g, bound):
    """The Morita equivalence of `frd.atlas_from_groupoid(g, bound)` from a
    groupoid of germs onto `g`, or None with the reason noted in `rep` when
    `g` carries no annotation an atlas can be rebuilt from."""
    try:
        return frd.atlas_from_groupoid(g, bound)[1]
    except frd.UnsupportedGroupoidError as e:
        rep.note_undecided(f"{name}: {e}")
        return None


def check_a1(catalog, bound) -> Report:
    """Every catalog groupoid is reached, through a Morita equivalence, from
    the groupoid of germs of some atlas."""
    rep = Report("A1")
    if not catalog["groupoids"]:
        rep.note_undecided("empty catalog: vacuously true")
    for name, g in catalog["groupoids"]:
        psi = _from_germs(rep, name, g, bound)
        if psi is None:
            continue
        sub = gpd.is_morita(psi)
        if not sub.ok:
            rep.fail("A1", f"{name}: reconstruction is not a Morita equivalence")
            rep.absorb(sub)
    return rep


def check_a2(catalog, bound) -> Report:
    """Spans of Morita equivalences between groupoids of germs are connected
    through an atlas-level span of refinements / saturated arrows."""
    rep = Report("A2")
    for name, (psi1, psi2) in catalog["gpd_spans"]:
        phi = _from_germs(rep, name, psi1.source, bound)
        if phi is None:
            continue
        v = frd.fred_inverse(gpd.compose_gpd_morphisms(psi1, phi))
        cls = atl.classify_morphism(v, bound)
        if cls.label == "refinement":
            w1 = v
        else:
            rep.note_undecided(
                f"{name}: the first leg pulls back to a {cls.label}; the "
                f"refinement factorization is outside this catalog check")
            continue
        w2 = frd.fred_inverse(gpd.compose_gpd_morphisms(psi2, phi))
        cls2 = atl.classify_morphism(w2, bound)
        if cls2.label == "undecided":
            rep.note_undecided(f"{name}: the second connecting arrow is undecided "
                               f"at this bound")
        elif cls2.label not in ("refinement", "weak_equivalence"):
            rep.fail("A2", f"{name}: second connecting arrow is {cls2.label}, "
                           f"not in the saturation")
        # the connecting diagram commutes on the nose
        if not gpd.equal_gpd_morphisms(
                frd.fred1(w1, bound), gpd.compose_gpd_morphisms(psi1, phi)):
            rep.fail("A2", f"{name}: first square does not commute")
        if not gpd.equal_gpd_morphisms(
                frd.fred1(w2, bound), gpd.compose_gpd_morphisms(psi2, phi)):
            rep.fail("A2", f"{name}: second square does not commute")
    return rep


def check_a3(catalog, bound) -> Report:
    """Arrows from a groupoid into a groupoid of germs lift to atlas
    morphisms after replacing the source."""
    rep = Report("A3")
    for name, f_b in catalog["gpd_arrows"]:
        psi = _from_germs(rep, name, f_b.source, bound)
        if psi is None:
            continue
        f_a = frd.fred_inverse(gpd.compose_gpd_morphisms(f_b, psi))
        v = atl.validate_morphism(f_a, bound)
        if not v.ok:
            rep.fail("A3", f"{name}: lifted morphism invalid ({v.first()})")
            continue
        if not gpd.equal_gpd_morphisms(
                frd.fred1(f_a, bound), gpd.compose_gpd_morphisms(f_b, psi)):
            rep.fail("A3", f"{name}: lift does not commute with the images")
    return rep


def check_a4(catalog, bound) -> Report:
    """Parallel 2-cells equalized by a Morita arrow after imaging are
    equalized by a refinement before imaging."""
    rep = Report("A4")
    for name, (gamma1, gamma2, z_b) in catalog["cell_pairs"]:
        a1 = frd.fred2(gamma1, bound)
        a2 = frd.fred2(gamma2, bound)
        iz = gpd.identity_nat_transf(z_b)
        lhs = gpd.horizontal_compose_nt(a1, iz)
        rhs = gpd.horizontal_compose_nt(a2, iz)
        if not gpd.equal_nat_transfs(lhs, rhs):
            continue  # the precondition fails: vacuously true
        phi = _from_germs(rep, name, z_b.source, bound)
        if phi is None:
            continue
        u = frd.fred_inverse(gpd.compose_gpd_morphisms(z_b, phi))
        if atl.classify_morphism(u, bound).label != "refinement":
            rep.note_undecided(f"{name}: equalizing arrow does not pull back "
                               f"to a refinement in this catalog")
            continue
        iu = atl.identity_2cell(u)
        l2 = atl.horizontal_compose(gamma1, iu)
        r2 = atl.horizontal_compose(gamma2, iu)
        if not atl.equal_2cells(l2, r2):
            rep.fail("A4", f"{name}: cells not equalized by the refinement")
    return rep


def check_a5(catalog, bound) -> Report:
    """Natural transformations between whiskered images lift to atlas
    2-cells after a refinement replacement of the source."""
    rep = Report("A5")
    for name, (f1, f2, psi, alpha) in catalog["nt_lifts"]:
        phi = _from_germs(rep, name, psi.source, bound)
        if phi is None:
            continue
        u = frd.fred_inverse(gpd.compose_gpd_morphisms(psi, phi))
        if atl.classify_morphism(u, bound).label != "refinement":
            rep.note_undecided(f"{name}: source replacement is not a "
                               f"refinement in this catalog")
            continue
        iphi = gpd.identity_nat_transf(phi)
        whiskered = gpd.horizontal_compose_nt(alpha, iphi)
        delta = frd.fred_inverse2(whiskered)
        v = atl.validate_2cell(delta, bound)
        if not v.ok:
            rep.fail("A5", f"{name}: lifted 2-cell invalid ({v.first()})")
            continue
        back = frd.fred2(delta, bound)
        if not gpd.equal_nat_transfs(back, whiskered):
            rep.fail("A5", f"{name}: lift does not image back to the input")
    return rep


class EquivalenceReport:
    def __init__(self, axioms=None, round_trips=None, commutation=None):
        self.axioms = {} if axioms is None else axioms
        self.round_trips = {} if round_trips is None else round_trips
        self.commutation = {} if commutation is None else commutation

    def verdict(self) -> Report:
        """The parts as one report: each axiom's violations and undecided
        notes tagged with the axiom, and one violation for each false round
        trip or commutation entry."""
        rep = Report("equivalence criteria")
        for name, r in self.axioms.items():
            rep.violations += [Violation(v.code, f"{name}: {v.message}", v.witness)
                               for v in r.violations]
            rep.undecided += [f"{name}: {u}" for u in r.undecided]
        for code, entries, what in (("RT", self.round_trips, "round trip"),
                                    ("COM", self.commutation, "commutation")):
            for name, holds in entries.items():
                if not holds:
                    rep.fail(code, f"{name}: {what} fails")
        return rep

    @property
    def ok(self):
        return self.verdict().ok

    @property
    def decided(self):
        return self.verdict().decided

    def to_json(self):
        return dict(
            self.verdict().to_json(),
            axioms={k: r.to_json() for k, r in self.axioms.items()},
            round_trips=self.round_trips,
            commutation=self.commutation,
        )


def equivalence_report(catalog, bound: int) -> EquivalenceReport:
    """Aggregate (A1)-(A5), hom-level bijectivity and the commutation of the
    universal arrows into one machine-readable report.  Nothing in it is
    sampled: the coarse side conditions are decided exactly.

    The catalog is a mapping.  The criteria read the keys 'groupoids'
    (annotated presented groupoids, A1), 'gpd_spans' (pairs of Morita
    equivalences out of a common groupoid, A2), 'gpd_arrows' (groupoid
    morphisms into groupoids of germs, A3), 'cell_pairs' (pairs of parallel
    atlas 2-cells with a Morita arrow into their source, A4) and 'nt_lifts'
    (quadruples (f1, f2, psi, alpha): parallel atlas morphisms, a Morita
    arrow psi into the image of their source, and a natural transformation
    between the images of f1 and f2 whiskered by psi, A5).  The round trips
    and the commutation checks read the optional keys 'morphisms' (atlas
    morphisms) and 'cells' (atlas 2-cells)."""
    out = EquivalenceReport()
    for n, check in enumerate((check_a1, check_a2, check_a3, check_a4, check_a5), 1):
        out.axioms[f"A{n}"] = check(catalog, bound)
    for name, m in catalog.get("morphisms", []):
        rt = frd.fred_inverse(frd.fred1(m, bound))
        out.round_trips[name] = atl.equal_morphisms(rt, m)
        out.commutation[name] = commutation_check(m, bound)
    for name, c in catalog.get("cells", []):
        rt = frd.fred_inverse2(frd.fred2(c, bound))
        out.round_trips[f"cell:{name}"] = atl.equal_2cells(rt, c)
        out.commutation[f"cell:{name}"] = commutation_check_2(c, bound)
    return out
