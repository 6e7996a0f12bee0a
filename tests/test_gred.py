from fractions import Fraction as F

import pytest

from orbatlas import atlas as atl
from orbatlas import fractions as frc
from orbatlas import fred as frd
from orbatlas import gred as grd
from orbatlas import groupoid as gpd
from orbatlas.atlas import WORD_BOUND
from orbatlas.fixtures import (
    CONE3,
    MIRROR_REF,
    MORPHISMS,
    TRIV,
    acceptance_catalog,
    catalog_2cells,
)
from orbatlas.geometry import Region, aff1, aff2
from orbatlas.reports import NoSuchCellError, Report

M = MORPHISMS


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


@pytest.fixture(scope="module")
def catalog():
    return acceptance_catalog(WORD_BOUND)


def test_gred_level1_componentwise():
    ops = frc.atlas_ops()
    gops = frc.groupoid_ops()
    s = frc.Span(MIRROR_REF, M["leg1_MR_M"], M["leg2_MR_M"])
    gs = grd.gred1(s, WORD_BOUND)
    assert frc.validate_span(gops, gs).ok
    assert gpd.is_morita(gs.left).ok


def test_gred_level2_with_side_condition():
    ops = frc.atlas_ops()
    gops = frc.groupoid_ops()
    cells = catalog_2cells()
    fc = frc.universal_embed2(ops, cells["id_to_flip"])
    gc = grd.gred2(fc, WORD_BOUND)
    assert frc.validate_fraction_cell(gops, gc).ok
    assert frc.cell_equal(gops, gc, gc)


def _legs_cell(a, b):
    """A groupoid fraction cell with identity span W-legs, so that its two
    leg composites are `a` and `b` themselves; the base cell is not read by
    the side condition."""
    i = gpd.identity_gpd_morphism(a.target)
    s = frc.Span(a.target, i, i)
    return frc.FractionCell(s, s, a.source, a, b, None)


def _orbits(a, b, pid, x):
    """Whether the images of (pid, x) under `a` and `b` share an orbit."""
    (q1, m1), (q2, m2) = a.on_piece(pid), b.on_piece(pid)
    return gpd.coarse_equal(a.target, (q1, m1(x)), (q2, m2(x)))


def _twist(atlas, s):
    """The self-morphism of the one-chart groupoid of `atlas` that moves its
    piece by `s` and each family to the family of its s-conjugate."""
    g = frd.fred0(atlas)
    (pid, _), = g.pieces
    conj = {f.fid: g.families_with(pid, pid, s.compose(f.map).compose(s.inverse()))[0].fid
            for f in g.families}
    return gpd.GroupoidMorphism(g, g, {pid: (pid, s)}, conj)


TWISTS = {
    "reflect_T": (TRIV, aff1(-1, 1)),          # fixes the centroid 1/2
    "swap_K": (CONE3, aff2([[0, 1], [1, 0]])),  # fixes the diagonal of the cone
}


def test_side_condition_fails_where_the_legs_separate_orbits():
    a, b = frd.fred1(M["id_TRIV"]), frd.fred1(M["half_T"])
    rep = grd.side_condition_check(_legs_cell(a, b))
    assert not rep.ok
    v = rep.first()
    assert v.code == "SC" and v.witness == ("T", (F(1, 2),))
    assert _orbits(a, b, *v.witness) == "distinct"
    # the atlas cell with these legs has no image: gred proves it with the witness
    i = M["id_TRIV"]
    s = frc.Span(TRIV, i, i)
    cell = frc.FractionCell(s, s, TRIV, i, M["half_T"], atl.identity_2cell(i))
    with pytest.raises(NoSuchCellError) as e:
        grd.gred2(cell, WORD_BOUND)
    assert e.value.witness == v.witness


@pytest.mark.parametrize("name", sorted(TWISTS))
def test_side_condition_witness_is_off_the_agreement_set(name):
    """The twist agrees with the identity on a line through the centroid,
    so the centroid of the piece is no witness; the reported point is."""
    t = _twist(*TWISTS[name])
    assert gpd.validate_gpd_morphism(t).ok
    ident = gpd.identity_gpd_morphism(t.source)
    pid, region = t.source.pieces[0]
    assert _orbits(ident, t, pid, region.interior_point()) == "equal"
    rep = grd.side_condition_check(_legs_cell(ident, t))
    assert rep.first().code == "SC"
    pid, x = rep.first().witness
    assert region.contains_point(x)
    assert _orbits(ident, t, pid, x) == "distinct"


@pytest.mark.parametrize("name", sorted(TWISTS))
def test_nat_transf_witness_separates_orbits(name):
    """No natural transformation joins the identity and a twist; the
    mismatch witness is a point whose two images lie in different orbits,
    not the first uncovered point, which lies on the twist's fixed line."""
    t = _twist(*TWISTS[name])
    ident = gpd.identity_gpd_morphism(t.source)
    for a, b in ((ident, t), (t, ident)):
        with pytest.raises(NoSuchCellError) as e:
            gpd.find_unique_nat_transf(a, b)
        pid, x = e.value.witness
        assert t.source.piece(pid).contains_point(x)
        assert _orbits(a, b, pid, x) == "distinct"


def test_a2_second_leg_undecided_is_no_violation(catalog, monkeypatch):
    """A2 notes a second connecting arrow that classifies as undecided and
    reports no violation.  Wherever the groupoids of germs exist their
    closures are complete and every classification is decided, so the
    verdict on the second leg of the `legs` span is stubbed."""
    classify = atl.classify_morphism
    calls = []

    def stub(m, bound):
        calls.append(m)
        return atl.Classification("undecided") if len(calls) == 2 else classify(m, bound)
    monkeypatch.setattr(atl, "classify_morphism", stub)
    legs = {"gpd_spans": [s for s in catalog["gpd_spans"] if s[0] == "legs"]}
    rep = grd.check_a2(legs, WORD_BOUND)
    assert len(calls) == 2
    assert rep.ok and not rep.decided
    assert any("second connecting arrow is undecided" in u for u in rep.undecided)


def _parallel_pairs():
    gs = [frd.fred1(m) for m in M.values()]
    gs += [_twist(*TWISTS[n]) for n in sorted(TWISTS)]
    return [(a, b) for a in gs for b in gs
            if a.source == b.source and a.target == b.target]


def test_side_condition_matches_point_checks():
    """Test-only cross-check against probe points: wherever one of them has
    images in different orbits the exact check fails, and every failure's
    witness has.  The converse does not hold for probes: the centroid and
    the points towards the vertices of the cone all lie on the mirror lines
    of the triangle, where `swap_K` and the rotations agree."""
    verdicts = []
    for a, b in _parallel_pairs():
        separated = any(_orbits(a, b, pid, x) == "distinct"
                        for pid, region in a.source.pieces
                        for x in distinct_points(region, 9))
        rep = grd.side_condition_check(_legs_cell(a, b))
        if separated:
            assert not rep.ok
        if not rep.ok:
            assert _orbits(a, b, *rep.first().witness) == "distinct"
        verdicts.append((rep.ok, separated))
    assert verdicts.count((True, False)) > 0
    assert verdicts.count((False, True)) >= 4
    assert verdicts.count((False, False)) > 0


def test_commutation_on_embedded_cells():
    for name in ("id_MIRROR", "leg1_MR_M", "flip_M", "emb_T_M", "rot_K"):
        assert grd.commutation_check(M[name], WORD_BOUND), name
    for name, c in catalog_2cells().items():
        assert grd.commutation_check_2(c, WORD_BOUND), name


def test_axioms_a1_to_a5(catalog):
    for check in (grd.check_a1, grd.check_a2, grd.check_a3, grd.check_a4, grd.check_a5):
        rep = check(catalog, WORD_BOUND)
        assert rep.ok, rep.summary()


def test_a5_validates_a_lift(catalog, monkeypatch):
    """A5 validates the lift of at least one transformation of the
    acceptance catalog: the check cannot pass by skipping every lift."""
    validated = []
    validate = atl.validate_2cell

    def spy(delta, bound):
        rep = validate(delta, bound)
        validated.append(rep.ok)
        return rep

    monkeypatch.setattr(atl, "validate_2cell", spy)
    rep = grd.check_a5(catalog, WORD_BOUND)
    assert rep.ok and rep.decided, rep.summary()
    assert validated and all(validated)


def test_a4_vacuous_case_reported(catalog):
    """The images of the `mirror-distinct` cells are not equalized, so A4's
    precondition fails and A4 holds vacuously: a decided pass, with no
    undecided note."""
    pair = dict(catalog["cell_pairs"])["mirror-distinct"]
    gamma1, gamma2, z_b = pair
    iz = gpd.identity_nat_transf(z_b)
    assert not gpd.equal_nat_transfs(
        gpd.horizontal_compose_nt(frd.fred2(gamma1, WORD_BOUND), iz),
        gpd.horizontal_compose_nt(frd.fred2(gamma2, WORD_BOUND), iz))
    rep = grd.check_a4({"cell_pairs": [("mirror-distinct", pair)]}, WORD_BOUND)
    assert rep.ok and rep.decided
    rep = grd.check_a4(catalog, WORD_BOUND)
    assert rep.ok and rep.decided


def test_a1_undecided_without_annotation():
    base = frd.fred0(MIRROR_REF)
    bare = gpd.PresentedGroupoid(dict(base.pieces), base.families)
    rep = grd.check_a1({"groupoids": [("bare", bare)]}, WORD_BOUND)
    assert rep.ok and not rep.decided


def test_empty_catalog_vacuous():
    empty = {"groupoids": [], "gpd_spans": [], "gpd_arrows": [],
             "cell_pairs": [], "nt_lifts": [], "morphisms": [], "cells": []}
    rep = grd.equivalence_report(empty, WORD_BOUND)
    assert rep.ok
    assert any("vacuously" in u for u in rep.axioms["A1"].undecided)


def test_equivalence_report(catalog):
    rep = grd.equivalence_report(catalog, WORD_BOUND)
    assert rep.ok
    assert all(rep.round_trips.values())
    assert all(rep.commutation.values())
    js = rep.to_json()
    assert js["ok"] is True


def test_equivalence_report_verdict_tags_its_parts():
    """The top-level verdict holds each axiom's violations and notes, tagged
    with the axiom, and one violation per false round trip or commutation."""
    a1, a2 = Report("A1"), Report("A2")
    a1.fail("ME1", "orbit not reached", F(1, 2))
    a2.note_undecided("legs: undecided")
    rep = grd.EquivalenceReport({"A1": a1, "A2": a2},
                                {"flip_M": True, "cell:legs": False},
                                {"flip_M": False})
    js = rep.to_json()
    assert js["subject"] == "equivalence criteria" and js["ok"] is False
    assert [(v["code"], v["message"], v["witness"]) for v in js["violations"]] == [
        ("ME1", "A1: orbit not reached", "1/2"),
        ("RT", "cell:legs: round trip fails", None),
        ("COM", "flip_M: commutation fails", None)]
    assert js["undecided"] == ["A2: legs: undecided"]
    assert js["axioms"]["A1"] == a1.to_json() and js["round_trips"] == rep.round_trips
    assert not rep.ok and not rep.decided


def test_gred_pseudofunctoriality_on_composites():
    """The image of a chosen composite of spans is connected to the composite
    of the images by an invertible localized 2-cell."""
    ops = frc.atlas_ops()
    gops = frc.groupoid_ops()
    t_atlas = frc.ChoiceTable()
    t_gpd = frc.ChoiceTable()
    s1 = frc.universal_embed(ops, M["emb_T_M"])
    s2 = frc.Span(MIRROR_REF, M["leg1_MR_M"], M["leg2_MR_M"])
    comp_then_image = grd.gred1(frc.compose_spans(ops, t_atlas, s2, s1), WORD_BOUND)
    image_then_comp = frc.compose_spans(gops, t_gpd, grd.gred1(s2, WORD_BOUND),
                                        grd.gred1(s1, WORD_BOUND))
    # both composites present the same localized arrow: their W-legs and
    # arrow legs agree after refining over the common middle
    d, z1, z2, mu = gops.square(comp_then_image.left, image_then_comp.left)
    sigma = gops.connect2(gops.compose1(comp_then_image.left, z1),
                          gops.compose1(image_then_comp.left, z2))
    assert gpd.validate_nat_transf(sigma).ok
    rho = gpd.find_unique_nat_transf(
        gops.compose1(comp_then_image.right, z1),
        gops.compose1(image_then_comp.right, z2))
    assert gpd.validate_nat_transf(rho).ok
