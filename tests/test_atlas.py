import itertools
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from orbatlas import cli
from orbatlas import fractions as frc
from orbatlas.atlas import (
    Atlas,
    ChangeOfCharts,
    Chart,
    Morphism,
    PEntry,
    TwoCell,
    WORD_BOUND,
    cancel_refinement_cell,
    classify_morphism,
    closure,
    coarse_equal_atlas,
    compose_morphisms,
    equal_2cells,
    equal_morphisms,
    horizontal_compose,
    identity_2cell,
    identity_morphism,
    inclusion,
    induced_hom,
    invert_2cell,
    merge_atlases,
    morphism_from_lifts,
    pullback_square,
    pushforward,
    self_change_element,
    unique_2cell_open_embeddings,
    validate_2cell,
    validate_atlas,
    validate_chart,
    validate_morphism,
    vertical_compose,
)
from orbatlas.fixtures import (
    ATLASES,
    CONE3,
    MIRROR,
    MIRROR_MAP,
    MIRROR_REF,
    MORPHISMS,
    ROT3,
    TRIV,
    TRIV_SHIFTED,
    catalog_2cells,
)
from orbatlas.fred import fred0, fred1
from orbatlas.geometry import AffineMap, PartialAffineIso, Region, aff1, aff2
from orbatlas.groupoid import is_morita, validate_gpd_morphism
from orbatlas.reports import NoSuchCellError, UndecidedError

M = MORPHISMS
ID1 = AffineMap.identity(1)


def test_fixture_atlases_validate():
    for name, a in ATLASES.items():
        rep = validate_atlas(a, WORD_BOUND)
        assert rep.ok and rep.decided, (name, rep.summary())


def test_empty_atlas_is_reported_as_empty():
    rep = validate_atlas(Atlas([]), WORD_BOUND)
    assert not rep.ok
    assert rep.first().code == "A1" and rep.first().message == "atlas has no charts"


def test_empty_atlas_has_no_dimension():
    with pytest.raises(ValueError, match="atlas has no charts"):
        Atlas([]).dim


def test_merge_with_empty_atlas_is_the_other_atlas():
    empty = Atlas([])
    assert merge_atlases(empty, TRIV) == TRIV
    assert merge_atlases(TRIV, empty) == TRIV
    assert merge_atlases(empty, empty) == empty


def test_chart_group_must_preserve_domain():
    bad = Chart("B", Region.interval(-1, 1), [ID1, aff1(1, 1)])
    rep = validate_chart(bad)
    assert not rep.ok
    assert rep.first().code == "C2"


def test_chart_group_closure():
    bad = Chart("B", Region.interval(-1, 1), (ID1, aff1(-1, 0), aff1(1, 0)))
    # fine: this group is {id, -id}, the identity listed twice
    assert validate_chart(bad).ok
    assert len(bad.group) == 2
    # now break closure by removing inverses
    half_rot = Chart("B", Region.polygon([(1, 0), (0, 1), (-1, -1)]),
                     (AffineMap.identity(2), ROT3))
    rep = validate_chart(half_rot)
    assert not rep.ok and rep.first().code == "C3"


def test_closures_complete_and_small():
    for name, a in ATLASES.items():
        cl = closure(a, WORD_BOUND)
        assert cl.complete and not cl.overflowed
        assert cl.count() <= 10, name


def test_morphism_validation_all_catalog():
    for name, m in M.items():
        rep = validate_morphism(m, WORD_BOUND)
        assert rep.ok and rep.decided, (name, rep.summary())


def test_classification_matches_expected():
    from orbatlas.fixtures import EXPECTED_CLASS
    for name, m in M.items():
        assert classify_morphism(m, WORD_BOUND).label == EXPECTED_CLASS[name], name


def test_self_change_element():
    chart = MIRROR.chart("M")
    lam = ChangeOfCharts.make("M", "M", MIRROR_MAP, Region.interval(F(-1, 2), F(1, 2)))
    assert self_change_element(chart, lam) == MIRROR_MAP
    lam_id = ChangeOfCharts.make("M", "M", ID1, Region.interval(0, 1))
    assert self_change_element(chart, lam_id).is_identity()
    k = CONE3.chart("K")
    sub = Region.polygon([(F(1, 8), F(1, 8)), (F(1, 2), F(1, 8)), (F(1, 8), F(1, 2))])
    lam_rho = ChangeOfCharts.make("K", "K", ROT3, sub)
    assert self_change_element(k, lam_rho) == ROT3


def test_induced_hom():
    h = induced_hom(M["id_MIRROR"], "M")
    assert all(h[g] == g for g in h)
    h2 = induced_hom(M["leg1_MR_M"], "C2")
    assert all(v.is_identity() for v in h2.values())
    h3 = induced_hom(M["flip_M"], "M")
    assert h3[MIRROR_MAP] == MIRROR_MAP  # conjugation by the reflection


def test_equal_is_reflexive_and_tolerant():
    for name, m in M.items():
        assert equal_morphisms(m, m), name
    # a representative with a redundant entry is still the same morphism
    base = M["id_MIRROR"]
    extra = list(base.entries) + [base.entries[0]]
    fat = Morphism(base.source, base.target, dict(base.chart_map),
                   dict(base.lifts), extra)
    assert equal_morphisms(base, fat)


def test_flip_not_equal_to_id_but_2_isomorphic():
    assert not equal_morphisms(M["flip_M"], M["id_MIRROR"])
    cell = unique_2cell_open_embeddings(M["id_MIRROR"], M["flip_M"], WORD_BOUND)
    assert validate_2cell(cell, WORD_BOUND).ok


def test_composition_unit_and_assoc():
    c = compose_morphisms(M["leg1_MR_M"], M["incl_M_MR"])
    assert equal_morphisms(c, M["id_MIRROR"])
    a = compose_morphisms(M["flip_M"],
                          compose_morphisms(M["leg1_MR_M"], M["incl_M_MR"]))
    b = compose_morphisms(compose_morphisms(M["flip_M"], M["leg1_MR_M"]),
                          M["incl_M_MR"])
    assert equal_morphisms(a, b)
    assert validate_morphism(c, WORD_BOUND).ok


def test_morphism_from_lifts_unique_class():
    mor = morphism_from_lifts(MIRROR_REF, MIRROR, {"M": "M", "C2": "M"},
                              {"M": ID1, "C2": ID1}, WORD_BOUND)
    assert equal_morphisms(mor, M["leg1_MR_M"])
    with pytest.raises(ValueError):
        morphism_from_lifts(TRIV, TRIV, {"T": "T"}, {"T": aff1(0)}, WORD_BOUND)


def test_pushforward_translation():
    shifted, mor = pushforward(TRIV, aff1(1, 5), WORD_BOUND)
    dom = shifted.chart("T@push").domain
    assert dom == Region.interval(5, 6)
    assert classify_morphism(mor, WORD_BOUND).label == "weak_equivalence"
    assert validate_morphism(mor, WORD_BOUND).ok


def test_inclusion_classified_refinement():
    inc = inclusion(MIRROR, MIRROR_REF, WORD_BOUND)
    assert classify_morphism(inc, WORD_BOUND).label == "refinement"


def test_classify_open_embedding_not_we():
    cls = classify_morphism(M["emb_T_M"], WORD_BOUND)
    assert cls.label == "open_embedding"
    # the uncovered orbit is the fixed point of the reflection
    assert cls.witness is not None and cls.witness[1] == (F(0),)


def test_coarse_equality_of_atlas_points():
    def coarse(a, p, q):
        return coarse_equal_atlas(a, p, q, WORD_BOUND)
    assert coarse(MIRROR, ("M", (F(1, 2),)), ("M", (F(-1, 2),))) == "equal"
    assert coarse(MIRROR, ("M", (F(1, 2),)), ("M", (F(1, 3),))) == "distinct"
    assert coarse(MIRROR_REF, ("C2", (F(1, 2),)), ("M", (F(-1, 2),))) == "equal"


# -- 2-cells ------------------------------------------------------------------

def test_2cell_validation_examples():
    cells = catalog_2cells()
    for name, c in cells.items():
        assert validate_2cell(c, WORD_BOUND).ok, name

    # the reflection patch between two copies of the identity violates the
    # lift-intertwining axiom, with the witness away from the fixed point
    bad = TwoCell(M["id_MIRROR"], M["id_MIRROR"], {
        "M": [(Region.interval(-1, 1),
               ChangeOfCharts.make("M", "M", MIRROR_MAP, Region.interval(-1, 1)))]})
    rep = validate_2cell(bad, WORD_BOUND)
    assert not rep.ok
    first = rep.first()
    assert first.code == "2Mc"
    assert first.witness == (F(1, 2),)


def test_2cell_patch_coverage_checked():
    half = TwoCell(M["id_MIRROR"], M["id_MIRROR"], {
        "M": [(Region.interval(0, 1),
               ChangeOfCharts.make("M", "M", ID1, Region.interval(-1, 1)))]})
    rep = validate_2cell(half, WORD_BOUND)
    assert any(v.code == "2Ma" for v in rep.violations)


def test_2cell_patch_uncertified_by_an_incomplete_closure_is_undecided():
    """The chart (0, 10) glued to itself by x -> x + 1 on (0, 5) reaches
    x + 7/2 by no word, but its closure stabilizes only at bound 6.  Below
    that the patch with that germ is undecided, not a pass."""
    src = Atlas([Chart("A", _I01, [ID1])])
    tgt = Atlas([Chart("B", Region.interval(0, 10), [ID1])],
                [ChangeOfCharts.make("B", "B", aff1(1, 1), Region.interval(0, 5))])
    entry = PEntry(ChangeOfCharts.make("A", "A", ID1, _I01),
                   ChangeOfCharts.make("B", "B", ID1, Region.interval(0, 10)))
    step = aff1(1, F(7, 2))
    f1, f2 = (Morphism(src, tgt, {"A": "B"}, {"A": L}, [entry]) for L in (ID1, step))
    cell = TwoCell(f1, f2, {"A": [(_I01, ChangeOfCharts.make("B", "B", step, _I01))]})
    for bound, complete in ((WORD_BOUND, False), (6, True)):
        assert closure(tgt, bound).complete is complete
        rep = validate_2cell(cell, bound)
        assert rep.decided is complete
        assert rep.ok is not complete
        assert {v.code for v in rep.violations} <= {"2Mb"}

def test_2cell_equality_and_inverse():
    cells = catalog_2cells()
    d, s = cells["id_to_flip"], cells["flip_to_id"]
    assert equal_2cells(d, d)
    assert not equal_2cells(d, cells["i_id_MIRROR"])
    assert equal_2cells(invert_2cell(d), s)
    v = vertical_compose(s, d)
    assert equal_2cells(v, cells["i_id_MIRROR"])


def test_equal_2cells_needs_equal_endpoints():
    # both identity cells carry the identity germ, but between different
    # morphisms
    assert not equal_morphisms(M["flip_M"], M["id_MIRROR"])
    assert not equal_2cells(identity_2cell(M["flip_M"]), identity_2cell(M["id_MIRROR"]))
    d = catalog_2cells()["id_to_flip"]
    assert not equal_2cells(d, invert_2cell(d))


def test_unique_2cell_of_equal_morphisms_is_identity():
    for name in ("leg1_MR_M", "flip_M", "id_CONE3"):
        cell = unique_2cell_open_embeddings(M[name], M[name], WORD_BOUND)
        assert equal_2cells(cell, identity_2cell(M[name])), name


def test_unique_2cell_between_legs():
    cells = catalog_2cells()
    legs = cells["legs"]
    by_chart = dict(legs.patches)
    (r_c2, ch_c2), = by_chart["C2"]
    assert ch_c2.map == MIRROR_MAP
    (r_m, ch_m), = by_chart["M"]
    assert ch_m.map.is_identity()
    # no 2-cell between morphisms with different base maps
    with pytest.raises(NoSuchCellError):
        unique_2cell_open_embeddings(M["id_TRIV"], M["half_T"], WORD_BOUND)


def test_interchange_on_mirror():
    cells = catalog_2cells()
    delta, sigma = cells["id_to_flip"], cells["flip_to_id"]
    xi, eta = cells["id_to_flip"], cells["flip_to_id"]
    lhs = horizontal_compose(vertical_compose(eta, xi),
                             vertical_compose(sigma, delta))
    rhs = vertical_compose(horizontal_compose(eta, sigma),
                           horizontal_compose(xi, delta))
    assert equal_2cells(lhs, rhs)
    assert validate_2cell(lhs, WORD_BOUND).ok and validate_2cell(rhs, WORD_BOUND).ok


def test_identity_2cell_units():
    cells = catalog_2cells()
    d = cells["id_to_flip"]
    assert equal_2cells(vertical_compose(cells["i_flip_M"], d), d)
    assert equal_2cells(vertical_compose(d, cells["i_id_MIRROR"]), d)
    h = horizontal_compose(cells["i_leg1"], identity_2cell(M["incl_M_MR"]))
    comp = compose_morphisms(M["leg1_MR_M"], M["incl_M_MR"])
    assert equal_2cells(h, identity_2cell(comp))


# -- squares ------------------------------------------------------------------

def test_pullback_square_flip_legs():
    d, wp, fp, alpha = pullback_square(M["flip_M"], M["leg1_MR_M"], WORD_BOUND)
    assert validate_atlas(d, WORD_BOUND).ok
    assert classify_morphism(wp, WORD_BOUND).label == "refinement"
    assert validate_morphism(fp, WORD_BOUND).ok
    assert validate_2cell(alpha, WORD_BOUND).ok


def test_common_refinement_of_parallel_legs():
    u, v1, v2, cell = pullback_square(M["leg1_MR_M"], M["leg2_MR_M"], WORD_BOUND)
    assert classify_morphism(v1, WORD_BOUND).label == "refinement"
    assert classify_morphism(v2, WORD_BOUND).label == "refinement"
    for leg, v in ((M["leg1_MR_M"], v1), (M["leg2_MR_M"], v2)):
        assert classify_morphism(compose_morphisms(leg, v), WORD_BOUND).label == "refinement"
    assert validate_2cell(cell, WORD_BOUND).ok


def test_common_refinement_identities():
    u, v1, v2, cell = pullback_square(M["id_MIRROR"], M["id_MIRROR"], WORD_BOUND)
    assert classify_morphism(v1, WORD_BOUND).label == "refinement"
    assert classify_morphism(v2, WORD_BOUND).label == "refinement"
    assert validate_2cell(cell, WORD_BOUND).ok
    assert equal_morphisms(compose_morphisms(M["id_MIRROR"], v1),
                           compose_morphisms(M["id_MIRROR"], v2))


def test_merge_atlases_conflicts():
    assert merge_atlases(MIRROR, MIRROR_REF) is not None
    other = Atlas([Chart("M", Region.interval(0, 1), [ID1])])
    assert merge_atlases(MIRROR, other) is None


# -- lifts that are not open embeddings ----------------------------------------

_TRI = Region.polygon([(1, 0), (0, 1), (-1, -1)])
_SQUARE = Region.polygon([(F(-3, 4), -1), (F(3, 4), -1), (F(3, 4), 1), (F(-3, 4), 1)])


def _lifted(src_region, tgt_region, lift, generators=()):
    """The one-chart atlases on the two regions, trivial groups and the
    given generators on the target, and the morphism with the given lift
    and the identity assignment."""
    idn = AffineMap.identity(src_region.dim)
    src = Atlas([Chart("A", src_region, [idn])])
    tgt = Atlas([Chart("B", tgt_region, [idn])], generators)
    entry = PEntry(ChangeOfCharts("A", "A", PartialAffineIso(idn, src_region)),
                   ChangeOfCharts("B", "B", PartialAffineIso(idn, tgt_region)))
    return Morphism(src, tgt, {"A": "B"}, {"A": lift}, [entry])


@pytest.mark.parametrize("lift, escapes", [
    (aff2([[1, 0], [0, 0]]), True),            # rank 1: (x, y) -> (x, 0)
    (aff2([[0, 0], [0, 0]]), False),           # rank 0, inside the square
    (aff2([[0, 0], [0, 0]], (1, 0)), True),    # rank 0, outside the square
], ids=["rank1", "rank0-inside", "rank0-outside"])
def test_non_etale_lift_containment_is_exact(tmp_path, capsys, lift, escapes):
    m = _lifted(_TRI, _SQUARE, lift)
    p = tmp_path / "m.json"
    p.write_text(cli.dumps(m))
    assert cli.run(["validate", str(p)]) == (1 if escapes else 0)
    capsys.readouterr()
    for rep, codes in [(validate_morphism(m, WORD_BOUND), {"M3", "M5a"}),
                       (validate_gpd_morphism(fred1(m)), {"GM1", "GM2"})]:
        assert rep.ok is not escapes and rep.decided
        if escapes:
            assert codes <= {v.code for v in rep.violations}
        for v in rep.violations:
            assert _TRI.contains_point(v.witness)
            assert not _SQUARE.contains_point(lift(v.witness))


@pytest.mark.parametrize("instance", ["atlas", "groupoid"])
def test_bf4_over_a_rank0_morphism_raises(instance):
    """The connecting cell of (id_B; phi, phi) needs open-embedding lifts,
    which phi's rank-0 lift breaks.  That is an error, not a missing cell,
    so BF4 raises instead of skipping the triple."""
    phi = _lifted(_TRI, _SQUARE, aff2([[0, 0], [0, 0]]))
    objects = [("A", phi.source), ("B", phi.target)]
    if instance == "atlas":
        ops, cells = frc.atlas_ops(WORD_BOUND), [("phi", phi)]
    else:
        ops, cells = frc.groupoid_ops(WORD_BOUND), [("phi", fred1(phi, WORD_BOUND))]
        objects = [(n, fred0(a, WORD_BOUND)) for n, a in objects]
    universe = frc.depth2_universe(ops, objects, cells)
    with pytest.raises(ValueError, match="etale|open-embedding"):
        frc.check_bf(ops, 4, universe, frc.ChoiceTable())


def test_etale_m3_witness_escapes():
    m = _lifted(Region.interval(0, 1), Region.interval(0, F(3, 4)), ID1)
    rep = validate_morphism(m, WORD_BOUND)
    w = rep.first().witness
    assert rep.first().code == "M3"
    assert Region.interval(0, 1).contains_point(w)
    assert not Region.interval(0, F(3, 4)).contains_point(w)


# -- witnesses of cells that do not exist ----------------------------------------

_I01 = Region.interval(0, 1)
_FOLD = aff1(-1, 1)
# the chart (0, 1) glued to itself by x -> 1 - x on (0, 1/2): the germs of
# that map cover the chart except the seam 1/2
_SEAM = [ChangeOfCharts.make("B", "B", _FOLD, Region.interval(0, F(1, 2)))]
# the chart (0, 3) glued to itself by x -> x + 1 on (0, 3/2): on the chart
# (0, 2) the germs of that map stop at 3/2, and the chart's centroid 1 is
# not a witness
_STEP = aff1(1, 1)
_SHIFT = [ChangeOfCharts.make("B", "B", _STEP, Region.interval(0, F(3, 2)))]
_I02, _I03 = Region.interval(0, 2), Region.interval(0, 3)


def _germ_fails(atlas, j1, j2, d_map, y):
    """Whether no pseudogroup germ with map `d_map` from j1 to j2 is
    defined at the point y."""
    dom = closure(atlas, WORD_BOUND).region(j1, j2, d_map)
    return dom is None or not dom.contains_point(y)


@pytest.mark.parametrize("w1, w2", [
    (M["id_TRIV"], M["half_T"]),
    (_lifted(_I01, _I01, ID1, _SEAM), _lifted(_I01, _I01, _FOLD, _SEAM)),
    (_lifted(_I02, _I03, ID1, _SHIFT), _lifted(_I02, _I03, _STEP, _SHIFT)),
], ids=["no-family", "seam", "part"])
def test_unique_2cell_witness_is_where_no_germ_connects(w1, w2):
    with pytest.raises(NoSuchCellError) as e:
        unique_2cell_open_embeddings(w1, w2, WORD_BOUND)
    i, x = e.value.witness
    assert w1.source.chart(i).domain.contains_point(x)
    d_map = w2.lift(i).compose(w1.lift(i).inverse())
    assert _germ_fails(w1.target, w1.chart_image(i), w2.chart_image(i), d_map, w1.lift(i)(x))


@pytest.mark.parametrize("x, y, germ", [
    (M["id_TRIV"], M["half_T"], aff1(F(1, 2))),
    (_lifted(_I01, _I01, ID1, _SEAM), _lifted(_I01, _I01, _FOLD, _SEAM), _FOLD),
    (_lifted(_I02, _I03, ID1, _SHIFT), _lifted(_I02, _I03, _STEP, _SHIFT), _STEP),
], ids=["no-family", "seam", "part"])
def test_cancelled_germ_witness_is_where_no_germ_cancels(x, y, germ):
    v = identity_morphism(x.target, WORD_BOUND)
    i = x.source.charts[0].cid
    j = x.chart_image(i)
    dom = x.source.chart(i).domain
    cell = TwoCell(x, y, {i: [(dom, ChangeOfCharts.make(j, j, germ, dom.image(x.lift(i))))]})
    with pytest.raises(NoSuchCellError) as e:
        cancel_refinement_cell(v, x, y, cell, WORD_BOUND)
    wi, pt = e.value.witness
    assert wi == i and dom.contains_point(pt)
    assert _germ_fails(x.target, j, y.chart_image(i), germ, x.lift(i)(pt))


def test_pullback_square_witness_is_not_reached_by_the_w_arrow():
    """half_T reaches only (0, 1/2) of TRIV, and unshift_T carries
    TRIV_SHIFTED's chart onto all of TRIV."""
    f, w = M["unshift_T"], M["half_T"]
    with pytest.raises(NoSuchCellError) as e:
        pullback_square(f, w, WORD_BOUND)
    cid, x = e.value.witness
    assert TRIV_SHIFTED.chart(cid).domain.contains_point(x)
    y = f.lift(cid)(x)
    for a in w.source.charts:
        img = a.domain.image(w.lift(a.cid))
        for mm, dom in closure(f.target, WORD_BOUND).maps(f.chart_image(cid),
                                                          w.chart_image(a.cid)).items():
            assert not (dom.contains_point(y) and img.contains_point(mm(y)))


_WIDE = Atlas([Chart("B", Region.interval(-1, 1), [ID1])])


@pytest.mark.parametrize("source, target, cm, lifts", [
    (TRIV, TRIV, {"T": "T"}, {"T": aff1(2)}),
    (MIRROR, _WIDE, {"M": "B"}, {"M": ID1}),
], ids=["escape", "no-family"])
def test_missing_target_germ_witness_is_where_the_lift_leaves_the_family(
        source, target, cm, lifts):
    """x -> 2x carries (1/2, 1) off TRIV's only family; MIRROR's reflection
    is forced onto a trivial chart that has no family with that map."""
    with pytest.raises(NoSuchCellError) as e:
        morphism_from_lifts(source, target, cm, lifts, WORD_BOUND)
    i, x = e.value.witness
    assert source.chart(i).domain.contains_point(x)
    L = lifts[i]
    forced = [(ip, lifts[ip].compose(mm).compose(L.inverse()))
              for src, ip, mm, reg in closure(source, WORD_BOUND).items()
              if src == i and reg.contains_point(x)]
    assert any(_germ_fails(target, cm[i], cm[ip], nu, L(x)) for ip, nu in forced)


def _identity_reference(a, bound):
    """The identity by definition: every closure germ assigned to itself,
    certified by the atlas."""
    entries = []
    for src, dst, m, reg in closure(a, bound).items():
        ch = ChangeOfCharts(src, dst, PartialAffineIso(m, reg))
        entries.append(PEntry(ch, ch))
    ids = a.chart_ids()
    return Morphism(a, a, {c: c for c in ids}, {c: AffineMap.identity(a.dim) for c in ids},
                    entries, certificate=a)


def _square_middles():
    """The middles of the pullback squares that BF3 builds on the depth-2
    atlas universe."""
    ops = frc.atlas_ops(WORD_BOUND)
    objects = sorted(ATLASES.items()) + [("TRIV_SHIFTED", TRIV_SHIFTED)]
    cells = [c for _, c in frc.depth2_universe(ops, objects, sorted(M.items())).cells]
    middles = {}
    for f, w in itertools.product(cells, repeat=2):
        if f.target != w.target or ops.is_w(w) is not True:
            continue
        try:
            middles.setdefault(pullback_square(f, w, WORD_BOUND)[0])
        except NoSuchCellError:
            continue
    return list(middles)


def test_identity_is_the_definitional_reference():
    middles = _square_middles()
    assert len(middles) > 10
    for a in list(ATLASES.values()) + [TRIV_SHIFTED] + middles:
        got, ref = identity_morphism(a, WORD_BOUND), _identity_reference(a, WORD_BOUND)
        assert got == ref and got.key() == ref.key()
        assert got.certificate == a


@pytest.mark.parametrize("build", [
    lambda: morphism_from_lifts(MIRROR_REF, MIRROR, {"M": "M", "C2": "M"},
                                {"M": ID1, "C2": ID1}, 0),
    lambda: identity_morphism(TRIV, 0),
    lambda: pullback_square(M["flip_M"], M["leg1_MR_M"], 0),
    lambda: pullback_square(M["unshift_T"], M["half_T"], 0),
], ids=["morphism_from_lifts", "identity", "square", "square-unreached"])
def test_constructions_on_an_incomplete_closure_are_undecided(build):
    """No closure is complete at bound 0: a source closure holds only the
    germs found so far, and a germ or an orbit missing from a search closure
    proves nothing."""
    with pytest.raises(UndecidedError):
        build()


def test_stale_certificate_decides_only_the_identity_base():
    """incl_M_MR with its target's generator shrunk from (1/4, 1) to
    (1/4, 1/2) and the certificate left as it was.  The certificate still
    glues all of C2 to M, the target no longer does, so the orbits of C2
    beyond 1/2 are not reached: the class is in W exactly when the
    groupoid image is a Morita equivalence."""
    gen = ChangeOfCharts.make("C2", "M", ID1, Region.interval(F(1, 4), F(1, 2)))
    stale = M["incl_M_MR"].__replace__(target=Atlas(MIRROR_REF.charts, [gen]))
    assert stale.certificate == MIRROR_REF
    rep = validate_morphism(stale, WORD_BOUND)
    assert rep.ok and rep.decided
    label = classify_morphism(stale, WORD_BOUND).label
    morita = is_morita(fred1(stale, WORD_BOUND))
    assert (label == "refinement") == morita.ok
    assert label == "open_embedding" and not morita.ok


# -- validator failure branches ---------------------------------------------------

_WHOLE = MIRROR.chart("M").domain


def _mirror_with(entries):
    """A morphism MIRROR -> MIRROR with identity lift and the given
    (source map, source domain, assigned map) entries over the chart M."""
    return Morphism(MIRROR, MIRROR, {"M": "M"}, {"M": ID1}, [
        PEntry(ChangeOfCharts.make("M", "M", m, dom),
               ChangeOfCharts.make("M", "M", nu, _WHOLE))
        for m, dom, nu in entries])


def _violations(rep, code):
    return [v for v in rep.violations if v.code == code]


def test_m5d_witness_lies_where_equal_germs_overlap():
    half = Region.interval(0, F(1, 2))
    m = _mirror_with([(ID1, _WHOLE, ID1), (ID1, half, MIRROR_MAP)])
    (v,) = _violations(validate_morphism(m, WORD_BOUND), "M5d")
    assert half.contains_point(v.witness)


# id_MIRROR_REF with a second entry on each identity germ over (C2->C2),
# (C2->M) and (M->M), assigning the reflection on nu.dom ∩ r(nu.dom): three
# M5d faults, two of them with the witness 5/8.
_DOUBLED_IDENTITY_GERMS = """
from orbatlas.atlas import ChangeOfCharts, Morphism, PEntry, WORD_BOUND, validate_morphism
from orbatlas.fixtures import MIRROR_MAP, MORPHISMS
from orbatlas.geometry import PartialAffineIso

m = MORPHISMS["id_MIRROR_REF"]
extra = [PEntry(e.change, ChangeOfCharts(e.nu.src, e.nu.dst, PartialAffineIso(
             MIRROR_MAP, e.nu.dom.intersect(e.nu.dom.image(MIRROR_MAP)))))
         for e in m.entries if e.change.map.is_identity()
         and (e.change.src, e.change.dst) in {("C2", "C2"), ("C2", "M"), ("M", "M")}]
bad = Morphism(m.source, m.target, m.chart_map, m.lifts, m.entries + tuple(extra),
               m.certificate)
for v in validate_morphism(bad, WORD_BOUND).violations:
    print(v.code, v.message, v.witness, sep=" | ")
"""


def test_m5d_report_does_not_depend_on_the_hash_seed():
    """Strings hash by a per-process seed, so the report is made in two
    fresh interpreters; the M5d faults follow the sorted entries."""
    src = str(Path(cli.__file__).parents[1])
    reports = [subprocess.run([sys.executable, "-c", _DOUBLED_IDENTITY_GERMS],
                              env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src),
                              capture_output=True, text=True, check=True).stdout
               for seed in ("0", "1")]
    assert reports[0] == reports[1]
    m5d = [line.split(" | ")[1:] for line in reports[0].splitlines()
           if line.startswith("M5d |")]
    assert m5d == [
        ["equal germs with different assigned germs (C2->C2)", "(Fraction(5, 8),)"],
        ["equal germs with different assigned germs (C2->M)", "(Fraction(5, 8),)"],
        ["equal germs with different assigned germs (M->M)", "(Fraction(0, 1),)"]]


@pytest.mark.parametrize("entries, message", [
    # the reflection alone: its square, the identity, has no entry
    ([(MIRROR_MAP, _WHOLE, MIRROR_MAP)],
     "composite germ not reproduced inside the good subset (M->M)"),
    # the identity germ assigned the reflection: r r = id is sent to id, not r;
    # four pairs of entries meet this one fault
    ([(ID1, _WHOLE, MIRROR_MAP), (MIRROR_MAP, _WHOLE, MIRROR_MAP)],
     "assignment not multiplicative (M->M)"),
], ids=["composite-missing", "not-multiplicative"])
def test_m5e_witness_lies_on_the_composite_germ(entries, message):
    (v,) = _violations(validate_morphism(_mirror_with(entries), WORD_BOUND), "M5e")
    assert v.message == message
    assert _WHOLE.contains_point(v.witness)


def test_2me_witness_lies_on_the_germ_the_patches_do_not_intertwine():
    """The identity patch between id_MIRROR and a copy that assigns the
    identity to the reflection: every patch axiom holds, but the patch does
    not carry one assignment of the reflection to the other."""
    tampered = _mirror_with([(ID1, _WHOLE, ID1), (MIRROR_MAP, _WHOLE, ID1)])
    cell = TwoCell(M["id_MIRROR"], tampered, dict(identity_2cell(M["id_MIRROR"]).patches))
    rep = validate_2cell(cell, WORD_BOUND)
    assert {v.code for v in rep.violations} == {"2Me"}
    for v in rep.violations:
        assert _WHOLE.contains_point(v.witness)


# -- algebraic laws over sampled catalog cells ---------------------------------

from hypothesis import given, settings
from hypothesis import strategies as st

_endo_mirror = st.sampled_from(["id_MIRROR", "flip_M"])
_into_mirror = st.sampled_from(["leg1_MR_M", "leg2_MR_M"])


@settings(max_examples=30, deadline=None)
@given(_endo_mirror, _endo_mirror, _into_mirror)
def test_equality_respected_by_composition(a, b, w):
    fa, fb, fw = M[a], M[b], M[w]
    if equal_morphisms(fa, fb):
        assert equal_morphisms(compose_morphisms(fa, fw), compose_morphisms(fb, fw))
    ga = compose_morphisms(fa, fw)
    assert equal_morphisms(ga, ga)


@settings(max_examples=30, deadline=None)
@given(_endo_mirror, _endo_mirror, _endo_mirror)
def test_unique_cells_compose_transitively(a, b, c):
    d1 = unique_2cell_open_embeddings(M[a], M[b], WORD_BOUND)
    d2 = unique_2cell_open_embeddings(M[b], M[c], WORD_BOUND)
    direct = unique_2cell_open_embeddings(M[a], M[c], WORD_BOUND)
    assert equal_2cells(vertical_compose(d2, d1), direct)
