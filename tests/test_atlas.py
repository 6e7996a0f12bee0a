from fractions import Fraction as F

import pytest

from orbatlas.atlas import (
    Atlas,
    ChangeOfCharts,
    Chart,
    Morphism,
    TwoCell,
    classify_morphism,
    closure,
    coarse_equal_atlas,
    compose_morphisms,
    equal_2cells,
    equal_morphisms,
    horizontal_compose,
    identity_2cell,
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
    catalog_2cells,
)
from orbatlas.geometry import AffineMap, Region, aff1

M = MORPHISMS
ID1 = AffineMap.identity(1)


def test_fixture_atlases_validate():
    for name, a in ATLASES.items():
        rep = validate_atlas(a)
        assert rep.ok and rep.decided, (name, rep.summary())


def test_empty_atlas_is_reported_as_empty():
    rep = validate_atlas(Atlas.make([]))
    assert not rep.ok
    assert rep.first().code == "A1" and rep.first().message == "atlas has no charts"


def test_empty_atlas_has_no_dimension():
    with pytest.raises(ValueError, match="atlas has no charts"):
        Atlas.make([]).dim


def test_merge_with_empty_atlas_is_the_other_atlas():
    empty = Atlas.make([])
    assert merge_atlases(empty, TRIV) == TRIV
    assert merge_atlases(TRIV, empty) == TRIV
    assert merge_atlases(empty, empty) == empty


def test_chart_group_must_preserve_domain():
    bad = Chart.make("B", Region.interval(-1, 1), [ID1, aff1(1, 1)])
    rep = validate_chart(bad)
    assert not rep.ok
    assert rep.first().code == "C2"


def test_chart_group_closure():
    bad = Chart("B", Region.interval(-1, 1), (ID1, aff1(-1, 0), aff1(1, 0)))
    # fine: this group is {id, -id}; now break closure by removing inverses
    half_rot = Chart("B", Region.polygon([(1, 0), (0, 1), (-1, -1)]),
                     (AffineMap.identity(2), ROT3))
    rep = validate_chart(half_rot)
    assert not rep.ok and rep.first().code == "C3"


def test_closures_complete_and_small():
    for name, a in ATLASES.items():
        cl = closure(a)
        assert cl.complete and not cl.overflowed
        assert cl.count() <= 10, name


def test_morphism_validation_all_catalog():
    for name, m in M.items():
        rep = validate_morphism(m)
        assert rep.ok and rep.decided, (name, rep.summary())


def test_classification_matches_expected():
    from orbatlas.fixtures import EXPECTED_CLASS
    for name, m in M.items():
        assert classify_morphism(m).label == EXPECTED_CLASS[name], name


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
    fat = Morphism.make(base.source, base.target, dict(base.chart_map),
                        dict(base.lifts), extra)
    assert equal_morphisms(base, fat)


def test_flip_not_equal_to_id_but_2_isomorphic():
    assert not equal_morphisms(M["flip_M"], M["id_MIRROR"])
    cell = unique_2cell_open_embeddings(M["id_MIRROR"], M["flip_M"])
    assert validate_2cell(cell).ok


def test_composition_unit_and_assoc():
    c = compose_morphisms(M["leg1_MR_M"], M["incl_M_MR"])
    assert equal_morphisms(c, M["id_MIRROR"])
    a = compose_morphisms(M["flip_M"],
                          compose_morphisms(M["leg1_MR_M"], M["incl_M_MR"]))
    b = compose_morphisms(compose_morphisms(M["flip_M"], M["leg1_MR_M"]),
                          M["incl_M_MR"])
    assert equal_morphisms(a, b)
    assert validate_morphism(c).ok


def test_morphism_from_lifts_unique_class():
    mor = morphism_from_lifts(MIRROR_REF, MIRROR, {"M": "M", "C2": "M"},
                              {"M": ID1, "C2": ID1})
    assert equal_morphisms(mor, M["leg1_MR_M"])
    with pytest.raises(ValueError):
        morphism_from_lifts(TRIV, TRIV, {"T": "T"}, {"T": aff1(0)})


def test_pushforward_translation():
    shifted, mor = pushforward(TRIV, aff1(1, 5))
    dom = shifted.chart("T@push").domain
    assert dom == Region.interval(5, 6)
    assert classify_morphism(mor).label == "weak_equivalence"
    assert validate_morphism(mor).ok


def test_inclusion_classified_refinement():
    inc = inclusion(MIRROR, MIRROR_REF)
    assert classify_morphism(inc).label == "refinement"


def test_classify_open_embedding_not_we():
    cls = classify_morphism(M["emb_T_M"])
    assert cls.label == "open_embedding"
    # the uncovered orbit is the fixed point of the reflection
    assert cls.witness is not None and cls.witness[1] == (F(0),)


def test_coarse_equality_of_atlas_points():
    assert coarse_equal_atlas(MIRROR, ("M", (F(1, 2),)), ("M", (F(-1, 2),))) == "equal"
    assert coarse_equal_atlas(MIRROR, ("M", (F(1, 2),)), ("M", (F(1, 3),))) == "distinct"
    assert coarse_equal_atlas(MIRROR_REF, ("C2", (F(1, 2),)), ("M", (F(-1, 2),))) == "equal"


# -- 2-cells ------------------------------------------------------------------

def test_2cell_validation_examples():
    cells = catalog_2cells()
    for name, c in cells.items():
        assert validate_2cell(c).ok, name

    # the reflection patch between two copies of the identity violates the
    # lift-intertwining axiom, with the witness away from the fixed point
    bad = TwoCell.make(M["id_MIRROR"], M["id_MIRROR"], {
        "M": [(Region.interval(-1, 1),
               ChangeOfCharts.make("M", "M", MIRROR_MAP, Region.interval(-1, 1)))]})
    rep = validate_2cell(bad)
    assert not rep.ok
    first = rep.first()
    assert first.code == "2Mc"
    assert first.witness == (F(1, 2),)


def test_2cell_patch_coverage_checked():
    half = TwoCell.make(M["id_MIRROR"], M["id_MIRROR"], {
        "M": [(Region.interval(0, 1),
               ChangeOfCharts.make("M", "M", ID1, Region.interval(-1, 1)))]})
    rep = validate_2cell(half)
    assert any(v.code == "2Ma" for v in rep.violations)


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
        cell = unique_2cell_open_embeddings(M[name], M[name])
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
    with pytest.raises(ValueError):
        unique_2cell_open_embeddings(M["id_TRIV"], M["half_T"])


def test_interchange_on_mirror():
    cells = catalog_2cells()
    delta, sigma = cells["id_to_flip"], cells["flip_to_id"]
    xi, eta = cells["id_to_flip"], cells["flip_to_id"]
    lhs = horizontal_compose(vertical_compose(eta, xi),
                             vertical_compose(sigma, delta))
    rhs = vertical_compose(horizontal_compose(eta, sigma),
                           horizontal_compose(xi, delta))
    assert equal_2cells(lhs, rhs)
    assert validate_2cell(lhs).ok and validate_2cell(rhs).ok


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
    d, wp, fp, alpha = pullback_square(M["flip_M"], M["leg1_MR_M"])
    assert validate_atlas(d).ok
    assert classify_morphism(wp).label == "refinement"
    assert validate_morphism(fp).ok
    assert validate_2cell(alpha).ok


def test_common_refinement_of_parallel_legs():
    u, v1, v2, cell = pullback_square(M["leg1_MR_M"], M["leg2_MR_M"])
    assert classify_morphism(v1).label == "refinement"
    assert classify_morphism(v2).label == "refinement"
    assert classify_morphism(compose_morphisms(M["leg1_MR_M"], v1)).label == "refinement"
    assert classify_morphism(compose_morphisms(M["leg2_MR_M"], v2)).label == "refinement"
    assert validate_2cell(cell).ok


def test_common_refinement_identities():
    u, v1, v2, cell = pullback_square(M["id_MIRROR"], M["id_MIRROR"])
    assert classify_morphism(v1).label == "refinement"
    assert classify_morphism(v2).label == "refinement"
    assert validate_2cell(cell).ok
    assert equal_morphisms(compose_morphisms(M["id_MIRROR"], v1),
                           compose_morphisms(M["id_MIRROR"], v2))


def test_merge_atlases_conflicts():
    assert merge_atlases(MIRROR, MIRROR_REF) is not None
    other = Atlas.make([Chart.make("M", Region.interval(0, 1), [ID1])])
    assert merge_atlases(MIRROR, other) is None


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
    d1 = unique_2cell_open_embeddings(M[a], M[b])
    d2 = unique_2cell_open_embeddings(M[b], M[c])
    direct = unique_2cell_open_embeddings(M[a], M[c])
    assert equal_2cells(vertical_compose(d2, d1), direct)
