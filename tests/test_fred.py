from fractions import Fraction as F

import pytest

from orbatlas import fred as frd
from orbatlas.atlas import (
    WORD_BOUND,
    Classification,
    compose_morphisms,
    equal_2cells,
    equal_morphisms,
    horizontal_compose,
    identity_2cell,
    identity_morphism,
    unique_2cell_open_embeddings,
    vertical_compose,
)
from orbatlas.fixtures import ATLASES, MIRROR, MIRROR_REF, MORPHISMS, catalog_2cells
from orbatlas.fred import (
    UnsupportedGroupoidError,
    atlas_from_groupoid,
    correspondence_check,
    fred0,
    fred1,
    fred2,
    fred_inverse,
    fred_inverse2,
)
from orbatlas.geometry import Region
from orbatlas.groupoid import (
    PresentedGroupoid,
    compose_gpd_morphisms,
    equal_gpd_morphisms,
    equal_nat_transfs,
    horizontal_compose_nt,
    identity_gpd_morphism,
    identity_nat_transf,
    is_morita,
    validate_gpd_morphism,
    vertical_compose_nt,
)

M = MORPHISMS


def test_fred0_shapes():
    gt = fred0(ATLASES["TRIV"])
    assert len(gt.pieces) == 1 and len(gt.families) == 1
    gm = fred0(MIRROR)
    assert len(gm.families) == 2
    gr = fred0(MIRROR_REF)
    assert len(gr.families) == 7
    gk = fred0(ATLASES["CONE3"])
    assert len(gk.families) == 3


def test_fred1_functorial():
    pairs = [
        ("leg1_MR_M", "incl_M_MR"),
        ("flip_M", "leg1_MR_M"),
        ("flip_M", "emb_T_M"),
        ("rot_K", "leg2_KR_K"),
    ]
    for gn, fn in pairs:
        lhs = fred1(compose_morphisms(M[gn], M[fn]))
        rhs = compose_gpd_morphisms(fred1(M[gn]), fred1(M[fn]))
        assert equal_gpd_morphisms(lhs, rhs), (gn, fn)
    for name, a in ATLASES.items():
        assert equal_gpd_morphisms(fred1(identity_morphism(a, WORD_BOUND)),
                                   identity_gpd_morphism(fred0(a)))


def test_fred2_functorial():
    cells = catalog_2cells()
    d, s = cells["id_to_flip"], cells["flip_to_id"]
    assert equal_nat_transfs(fred2(vertical_compose(s, d), WORD_BOUND),
                             vertical_compose_nt(fred2(s, WORD_BOUND), fred2(d, WORD_BOUND)))
    assert equal_nat_transfs(fred2(horizontal_compose(s, d), WORD_BOUND),
                             horizontal_compose_nt(fred2(s, WORD_BOUND), fred2(d, WORD_BOUND)))
    for name in ("id_MIRROR", "flip_M", "leg1_MR_M"):
        ic = identity_2cell(M[name])
        assert equal_nat_transfs(fred2(ic, WORD_BOUND), identity_nat_transf(fred1(M[name])))


def test_round_trips_all_catalog():
    for name, m in M.items():
        rt = fred_inverse(fred1(m))
        assert equal_morphisms(rt, m), name
    for name, c in catalog_2cells().items():
        rt = fred_inverse2(fred2(c, WORD_BOUND))
        assert equal_2cells(rt, c), name


def test_fred_inverse_matches_unique_cell():
    from orbatlas.groupoid import find_unique_nat_transf
    alpha = find_unique_nat_transf(fred1(M["leg1_MR_M"]), fred1(M["leg2_MR_M"]))
    lifted = fred_inverse2(alpha)
    assert equal_2cells(lifted,
                        unique_2cell_open_embeddings(M["leg1_MR_M"], M["leg2_MR_M"], WORD_BOUND))


def test_atlas_from_groupoid_identity_cases():
    for name in ("MIRROR", "MIRROR_REF", "TRIV"):
        g = fred0(ATLASES[name])
        a, psi = atlas_from_groupoid(g, WORD_BOUND)
        assert a.key() == ATLASES[name].key()
        assert is_morita(psi).ok


def test_atlas_from_groupoid_cover_annotation():
    gm = fred0(MIRROR)
    g = PresentedGroupoid(
        dict(gm.pieces), gm.families,
        annotation=(("M", Region.interval(-1, F(1, 2))),
                    ("M", Region.interval(F(-1, 2), 1))))
    a, psi = atlas_from_groupoid(g, WORD_BOUND)
    assert len(a.charts) == 2
    assert validate_gpd_morphism(psi).ok
    assert is_morita(psi).ok


def test_atlas_from_groupoid_unsupported():
    gm = fred0(MIRROR)
    bare = PresentedGroupoid(dict(gm.pieces), gm.families)
    with pytest.raises(UnsupportedGroupoidError):
        atlas_from_groupoid(bare, WORD_BOUND)


def test_correspondence_on_catalog():
    positives = ("leg1_MR_M", "incl_M_MR", "id_MIRROR", "shift_T", "flip_M")
    negatives = ("emb_T_M", "half_T")
    for name in positives:
        rep = correspondence_check(M[name], WORD_BOUND)
        assert rep.ok and rep.decided, name
        assert is_morita(fred1(M[name])).ok, name
    for name in negatives:
        rep = correspondence_check(M[name], WORD_BOUND)
        assert rep.ok and rep.decided, name
        assert not is_morita(fred1(M[name])).ok, name


@pytest.mark.parametrize("label, name, class_witness, witness", [
    # the class says yes and Morita says no: the ME1 witness
    ("refinement", "emb_T_M", None, (F(0),)),
    # the class says no and Morita says yes: the class's witness
    ("general", "leg1_MR_M", ("M", (F(1, 2),)), ("M", (F(1, 2),))),
])
def test_correspondence_disagreement_is_one_violation(monkeypatch, label, name,
                                                      class_witness, witness):
    monkeypatch.setattr(frd, "classify_morphism",
                        lambda m, bound: Classification(label, (), class_witness))
    rep = correspondence_check(M[name], WORD_BOUND)
    assert [v.code for v in rep.violations] == ["WM"]
    assert rep.first().witness == witness


def test_correspondence_of_an_undecided_class_is_undecided(monkeypatch):
    monkeypatch.setattr(frd, "classify_morphism",
                        lambda m, bound: Classification("undecided", ("bound too small",)))
    rep = correspondence_check(M["leg1_MR_M"], WORD_BOUND)
    assert rep.ok and not rep.decided
