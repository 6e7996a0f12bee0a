from fractions import Fraction as F

import pytest

from orbatlas.atlas import WORD_BOUND
from orbatlas.fixtures import ATLASES, CONE3, MIRROR, MORPHISMS, TRIV, catalog_2cells
from orbatlas.fred import fred0, fred1, fred2
from orbatlas.geometry import AffineMap, PartialAffineIso, Region
from orbatlas.reports import NoSuchCellError
from orbatlas.groupoid import (
    ArrowFamily,
    GroupoidMorphism,
    NatTransf,
    PresentedGroupoid,
    coarse_equal,
    compose_gpd_morphisms,
    equal_nat_transfs,
    find_unique_nat_transf,
    horizontal_compose_nt,
    identity_gpd_morphism,
    identity_nat_transf,
    invert_nat_transf,
    is_effective,
    is_morita,
    isotropy_order,
    kappa,
    validate_gpd_morphism,
    validate_groupoid,
    validate_nat_transf,
    vertical_compose_nt,
)

M = MORPHISMS


def test_groupoids_of_germs_validate():
    for name, a in ATLASES.items():
        rep = validate_groupoid(fred0(a))
        assert rep.ok, (name, rep.summary())


def test_missing_composite_family_detected():
    g = fred0(MIRROR)
    broken = PresentedGroupoid(
        dict(g.pieces), [f for f in g.families if f.map.is_identity()])
    # only the unit family: fine (a groupoid with trivial arrows)
    assert validate_groupoid(broken).ok
    flip = [f for f in g.families if not f.map.is_identity()][0]
    no_unit = PresentedGroupoid(dict(g.pieces), [flip])
    rep = validate_groupoid(no_unit)
    assert not rep.ok and rep.first().code in ("LG1", "LG5")


def test_missing_composite_fails_lg3_at_its_point():
    """Translations by 1 and -1 on the piece (0, 4), with the unit: their
    composites with the unit and with each other are families, but the
    translations by 2 and -2 are not.  LG3 names each missing composite at
    the midpoint of its domain, (0, 2) and (2, 4)."""
    piece = Region.interval(0, 4)
    fams = [ArrowFamily(fid, "P", "P", PartialAffineIso(AffineMap.make([[1]], [b]), dom))
            for fid, b, dom in (("e", 0, piece), ("t", 1, Region.interval(0, 3)),
                                ("u", -1, Region.interval(1, 4)))]
    rep = validate_groupoid(PresentedGroupoid({"P": piece}, fams))
    assert [(v.code, v.message, v.witness) for v in rep.violations] == [
        ("LG3", "composite of t and t missing from the family list", (F(1),)),
        ("LG3", "composite of u and u missing from the family list", (F(3),))]


def test_effectiveness_and_isotropy():
    gm = fred0(MIRROR)
    assert is_effective(gm)[0]
    assert isotropy_order(gm, "M", (F(0),)) == 2
    assert isotropy_order(gm, "M", (F(1, 2),)) == 1
    gk = fred0(CONE3)
    assert is_effective(gk)[0]
    assert isotropy_order(gk, "K", (F(0), F(0))) == 3
    gt = fred0(TRIV)
    assert isotropy_order(gt, "T", (F(1, 2),)) == 1


def test_effectiveness_counterexample():
    g = fred0(MIRROR)
    dup = list(g.families)
    f0 = dup[0]
    dup.append(ArrowFamily("dup", f0.src, f0.dst, f0.iso))
    gg = PresentedGroupoid(dict(g.pieces), dup)
    ok, wit = is_effective(gg)
    assert not ok and wit is not None


def test_kappa_values_and_composition():
    gm = fred0(MIRROR)
    r_fam = [f for f in gm.families if not f.map.is_identity()][0]
    id_fam = [f for f in gm.families if f.map.is_identity()][0]
    germ = kappa(gm, (F(0),), (F(0),), (r_fam.fid, (F(0),)))
    assert germ.map == r_fam.map
    ident = kappa(gm, (F(1, 2),), (F(1, 2),), (id_fam.fid, (F(1, 2),)))
    assert ident.map.is_identity()
    # composition law: the germ of a product is the product of germs
    x = (F(1, 3),)
    a = kappa(gm, x, (F(-1, 3),), (r_fam.fid, x))
    b = kappa(gm, (F(-1, 3),), x, (r_fam.fid, (F(-1, 3),)))
    assert b.compose(a).map.is_identity()
    gk = fred0(CONE3)
    rho_fams = [f for f in gk.families
                if not f.map.is_identity()]
    g1 = kappa(gk, (F(0), F(0)), (F(0), F(0)), (rho_fams[0].fid, (F(0), F(0))))
    acc = g1
    for _ in range(2):
        acc = g1.compose(acc)
    assert acc.map.is_identity()  # order 3


def test_coarse_equal():
    gm = fred0(MIRROR)
    assert coarse_equal(gm, ("M", (F(1, 2),)), ("M", (F(-1, 2),))) == "equal"
    assert coarse_equal(gm, ("M", (F(1, 2),)), ("M", (F(1, 2),))) == "equal"
    assert coarse_equal(gm, ("M", (F(1, 2),)), ("M", (F(1, 3),))) == "distinct"


def test_orbit_sets():
    from orbatlas.groupoid import orbit
    gm = fred0(MIRROR)
    assert orbit(gm, ("M", (F(1, 2),))) == {("M", (F(1, 2),)), ("M", (F(-1, 2),))}
    assert orbit(gm, ("M", (F(0),))) == {("M", (F(0),))}
    gr = fred0(ATLASES["MIRROR_REF"])
    assert ("C2", (F(1, 2),)) in orbit(gr, ("M", (F(-1, 2),)))


def test_gpd_morphisms_validate():
    for name in ("id_MIRROR", "leg1_MR_M", "flip_M", "emb_T_M", "incl_M_MR"):
        psi = fred1(M[name])
        rep = validate_gpd_morphism(psi)
        assert rep.ok, (name, rep.summary())


def test_is_morita_cases():
    assert is_morita(fred1(M["incl_M_MR"])).ok
    assert is_morita(fred1(M["id_MIRROR"])).ok
    rep = is_morita(fred1(M["emb_T_M"]))
    assert not rep.ok
    v = rep.first()
    assert v.code == "ME1" and v.witness == (F(0),)


def test_morita_closed_under_composition():
    a = fred1(M["incl_M_MR"])
    b = fred1(M["leg1_MR_M"])
    assert is_morita(compose_gpd_morphisms(b, a)).ok


def test_morita_two_out_of_three_left_cancel():
    # g and g o f Morita force f Morita on this pair
    f = fred1(M["incl_M_MR"])
    g = fred1(M["leg2_MR_M"])
    assert is_morita(g).ok and is_morita(compose_gpd_morphisms(g, f)).ok
    assert is_morita(f).ok
    # and a composite with a non-Morita factor stays non-Morita
    h = fred1(M["emb_T_M"])
    flip = fred1(M["flip_M"])
    assert not is_morita(compose_gpd_morphisms(flip, h)).ok


def test_find_unique_nat_transf():
    a = find_unique_nat_transf(fred1(M["leg1_MR_M"]), fred1(M["leg2_MR_M"]))
    assert validate_nat_transf(a).ok
    assert equal_nat_transfs(a, fred2(catalog_2cells()["legs"], WORD_BOUND))
    with pytest.raises(NoSuchCellError) as e:
        find_unique_nat_transf(fred1(M["id_TRIV"]), fred1(M["half_T"]))
    assert e.value.witness is not None
    c = find_unique_nat_transf(fred1(M["id_MIRROR"]), fred1(M["id_MIRROR"]))
    assert equal_nat_transfs(c, identity_nat_transf(fred1(M["id_MIRROR"])))


def test_nat_transf_gap_of_measure_zero_is_witnessed_in_the_gap():
    """Two identity families on (0, 1/2) and (1/2, 1) leave out only the
    seam 1/2, where no point off the families exists: the witness is the
    seam itself."""
    ident = AffineMap.identity(1)
    g = PresentedGroupoid(
        {"P": Region.interval(0, 1)},
        [ArrowFamily("a", "P", "P", PartialAffineIso(ident, Region.interval(0, F(1, 2)))),
         ArrowFamily("b", "P", "P", PartialAffineIso(ident, Region.interval(F(1, 2), 1)))])
    i = identity_gpd_morphism(g)
    with pytest.raises(NoSuchCellError) as e:
        find_unique_nat_transf(i, i)
    assert e.value.witness == ("P", (F(1, 2),))


def test_nat_transf_algebra():
    cells = catalog_2cells()
    d = fred2(cells["id_to_flip"], WORD_BOUND)
    s = fred2(cells["flip_to_id"], WORD_BOUND)
    v = vertical_compose_nt(s, d)
    assert equal_nat_transfs(v, identity_nat_transf(fred1(M["id_MIRROR"])))
    assert equal_nat_transfs(invert_nat_transf(d), s)
    h = horizontal_compose_nt(identity_nat_transf(fred1(M["leg1_MR_M"])),
                              identity_nat_transf(fred1(M["incl_M_MR"])))
    comp = compose_gpd_morphisms(fred1(M["leg1_MR_M"]), fred1(M["incl_M_MR"]))
    assert equal_nat_transfs(h, identity_nat_transf(comp))


def test_equal_nat_transfs_needs_equal_endpoints():
    flip, ident = fred1(M["flip_M"]), fred1(M["id_MIRROR"])
    assert not equal_nat_transfs(identity_nat_transf(flip), identity_nat_transf(ident))
    d = fred2(catalog_2cells()["id_to_flip"], WORD_BOUND)
    assert not equal_nat_transfs(d, invert_nat_transf(d))


# -- validator failure branches ---------------------------------------------------

def _mirror_families(psi):
    """The identity and the reflection family ids of fred0(MIRROR)."""
    g = psi.source
    unit = next(f.fid for f in g.families if f.map.is_identity())
    flip = next(f.fid for f in g.families if not f.map.is_identity())
    return unit, flip


def test_gm3_witness_lies_in_the_family_sent_off_its_product():
    """The unit family sent to the reflection: the product of the unit with
    itself is sent to r r = id, not to r."""
    psi = fred1(M["id_MIRROR"])
    unit, flip = _mirror_families(psi)
    bad = GroupoidMorphism(psi.source, psi.target, dict(psi.object_map),
                           {unit: flip, flip: flip})
    vs = [v for v in validate_gpd_morphism(bad).violations if v.code == "GM3"]
    assert vs
    for v in vs:
        assert psi.source.family(unit).dom.contains_point(v.witness)


def test_nt2_witness_lies_on_the_arrow_family_that_breaks_the_exchange():
    """The unit assignment between id_MIRROR's image and a copy that sends
    the reflection family to the unit family: every assigned arrow is
    right, but the reflection arrows do not commute with them."""
    psi = fred1(M["id_MIRROR"])
    unit, flip = _mirror_families(psi)
    other = GroupoidMorphism(psi.source, psi.target, dict(psi.object_map),
                             {unit: unit, flip: unit})
    alpha = NatTransf(psi, other, dict(identity_nat_transf(psi).assignments))
    rep = validate_nat_transf(alpha)
    assert {v.code for v in rep.violations} == {"NT2"}
    for v in rep.violations:
        assert psi.source.family(flip).dom.contains_point(v.witness)
