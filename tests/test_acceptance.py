"""Acceptance suite: every criterion prints one pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria execute; all comparisons are exact (zero tolerance)."""

import random

import pytest

from orbatlas import fractions as frc
from orbatlas import fred as frd
from orbatlas import gred as grd
from orbatlas import groupoid as gpd
from orbatlas.atlas import (
    WORD_BOUND,
    classify_morphism,
    compose_morphisms,
    equal_2cells,
    equal_morphisms,
    horizontal_compose,
    identity_2cell,
    identity_morphism,
    unique_2cell_open_embeddings,
    validate_2cell,
    vertical_compose,
)
from orbatlas.reports import NoSuchCellError
from orbatlas.fixtures import (
    ATLASES,
    MIRROR,
    MIRROR_REF,
    MORPHISMS,
    TRIV_SHIFTED,
    acceptance_catalog,
    catalog_2cells,
)

M = MORPHISMS
SEED = 0


def _line(num, name, ok, extra=""):
    mark = "pass" if ok else "FAIL"
    print(f"criterion {num:2d} [{mark}] {name}{': ' + extra if extra else ''}")
    assert ok, f"criterion {num} failed: {name}"


# -- shared universes ---------------------------------------------------------

@pytest.fixture(scope="module")
def aops():
    return frc.atlas_ops()


@pytest.fixture(scope="module")
def gops():
    return frc.groupoid_ops()


@pytest.fixture(scope="module")
def atlas_universe(aops):
    objects = sorted(ATLASES.items()) + [("TRIV_SHIFTED", TRIV_SHIFTED)]
    return frc.depth2_universe(aops, objects, sorted(M.items()))


@pytest.fixture(scope="module")
def gpd_universe(gops):
    objects = [(n, frd.fred0(a)) for n, a in sorted(ATLASES.items())]
    objects.append(("TRIV_SHIFTED", frd.fred0(TRIV_SHIFTED)))
    cells = [(n, frd.fred1(m)) for n, m in sorted(M.items())]
    return frc.depth2_universe(gops, objects, cells)


@pytest.fixture(scope="module")
def table():
    return frc.ChoiceTable()


def _parallel_pools():
    """Families of parallel catalog morphisms between which the unique
    connecting 2-cells exist."""
    return {
        "M": [M["id_MIRROR"], M["flip_M"]],
        "MR>M": [M["leg1_MR_M"], M["leg2_MR_M"]],
        "K": [M["id_CONE3"], M["rot_K"], M["rot2_K"]],
        "KR>K": [M["leg1_KR_K"], M["leg2_KR_K"]],
        "T>M": [M["emb_T_M"], compose_morphisms(M["flip_M"], M["emb_T_M"])],
        "MR": [M["id_MIRROR_REF"], M["flip_MR"]],
    }


_CHAINS = [
    ("MR>M", "M", "M"),
    ("T>M", "M", "M"),
    ("KR>K", "K", "K"),
    ("M", "M", "M"),
    ("K", "K", "K"),
    ("MR", "MR>M", "M"),
]


def test_criterion_1_two_category_laws():
    """Interchange, units and associativity on >= 50 randomized composable
    configurations."""
    pools = _parallel_pools()
    rng = random.Random(SEED)
    configs = 0
    for k in range(50):
        pn, qn, rn = _CHAINS[rng.randrange(len(_CHAINS))]
        P, Q, R = pools[pn], pools[qn], pools[rn]
        f1, f2, f3 = (P[rng.randrange(len(P))] for _ in range(3))
        g1, g2, g3 = (Q[rng.randrange(len(Q))] for _ in range(3))
        h1 = R[rng.randrange(len(R))]
        delta = unique_2cell_open_embeddings(f1, f2, WORD_BOUND)
        sigma = unique_2cell_open_embeddings(f2, f3, WORD_BOUND)
        xi = unique_2cell_open_embeddings(g1, g2, WORD_BOUND)
        eta = unique_2cell_open_embeddings(g2, g3, WORD_BOUND)
        # interchange
        lhs = horizontal_compose(vertical_compose(eta, xi),
                                 vertical_compose(sigma, delta))
        rhs = vertical_compose(horizontal_compose(eta, sigma),
                               horizontal_compose(xi, delta))
        assert equal_2cells(lhs, rhs), (k, pn, qn)
        # vertical units
        assert equal_2cells(vertical_compose(identity_2cell(f2), delta), delta)
        assert equal_2cells(vertical_compose(delta, identity_2cell(f1)), delta)
        # horizontal unit on identities
        assert equal_2cells(
            horizontal_compose(identity_2cell(g1), identity_2cell(f1)),
            identity_2cell(compose_morphisms(g1, f1)))
        # unit morphisms
        src_id = identity_morphism(f1.source, WORD_BOUND)
        assert equal_morphisms(compose_morphisms(f1, src_id), f1)
        # associativity of 1-cell composition
        a = compose_morphisms(h1, compose_morphisms(g1, f1))
        b = compose_morphisms(compose_morphisms(h1, g1), f1)
        assert equal_morphisms(a, b), (k, pn, qn, rn)
        configs += 1
    _line(1, "2-category laws on randomized configurations", configs >= 50,
          f"{configs} configurations")


def test_criterion_2_functoriality():
    """The structure functor preserves the three compositions and the
    identities on all catalog cells."""
    ok = True
    pools = _parallel_pools()
    for pn, qn, _ in _CHAINS:
        for f in pools[pn]:
            for g in pools[qn]:
                lhs = frd.fred1(compose_morphisms(g, f))
                rhs = gpd.compose_gpd_morphisms(frd.fred1(g), frd.fred1(f))
                ok = ok and gpd.equal_gpd_morphisms(lhs, rhs)
    for name, a in ATLASES.items():
        ok = ok and gpd.equal_gpd_morphisms(
            frd.fred1(identity_morphism(a, WORD_BOUND)),
            gpd.identity_gpd_morphism(frd.fred0(a)))
    cells = catalog_2cells()
    d, s = cells["id_to_flip"], cells["flip_to_id"]
    ok = ok and gpd.equal_nat_transfs(
        frd.fred2(vertical_compose(s, d), WORD_BOUND),
        gpd.vertical_compose_nt(frd.fred2(s, WORD_BOUND), frd.fred2(d, WORD_BOUND)))
    ok = ok and gpd.equal_nat_transfs(
        frd.fred2(horizontal_compose(s, d), WORD_BOUND),
        gpd.horizontal_compose_nt(frd.fred2(s, WORD_BOUND), frd.fred2(d, WORD_BOUND)))
    for name, m in M.items():
        ok = ok and gpd.equal_nat_transfs(
            frd.fred2(identity_2cell(m), WORD_BOUND),
            gpd.identity_nat_transf(frd.fred1(m)))
    _line(2, "2-functoriality of the structure functor", ok)


def test_criterion_3_hom_bijectivity():
    ok = True
    for name, m in M.items():
        ok = ok and equal_morphisms(frd.fred_inverse(frd.fred1(m)), m)
    for name, c in catalog_2cells().items():
        ok = ok and equal_2cells(frd.fred_inverse2(frd.fred2(c, WORD_BOUND)), c)
    _line(3, "hom-level round trips are identities", ok)


def test_criterion_4_morita_correspondence():
    names = ["id_TRIV", "id_MIRROR", "id_MIRROR_REF", "id_CONE3", "incl_M_MR",
             "leg1_MR_M", "leg2_MR_M", "flip_M", "rot_K", "shift_T",
             "emb_T_M", "half_T"]
    assert len(names) >= 10
    ok = True
    for name in names:
        rep = frd.correspondence_check(M[name], WORD_BOUND)
        ok = ok and rep.ok and rep.decided
    from fractions import Fraction
    neg = gpd.is_morita(frd.fred1(M["emb_T_M"], WORD_BOUND))
    rep = frd.correspondence_check(M["emb_T_M"], WORD_BOUND)
    witness_ok = (rep.ok and rep.decided
                  and not neg.ok
                  and neg.first().code == "ME1"
                  and neg.first().witness == (Fraction(0),))
    _line(4, "weak equivalence <=> Morita on >= 10 morphisms",
          ok and witness_ok, f"{len(names)} morphisms, ME1 witness = orbit of 0")


def test_criterion_5_bf_axioms(aops, gops, atlas_universe, gpd_universe, table):
    ok = True
    details = []
    for ops, uni in ((aops, atlas_universe), (gops, gpd_universe)):
        tbl = table if ops is aops else frc.ChoiceTable()
        for ax in (1, 2, 3, 4, 5):
            rep = frc.check_bf(ops, ax, uni, tbl)
            ok = ok and rep.ok
            if not rep.ok:
                details.append(rep.summary())
    # the classification statement behind the last axiom: a morphism
    # 2-isomorphic to a refinement is itself classified as one
    cell = unique_2cell_open_embeddings(M["id_MIRROR"], M["flip_M"], WORD_BOUND)
    ok = ok and classify_morphism(M["flip_M"], WORD_BOUND).label == "refinement"
    _line(5, "BF1-BF5 on both localization instances", ok, "; ".join(details))


def test_criterion_6_saturation(aops, atlas_universe):
    ok = True
    for name, m in M.items():
        sat, _ = frc.saturate(aops, atlas_universe, m)
        is_we = classify_morphism(m, WORD_BOUND).label in ("refinement", "weak_equivalence")
        ok = ok and (sat == is_we)
    _line(6, "saturation of refinements = weak equivalences", ok,
          f"{len(M)} morphisms")


def test_criterion_7_effectiveness_and_isotropy():
    from fractions import Fraction as F
    ok = True
    for name, a in ATLASES.items():
        ok = ok and gpd.is_effective(frd.fred0(a))[0]
    ok = ok and gpd.isotropy_order(frd.fred0(MIRROR), "M", (F(0),)) == 2
    ok = ok and gpd.isotropy_order(frd.fred0(ATLASES["CONE3"]), "K", (F(0), F(0))) == 3
    gt = frd.fred0(ATLASES["TRIV"])
    ok = ok and all(gpd.isotropy_order(gt, "T", (x,)) == 1
                    for x in (F(1, 4), F(1, 2), F(3, 4)))
    _line(7, "effectiveness and isotropy orders 2 / 3 / 1", ok)


def test_criterion_8_uniqueness_of_connecting_cells():
    cell = unique_2cell_open_embeddings(M["leg1_MR_M"], M["leg2_MR_M"], WORD_BOUND)
    ok = validate_2cell(cell, WORD_BOUND).ok
    # any valid parallel cell agrees with it: rebuild from a split cover
    from orbatlas.atlas import TwoCell
    from orbatlas.geometry import Region
    from fractions import Fraction as F
    split = TwoCell(M["leg1_MR_M"], M["leg2_MR_M"], {
        "M": list(cell.patches_at("M")),
        "C2": [(Region.interval(F(1, 4), F(3, 4)), cell.patches_at("C2")[0][1]),
               (Region.interval(F(1, 2), 1), cell.patches_at("C2")[0][1])],
    })
    ok = ok and validate_2cell(split, WORD_BOUND).ok and equal_2cells(cell, split)
    # groupoid side: exactly one natural transformation
    a = gpd.find_unique_nat_transf(frd.fred1(M["leg1_MR_M"]),
                                   frd.fred1(M["leg2_MR_M"]))
    ok = ok and gpd.validate_nat_transf(a).ok
    ok = ok and gpd.equal_nat_transfs(a, frd.fred2(cell, WORD_BOUND))
    with pytest.raises(NoSuchCellError):
        gpd.find_unique_nat_transf(frd.fred1(M["id_TRIV"]), frd.fred1(M["half_T"]))
    _line(8, "unique connecting 2-cells between parallel open embeddings", ok)


def test_criterion_9_localized_coherence(aops, table):
    ok = True
    m = M
    # strict unit laws through the forced choices
    for name in ("flip_M", "leg1_MR_M", "emb_T_M", "rot_K"):
        s = frc.universal_embed(aops, m[name])
        left_id = frc.Span(m[name].target, aops.id1(m[name].target),
                           aops.id1(m[name].target))
        right_id = frc.Span(m[name].source, aops.id1(m[name].source),
                            aops.id1(m[name].source))
        ok = ok and frc.span_equal(aops, frc.compose_spans(aops, table, left_id, s), s)
        ok = ok and frc.span_equal(aops, frc.compose_spans(aops, table, s, right_id), s)

    legs_span = frc.Span(MIRROR_REF, m["leg1_MR_M"], m["leg2_MR_M"])
    e = lambda n: frc.universal_embed(aops, m[n])
    idspan = lambda a: frc.Span(a, aops.id1(a), aops.id1(a))

    # triangle identities (associator with identity middle = identity cell)
    triangles = [
        (e("flip_M"), idspan(MIRROR), e("emb_T_M")),
        (e("flip_M"), idspan(MIRROR), e("flip_M")),
        (legs_span, idspan(MIRROR), e("flip_M")),
        (e("rot_K"), idspan(ATLASES["CONE3"]), e("rot2_K")),
        (e("leg1_MR_M"), idspan(MIRROR_REF), idspan(MIRROR_REF)),
        (e("incl_M_MR"), idspan(MIRROR), e("leg1_MR_M")),
        (e("emb_T_M"), idspan(ATLASES["TRIV"]), idspan(ATLASES["TRIV"])),
    ]
    samples = 0
    for s3, s2, s1 in triangles:
        tri = frc.associator(aops, table, s3, s2, s1)
        ok = ok and frc.cell_equal(
            aops, tri, frc.identity_fraction_cell(aops, tri.src_span))
        samples += 1

    def pentagon(s4, s3, s2, s1):
        a434 = frc.associator(aops, table, s4, s3, s2)
        a321 = frc.associator(aops, table, s3, s2, s1)
        s21 = frc.compose_spans(aops, table, s2, s1)
        s32 = frc.compose_spans(aops, table, s3, s2)
        lhs = frc.vertical_compose_cells(
            aops,
            frc.horizontal_compose_cells(
                aops, table, frc.identity_fraction_cell(aops, s4), a321),
            frc.vertical_compose_cells(
                aops,
                frc.associator(aops, table, s4, s32, s1),
                frc.horizontal_compose_cells(
                    aops, table, a434, frc.identity_fraction_cell(aops, s1))))
        rhs = frc.vertical_compose_cells(
            aops,
            frc.associator(aops, table, s4, s3, s21),
            frc.associator(aops, table,
                           frc.compose_spans(aops, table, s4, s3), s2, s1))
        return frc.cell_equal(aops, lhs, rhs)

    quadruples = [
        (e("flip_M"), e("id_MIRROR"), e("flip_M"), e("emb_T_M")),
        (e("flip_M"), legs_span, e("flip_M"), e("emb_T_M")),
        (legs_span, e("leg1_MR_M"), e("incl_M_MR"), e("flip_M")),
        (e("rot_K"), e("rot2_K"), e("rot_K"), e("id_CONE3")),
    ]
    for quad in quadruples:
        ok = ok and pentagon(*quad)
        samples += 1

    # every W-image of the universal arrow has a verified quasi-inverse
    w_names = [n for n in M if classify_morphism(M[n], WORD_BOUND).label == "refinement"]
    for name in w_names:
        rev, c1, c2 = frc.quasi_inverse(aops, table, M[name])
        ok = ok and frc.validate_fraction_cell(aops, c1).ok
        ok = ok and frc.validate_fraction_cell(aops, c2).ok
    _line(9, "localized coherence (units, triangle/pentagon, quasi-inverses)",
          ok and samples >= 10,
          f"{samples} triple/quadruple samples, {len(w_names)} quasi-inverses")


def test_criterion_10_equivalence_criteria():
    rep = grd.equivalence_report(acceptance_catalog(WORD_BOUND), WORD_BOUND)
    _line(10, "instance equivalence criteria and commutation", rep.ok,
          f"{sum(rep.commutation.values())}/{len(rep.commutation)} commutation checks")
