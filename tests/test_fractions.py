import dataclasses
from fractions import Fraction as F

import pytest

from orbatlas import fractions as frc
from orbatlas import fred as frd
from orbatlas.atlas import WORD_BOUND, classify_morphism
from orbatlas.fixtures import ATLASES, MIRROR, MIRROR_REF, MORPHISMS, TRIV_SHIFTED, catalog_2cells
from orbatlas.geometry import GeometryError
from orbatlas.reports import ComposabilityError, NoSuchCellError, UndecidedError

M = MORPHISMS


@pytest.fixture(scope="module")
def ops():
    return frc.atlas_ops()


@pytest.fixture(scope="module")
def table():
    return frc.ChoiceTable()


@pytest.fixture(scope="module")
def small_universe(ops):
    objects = [(n, ATLASES[n]) for n in ("TRIV", "MIRROR", "MIRROR_REF")]
    cells = [(n, M[n]) for n in
             ("id_TRIV", "id_MIRROR", "id_MIRROR_REF", "incl_M_MR",
              "leg1_MR_M", "leg2_MR_M", "flip_M", "emb_T_M", "half_T")]
    return frc.depth2_universe(ops, objects, cells)


def test_spans_validate(ops):
    s = frc.universal_embed(ops, M["flip_M"])
    assert frc.validate_span(ops, s).ok
    legs = frc.Span(MIRROR_REF, M["leg1_MR_M"], M["leg2_MR_M"])
    assert frc.validate_span(ops, legs).ok
    bad = frc.Span(MIRROR_REF, M["leg1_MR_M"], M["incl_M_MR"])
    assert not frc.validate_span(ops, bad).ok


def test_identity_spans_are_strict_units(ops, table):
    sf = frc.universal_embed(ops, M["flip_M"])
    idspan = frc.Span(MIRROR, ops.id1(MIRROR), ops.id1(MIRROR))
    assert frc.span_equal(ops, frc.compose_spans(ops, table, sf, idspan), sf)
    assert frc.span_equal(ops, frc.compose_spans(ops, table, idspan, sf), sf)


def test_composite_span_through_square(ops, table):
    sw = frc.Span(MIRROR_REF, M["leg1_MR_M"], M["leg2_MR_M"])
    sf = frc.universal_embed(ops, M["emb_T_M"])
    t = frc.compose_spans(ops, table, sw, sf)
    assert frc.validate_span(ops, t).ok
    assert classify_morphism(t.left, WORD_BOUND).label == "refinement"


def test_choice_table_keys_name_the_endpoints(ops):
    # the pair (incl o emb_T_M, incl o flip_M) has the content keys of the
    # pair (emb_T_M, flip_M), but lands in MIRROR_REF instead of MIRROR
    table = frc.ChoiceTable()
    frc.chosen_square(ops, table, M["emb_T_M"], M["flip_M"])
    f = ops.compose1(M["incl_M_MR"], M["emb_T_M"])
    w = ops.compose1(M["incl_M_MR"], M["flip_M"])
    assert (f.key(), w.key()) == (M["emb_T_M"].key(), M["flip_M"].key())
    assert (f, w) != (M["emb_T_M"], M["flip_M"])
    _, wp, fp, cell = frc.chosen_square(ops, table, f, w)
    assert set(table.entries) == {(M["emb_T_M"], M["flip_M"]), (f, w)}
    _, wp2, fp2, cell2 = ops.square(f, w)
    assert ops.eq1(wp, wp2) and ops.eq1(fp, fp2)
    assert ops.eq1(cell.source_morphism, cell2.source_morphism)
    assert ops.eq1(cell.target_morphism, cell2.target_morphism)
    assert cell.target_morphism.target == MIRROR_REF
    assert len(table.entries) == 2


def test_fraction_cell_identity_and_inverse(ops):
    cells = catalog_2cells()
    fc = frc.universal_embed(ops, cells["id_to_flip"], level=2)
    assert frc.validate_fraction_cell(ops, fc).ok
    inv = frc.invert_fraction_cell(ops, fc)
    comp = frc.vertical_compose_cells(ops, inv, fc)
    ident = frc.identity_fraction_cell(ops, fc.src_span)
    assert frc.cell_equal(ops, comp, ident)


def test_cell_equal_distinguishes(ops):
    cells = catalog_2cells()
    fc = frc.universal_embed(ops, cells["id_to_flip"], level=2)
    assert frc.cell_equal(ops, fc, fc)
    ident = frc.identity_fraction_cell(ops, fc.src_span)
    assert not frc.cell_equal(ops, fc, ident)  # not even parallel


def test_cell_equal_across_presentations(ops, table):
    # the same localized cell presented over two different middles
    cells = catalog_2cells()
    fc = frc.universal_embed(ops, cells["id_to_flip"], level=2)
    # re-present by precomposing both legs with a refinement
    w = M["leg1_MR_M"]
    leg = ops.compose1(fc.left_leg, w)
    leg2 = ops.compose1(fc.right_leg, w)
    base = ops.comp2h(fc.base, ops.id2(w))
    other = frc.FractionCell(fc.src_span, fc.dst_span, MIRROR_REF, leg, leg2, base)
    assert frc.validate_fraction_cell(ops, other).ok
    assert frc.cell_equal(ops, fc, other)
    assert frc.cell_equal(ops, other, fc)


def test_universal_embed_cells(ops):
    cells = catalog_2cells()
    fc = frc.universal_embed(ops, cells["legs"], level=2)
    assert frc.validate_fraction_cell(ops, fc).ok


def test_horizontal_composite_of_fraction_cells(ops, table):
    cells = catalog_2cells()
    alpha = frc.universal_embed(ops, cells["id_to_flip"], level=2)   # X -> M
    legs_cell = frc.universal_embed(ops, cells["legs"], level=2)     # MREF -> M... no:
    # legs runs between leg1, leg2: MIRROR_REF -> MIRROR
    h = frc.horizontal_compose_cells(ops, table, alpha, legs_cell)
    assert frc.validate_fraction_cell(ops, h).ok
    # whiskering with identity cells reproduces the identity of the composite
    s1 = alpha.src_span
    s2 = frc.universal_embed(ops, M["leg1_MR_M"])
    hi = frc.horizontal_compose_cells(
        ops, table,
        frc.identity_fraction_cell(ops, frc.universal_embed(ops, M["flip_M"])),
        frc.identity_fraction_cell(ops, s2))
    t = frc.compose_spans(ops, table, frc.universal_embed(ops, M["flip_M"]), s2)
    assert frc.cell_equal(ops, hi, frc.identity_fraction_cell(ops, t))


def test_cell_equal_is_symmetric(ops):
    cells = catalog_2cells()
    fc = frc.universal_embed(ops, cells["id_to_flip"], level=2)
    w = M["leg1_MR_M"]
    other = frc.FractionCell(fc.src_span, fc.dst_span, w.source,
                             ops.compose1(fc.left_leg, w),
                             ops.compose1(fc.right_leg, w),
                             ops.comp2h(fc.base, ops.id2(w)))
    assert frc.cell_equal(ops, fc, other) == frc.cell_equal(ops, other, fc)
    assert frc.cell_equal(ops, fc, other)


def test_quasi_inverse_of_w_image(ops, table):
    for name in ("leg1_MR_M", "incl_M_MR", "flip_M"):
        rev, c1, c2 = frc.quasi_inverse(ops, table, M[name])
        assert frc.validate_span(ops, rev).ok
        assert frc.validate_fraction_cell(ops, c1).ok, name
        assert frc.validate_fraction_cell(ops, c2).ok, name


def test_associator_and_triangle(ops, table):
    s1 = frc.universal_embed(ops, M["emb_T_M"])
    s2 = frc.universal_embed(ops, M["flip_M"])
    s3 = frc.Span(MIRROR_REF, M["leg1_MR_M"], M["leg2_MR_M"])
    a = frc.associator(ops, table, s3, s2, s1)
    assert frc.validate_fraction_cell(ops, a).ok
    mid = frc.Span(MIRROR, ops.id1(MIRROR), ops.id1(MIRROR))
    tri = frc.associator(ops, table, s2, mid, s1)
    assert frc.cell_equal(ops, tri, frc.identity_fraction_cell(ops, tri.src_span))


def test_saturation_and_2_out_of_3(ops, small_universe):
    sat, wit = frc.saturate(ops, small_universe, M["flip_M"])
    assert sat
    sat2, _ = frc.saturate(ops, small_universe, M["emb_T_M"])
    assert not sat2
    rep = frc.two_out_of_three(ops, M["incl_M_MR"], M["leg1_MR_M"])
    assert rep["compose_closed"] is True
    rep2 = frc.two_out_of_three(ops, M["incl_M_MR"], M["leg2_MR_M"])
    assert rep2["left_cancel"] is True


def test_saturation_of_shift(ops):
    objects = [("TRIV", ATLASES["TRIV"]), ("TRIV_SHIFTED", TRIV_SHIFTED)]
    cells = [("shift_T", M["shift_T"]), ("unshift_T", M["unshift_T"])]
    uni = frc.depth2_universe(ops, objects, cells)
    sat, wit = frc.saturate(ops, uni, M["shift_T"])
    assert sat and wit is not None


def test_bf_axioms_small_universe(ops, small_universe, table):
    for ax in (1, 2, 5):
        rep = frc.check_bf(ops, ax, small_universe, table)
        assert rep.ok, rep.summary()


_WITNESS = ("M", (F(1, 2),))


def _raising(ops, field, exc):
    """`ops` with the operation `field` replaced by a stub that raises."""
    def stub(*args):
        if exc is NoSuchCellError:
            raise exc(f"{field} raised", _WITNESS)
        raise exc(f"{field} raised")
    return dataclasses.replace(ops, **{field: stub})


@pytest.fixture(scope="module")
def half_universe():
    # half_T is an open embedding parallel to the W-arrow id_TRIV, so BF5
    # asks for a 2-cell between the two
    return frc.Universe([("TRIV", ATLASES["TRIV"])],
                        [("id_TRIV", M["id_TRIV"]), ("half_T", M["half_T"])])


@pytest.fixture(scope="module")
def legs_universe(ops):
    # BF3 asks for a square on (flip_M, leg1_MR_M), BF4 for the cell
    # (id_MIRROR; flip_M, flip_M) and its cancellation
    return frc.depth2_universe(ops, [("MIRROR", MIRROR), ("MIRROR_REF", MIRROR_REF)],
                               [("leg1_MR_M", M["leg1_MR_M"]), ("flip_M", M["flip_M"])])


# each stubbed operation, and an axiom that reaches it
_STUBS = [("square", 3), ("connect2", 4), ("cancel", 4), ("connect2", 5)]


def test_bf_propagates_programming_errors(ops, half_universe):
    with pytest.raises(TypeError):
        frc.check_bf(_raising(ops, "connect2", TypeError), 5, half_universe, frc.ChoiceTable())


@pytest.mark.parametrize("exc", [ValueError, GeometryError, ComposabilityError])
@pytest.mark.parametrize("field, axiom", _STUBS)
def test_bf_propagates_broken_preconditions(ops, legs_universe, half_universe,
                                            field, axiom, exc):
    universe = half_universe if axiom == 5 else legs_universe
    with pytest.raises(exc, match=f"{field} raised"):
        frc.check_bf(_raising(ops, field, exc), axiom, universe, frc.ChoiceTable())


def test_bf_no_connecting_cell_is_skipped(ops, half_universe, legs_universe):
    stubbed = _raising(ops, "connect2", NoSuchCellError)
    rep = frc.check_bf(stubbed, 5, half_universe, frc.ChoiceTable())
    assert rep.ok and rep.decided
    rep = frc.check_bf(stubbed, 4, legs_universe, frc.ChoiceTable())
    assert rep.ok and rep.undecided == ["no 2-cells found to exercise BF4 on"]


@pytest.mark.parametrize("field, axiom, code", [("square", 3, "BF3"), ("cancel", 4, "BF4a")])
def test_bf_missing_cell_fails_with_its_witness(ops, legs_universe, field, axiom, code):
    rep = frc.check_bf(_raising(ops, field, NoSuchCellError), axiom, legs_universe,
                       frc.ChoiceTable())
    assert {v.code for v in rep.violations} == {code}
    assert all(v.witness == _WITNESS for v in rep.violations)


def test_bf_undecided_connection_is_noted(ops, half_universe):
    rep = frc.check_bf(_raising(ops, "connect2", UndecidedError), 5, half_universe,
                       frc.ChoiceTable())
    assert rep.ok and not rep.decided
    assert "connect2 raised" in rep.undecided[0]


def test_groupoid_instance_smoke():
    gops = frc.groupoid_ops()
    objects = [(n, frd.fred0(ATLASES[n])) for n in ("TRIV", "MIRROR", "MIRROR_REF")]
    cells = [(n, frd.fred1(M[n])) for n in
             ("id_MIRROR", "incl_M_MR", "leg1_MR_M", "leg2_MR_M", "flip_M", "emb_T_M")]
    uni = frc.depth2_universe(gops, objects, cells)
    for ax in (1, 2, 5):
        rep = frc.check_bf(gops, ax, uni, frc.ChoiceTable())
        assert rep.ok, rep.summary()
    table = frc.ChoiceTable()
    sw = frc.universal_embed(gops, frd.fred1(M["leg1_MR_M"]))
    sf = frc.universal_embed(gops, frd.fred1(M["flip_M"]))
    t = frc.compose_spans(gops, table, sf, sw)
    assert frc.validate_span(gops, t).ok
