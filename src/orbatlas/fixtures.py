"""The standard catalog of atlases, morphisms and 2-cells used by the test
suite, the acceptance checks and the CLI examples.

Atlases:
  TRIV        one chart (0,1), trivial group
  MIRROR      one chart (-1,1) with the point reflection
  MIRROR_REF  MIRROR plus a trivial chart (1/4,1) glued by inclusion
  CONE3       one triangular chart with a rotation of order 3
  CONE3_REF   CONE3 plus a trivial sub-triangle chart
"""

from __future__ import annotations

from fractions import Fraction as F

from .atlas import (
    WORD_BOUND,
    Atlas,
    ChangeOfCharts,
    Chart,
    TwoCell,
    identity_2cell,
    identity_morphism,
    inclusion,
    morphism_from_lifts,
    pushforward,
    unique_2cell_open_embeddings,
)
from .fred import fred0, fred1
from .geometry import AffineMap, PartialAffineIso, Region, aff1, aff2
from .groupoid import (
    PresentedGroupoid,
    compose_gpd_morphisms,
    find_unique_nat_transf,
    identity_gpd_morphism,
)

ID1 = AffineMap.identity(1)
ID2 = AffineMap.identity(2)
MIRROR_MAP = aff1(-1)
ROT3 = aff2([[0, -1], [1, -1]])

TRIV = Atlas([Chart("T", Region.interval(0, 1), [ID1])])

MIRROR = Atlas([Chart("M", Region.interval(-1, 1), [ID1, MIRROR_MAP])])

MIRROR_REF = Atlas(
    [
        Chart("M", Region.interval(-1, 1), [ID1, MIRROR_MAP]),
        Chart("C2", Region.interval(F(1, 4), 1), [ID1]),
    ],
    [ChangeOfCharts.make("C2", "M", ID1, Region.interval(F(1, 4), 1))],
)

_TRI = Region.polygon([(1, 0), (0, 1), (-1, -1)])
_SUBTRI = Region.polygon([(F(1, 8), F(1, 8)), (F(3, 4), F(1, 8)), (F(1, 8), F(3, 4))])

CONE3 = Atlas([Chart("K", _TRI, [ID2, ROT3, ROT3.compose(ROT3)])])

CONE3_REF = Atlas(
    [
        Chart("K", _TRI, [ID2, ROT3, ROT3.compose(ROT3)]),
        Chart("C3", _SUBTRI, [ID2]),
    ],
    [ChangeOfCharts.make("C3", "K", ID2, _SUBTRI)],
)

ATLASES = {
    "TRIV": TRIV,
    "MIRROR": MIRROR,
    "MIRROR_REF": MIRROR_REF,
    "CONE3": CONE3,
    "CONE3_REF": CONE3_REF,
}


def _build_morphisms():
    out = {}
    for name, a in ATLASES.items():
        out[f"id_{name}"] = identity_morphism(a, WORD_BOUND)

    out["incl_M_MR"] = inclusion(MIRROR, MIRROR_REF, WORD_BOUND)
    out["incl_K_KR"] = inclusion(CONE3, CONE3_REF, WORD_BOUND)

    # the two parallel refinement legs MIRROR_REF -> MIRROR
    out["leg1_MR_M"] = morphism_from_lifts(
        MIRROR_REF, MIRROR, {"M": "M", "C2": "M"}, {"M": ID1, "C2": ID1}, WORD_BOUND,
        certificate=MIRROR_REF)
    out["leg2_MR_M"] = morphism_from_lifts(
        MIRROR_REF, MIRROR, {"M": "M", "C2": "M"}, {"M": ID1, "C2": MIRROR_MAP}, WORD_BOUND,
        certificate=MIRROR_REF)

    # the nontrivial self-equivalence of MIRROR
    out["flip_M"] = morphism_from_lifts(
        MIRROR, MIRROR, {"M": "M"}, {"M": MIRROR_MAP}, WORD_BOUND)

    # open embedding of the trivial chart into the mirror chart; the orbit
    # of 0 is not in its image
    out["emb_T_M"] = morphism_from_lifts(
        TRIV, MIRROR, {"T": "M"}, {"T": ID1}, WORD_BOUND)

    # a strict self-embedding of the trivial atlas
    out["half_T"] = morphism_from_lifts(
        TRIV, TRIV, {"T": "T"}, {"T": aff1(F(1, 2))}, WORD_BOUND)

    # transport of the trivial atlas along x -> x + 5
    shifted, shift = pushforward(TRIV, aff1(1, 5), WORD_BOUND)
    out["shift_T"] = shift
    out["unshift_T"] = morphism_from_lifts(
        shifted, TRIV, {"T@push": "T"}, {"T@push": aff1(1, -5)}, WORD_BOUND)

    # reflection acting on the refined mirror atlas
    out["flip_MR"] = morphism_from_lifts(
        MIRROR_REF, MIRROR_REF, {"M": "M", "C2": "M"},
        {"M": MIRROR_MAP, "C2": MIRROR_MAP}, WORD_BOUND)

    # order-3 self-equivalence of the cone and the two cone legs
    out["rot_K"] = morphism_from_lifts(CONE3, CONE3, {"K": "K"}, {"K": ROT3}, WORD_BOUND)
    out["rot2_K"] = morphism_from_lifts(
        CONE3, CONE3, {"K": "K"}, {"K": ROT3.compose(ROT3)}, WORD_BOUND)
    out["leg1_KR_K"] = morphism_from_lifts(
        CONE3_REF, CONE3, {"K": "K", "C3": "K"}, {"K": ID2, "C3": ID2}, WORD_BOUND,
        certificate=CONE3_REF)
    out["leg2_KR_K"] = morphism_from_lifts(
        CONE3_REF, CONE3, {"K": "K", "C3": "K"}, {"K": ID2, "C3": ROT3}, WORD_BOUND,
        certificate=CONE3_REF)
    return out, shifted


MORPHISMS, TRIV_SHIFTED = _build_morphisms()

EXPECTED_CLASS = {
    "id_TRIV": "refinement",
    "id_MIRROR": "refinement",
    "id_MIRROR_REF": "refinement",
    "id_CONE3": "refinement",
    "id_CONE3_REF": "refinement",
    "incl_M_MR": "refinement",
    "incl_K_KR": "refinement",
    "leg1_MR_M": "refinement",
    "leg2_MR_M": "refinement",
    "flip_M": "refinement",
    "flip_MR": "refinement",
    "rot_K": "refinement",
    "rot2_K": "refinement",
    "leg1_KR_K": "refinement",
    "leg2_KR_K": "refinement",
    "emb_T_M": "open_embedding",
    "half_T": "open_embedding",
    "shift_T": "weak_equivalence",
    "unshift_T": "weak_equivalence",
}


def catalog_2cells():
    """A pool of named 2-cells between catalog morphisms."""
    m = MORPHISMS
    cells = {
        "i_id_MIRROR": identity_2cell(m["id_MIRROR"]),
        "i_flip_M": identity_2cell(m["flip_M"]),
        "i_leg1": identity_2cell(m["leg1_MR_M"]),
        "legs": unique_2cell_open_embeddings(m["leg1_MR_M"], m["leg2_MR_M"], WORD_BOUND),
        "id_to_flip": unique_2cell_open_embeddings(m["id_MIRROR"], m["flip_M"], WORD_BOUND),
        "flip_to_id": unique_2cell_open_embeddings(m["flip_M"], m["id_MIRROR"], WORD_BOUND),
        "klegs": unique_2cell_open_embeddings(m["leg1_KR_K"], m["leg2_KR_K"], WORD_BOUND),
        "id_to_rot": unique_2cell_open_embeddings(m["id_CONE3"], m["rot_K"], WORD_BOUND),
    }
    return cells


def groupoid_catalog(bound: int):
    """Groupoids of germs of the catalog atlases, plus one custom groupoid
    annotated by an overlapping chart cover."""
    out = [(name, fred0(a, bound)) for name, a in ATLASES.items()]
    gm = fred0(MIRROR, bound)
    split = PresentedGroupoid(
        dict(gm.pieces), gm.families,
        annotation=(("M", Region.interval(-1, F(1, 2))),
                    ("M", Region.interval(F(-1, 2), 1))))
    out.append(("MIRROR_SPLIT", split))
    return out


def acceptance_catalog(bound: int):
    """The instance data the equivalence criteria are checked over, imaged
    at word bound `bound`."""
    m = MORPHISMS
    cells = catalog_2cells()
    f_leg1, f_leg2 = fred1(m["leg1_MR_M"], bound), fred1(m["leg2_MR_M"], bound)
    f_incl = fred1(m["incl_M_MR"], bound)
    gm_ref = f_leg1.source

    alpha_legs = find_unique_nat_transf(f_leg1, f_leg2)

    # a structurally well-formed but axiom-violating patch family; its image
    # disagrees with the identity cell, so the A4 precondition fails
    whole = Region.interval(-1, 1)
    bogus = TwoCell(m["id_MIRROR"], m["id_MIRROR"], {
        "M": [(whole, ChangeOfCharts("M", "M", PartialAffineIso(MIRROR_MAP, whole)))]})

    nt_flip_whisk = find_unique_nat_transf(
        compose_gpd_morphisms(fred1(m["id_MIRROR"], bound), f_leg1),
        compose_gpd_morphisms(fred1(m["flip_M"], bound), f_leg1))

    return {
        "groupoids": groupoid_catalog(bound),
        "gpd_spans": [
            ("legs", (f_leg1, f_leg2)),
            ("incl-id", (f_incl, identity_gpd_morphism(f_incl.source))),
        ],
        "gpd_arrows": [
            ("emb", fred1(m["emb_T_M"], bound)),
            ("flip", fred1(m["flip_M"], bound)),
            ("half", fred1(m["half_T"], bound)),
        ],
        "cell_pairs": [
            ("legs-equal", (cells["legs"], cells["legs"],
                            identity_gpd_morphism(gm_ref))),
            ("legs-through-leg", (cells["id_to_flip"], cells["id_to_flip"],
                                  f_leg1)),
            ("mirror-distinct", (identity_2cell(m["id_MIRROR"]), bogus,
                                 identity_gpd_morphism(f_leg1.target))),
        ],
        "nt_lifts": [
            ("legs-unique", (m["leg1_MR_M"], m["leg2_MR_M"],
                             identity_gpd_morphism(gm_ref), alpha_legs)),
            ("flip-through-leg", (m["id_MIRROR"], m["flip_M"], f_leg1,
                                  nt_flip_whisk)),
        ],
        "morphisms": sorted(MORPHISMS.items()),
        "cells": sorted(cells.items()),
    }
