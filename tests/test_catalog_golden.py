"""Golden snapshot of the canonical JSON of the fixture catalog.

The snapshot holds the sha256 of `cli.dumps` of every fixture atlas,
morphism and catalog 2-cell, of their `fred0`/`fred1`/`fred2` images, of
the composites that acceptance criteria 1 and 2 build from the parallel
pools, and of the chosen squares (middle atlas, both legs and the 2-cell)
and composite spans of the unit laws and triangles of acceptance
criterion 9.  A change of kernel or representation must reproduce every
document byte for byte.

Regenerate (only when a change of output is intended) with

    PYTHONPATH=src python tests/test_catalog_golden.py --write
"""

import hashlib
import json
import sys
from pathlib import Path

from orbatlas import cli
from orbatlas import fractions as frc
from orbatlas import fred as frd
from orbatlas.atlas import compose_morphisms
from orbatlas.fixtures import (
    ATLASES,
    MIRROR,
    MIRROR_REF,
    MORPHISMS,
    TRIV_SHIFTED,
    catalog_2cells,
)

GOLDEN = Path(__file__).parent / "data" / "catalog_golden.json"
M = MORPHISMS


def _pools():
    return {
        "M": ["id_MIRROR", "flip_M"],
        "MR>M": ["leg1_MR_M", "leg2_MR_M"],
        "K": ["id_CONE3", "rot_K", "rot2_K"],
        "KR>K": ["leg1_KR_K", "leg2_KR_K"],
        "MR": ["id_MIRROR_REF", "flip_MR"],
    }


_CHAINS = [("MR>M", "M"), ("KR>K", "K"), ("M", "M"), ("K", "K"), ("MR", "MR>M")]


def _values():
    out = {}
    atlases = dict(ATLASES, TRIV_SHIFTED=TRIV_SHIFTED)
    for name, a in sorted(atlases.items()):
        out[f"atlas:{name}"] = a
        out[f"fred0:{name}"] = frd.fred0(a)
    for name, m in sorted(M.items()):
        out[f"morphism:{name}"] = m
        out[f"fred1:{name}"] = frd.fred1(m)
    for name, c in sorted(catalog_2cells().items()):
        out[f"2cell:{name}"] = c
        out[f"fred2:{name}"] = frd.fred2(c)
    pools = _pools()
    for pn, qn in _CHAINS:
        for f in pools[pn]:
            for g in pools[qn]:
                out[f"compose:{g}*{f}"] = compose_morphisms(M[g], M[f])

    ops = frc.atlas_ops()
    table = frc.ChoiceTable()
    e = lambda n: frc.universal_embed(ops, M[n])
    idspan = lambda a: frc.Span(a, ops.id1(a), ops.id1(a))
    legs = frc.Span(MIRROR_REF, M["leg1_MR_M"], M["leg2_MR_M"])
    klegs = frc.Span(ATLASES["CONE3_REF"], M["leg1_KR_K"], M["leg2_KR_K"])
    pairs = [(idspan(m.target), e(n)) for n, m in sorted(M.items())
             if n in ("flip_M", "leg1_MR_M", "emb_T_M", "rot_K")]
    pairs += [(legs, e("flip_M")), (legs, e("emb_T_M")), (e("flip_M"), legs),
              (legs, e("leg1_MR_M")), (e("incl_M_MR"), legs), (legs, legs),
              (klegs, e("rot_K")), (klegs, klegs), (klegs, e("leg2_KR_K"))]
    for k, (s2, s1) in enumerate(pairs):
        out[f"span:{k}"] = frc.compose_spans(ops, table, s2, s1)
    triangles = [
        (e("flip_M"), idspan(MIRROR), e("emb_T_M")),
        (legs, idspan(MIRROR), e("flip_M")),
        (e("rot_K"), idspan(ATLASES["CONE3"]), e("rot2_K")),
        (klegs, idspan(ATLASES["CONE3"]), e("rot_K")),
        (e("incl_M_MR"), idspan(MIRROR), e("leg1_MR_M")),
    ]
    for k, (s3, s2, s1) in enumerate(triangles):
        out[f"associator:{k}"] = frc.associator(ops, table, s3, s2, s1)
    for k, (d, wp, fp, cell) in enumerate(table.entries.values()):
        out[f"square:{k}:middle"] = d
        out[f"square:{k}:wleg"] = wp
        out[f"square:{k}:fleg"] = fp
        out[f"square:{k}:cell"] = cell
    return out


def snapshot():
    return {name: hashlib.sha256(cli.dumps(v).encode()).hexdigest()
            for name, v in _values().items()}


def test_catalog_matches_golden_snapshot():
    want = json.loads(GOLDEN.read_text())
    got = snapshot()
    assert sorted(got) == sorted(want)
    for key in want:
        assert got[key] == want[key], key


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_catalog_golden.py --write")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(snapshot(), indent=1, sort_keys=True) + "\n")
