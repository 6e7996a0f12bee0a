"""Golden snapshot of the bounded pseudogroup closure.

The snapshot covers every catalog atlas, the shifted trivial atlas and the
merge of source and target of every catalog morphism, at word bounds 1-4.
It records `complete`, `overflowed` and every family in `items()` order,
with rationals as canonical "p/q" strings.  Any change to `closure` or to
the geometry it calls must reproduce it exactly.

Regenerate (only when a change of output is intended) with

    PYTHONPATH=src python tests/test_closure_golden.py --write
"""

import json
import sys
from pathlib import Path

from orbatlas.atlas import closure, merge_atlases
from orbatlas.cli import affine_doc, region_doc
from orbatlas.fixtures import ATLASES, MORPHISMS, TRIV_SHIFTED

GOLDEN = Path(__file__).parent / "data" / "closure_golden.json"
BOUNDS = (1, 2, 3, 4)


def _atlases():
    out = dict(ATLASES)
    out["TRIV_SHIFTED"] = TRIV_SHIFTED
    for name, m in sorted(MORPHISMS.items()):
        out[f"merge:{name}"] = merge_atlases(m.source, m.target)
    return out


def snapshot():
    out = {}
    for name, atlas in _atlases().items():
        for bound in BOUNDS:
            cl = closure(atlas, bound)
            out[f"{name}@{bound}"] = {
                "complete": cl.complete,
                "overflowed": cl.overflowed,
                "families": [
                    [src, dst, affine_doc(m), region_doc(reg)["pieces"]]
                    for src, dst, m, reg in cl.items()
                ],
            }
    return out


def test_closure_matches_golden_snapshot():
    want = json.loads(GOLDEN.read_text())
    got = snapshot()
    assert sorted(got) == sorted(want)
    for key in want:
        assert got[key] == want[key], key


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_closure_golden.py --write")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(snapshot(), indent=1, sort_keys=True) + "\n")
