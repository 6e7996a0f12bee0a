"""Golden snapshot of the `repr` of the values.

A witness that `reports._wjson` does not know is written as `str(w)`, and
messages embed reprs, so the text of a value's `repr` is output.  The
snapshot holds the sha256 of the sorted reprs of every value of the
catalog snapshot (`test_catalog_golden._values`, with its spans and
fraction cells read as their parts), of the families of the closures of the
catalog atlases, of the classification of every catalog morphism, and of a
sample of violations and germs.

Regenerate (only when a change of output is intended) with

    PYTHONPATH=src python tests/test_repr_golden.py --write
"""

import hashlib
import json
import sys
from fractions import Fraction as F
from pathlib import Path

from orbatlas import fractions as frc
from orbatlas.atlas import WORD_BOUND, classify_morphism, closure
from orbatlas.fixtures import ATLASES, MORPHISMS, TRIV_SHIFTED
from orbatlas.geometry import Germ, aff1, aff2
from orbatlas.reports import Violation
from test_catalog_golden import _values

GOLDEN = Path(__file__).parent / "data" / "repr_golden.json"

_PARTS = {frc.Span: ("middle", "left", "right"),
          frc.FractionCell: ("src_span", "dst_span", "middle", "left_leg", "right_leg", "base")}


def _flat(x):
    names = _PARTS.get(type(x))
    if names is None:
        return [x]
    return [y for name in names for y in _flat(getattr(x, name))]


def _samples():
    rot = aff2([[0, -1], [1, 0]], (F(1, 2), 0))
    germs = [Germ((F(1, 2),), aff1(-1)), Germ((F(1, 3), F(-2, 5)), rot),
             Germ((F(1, 2),), aff1(2, F(1, 3))).compose(Germ((F(1, 4),), aff1(1, F(1, 4))))]
    violations = [Violation("M5e", "the witness lies on the composite germ", (F(1, 2),)),
                  Violation("A2", "closure family escapes chart M", aff1(-1)),
                  Violation("2M0", "morphisms are not parallel"),
                  Violation("SP2", "left leg is not in W", ("M", (F(-1, 3), F(7, 2))))]
    return germs + violations


def reprs():
    out = [repr(y) for x in _values().values() for y in _flat(x)]
    for a in (*ATLASES.values(), TRIV_SHIFTED):
        out += [repr(item) for item in closure(a, WORD_BOUND).items()]
    out += [repr(classify_morphism(m, WORD_BOUND)) for m in MORPHISMS.values()]
    out += [repr(x) for x in _samples()]
    return sorted(out)


def snapshot():
    out = reprs()
    text = "\n".join(out)
    return {"values": len(out), "sha256": hashlib.sha256(text.encode()).hexdigest()}


def test_reprs_match_golden_snapshot():
    assert snapshot() == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_repr_golden.py --write")
    GOLDEN.write_text(json.dumps(snapshot(), indent=1, sort_keys=True) + "\n")
