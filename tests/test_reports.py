from fractions import Fraction as F

from orbatlas.fixtures import MIRROR_MAP
from orbatlas.reports import Report


def test_witnesses_serialize_as_canonical_rationals_at_any_depth():
    rep = Report("witnesses")
    rep.fail("CB", "nested", (("M", (F(1, 3), F(1, 2))), ("M", (F(0), F(-2, 3)))))
    rep.fail("C2", "map", MIRROR_MAP)
    rep.fail("C3", "pair of maps", (MIRROR_MAP, MIRROR_MAP))
    nested, single, pair = (v["witness"] for v in rep.to_json()["violations"])
    assert nested == [["M", ["1/3", "1/2"]], ["M", ["0/1", "-2/3"]]]
    assert single == {"matrix": [["-1/1"]], "offset": ["0/1"]}
    assert pair == [single, single]
