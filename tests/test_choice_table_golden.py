"""Golden bytes of a saved choice table.

A fixed sequence of `orbatlas localize-compose --choices` calls shares one
table file: each call loads the table, composes through it and saves it.
The sequence records four chosen squares, among them both pairs of the
MIRROR/MIRROR_REF collision, (emb_T_M, flip_M) and
(incl_M_MR o emb_T_M, incl_M_MR o flip_M), whose 1-cells carry the same
content keys but land in different atlases.  A change of the table's keys
or of its persistence must leave the file byte for byte as it was.

Regenerate (only when a change of output is intended) with

    PYTHONPATH=src python tests/test_choice_table_golden.py --write
"""

import sys
import tempfile
from pathlib import Path

from orbatlas import cli
from orbatlas import fractions as frc
from orbatlas.fixtures import MIRROR, MIRROR_REF, MORPHISMS

GOLDEN = Path(__file__).parent / "data" / "choice_table_golden.json"
M = MORPHISMS


def _span_pairs():
    """(first, second) span pairs; each composite is second o first."""
    ops = frc.atlas_ops()
    e = lambda m: frc.universal_embed(ops, m)
    incl = M["incl_M_MR"]
    legs = frc.Span(MIRROR_REF, M["leg1_MR_M"], M["leg2_MR_M"])
    return [
        (e(M["emb_T_M"]), frc.Span(MIRROR, M["flip_M"], M["id_MIRROR"])),
        (e(ops.compose1(incl, M["emb_T_M"])),
         frc.Span(MIRROR, ops.compose1(incl, M["flip_M"]), M["id_MIRROR"])),
        (e(M["emb_T_M"]), legs),
        (e(M["flip_M"]), legs),
        # a replay: the first pair again adds no entry
        (e(M["emb_T_M"]), frc.Span(MIRROR, M["flip_M"], M["id_MIRROR"])),
    ]


def saved_table(folder: Path) -> bytes:
    choices = str(folder / "choices.json")
    for k, (first, second) in enumerate(_span_pairs()):
        p1, p2 = folder / f"s{k}a.json", folder / f"s{k}b.json"
        p1.write_text(cli.dumps(first))
        p2.write_text(cli.dumps(second))
        code = cli.run(["localize-compose", str(p1), str(p2), "--choices", choices])
        assert code == 0, k
    return Path(choices).read_bytes()


def test_saved_choice_table_matches_golden_bytes(tmp_path, capsys):
    got = saved_table(tmp_path)
    capsys.readouterr()
    assert got == GOLDEN.read_bytes()


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_choice_table_golden.py --write")
    GOLDEN.parent.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        data = saved_table(Path(tmp))
    GOLDEN.write_bytes(data)
