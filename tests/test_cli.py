import dataclasses
import json
import os
import sys
from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from orbatlas import atlas as atl
from orbatlas import cli
from orbatlas import fractions as frc
from orbatlas import fred as frd
from orbatlas import gred as grd
from orbatlas import memo
from orbatlas.atlas import WORD_BOUND
from orbatlas.fixtures import MIRROR, MIRROR_REF, MORPHISMS, TRIV, TRIV_SHIFTED, catalog_2cells
from orbatlas.geometry import AffineMap, Region, aff1
from orbatlas.reports import ComposabilityError, NoSuchCellError, UndecidedError

M = MORPHISMS


def write(tmp_path, name, value):
    p = tmp_path / name
    p.write_text(cli.dumps(value))
    return str(p)


def test_round_trip_stability():
    values = [
        MIRROR_REF,
        M["leg1_MR_M"],
        catalog_2cells()["legs"],
        frd.fred0(MIRROR_REF),
        frd.fred1(M["leg1_MR_M"]),
        frd.fred2(catalog_2cells()["legs"], WORD_BOUND),
    ]
    for v in values:
        text = cli.dumps(v)
        again = cli.loads(text)
        assert cli.dumps(again) == text


def test_span_and_cell_round_trip():
    ops = frc.atlas_ops()
    s = frc.Span(MIRROR_REF, M["leg1_MR_M"], M["leg2_MR_M"])
    assert cli.dumps(cli.loads(cli.dumps(s))) == cli.dumps(s)
    fc = frc.universal_embed(ops, catalog_2cells()["id_to_flip"], level=2)
    assert cli.dumps(cli.loads(cli.dumps(fc))) == cli.dumps(fc)


def test_rational_normalization():
    r = cli.parse_region({"kind": "region", "dim": 1, "pieces": [["2/4", "3/3"]]})
    assert cli.region_doc(r)["pieces"] == [["1/2", "1/1"]]


def test_schema_errors_have_pointers():
    with pytest.raises(cli.SchemaError) as e:
        cli.parse({"kind": "atlas", "charts": []})
    assert "/generators" in str(e.value)
    with pytest.raises(cli.SchemaError):
        cli.parse({"kind": "nonsense"})


def test_validate_command(tmp_path, capsys):
    assert cli.run(["validate", write(tmp_path, "m.json", MIRROR)]) == 0
    assert cli.run(["validate", write(tmp_path, "leg.json", M["leg1_MR_M"])]) == 0
    capsys.readouterr()


def test_classify_command(tmp_path, capsys):
    code = cli.run(["classify", write(tmp_path, "leg.json", M["leg1_MR_M"])])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["class"] == "refinement"
    assert out["witness"] is None
    code = cli.run(["classify", write(tmp_path, "emb.json", M["emb_T_M"])])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["class"] == "open_embedding"
    # the orbit of 0 in MIRROR's chart M is not reached
    assert out["witness"] == ["M", ["0/1"]]
    assert out["ok"] is True and out["violations"] == [] and out["undecided"] == []
    code = cli.run(["--bound", "0", "classify", write(tmp_path, "emb.json", M["emb_T_M"])])
    out = json.loads(capsys.readouterr().out)
    assert code == 2 and out["class"] == "undecided"
    assert out["ok"] is True and out["undecided"] == out["notes"] != []


def test_morita_command_negative(tmp_path, capsys):
    code = cli.run(["morita", write(tmp_path, "bad.json", frd.fred1(M["emb_T_M"]))])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert out["violations"][0]["code"] == "ME1"
    assert out["violations"][0]["witness"] == ["0/1"]


def test_compose_command(tmp_path, capsys):
    f = write(tmp_path, "f.json", M["incl_M_MR"])
    g = write(tmp_path, "g.json", M["leg1_MR_M"])
    assert cli.run(["compose", f, g]) == 0
    out = cli.loads(capsys.readouterr().out)
    from orbatlas.atlas import equal_morphisms
    assert equal_morphisms(out, M["id_MIRROR"])


def test_compose_of_non_composable_morphisms_is_a_failure(tmp_path, capsys):
    code = cli.run(["compose", write(tmp_path, "f.json", M["id_TRIV"]),
                    write(tmp_path, "g.json", M["flip_M"])])
    out = json.loads(capsys.readouterr().out)
    assert code == 1 and out["ok"] is False
    assert "not the source of the second" in out["not_composable"]


def test_span_composite_with_no_square_is_a_failure_with_witness(tmp_path, capsys):
    """half_T reaches only (0, 1/2) of TRIV, so no square fills the cospan
    (unshift_T, half_T); the witness is a point of TRIV_SHIFTED's chart
    that unshift_T carries outside it."""
    ops = frc.atlas_ops()
    s1 = frc.Span(TRIV_SHIFTED, ops.id1(TRIV_SHIFTED), M["unshift_T"])
    s2 = frc.Span(TRIV, M["half_T"], ops.id1(TRIV))
    code = cli.run(["localize-compose", write(tmp_path, "s1.json", s1),
                    write(tmp_path, "s2.json", s2)])
    out = json.loads(capsys.readouterr().out)
    assert code == 1 and out["ok"] is False
    assert "does not reach every orbit" in out["no_such_cell"]
    cid, x = out["witness"]
    x = tuple(F(c) for c in x)
    assert TRIV_SHIFTED.chart(cid).domain.contains_point(x)
    assert not Region.interval(0, F(1, 2)).contains_point(M["unshift_T"].lift(cid)(x))


def test_span_composite_of_non_matching_spans_is_not_composable(tmp_path, capsys):
    """flip_M ends at MIRROR and half_T starts at TRIV: no composite exists,
    which is a failure with a report, not a traceback."""
    ops = frc.atlas_ops()
    code = cli.run(["localize-compose",
                    write(tmp_path, "s1.json", frc.universal_embed(ops, M["flip_M"])),
                    write(tmp_path, "s2.json", frc.universal_embed(ops, M["half_T"]))])
    captured = capsys.readouterr()
    out = json.loads(captured.out)
    assert code == 1 and out == {"kind": "report", "ok": False,
                                 "not_composable": "spans not composable"}
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("error, code, key", [
    (cli.SchemaError("/x", "bad"), 3, "schema_error"),
    (UndecidedError("open"), 2, "undecided"),
    (NoSuchCellError("no cell", ("T", (F(1, 2),))), 1, "no_such_cell"),
    (ComposabilityError("no match"), 1, "not_composable"),
], ids=["schema", "undecided", "no-such-cell", "not-composable"])
def test_run_is_the_one_error_map(capsys, monkeypatch, error, code, key):
    """Whatever command raises one of the four errors, `run` turns it into
    its exit code and one report document, which is `ok` unless it fails."""
    def raises(args):
        raise error
    monkeypatch.setattr(cli, "cmd_equiv_report", raises)
    assert cli.run(["equiv-report"]) == code
    out = json.loads(capsys.readouterr().out)
    assert out["kind"] == "report" and out["ok"] is (code == 2) and key in out
    if key == "no_such_cell":
        assert out["witness"] == ["T", ["1/2"]]


@pytest.mark.parametrize("argv, value, want", [
    (["morita"], M["flip_M"], "gpd_morphism"),
    (["classify"], frd.fred1(M["flip_M"]), "morphism"),
    (["fred", "1"], frd.fred1(M["flip_M"]), "morphism"),
    (["fred", "2"], M["flip_M"], "2cell"),
], ids=["morita-on-morphism", "classify-on-gpd_morphism", "fred1-on-gpd_morphism",
        "fred2-on-morphism"])
def test_wrong_kind_is_a_schema_error(tmp_path, capsys, argv, value, want):
    assert cli.run(argv + [write(tmp_path, "x.json", value)]) == 3
    out = json.loads(capsys.readouterr().out)
    assert f"schema error at /kind: expected a {want} document" in out["schema_error"]


def test_fred_command(tmp_path, capsys):
    assert cli.run(["fred", "0", write(tmp_path, "a.json", MIRROR)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["kind"] == "groupoid" and len(out["families"]) == 2


def test_localize_compose_persists_choices(tmp_path, capsys):
    ops = frc.atlas_ops()
    s1 = frc.universal_embed(ops, M["emb_T_M"])
    s2 = frc.Span(MIRROR_REF, M["leg1_MR_M"], M["leg2_MR_M"])
    p1 = write(tmp_path, "s1.json", s1)
    p2 = write(tmp_path, "s2.json", s2)
    choices = str(tmp_path / "choices.json")
    assert cli.run(["localize-compose", p1, p2, "--choices", choices]) == 0
    first = capsys.readouterr().out
    assert os.path.exists(choices)
    table_doc = json.loads(open(choices).read())
    assert table_doc["kind"] == "choice_table" and len(table_doc["entries"]) == 1
    # a second run replays the recorded choice and yields the same span
    assert cli.run(["localize-compose", p1, p2, "--choices", choices]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_cell_equal_command(tmp_path, capsys):
    ops = frc.atlas_ops()
    cells = catalog_2cells()
    fc = frc.universal_embed(ops, cells["id_to_flip"], level=2)
    p1 = write(tmp_path, "c1.json", fc)
    assert cli.run(["cell-equal", p1, p1]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["equal"] is True and out["ok"] is True
    p2 = write(tmp_path, "c2.json", frc.universal_embed(ops, cells["i_id_MIRROR"], level=2))
    p3 = write(tmp_path, "c3.json", frc.universal_embed(ops, cells["i_flip_M"], level=2))
    assert cli.run(["cell-equal", p2, p3]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["equal"] is False and out["ok"] is False
    assert out["violations"][0]["code"] == "CE"


def test_schema_error_exit_code(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text(json.dumps({"kind": "atlas", "charts": []}))
    assert cli.run(["validate", str(p)]) == 3
    capsys.readouterr()


def test_undecided_exit_code(tmp_path, capsys):
    # a zero word bound leaves the pseudogroup closure incomplete, so the
    # good-subset checks come back undecided rather than failing
    p = write(tmp_path, "leg.json", M["leg1_MR_M"])
    assert cli.run(["--bound", "0", "validate", p]) == 2
    capsys.readouterr()


def test_overflowed_closure_is_undecided(tmp_path, capsys):
    # the shifts x + 1/p generate more than FAMILY_CAP families on (0, 1000)
    idn = AffineMap.identity(1)
    a = atl.Atlas.make(
        [atl.Chart.make("T", Region.interval(0, 1000), [idn])],
        [atl.ChangeOfCharts.make("T", "T", aff1(1, F(1, p)), Region.interval(0, 1000 - F(1, p)))
         for p in (2, 3, 5, 7, 11, 13)])
    assert atl.closure(a, WORD_BOUND).overflowed
    path = write(tmp_path, "a.json", a)
    for argv in (["validate", path], ["fred", "0", path]):
        assert cli.run(argv) == 2
        assert json.loads(capsys.readouterr().out)["undecided"]


def test_bf_check_command(capsys):
    assert cli.run(["bf-check", "atlas", "--axiom", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] is True
    assert cli.run(["bf-check", "groupoid", "--axiom", "2"]) == 0
    capsys.readouterr()


def test_equiv_report_command(capsys):
    assert cli.run(["equiv-report"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] is True and out["kind"] == "report"
    assert not any(ax["undecided"] for ax in out["axioms"].values())


def test_compose_cells_command(tmp_path, capsys):
    cells = catalog_2cells()
    d = write(tmp_path, "d.json", cells["id_to_flip"])
    s = write(tmp_path, "s.json", cells["flip_to_id"])
    assert cli.run(["compose", d, s, "--mode", "vertical"]) == 0
    out = cli.loads(capsys.readouterr().out)
    from orbatlas.atlas import equal_2cells, identity_2cell
    assert equal_2cells(out, identity_2cell(MORPHISMS["id_MIRROR"]))


def test_fred_levels_1_and_2(tmp_path, capsys):
    assert cli.run(["fred", "1", write(tmp_path, "m.json", M["leg1_MR_M"])]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["kind"] == "gpd_morphism"
    assert cli.run(["fred", "2", write(tmp_path, "c.json",
                                       catalog_2cells()["legs"])]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["kind"] == "nat_transf"


@pytest.mark.parametrize("argv", [
    ["validate"], ["classify"], ["morita"], ["fred", "1"], ["compose", "{ok}"],
    ["localize-compose", "{ok}"], ["cell-equal", "{ok}"],
])
@pytest.mark.parametrize("content", ["{not json", None, b"\xff\xfe\x00"])
def test_unreadable_input_is_a_schema_error(tmp_path, capsys, argv, content):
    bad = tmp_path / "bad.json"
    if isinstance(content, str):
        bad.write_text(content)
    elif content is not None:
        bad.write_bytes(content)
    ok = write(tmp_path, "ok.json", M["id_MIRROR"])
    argv = [a.format(ok=ok) for a in argv] + [str(bad)]
    assert cli.run(argv) == 3
    assert "schema_error" in json.loads(capsys.readouterr().out)


def test_malformed_choice_table_is_a_schema_error(tmp_path, capsys):
    ops = frc.atlas_ops()
    p1 = write(tmp_path, "s1.json", frc.universal_embed(ops, M["emb_T_M"]))
    p2 = write(tmp_path, "s2.json", frc.Span(MIRROR_REF, M["leg1_MR_M"], M["leg2_MR_M"]))
    choices = tmp_path / "choices.json"
    choices.write_text("{not json")
    assert cli.run(["localize-compose", p1, p2, "--choices", str(choices)]) == 3
    capsys.readouterr()


@pytest.mark.parametrize("pieces", [[["1", "0"]], [["0", "1"], ["1/2", "1/2"]]])
def test_empty_or_inverted_interval_is_a_schema_error(pieces):
    with pytest.raises(cli.SchemaError):
        cli.parse_region({"kind": "region", "dim": 1, "pieces": pieces})


def test_validate_spans_and_fraction_cells(tmp_path, capsys):
    ops = frc.atlas_ops()
    good = frc.Span(MIRROR_REF, M["leg1_MR_M"], M["leg2_MR_M"])
    assert cli.run(["validate", write(tmp_path, "s.json", good)]) == 0
    capsys.readouterr()
    # an open embedding is not a refinement, so it cannot be the W-leg
    bad = frc.Span(M["emb_T_M"].source, M["emb_T_M"], M["emb_T_M"])
    assert cli.run(["validate", write(tmp_path, "b.json", bad)]) == 1
    assert json.loads(capsys.readouterr().out)["violations"][0]["code"] == "SP2"
    fc = frc.universal_embed(ops, catalog_2cells()["id_to_flip"], level=2)
    assert cli.run(["validate", write(tmp_path, "fc.json", fc)]) == 0
    capsys.readouterr()


def test_validate_kind_without_validator_is_a_schema_error(tmp_path, capsys):
    p = tmp_path / "r.json"
    p.write_text(json.dumps({"kind": "region", "dim": 1, "pieces": [["0", "1"]]}))
    assert cli.run(["validate", str(p)]) == 3
    assert "schema_error" in json.loads(capsys.readouterr().out)


_MAP = {"matrix": [["1"]], "offset": ["0"]}
_IV = {"kind": "region", "dim": 1, "pieces": [["0", "1"]]}
_CHART = {"id": "T", "domain": _IV, "group": [_MAP]}
_ATLAS = {"kind": "atlas", "charts": [_CHART], "generators": []}


@pytest.mark.parametrize("doc, pointer", [
    ({"kind": "region", "dim": 1, "pieces": 5}, "/pieces"),
    ({"kind": "region", "dim": 1, "pieces": [["0"]]}, "/pieces/0"),
    ({"kind": "region", "dim": 2, "pieces": [[["0", "0"], "1"]]}, "/pieces/0/1"),
    ({"kind": "region", "dim": "1", "pieces": []}, "/dim"),
    ({"kind": "region", "dim": 1, "pieces": [["0", float("inf")]]}, ""),
    ({"kind": ["atlas"]}, "/kind"),
    ({"kind": "atlas", "charts": 5, "generators": []}, "/charts"),
    ({"kind": "atlas", "charts": [dict(_CHART, id=5)], "generators": []}, "/charts/id"),
    ({"kind": "atlas", "charts": [dict(_CHART, group=[{"matrix": 1, "offset": []}])],
      "generators": []}, "/charts/group/matrix"),
    # rejected by the make constructors: shape, dimension, duplicate ids
    ({"kind": "atlas", "charts": [dict(_CHART, group=[{"matrix": [["1", "0"]], "offset": ["0"]}])],
      "generators": []}, "/charts/group"),
    ({"kind": "atlas", "charts": [dict(_CHART, group=[{"matrix": [], "offset": []}])],
      "generators": []}, "/charts/group"),
    ({"kind": "atlas", "charts": [_CHART, _CHART], "generators": []}, ""),
    ({"kind": "change", "src": "T", "dst": "T", "map": {"matrix": [["0"]], "offset": ["0"]},
      "dom": _IV}, ""),
    ({"kind": "morphism", "source": _ATLAS, "target": _ATLAS, "chart_map": {"T": "T"},
      "lifts": [], "entries": []}, "/lifts"),
    ({"kind": "morphism", "source": _ATLAS, "target": _ATLAS, "chart_map": {"T": 1},
      "lifts": {}, "entries": []}, "/chart_map/T"),
    ({"kind": "groupoid", "pieces": [["P", _IV]], "families": [["f", "P"]]}, "/families/0"),
    ({"kind": "groupoid", "pieces": [["P", _IV]],
      "families": [["f", "P", "P", _MAP, _IV], ["f", "P", "P", _MAP, _IV]]}, ""),
    ({"kind": "groupoid", "pieces": {"P": _IV}, "families": []}, "/pieces"),
])
def test_wrong_typed_input_is_a_schema_error(tmp_path, capsys, doc, pointer):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    assert cli.run(["validate", str(p)]) == 3
    err = json.loads(capsys.readouterr().out)["schema_error"]
    assert err.startswith(f"schema error at {pointer or '/'}:")


def test_choice_table_that_is_not_a_table_is_a_schema_error(tmp_path, capsys):
    ops = frc.atlas_ops()
    p1 = write(tmp_path, "s1.json", frc.universal_embed(ops, M["emb_T_M"]))
    p2 = write(tmp_path, "s2.json", frc.Span(MIRROR_REF, M["leg1_MR_M"], M["leg2_MR_M"]))
    choices = tmp_path / "choices.json"
    for text in ("[1, 2]", '{"entries": [[1, 2]]}', '{"entries": [["h", {"f": 1}]]}'):
        choices.write_text(text)
        assert cli.run(["localize-compose", p1, p2, "--choices", str(choices)]) == 3
        assert "schema_error" in json.loads(capsys.readouterr().out)


def test_unwritable_choice_table_fails_before_composing(tmp_path, capsys, monkeypatch):
    ops = frc.atlas_ops()
    p1 = write(tmp_path, "s1.json", frc.universal_embed(ops, M["emb_T_M"]))
    p2 = write(tmp_path, "s2.json", frc.Span(MIRROR_REF, M["leg1_MR_M"], M["leg2_MR_M"]))

    def no_work(*args):
        raise AssertionError("composed before checking the choice table path")
    monkeypatch.setattr(frc, "compose_spans", no_work)
    choices = str(tmp_path / "nodir" / "choices.json")
    assert cli.run(["localize-compose", p1, p2, "--choices", choices]) == 3
    assert "schema_error" in json.loads(capsys.readouterr().out)


def test_saved_choice_table_reloads_byte_for_byte(tmp_path):
    ops = frc.atlas_ops()
    table = frc.ChoiceTable()
    legs = frc.Span(MIRROR_REF, M["leg1_MR_M"], M["leg2_MR_M"])
    for s1 in (frc.universal_embed(ops, M["emb_T_M"]), frc.universal_embed(ops, M["flip_M"]),
               legs):
        frc.compose_spans(ops, table, legs, s1)
    assert len(table.entries) == 3
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    cli.save_choice_table(table, str(first))
    cli.save_choice_table(cli.load_choice_table(str(first)), str(second))
    assert first.read_bytes() == second.read_bytes()
    # entries are ordered by the repr of their keys
    keys = [repr(k) for k in table.entries]
    reloaded = cli.load_choice_table(str(first))
    assert [repr(k) for k in reloaded.entries] == sorted(keys)


def test_saved_choice_table_orders_pairs_that_differ_only_in_a_certificate(tmp_path):
    ops, f, w = frc.atlas_ops(), M["flip_M"], M["leg1_MR_M"]
    bare = dataclasses.replace(w, certificate=None)
    assert bare.key() == w.key() and bare != w
    saved = []
    for order in ((w, bare), (bare, w)):
        table = frc.ChoiceTable()
        for leg in order:
            frc.chosen_square(ops, table, f, leg)
        path = tmp_path / f"{len(saved)}.json"
        cli.save_choice_table(table, str(path))
        saved.append(path.read_bytes())
    assert saved[0] == saved[1]


_leaves = st.none() | st.booleans() | st.integers(-2, 2) | st.sampled_from(["", "T", "1/2", "x"])
_json = st.recursive(_leaves, lambda c: st.lists(c, max_size=3)
                     | st.dictionaries(st.sampled_from(["T", "M", "kind"]), c, max_size=2),
                     max_leaves=5)


def _subtrees(doc, at=()):
    yield at
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for k, v in items:
        yield from _subtrees(v, at + (k,))


@pytest.fixture(scope="module")
def documents():
    values = [MIRROR_REF, M["leg1_MR_M"], catalog_2cells()["legs"], frd.fred0(MIRROR),
              frd.fred1(M["flip_M"]), frd.fred2(catalog_2cells()["legs"], WORD_BOUND),
              frc.Span(MIRROR_REF, M["leg1_MR_M"], M["leg2_MR_M"])]
    return [json.loads(cli.dumps(v)) for v in values]


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_damaged_document_parses_or_is_a_schema_error(documents, data):
    doc = json.loads(json.dumps(data.draw(st.sampled_from(documents))))
    at = data.draw(st.sampled_from(list(_subtrees(doc))))
    new = data.draw(_json)
    if not at:
        doc = new
    else:
        parent = doc
        for k in at[:-1]:
            parent = parent[k]
        parent[at[-1]] = new
    try:
        cli.parse(doc)
    except cli.SchemaError:
        pass


def _edited(tmp_path, value, edit):
    doc = json.loads(cli.dumps(value))
    edit(doc)
    p = tmp_path / "edited.json"
    p.write_text(json.dumps(doc))
    return str(p)


def _rename_key(mapping, old, new):
    mapping[new] = mapping.pop(old)


@pytest.mark.parametrize("argv, value, edit, pointer", [
    # an object map over a piece the source does not have
    (["morita"], frd.fred1(M["leg1_MR_M"]),
     lambda d: _rename_key(d["object_map"], "M", "X"), "/object_map/X"),
    # ... or into a piece the target does not have
    (["morita"], frd.fred1(M["leg1_MR_M"]),
     lambda d: d["object_map"]["M"].__setitem__(0, "X"), "/object_map/M"),
    (["morita"], frd.fred1(M["leg1_MR_M"]),
     lambda d: d["family_map"].__setitem__(next(iter(d["family_map"])), "nofam"),
     "/family_map/"),
    # a chart map into a chart the target does not have
    (["fred", "1"], M["flip_M"], lambda d: d["chart_map"].__setitem__("M", "Z"),
     "/chart_map/M"),
    (["fred", "1"], M["flip_M"], lambda d: _rename_key(d["lifts"], "M", "Z"), "/lifts/Z"),
    (["fred", "2"], catalog_2cells()["id_to_flip"],
     lambda d: _rename_key(d["patches"], "M", "Z"), "/patches/Z"),
])
def test_dangling_reference_is_a_schema_error(tmp_path, capsys, argv, value, edit, pointer):
    assert cli.run(argv + [_edited(tmp_path, value, edit)]) == 3
    out = json.loads(capsys.readouterr().out)
    assert f"schema error at {pointer}" in out["schema_error"]


def test_dangling_family_in_nat_transf_is_a_schema_error(tmp_path, capsys):
    def edit(d):
        items = next(iter(d["assignments"].values()))
        items[0][1] = "nofam"
    nt = frd.fred2(catalog_2cells()["id_to_flip"], WORD_BOUND)
    assert cli.run(["validate", _edited(tmp_path, nt, edit)]) == 3
    assert "no target family 'nofam'" in json.loads(capsys.readouterr().out)["schema_error"]


@pytest.mark.parametrize("argv", [
    ["--bogus", "validate", "x.json"],
    ["bf-check", "atlas", "--axiom", "9"],
    ["fred", "3", "x.json"],
    ["--samples", "16", "equiv-report"],
    ["--seed", "7", "equiv-report"],
    ["--bound", "-1", "validate", "x.json"],
    [],
])
def test_usage_errors_are_schema_errors(capsys, argv):
    assert cli.run(argv) == 3
    captured = capsys.readouterr()
    assert "usage:" in json.loads(captured.out)["schema_error"]
    assert captured.err.startswith("usage: orbatlas")


def _closure_bounds(monkeypatch):
    """Record the bound of every `atlas.closure` call, in every orbatlas
    namespace that holds the function.  The memos are emptied first, so
    that a result stored at another bound cannot stand in for a call."""
    memo.clear()
    seen = set()
    closure = atl.closure

    def spy(a, bound, *rest, **kwargs):
        seen.add(bound)
        return closure(a, bound, *rest, **kwargs)
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "orbatlas" and getattr(mod, "closure", None) is closure:
            monkeypatch.setattr(mod, "closure", spy)
    return seen


@pytest.mark.parametrize("argv, value", [
    pytest.param(["validate"], MIRROR, id="validate-atlas"),
    pytest.param(["validate"], M["leg1_MR_M"], id="validate-morphism"),
    pytest.param(["validate"], "2cell", id="validate-2cell"),
    pytest.param(["validate"], "span", id="validate-span"),
    pytest.param(["validate"], "fraction_cell", id="validate-fraction_cell"),
    pytest.param(["classify"], M["leg1_MR_M"], id="classify"),
    pytest.param(["fred", "1"], M["leg1_MR_M"], id="fred1"),
    pytest.param(["bf-check", "atlas", "--axiom", "1"], None, id="bf-check-atlas"),
    pytest.param(["bf-check", "groupoid", "--axiom", "1"], None, id="bf-check-groupoid"),
    pytest.param(["localize-compose", "{emb}"], "span", id="localize-compose"),
    pytest.param(["cell-equal", "{fraction_cell}"], "fraction_cell", id="cell-equal"),
])
def test_every_closure_runs_at_the_given_bound(tmp_path, capsys, monkeypatch, argv, value):
    """`--bound` reaches every closure a command computes, through the
    operation bundles and the built-in universes too."""
    ops = frc.atlas_ops()
    docs = {
        "2cell": catalog_2cells()["legs"],
        "span": frc.Span(MIRROR_REF, M["leg1_MR_M"], M["leg2_MR_M"]),
        "fraction_cell": frc.universal_embed(ops, catalog_2cells()["id_to_flip"], level=2),
        "emb": frc.universal_embed(ops, M["emb_T_M"]),
    }
    paths = {k: write(tmp_path, f"{k}.json", v) for k, v in docs.items()}
    argv = [a.format(**paths) for a in argv]
    if value is not None:
        argv.append(paths[value] if isinstance(value, str) else write(tmp_path, "in.json", value))
    seen = _closure_bounds(monkeypatch)
    code = cli.run(["--bound", "0"] + argv)
    capsys.readouterr()
    assert code in (0, 1, 2)
    assert seen == {0}


@pytest.mark.parametrize("instance", ["atlas", "groupoid"])
@pytest.mark.parametrize("axiom", [1, 2, 3, 4, 5])
def test_bf_check_at_bound_zero_has_no_failure(capsys, instance, axiom):
    """No closure is complete at bound 0, so no identity and no groupoid of
    germs is built there: every such case is undecided, never a failure.
    The atlas universe is built, so its report is the axiom's; the groupoid
    universe is not, and its report is `run`'s undecided one."""
    assert cli.run(["--bound", "0", "bf-check", instance, "--axiom", str(axiom)]) == 2
    out = json.loads(capsys.readouterr().out)
    assert not out.get("violations") and out["undecided"]
    assert out["ok"] is True
    assert ("subject" in out) is (instance == "atlas")


def test_equiv_report_exits_2_on_an_undecided_note(capsys, monkeypatch):
    """A report with no violation but an undecided note exits 2.  Every
    classification of the catalog is decided, so A2's verdict on the second
    leg of the `legs` span is stubbed, as in `tests/test_gred.py`."""
    classify, check_a2 = atl.classify_morphism, grd._check_a2
    calls = []

    def stub(m, bound):
        calls.append(m)
        return atl.Classification("undecided") if len(calls) == 2 else classify(m, bound)

    def a2(catalog, bound):
        with monkeypatch.context() as mp:
            mp.setattr(atl, "classify_morphism", stub)
            return check_a2(catalog, bound)
    monkeypatch.setattr(grd, "_check_a2", a2)
    assert cli.run(["equiv-report"]) == 2
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] is True
    assert [u for ax in out["axioms"].values() for u in ax["undecided"]] == [
        "legs: the second connecting arrow is undecided at this bound"]


def test_equiv_report_names_a_failed_round_trip(capsys, monkeypatch):
    """A false round trip fails the report, and the top-level violations name
    its entry.  Every round trip of the catalog holds, so one is stubbed."""
    report = grd.equivalence_report

    def stub(catalog, bound):
        out = report(catalog, bound)
        out.round_trips["flip_M"] = False
        return out
    monkeypatch.setattr(grd, "equivalence_report", stub)
    assert cli.run(["equiv-report"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] is False and out["round_trips"]["flip_M"] is False
    assert out["subject"] == "equivalence criteria" and out["undecided"] == []
    assert [(v["code"], v["message"]) for v in out["violations"]] == [
        ("RT", "flip_M: round trip fails")]


def test_equiv_report_at_bound_zero_is_undecided(capsys):
    """The acceptance catalog is imaged at the bound of the run, and at
    bound 0 it has no groupoid of germs to image."""
    assert cli.run(["--bound", "0", "equiv-report"]) == 2
    out = json.loads(capsys.readouterr().out)
    assert out["kind"] == "report" and out["undecided"]


def _contract_docs(tmp_path):
    ops = frc.atlas_ops()
    cells = catalog_2cells()
    docs = {
        "leg": M["leg1_MR_M"], "emb": M["emb_T_M"], "flip": M["flip_M"], "id_T": M["id_TRIV"],
        "leg_gpd": frd.fred1(M["leg1_MR_M"]), "emb_gpd": frd.fred1(M["emb_T_M"]),
        "legs_span": frc.Span(MIRROR_REF, M["leg1_MR_M"], M["leg2_MR_M"]),
        "bad_span": frc.Span(M["emb_T_M"].source, M["emb_T_M"], M["emb_T_M"]),
        "unshift": frc.Span(TRIV_SHIFTED, ops.id1(TRIV_SHIFTED), M["unshift_T"]),
        "half": frc.Span(TRIV, M["half_T"], ops.id1(TRIV)),
        "i_id": frc.universal_embed(ops, cells["i_id_MIRROR"], level=2),
        "i_flip": frc.universal_embed(ops, cells["i_flip_M"], level=2),
    }
    paths = {k: write(tmp_path, f"{k}.json", v) for k, v in docs.items()}
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps({"kind": "atlas", "charts": []}))
    paths["broken"] = str(broken)
    return paths


@pytest.mark.parametrize("argv, code", [
    (["validate", "{leg}"], 0),
    (["validate", "{bad_span}"], 1),
    (["--bound", "0", "validate", "{leg}"], 2),
    (["validate", "{broken}"], 3),
    (["classify", "{emb}"], 0),
    (["--bound", "0", "classify", "{emb}"], 2),
    (["morita", "{leg_gpd}"], 0),
    (["morita", "{emb_gpd}"], 1),
    (["fred", "1", "{leg}"], 0),
    (["compose", "{emb}", "{flip}"], 0),
    (["compose", "{id_T}", "{flip}"], 1),
    (["bf-check", "atlas", "--axiom", "1"], 0),
    (["--bound", "0", "bf-check", "atlas", "--axiom", "3"], 2),
    (["--bound", "0", "bf-check", "groupoid", "--axiom", "1"], 2),
    (["localize-compose", "{legs_span}", "{legs_span}"], 0),
    (["localize-compose", "{unshift}", "{half}"], 1),
    (["cell-equal", "{i_id}", "{i_id}"], 0),
    (["cell-equal", "{i_id}", "{i_flip}"], 1),
    # equal spans need a square, which no closure at bound 0 completes;
    # the spans of i_id and i_flip differ, which reads no closure
    (["--bound", "0", "cell-equal", "{i_id}", "{i_id}"], 2),
    (["--bound", "0", "cell-equal", "{i_id}", "{i_flip}"], 1),
    (["equiv-report"], 0),
    (["--bound", "0", "equiv-report"], 2),
], ids=lambda v: " ".join(v) if isinstance(v, list) else str(v))
def test_ok_is_false_exactly_on_exit_1_and_3(tmp_path, capsys, argv, code):
    """Every report a command prints is `ok` unless the command exits 1 (a
    semantic failure) or 3 (a schema error); an undecided report is `ok`.
    A command that prints a document exits 0."""
    paths = _contract_docs(tmp_path)
    assert cli.run([a.format(**paths) for a in argv]) == code
    out = json.loads(capsys.readouterr().out)
    if out["kind"] == "report":
        assert out["ok"] is (code not in (1, 3))
    else:
        assert code == 0


def test_tampered_choice_table_hash_is_a_schema_error(tmp_path, capsys):
    """The saved sha256 of each entry's (f, w) is checked on loading."""
    ops = frc.atlas_ops()
    p1 = write(tmp_path, "s1.json", frc.universal_embed(ops, M["emb_T_M"]))
    p2 = write(tmp_path, "s2.json", frc.Span(MIRROR_REF, M["leg1_MR_M"], M["leg2_MR_M"]))
    choices = tmp_path / "choices.json"
    assert cli.run(["localize-compose", p1, p2, "--choices", str(choices)]) == 0
    capsys.readouterr()
    doc = json.loads(choices.read_text())
    doc["entries"][0][0] = "0" * 64
    choices.write_text(json.dumps(doc))
    assert cli.run(["localize-compose", p1, p2, "--choices", str(choices)]) == 3
    err = json.loads(capsys.readouterr().out)["schema_error"]
    assert err.startswith("schema error at /entries/0/0:")
