import json
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from orbatlas import cli
from orbatlas import fractions as frc
from orbatlas import fred as frd
from orbatlas.fixtures import MIRROR, MIRROR_REF, MORPHISMS, catalog_2cells

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
        frd.fred2(catalog_2cells()["legs"]),
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
    code = cli.run(["classify", write(tmp_path, "emb.json", M["emb_T_M"])])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["class"] == "open_embedding"


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
    capsys.readouterr()


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


def test_bf_check_command(capsys):
    assert cli.run(["bf-check", "atlas", "--axiom", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] is True
    assert cli.run(["bf-check", "groupoid", "--axiom", "2"]) == 0
    capsys.readouterr()


def test_equiv_report_command(capsys):
    assert cli.run(["--samples", "16", "--seed", "7", "equiv-report"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] is True and out["kind"] == "report"


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
    cli.save_choice_table(table, ops, str(first))
    cli.save_choice_table(cli.load_choice_table(str(first), ops), ops, str(second))
    assert first.read_bytes() == second.read_bytes()
    # entries are ordered by the repr of their keys
    keys = [repr(k) for k in table.entries]
    reloaded = cli.load_choice_table(str(first), ops)
    assert [repr(k) for k in reloaded.entries] == sorted(keys)


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
              frd.fred1(M["flip_M"]), frd.fred2(catalog_2cells()["legs"]),
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
    nt = frd.fred2(catalog_2cells()["id_to_flip"])
    assert cli.run(["validate", _edited(tmp_path, nt, edit)]) == 3
    assert "no target family 'nofam'" in json.loads(capsys.readouterr().out)["schema_error"]


@pytest.mark.parametrize("argv", [
    ["--bogus", "validate", "x.json"],
    ["bf-check", "atlas", "--axiom", "9"],
    ["fred", "3", "x.json"],
    [],
])
def test_usage_errors_are_schema_errors(capsys, argv):
    assert cli.run(argv) == 3
    captured = capsys.readouterr()
    assert "usage:" in json.loads(captured.out)["schema_error"]
    assert captured.err.startswith("usage: orbatlas")
