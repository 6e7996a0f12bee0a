"""Canonical JSON serialization of every domain type and the command-line
front end.

Documents carry a top-level "kind"; rationals are strings "p/q" in lowest
terms with positive denominator; all lists are in canonical sorted order,
so parse(serialize(x)) == x bit-exactly.  Exit codes: 0 pass, 1 semantic
failure (witness in the report), 2 undecided at the word bound, 3 schema
error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from fractions import Fraction

from . import atlas as atl
from . import fractions as frc
from . import fred as frd
from . import gred as grd
from . import groupoid as gpd
from .geometry import AffineMap, GeometryError, Interval, PartialAffineIso, Polygon, Region
from .reports import Report, UndecidedError


class SchemaError(Exception):
    def __init__(self, path, message):
        super().__init__(f"schema error at {path or '/'}: {message}")
        self.path = path


def _typed(value, kind, path):
    if not isinstance(value, kind):
        raise SchemaError(path, f"expected {kind.__name__}, got {json.dumps(value)[:40]}")
    return value


def _need(doc, key, path, kind=None):
    if not isinstance(doc, dict) or key not in doc:
        raise SchemaError(f"{path}/{key}", "missing")
    return doc[key] if kind is None else _typed(doc[key], kind, f"{path}/{key}")


def _tuple(value, size, path):
    if not isinstance(value, list) or len(value) != size:
        raise SchemaError(path, f"expected a list of {size} items")
    return tuple(value)


def _tuples(value, size, path):
    """A list of lists of length `size`, as a list of tuples."""
    return [_tuple(item, size, f"{path}/{i}") for i, item in enumerate(_typed(value, list, path))]


def _made(path, make, *args, **kwargs):
    """Call a `make` constructor on parsed parts; the ValueError or
    GeometryError by which it rejects them is a schema error at `path`."""
    try:
        return make(*args, **kwargs)
    except (ValueError, GeometryError) as e:
        raise SchemaError(path, str(e))


# -- rationals, maps, regions ------------------------------------------------

def frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def parse_frac(s, path=""):
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError, TypeError, OverflowError):
        raise SchemaError(path, f"not a rational: {s!r}")


def affine_doc(m: AffineMap):
    return {"matrix": [[frac_str(e) for e in row] for row in m.matrix],
            "offset": [frac_str(e) for e in m.offset]}


def parse_affine(doc, path=""):
    rows = _need(doc, "matrix", path, list)
    off = _need(doc, "offset", path, list)
    return _made(path, AffineMap.make,
                 [[parse_frac(e, f"{path}/matrix") for e in _typed(row, list, f"{path}/matrix")]
                  for row in rows],
                 [parse_frac(e, f"{path}/offset") for e in off])


def region_doc(r: Region):
    if r.dim == 1:
        pieces = [[frac_str(p.lo), frac_str(p.hi)] for p in r.pieces]
    else:
        pieces = [[[frac_str(x), frac_str(y)] for x, y in p.verts]
                  for p in r.pieces]
    return {"kind": "region", "dim": r.dim, "pieces": pieces}


def parse_region(doc, path=""):
    dim = _need(doc, "dim", path)
    raw = _need(doc, "pieces", path, list)
    if type(dim) is not int or dim not in (1, 2):
        raise SchemaError(f"{path}/dim", "dimension must be 1 or 2")
    pieces = []
    if dim == 1:
        for a, b in _tuples(raw, 2, f"{path}/pieces"):
            lo, hi = parse_frac(a, path), parse_frac(b, path)
            if lo >= hi:
                raise SchemaError(f"{path}/pieces", f"interval [{a}, {b}] is empty")
            pieces.append(Interval.make(lo, hi))
    else:
        for i, pts in enumerate(raw):
            poly = Polygon.make([(parse_frac(x, path), parse_frac(y, path))
                                 for x, y in _tuples(pts, 2, f"{path}/pieces/{i}")])
            if poly is not None:
                pieces.append(poly)
    return Region(dim, pieces)


# -- atlas side ---------------------------------------------------------------

def chart_doc(c: atl.Chart):
    return {"kind": "chart", "id": c.cid, "domain": region_doc(c.domain),
            "group": [affine_doc(g) for g in c.group]}


def parse_chart(doc, path=""):
    return _made(path, atl.Chart.make,
                 _need(doc, "id", path, str),
                 parse_region(_need(doc, "domain", path), f"{path}/domain"),
                 [parse_affine(g, f"{path}/group") for g in _need(doc, "group", path, list)])


def change_doc(ch: atl.ChangeOfCharts):
    return {"kind": "change", "src": ch.src, "dst": ch.dst,
            "map": affine_doc(ch.map), "dom": region_doc(ch.dom)}


def _iso(mdoc, rdoc, path):
    return _made(path, PartialAffineIso.make, parse_affine(mdoc, f"{path}/map"),
                 parse_region(rdoc, f"{path}/dom"))


def parse_change(doc, path=""):
    return atl.ChangeOfCharts(
        _need(doc, "src", path, str), _need(doc, "dst", path, str),
        _iso(_need(doc, "map", path), _need(doc, "dom", path), path))


def atlas_doc(a: atl.Atlas):
    return {"kind": "atlas",
            "charts": [chart_doc(c) for c in a.charts],
            "generators": [change_doc(g) for g in a.generators]}


def parse_atlas(doc, path=""):
    charts = [parse_chart(c, f"{path}/charts") for c in _need(doc, "charts", path, list)]
    gens = [parse_change(g, f"{path}/generators")
            for g in _need(doc, "generators", path, list)]
    return _made(path, atl.Atlas.make, charts, gens)


def morphism_doc(m: atl.Morphism):
    return {"kind": "morphism",
            "source": atlas_doc(m.source), "target": atlas_doc(m.target),
            "chart_map": dict(m.chart_map),
            "lifts": {i: affine_doc(L) for i, L in m.lifts},
            "entries": [{"change": change_doc(e.change), "nu": change_doc(e.nu)}
                        for e in m.entries],
            "certificate": None if m.certificate is None else atlas_doc(m.certificate)}


def _str_map(doc, key, path):
    """A JSON object of strings."""
    out = _need(doc, key, path, dict)
    for k, v in out.items():
        _typed(v, str, f"{path}/{key}/{k}")
    return out


def parse_morphism(doc, path=""):
    cert = _typed(doc, dict, path).get("certificate")
    return _made(
        path, atl.Morphism.make,
        parse_atlas(_need(doc, "source", path), f"{path}/source"),
        parse_atlas(_need(doc, "target", path), f"{path}/target"),
        _str_map(doc, "chart_map", path),
        {i: parse_affine(L, f"{path}/lifts") for i, L in _need(doc, "lifts", path, dict).items()},
        [atl.PEntry(parse_change(_need(e, "change", f"{path}/entries"), f"{path}/entries"),
                    parse_change(_need(e, "nu", f"{path}/entries"), f"{path}/entries"))
         for e in _need(doc, "entries", path, list)],
        certificate=None if cert is None else parse_atlas(cert, f"{path}/certificate"))


def twocell_doc(c: atl.TwoCell):
    return {"kind": "2cell",
            "source": morphism_doc(c.source_morphism),
            "target": morphism_doc(c.target_morphism),
            "patches": {cid: [[region_doc(r), change_doc(ch)] for r, ch in items]
                        for cid, items in c.patches}}


def parse_twocell(doc, path=""):
    return _made(
        path, atl.TwoCell.make,
        parse_morphism(_need(doc, "source", path), f"{path}/source"),
        parse_morphism(_need(doc, "target", path), f"{path}/target"),
        {cid: [(parse_region(r, f"{path}/patches"), parse_change(ch, f"{path}/patches"))
               for r, ch in _tuples(items, 2, f"{path}/patches/{cid}")]
         for cid, items in _need(doc, "patches", path, dict).items()})


# -- groupoid side ------------------------------------------------------------

def groupoid_doc(g: gpd.PresentedGroupoid):
    note = g.annotation
    if isinstance(note, atl.Atlas):
        ann = {"type": "atlas", "atlas": atlas_doc(note)}
    elif isinstance(note, tuple):
        ann = {"type": "cover",
               "cover": [[pid, region_doc(r)] for pid, r in note]}
    else:
        ann = None
    return {"kind": "groupoid",
            "pieces": [[pid, region_doc(r)] for pid, r in g.pieces],
            "families": [[f.fid, f.src, f.dst, affine_doc(f.map), region_doc(f.dom)]
                         for f in g.families],
            "annotation": ann}


def parse_groupoid(doc, path=""):
    ann = _typed(doc, dict, path).get("annotation")
    note = None
    if isinstance(ann, dict) and ann.get("type") == "atlas":
        note = parse_atlas(_need(ann, "atlas", f"{path}/annotation"),
                           f"{path}/annotation")
    elif isinstance(ann, dict) and ann.get("type") == "cover":
        cover = _tuples(_need(ann, "cover", f"{path}/annotation"), 2, f"{path}/annotation/cover")
        note = tuple((pid, parse_region(r, f"{path}/annotation"))
                     for pid, r in cover)
    fp = f"{path}/families"
    fams = [gpd.ArrowFamily(_typed(fid, str, fp), _typed(src, str, fp), _typed(dst, str, fp),
                            _iso(m, r, fp))
            for fid, src, dst, m, r in _tuples(_need(doc, "families", path), 5, fp)]
    return _made(
        path, gpd.PresentedGroupoid.make,
        {_typed(pid, str, f"{path}/pieces"): parse_region(r, f"{path}/pieces")
         for pid, r in _tuples(_need(doc, "pieces", path), 2, f"{path}/pieces")},
        fams, annotation=note)


def gpd_morphism_doc(psi: gpd.GroupoidMorphism):
    return {"kind": "gpd_morphism",
            "source": groupoid_doc(psi.source), "target": groupoid_doc(psi.target),
            "object_map": {p: [q, affine_doc(m)] for p, (q, m) in psi.object_map},
            "family_map": dict(psi.family_map)}


def parse_gpd_morphism(doc, path=""):
    objects = {}
    for p, pair in _need(doc, "object_map", path, dict).items():
        q, m = _tuple(pair, 2, f"{path}/object_map/{p}")
        objects[p] = (_typed(q, str, f"{path}/object_map/{p}"),
                      parse_affine(m, f"{path}/object_map"))
    return _made(
        path, gpd.GroupoidMorphism.make,
        parse_groupoid(_need(doc, "source", path), f"{path}/source"),
        parse_groupoid(_need(doc, "target", path), f"{path}/target"),
        objects, _str_map(doc, "family_map", path))


def nat_transf_doc(a: gpd.NatTransf):
    return {"kind": "nat_transf",
            "source": gpd_morphism_doc(a.source_morphism),
            "target": gpd_morphism_doc(a.target_morphism),
            "assignments": {p: [[region_doc(r), fid] for r, fid in items]
                            for p, items in a.assignments}}


def parse_nat_transf(doc, path=""):
    return _made(
        path, gpd.NatTransf.make,
        parse_gpd_morphism(_need(doc, "source", path), f"{path}/source"),
        parse_gpd_morphism(_need(doc, "target", path), f"{path}/target"),
        {p: [(parse_region(r, f"{path}/assignments"), _typed(fid, str, f"{path}/assignments/{p}"))
             for r, fid in _tuples(items, 2, f"{path}/assignments/{p}")]
         for p, items in _need(doc, "assignments", path, dict).items()})


# -- localized cells ----------------------------------------------------------

def span_doc(s: frc.Span):
    return {"kind": "span", "instance": "atlas",
            "middle": atlas_doc(s.middle),
            "left": morphism_doc(s.left), "right": morphism_doc(s.right)}


def parse_span(doc, path=""):
    if _typed(doc, dict, path).get("instance", "atlas") != "atlas":
        raise SchemaError(f"{path}/instance", "only atlas spans are serialized")
    return frc.Span(parse_atlas(_need(doc, "middle", path), f"{path}/middle"),
                    parse_morphism(_need(doc, "left", path), f"{path}/left"),
                    parse_morphism(_need(doc, "right", path), f"{path}/right"))


def fraction_cell_doc(c: frc.FractionCell):
    return {"kind": "fraction_cell", "instance": "atlas",
            "src_span": span_doc(c.src_span), "dst_span": span_doc(c.dst_span),
            "middle": atlas_doc(c.middle),
            "left_leg": morphism_doc(c.left_leg),
            "right_leg": morphism_doc(c.right_leg),
            "base": twocell_doc(c.base)}


def parse_fraction_cell(doc, path=""):
    return frc.FractionCell(
        parse_span(_need(doc, "src_span", path), f"{path}/src_span"),
        parse_span(_need(doc, "dst_span", path), f"{path}/dst_span"),
        parse_atlas(_need(doc, "middle", path), f"{path}/middle"),
        parse_morphism(_need(doc, "left_leg", path), f"{path}/left_leg"),
        parse_morphism(_need(doc, "right_leg", path), f"{path}/right_leg"),
        parse_twocell(_need(doc, "base", path), f"{path}/base"))


KINDS = {
    "region": (region_doc, parse_region),
    "chart": (chart_doc, parse_chart),
    "change": (change_doc, parse_change),
    "atlas": (atlas_doc, parse_atlas),
    "morphism": (morphism_doc, parse_morphism),
    "2cell": (twocell_doc, parse_twocell),
    "groupoid": (groupoid_doc, parse_groupoid),
    "gpd_morphism": (gpd_morphism_doc, parse_gpd_morphism),
    "nat_transf": (nat_transf_doc, parse_nat_transf),
    "span": (span_doc, parse_span),
    "fraction_cell": (fraction_cell_doc, parse_fraction_cell),
}


def serialize(value) -> dict:
    for kind, (enc, _) in KINDS.items():
        ok = {
            "region": Region, "chart": atl.Chart, "change": atl.ChangeOfCharts,
            "atlas": atl.Atlas, "morphism": atl.Morphism, "2cell": atl.TwoCell,
            "groupoid": gpd.PresentedGroupoid,
            "gpd_morphism": gpd.GroupoidMorphism, "nat_transf": gpd.NatTransf,
            "span": frc.Span, "fraction_cell": frc.FractionCell,
        }[kind]
        if isinstance(value, ok):
            return enc(value)
    raise TypeError(f"cannot serialize {type(value).__name__}")


def parse(doc):
    kind = _need(doc, "kind", "")
    if not isinstance(kind, str) or kind not in KINDS:
        raise SchemaError("/kind", f"unknown kind {kind!r}")
    return KINDS[kind][1](doc, "")


def dumps(value) -> str:
    return json.dumps(serialize(value), indent=1, sort_keys=True)


def _read(path) -> str:
    """The text of a file; a file that cannot be read is a schema error."""
    try:
        with open(path) as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise SchemaError("", f"cannot read {path}: {e}")


def _json(text: str):
    """Decode a JSON document; malformed JSON is a schema error."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise SchemaError("", f"not a JSON document: {e}")


def loads(text: str):
    return parse(_json(text))


# -- choice table persistence -------------------------------------------------

def _pair_hash(fdoc, wdoc) -> str:
    blob = json.dumps([fdoc, wdoc], sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _writable(path):
    """Raise a schema error unless `path` can be written, before any work
    is done for it."""
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder) or not os.access(folder, os.W_OK):
        raise SchemaError("", f"cannot write {path}: {folder} is not a writable directory")


def save_choice_table(table: frc.ChoiceTable, ops, path: str):
    entries = []
    for key, (d, wp, fp, cell) in sorted(table.entries.items(), key=lambda kv: repr(kv[0])):
        if key not in table.cells:
            continue
        f, w = table.cells[key]
        fdoc, wdoc = morphism_doc(f), morphism_doc(w)
        entries.append([
            _pair_hash(fdoc, wdoc),
            {"f": fdoc, "w": wdoc, "middle": atlas_doc(d),
             "wleg": morphism_doc(wp), "fleg": morphism_doc(fp),
             "cell": twocell_doc(cell)}])
    text = json.dumps({"kind": "choice_table", "entries": entries}, indent=1, sort_keys=True)
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as e:
        raise SchemaError("", f"cannot write {path}: {e}")


def load_choice_table(path: str, ops) -> frc.ChoiceTable:
    table = frc.ChoiceTable()
    if not os.path.exists(path):
        return table
    doc = _json(_read(path))
    for i, (_, e) in enumerate(_tuples(_need(doc, "entries", "", list), 2, "/entries")):
        at = f"/entries/{i}/1"
        f = parse_morphism(_need(e, "f", at), f"{at}/f")
        w = parse_morphism(_need(e, "w", at), f"{at}/w")
        square = (parse_atlas(_need(e, "middle", at), f"{at}/middle"),
                  parse_morphism(_need(e, "wleg", at), f"{at}/wleg"),
                  parse_morphism(_need(e, "fleg", at), f"{at}/fleg"),
                  parse_twocell(_need(e, "cell", at), f"{at}/cell"))
        key = table.key(ops, f, w)
        table.entries[key] = square
        table.cells[key] = (f, w)
    return table


# -- command-line front end ---------------------------------------------------

def _emit(report_json, code):
    print(json.dumps(report_json, indent=1, sort_keys=True, default=str))
    return code


def _report_code(rep: Report) -> int:
    if not rep.ok:
        return 1
    if not rep.decided:
        return 2
    return 0


def cmd_validate(args):
    doc = _json(_read(args.file))
    kind = _need(doc, "kind", "")
    value = parse(doc)
    if kind == "atlas":
        rep = atl.validate_atlas(value, args.bound)
    elif kind == "chart":
        rep = atl.validate_chart(value)
    elif kind == "morphism":
        rep = atl.validate_morphism(value, args.bound)
    elif kind == "2cell":
        rep = atl.validate_2cell(value, args.bound)
    elif kind == "groupoid":
        rep = gpd.validate_groupoid(value)
    elif kind == "gpd_morphism":
        rep = gpd.validate_gpd_morphism(value)
    elif kind == "nat_transf":
        rep = gpd.validate_nat_transf(value)
    elif kind == "change":
        rep = Report("change")
        rep.note_undecided("a change of charts is validated against its atlas; "
                           "wrap it in an atlas document")
    elif kind == "span":
        rep = frc.validate_span(frc.atlas_ops(), value)
    elif kind == "fraction_cell":
        rep = frc.validate_fraction_cell(frc.atlas_ops(), value)
    else:
        raise SchemaError("/kind", f"no validator for kind {kind!r}")
    out = rep.to_json()
    out["kind"] = "report"
    return _emit(out, _report_code(rep))


def cmd_compose(args):
    a = loads(_read(args.first))
    b = loads(_read(args.second))
    if args.mode == "morphism":
        out = atl.compose_morphisms(b, a)
    elif args.mode == "vertical":
        out = atl.vertical_compose(b, a)
    elif args.mode == "horizontal":
        out = atl.horizontal_compose(b, a)
    else:
        raise SchemaError("/mode", f"unknown mode {args.mode}")
    print(dumps(out))
    return 0


def cmd_fred(args):
    value = loads(_read(args.file))
    out = [frd.fred0, frd.fred1, frd.fred2][args.level](value, args.bound)
    print(dumps(out))
    return 0


def cmd_morita(args):
    psi = loads(_read(args.file))
    ok, rep = gpd.is_morita(psi)
    out = rep.to_json()
    out["kind"] = "report"
    out["morita"] = ok
    return _emit(out, 0 if ok else 1)


def cmd_classify(args):
    m = loads(_read(args.file))
    cls = atl.classify_morphism(m, args.bound)
    out = {"kind": "report", "subject": "classification", "class": cls.label,
           "notes": list(cls.notes), "ok": cls.label != "undecided"}
    return _emit(out, 2 if cls.label == "undecided" else 0)


def _builtin_universe(instance):
    from . import fixtures as fx
    if instance == "atlas":
        ops = frc.atlas_ops()
        objects = sorted(fx.ATLASES.items()) + [("TRIV_SHIFTED", fx.TRIV_SHIFTED)]
        cells = sorted(fx.MORPHISMS.items())
    elif instance == "groupoid":
        ops = frc.groupoid_ops()
        objects = [(n, frd.fred0(a)) for n, a in sorted(fx.ATLASES.items())]
        objects.append(("TRIV_SHIFTED", frd.fred0(fx.TRIV_SHIFTED)))
        cells = [(n, frd.fred1(m)) for n, m in sorted(fx.MORPHISMS.items())]
    else:
        raise SchemaError("/instance", f"unknown instance {instance!r}")
    return ops, frc.depth2_universe(ops, objects, cells)


def cmd_bf_check(args):
    ops, uni = _builtin_universe(args.instance)
    table = frc.ChoiceTable()
    rep = frc.check_bf(ops, args.axiom, uni, table)
    out = rep.to_json()
    out["kind"] = "report"
    return _emit(out, _report_code(rep))


def cmd_localize_compose(args):
    ops = frc.atlas_ops()
    s1 = loads(_read(args.first))
    s2 = loads(_read(args.second))
    table = frc.ChoiceTable()
    if args.choices:
        _writable(args.choices)
        table = load_choice_table(args.choices, ops)
    out = frc.compose_spans(ops, table, s2, s1)
    if args.choices:
        save_choice_table(table, ops, args.choices)
    print(dumps(out))
    return 0


def cmd_cell_equal(args):
    ops = frc.atlas_ops()
    c1 = loads(_read(args.first))
    c2 = loads(_read(args.second))
    try:
        eq = frc.cell_equal(ops, c1, c2)
    except UndecidedError as e:
        return _emit({"kind": "report", "subject": "cell equality",
                      "ok": False, "undecided": [str(e)]}, 2)
    return _emit({"kind": "report", "subject": "cell equality", "equal": eq,
                  "ok": True}, 0 if eq else 1)


def cmd_equiv_report(args):
    from . import fixtures as fx
    rep = grd.equivalence_report(fx.acceptance_catalog(), args.bound,
                                 args.samples, args.seed)
    out = rep.to_json()
    out["kind"] = "report"
    print(json.dumps(out, indent=1, sort_keys=True, default=str))
    return 0 if rep.ok else 1


def build_parser():
    p = argparse.ArgumentParser(
        prog="orbatlas",
        description="exact orbifold-atlas 2-category toolkit")
    p.add_argument("--bound", type=int, default=atl.WORD_BOUND,
                   help="word bound for pseudogroup closures")
    p.add_argument("--samples", type=int, default=grd.SIDE_SAMPLES,
                   help="sample count for the coarse side-condition checks "
                        "of equiv-report")
    p.add_argument("--seed", type=int, default=0, help="sampling seed")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("validate", help="validate a document")
    s.add_argument("file")
    s.set_defaults(fn=cmd_validate)

    s = sub.add_parser("compose", help="compose two cells (g after f)")
    s.add_argument("first")
    s.add_argument("second")
    s.add_argument("--mode", default="morphism",
                   choices=["morphism", "vertical", "horizontal"])
    s.set_defaults(fn=cmd_compose)

    s = sub.add_parser("fred", help="apply the structure functor")
    s.add_argument("level", type=int, choices=[0, 1, 2])
    s.add_argument("file")
    s.set_defaults(fn=cmd_fred)

    s = sub.add_parser("morita", help="Morita-equivalence check")
    s.add_argument("file")
    s.set_defaults(fn=cmd_morita)

    s = sub.add_parser("classify", help="classify a morphism")
    s.add_argument("file")
    s.set_defaults(fn=cmd_classify)

    s = sub.add_parser("bf-check", help="check a fraction axiom")
    s.add_argument("instance", choices=["atlas", "groupoid"])
    s.add_argument("--axiom", type=int, required=True, choices=[1, 2, 3, 4, 5])
    s.set_defaults(fn=cmd_bf_check)

    s = sub.add_parser("localize-compose", help="compose two spans")
    s.add_argument("first")
    s.add_argument("second")
    s.add_argument("--choices", help="choice table file (created on demand)")
    s.set_defaults(fn=cmd_localize_compose)

    s = sub.add_parser("cell-equal", help="equality of fraction 2-cells")
    s.add_argument("first")
    s.add_argument("second")
    s.set_defaults(fn=cmd_cell_equal)

    s = sub.add_parser("equiv-report", help="equivalence criteria over the catalog")
    s.set_defaults(fn=cmd_equiv_report)
    return p


def run(argv=None) -> int:
    p = build_parser()
    args = p.parse_args(argv)
    try:
        return args.fn(args)
    except SchemaError as e:
        print(json.dumps({"kind": "report", "ok": False,
                          "schema_error": str(e)}, indent=1))
        return 3
    except UndecidedError as e:
        print(json.dumps({"kind": "report", "ok": False,
                          "undecided": [str(e)]}, indent=1))
        return 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
