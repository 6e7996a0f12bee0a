"""Canonical JSON serialization of every domain type and the command-line
front end.

Documents carry a top-level "kind"; rationals are strings "p/q" in lowest
terms with positive denominator; all lists are in canonical sorted order,
so parse(serialize(x)) == x bit-exactly.  Exit codes: 0 pass, 1 semantic
failure (witness in the report), 2 undecided at the word bound, 3 schema
error.  A printed report's `ok` is false exactly on exit 1 and 3.  A proof
that a cell does not exist and non-composable input are semantic failures;
a document of the wrong kind is a schema error.  `run` is the one place
that maps an error to its exit code.
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
from .reports import ComposabilityError, NoSuchCellError, Report, UndecidedError, _wjson


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


def _known(name, known, path, what):
    """A name by which a document refers to a part of another; a name that
    refers to nothing is a schema error at `path`."""
    if name not in known:
        raise SchemaError(path, f"no {what} {name!r}")
    return name


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
    source = parse_atlas(_need(doc, "source", path), f"{path}/source")
    target = parse_atlas(_need(doc, "target", path), f"{path}/target")
    ids, tids = source.chart_ids(), target.chart_ids()
    return _made(
        path, atl.Morphism.make, source, target,
        {_known(i, ids, f"{path}/chart_map/{i}", "source chart"):
         _known(j, tids, f"{path}/chart_map/{i}", "target chart")
         for i, j in _str_map(doc, "chart_map", path).items()},
        {_known(i, ids, f"{path}/lifts/{i}", "source chart"): parse_affine(L, f"{path}/lifts")
         for i, L in _need(doc, "lifts", path, dict).items()},
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
    source = parse_morphism(_need(doc, "source", path), f"{path}/source")
    ids = source.source.chart_ids()
    return _made(
        path, atl.TwoCell.make, source,
        parse_morphism(_need(doc, "target", path), f"{path}/target"),
        {_known(cid, ids, f"{path}/patches/{cid}", "source chart"):
         [(parse_region(r, f"{path}/patches"), parse_change(ch, f"{path}/patches"))
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
    source = parse_groupoid(_need(doc, "source", path), f"{path}/source")
    target = parse_groupoid(_need(doc, "target", path), f"{path}/target")
    pids, tpids = source.piece_ids(), target.piece_ids()
    objects = {}
    for p, pair in _need(doc, "object_map", path, dict).items():
        at = f"{path}/object_map/{p}"
        q, m = _tuple(pair, 2, at)
        objects[_known(p, pids, at, "source piece")] = (
            _known(_typed(q, str, at), tpids, at, "target piece"),
            parse_affine(m, f"{path}/object_map"))
    fids, tfids = source.family_ids(), target.family_ids()
    families = {_known(f, fids, f"{path}/family_map/{f}", "source family"):
                _known(t, tfids, f"{path}/family_map/{f}", "target family")
                for f, t in _str_map(doc, "family_map", path).items()}
    return _made(path, gpd.GroupoidMorphism.make, source, target, objects, families)


def nat_transf_doc(a: gpd.NatTransf):
    return {"kind": "nat_transf",
            "source": gpd_morphism_doc(a.source_morphism),
            "target": gpd_morphism_doc(a.target_morphism),
            "assignments": {p: [[region_doc(r), fid] for r, fid in items]
                            for p, items in a.assignments}}


def parse_nat_transf(doc, path=""):
    source = parse_gpd_morphism(_need(doc, "source", path), f"{path}/source")
    pids, fids = source.source.piece_ids(), source.target.family_ids()
    return _made(
        path, gpd.NatTransf.make, source,
        parse_gpd_morphism(_need(doc, "target", path), f"{path}/target"),
        {_known(p, pids, f"{path}/assignments/{p}", "source piece"):
         [(parse_region(r, f"{path}/assignments"),
           _known(_typed(fid, str, f"{path}/assignments/{p}"), fids,
                  f"{path}/assignments/{p}", "target family"))
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


# Each kind: its class, serializer, parser and validator `(value, bound) ->
# Report`; a region has no validator.
KINDS = {
    "region": (Region, region_doc, parse_region, None),
    "chart": (atl.Chart, chart_doc, parse_chart, lambda c, bound: atl.validate_chart(c)),
    "change": (atl.ChangeOfCharts, change_doc, parse_change, lambda ch, bound: Report(
        "change", undecided=["a change of charts is validated against its atlas; "
                             "wrap it in an atlas document"])),
    "atlas": (atl.Atlas, atlas_doc, parse_atlas, atl.validate_atlas),
    "morphism": (atl.Morphism, morphism_doc, parse_morphism, atl.validate_morphism),
    "2cell": (atl.TwoCell, twocell_doc, parse_twocell, atl.validate_2cell),
    "groupoid": (gpd.PresentedGroupoid, groupoid_doc, parse_groupoid,
                 lambda g, bound: gpd.validate_groupoid(g)),
    "gpd_morphism": (gpd.GroupoidMorphism, gpd_morphism_doc, parse_gpd_morphism,
                     lambda psi, bound: gpd.validate_gpd_morphism(psi)),
    "nat_transf": (gpd.NatTransf, nat_transf_doc, parse_nat_transf,
                   lambda a, bound: gpd.validate_nat_transf(a)),
    "span": (frc.Span, span_doc, parse_span,
             lambda s, bound: frc.validate_span(frc.atlas_ops(bound), s)),
    "fraction_cell": (frc.FractionCell, fraction_cell_doc, parse_fraction_cell,
                      lambda c, bound: frc.validate_fraction_cell(frc.atlas_ops(bound), c)),
}


def _kind_of(value) -> str:
    for kind, (cls, *_) in KINDS.items():
        if isinstance(value, cls):
            return kind
    raise TypeError(f"cannot serialize {type(value).__name__}")


def serialize(value) -> dict:
    return KINDS[_kind_of(value)][1](value)


def parse(doc):
    kind = _need(doc, "kind", "")
    if not isinstance(kind, str) or kind not in KINDS:
        raise SchemaError("/kind", f"unknown kind {kind!r}")
    return KINDS[kind][2](doc, "")


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


def _load(path, *kinds):
    """The value of the document at `path`, which must be of one of `kinds`;
    another kind is a schema error at /kind."""
    value = loads(_read(path))
    if _kind_of(value) not in kinds:
        raise SchemaError("/kind", f"expected a {' or '.join(kinds)} document")
    return value


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


def _content_key(f, w):
    """The pair's endpoints, 1-cells and certificates as `key()` tuples (a
    missing certificate as None): the order of the entries of a saved
    table."""
    return (tuple(x.key() for x in (f.source, f.target, w.source, w.target)),
            f.key(), w.key(),
            tuple(None if m.certificate is None else m.certificate.key() for m in (f, w)))


def save_choice_table(table: frc.ChoiceTable, path: str):
    entries = []
    for (f, w), (d, wp, fp, cell) in sorted(table.entries.items(),
                                           key=lambda kv: repr(_content_key(*kv[0]))):
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


def load_choice_table(path: str) -> frc.ChoiceTable:
    table = frc.ChoiceTable()
    if not os.path.exists(path):
        return table
    doc = _json(_read(path))
    for i, (digest, e) in enumerate(_tuples(_need(doc, "entries", "", list), 2, "/entries")):
        at = f"/entries/{i}/1"
        fdoc, wdoc = _need(e, "f", at), _need(e, "w", at)
        if digest != _pair_hash(fdoc, wdoc):
            raise SchemaError(f"/entries/{i}/0", "sha256 does not match the entry's key pair (f, w) "
                                                 "(it does not cover the cached square)")
        f = parse_morphism(fdoc, f"{at}/f")
        w = parse_morphism(wdoc, f"{at}/w")
        square = (parse_atlas(_need(e, "middle", at), f"{at}/middle"),
                  parse_morphism(_need(e, "wleg", at), f"{at}/wleg"),
                  parse_morphism(_need(e, "fleg", at), f"{at}/fleg"),
                  parse_twocell(_need(e, "cell", at), f"{at}/cell"))
        table.entries[(f, w)] = square
    return table


# -- command-line front end ---------------------------------------------------

def _emit(report_json, code):
    print(json.dumps(report_json, indent=1, sort_keys=True, default=str))
    return code


def _report(rep: Report, **extra) -> int:
    """Print `rep` as a report document with the `extra` keys; exit 1 on a
    violation, else 2 on an undecided note, else 0."""
    code = 1 if not rep.ok else 2 if not rep.decided else 0
    return _emit(dict(rep.to_json(), kind="report", **extra), code)


def cmd_validate(args):
    value = _load(args.file, *KINDS)
    kind = _kind_of(value)
    check = KINDS[kind][3]
    if check is None:
        raise SchemaError("/kind", f"no validator for kind {kind!r}")
    return _report(check(value, args.bound))


def cmd_compose(args):
    kind = "morphism" if args.mode == "morphism" else "2cell"
    a, b = _load(args.first, kind), _load(args.second, kind)
    if args.mode == "morphism":
        out = atl.compose_morphisms(b, a)
    elif args.mode == "vertical":
        out = atl.vertical_compose(b, a)
    else:
        out = atl.horizontal_compose(b, a)
    print(dumps(out))
    return 0


def cmd_fred(args):
    value = _load(args.file, ("atlas", "morphism", "2cell")[args.level])
    out = [frd.fred0, frd.fred1, frd.fred2][args.level](value, args.bound)
    print(dumps(out))
    return 0


def cmd_morita(args):
    rep = gpd.is_morita(_load(args.file, "gpd_morphism"))
    return _report(rep, morita=rep.ok)


def cmd_classify(args):
    cls = atl.classify_morphism(_load(args.file, "morphism"), args.bound)
    notes = list(cls.notes)
    rep = Report("classification", undecided=notes if cls.label == "undecided" else [])
    return _report(rep, notes=notes, witness=_wjson(cls.witness), **{"class": cls.label})


def _builtin_universe(instance, bound):
    from . import fixtures as fx
    if instance == "atlas":
        ops = frc.atlas_ops(bound)
        objects = sorted(fx.ATLASES.items()) + [("TRIV_SHIFTED", fx.TRIV_SHIFTED)]
        cells = sorted(fx.MORPHISMS.items())
    elif instance == "groupoid":
        ops = frc.groupoid_ops(bound)
        objects = [(n, frd.fred0(a, bound)) for n, a in sorted(fx.ATLASES.items())]
        objects.append(("TRIV_SHIFTED", frd.fred0(fx.TRIV_SHIFTED, bound)))
        cells = [(n, frd.fred1(m, bound)) for n, m in sorted(fx.MORPHISMS.items())]
    else:
        raise SchemaError("/instance", f"unknown instance {instance!r}")
    return ops, frc.depth2_universe(ops, objects, cells)


def cmd_bf_check(args):
    ops, uni = _builtin_universe(args.instance, args.bound)
    table = frc.ChoiceTable()
    return _report(frc.check_bf(ops, args.axiom, uni, table))


def cmd_localize_compose(args):
    ops = frc.atlas_ops(args.bound)
    s1, s2 = _load(args.first, "span"), _load(args.second, "span")
    table = frc.ChoiceTable()
    if args.choices:
        _writable(args.choices)
        table = load_choice_table(args.choices)
    out = frc.compose_spans(ops, table, s2, s1)
    if args.choices:
        save_choice_table(table, args.choices)
    print(dumps(out))
    return 0


def cmd_cell_equal(args):
    ops = frc.atlas_ops(args.bound)
    c1, c2 = _load(args.first, "fraction_cell"), _load(args.second, "fraction_cell")
    rep = Report("cell equality")
    if not frc.cell_equal(ops, c1, c2):
        rep.fail("CE", "the two fraction cells are not equal")
    return _report(rep, equal=rep.ok)


def cmd_equiv_report(args):
    from . import fixtures as fx
    return _report(grd.equivalence_report(fx.acceptance_catalog(args.bound), args.bound))


class _Parser(argparse.ArgumentParser):
    """Usage errors are schema errors, exit 3: argparse's own exit code 2
    means undecided here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise SchemaError("", f"usage: {message}")


def build_parser():
    p = _Parser(
        prog="orbatlas",
        description="exact orbifold-atlas 2-category toolkit")
    p.add_argument("--bound", type=int, default=atl.WORD_BOUND,
                   help="word bound for pseudogroup closures")
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
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        if args.bound < 0:
            parser.error(f"argument --bound: the word bound must be >= 0, not {args.bound}")
        return args.fn(args)
    except SchemaError as e:
        return _emit({"kind": "report", "ok": False, "schema_error": str(e)}, 3)
    except UndecidedError as e:
        return _emit({"kind": "report", "ok": True, "undecided": [str(e)]}, 2)
    except NoSuchCellError as e:
        return _emit({"kind": "report", "ok": False, "no_such_cell": str(e),
                      "witness": _wjson(e.witness)}, 1)
    except ComposabilityError as e:
        return _emit({"kind": "report", "ok": False, "not_composable": str(e)}, 1)


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
