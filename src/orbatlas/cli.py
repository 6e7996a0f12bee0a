"""Canonical JSON serialization of every domain type and the command-line
front end.

Documents carry a top-level "kind"; rationals are strings "p/q" in lowest
terms with positive denominator; all lists are in canonical sorted order,
so parse(serialize(x)) == x bit-exactly.  Exit codes: 0 pass, 1 semantic
failure (witness in the report), 2 undecided at the word bound, 3 schema
error.  A printed report's `ok` is false exactly on exit 1 and 3.  A proof
that a cell does not exist and non-composable input are semantic failures;
a document of the wrong kind is a schema error.  A schema error names the
offending node by an RFC 6901 pointer, such as `/patches/C2/0/0/pieces/0/0`.
`run` is the one place that maps an error to its exit code.
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction
from types import SimpleNamespace

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


# -- readers ------------------------------------------------------------------
# A reader `read(value, path)` parses the JSON `value` at the RFC 6901
# pointer `path` of a document; a SchemaError names the node that is wrong.

def _at(path, key):
    """The pointer to the child `key` (a key or an index) of the node `path`."""
    return f"{path}/{str(key).replace('~', '~0').replace('/', '~1')}"


def _typed(value, kind, path):
    if not isinstance(value, kind):
        raise SchemaError(path, f"expected {kind.__name__}, got {json.dumps(value)[:40]}")
    return value


def _str(value, path):
    return _typed(value, str, path)


def _need(doc, path, **reads):
    """The fields of the object `doc` that `reads` names, each read by its reader."""
    _typed(doc, dict, path)
    out = []
    for key, read in reads.items():
        if key not in doc:
            raise SchemaError(_at(path, key), "missing")
        out.append(read(doc[key], _at(path, key)))
    return out


def _optional(doc, path, key, read):
    """`read` of the field `key` of `doc`, or None where it is absent or null."""
    value = doc.get(key)
    return None if value is None else read(value, _at(path, key))


def _list(read):
    """A reader of a list of items `read` reads, or of one item per reader of a tuple `read`."""
    if not isinstance(read, tuple):
        return lambda value, path: [read(item, _at(path, i))
                                    for i, item in enumerate(_typed(value, list, path))]

    def fixed(value, path):
        if not isinstance(value, list) or len(value) != len(read):
            raise SchemaError(path, f"expected a list of {len(read)} items")
        return tuple(r(item, _at(path, i)) for i, (r, item) in enumerate(zip(read, value)))
    return fixed


def _one_of(known, what):
    """A reader of a name that refers to one of the ids `known`."""
    def read(value, path):
        if _str(value, path) not in known:
            raise SchemaError(path, f"no {what} {value!r}")
        return value
    return read


def _distinct(read, key, what):
    """A reader of a list that `read` reads, whose items' ids at `key` are distinct."""
    def distinct(value, path):
        items, seen = read(value, path), set()
        for i, item in enumerate(value):
            if item[key] in seen:
                raise SchemaError(_at(_at(path, i), key), f"duplicate {what} id {item[key]!r}")
            seen.add(item[key])
        return items
    return distinct


def _object(read, known, what):
    """A reader of an object from ids `known` to values that `read` reads."""
    name = _one_of(known, what)
    return lambda value, path: {name(key, at := _at(path, key)): read(item, at)
                                for key, item in _typed(value, dict, path).items()}


def _document(**fixed):
    """Make a parser a reader of objects whose fields `fixed`, where present, have their values."""
    def wrap(parse):
        def read(doc, path=""):
            _typed(doc, dict, path)
            for key, value in fixed.items():
                if doc.get(key, value) != value:
                    raise SchemaError(_at(path, key), f"expected {key} {value!r}")
            return parse(doc, path)
        return read
    return wrap


def _made(path, build, *args, **kwargs):
    """Call a constructor (a value class, or `AffineMap.make` or
    `PartialAffineIso.make`) on parsed parts; the ValueError or
    GeometryError by which it rejects them is a schema error at `path`."""
    try:
        return build(*args, **kwargs)
    except (ValueError, GeometryError) as e:
        raise SchemaError(path, str(e))


# -- rationals, maps, regions ------------------------------------------------

def frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def parse_frac(s, path=""):
    """A rational, which documents write as a string."""
    try:
        return Fraction(_str(s, path))
    except (ValueError, ZeroDivisionError):
        raise SchemaError(path, f"not a rational: {s!r}")


def affine_doc(m: AffineMap):
    return {"matrix": [[frac_str(e) for e in row] for row in m.matrix],
            "offset": [frac_str(e) for e in m.offset]}


def parse_affine(doc, path=""):
    return _made(path, AffineMap.make, *_need(doc, path, matrix=_MATRIX, offset=_VECTOR))


def region_doc(r: Region):
    if r.dim == 1:
        pieces = [[frac_str(p.lo), frac_str(p.hi)] for p in r.pieces]
    else:
        pieces = [[[frac_str(x), frac_str(y)] for x, y in p.verts]
                  for p in r.pieces]
    return {"kind": "region", "dim": r.dim, "pieces": pieces}


def _interval_piece(pair, path):
    lo, hi = _POINT(pair, path)
    if lo >= hi:
        raise SchemaError(path, f"interval [{pair[0]}, {pair[1]}] is empty")
    return Interval.make(lo, hi)


def _polygon_piece(pts, path):
    pts = _VERTICES(pts, path)
    poly = Polygon.make(pts)
    if poly is None or sorted(pts) != sorted(poly.verts):
        raise SchemaError(path, "not the vertices of a convex polygon of positive area")
    return poly


@_document(kind="region")
def parse_region(doc, path):
    dim = doc.get("dim")
    if type(dim) is not int or dim not in _PIECES:
        raise SchemaError(_at(path, "dim"), "dimension must be 1 or 2")
    return Region(dim, *_need(doc, path, pieces=_PIECES[dim]))


# -- atlas side ---------------------------------------------------------------

def chart_doc(c: atl.Chart):
    return {"kind": "chart", "id": c.cid, "domain": region_doc(c.domain),
            "group": [affine_doc(g) for g in c.group]}


@_document(kind="chart")
def parse_chart(doc, path):
    return _made(path, atl.Chart, *_need(doc, path, id=_str, domain=parse_region, group=_MAPS))


def change_doc(ch: atl.ChangeOfCharts):
    return {"kind": "change", "src": ch.src, "dst": ch.dst,
            "map": affine_doc(ch.map), "dom": region_doc(ch.dom)}


@_document(kind="change")
def parse_change(doc, path):
    src, dst, m, dom = _need(doc, path, src=_str, dst=_str, map=parse_affine, dom=parse_region)
    return atl.ChangeOfCharts(src, dst, _made(path, PartialAffineIso.make, m, dom))


def atlas_doc(a: atl.Atlas):
    return {"kind": "atlas",
            "charts": [chart_doc(c) for c in a.charts],
            "generators": [change_doc(g) for g in a.generators]}


@_document(kind="atlas")
def parse_atlas(doc, path):
    return _made(path, atl.Atlas, *_need(doc, path, charts=_CHARTS, generators=_CHANGES))


def morphism_doc(m: atl.Morphism):
    return {"kind": "morphism",
            "source": atlas_doc(m.source), "target": atlas_doc(m.target),
            "chart_map": dict(m.chart_map),
            "lifts": {i: affine_doc(L) for i, L in m.lifts},
            "entries": [{"change": change_doc(e.change), "nu": change_doc(e.nu)}
                        for e in m.entries],
            "certificate": None if m.certificate is None else atlas_doc(m.certificate)}


@_document(kind="morphism")
def parse_morphism(doc, path):
    source, target = _need(doc, path, source=parse_atlas, target=parse_atlas)
    ids = source.chart_ids()
    chart_map = _object(_one_of(target.chart_ids(), "target chart"), ids, "source chart")
    return _made(path, atl.Morphism, source, target, *_need(
        doc, path, chart_map=chart_map, lifts=_object(parse_affine, ids, "source chart"),
        entries=_ENTRIES), certificate=_optional(doc, path, "certificate", parse_atlas))


def twocell_doc(c: atl.TwoCell):
    return {"kind": "2cell",
            "source": morphism_doc(c.source_morphism),
            "target": morphism_doc(c.target_morphism),
            "patches": {cid: [[region_doc(r), change_doc(ch)] for r, ch in items]
                        for cid, items in c.patches}}


@_document(kind="2cell")
def parse_twocell(doc, path):
    source, target = _need(doc, path, source=parse_morphism, target=parse_morphism)
    return _made(path, atl.TwoCell, source, target, *_need(
        doc, path, patches=_object(_PATCHES, source.source.chart_ids(), "source chart")))


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


def _family(item, path):
    fid, src, dst, m, dom = _FAMILY(item, path)
    return gpd.ArrowFamily(fid, src, dst, _made(path, PartialAffineIso.make, m, dom))


def _annotation(doc, path):
    [kind] = _need(doc, path, type=_ANNOTATION_TYPE)
    return _need(doc, path, **{kind: _ANNOTATIONS[kind]})[0]


@_document(kind="groupoid")
def parse_groupoid(doc, path):
    return _made(path, gpd.PresentedGroupoid,
                 *_need(doc, path, pieces=_GROUPOID_PIECES, families=_FAMILIES),
                 annotation=_optional(doc, path, "annotation", _annotation))


def gpd_morphism_doc(psi: gpd.GroupoidMorphism):
    return {"kind": "gpd_morphism",
            "source": groupoid_doc(psi.source), "target": groupoid_doc(psi.target),
            "object_map": {p: [q, affine_doc(m)] for p, (q, m) in psi.object_map},
            "family_map": dict(psi.family_map)}


@_document(kind="gpd_morphism")
def parse_gpd_morphism(doc, path):
    source, target = _need(doc, path, source=parse_groupoid, target=parse_groupoid)
    objects = _object(_list((_one_of(target.piece_ids(), "target piece"), parse_affine)),
                      source.piece_ids(), "source piece")
    families = _object(_one_of(target.family_ids(), "target family"),
                       source.family_ids(), "source family")
    return _made(path, gpd.GroupoidMorphism, source, target,
                 *_need(doc, path, object_map=objects, family_map=families))


def nat_transf_doc(a: gpd.NatTransf):
    return {"kind": "nat_transf",
            "source": gpd_morphism_doc(a.source_morphism),
            "target": gpd_morphism_doc(a.target_morphism),
            "assignments": {p: [[region_doc(r), fid] for r, fid in items]
                            for p, items in a.assignments}}


@_document(kind="nat_transf")
def parse_nat_transf(doc, path):
    source, target = _need(doc, path, source=parse_gpd_morphism, target=parse_gpd_morphism)
    items = _list(_list((parse_region, _one_of(source.target.family_ids(), "target family"))))
    return _made(path, gpd.NatTransf, source, target, *_need(
        doc, path, assignments=_object(items, source.source.piece_ids(), "source piece")))


# -- localized cells ----------------------------------------------------------

def span_doc(s: frc.Span):
    return {"kind": "span", "instance": "atlas",
            "middle": atlas_doc(s.middle),
            "left": morphism_doc(s.left), "right": morphism_doc(s.right)}


@_document(kind="span", instance="atlas")
def parse_span(doc, path):
    return frc.Span(*_need(doc, path, middle=parse_atlas, left=parse_morphism,
                           right=parse_morphism))


def fraction_cell_doc(c: frc.FractionCell):
    return {"kind": "fraction_cell", "instance": "atlas",
            "src_span": span_doc(c.src_span), "dst_span": span_doc(c.dst_span),
            "middle": atlas_doc(c.middle),
            "left_leg": morphism_doc(c.left_leg),
            "right_leg": morphism_doc(c.right_leg),
            "base": twocell_doc(c.base)}


@_document(kind="fraction_cell", instance="atlas")
def parse_fraction_cell(doc, path):
    return frc.FractionCell(*_need(
        doc, path, src_span=parse_span, dst_span=parse_span, middle=parse_atlas,
        left_leg=parse_morphism, right_leg=parse_morphism, base=parse_twocell))


def _validate_change(ch, bound):
    rep = Report("change")
    rep.note_undecided("a change of charts is validated against its atlas; "
                       "wrap it in an atlas document")
    return rep


# Each kind: its class, serializer, parser and validator `(value, bound) ->
# Report`; a region has no validator.
KINDS = {
    "region": (Region, region_doc, parse_region, None),
    "chart": (atl.Chart, chart_doc, parse_chart, lambda c, bound: atl.validate_chart(c)),
    "change": (atl.ChangeOfCharts, change_doc, parse_change, _validate_change),
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
    return KINDS[_need(doc, "", kind=_KIND)[0]][2](doc, "")


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
    import hashlib  # here, so that no other call loads OpenSSL
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


def _choice(item, path):
    """An entry `[sha256 of (f, w), square]` of a saved table, as a `(pair, square)` item."""
    digest, entry = _CHOICE(item, path)
    f, w, *square = _need(entry, _at(path, 1), f=parse_morphism, w=parse_morphism,
                          middle=parse_atlas, wleg=parse_morphism, fleg=parse_morphism,
                          cell=parse_twocell)
    if digest != _pair_hash(entry["f"], entry["w"]):
        raise SchemaError(_at(path, 0), "sha256 does not match the entry's key pair (f, w) "
                                        "(it does not cover the cached square)")
    return (f, w), tuple(square)


def load_choice_table(path: str) -> frc.ChoiceTable:
    table = frc.ChoiceTable()
    if os.path.exists(path):
        table.entries.update(*_need(_json(_read(path)), "", entries=_CHOICES))
    return table


# -- the readers that no document's ids enter --------------------------------

_VECTOR = _list(parse_frac)
_MATRIX = _list(_VECTOR)
_POINT = _list((parse_frac, parse_frac))
_VERTICES = _list(_POINT)
_PIECES = {1: _list(_interval_piece), 2: _list(_polygon_piece)}
_MAPS = _list(parse_affine)
_CHARTS, _CHANGES = _distinct(_list(parse_chart), "id", "chart"), _list(parse_change)
_ENTRIES = _list(lambda d, p: atl.PEntry(*_need(d, p, change=parse_change, nu=parse_change)))
_PATCHES = _list(_list((parse_region, parse_change)))
_REGIONS = _list(_list((_str, parse_region)))
_GROUPOID_PIECES = _distinct(_REGIONS, 0, "piece")
_FAMILY = _list((_str, _str, _str, parse_affine, parse_region))
_FAMILIES = _distinct(_list(_family), 0, "family")
# what a groupoid presents: an atlas, or a cover by its pieces
_ANNOTATIONS = {"atlas": parse_atlas, "cover": lambda value, path: tuple(_REGIONS(value, path))}
_ANNOTATION_TYPE = _one_of(_ANNOTATIONS, "annotation type")
_KIND = _one_of(KINDS, "kind")
_CHOICE = _list((_str, lambda value, path: value))
_CHOICES = _list(_choice)


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
    rep = Report("classification")
    if cls.label == "undecided":
        rep.undecided = notes
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


# Each command: its help, its positionals `(name, type, choices)` and its
# options `(flag, type, choices, default)`; an option whose default is
# _REQUIRED must be given.  `run` calls the command's `cmd_<name>`.
_REQUIRED = object()
_FILE = ("file", str, None)
_PAIR = (("first", str, None), ("second", str, None))
COMMANDS = {
    "validate": ("validate a document", (_FILE,), ()),
    "compose": ("compose two cells (g after f)", _PAIR,
                (("--mode", str, ("morphism", "vertical", "horizontal"), "morphism"),)),
    "fred": ("apply the structure functor", (("level", int, (0, 1, 2)), _FILE), ()),
    "morita": ("Morita-equivalence check", (_FILE,), ()),
    "classify": ("classify a morphism", (_FILE,), ()),
    "bf-check": ("check a fraction axiom", (("instance", str, ("atlas", "groupoid")),),
                 (("--axiom", int, (1, 2, 3, 4, 5), _REQUIRED),)),
    "localize-compose": ("compose two spans; --choices names a choice table file, "
                         "created on demand", _PAIR, (("--choices", str, None, None),)),
    "cell-equal": ("equality of fraction 2-cells", _PAIR, ()),
    "equiv-report": ("equivalence criteria over the catalog", (), ()),
}
# the command line up to its command, in the same form
_TOP = ("exact orbifold-atlas 2-category toolkit; --bound is the word bound "
        "for pseudogroup closures", (("command", str, tuple(COMMANDS)),),
        (("--bound", int, None, atl.WORD_BOUND),))


def _usage(name):
    """The usage line of the command `name`, or of the whole line for ''."""
    _, positionals, options = COMMANDS[name] if name else _TOP

    def metavar(label, choices):
        return label if choices is None else "{" + ",".join(map(str, choices)) + "}"
    words = ["usage: orbatlas", name, "[-h]"]
    for flag, _, choices, default in options:
        word = f"{flag} {metavar(flag[2:].upper(), choices)}"
        words.append(word if default is _REQUIRED else f"[{word}]")
    words += [metavar(label, choices) for label, _, choices in positionals]
    return " ".join(filter(None, words)) + ("" if name else " ...")


def _help(name):
    about = (COMMANDS[name] if name else _TOP)[0]
    lines = [_usage(name), "", about]
    if not name:
        lines += ["", "commands:"] + [f"  {c:<17} {h}" for c, (h, _, _) in COMMANDS.items()]
    print("\n".join(lines))


def _misuse(name, message):
    """Print the usage of `name` to stderr.  Misuse is a schema error, exit
    3: exit 2 means undecided here."""
    print(_usage(name), file=sys.stderr)
    raise SchemaError("", f"usage: {message}")


def _flag(token):
    """Whether `token` is written as an option: a leading '-' that does not
    begin a negative number, so that `--bound -1` reads -1 as its value."""
    return len(token) > 1 and token[0] == "-" and not token[1:].isdecimal() and " " not in token


def _value(name, spec, token):
    label, kind, choices = spec[:3]
    try:
        value = kind(token)
    except ValueError:
        _misuse(name, f"argument {label}: invalid {kind.__name__} value: {token!r}")
    if choices is not None and value not in choices:
        _misuse(name, f"argument {label}: invalid choice: {value!r} "
                      f"(choose from {', '.join(map(repr, choices))})")
    return value


def read_argv(argv):
    """The fields of the command line `argv`: `--bound` before the command,
    then the command's positionals and options in any order, an option's
    value as `--flag value` or `--flag=value`.  Flags are not abbreviated.
    Returns None once -h has printed its help.  Misuse prints a usage line
    to stderr and is a schema error: a bad or missing value as it is read,
    an unknown flag or an extra positional once the line is read."""
    def enter(spec):
        """The positionals still wanted and the options of `spec`, whose defaults it sets."""
        _, positionals, options = spec
        fields.update((flag[2:], default) for flag, _, _, default in options)
        return list(positionals), options

    fields, unread, tokens = {}, [], iter(argv)
    name, (wanted, options) = "", enter(_TOP)
    for token in tokens:
        if token in ("-h", "--help"):
            _help(name)
            return None
        if not _flag(token):
            if not wanted:
                unread.append(token)
                continue
            spec = wanted.pop(0)
            fields[spec[0]] = _value(name, spec, token)
            if not name:  # the command: the tokens that follow are its own
                name, (wanted, options) = token, enter(COMMANDS[token])
            continue
        flag, eq, value = token.partition("=")
        spec = next((o for o in options if o[0] == flag), None)
        if spec is None:
            unread.append(token)
            continue
        if not eq:
            value = next(tokens, None)
            if value is None or _flag(value):
                _misuse(name, f"argument {flag}: expected one argument")
        fields[flag[2:]] = _value(name, spec, value)
    missing = [label for label, *_ in wanted]
    missing += [flag for flag, *_ in options if fields[flag[2:]] is _REQUIRED]
    if missing:
        _misuse(name, f"the following arguments are required: {', '.join(missing)}")
    if unread:
        _misuse("", f"unrecognized arguments: {' '.join(unread)}")
    if fields["bound"] < 0:
        _misuse("", f"argument --bound: the word bound must be >= 0, not {fields['bound']}")
    return SimpleNamespace(**fields)


def run(argv=None) -> int:
    try:
        args = read_argv(sys.argv[1:] if argv is None else argv)
        if args is None:
            return 0
        return globals()[f"cmd_{args.command.replace('-', '_')}"](args)
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
