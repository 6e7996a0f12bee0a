"""The germ-agreement equalities against the loops they replaced.

`equal_morphisms`, `equal_2cells` and `equal_nat_transfs` decide germ
agreement through `geometry.clashes`.  The references below are the
earlier hand-written loops, kept verbatim, and the two must agree on every
pair of parallel cells of the catalog, of its `fred` images and of both
depth-2 universes.  On those cells the germs never clash where the ends
are equal, so each list also holds transplants: a cell with the ends of
one cell and the entries, patches or assignments of a parallel one, on
which the loops decide.

`merge_atlases` returns an input when the other adds nothing; its body
before that shortcut is the reference on every pair of the atlases and
certificates of the catalog and of a BF3 run."""

import itertools

from orbatlas import atlas as atl
from orbatlas import cli
from orbatlas import fractions as frc
from orbatlas import fred as frd
from orbatlas import groupoid as gpd
from orbatlas.atlas import WORD_BOUND
from orbatlas.fixtures import MORPHISMS, catalog_2cells


def _reference_equal_morphisms(a, b):
    if a.source != b.source or a.target != b.target:
        return False
    if a.chart_map != b.chart_map or a.lifts != b.lifts:
        return False
    for e1 in a.entries:
        for e2 in b.entries:
            if (e1.change.src, e1.change.dst) != (e2.change.src, e2.change.dst):
                continue
            if e1.change.map != e2.change.map or e1.nu.map == e2.nu.map:
                continue
            if not e1.change.dom.intersect(e2.change.dom).is_empty():
                return False
    return True


def _reference_equal_2cells(a, b):
    if not (_reference_equal_morphisms(a.source_morphism, b.source_morphism)
            and _reference_equal_morphisms(a.target_morphism, b.target_morphism)):
        return False
    for i in {cid for cid, _ in a.patches} | {cid for cid, _ in b.patches}:
        for r1, c1 in a.patches_at(i):
            for r2, c2 in b.patches_at(i):
                if c1.map != c2.map and not r1.intersect(r2).is_empty():
                    return False
    return True


def _reference_equal_nat_transfs(a, b):
    if not (gpd.equal_gpd_morphisms(a.source_morphism, b.source_morphism)
            and gpd.equal_gpd_morphisms(a.target_morphism, b.target_morphism)):
        return False
    for pid in {p for p, _ in a.assignments} | {p for p, _ in b.assignments}:
        for r1, f1 in a.at(pid):
            for r2, f2 in b.at(pid):
                if not r1.intersect(r2).is_empty():
                    m1 = a.source_morphism.target.family(f1).map
                    m2 = b.source_morphism.target.family(f2).map
                    if m1 != m2:
                        return False
    return True


def _ends(x):
    """The 0-cells a 1-cell or a 2-cell runs between."""
    one = getattr(x, "source_morphism", x)
    return one.source, one.target


def _parallel(cells):
    return [(a, b) for a, b in itertools.product(cells, repeat=2) if _ends(a) == _ends(b)]


def _with_transplants(cells, field):
    """The cells, and each cell with `field` taken from a parallel one."""
    cells = list(dict.fromkeys(cells))
    return list(dict.fromkeys(
        cells + [a.__replace__(**{field: getattr(b, field)})
                 for a, b in _parallel(cells)]))


def _agree(new, reference, cells):
    """The two agree on every parallel pair, and both outcomes occur."""
    seen = set()
    for a, b in _parallel(cells):
        want = reference(a, b)
        assert new(a, b) is want, (a, b)
        seen.add(want)
    return seen == {True, False}


def _atlas_cells():
    ms = [m for _, m in sorted(MORPHISMS.items())]
    _, uni = cli._builtin_universe("atlas", WORD_BOUND)
    ones = ms + [m for _, m in uni.cells]
    cells = list(catalog_2cells().values())
    twos = cells + [atl.invert_2cell(c) for c in cells] + [atl.identity_2cell(m) for m in ones]
    return _with_transplants(ones, "entries"), _with_transplants(twos, "patches")


def test_equal_morphisms_agrees_with_the_reference():
    ones, _ = _atlas_cells()
    assert _agree(atl.equal_morphisms, _reference_equal_morphisms, ones)


def test_equal_2cells_agrees_with_the_reference():
    _, twos = _atlas_cells()
    assert _agree(atl.equal_2cells, _reference_equal_2cells, twos)


def test_equal_nat_transfs_agrees_with_the_reference():
    _, uni = cli._builtin_universe("groupoid", WORD_BOUND)
    ones = [frd.fred1(m, WORD_BOUND) for _, m in sorted(MORPHISMS.items())]
    ones += [m for _, m in uni.cells]
    cells = list(catalog_2cells().values())
    cells += [atl.invert_2cell(c) for c in cells]
    nts = [frd.fred2(c, WORD_BOUND) for c in cells] + [gpd.identity_nat_transf(m) for m in ones]
    assert _agree(gpd.equal_nat_transfs, _reference_equal_nat_transfs,
                  _with_transplants(nts, "assignments"))


# -- merge_atlases against its body before the shortcut -----------------------

def _reference_merge_atlases(a, b):
    if not a.charts:
        return b
    if not b.charts:
        return a
    if a.dim != b.dim:
        return None
    charts = {c.cid: c for c in a.charts}
    for c in b.charts:
        if c.cid in charts and charts[c.cid] != c:
            return None
        charts[c.cid] = c
    gens = dict.fromkeys(a.generators + b.generators)
    return atl.Atlas(tuple(charts.values()), tuple(gens))


def _bf3_atlases():
    """The atlases and certificates of the catalog, of the depth-2 atlas
    universe and of the squares that BF3 chooses on one slice of it."""
    ops, uni = cli._builtin_universe("atlas", WORD_BOUND)
    table = frc.ChoiceTable()
    assert frc.check_bf(ops, 3, frc.Universe(uni.objects, uni.cells[::8]), table).ok
    ones = list(MORPHISMS.values()) + [m for _, m in uni.cells]
    for (f, w), (_, wp, fp, _) in table.entries.items():
        ones += [f, w, wp, fp]
    atlases = [a for _, a in uni.objects]
    for m in ones:
        atlases += [m.source, m.target, m.certificate]
    return list(dict.fromkeys(a for a in atlases if a is not None))


def test_merge_atlases_is_the_reference_merge():
    atlases = _bf3_atlases()
    kinds = set()
    for a, b in itertools.product(atlases, repeat=2):
        got = atl.merge_atlases(a, b)
        assert got is _reference_merge_atlases(a, b), (a, b)
        kinds.add("none" if got is None else "input" if got in (a, b) else "new")
    assert kinds == {"none", "input", "new"}
