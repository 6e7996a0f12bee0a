"""The semi-naive closure against a naive reference.

`_reference` is the naive round loop, run one source chart at a time in
seed order: every round steps every family of the source with every
generating letter, and the source stops when a whole round changes nothing
or its families exceed the cap.  `atlas.closure` closes a source when a
family of it is first read, and steps only the families the previous round
grew; it must return the same families, in the same dict insertion order at
both levels, with the same region pieces, `complete` and `overflowed`, for
every bound and family cap.

The inputs are the catalog atlases, the shifted trivial atlas, a chart of
shifts whose closure enlarges a family, a chart of shifts that overflows
`FAMILY_CAP`, two charts of shifts whose families exceed it together but
not one by one, an invalid plane atlas whose identity letters change the
pieces of a family, the source/target merge of every catalog morphism,
every atlas that `pullback_square` closes on the parallel pools of the
acceptance suite, and the search atlases that the connecting and
cancelling 2-cells close during one pentagon of the localized coherence,
plus the pushforwards of catalog atlases along random rational affine maps.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from orbatlas import atlas as atl
from orbatlas import fractions as frc
from orbatlas.atlas import (
    FAMILY_CAP,
    WORD_BOUND,
    Atlas,
    ChangeOfCharts,
    Chart,
    merge_atlases,
)
from orbatlas.fixtures import ATLASES, EXPECTED_CLASS, ID1, MIRROR_REF, MORPHISMS, TRIV_SHIFTED
from orbatlas.geometry import AffineMap, PartialAffineIso, Polygon, Region, aff1, aff2
from test_acceptance import _parallel_pools

M = MORPHISMS
BOUNDS = (0, 1, 2, 3, 4, 6)
CAPS = (8, 24, 256)


def _reference(atlas, bound, cap):
    """The naive bounded closure, one source chart at a time in seed order,
    with the cap counted per source: (families, complete, overflowed)."""
    seeds = atl._seed_families(atlas)
    letters = {}
    for src, dst, m, dom in seeds:
        letters.setdefault(src, []).append((dst, m, dom))
    fams = {}

    def absorb(own, src, dst, m, region):
        by_map = own.setdefault((src, dst), {})
        cur = by_map.get(m)
        if cur is None:
            if region.is_empty():
                return False
            by_map[m] = region
            return True
        new = cur.union(region)
        if new == cur:
            return False
        by_map[m] = new
        return True

    # an atlas without seeds has no source, and stabilizes in round one
    complete, overflowed = bound > 0, False
    for source in dict.fromkeys(src for src, _, _, _ in seeds):
        own = {}
        for s in seeds:
            if s[0] == source:
                absorb(own, *s)
        stable = False
        for _ in range(bound):
            changed = False
            snapshot = [(src, dst, m, reg)
                        for (src, dst), by_map in own.items()
                        for m, reg in by_map.items()]
            for src, mid, m1, d1 in snapshot:
                for dst, m2, d2 in letters.get(mid, ()):
                    dom = d1.preimage_under(m1, d2)
                    if not dom.is_empty():
                        changed |= absorb(own, src, dst, m2.compose(m1), dom)
            if sum(len(v) for v in own.values()) > cap:
                overflowed = True
                break
            if not changed:
                stable = True
                break
        complete = complete and stable
        fams.update(own)
    return fams, complete, overflowed


def _ordered(fams):
    """Families in dict insertion order at both levels, regions as pieces."""
    return [(key, [(m, reg.pieces) for m, reg in by_map.items()])
            for key, by_map in fams.items()]


def _same_as_reference(atlas, bound, cap):
    cl = atl.closure.__wrapped__(atlas, bound)
    fams, complete, overflowed = _reference(atlas, bound, cap)
    assert _ordered(cl.families) == _ordered(fams)
    assert (cl.complete, cl.overflowed) == (complete, overflowed)
    return cl


def _shift(t, lo):
    return ChangeOfCharts.make("T", "T", aff1(1, t), Region.interval(lo, lo + 1))


# Shifts of one chart.  Round 1 enlarges the seeded family of x + 2 from
# (1,2) to (0,1) u (1,2), and only the new piece continues with x + 5 in
# round 2: a closure that stepped inserted families but not enlarged ones
# would miss x + 7.  No catalog atlas enlarges a family in a way that matters.
STAIRS = Atlas([Chart("T", Region.interval(0, 10), [ID1])],
               [_shift(1, 0), _shift(1, 1), _shift(2, 1), _shift(5, 2)])


def _shifts(cid, lo, primes):
    """A chart (lo, lo + 1000) with the shifts x + 1/p as generators."""
    return ([Chart(cid, Region.interval(lo, lo + 1000), [ID1])],
            [ChangeOfCharts.make(cid, cid, aff1(1, Fraction(1, p)),
                                 Region.interval(lo, lo + 1000 - Fraction(1, p)))
             for p in primes])


# The chart of shifts of `tests/test_cli.py::test_overflowed_closure_is_undecided`:
# its one source exceeds FAMILY_CAP from word bound 2 on.
SHIFTS = Atlas(*_shifts("T", 0, (2, 3, 5, 7, 11, 13)))

# Two charts of shifts, each of whose sources holds 155 families at word
# bound 5 (310 together): under FAMILY_CAP one by one, over it together.
_T, _U = _shifts("T", 0, (2, 3, 5)), _shifts("U", 2000, (2, 3, 5))
SHIFT_PAIR = Atlas(_T[0] + _U[0], _T[1] + _U[1])


def _box(x0, y0, x1, y1):
    return Polygon.make([(x0, y0), (x1, y0), (x1, y1), (x0, y1)])


# An invalid plane atlas: the generator A -> B carries the overlapping boxes
# p' = (0,2)x(0,1) and p = (1,3)x(0,2), whose union is not convex, past the
# top of B.  The identity of B clips p to q = (1,3)x(0,1), and the union of
# the family with q merges p' and q into (0,3)x(0,1): the same set in other
# pieces.  A closure that left out the identity letters of a plane atlas
# would keep p' and p.
_ID2 = aff2([[1, 0], [0, 1]])
CLIPPED = Atlas(
    [Chart("A", Region(2, [_box(0, 0, 3, 2)]), [_ID2]),
     Chart("B", Region(2, [_box(10, 0, 13, 1)]), [_ID2])],
    [ChangeOfCharts("A", "B", PartialAffineIso(aff2([[1, 0], [0, 1]], (10, 0)),
                                                Region(2, [_box(0, 0, 2, 1),
                                                           _box(1, 0, 3, 2)])))])


def _pentagon_search_atlases():
    """The search atlases that `unique_2cell_open_embeddings` and
    `cancel_refinement_cell` close while one pentagon of the localized
    coherence is checked: the chart copies of the chosen squares make them
    the largest closures of that check, several are incomplete at the word
    bound and one overflows the family cap."""
    ops, table = frc.atlas_ops(), frc.ChoiceTable()
    legs = frc.Span(MIRROR_REF, M["leg1_MR_M"], M["leg2_MR_M"])
    s4, s3, s2, s1 = (legs, *(frc.universal_embed(ops, M[n])
                              for n in ("leg1_MR_M", "incl_M_MR", "flip_M")))
    closed, inside = {}, []
    closure = atl.closure

    def spy(a, bound):
        if inside:
            closed.setdefault(a, None)
        return closure(a, bound)

    def within(fn):
        def run(*args):
            inside.append(fn)
            try:
                return fn(*args)
            finally:
                inside.pop()
        return run

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(atl, "closure", spy)
        # the memo of the connecting 2-cells would hide their closures
        mp.setattr(atl, "unique_2cell_open_embeddings",
                   within(atl.unique_2cell_open_embeddings.__wrapped__))
        mp.setattr(atl, "cancel_refinement_cell", within(atl.cancel_refinement_cell))
        a434 = frc.associator(ops, table, s4, s3, s2)
        a321 = frc.associator(ops, table, s3, s2, s1)
        s21 = frc.compose_spans(ops, table, s2, s1)
        s32 = frc.compose_spans(ops, table, s3, s2)
        lhs = frc.vertical_compose_cells(
            ops,
            frc.horizontal_compose_cells(ops, table, frc.identity_fraction_cell(ops, s4), a321),
            frc.vertical_compose_cells(
                ops, frc.associator(ops, table, s4, s32, s1),
                frc.horizontal_compose_cells(ops, table, a434,
                                             frc.identity_fraction_cell(ops, s1))))
        rhs = frc.vertical_compose_cells(
            ops, frc.associator(ops, table, s4, s3, s21),
            frc.associator(ops, table, frc.compose_spans(ops, table, s4, s3), s2, s1))
        assert frc.cell_equal(ops, lhs, rhs) is True
    outcomes = [(cl.complete, cl.overflowed)
                for cl in (closure(a, WORD_BOUND) for a in closed)]
    assert (False, False) in outcomes
    return list(closed)


@pytest.fixture(scope="module")
def atlases():
    out = dict(ATLASES)
    out["TRIV_SHIFTED"] = TRIV_SHIFTED
    out["STAIRS"] = STAIRS
    out["SHIFTS"] = SHIFTS
    out["SHIFT_PAIR"] = SHIFT_PAIR
    out["CLIPPED"] = CLIPPED
    for name, m in sorted(M.items()):
        out[f"merge:{name}"] = merge_atlases(m.source, m.target)
    closed = {}
    closure = atl.closure

    def spy(a, bound):
        closed.setdefault(a, None)
        return closure(a, bound)

    refinements = [m for n, m in sorted(M.items()) if EXPECTED_CLASS[n] == "refinement"]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(atl, "closure", spy)
        for pool in _parallel_pools().values():
            for f in pool:
                for w in refinements:
                    if w.target == f.target:
                        atl.pullback_square.__wrapped__(f, w, WORD_BOUND)
    assert closed
    for k, a in enumerate(closed):
        out[f"square:{k}"] = a
    for k, a in enumerate(_pentagon_search_atlases()):
        out[f"pentagon:{k}"] = a
    return out


@pytest.mark.parametrize("cap", CAPS)
def test_closure_matches_naive_reference(atlases, cap, monkeypatch):
    monkeypatch.setattr(atl, "FAMILY_CAP", cap)
    outcomes = set()
    for atlas in atlases.values():
        for bound in BOUNDS:
            cl = _same_as_reference(atlas, bound, cap)
            outcomes.add((cl.complete, cl.overflowed))
    # both exits of the round loop, and the bound running out, are exercised
    assert (False, False) in outcomes and (True, False) in outcomes
    # the cap is hit at the smallest cap, and at FAMILY_CAP itself by SHIFTS
    if cap in (min(CAPS), FAMILY_CAP):
        assert (False, True) in outcomes


def test_the_cap_bounds_each_source():
    """SHIFT_PAIR's two sources hold 155 families each at word bound 5:
    more than FAMILY_CAP together, so the cap is counted per source."""
    cl = _same_as_reference(SHIFT_PAIR, 5, atl.FAMILY_CAP)
    assert [len(cl.maps(c, c)) for c in ("T", "U")] == [155, 155]
    assert cl.count() > atl.FAMILY_CAP
    assert not cl.overflowed and not cl.complete


def _largest_pentagon_atlas(atlases):
    return max((a for name, a in atlases.items() if name.startswith("pentagon:")),
               key=lambda a: len(a.charts))


def test_a_read_closes_only_its_source(atlases, monkeypatch):
    """`maps` closes the source chart it reads and nothing else; a whole
    read closes every other source, each once."""
    closed = []
    close = atl.Pseudogroup._close

    def spy(self, src):
        closed.append(src)
        return close(self, src)

    monkeypatch.setattr(atl.Pseudogroup, "_close", spy)
    a = _largest_pentagon_atlas(atlases)
    src, dst = a.charts[-1].cid, a.charts[0].cid
    cl = atl.closure.__wrapped__(a, WORD_BOUND)
    cl.maps(src, dst)
    cl.maps(src, src)
    assert closed == [src]
    cl.families
    assert closed[0] == src and sorted(closed) == sorted(a.chart_ids())


def _whole(cl):
    return _ordered(cl.families), cl.items(), cl.count(), cl.complete, cl.overflowed


@pytest.mark.parametrize("name", ["MIRROR_REF", "STAIRS", "CLIPPED", "SHIFT_PAIR", "pentagon"])
def test_whole_reads_do_not_depend_on_the_first_read(atlases, name):
    """`families` and `items()` are the same whichever source chart is read
    first: the first, a middle or the last chart."""
    a = _largest_pentagon_atlas(atlases) if name == "pentagon" else atlases[name]
    want = _whole(atl.closure.__wrapped__(a, WORD_BOUND))
    ids = a.chart_ids()
    for cid in dict.fromkeys((ids[0], ids[len(ids) // 2], ids[-1])):
        cl = atl.closure.__wrapped__(a, WORD_BOUND)
        cl.maps(cid, cid)
        assert _whole(cl) == want


_entry = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))


@st.composite
def _pushforwards(draw):
    a = ATLASES[draw(st.sampled_from(sorted(ATLASES)))]
    n = a.dim
    matrix = [[draw(_entry) for _ in range(n)] for _ in range(n)]
    h = AffineMap.make(matrix, [draw(_entry) for _ in range(n)])
    assume(h.is_invertible())
    pushed, _ = atl.pushforward(a, h, WORD_BOUND)
    return a, pushed


@settings(max_examples=100, deadline=None)
@given(_pushforwards())
def test_pushforward_closure(pair):
    """A pushforward along a rational affine map conjugates every closure
    word: the closure matches the reference and has the source's shape."""
    a, pushed = pair
    for bound in (1, 2, 4):
        cl = _same_as_reference(pushed, bound, atl.FAMILY_CAP)
        ref = atl.closure(a, bound)
        assert (cl.complete, cl.overflowed, cl.count()) == (
            ref.complete, ref.overflowed, ref.count())
