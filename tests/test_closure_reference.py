"""The semi-naive closure against a naive reference.

`_reference` is the naive round loop: every round steps every family with
every generating letter and stops when a whole round changes nothing.
`atlas.closure` steps only the families the previous round grew; it must
return the same families, in the same dict insertion order at both levels,
with the same region pieces, `complete` and `overflowed`, for every bound
and family cap.

The inputs are the catalog atlases, the shifted trivial atlas, a chart of
shifts whose closure enlarges a family, the source/target merge of every
catalog morphism, and every atlas that `pullback_square` closes on the
parallel pools of the acceptance suite, plus the pushforwards of catalog
atlases along random rational affine maps.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from orbatlas import atlas as atl
from orbatlas.atlas import (
    WORD_BOUND,
    Atlas,
    ChangeOfCharts,
    Chart,
    merge_atlases,
)
from orbatlas.fixtures import ATLASES, EXPECTED_CLASS, ID1, MORPHISMS, TRIV_SHIFTED
from orbatlas.geometry import AffineMap, Region, aff1
from test_acceptance import _parallel_pools

M = MORPHISMS
BOUNDS = (0, 1, 2, 3, 4, 6)
CAPS = (8, 24, 256)


def _reference(atlas, bound, cap):
    """The naive bounded closure: (families, complete, overflowed)."""
    seeds = atl._seed_families(atlas)
    letters = {}
    for src, dst, m, dom in seeds:
        letters.setdefault(src, []).append((dst, m, dom))
    fams = {}

    def absorb(src, dst, m, region):
        by_map = fams.setdefault((src, dst), {})
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

    for s in seeds:
        absorb(*s)
    complete = overflowed = False
    for _ in range(bound):
        changed = False
        snapshot = [(src, dst, m, reg)
                    for (src, dst), by_map in fams.items()
                    for m, reg in by_map.items()]
        for src, mid, m1, d1 in snapshot:
            for dst, m2, d2 in letters.get(mid, ()):
                dom = d1.preimage_under(m1, d2)
                if not dom.is_empty():
                    changed |= absorb(src, dst, m2.compose(m1), dom)
        if sum(len(v) for v in fams.values()) > cap:
            overflowed = True
            break
        if not changed:
            complete = True
            break
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


@pytest.fixture(scope="module")
def atlases():
    out = dict(ATLASES)
    out["TRIV_SHIFTED"] = TRIV_SHIFTED
    out["STAIRS"] = STAIRS
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
    if cap == min(CAPS):
        assert (False, True) in outcomes


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
