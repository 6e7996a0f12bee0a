"""`classify_morphism` against the classification that closes first.

`_reference` is the classification as it was before seed-level
certification: it closes the certificate at the full bound, and the source
and target at the full bound, before it reads any of them.
`atlas.classify_morphism` tries the identity base on the seed families
first and closes the source only for `_fully_faithful`; it must give the
same `Classification` object on every input.

The inputs are the catalog morphisms, every cell of the depth-2 atlas
universe, and the `w'` and `f'` of every pullback square along a catalog
refinement on the parallel pools of the acceptance suite.
"""

import pytest

from orbatlas import atlas as atl
from orbatlas import fractions as frc
from orbatlas.atlas import WORD_BOUND, Classification, merge_atlases
from orbatlas.fixtures import ATLASES, EXPECTED_CLASS, MORPHISMS, TRIV_SHIFTED
from test_acceptance import _parallel_pools

M = MORPHISMS


def _reference(m, bound):
    """The classification that closes the certificate, the source and the
    target at `bound` before reading them."""
    notes = []
    if not m.is_etale():
        return Classification("general", ("a lift is not an open embedding",))
    cert = m.certificate or merge_atlases(m.source, m.target)
    ident = False
    if cert is not None:
        ccl = atl.closure(cert, bound)
        ident = True
        for i, L in m.lifts:
            got = ccl.covered(i, m.chart_image(i), L, m.source.chart(i).domain)
            if got is not True:
                ident = got
                break
        if ident is None:
            notes.append("identity-base certification undecided at this bound")
    scl, tcl = atl.closure(m.source, bound), atl.closure(m.target, bound)
    surj, wit_s = atl._essentially_surjective(m, tcl)
    if ident is True and surj is True:
        return Classification("refinement")
    full, wit_f = atl._fully_faithful(m, tcl, scl)
    if full is True and surj is True:
        return Classification("weak_equivalence", tuple(notes))
    if full is True and surj is False:
        return Classification("open_embedding", tuple(notes), wit_s)
    if full is False:
        return Classification("general", tuple(notes), wit_f)
    notes.append("word bound exhausted before the coarse conditions were settled")
    return Classification("undecided", tuple(notes))


def _squares():
    """(f, w, D, w', f', alpha) of every pullback square along a catalog
    refinement on the parallel pools."""
    refinements = [m for n, m in sorted(M.items()) if EXPECTED_CLASS[n] == "refinement"]
    return [(f, w, *atl.pullback_square(f, w, WORD_BOUND))
            for pool in _parallel_pools().values() for f in pool
            for w in refinements if w.target == f.target]


def _same_as_reference(m, bound):
    got = atl.classify_morphism.__wrapped__(m, bound)
    assert got is _reference(m, bound), (m.chart_map, bound)
    return got


@pytest.mark.parametrize("bound", (0, 1, 2, WORD_BOUND))
def test_catalog_morphisms(bound):
    labels = set()
    for name, m in sorted(M.items()):
        got = _same_as_reference(m, bound)
        labels.add(got.label)
        if bound == WORD_BOUND:
            assert got.label == EXPECTED_CLASS[name], name
    if bound == 0:
        # at bound 0 no closure is complete: a verdict that needs one is undecided
        assert "undecided" in labels


def test_depth2_universe_cells():
    objects = sorted(ATLASES.items()) + [("TRIV_SHIFTED", TRIV_SHIFTED)]
    universe = frc.depth2_universe(frc.atlas_ops(), objects, sorted(M.items()))
    labels = {_same_as_reference(m, WORD_BOUND).label for _, m in universe.cells}
    assert {"refinement", "weak_equivalence", "open_embedding"} <= labels


def test_pullback_square_legs():
    squares = _squares()
    assert squares
    for *_, w_prime, f_prime, _alpha in squares:
        assert _same_as_reference(w_prime, WORD_BOUND).label == "refinement"
        _same_as_reference(f_prime, WORD_BOUND)


def test_square_refinement_is_certified_by_its_seeds(monkeypatch):
    """A square's `w'` is certified by its generators `did -> c1`: its
    certificate is closed at bound 0 only, and its source not at all."""
    squares = _squares()
    calls = []
    closure = atl.closure

    def spy(atlas, bound):
        calls.append((atlas, bound))
        return closure(atlas, bound)

    monkeypatch.setattr(atl, "closure", spy)
    for *_, w_prime, _f_prime, _alpha in squares:
        calls.clear()
        assert atl.classify_morphism.__wrapped__(w_prime, WORD_BOUND).label == "refinement"
        assert (w_prime.certificate, 0) in calls
        assert (w_prime.certificate, WORD_BOUND) not in calls
        assert (w_prime.source, WORD_BOUND) not in calls
