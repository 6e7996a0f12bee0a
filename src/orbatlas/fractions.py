"""Right bicalculus of fractions over a 2-category with a distinguished
arrow class W.

The engine is generic over an operation bundle (`TwoCatOps`); two instances
are provided, one localizing atlases at refinements and one localizing
presented groupoids at Morita equivalences.  1-cells of the localized
bicategory are spans (middle, W-leg, arrow leg); 2-cells are classes of
filled squares in the simplified shape (middle, two W-legs, base 2-cell),
the remaining filler being unique.  Composition of spans goes through
chosen squares recorded in a persistent choice table keyed by the values of
the 1-cells, with the two forced choices that make identity spans strict
units.
"""

from __future__ import annotations

import itertools

from . import atlas as atl
from . import fred as frd
from . import groupoid as gpd
from .memo import interned, memo
from .reports import ComposabilityError, NoSuchCellError, Report, UndecidedError


class TwoCatOps:
    """Operation bundle of a 2-category with a distinguished class W.  The
    engine reads endpoints off the cells: a 1-cell's `source` and `target`,
    a 2-cell's `source_morphism` and `target_morphism`.

    `is_w` gives a bool, or None when undecided; `square(f, w in W)` gives
    (D, w', f', invertible 2-cell); `connect2` the unique 2-cell between
    parallel W-composites; `cancel(v in W, x, y, cell: v x => v y)` the
    2-cell x => y."""

    def __init__(self, name, compose1, id1, eq1, id2, comp2v, comp2h, inv2, eq2,
                 validate2, is_w, square, connect2, cancel):
        self.name, self.compose1, self.id1, self.eq1 = name, compose1, id1, eq1
        self.id2, self.comp2v, self.comp2h, self.inv2 = id2, comp2v, comp2h, inv2
        self.eq2, self.validate2, self.is_w = eq2, validate2, is_w
        self.square, self.connect2, self.cancel = square, connect2, cancel

    def cell_key(self, cell):
        """A 1-cell as a dict key: the value itself, which holds its
        endpoints and, for an atlas morphism, its certificate.
        perfbench/tracer.py counts distinct W-tests by it."""
        return cell

    def whisker_left(self, g, cell):
        """i_g * cell."""
        return self.comp2h(self.id2(g), cell)

    def whisker_right(self, cell, f):
        """cell * i_f."""
        return self.comp2h(cell, self.id2(f))


def atlas_ops(bound: int = atl.WORD_BOUND) -> TwoCatOps:
    """The atlas instance, with its closures at word bound `bound`."""
    return TwoCatOps(
        name="atlas/refinements",
        compose1=atl.compose_morphisms,
        id1=lambda a: atl.identity_morphism(a, bound),
        eq1=atl.equal_morphisms,
        id2=atl.identity_2cell,
        comp2v=atl.vertical_compose,
        comp2h=atl.horizontal_compose,
        inv2=atl.invert_2cell,
        eq2=atl.equal_2cells,
        validate2=lambda c: atl.validate_2cell(c, bound),
        is_w=lambda m: _atlas_is_w(m, bound),
        square=lambda f, w: atl.pullback_square(f, w, bound),
        connect2=lambda x, y: atl.unique_2cell_open_embeddings(x, y, bound),
        cancel=lambda v, x, y, cell: atl.cancel_refinement_cell(v, x, y, cell, bound),
    )


def _atlas_is_w(m, bound):
    label = atl.classify_morphism(m, bound).label
    if label == "undecided":
        return None
    return label == "refinement"


@memo
def _gpd_is_w(m):
    """Whether a groupoid morphism is a Morita equivalence.  Memoized on the
    morphism value, which holds everything `is_morita` reads."""
    return gpd.is_morita(m).ok


def _gpd_square(f, w, bound):
    fa = frd.fred_inverse(f)
    wa = frd.fred_inverse(w)
    d, wp, fp, alpha = atl.pullback_square(fa, wa, bound)
    return frd.fred0(d, bound), frd.fred1(wp, bound), frd.fred1(fp, bound), frd.fred2(alpha, bound)


def _gpd_cancel(v, x, y, cell, bound):
    xa = frd.fred_inverse(x)
    ya = frd.fred_inverse(y)
    va = frd.fred_inverse(v)
    ca = frd.fred_inverse2(cell)
    return frd.fred2(atl.cancel_refinement_cell(va, xa, ya, ca, bound), bound)


def groupoid_ops(bound: int = atl.WORD_BOUND) -> TwoCatOps:
    """The groupoid instance; its squares and cancellations go through the
    atlas layer at word bound `bound`."""
    return TwoCatOps(
        name="groupoid/morita",
        compose1=gpd.compose_gpd_morphisms,
        id1=gpd.identity_gpd_morphism,
        eq1=gpd.equal_gpd_morphisms,
        id2=gpd.identity_nat_transf,
        comp2v=gpd.vertical_compose_nt,
        comp2h=gpd.horizontal_compose_nt,
        inv2=gpd.invert_nat_transf,
        eq2=gpd.equal_nat_transfs,
        validate2=gpd.validate_nat_transf,
        is_w=_gpd_is_w,
        square=lambda f, w: _gpd_square(f, w, bound),
        connect2=gpd.find_unique_nat_transf,
        cancel=lambda v, x, y, cell: _gpd_cancel(v, x, y, cell, bound),
    )


# ---------------------------------------------------------------------------
# Spans and fraction cells
# ---------------------------------------------------------------------------

@interned
class Span:
    """A 1-cell of the localized bicategory: (middle, W-leg to the source,
    arrow leg to the target)."""

    middle: object
    left: object     # in W, middle -> source object
    right: object    # middle -> target object


def span_equal(ops, s, t) -> bool:
    return (s.middle == t.middle
            and ops.eq1(s.left, t.left) and ops.eq1(s.right, t.right))


def validate_span(ops, s: Span) -> Report:
    rep = Report("span")
    if s.left.source != s.middle:
        rep.fail("SP1", "left leg does not start at the middle object")
    if s.right.source != s.middle:
        rep.fail("SP1", "right leg does not start at the middle object")
    w = ops.is_w(s.left)
    if w is False:
        rep.fail("SP2", "left leg is not in W")
    elif w is None:
        rep.note_undecided("left leg membership in W undecided")
    return rep


@interned
class FractionCell:
    """A 2-cell of the localized bicategory, in the simplified shape: a
    middle object with two W-legs into the middles of the parallel spans and
    a base 2-cell filling the arrow-leg square.  The W-leg square's filler
    exists uniquely and is not stored: the pastings that need it build it
    with `ops.connect2`."""

    src_span: Span
    dst_span: Span
    middle: object
    left_leg: object     # in W, middle -> src_span.middle
    right_leg: object    # in W, middle -> dst_span.middle
    base: object         # 2-cell: src.right o left_leg => dst.right o right_leg


def identity_fraction_cell(ops, s: Span) -> FractionCell:
    i = ops.id1(s.middle)
    return FractionCell(s, s, s.middle, i, i,
                        ops.id2(ops.compose1(s.right, i)))


def invert_fraction_cell(ops, c: FractionCell) -> FractionCell:
    return FractionCell(c.dst_span, c.src_span, c.middle,
                        c.right_leg, c.left_leg, ops.inv2(c.base))


def validate_fraction_cell(ops, c: FractionCell) -> Report:
    rep = Report("fraction 2-cell")
    for leg, name in ((c.left_leg, "left"), (c.right_leg, "right")):
        w = ops.is_w(leg)
        if w is False:
            rep.fail("FC1", f"{name} leg is not in W")
        elif w is None:
            rep.note_undecided(f"{name} leg membership in W undecided")
    rep.absorb(ops.validate2(c.base))
    if not ops.eq1(c.base.source_morphism,
                   ops.compose1(c.src_span.right, c.left_leg)):
        rep.fail("FC2", "base cell source does not match the span composite")
    if not ops.eq1(c.base.target_morphism,
                   ops.compose1(c.dst_span.right, c.right_leg)):
        rep.fail("FC2", "base cell target does not match the span composite")
    return rep


# ---------------------------------------------------------------------------
# Choice table and span composition
# ---------------------------------------------------------------------------

class ChoiceTable:
    """Deterministic record of the squares chosen to compose spans, keyed by
    the (arrow, W-arrow) pair of values; a 1-cell value holds its source and
    target, and an atlas morphism its certificate too, so a key is the whole
    of what the square is built from.  Append-only; safe for concurrent
    readers."""

    def __init__(self):
        self.entries = {}

    def lookup(self, ops, f, w):
        # `ops` is unused; perfbench/tracer.py wraps this signature
        return self.entries.get((f, w))

    def record(self, f, w, square):
        return self.entries.setdefault((f, w), square)


def chosen_square(ops, table, f, w):
    """The chosen square for composing past a W-arrow, honoring the forced
    identity cases and otherwise consulting (and extending) the table."""
    if ops.eq1(f, ops.id1(f.source)):
        # forced case (a): pulling an identity back along w
        return (w.source, w, ops.id1(w.source), ops.id2(w))
    if ops.eq1(w, ops.id1(w.source)):
        # forced case (b): composing past an identity W-arrow
        return (f.source, ops.id1(f.source), f, ops.id2(f))
    got = table.lookup(ops, f, w)
    if got is None:
        got = table.record(f, w, ops.square(f, w))
    return got


def compose_spans(ops, table, s2: Span, s1: Span) -> Span:
    """Composite span s2 o s1 through the chosen square for
    (s1.right, s2.left)."""
    if s1.right.target != s2.left.target:
        raise ComposabilityError("spans not composable")
    d, vp, fp, _ = chosen_square(ops, table, s1.right, s2.left)
    return Span(d, ops.compose1(s1.left, vp), ops.compose1(s2.right, fp))


def universal_embed(ops, f) -> Span:
    """The universal pseudofunctor into the localized bicategory on a
    1-cell: the span with identity W-leg."""
    return Span(f.source, ops.id1(f.source), f)


def universal_embed2(ops, cell) -> FractionCell:
    """The universal pseudofunctor on a 2-cell: the fraction cell with
    identity legs."""
    f1, f2 = cell.source_morphism, cell.target_morphism
    s1, s2 = universal_embed(ops, f1), universal_embed(ops, f2)
    x = f1.source
    i = ops.id1(x)
    return FractionCell(s1, s2, x, i, i, ops.comp2h(cell, ops.id2(i)))


# ---------------------------------------------------------------------------
# Equality and composition of fraction cells
# ---------------------------------------------------------------------------

def cell_equal(ops, c1: FractionCell, c2: FractionCell) -> bool:
    """Equality of localized 2-cells: refine the two middles over the common
    source span, fill the leg squares with their unique connecting cells and
    compare the pasted base cells exactly."""
    if not (span_equal(ops, c1.src_span, c2.src_span)
            and span_equal(ops, c1.dst_span, c2.dst_span)):
        return False
    f1 = c1.src_span.right
    f2 = c1.dst_span.right
    _, z1, z2, _ = ops.square(c1.left_leg, c2.left_leg)
    sigma1 = ops.connect2(ops.compose1(c2.left_leg, z2),
                          ops.compose1(c1.left_leg, z1))
    sigma2 = ops.connect2(ops.compose1(c1.right_leg, z1),
                          ops.compose1(c2.right_leg, z2))
    lhs = ops.comp2v(
        ops.whisker_left(f2, sigma2),
        ops.comp2v(ops.whisker_right(c1.base, z1),
                   ops.whisker_left(f1, sigma1)))
    rhs = ops.whisker_right(c2.base, z2)
    return ops.eq2(lhs, rhs)


def vertical_compose_cells(ops, beta: FractionCell, alpha: FractionCell) -> FractionCell:
    """beta after alpha: refine over the shared span and paste."""
    if not span_equal(ops, alpha.dst_span, beta.src_span):
        raise ComposabilityError("fraction cells not vertically composable")
    _, p, q, _ = ops.square(alpha.right_leg, beta.left_leg)
    mu = ops.connect2(ops.compose1(alpha.right_leg, p),
                      ops.compose1(beta.left_leg, q))
    f2 = alpha.dst_span.right
    base = ops.comp2v(
        ops.whisker_right(beta.base, q),
        ops.comp2v(ops.whisker_left(f2, mu),
                   ops.whisker_right(alpha.base, p)))
    middle = p.source
    return FractionCell(alpha.src_span, beta.dst_span, middle,
                        ops.compose1(alpha.left_leg, p),
                        ops.compose1(beta.right_leg, q),
                        base)


def horizontal_compose_cells(ops, table, beta: FractionCell,
                             alpha: FractionCell) -> FractionCell:
    """beta * alpha for alpha: s1 => s1' (X -> Y) and beta: s2 => s2'
    (Y -> Z); the result runs between the chosen composites s2 s1 and
    s2' s1'."""
    s1, s1p = alpha.src_span, alpha.dst_span
    s2, s2p = beta.src_span, beta.dst_span
    t = compose_spans(ops, table, s2, s1)
    tp = compose_spans(ops, table, s2p, s1p)
    _, p, q, gamma = chosen_square(ops, table, s1.right, s2.left)
    _, pp, qp, gammap = chosen_square(ops, table, s1p.right, s2p.left)

    # refine the composite middle over alpha's middle
    _, e1, hA, muA = ops.square(p, alpha.left_leg)
    # carry alpha's right leg over to the other composite middle
    _, e2, hEp, muAp = ops.square(ops.compose1(alpha.right_leg, hA), pp)

    f1, f1p = s1.right, s1p.right
    u2, u2p = s2.left, s2p.left
    g2, g2p = s2.right, s2p.right

    e12 = ops.compose1(e1, e2)
    # chain of base 2-cells over the shared target of the W-legs
    c_chain = ops.comp2v(
        ops.whisker_right(gammap, hEp),
        ops.comp2v(
            ops.whisker_left(f1p, muAp),
            ops.comp2v(
                ops.whisker_right(alpha.base, ops.compose1(hA, e2)),
                ops.comp2v(
                    ops.whisker_left(f1, ops.whisker_right(muA, e2)),
                    ops.inv2(ops.whisker_right(gamma, e12))))))
    # c_chain: u2 (q e1 e2)  =>  u2' (q' hEp)

    # refine once more over beta's middle
    qe = ops.compose1(ops.compose1(q, e1), e2)
    _, e3, hB, muB = ops.square(qe, beta.left_leg)
    mub = ops.connect2(ops.compose1(u2, beta.left_leg),
                       ops.compose1(u2p, beta.right_leg))
    carried = ops.comp2v(
        ops.whisker_right(c_chain, e3),
        ops.comp2v(ops.whisker_left(u2, ops.inv2(muB)),
                   ops.inv2(ops.whisker_right(mub, hB))))
    # carried: u2' (b2 hB) => u2' (q' hEp e3)
    tau = ops.cancel(u2p,
                     ops.compose1(beta.right_leg, hB),
                     ops.compose1(ops.compose1(qp, hEp), e3),
                     carried)
    base = ops.comp2v(
        ops.whisker_left(g2p, tau),
        ops.comp2v(ops.whisker_right(beta.base, hB),
                   ops.whisker_left(g2, muB)))
    left_leg = ops.compose1(e12, e3)
    right_leg = ops.compose1(hEp, e3)
    return FractionCell(t, tp, e3.source, left_leg, right_leg, base)


def associator(ops, table, s3: Span, s2: Span, s1: Span) -> FractionCell:
    """The canonical invertible cell (s3 s2) s1 => s3 (s2 s1) produced by
    pasting the four chosen squares and cancelling the W-legs."""
    d21, p, q, a21 = chosen_square(ops, table, s1.right, s2.left)
    span21 = compose_spans(ops, table, s2, s1)
    el, pl, rl, al = chosen_square(ops, table, span21.right, s3.left)
    t_right = compose_spans(ops, table, s3, span21)          # s3 (s2 s1)

    d32, p32, r32, a32 = chosen_square(ops, table, s2.right, s3.left)
    span32 = compose_spans(ops, table, s3, s2)
    er, pr, qr, ar = chosen_square(ops, table, s1.right, span32.left)
    t_left = compose_spans(ops, table, span32, s1)           # (s3 s2) s1

    leg_l = ops.compose1(p, pl)      # el -> A
    leg_r = pr                       # er -> A
    m, zl, zr, mum = ops.square(leg_l, leg_r)
    sigma_a = ops.connect2(ops.compose1(leg_l, zl), ops.compose1(leg_r, zr))

    f1, f2, f3 = s1.right, s2.right, s3.right
    u2, u3 = s2.left, s3.left

    plzl = ops.compose1(pl, zl)
    qrzr = ops.compose1(qr, zr)
    c_b = ops.comp2v(
        ops.whisker_right(ar, zr),
        ops.comp2v(ops.whisker_left(f1, sigma_a),
                   ops.inv2(ops.whisker_right(a21, plzl))))
    tau_b = ops.cancel(u2,
                       ops.compose1(q, plzl),
                       ops.compose1(p32, qrzr),
                       c_b)
    c_c = ops.comp2v(
        ops.whisker_right(a32, qrzr),
        ops.comp2v(ops.whisker_left(f2, tau_b),
                   ops.inv2(ops.whisker_right(al, zl))))
    tau_c = ops.cancel(u3,
                       ops.compose1(rl, zl),
                       ops.compose1(r32, qrzr),
                       c_c)
    base = ops.whisker_left(f3, tau_c)
    built = FractionCell(t_right, t_left, zl.source, zl, zr, base)
    # built: s3 (s2 s1) => (s3 s2) s1 ; the associator is its inverse
    return invert_fraction_cell(ops, built)


# ---------------------------------------------------------------------------
# BF axioms, saturation, 2-out-of-3
# ---------------------------------------------------------------------------

class Universe:
    """A finite enumeration of objects and 1-cells to check axioms over."""

    def __init__(self, objects, cells, undecided=()):
        self.objects = objects              # (name, object)
        self.cells = cells                  # (name, 1-cell)
        self.undecided = list(undecided)    # identities left out

    def composable_pairs(self):
        for (n1, f), (n2, g) in itertools.product(self.cells, repeat=2):
            if f.target == g.source:
                yield (n1, f), (n2, g)

    def parallel_pairs(self):
        for (n1, f), (n2, g) in itertools.combinations(self.cells, 2):
            if f.source == g.source and f.target == g.target:
                yield (n1, f), (n2, g)

    def cells_into(self, obj):
        for n, f in self.cells:
            if f.target == obj:
                yield n, f


def depth2_universe(ops, objects, cells) -> Universe:
    """Close a cell list under identities and one round of composition.
    An identity the word bound cannot build is left out and noted."""
    out = list(cells)
    names = {n for n, _ in out}
    undecided = []
    for n, o in objects:
        key = f"id_{n}"
        if key not in names:
            try:
                out.append((key, ops.id1(o)))
            except UndecidedError as e:
                undecided.append(f"{key} left out of the universe: {e}")
            names.add(key)
    base = list(out)
    for (n1, f), (n2, g) in itertools.product(base, repeat=2):
        if f.target != g.source:
            continue
        key = f"{n2}.{n1}"
        comp = ops.compose1(g, f)
        if key in names:
            continue
        if any(h.source == comp.source and h.target == comp.target
               and ops.eq1(h, comp) for _, h in out):
            continue
        out.append((key, comp))
        names.add(key)
    return Universe(list(objects), out, undecided)


def _built(rep, code, what, make, *args):
    """`make(*args)`, or None when the construction fails: a proof that the
    cell does not exist is recorded in `rep` as a `code` failure with its
    witness (with no `code`, as no failure: where no connecting 2-cell
    exists there is nothing to check), and a bound too small to settle it
    as an undecided note.  Any other error propagates rather than pass an
    axiom vacuously."""
    try:
        return make(*args)
    except NoSuchCellError as e:
        if code is not None:
            rep.fail(code, f"no {what}: {e}", e.witness)
    except UndecidedError as e:
        rep.note_undecided(f"{what} undecided: {e}")
    return None


def check_bf(ops, axiom: int, universe: Universe, table) -> Report:
    """Check one of the five fraction axioms over the universe; axioms 3 and
    4 are checked by producing and validating constructive witnesses."""
    rep = Report(f"BF{axiom} [{ops.name}]")
    for note in universe.undecided:
        rep.note_undecided(note)
    if axiom == 1:
        for n, o in universe.objects:
            ident = _built(rep, "BF1", f"identity of {n}", ops.id1, o)
            if ident is None:
                continue
            got = ops.is_w(ident)
            if got is False:
                rep.fail("BF1", f"identity of {n} is not in W")
            elif got is None:
                rep.note_undecided(f"identity of {n} undecided")
    elif axiom == 2:
        for (n1, f), (n2, g) in universe.composable_pairs():
            if ops.is_w(f) is True and ops.is_w(g) is True:
                got = ops.is_w(ops.compose1(g, f))
                if got is False:
                    rep.fail("BF2", f"composite {n2}.{n1} left W")
                elif got is None:
                    rep.note_undecided(f"composite {n2}.{n1} undecided")
    elif axiom == 3:
        for (nf, f), (nw, w) in itertools.product(universe.cells, repeat=2):
            if ops.is_w(w) is not True:
                continue
            if f.target != w.target:
                continue
            square = _built(rep, "BF3", f"square for ({nf}, {nw})",
                            chosen_square, ops, table, f, w)
            if square is None:
                continue
            d, wp, fp, alpha = square
            if ops.is_w(wp) is not True:
                rep.fail("BF3", f"square W-leg for ({nf}, {nw}) is not in W")
            v2 = ops.validate2(alpha)
            if not v2.ok:
                rep.fail("BF3", f"square cell for ({nf}, {nw}) invalid: {v2.first()}")
    elif axiom == 4:
        count = 0
        for (nw, w) in universe.cells:
            if ops.is_w(w) is not True:
                continue
            for (n1, f1), (n2, f2) in itertools.product(universe.cells, repeat=2):
                if f1.target != w.source:
                    continue
                if f1.source != f2.source or f1.target != f2.target:
                    continue
                alpha = _built(rep, None, "connecting 2-cell", ops.connect2,
                               ops.compose1(w, f1), ops.compose1(w, f2))
                if alpha is None:
                    continue
                count += 1
                # (a): cancellation produces beta with alpha * i_v = i_w * beta
                beta = _built(rep, "BF4a", f"beta for ({nw}; {n1}, {n2})",
                              ops.cancel, w, f1, f2, alpha)
                if beta is None:
                    continue
                v = _built(rep, "BF4a", f"identity for ({nw}; {n1}, {n2})", ops.id1, f1.source)
                if v is None:
                    continue
                lhs = ops.comp2h(alpha, ops.id2(v))
                rhs = ops.comp2h(ops.id2(w), beta)
                if not ops.eq2(lhs, rhs):
                    rep.fail("BF4a", f"pasting equation fails for ({nw}; {n1}, {n2})")
                # (b): invertibility of beta
                if not ops.validate2(ops.inv2(beta)).ok:
                    rep.fail("BF4b", f"beta not invertible for ({nw}; {n1}, {n2})")
                # (c): the triple (id, beta) and the whiskered triple
                # (u0, beta * i_{u0}) are connected through E = src(u0) with
                # the unique filler zeta, and the pasting equation holds
                for nu, u0 in universe.cells:
                    if ops.is_w(u0) is not True:
                        continue
                    if u0.target != f1.source:
                        continue
                    beta2 = ops.comp2h(beta, ops.id2(u0))
                    u_pr = _built(rep, "BF4c", f"identity for ({nw}; {n1}, {n2}; {nu})",
                                  ops.id1, u0.source)
                    if u_pr is None:
                        continue
                    zeta = _built(rep, None, "connecting 2-cell", ops.connect2,
                                  ops.compose1(v, u0), ops.compose1(u0, u_pr))
                    if zeta is None:
                        continue
                    lhs = ops.comp2v(ops.comp2h(beta2, ops.id2(u_pr)),
                                     ops.comp2h(ops.id2(f1), zeta))
                    rhs = ops.comp2v(ops.comp2h(ops.id2(f2), zeta),
                                     ops.comp2h(beta, ops.id2(u0)))
                    if not ops.eq2(lhs, rhs):
                        rep.fail("BF4c", f"coherence fails for ({nw}; {n1}, {n2}; {nu})")
                    break
        if count == 0:
            rep.note_undecided("no 2-cells found to exercise BF4 on")
    elif axiom == 5:
        for (n1, f), (n2, w) in universe.parallel_pairs():
            for a, b, na, nb in ((f, w, n1, n2), (w, f, n2, n1)):
                if ops.is_w(b) is not True or ops.is_w(a) is True:
                    continue
                cell = _built(rep, None, "connecting 2-cell", ops.connect2, a, b)
                if cell is None:
                    continue
                got = ops.is_w(a)
                if got is False:
                    rep.fail("BF5", f"{na} is 2-isomorphic to the W-arrow {nb} "
                                    f"but is not in W")
                elif got is None:
                    rep.note_undecided(f"membership of {na} undecided")
    else:
        raise ValueError("axiom must be 1..5")
    return rep


def saturate(ops, universe: Universe, f):
    """Membership of f in the right saturation of W, by bounded search for
    g, h in the universe with f g and g h in W.  Returns (verdict, witness)
    with verdict True, or (False, None) when the bounded search fails."""
    if ops.is_w(f) is True:
        return True, ("", "")
    for ng, g in universe.cells_into(f.source):
        if ops.is_w(ops.compose1(f, g)) is not True:
            continue
        for nh, h in universe.cells_into(g.source):
            if ops.is_w(ops.compose1(g, h)) is True:
                return True, (ng, nh)
    return False, None


def two_out_of_three(ops, f, g) -> dict:
    """For a composable pair (f then g), report the membership pattern and
    which of the 2-out-of-3 implications are witnessed."""
    gf = ops.compose1(g, f)
    wf, wg, wgf = ops.is_w(f), ops.is_w(g), ops.is_w(gf)
    return {
        "f": wf, "g": wg, "gf": wgf,
        "compose_closed": (wgf is True) if (wf is True and wg is True) else None,
        "left_cancel": (wf is True) if (wg is True and wgf is True) else None,
    }


# ---------------------------------------------------------------------------
# Internal equivalences
# ---------------------------------------------------------------------------

def quasi_inverse(ops, table, w):
    """For a W-arrow w: X -> Y, the reverse span (X, w, id): Y -> X together
    with invertible fraction cells witnessing both composites isomorphic to
    identity spans."""
    x, y = w.source, w.target
    fw = universal_embed(ops, w)
    rev = Span(x, w, ops.id1(x))

    # forward: U(w) o rev : Y -> Y, forced case (a) gives (X, w, w)
    comp1 = compose_spans(ops, table, fw, rev)
    idspan_y = Span(y, ops.id1(y), ops.id1(y))
    base1 = ops.connect2(ops.compose1(comp1.right, ops.id1(x)),
                         ops.compose1(ops.id1(y), w))
    cell1 = FractionCell(comp1, idspan_y, x, ops.id1(x), w, base1)

    # backward: rev o U(w) : X -> X through the chosen square for (w, w)
    comp2 = compose_spans(ops, table, rev, fw)
    d, p, q, alpha = chosen_square(ops, table, w, w)
    idspan_x = Span(x, ops.id1(x), ops.id1(x))
    tau = ops.cancel(w, p, q, alpha)
    cell2 = FractionCell(comp2, idspan_x, d, ops.id1(d), p, ops.inv2(tau))
    return rev, cell1, cell2
