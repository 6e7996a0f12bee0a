"""Span tracer for the benchmark's traced run.

It wraps public functions of orbatlas from outside: module-level functions in
every orbatlas module namespace that holds them, and methods on their
classes.  Each call records one span (name, start, end, parent) in flat
arrays kept in memory; `summary()` turns the spans into call counts and self
times per name.  A span's self time is its duration minus the durations of
its direct children (calls are strictly nested in this single-threaded
program).
"""

from __future__ import annotations

import array
import functools
import sys
import time

# Per-layer targets: (metric prefix, module, attribute path).  The prefix is
# the name the benchmark reports, `<module>.<function>`.
TARGETS = [
    ("geometry.Region.__init__", "orbatlas.geometry", "Region.__init__"),
    ("geometry.Region.intersect", "orbatlas.geometry", "Region.intersect"),
    ("geometry.Region.union", "orbatlas.geometry", "Region.union"),
    ("geometry.Region.preimage_under", "orbatlas.geometry", "Region.preimage_under"),
    ("geometry.Region.covers_witness", "orbatlas.geometry", "Region.covers_witness"),
    ("geometry.Region.image", "orbatlas.geometry", "Region.image"),
    ("geometry.Polygon.clip", "orbatlas.geometry", "Polygon.clip"),
    ("geometry.AffineMap.compose", "orbatlas.geometry", "AffineMap.compose"),
    ("atlas.closure", "orbatlas.atlas", "closure"),
    ("atlas.classify_morphism", "orbatlas.atlas", "classify_morphism"),
    ("atlas.pullback_square", "orbatlas.atlas", "pullback_square"),
    ("atlas.compose_morphisms", "orbatlas.atlas", "compose_morphisms"),
    ("atlas.unique_2cell_open_embeddings", "orbatlas.atlas", "unique_2cell_open_embeddings"),
    ("atlas.cancel_refinement_cell", "orbatlas.atlas", "cancel_refinement_cell"),
    ("atlas.vertical_compose", "orbatlas.atlas", "vertical_compose"),
    ("atlas.horizontal_compose", "orbatlas.atlas", "horizontal_compose"),
    ("atlas.equal_2cells", "orbatlas.atlas", "equal_2cells"),
    ("atlas.validate_2cell", "orbatlas.atlas", "validate_2cell"),
    ("groupoid.is_morita", "orbatlas.groupoid", "is_morita"),
    ("groupoid.find_unique_nat_transf", "orbatlas.groupoid", "find_unique_nat_transf"),
    ("groupoid.validate_nat_transf", "orbatlas.groupoid", "validate_nat_transf"),
    ("groupoid.equal_nat_transfs", "orbatlas.groupoid", "equal_nat_transfs"),
    ("groupoid.horizontal_compose_nt", "orbatlas.groupoid", "horizontal_compose_nt"),
    ("groupoid.compose_gpd_morphisms", "orbatlas.groupoid", "compose_gpd_morphisms"),
    ("fred.fred0", "orbatlas.fred", "fred0"),
    ("fred.fred1", "orbatlas.fred", "fred1"),
    ("fred.fred2", "orbatlas.fred", "fred2"),
    ("fred.fred_inverse", "orbatlas.fred", "fred_inverse"),
    ("fractions.chosen_square", "orbatlas.fractions", "chosen_square"),
    ("fractions.associator", "orbatlas.fractions", "associator"),
    ("fractions.horizontal_compose_cells", "orbatlas.fractions", "horizontal_compose_cells"),
    ("fractions.vertical_compose_cells", "orbatlas.fractions", "vertical_compose_cells"),
    ("fractions.cell_equal", "orbatlas.fractions", "cell_equal"),
    ("fractions.quasi_inverse", "orbatlas.fractions", "quasi_inverse"),
    ("gred.equivalence_report", "orbatlas.gred", "equivalence_report"),
    ("cli.loads", "orbatlas.cli", "loads"),
    ("cli.dumps", "orbatlas.cli", "dumps"),
    ("cli.run", "orbatlas.cli", "run"),
]
# Spans with a name of their own, installed by hand below.
IS_W = "fractions.is_w"
BF_SPANS = [f"fractions.check_bf.BF{k}" for k in range(1, 6)]
SPAN_NAMES = [t[0] for t in TARGETS] + [IS_W] + BF_SPANS


class Tracer:
    """Flat in-memory span store plus the few counters behind the ratios."""

    def __init__(self):
        self.names = list(SPAN_NAMES)
        self.ids = {n: i for i, n in enumerate(self.names)}
        self._closure = None    # the original lru_cache'd atlas.closure
        self.reset()

    def reset(self):
        self.name = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.stack = [-1]
        self.morita_keys, self.morita_calls = set(), 0
        self.is_w_keys, self.is_w_calls = set(), 0
        self.lookups, self.lookup_hits = 0, 0
        self.closure_base = self._closure_info()

    def _closure_info(self):
        """(hits, misses) of the closure cache; zeros once it has no
        `cache_info`."""
        info = getattr(self._closure, "cache_info", None)
        return (0, 0) if info is None else tuple(info()[:2])

    def wrap(self, name, fn):
        sid = self.ids[name]
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(sid)
            self.parent.append(self.stack[-1])
            self.start.append(clock())
            self.end.append(0.0)
            self.stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                self.stack.pop()
                self.end[idx] = clock()
        return traced

    def install(self):
        """Replace every target in every loaded orbatlas namespace.  Must run
        before any operation bundle captures references."""
        mods = [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == "orbatlas" or n.startswith("orbatlas."))]
        for name, modname, path in TARGETS:
            owner = sys.modules.get(modname)
            if owner is None:       # never imported, so never called
                continue
            head, _, attr = path.rpartition(".")
            if head:
                cls = getattr(owner, head)
                setattr(cls, attr, self.wrap(name, cls.__dict__[attr]))
                continue
            orig = getattr(owner, attr)
            if name == "atlas.closure":
                self._closure = orig
            self._replace(mods, orig, self.wrap(name, orig))
        self._install_special(sys.modules["orbatlas.fractions"],
                              sys.modules["orbatlas.groupoid"], mods)
        self.reset()

    def _install_special(self, frc, gpd, mods):
        check_bf = frc.check_bf
        per_axiom = {k: self.wrap(BF_SPANS[k - 1], check_bf) for k in range(1, 6)}

        @functools.wraps(check_bf)
        def traced_check_bf(ops, axiom, *args, **kwargs):
            return per_axiom.get(axiom, check_bf)(ops, axiom, *args, **kwargs)
        self._replace(mods, check_bf, traced_check_bf)

        is_morita = gpd.is_morita  # already wrapped with a span above

        @functools.wraps(is_morita)
        def counted_is_morita(psi):
            self.morita_calls += 1
            self.morita_keys.add(psi.key())
            return is_morita(psi)
        self._replace(mods, is_morita, counted_is_morita)

        lookup = frc.ChoiceTable.lookup

        def counted_lookup(table, ops, f, w):
            got = lookup(table, ops, f, w)
            self.lookups += 1
            self.lookup_hits += got is not None
            return got
        frc.ChoiceTable.lookup = counted_lookup

        # Every operation bundle built from here on gets a traced is_w.
        for factory in ("atlas_ops", "groupoid_ops"):
            make = getattr(frc, factory)

            def traced_factory(make=make):
                ops = make()
                inner = self.wrap(IS_W, ops.is_w)

                def is_w(m):
                    self.is_w_calls += 1
                    self.is_w_keys.add(ops.cell_key(m))
                    return inner(m)
                ops.is_w = is_w
                return ops
            self._replace(mods, make, traced_factory)

    @staticmethod
    def _replace(mods, orig, new):
        for mod in mods:
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, new)

    def summary(self) -> dict:
        """Calls, self time and inclusive time per span name, plus the raw
        counts behind the ratios."""
        n = len(self.names)
        calls = [0] * n
        total = [0.0] * n
        self_t = [0.0] * n
        child = [0.0] * len(self.start)
        for i in range(len(self.start) - 1, -1, -1):
            dur = self.end[i] - self.start[i]
            sid = self.name[i]
            calls[sid] += 1
            total[sid] += dur
            self_t[sid] += dur - child[i]
            p = self.parent[i]
            if p >= 0:
                child[p] += dur
        hits, misses = (a - b for a, b in zip(self._closure_info(), self.closure_base))
        return {
            "spans": {name: {"calls": calls[i], "self_s": self_t[i], "total_s": total[i]}
                      for i, name in enumerate(self.names)},
            "closure_hits": hits, "closure_calls": hits + misses,
            "morita_calls": self.morita_calls, "morita_distinct": len(self.morita_keys),
            "is_w_calls": self.is_w_calls, "is_w_distinct": len(self.is_w_keys),
            "lookups": self.lookups, "lookup_hits": self.lookup_hits,
        }
