"""One cold sample of the benchmark, run in a fresh interpreter.

    python child.py setup <workload> <dir>   build the workload's inputs, exit
    python child.py job '<json spec>'        set up, then run one timed job
    python child.py cli <orbatlas args>      one CLI call (what `orbatlas` runs)

Every mode writes a JSON record to the file named by PERFBENCH_OUT; `cli`
keeps stdout for the CLI's own output.  With PERFBENCH_TRACE set, `job` and
`cli` trace their timed part (see tracer.py) and add the summary to the
record.

Every record holds `end_t`, the `time.perf_counter()` value at which the
child's work ended (the clock is system-wide, so the parent subtracts its
spawn time from it), and `ref_s`, the times of the reference loop `_ref`
run in the same process.  `job` runs the loop before importing orbatlas
and after its work, `setup` and `cli` only after their work, so that the
CLI's import is measured cold.

Every mode first checks that the interpreter is fresh and that orbatlas
comes from PERFBENCH_SRC; `job` and `cli` also check that
`atlas.closure.cache_info()` right after import equals PERFBENCH_PROBE,
the value a set-up child saw.  A failed check exits with GUARD_EXIT.
"""

from __future__ import annotations

import gc
import json
import os
import random
import sys
import time

from workloads import BF_AXIOMS, BF_SLICES, PENTAGONS, TRIANGLES

GUARD_EXIT = 70
REF_ROUNDS = 90    # about 0.1 s on a 2.1 GHz Xeon vCPU
_FRESH = not any(n == "orbatlas" or n.startswith("orbatlas.") for n in sys.modules)


def _fail_guard(msg):
    print(f"perfbench guard: {msg}", file=sys.stderr)
    sys.exit(GUARD_EXIT)


def _import(*modules):
    """Import orbatlas modules and return the closure cache probe."""
    if not _FRESH:
        _fail_guard("orbatlas was already imported")
    import importlib

    for name in modules:
        importlib.import_module(name)
    import orbatlas

    src = os.environ["PERFBENCH_SRC"]
    if not os.path.abspath(orbatlas.__file__).startswith(src + os.sep):
        _fail_guard(f"orbatlas imported from {orbatlas.__file__}, not {src}")
    return list(sys.modules["orbatlas.atlas"].closure.cache_info())


def _check_probe(probe):
    want = json.loads(os.environ["PERFBENCH_PROBE"])
    if probe != want:
        _fail_guard(f"closure cache_info {probe} at start, expected {want}")


def _ref():
    """Time a fixed loop of exact rational arithmetic on tuples and dicts,
    the kind of work orbatlas does, with the collector off.  It uses the
    standard library only, so a change to orbatlas cannot change it; the
    benchmark divides by its time to cancel the speed of the machine."""
    from fractions import Fraction

    gc.disable()
    t = time.perf_counter()
    pts = [(Fraction(i % 7, 3), Fraction(i % 5, 4)) for i in range(60)]
    acc = {}
    for r in range(REF_ROUNDS):
        out = []
        for (x0, y0), (x1, y1) in zip(pts, pts[1:] + pts[:1]):
            out.append((x0 * y1 - x1 * y0 + Fraction(r, 7), (x0 + x1) / 2))
        acc[r] = tuple(out)
        pts = [(y, x + Fraction(1, r + 2)) for x, y in pts]
    dt = time.perf_counter() - t
    gc.enable()
    return dt


def _write(record):
    with open(os.environ["PERFBENCH_OUT"], "w") as fh:
        json.dump(record, fh)


# -- set-up -----------------------------------------------------------------

def _bf_setup(instance):
    from orbatlas import fractions as frc
    from orbatlas import fred as frd
    from orbatlas import fixtures as fx

    objects = sorted(fx.ATLASES.items()) + [("TRIV_SHIFTED", fx.TRIV_SHIFTED)]
    cells = sorted(fx.MORPHISMS.items())
    if instance == "atlas":
        ops = frc.atlas_ops()
    else:
        ops = frc.groupoid_ops()
        objects = [(n, frd.fred0(a)) for n, a in objects]
        cells = [(n, frd.fred1(m)) for n, m in cells]
    return ops, frc.depth2_universe(ops, objects, cells)


def _coherence_setup():
    from orbatlas import fractions as frc
    from orbatlas import fixtures as fx

    ops = frc.atlas_ops()
    legs = frc.Span(fx.MIRROR_REF, fx.MORPHISMS["leg1_MR_M"], fx.MORPHISMS["leg2_MR_M"])

    def span(code):
        if code == "legs":
            return legs
        kind, name = code.split(":")
        if kind == "e":
            return frc.universal_embed(ops, fx.MORPHISMS[name])
        a = fx.ATLASES[name]
        return frc.Span(a, ops.id1(a), ops.id1(a))
    return ops, span


def _cli_setup(workdir):
    from orbatlas import cli
    from orbatlas import fred as frd
    from orbatlas import fixtures as fx

    os.makedirs(workdir, exist_ok=True)
    for name, m in fx.MORPHISMS.items():
        for suffix, value in ((".json", m), (".gpd.json", frd.fred1(m))):
            with open(os.path.join(workdir, name + suffix), "w") as fh:
                fh.write(cli.dumps(value))


def setup(workload, workdir):
    mods = ["orbatlas.cli"] if workload == "cli-batch" else ["orbatlas.fractions",
                                                              "orbatlas.fixtures"]
    probe = _import(*mods)
    if workload in ("bf-atlas", "bf-groupoid"):
        _bf_setup(workload[3:])
    elif workload == "coherence":
        _coherence_setup()
    else:
        _cli_setup(workdir)
    from orbatlas import fixtures as fx

    end_t = time.perf_counter()
    _write({"probe": probe, "expected_class": fx.EXPECTED_CLASS,
            "end_t": end_t, "ref_s": [_ref()]})


# -- timed jobs -------------------------------------------------------------

def _run_bf(spec, ops, universe, timings):
    from orbatlas import fractions as frc

    cells = universe.cells[spec["slice"]::BF_SLICES]
    if spec["order_seed"] is not None:
        random.Random(spec["order_seed"]).shuffle(cells)
    sub = frc.Universe(universe.objects, cells)
    table = frc.ChoiceTable()
    verdicts = []
    for axiom in BF_AXIOMS:
        t = time.perf_counter()
        rep = frc.check_bf(ops, axiom, sub, table)
        timings[f"BF{axiom}"] = time.perf_counter() - t
        verdicts.append([f"BF{axiom} slice {spec['slice']}",
                         "ok" if rep.ok and rep.decided else rep.summary()])
    return verdicts


def _run_coherence(spec, ops, span):
    from orbatlas import fractions as frc
    from orbatlas import fixtures as fx

    table = frc.ChoiceTable()

    def pentagon(s4, s3, s2, s1):
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
        return frc.cell_equal(ops, lhs, rhs)

    verdicts = []
    for kind, key in spec["items"]:
        if kind == "unit":
            m = fx.MORPHISMS[key]
            s = frc.universal_embed(ops, m)
            left = frc.Span(m.target, ops.id1(m.target), ops.id1(m.target))
            right = frc.Span(m.source, ops.id1(m.source), ops.id1(m.source))
            ok = (frc.span_equal(ops, frc.compose_spans(ops, table, left, s), s)
                  and frc.span_equal(ops, frc.compose_spans(ops, table, s, right), s))
        elif kind == "triangle":
            tri = frc.associator(ops, table, *(span(c) for c in TRIANGLES[key]))
            ok = frc.cell_equal(ops, tri, frc.identity_fraction_cell(ops, tri.src_span))
        elif kind == "pentagon":
            ok = pentagon(*(span(c) for c in PENTAGONS[key]))
        else:
            _, c1, c2 = frc.quasi_inverse(ops, table, fx.MORPHISMS[key])
            ok = (frc.validate_fraction_cell(ops, c1).ok
                  and frc.validate_fraction_cell(ops, c2).ok)
        verdicts.append([f"{kind} {key}", "ok" if ok is True else f"verdict {ok!r}"])
    return verdicts


def job(spec):
    ref_before = _ref()
    probe = _import("orbatlas.fractions", "orbatlas.fixtures")
    _check_probe(probe)
    tracer = None
    if os.environ.get("PERFBENCH_TRACE"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    if spec["kind"] == "bf":
        ops, universe = _bf_setup(spec["instance"])
    else:
        ops, span = _coherence_setup()
    if tracer:
        tracer.reset()
    timings = {}
    t0, c0 = time.perf_counter(), time.process_time()
    if spec["kind"] == "bf":
        verdicts = _run_bf(spec, ops, universe, timings)
    else:
        verdicts = _run_coherence(spec, ops, span)
    end_t, cpu = time.perf_counter(), time.process_time() - c0
    record = {"verdicts": verdicts, "run_s": end_t - t0, "cpu_s": cpu, "axiom_s": timings,
              "end_t": end_t}
    if tracer:
        record["trace"] = tracer.summary()
    record["ref_s"] = [ref_before, _ref()]
    _write(record)


# -- CLI launcher -----------------------------------------------------------

def cli(argv):
    t = time.perf_counter()
    probe = _import("orbatlas.cli")
    import_s = time.perf_counter() - t
    _check_probe(probe)
    from orbatlas import cli as orb_cli

    tracer = None
    if os.environ.get("PERFBENCH_TRACE"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        code = orb_cli.run(argv)
    finally:
        sys.stdout.flush()
        # CPU time of the whole process up to here, interpreter start included.
        end_t, cpu = time.perf_counter(), time.process_time()
        record = {"end_t": end_t, "cpu_s": cpu}
        if tracer:
            record["trace"] = dict(tracer.summary(), import_s=import_s)
        record["ref_s"] = [_ref()]
        _write(record)
    sys.exit(code)


def main():
    mode = sys.argv[1]
    if mode == "setup":
        setup(sys.argv[2], sys.argv[3])
    elif mode == "job":
        job(json.loads(sys.argv[2]))
    elif mode == "cli":
        cli(sys.argv[2:])
    else:
        sys.exit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    main()
