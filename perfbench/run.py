"""Cold-process benchmark of orbatlas.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout.  Every sample is a fresh interpreter
started from this process, one at a time (a closed loop with one client).
The run first starts SETUP_SAMPLES set-up children, then repeats whole passes
over the workload's jobs while the next pass is predicted to end within
--seconds (at least one pass).  Every verdict is checked against an oracle
that does not come from the code under test (see README.md).

Every child also times a fixed reference loop (child._ref).  Times are
reported at the reference speed: each pass's times are scaled by
REF_NOMINAL_S over the mean reference time of that pass's children, which
cancels most of the drift in the speed of a shared machine.  The raw times
are in the run record.

The last line of stdout is one JSON object: `correct`, `attempted`,
`failed` and `metrics`.  With --trace 0 the metrics are the end-to-end ones.
With --trace 1 the run makes one untraced and one traced pass over the same
jobs, and the metrics are the per-layer ones.  The line before the result
is the run record.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# Scratch files of this run; removed when it ends.
WORK = os.path.join(HERE, ".work", str(os.getpid()))
CHILD = os.path.join(HERE, "child.py")
sys.path.insert(0, HERE)

from tracer import BF_SPANS, IS_W, TARGETS  # noqa: E402
from workloads import WORKLOADS, check_cli, hash_seed, plan  # noqa: E402

SETUP_SAMPLES = 9
REF_NOMINAL_S = 0.1    # reference-loop time that defines the reported seconds
HARD_LIMIT_S = 170.0   # the whole run must end within 180 s
GUARD_EXIT = 70        # child.GUARD_EXIT, without importing the child

# Names that must record calls on the workload named for them.
REQUIRED_CALLS = {
    "bf-atlas": [n for n, _, _ in TARGETS if n.startswith("atlas.")]
    + BF_SPANS + ["fractions.chosen_square", IS_W],
    "bf-groupoid": [n for n, _, _ in TARGETS if n.startswith(("geometry.", "groupoid.", "fred."))]
    + BF_SPANS + ["fractions.chosen_square", IS_W],
    "coherence": ["fractions.chosen_square", "fractions.associator",
                  "fractions.horizontal_compose_cells", "fractions.vertical_compose_cells",
                  "fractions.cell_equal", "fractions.quasi_inverse"],
    "cli-batch": ["gred.equivalence_report", "cli.loads", "cli.dumps", "cli.run"],
}


class Deadline(Exception):
    pass


class Runner:
    """Starts children one at a time and measures each from outside."""

    def __init__(self, seed):
        self.t_start = time.perf_counter()
        self.env = dict(os.environ)
        self.env.update(PYTHONPATH=SRC, PYTHONHASHSEED=str(hash_seed(seed)),
                        PERFBENCH_SRC=SRC)
        self.count = 0

    def spawn(self, args, cwd=WORK, **env):
        """Run one child to completion.  Returns its exit code, the
        perf_counter value at spawn, the wall time seen from here, and the
        tag that its .out, .err and .json files are named after."""
        self.count += 1
        tag = os.path.join(WORK, f"c{self.count}")
        child_env = dict(self.env, PERFBENCH_OUT=tag + ".json", **env)
        left = HARD_LIMIT_S - (time.perf_counter() - self.t_start)
        if left <= 0:
            raise Deadline()
        with open(tag + ".out", "w") as out, open(tag + ".err", "w") as err:
            t = time.perf_counter()
            proc = subprocess.Popen([sys.executable, CHILD, *args], cwd=cwd,
                                    env=child_env, stdout=out, stderr=err)
            # A blocking wait sees the exit at once; `wait(timeout=...)` polls
            # with sleeps of up to 50 ms, which would quantize every time.
            timer = threading.Timer(left, proc.kill)
            timer.start()
            try:
                code = proc.wait()
            finally:
                timer.cancel()
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
            wall = time.perf_counter() - t
            if wall >= left:
                raise Deadline()
        return {"code": code, "t0": t, "wall": wall, "tag": tag}


def _read(path, default=None):
    try:
        with open(path) as fh:
            return fh.read()
    except FileNotFoundError:
        return default


def _err_tail(tag):
    lines = (_read(tag + ".err") or "").strip().splitlines()
    return lines[-1] if lines else "no output"


def speed(refs):
    """Factor that scales times measured alongside these reference-loop
    times to the reference speed."""
    return REF_NOMINAL_S / statistics.fmean(refs) if refs else 1.0


def run_setup(runner, workload):
    """Returns the set-up latencies, their reference times and the record
    of the first set-up child."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        try:
            res = runner.spawn(["setup", workload, WORK])
        except Deadline:
            raise SystemExit(f"set-up did not finish within {HARD_LIMIT_S:.0f} s")
        rec = _read(res["tag"] + ".json")
        if res["code"] != 0 or rec is None:
            raise SystemExit(f"set-up child failed (exit {res['code']}): {_err_tail(res['tag'])}")
        rec = json.loads(rec)
        samples.append((rec["end_t"] - res["t0"], rec))
    probes = {json.dumps(rec["probe"]) for _, rec in samples}
    if len(probes) != 1:
        raise SystemExit(f"set-up children disagree on the closure cache at import: {probes}")
    return ([lat for lat, _ in samples], [r for _, rec in samples for r in rec["ref_s"]],
            samples[0][1])


def run_job(runner, job, probe, trace, workload):
    """One timed child.  Returns (sample, verdicts); a verdict is
    [label, "ok" | what was wrong].  The sample's `lat` is the latency of
    the command from spawn to the end of its work, `run_s` and `cpu_s` the
    timed part, and `ref` the child's reference-loop times; a child that
    wrote no record is timed from here and has no reference times."""
    env = {"PERFBENCH_PROBE": probe, "PERFBENCH_TRACE": "1" if trace else ""}
    cli_call = job["kind"] == "cli"
    res = runner.spawn(["cli", *job["argv"]] if cli_call else ["job", json.dumps(job)], **env)
    rec = _read(res["tag"] + ".json")
    rec = None if rec is None else json.loads(rec)
    res.update(lat=res["wall"], run_s=res["wall"], cpu_s=res["wall"], ref=[])
    if cli_call:
        label = " ".join(job["argv"])
        if res["code"] == GUARD_EXIT:
            return res, [[label, f"guard: {_err_tail(res['tag'])}"]]
        if rec is not None:
            lat = rec["end_t"] - res["t0"]
            res.update(lat=lat, run_s=lat, cpu_s=rec["cpu_s"], ref=rec["ref_s"],
                       trace=rec.get("trace"))
        res["stdout"] = _read(res["tag"] + ".out", "")
        return res, [[label, None]]    # checked after the timed loop
    if res["code"] != 0 or rec is None:
        msg = f"raised (exit {res['code']}): {_err_tail(res['tag'])}"
        return res, [[f"{workload} job", msg] for _ in range(job["verdicts"])]
    # The reference loop before the import is not part of the command.
    res.update(lat=rec["end_t"] - res["t0"] - rec["ref_s"][0], run_s=rec["run_s"],
               cpu_s=rec["cpu_s"], ref=rec["ref_s"], axiom_s=rec["axiom_s"],
               trace=rec.get("trace"))
    return res, rec["verdicts"]


def run_pass(runner, jobs, probe, trace, workload, samples, verdicts):
    """Run the jobs in order, appending as they finish, so that a pass cut
    by the time limit keeps what it measured."""
    for job in jobs:
        res, got = run_job(runner, job, probe, trace, workload)
        samples.append(res)
        verdicts.append((job, res, got))


def check_cli_outputs(verdicts, expected_class):
    """Fill in the CLI verdicts left open during timing."""
    sys.path.insert(0, SRC)
    from orbatlas import cli

    def roundtrip(text):
        return cli.dumps(cli.loads(text))

    for job, res, got in verdicts:
        if job["kind"] != "cli" or got[0][1] is not None:
            continue
        try:
            msg = check_cli(job, res["code"], res["stdout"], expected_class, roundtrip)
        except Exception as e:  # noqa: BLE001 - a raised check is a failed verdict
            msg = f"check raised {type(e).__name__}: {e}; exit {res['code']}"
        got[0][1] = msg or "ok"


def job_medians(verdicts):
    """Median timed wall per job label, to see which job moved."""
    by_label = {}
    for job, res, _ in verdicts:
        by_label.setdefault(job["label"], []).append(res["run_s"])
    return {k: statistics.median(v) for k, v in sorted(by_label.items())}


def tail(values):
    """The highest percentile with at least 10 samples beyond it.  Below 20
    samples that percentile would lie under the median, so the maximum is
    reported instead.  Returns (value, percentile)."""
    vals = sorted(values)
    n = len(vals)
    if n < 20:
        return vals[-1], 100.0
    return vals[n - 11], 100.0 * (n - 10) / n


def git_commit():
    head = _read(os.path.join(ROOT, ".git", "HEAD"))
    if head is None:
        return None
    head = head.strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    got = _read(os.path.join(ROOT, ".git", ref))
    if got:
        return got.strip()
    for line in (_read(os.path.join(ROOT, ".git", "packed-refs")) or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def src_loc():
    total = 0
    for dirpath, _, files in os.walk(SRC):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f)) as fh:
                    total += sum(1 for _ in fh)
    return total


def per_layer(traced, untraced_run_s, traced_run_s):
    """Per-layer metrics summed over the children of the traced pass."""
    spans, counts = {}, {}
    import_s = []
    for res in traced:
        summ = res.get("trace")
        if summ is None:
            continue
        for name, agg in summ["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            for k in acc:
                acc[k] += agg[k]
        for k, v in summ.items():
            if k not in ("spans", "import_s"):
                counts[k] = counts.get(k, 0) + v
        if "import_s" in summ:
            import_s.append(summ["import_s"])

    def ratio(num, den):
        return counts.get(num, 0) / counts[den] if counts.get(den) else 0.0

    def span(name):
        return spans.get(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})

    out = {}
    for name in [n for n, _, _ in TARGETS] + [IS_W]:
        out[f"{name}.calls"] = (span(name)["calls"], "count")
        out[f"{name}.self_s"] = (span(name)["self_s"], "s")
    for name in BF_SPANS:
        out[f"{name}.s"] = (span(name)["total_s"], "s")
    out["atlas.closure.hit_ratio"] = (ratio("closure_hits", "closure_calls"), "ratio")
    out["groupoid.is_morita.distinct_ratio"] = (ratio("morita_distinct", "morita_calls"), "ratio")
    out["fractions.is_w.distinct_ratio"] = (ratio("is_w_distinct", "is_w_calls"), "ratio")
    out["fractions.chosen_square.hit_ratio"] = (ratio("lookup_hits", "lookups"), "ratio")
    out["cli.import_s"] = (statistics.median(import_s) if import_s else 0.0, "s")
    out["trace.overhead_s"] = (traced_run_s - untraced_run_s, "s")
    return out, spans


def measure(args):
    runner = Runner(args.seed)
    setup_lats, setup_refs, setup_rec = run_setup(runner, args.workload)
    probe = json.dumps(setup_rec["probe"])
    expected_class = setup_rec["expected_class"]
    jobs = plan(args.workload, args.seed, expected_class)

    passes, all_verdicts, pass_times = [], [], []
    traced, traced_verdicts = [], []
    deadline_hit = False
    t_loop = time.perf_counter()
    try:
        while True:
            pass_jobs = plan(args.workload, args.seed, expected_class, len(passes))
            passes.append([])
            run_pass(runner, pass_jobs, probe, False, args.workload, passes[-1], all_verdicts)
            pass_times.append(sum(s["wall"] for s in passes[-1]))
            elapsed = time.perf_counter() - t_loop
            if args.trace or elapsed + statistics.median(pass_times) > args.seconds:
                break
        if args.trace:
            run_pass(runner, jobs, probe, True, args.workload, traced, traced_verdicts)
    except Deadline:
        deadline_hit = True
    measured_s = time.perf_counter() - t_loop
    # A pass cut by the time limit counts only when no pass finished.
    passes = passes[:len(pass_times)] or passes[:1]
    pass_speed = [speed([r for s in p for r in s["ref"]]) for p in passes]

    def per_pass(key, scaled=True):
        """Summed `key` of each pass, at the reference speed unless not
        `scaled`."""
        return [sum(s[key] for s in p) * (f if scaled else 1.0)
                for p, f in zip(passes, pass_speed)]

    failures = []
    if deadline_hit:
        failures.append(f"run stopped at the {HARD_LIMIT_S:.0f} s limit")
    if args.workload == "cli-batch":
        check_cli_outputs(all_verdicts + traced_verdicts, expected_class)
    attempted = sum(len(got) for _, _, got in all_verdicts)
    wrong = [f"{label}: {status}" for _, _, got in all_verdicts
             for label, status in got if status != "ok"]

    run_s = statistics.median(per_pass("run_s"))
    record = {
        "workload": args.workload, "seed": args.seed, "hash_seed": hash_seed(args.seed),
        "seconds": args.seconds, "trace": args.trace, "measured_s": measured_s,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "commit": git_commit(),
        "src_loc": src_loc(), "passes": len(passes),
        "jobs_per_pass": len(jobs), "timed_children": sum(len(p) for p in passes),
        "setup_children": len(setup_lats), "closure_probe": setup_rec["probe"],
        "ref_nominal_s": REF_NOMINAL_S, "setup_speed": speed(setup_refs),
        "pass_speed": pass_speed, "raw_setup_s": statistics.median(setup_lats),
        "raw_pass_run_s": per_pass("run_s", scaled=False),
        "job_median_s": job_medians(all_verdicts),
        "failed_frac": {"failed": len(wrong), "attempted": attempted,
                        "value": len(wrong) / attempted if attempted else None},
    }
    if args.workload.startswith("bf-"):
        record["axiom_s_per_pass"] = {
            f"BF{k}": statistics.median(sum(s.get("axiom_s", {}).get(f"BF{k}", 0.0)
                                            for s in p) for p in passes)
            for k in range(1, 6)}

    if args.trace:
        attempted += sum(len(got) for _, _, got in traced_verdicts)

        def outcome(verdicts):
            return [(got, res.get("stdout"), res["code"]) for _, res, got in verdicts]
        if outcome(all_verdicts[:len(jobs)]) != outcome(traced_verdicts):
            failures.append("traced verdicts differ from untraced ones")
        wrong += [f"traced {label}: {status}" for _, _, got in traced_verdicts
                  for label, status in got if status != "ok"]
        traced_run_s = (sum(s["run_s"] for s in traced)
                        * speed([r for s in traced for r in s["ref"]]))
        layer, spans = per_layer(traced, run_s, traced_run_s)
        missing = [n for n in REQUIRED_CALLS[args.workload]
                   if spans.get(n, {}).get("calls", 0) == 0]
        if missing:
            failures.append(f"tracing self-check: no calls recorded for {missing}")
        record.update(untraced_run_s=run_s, traced_run_s=traced_run_s)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
    else:
        # A command is one CLI call on cli-batch and one whole pass elsewhere:
        # the jobs of a pass differ in size by 10x, so a median over jobs
        # would only say which job sits in the middle.
        if args.workload == "cli-batch":
            lats = [s["lat"] * f * 1000.0 for p, f in zip(passes, pass_speed) for s in p]
        else:
            lats = [t * 1000.0 for t in per_pass("lat")]
        lats = lats or [measured_s * 1000.0]     # nothing finished in time
        tail_ms, tail_pct = tail(lats)
        record.update(cmd_samples=len(lats), cmd_tail_percentile=tail_pct)
        metrics = {
            "setup_s": {"value": statistics.median(setup_lats) * speed(setup_refs),
                        "unit": "s"},
            "run_s": {"value": run_s, "unit": "s"},
            "cpu_s": {"value": statistics.median(per_pass("cpu_s")), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
                            / 1024.0, "unit": "MB"},
            "cmd_p50_ms": {"value": statistics.median(lats), "unit": "ms"},
            "cmd_tail_ms": {"value": tail_ms, "unit": "ms"},
        }

    record["failures"] = failures + wrong[:20]
    print(json.dumps({"record": record}))
    for line in failures + wrong[:20]:
        print(f"perfbench: {line}", file=sys.stderr)
    print(json.dumps({"correct": not failures and not wrong, "attempted": max(attempted, 1),
                      "failed": len(wrong) + len(failures), "metrics": metrics}))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "orbatlas", "__init__.py")):
        sys.exit(f"perfbench: no orbatlas sources under {SRC}; run from a source checkout")
    # On SIGTERM, unwind through the `finally` blocks that stop the running
    # child and remove the scratch directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    os.makedirs(WORK)
    try:
        measure(args)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(WORK))    # only when no other run uses it
        except OSError:
            pass


if __name__ == "__main__":
    main()
