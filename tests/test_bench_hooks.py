"""The benchmark's traced run can still hook into orbatlas.

`perfbench/tracer.py` wraps orbatlas functions and methods by name, some of
them through the class dict (`Region.__dict__["__init__"]`).  A change that
moves one of them away breaks only the traced run of the benchmark; this
test runs that code path in tier-1.  A child interpreter imports the tracer
as the benchmark does, installs it, and runs one `bf-groupoid` job and two
CLI calls: `equiv-report`, and `fred 1`, which loads a document and writes
one.  It reports the names of `run.REQUIRED_CALLS` for those two workloads
that recorded no call.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"

SCRIPT = """
import contextlib, io, json, os, sys
sys.path.insert(0, sys.argv[1])
import child
from run import REQUIRED_CALLS
from tracer import Tracer
import orbatlas.cli, orbatlas.fixtures, orbatlas.fractions

doc = os.path.join(sys.argv[2], "flip_M.json")
with open(doc, "w") as fh:
    fh.write(orbatlas.cli.dumps(orbatlas.fixtures.MORPHISMS["flip_M"]))
tracer = Tracer()
tracer.install()
ops, universe = child._bf_setup("groupoid")
verdicts = child._run_bf({"slice": 0, "order_seed": None}, ops, universe, {})
with contextlib.redirect_stdout(io.StringIO()):
    codes = [orbatlas.cli.run(["equiv-report"]), orbatlas.cli.run(["fred", "1", doc])]
spans = tracer.summary()["spans"]
names = REQUIRED_CALLS["bf-groupoid"] + REQUIRED_CALLS["cli-batch"]
print(json.dumps({"verdicts": verdicts, "codes": codes,
                  "silent": [n for n in names if spans[n]["calls"] == 0]}))
"""


def test_traced_names_record_calls(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(BENCH), str(tmp_path)],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["codes"] == [0, 0]
    assert [v for _, v in out["verdicts"]] == ["ok"] * 5
    assert out["silent"] == []
