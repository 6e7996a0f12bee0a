"""Golden snapshot of the command line's output.

The snapshot holds, for every call, the sha256 of its exit code and its
stdout.  The calls are the `cli-batch` calls of the benchmark (classify,
validate, morita and fred 1 on every catalog morphism, the composable
pairs and `equiv-report`) and `bf-check --axiom 1..5` on both instances.
They run in one process through `cli.run`, in a directory that holds the
catalog morphisms and their `fred1` images as documents, named by relative
paths.  A change of kernel or representation must reproduce every call
byte for byte.

The same snapshot is also taken in a child interpreter under another
`PYTHONHASHSEED`, after it has allocated and kept a few thousand objects,
so that its object ids, and with them the iteration order of every set
of values, differ from this process's: no output may depend on hash order.

Regenerate (only when a change of output is intended) with

    PYTHONPATH=src python tests/test_cli_golden.py --write
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "data" / "cli_golden.json"
sys.path.insert(0, str(HERE.parent / "perfbench"))

from workloads import plan  # noqa: E402

from orbatlas import cli  # noqa: E402
from orbatlas import fred as frd  # noqa: E402
from orbatlas import fixtures as fx  # noqa: E402


def calls():
    argvs = [c["argv"] for c in plan("cli-batch", 0, fx.EXPECTED_CLASS)]
    return argvs + [["bf-check", instance, "--axiom", str(axiom)]
                    for instance in ("atlas", "groupoid") for axiom in range(1, 6)]


def snapshot(workdir):
    """Write the catalog documents into `workdir` and run every call there."""
    old = os.getcwd()
    os.chdir(workdir)
    try:
        for name, m in fx.MORPHISMS.items():
            Path(name + ".json").write_text(cli.dumps(m))
            Path(name + ".gpd.json").write_text(cli.dumps(frd.fred1(m)))
        out = {}
        for argv in calls():
            with contextlib.redirect_stdout(io.StringIO()) as stdout:
                code = cli.run(argv)
            text = f"{code}\n{stdout.getvalue()}"
            out[" ".join(argv)] = hashlib.sha256(text.encode()).hexdigest()
        return out
    finally:
        os.chdir(old)


def _check(got):
    want = json.loads(GOLDEN.read_text())
    assert sorted(got) == sorted(want)
    for key in want:
        assert got[key] == want[key], key


def test_cli_matches_golden_snapshot(tmp_path):
    _check(snapshot(tmp_path))


CHILD = """
import json, sys
keep = [object() for _ in range(3000)] + [[i] * (i % 7) for i in range(3000)]
sys.path.insert(0, sys.argv[1])
import test_cli_golden
print(json.dumps(test_cli_golden.snapshot(sys.argv[2])))
"""


def test_cli_output_does_not_depend_on_hash_order(tmp_path):
    env = dict(os.environ, PYTHONHASHSEED="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(HERE.parent / "src"),
                                                        os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", CHILD, str(HERE), str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    _check(json.loads(proc.stdout.splitlines()[-1]))


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_cli_golden.py --write")
    with tempfile.TemporaryDirectory() as workdir:
        got = snapshot(workdir)
    GOLDEN.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
