"""Workload definitions shared by run.py and its children.

A workload is a list of jobs; one pass runs every job once, each job in a
fresh interpreter.  Seed 0 keeps the catalog's sorted order in every pass;
any other seed permutes the order of the jobs and of the work inside each
job, with a new permutation for each pass of a run, and sets the children's
PYTHONHASHSEED.  The work itself is the same for every seed, so that a run's
cost depends on the visiting order and not on a draw.
"""

from __future__ import annotations

import json
import random

WORKLOADS = ("bf-atlas", "bf-groupoid", "coherence", "cli-batch")

# bf-*: the depth-2 universe (40 cells) is cut into BF_SLICES stride slices
# (cells j, j+8, ...).  Each job checks BF1-BF5 on one slice with one fresh
# ChoiceTable.  The whole universe in one process takes 35-44 s, more than a
# run may last; an eighth takes 0.2-2 s, so a run holds several passes.
BF_SLICES = 8
BF_AXIOMS = (1, 2, 3, 4, 5)

# coherence: the localized-coherence list of the acceptance suite.  Spans are
# written "e:<morphism>" (universal embedding), "id:<atlas>" (identity span)
# and "legs" (the MIRROR_REF legs span).
UNITS = ("flip_M", "leg1_MR_M", "emb_T_M", "rot_K")
TRIANGLES = (
    ("e:flip_M", "id:MIRROR", "e:emb_T_M"),
    ("e:flip_M", "id:MIRROR", "e:flip_M"),
    ("legs", "id:MIRROR", "e:flip_M"),
    ("e:rot_K", "id:CONE3", "e:rot2_K"),
    ("e:leg1_MR_M", "id:MIRROR_REF", "id:MIRROR_REF"),
    ("e:incl_M_MR", "id:MIRROR", "e:leg1_MR_M"),
    ("e:emb_T_M", "id:TRIV", "id:TRIV"),
)
PENTAGONS = (
    ("e:flip_M", "e:id_MIRROR", "e:flip_M", "e:emb_T_M"),
    ("e:flip_M", "legs", "e:flip_M", "e:emb_T_M"),
    ("legs", "e:leg1_MR_M", "e:incl_M_MR", "e:flip_M"),
    ("e:rot_K", "e:rot2_K", "e:rot_K", "e:id_CONE3"),
)

# cli-batch: composable pairs (first, then second) for `compose`.
COMPOSE_PAIRS = (
    ("emb_T_M", "flip_M"),
    ("flip_M", "incl_M_MR"),
    ("half_T", "shift_T"),
    ("leg1_KR_K", "rot_K"),
    ("leg2_KR_K", "incl_K_KR"),
    ("leg2_MR_M", "flip_M"),
    ("rot_K", "incl_K_KR"),
    ("unshift_T", "emb_T_M"),
)
# Morita holds exactly for these classes (the weak-equivalence/Morita
# correspondence).
MORITA_CLASSES = ("refinement", "weak_equivalence")


def hash_seed(seed: int) -> int:
    """PYTHONHASHSEED of the children: 0 for seed 0, else derived."""
    return 0 if seed == 0 else random.Random(f"hash:{seed}").randrange(1, 2**32)


def plan(workload: str, seed: int, expected_class: dict, pass_no: int = 0) -> list:
    """The jobs of pass `pass_no`, in visiting order.  A job is a dict with
    its `kind`, a `label`, its inputs and `verdicts`, the number of verdicts
    it returns."""
    def permuted(items, salt):
        items = list(items)
        if seed != 0:
            random.Random(f"{salt}:{seed}:{pass_no}").shuffle(items)
        return items

    if workload in ("bf-atlas", "bf-groupoid"):
        jobs = [{"kind": "bf", "label": f"slice{j}", "instance": workload[3:], "slice": j,
                 "order_seed": None if seed == 0 else f"{workload}:{j}:{seed}:{pass_no}",
                 "verdicts": len(BF_AXIOMS)}
                for j in range(BF_SLICES)]
        return permuted(jobs, workload)
    if workload == "coherence":
        refinements = sorted(n for n, c in expected_class.items() if c == "refinement")
        groups = ([("units-triangles", [("unit", n) for n in UNITS]
                    + [("triangle", i) for i in range(len(TRIANGLES))])]
                  + [(f"pentagon{i}", [("pentagon", i)]) for i in range(len(PENTAGONS))]
                  + [("quasi-inverses", [("qi", n) for n in refinements])])
        jobs = [{"kind": "coherence", "label": label, "items": permuted(g, label),
                 "verdicts": len(g)} for label, g in groups]
        return permuted(jobs, workload)
    if workload == "cli-batch":
        names = sorted(expected_class)
        cmds = []
        for n in names:
            cmds.append({"kind": "cli", "argv": ["classify", f"{n}.json"], "subject": n})
            cmds.append({"kind": "cli", "argv": ["validate", f"{n}.json"], "subject": n})
            cmds.append({"kind": "cli", "argv": ["morita", f"{n}.gpd.json"], "subject": n})
            cmds.append({"kind": "cli", "argv": ["fred", "1", f"{n}.json"], "subject": n})
        for a, b in COMPOSE_PAIRS:
            cmds.append({"kind": "cli", "argv": ["compose", f"{a}.json", f"{b}.json"],
                         "subject": f"{b}.{a}"})
        cmds.append({"kind": "cli", "argv": ["equiv-report"], "subject": "catalog"})
        for c in cmds:
            c.update(label=c["argv"][0], verdicts=1)
        return permuted(cmds, workload)
    raise ValueError(f"unknown workload {workload!r}")


def check_cli(cmd: dict, code: int, out: str, expected_class: dict, roundtrip) -> str | None:
    """Oracle for one CLI call: None when right, else what was wrong.
    `roundtrip(text)` re-serializes an output document."""
    verb = cmd["argv"][0]
    if verb == "classify":
        want = expected_class[cmd["subject"]]
        got = json.loads(out).get("class")
        if code != 0 or got != want:
            return f"class {got!r} exit {code}, expected {want!r} exit 0"
    elif verb == "validate":
        if code != 0 or json.loads(out).get("ok") is not True:
            return f"catalog morphism not valid (exit {code})"
    elif verb == "morita":
        want = expected_class[cmd["subject"]] in MORITA_CLASSES
        got = json.loads(out).get("morita")
        if got is not want or code != (0 if want else 1):
            return f"morita {got!r} exit {code}, expected {want!r}"
    elif verb in ("fred", "compose"):
        kind = "gpd_morphism" if verb == "fred" else "morphism"
        if code != 0:
            return f"exit {code}"
        if json.loads(out).get("kind") != kind:
            return f"output is not a {kind} document"
        if roundtrip(out) != out.rstrip("\n"):
            return "output document does not re-serialize identically"
    elif verb == "equiv-report":
        if code != 0 or json.loads(out).get("ok") is not True:
            return f"equivalence criteria fail (exit {code})"
    return None
