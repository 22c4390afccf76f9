"""Workload inputs and the correctness gate.

Every job's outputs are checked against facts recorded in `expected.json`
(see record.py for how it was made) and against paper identities. Cheap
checks run on every job; the expensive ones (the DD cross-check, the
indecomposability of every (6,3,B=2) point, the per-query identities and
the golden query digest) run once per run, in the first job's worker,
after its timed job.
"""

import hashlib
import json
import os

import queries as qmod

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")

# workload -> size -> the fixed job, one library call per entry
JOBS = {
    "rays": {
        "default": [(4, 3, "LR"), (4, 3, "EqLR"), (3, 4, "EqLR")],
        "large": [(5, 3, "LR"), (5, 3, "EqLR")],
    },
    "hilbert": {
        "default": [(5, 3, "EqLR", 3), (6, 3, "EqLR", 2), (4, 3, "EqLR", 4)],
        "large": [(6, 3, "EqLR", 3), (5, 3, "EqLR", 4)],
    },
}
QUERY_COUNT = 9009  # 1287 of each of the seven operations

# ray counts asserted by tests/test_acceptance.py
LR_COUNTS = {1: 2, 2: 5, 3: 10, 4: 20, 5: 44}
EQLR_COUNTS = {1: 3, 2: 10, 3: 27, 4: 72, 5: 195}
# indecomposable points of EqLR_6^3 on no extremal ray (test_acceptance.py)
R6_EXTRAS = ("2,1,1,1,1,1;2,2,2,1,1,1;3,3,2,2,2,1",
             "2,2,1,1,1,1;2,2,1,1,1,1;3,2,2,2,2,1",
             "2,2,2,1,1,1;2,1,1,1,1,1;3,3,2,2,2,1")


def load_expected(path=EXPECTED_PATH):
    with open(path) as fh:
        return json.load(fh)


class Raised:
    """Stands in for the output of an operation that raised."""

    def __init__(self, message):
        self.message = message

    def __repr__(self):
        return f"Raised({self.message!r})"


def point_set_digest(points):
    """sha256 of a set of block-tuple points, independent of their order."""
    text = "\n".join(sorted(qmod.fmt(p) for p in points))
    return hashlib.sha256(text.encode()).hexdigest()


def inputs(workload, size, seed):
    if workload in JOBS:
        return [tuple(item) for item in JOBS[workload][size]]
    if workload == "queries":
        rays = qmod.load_rays(EXPECTED_PATH)
        return qmod.make_queries(seed, QUERY_COUNT, rays)
    raise ValueError(f"no in-process job for workload {workload!r}")


def call(lib, workload, item):
    if workload == "rays":
        return lib.enumerate_rays(*item)
    if workload == "hilbert":
        return lib.hilbert_basis_bounded(*item).points
    return qmod.answer(lib, item)


def op_name(workload, item):
    if workload in JOBS:
        return f"{workload}{item}"
    return item[0]


def output_digest(outputs):
    return hashlib.sha256(repr(outputs).encode()).hexdigest()


def _ray_failure(lib, item, out, expected, full):
    r, s, kind = item
    if s == 3:
        want = (LR_COUNTS if kind == "LR" else EQLR_COUNTS)[r]
        if len(out) != want:
            return f"{len(out)} rays, expected {want}"
    recorded = {(e["r"], e["s"], e["kind"]): e["points"] for e in expected["rays"]}
    if (r, s, kind) in recorded:
        if {qmod.fmt(p) for p in out} != set(recorded[(r, s, kind)]):
            return "ray set differs from the recorded set"
    if full and (r, s, kind) == (3, 4, "EqLR"):
        dd = lib.dd_rays(lib.inequality_system(r, s, kind), ceiling=r * s)
        if set(dd) != set(out):
            return "ray set differs from the double-description oracle"
    return None


def _hilbert_failure(lib, item, out, expected, full):
    r, s, kind, bound = item
    entry = next((e for e in expected["hilbert"]
                  if (e["r"], e["s"], e["kind"], e["bound"]) == item), None)
    if entry is not None:
        if len(out) != entry["count"]:
            return f"{len(out)} basis points, expected {entry['count']}"
        if point_set_digest(out) != entry["sha256"]:
            return "basis differs from the recorded set"
    if (r, bound) == (4, 4):
        rays = next(e["points"] for e in expected["rays"]
                    if (e["r"], e["s"], e["kind"]) == (4, 3, "EqLR"))
        if {qmod.fmt(p) for p in out} != set(rays):
            return "the (4,3,B=4) basis is not the r=4 EqLR ray set"
    if (r, bound) == (5, 4) and len(out) != EQLR_COUNTS[5]:
        return f"{len(out)} basis points, expected {EQLR_COUNTS[5]}"
    if (r, bound) == (6, 3) and not {qmod.parse(t) for t in R6_EXTRAS} <= set(out):
        return "the three r=6 extra basis elements are missing"
    if full and (r, bound) == (6, 2):
        bad = [p for p in out if not lib.is_indecomposable(p, kind)]
        if bad:
            return f"{len(bad)} basis points are decomposable"
    return None


def check_outputs(lib, workload, items, outputs, full):
    """Failure messages, one per failed operation plus one per failed
    run-level check, as a list of [index or -1, message]."""
    expected = load_expected()
    failures = [[i, repr(out)] for i, out in enumerate(outputs)
                if isinstance(out, Raised)]
    failed = {i for i, _ in failures}
    if workload in JOBS:
        check = _ray_failure if workload == "rays" else _hilbert_failure
        for i, (item, out) in enumerate(zip(items, outputs)):
            if i not in failed:
                msg = check(lib, item, out, expected, full)
                if msg:
                    failures.append([i, f"{op_name(workload, item)}: {msg}"])
        return failures
    if not full:
        return failures
    rays = {key: set(points) for key, points in
            qmod.load_rays(EXPECTED_PATH).items()}
    verdicts = {}
    for i, (q, a) in enumerate(zip(items, outputs)):
        if i in failed:
            continue
        if q not in verdicts:
            verdicts[q] = qmod.problems(lib, q, a, rays)
        if verdicts[q]:
            failures.append([i, f"{q[0]}{q[1:]}: {'; '.join(verdicts[q])}"])
    golden = expected["queries"]
    gq = qmod.make_queries(golden["seed"], golden["count"],
                           qmod.load_rays(EXPECTED_PATH))
    answers = []
    for q in gq:
        try:
            answers.append(qmod.answer(lib, q))
        except Exception as exc:  # recorded into the digest, which then differs
            answers.append(Raised(f"{type(exc).__name__}: {exc}"))
    if qmod.digest(gq, answers) != golden["sha256"]:
        failures.append([-1, "golden query answers differ from the recorded digest"])
    return failures
