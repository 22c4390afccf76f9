"""Record `expected.json`: the facts the benchmark's gate checks against.

    python3 bench/record.py

Re-run only when the benchmark's fixed jobs or its golden query list
change. The ray sets are cross-checked here against the independent
double-description oracle before they are written; the Hilbert bases and
the golden query digest are recorded from the program as it stands.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import lrcone  # noqa: E402

import gate  # noqa: E402
import queries as qmod  # noqa: E402

RAY_SETS = [(3, 3, "EqLR"), (4, 3, "LR"), (4, 3, "EqLR"), (3, 4, "EqLR")]
GOLDEN_SEED = 0
GOLDEN_COUNT = 420


def main():
    rays = []
    for r, s, kind in RAY_SETS:
        points = lrcone.enumerate_rays(r, s, kind)
        dd = lrcone.dd_rays(lrcone.inequality_system(r, s, kind), ceiling=r * s)
        if set(dd) != set(points):
            raise SystemExit(f"({r},{s},{kind}): recursive and DD ray sets differ")
        rays.append({"r": r, "s": s, "kind": kind, "count": len(points),
                     "points": [qmod.fmt(p) for p in points]})
        print(f"rays ({r},{s},{kind}): {len(points)}, DD agrees", flush=True)
    hilbert = []
    for r, s, kind, bound in gate.JOBS["hilbert"]["default"]:
        points = lrcone.hilbert_basis_bounded(r, s, kind, bound).points
        hilbert.append({"r": r, "s": s, "kind": kind, "bound": bound,
                        "count": len(points),
                        "sha256": gate.point_set_digest(points)})
        print(f"hilbert ({r},{s},{kind},B={bound}): {len(points)}", flush=True)
    pools = {(e["r"], e["s"], e["kind"]): [qmod.parse(t) for t in e["points"]]
             for e in rays}
    golden = qmod.make_queries(GOLDEN_SEED, GOLDEN_COUNT, pools)
    answers = [qmod.answer(lrcone, q) for q in golden]
    out = {"rays": rays, "hilbert": hilbert,
           "queries": {"seed": GOLDEN_SEED, "count": GOLDEN_COUNT,
                       "sha256": qmod.digest(golden, answers)}}
    with open(gate.EXPECTED_PATH, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
