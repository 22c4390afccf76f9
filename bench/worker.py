"""One cold job of a workload, in a fresh interpreter.

Run as `python3 bench/worker.py '<spec json>'` by run.py, never by hand.
The worker imports lrcone, builds its inputs, prints `ready` (the end of
its set-up), runs the timed job, then runs the correctness checks outside
the timed region and prints one JSON result line.

A spec with "workload": "cli" instead runs one traced CLI invocation: the
CLI's output goes to stdout as usual and the span summary to a file.
"""

import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import gate  # noqa: E402  (bench modules; the path is set above)

clock = time.perf_counter


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def import_lrcone(module="lrcone"):
    t = clock()
    __import__(module)
    elapsed = clock() - t
    lib = sys.modules["lrcone"]
    if not os.path.abspath(lib.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"lrcone was imported from {lib.__file__}, not from {SRC}")
    return lib, elapsed


def make_tracer():
    import spans  # imports numpy, so only after lrcone's own import was timed

    tracer = spans.Tracer()
    counters = {"rays_kept": {}, "box_points": 0, "members": 0, "basis": 0}

    def on_enumerate(args, result, nested):
        if nested:  # computed here, not read from the memo or the disk cache
            counters["rays_kept"][tuple(args[:3])] = len(result)

    def on_lattice(args, result, nested):
        counters["members"] += len(result)

    def on_basis(args, result, nested):
        counters["basis"] += len(result.points)

    tracer.results.update({"rays.enumerate_rays": on_enumerate,
                           "hilbert.lattice_points_bounded": on_lattice,
                           "hilbert.hilbert_basis_bounded": on_basis})
    tracer.install()
    # box points: the candidate rows the Hilbert search builds and tests for
    # membership, counted where they are tested; reads 0 if the search no
    # longer goes through _member_mask
    hilbert = sys.modules["lrcone.hilbert"]
    member_mask = getattr(hilbert, "_member_mask", None)
    if member_mask is not None:
        def counted_mask(flat_rows, *args):
            counters["box_points"] += len(flat_rows)
            return member_mask(flat_rows, *args)
        hilbert._member_mask = counted_mask
    return tracer, counters


def trace_record(tracer, counters, spans_out):
    """Write the raw spans to `spans_out` and return their summary."""
    tracer.save(spans_out)
    return {"layers": tracer.summary(),
            "rays_kept": sum(counters["rays_kept"].values()),
            "box_points": counters["box_points"], "members": counters["members"],
            "basis": counters["basis"]}


def run_job(lib, spec, inputs):
    """The timed job: returns (wall seconds, per-op latencies, per-op start
    times, outputs)."""
    latencies, starts, outputs = [], [], []
    start = clock()
    for item in inputs:
        t = clock()
        starts.append(t)
        try:
            out = gate.call(lib, spec["workload"], item)
        except Exception as exc:  # a raising operation counts as failed
            out = gate.Raised(f"{type(exc).__name__}: {exc}")
        latencies.append(clock() - t)
        outputs.append(out)
    return clock() - start, latencies, starts, outputs


def worker(spec):
    lib, import_s = import_lrcone()
    inputs = gate.inputs(spec["workload"], spec["size"], spec["seed"])
    tracer = counters = None
    if spec["trace"]:
        tracer, counters = make_tracer()
    print("ready", flush=True)
    if spec.get("setup_only"):
        print(json.dumps({"import_s": import_s}))
        return
    wall, latencies, starts, outputs = run_job(lib, spec, inputs)
    # time.perf_counter is system-wide, so run.py can place these in time
    result = {"import_s": import_s, "wall_s": wall, "latencies": latencies,
              "op_starts": starts, "job_end": clock(),
              "peak_rss_mb": peak_rss_mb(),
              "ops": [gate.op_name(spec["workload"], item) for item in inputs]}
    if tracer is not None:
        result["trace"] = trace_record(tracer, counters, spec["spans_out"])
    result["failures"] = gate.check_outputs(lib, spec["workload"], inputs, outputs,
                                            full=spec["check"])
    result["digest"] = gate.output_digest(outputs)
    print(json.dumps(result))


def cli_worker(spec):
    """One traced CLI invocation; the span summary goes to spec["summary"]."""
    t = clock()
    import lrcone.cli
    import_s = clock() - t
    tracer, counters = make_tracer()
    start = clock()
    try:
        code = lrcone.cli.main(spec["argv"])
    finally:
        wall = clock() - start
        sys.stdout.flush()
        with open(spec["summary"], "w") as fh:
            json.dump({"import_s": import_s, "wall_s": wall,
                       "trace": trace_record(tracer, counters, spec["spans_out"])},
                      fh)
    sys.exit(code)


if __name__ == "__main__":
    job = json.loads(sys.argv[1])
    if job["workload"] == "cli":
        cli_worker(job)
    else:
        worker(job)
