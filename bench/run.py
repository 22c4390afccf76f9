"""Benchmark of lrcone: end-to-end metrics, or per-layer metrics when traced.

    python3 bench/run.py --workload rays|hilbert|queries|cli|all
                         [--seed N] [--seconds S] [--trace 0|1] [--size large]

Prints the environment, every metric by name with its unit, and as the
last line one JSON object {"correct", "attempted", "failed", "metrics"}.
Exits 1 when a correctness check fails, 2 when the checkout holds no
lrcone sources.

Every job runs in a fresh interpreter (worker.py), one at a time, so the
ray memo and the `lru_cache`s start cold as they do for every CLI user.
Jobs repeat until their timed work adds up to --seconds, and at least
MIN_JOBS times. `--trace 1` alternates untraced and traced jobs and
reports the per-layer metrics; `--trace 0` reports the end-to-end metrics.
`--size large` reruns `rays` at r=5 and `hilbert` at (6,3,B=3) and
(5,3,B=4) once, outside the gated workloads, to compare with the baseline
in ROADMAP.md.

run.py pins itself, and so every process it starts, to one CPU, which a
probe process shares to sample the host's speed; every time reported is
scaled to a reference speed (hostspeed.py), and the report also prints the
job time as measured. Work in a fresh process (set-up, and each cli
invocation) is scaled by the probe's cold pass, a job within one process
by its warm pass.
"""

import argparse
import functools
import hashlib
import json
import os
import platform
import random
import re
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(ROOT, ".bench_out")

import gate  # noqa: E402  (bench modules, importable from this directory)
import hostspeed  # noqa: E402
import queries as qmod  # noqa: E402

WORKLOADS = ("rays", "hilbert", "queries", "cli")
SETUPS = 3            # set-ups per run; setup_s is their median
MIN_JOBS = 3          # untraced jobs (cli: passes) per run; medians need three
RUN_LIMIT_S = 170     # every run ends, and stops its children, within this
LARGE_LIMIT_S = 900   # ... except a --size large run, which is one job
# seconds per call on a 2-core machine, Python 3.11.7 (ROADMAP.md, "Recent")
LARGE_BASELINE_S = {"rays(5, 3, 'LR')": 50, "rays(5, 3, 'EqLR')": 60,
                    "hilbert(6, 3, 'EqLR', 3)": 19, "hilbert(5, 3, 'EqLR', 4)": 22}
clock = time.perf_counter

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

# per-layer metric -> (span name, summary field); the spans are recorded
# by worker.py around the functions listed in spans.LAYERS
SPAN_METRICS = {
    "rays.exact_rank.calls": ("rays.exact_rank", "calls"),
    "rays.exact_rank.busy_s": ("rays.exact_rank", "busy_s"),
    "rays.certify.calls": ("rays.certify", "calls"),
    "rays.certify.busy_s": ("rays.certify", "busy_s"),
    "rays.facet_rays.calls": ("rays.facet_rays", "calls"),
    "rays.facet_rays.self_s": ("rays.facet_rays", "self_s"),
    "rays.type1_ray.busy_s": ("rays.type1_ray", "busy_s"),
    "rays.ind_hat.calls": ("rays.ind_hat", "calls"),
    "rays.ind_hat.busy_s": ("rays.ind_hat", "busy_s"),
    "hilbert.lattice_points_bounded.busy_s": ("hilbert.lattice_points_bounded", "busy_s"),
    "hilbert.sieve_s": ("hilbert.hilbert_basis_bounded", "self_s"),
    "hilbert.is_indecomposable.busy_s": ("hilbert.is_indecomposable", "busy_s"),
    "partitions.lr_coef.calls": ("partitions.lr_coef", "calls"),
    "partitions.lr_coef.busy_s": ("partitions.lr_coef", "busy_s"),
    "partitions.coef_of_subsets.calls": ("partitions.coef_of_subsets", "calls"),
    "partitions.coef_of_subsets.busy_s": ("partitions.coef_of_subsets", "busy_s"),
    "cones.all_horn_data.busy_s": ("cones.all_horn_data", "busy_s"),
    "cones.inequality_system.busy_s": ("cones.inequality_system", "busy_s"),
    "cones.member.calls": ("cones.member", "calls"),
    "cones.member.busy_s": ("cones.member", "busy_s"),
}


def _unit(name):
    if name.endswith(".calls"):
        return "count"
    return "s" if name.endswith("_s") else "ms"


# (name, args); each runs as a fresh `lrcone` process. FILL writes the
# disk cache that `rays`, `tables` and `facet` then read.
def cli_commands(seed):
    rng = random.Random(seed)
    pool = qmod.load_rays(gate.EXPECTED_PATH)[(4, 3, "EqLR")]
    point = qmod.fmt(qmod.add(*rng.sample(pool, 2)))
    return [
        ("version", ["--version"]),
        ("horn", ["horn", "--r", "7", "--d", "3", "--format", "json"]),
        ("facet", ["facet", "--r", "3", "--I", "{2};{2}", "--K", "{3}"]),
        ("member", ["member", "--point", point, "--kind", "eqlr"]),
        ("rays", ["rays", "--r", "4", "--format", "json"]),
        ("tables", ["tables", "--which", "ray-counts", "--max-r", "4"]),
        ("hilbert", ["hilbert", "--r", "4", "--bound", "3"]),
        ("sample", ["sample", "--spectra", "3,1,0;2,1,0.5", "--trials", "200",
                    "--seed", str(seed)]),
    ]


CLI_NAMES = [name for name, _ in cli_commands(0)]
FILL = ["rays", "--r", "4", "--format", "json"]
CLI_ENTRY = "import sys; from lrcone.cli import main; sys.exit(main())"

PER_LAYER = dict(
    {name: _unit(name) for name in SPAN_METRICS},
    **{"rays.yield": "ratio", "hilbert.box_points": "count",
       "hilbert.members": "count", "hilbert.basis_per_member": "ratio"},
    **{f"queries.{op}.latency_p50_ms": "ms" for op in qmod.OPS},
    **{"queries.distinct_frac": "ratio", "lrcone.import_s": "s"},
    **{f"cli.{name}.latency_ms": "ms" for name in CLI_NAMES},
    **{"trace.overhead_frac": "ratio"},
)


class BenchError(Exception):
    """The benchmark itself could not run (not a wrong answer)."""


# ---------------------------------------------------------------------------
# statistics

TAIL_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)


def percentile(values, p):
    """The p-th percentile by linear interpolation between order statistics."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail(values):
    """(percentile, value): the highest percentile of TAIL_LADDER with at
    least ten samples beyond it, or (100.0, max) when there is none."""
    n = len(values)
    best = None
    for p in TAIL_LADDER:
        if round(n * (100.0 - p) / 100.0, 6) >= 10:
            best = p
    if best is None:
        return 100.0, max(values)
    return best, percentile(values, best)


# ---------------------------------------------------------------------------
# children

class Child:
    def __init__(self, out, code, rusage, start, ready_s, wall_s):
        self.out, self.code, self.rusage = out, code, rusage
        self.start, self.ready_s, self.wall_s = start, ready_s, wall_s

    @property
    def window(self):
        return (self.start, self.start + self.wall_s)

    @property
    def peak_rss_mb(self):
        return self.rusage.ru_maxrss / 1024.0   # Linux reports KiB


def child_env(cache_dir=None):
    """The caller's environment with a cache dir only when one is given,
    lrcone from this checkout, a fixed hash seed and single-threaded BLAS."""
    env = dict(os.environ)
    env.pop("LRCONE_CACHE_DIR", None)
    if cache_dir:
        env["LRCONE_CACHE_DIR"] = cache_dir
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(argv, env, deadline, ready_mark=None):
    """Run one child to completion, reading its stdout; kill it at the
    deadline. Returns its output, exit code, own rusage and timings."""
    start = clock()
    proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            env=env, cwd=ROOT)
    chunks, ready_s = [], None
    try:
        fd = proc.stdout.fileno()
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise BenchError(f"timed out: {argv[-1][:80]}")
            if not select.select([fd], [], [], remaining)[0]:
                continue
            data = os.read(fd, 1 << 16)
            if not data:
                break
            chunks.append(data)
            if ready_mark and ready_s is None and ready_mark in b"".join(chunks):
                ready_s = clock() - start
        while True:
            pid, status, rusage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                raise BenchError(f"timed out: {argv[-1][:80]}")
            time.sleep(0.001)
        wall = clock() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        proc.stdout.close()
    return Child(b"".join(chunks), proc.returncode, rusage, start, ready_s, wall)


def run_worker(spec, deadline):
    child = run_child([sys.executable, WORKER, json.dumps(spec)], child_env(),
                      deadline, ready_mark=b"ready\n")
    lines = child.out.decode().splitlines()
    if child.code != 0 or not lines or lines[0] != "ready":
        raise BenchError(f"worker for {spec['workload']} exited {child.code}: "
                         f"{child.out[-500:].decode(errors='replace')}")
    result = json.loads(lines[-1])
    result["setup_s"] = child.ready_s
    # set-up and job, not the checks after the job
    result["window"] = (child.start, result.get("job_end", child.window[1]))
    return result


def scale_times(result, f, op_factors=None, setup_f=None):
    """Scale the times in a job's result by the host-speed factor `f`, its
    operations' latencies by `op_factors` and its set-up by `setup_f` when
    given (hostspeed.py); the job time as measured stays in raw_wall_s."""
    for key in ("setup_s", "import_s"):
        if key in result:
            result[key] *= setup_f or f
    if "wall_s" in result:
        result["raw_wall_s"] = result["wall_s"]
        result["wall_s"] *= f
    if "latencies" in result:
        result["raw_latencies"] = result["latencies"]
        factors = op_factors or [f] * len(result["latencies"])
        result["latencies"] = [t * g for t, g in zip(result["latencies"], factors)]
    for stats in result.get("trace", {}).get("layers", {}).values():
        stats["busy_s"] *= f
        stats["self_s"] *= f
    result["speed"] = f
    return result


def stop_probe(probe):
    if not probe.stop():
        raise BenchError("the host-speed probe took no samples")


# ---------------------------------------------------------------------------
# library workloads: rays, hilbert, queries

def run_library(name, args, deadline, probe):
    """Untraced jobs (and, with --trace, traced ones in between) until the
    timed work reaches --seconds and, untraced, MIN_JOBS jobs have run; then
    set-up-only workers up to SETUPS."""
    os.makedirs(OUT_DIR, exist_ok=True)
    plain, traced = [], []
    measured = 0.0
    while True:
        tracing = args.trace and len(plain) > len(traced)
        spec = {"workload": name, "seed": args.seed, "size": args.size,
                "trace": tracing, "check": not plain,
                "spans_out": os.path.join(OUT_DIR, f"{name}.spans.npz")}
        res = run_worker(spec, deadline)
        (traced if tracing else plain).append(res)
        measured += res["wall_s"]
        min_jobs = 1 if args.size == "large" else MIN_JOBS
        if measured >= args.seconds and (len(traced) == len(plain) if args.trace
                                         else len(plain) >= min_jobs):
            break
    extra = []
    while len(plain) + len(traced) + len(extra) < SETUPS:
        extra.append(run_worker({"workload": name, "seed": args.seed, "size": args.size,
                                 "trace": False, "check": False, "setup_only": True},
                                deadline))
    stop_probe(probe)
    for res in plain + traced + extra:
        # the job runs warm in its process; its set-up is a cold start
        start = res["window"][0]
        f = probe.factor(*res["window"])
        cold_f = probe.factor(*res["window"], cold=True)
        scale_times(res, f, [probe.factor(t, t + d, f) for t, d in
                             zip(res.get("op_starts", ()), res.get("latencies", ()))],
                    probe.factor(start, start + res["setup_s"], cold_f, cold=True))
    setups = [res["setup_s"] for res in plain + traced + extra]

    # the first job ran the full checks; a job with the same outputs shares
    # the first job's failed operations
    first = plain[0]
    failures = []
    for k, res in enumerate(plain + traced):
        own = {i for i, _ in res["failures"]}
        failures += [(k, i, msg) for i, msg in res["failures"]]
        if res["digest"] != first["digest"]:
            failures.append((k, -1, "outputs differ from the first job's"))
        elif k:
            failures += [(k, i, msg) for i, msg in first["failures"]
                         if i >= 0 and i not in own]
    ops = sum(len(res["latencies"]) for res in plain + traced)
    run = {
        "setup_s": setups,
        "walls": [res["wall_s"] for res in plain],
        "job_latencies": [res["latencies"] for res in plain],
        "raw_job_latencies": [res["raw_latencies"] for res in plain],
        "peak_rss_mb": max(res["peak_rss_mb"] for res in plain),
        "attempted": ops,
        "failures": failures,
        "import_s": [res["import_s"] for res in plain + traced],
        "traced_walls": [res["wall_s"] for res in traced],
        "traces": [res["trace"] for res in traced],
        "raw_walls": [res["raw_wall_s"] for res in plain],
        "speed": [res["speed"] for res in plain],
    }
    run["op_names"] = plain[0]["ops"]
    if name == "queries":
        ops_of = plain[0]["ops"]
        run["per_op"] = {op: [t for res in plain for o, t in zip(ops_of, res["latencies"])
                              if o == op] for op in qmod.OPS}
        run["distinct_frac"] = qmod.distinct_frac(gate.inputs("queries", "default", args.seed))
    return run


# ---------------------------------------------------------------------------
# the cli workload

def cli_argv(cmd):
    return [sys.executable, "-c", CLI_ENTRY] + cmd


def check_cli(name, out, expected):
    """A problem with the first output of a CLI command, or None."""
    try:
        ok = _cli_output_ok(name, out.decode(), expected)
    except (ValueError, KeyError, IndexError, TypeError):  # unparsable output
        ok = False
    return None if ok else f"cli {name}: output fails its check"


def _cli_output_ok(name, text, expected):
    rays4 = next(set(e["points"]) for e in expected["rays"]
                 if (e["r"], e["s"], e["kind"]) == (4, 3, "EqLR"))
    if name == "version":
        ok = re.fullmatch(r"\d+\.\d+\.\d+\S*\n", text) is not None
    elif name == "horn":
        result = json.loads(text)["result"]
        ok = result["count"] == len(result["data"]) > 0
    elif name == "facet":
        # the worked facet of tests/test_acceptance.py, criterion 3
        ok = ("# type II extremal images (7):" in text and "# zero images: 3" in text
              and "# non-extremal images (2):" in text and text.count(" -> ") == 3)
    elif name == "member":
        ok = text == "true\n"
    elif name == "rays":
        result = json.loads(text)["result"]
        got = {";".join(",".join(map(str, b)) for b in p) for p in result["rays"]}
        ok = result["count"] == 72 and got == rays4
    elif name == "tables":
        ok = text == "r\tLR\tEqLR\n1\t2\t3\n2\t5\t10\n3\t10\t27\n4\t20\t72\n"
    elif name == "hilbert":
        lines = text.splitlines()
        ok = lines[0].startswith("# 72 ") and set(lines[1:]) == rays4
    else:
        records = [json.loads(line) for line in text.splitlines()]
        ok = len(records) == 200 and all(r["max_violation"] <= 1e-9 for r in records)
    return ok


def run_cli_pass(commands, workdir, cache, traced, deadline):
    results = []
    for name, cmd in commands:
        if traced:
            summary = os.path.join(workdir, f"{name}.summary.json")
            spec = {"workload": "cli", "argv": cmd, "summary": summary,
                    "spans_out": os.path.join(OUT_DIR, f"cli-{name}.spans.npz")}
            child = run_child([sys.executable, WORKER, json.dumps(spec)],
                              child_env(cache), deadline)
            if not os.path.exists(summary):
                raise BenchError(f"traced cli {name} wrote no span summary")
            with open(summary) as fh:
                child.summary = json.load(fh)
            os.remove(summary)
        else:
            child = run_child(cli_argv(cmd), child_env(cache), deadline)
        results.append(child)
    return results


def run_cli(args, deadline, probe):
    os.makedirs(OUT_DIR, exist_ok=True)
    tmp_root = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    commands = cli_commands(args.seed)
    expected = gate.load_expected()
    # compile __pycache__ first, so no timed process pays for it
    warm = run_child([sys.executable, "-c", "import lrcone.cli"], child_env(), deadline)
    if warm.code != 0:
        raise BenchError("cannot import lrcone.cli")
    workdir = tempfile.mkdtemp(prefix="cli-", dir=tmp_root)
    try:
        fills = []
        for k in range(SETUPS):
            cache = os.path.join(workdir, f"cache{k}")
            fill = run_child(cli_argv(FILL), child_env(cache), deadline)
            if fill.code != 0:
                raise BenchError("filling the disk cache failed")
            fills.append(fill)
            if k:
                shutil.rmtree(os.path.join(workdir, f"cache{k - 1}"))
        plain, traced = [], []
        measured = 0.0
        while True:
            tracing = args.trace and len(plain) > len(traced)
            results = run_cli_pass(commands, workdir, cache, tracing, deadline)
            (traced if tracing else plain).append(results)
            measured += sum(c.wall_s for c in results)
            if measured >= args.seconds and (len(traced) == len(plain) if args.trace
                                             else len(plain) >= MIN_JOBS):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    stop_probe(probe)
    # each invocation is a fresh process that starts with cold caches, as
    # the probe's first pass does (hostspeed.py)
    factor = functools.partial(probe.factor, cold=True)
    setups = [fill.wall_s * factor(*fill.window) for fill in fills]
    speeds = []
    for k, results in enumerate(plain + traced):
        f = factor(results[0].start, results[-1].window[1])
        for child in results:
            child.raw_wall_s = child.wall_s
            child.wall_s *= factor(*child.window, f)
            if k >= len(plain):
                scale_times(child.summary, f)
        speeds.append(f)

    failures = []
    first = plain[0]
    for k, results in enumerate(plain + traced):
        for i, ((name, _), child) in enumerate(zip(commands, results)):
            if child.code != 0:
                failures.append((k, i, f"cli {name} exited {child.code}"))
            elif child.out != first[i].out:
                failures.append((k, i, f"cli {name}: stdout differs from the first pass"))
            elif k == 0:
                msg = check_cli(name, child.out, expected)
                if msg:
                    failures.append((k, i, msg))
    return {
        "setup_s": setups,
        "walls": [sum(c.wall_s for c in results) for results in plain],
        "job_latencies": [[c.wall_s for c in results] for results in plain],
        "peak_rss_mb": max(c.peak_rss_mb for results in plain for c in results),
        "attempted": sum(len(results) for results in plain + traced),
        "failures": failures,
        "per_command": {name: [results[i].wall_s for results in plain]
                        for i, (name, _) in enumerate(commands)},
        "import_s": [c.summary["import_s"] for results in traced for c in results],
        "traced_walls": [sum(c.wall_s for c in results) for results in traced],
        "traces": [merge_traces([c.summary["trace"] for c in results])
                   for results in traced],
        "raw_walls": [sum(c.raw_wall_s for c in results) for results in plain],
        "speed": speeds[:len(plain)],
    }


def merge_traces(traces):
    """Sum the span summaries and counters of several traced processes."""
    layers = {}
    for tr in traces:
        for span, stats in tr["layers"].items():
            acc = layers.setdefault(span, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += stats[key]
    merged = {key: sum(tr[key] for tr in traces)
              for key in ("rays_kept", "box_points", "members", "basis")}
    merged["layers"] = layers
    return merged


# ---------------------------------------------------------------------------
# metrics

def end_to_end(run):
    """The end-to-end metrics. The tail is taken per job, whose sample count
    is fixed, and its median over jobs reported, so the percentile chosen
    does not depend on how many jobs fit in --seconds.

    On cli the median is the median over the commands of each command's
    median time. The commands' times fall in groups (five take about the
    interpreter's start-up, three do more work); the median of all
    invocations lies at the upper edge of the first group and moves
    between the groups from run to run."""
    tails = [tail(lat) for lat in run["job_latencies"]]
    run["tail_pct"] = tails[0][0]
    latencies = [t for lat in run["job_latencies"] for t in lat]
    total = sum(run["walls"])
    if "per_command" in run:
        p50 = statistics.median(statistics.median(lat)
                                for lat in run["per_command"].values())
    else:
        p50 = statistics.median(latencies)
    return {
        "setup_s": statistics.median(run["setup_s"]),
        "wall_s": statistics.median(run["walls"]),
        "ops_per_s": len(latencies) / total,
        "latency_p50_ms": 1e3 * p50,
        "latency_tail_ms": 1e3 * statistics.median(v for _, v in tails),
        "peak_rss_mb": run["peak_rss_mb"],
    }


def per_layer(name, run):
    out = dict.fromkeys(PER_LAYER, 0.0)
    traces = run["traces"]

    def med(values):
        return statistics.median(values) if values else 0.0

    for metric, (span, field) in SPAN_METRICS.items():
        out[metric] = med([tr["layers"].get(span, {}).get(field, 0) for tr in traces])
    certify_calls = out["rays.certify.calls"]
    out["rays.yield"] = (med([tr["rays_kept"] for tr in traces]) / certify_calls
                         if certify_calls else 0.0)
    out["hilbert.box_points"] = med([tr["box_points"] for tr in traces])
    out["hilbert.members"] = med([tr["members"] for tr in traces])
    out["hilbert.basis_per_member"] = (
        med([tr["basis"] for tr in traces]) / out["hilbert.members"]
        if out["hilbert.members"] else 0.0)
    for op, lat in run.get("per_op", {}).items():
        out[f"queries.{op}.latency_p50_ms"] = 1e3 * med(lat)
    out["queries.distinct_frac"] = run.get("distinct_frac", 0.0)
    for cmd, lat in run.get("per_command", {}).items():
        out[f"cli.{cmd}.latency_ms"] = 1e3 * med(lat)
    out["lrcone.import_s"] = med(run["import_s"])
    out["trace.overhead_frac"] = med(run["traced_walls"]) / med(run["walls"]) - 1.0
    return out


def environment(args, name):
    git_rev = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        git_rev = proc.stdout.strip() or None
    src_hash = hashlib.sha256()
    pkg = os.path.join(SRC, "lrcone")
    for fname in sorted(os.listdir(pkg)):
        path = os.path.join(pkg, fname)
        if os.path.isfile(path):
            with open(path, "rb") as fh:
                src_hash.update(fname.encode() + b"\0" + fh.read())
    if name in gate.JOBS:
        sizes = gate.JOBS[name][args.size]
    elif name == "queries":
        sizes = {"queries": gate.QUERY_COUNT, "ops": qmod.OPS, "repeat": qmod.REPEAT}
    else:
        sizes = [cmd for _, cmd in cli_commands(args.seed)]
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": metadata.version("numpy"), "git_rev": git_rev,
            "src_sha256": src_hash.hexdigest()[:16], "seed": args.seed,
            "seconds": args.seconds, "trace": bool(args.trace), "size": args.size,
            "workload": name, "sizes": sizes}


def run_workload(name, args):
    deadline = time.monotonic() + (LARGE_LIMIT_S if args.size == "large" else RUN_LIMIT_S)
    probe = hostspeed.Probe()
    try:
        run = (run_cli if name == "cli" else functools.partial(run_library, name))(
            args, deadline, probe)
    finally:
        probe.stop()
    metrics = per_layer(name, run) if args.trace else end_to_end(run)
    units = PER_LAYER if args.trace else END_TO_END
    failed = len({(k, i) for k, i, _ in run["failures"]})
    attempted = max(run["attempted"], failed, 1)
    lines = [f"# env {json.dumps(environment(args, name))}"]
    for metric, value in metrics.items():
        lines.append(f"{name} {metric} = {value:.6g} {units[metric]}")
    if not args.trace:
        lines.append(f"{name} host speed factor = {statistics.median(run['speed']):.4g}; "
                     f"wall_s as measured = {statistics.median(run['raw_walls']):.6g} s")
        lines.append(f"{name} latency_tail_ms is p{run['tail_pct']:g} of each job's "
                     f"{len(run['job_latencies'][0])} samples, median of "
                     f"{len(run['job_latencies'])} jobs")
        lines.append(f"{name} wall_s of each job: "
                     + ", ".join(f"{w:.4g}" for w in run["walls"]) + " s")
    if name in gate.JOBS and not args.trace:
        for i, op in enumerate(run["op_names"]):
            secs = statistics.median(lat[i] for lat in run["job_latencies"])
            raw = statistics.median(lat[i] for lat in run["raw_job_latencies"])
            base = LARGE_BASELINE_S.get(op)
            lines.append(f"{name} op {op} = {secs:.4g} s, as measured {raw:.4g} s"
                         + (f" (baseline as measured {base} s)" if base else ""))
    lines.append(f"{name} failed_frac = {failed / attempted:.6g} "
                 f"({failed} of {attempted} operations)")
    for k, i, msg in run["failures"][:20]:
        lines.append(f"{name} FAILED job {k} op {i}: {msg}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
            "lines": lines}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("default", "large"), default="default")
    args = parser.parse_args(argv)
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if not os.path.isfile(os.path.join(SRC, "lrcone", "__init__.py")):
        print(f"error: no lrcone sources under {SRC}", file=sys.stderr)
        return 2
    if args.size == "large" and args.workload not in gate.JOBS:
        parser.error("--size large applies to the rays and hilbert workloads")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args)
            print("\n".join(results[name]["lines"]), flush=True)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(names) == 1:
        final = results[names[0]]
        final.pop("lines")
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{name}.{m}": v for name, r in results.items()
                             for m, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
