"""Host speed during a benchmark run, sampled by a probe process.

On a 2-vCPU virtual machine whose cores are shared with other tenants, the
same job ran up to ~40% slower in some minutes than in others, and a fixed
loop timed in 3 ms pieces showed two speeds, one ~37% slower than the
other, mixed in a proportion that drifted over minutes. The process's CPU
time (user plus system) moves with it: a fixed loop timed 20 times in a
row spread as much in CPU time as in wall time (IQR over median 0.23 in
both), so the host runs the CPU slower rather than taking it away. Spreads
that size swamp the bounds a change is judged by, so run.py reports every
time scaled to a reference speed.

The probe shares the one CPU that run.py pins the benchmark to. Every
PERIOD_S it wakes, runs a fixed loop of standard-library code 1 + WARMUP
times, timing the first pass and the last, and sleeps again, taking about
3% of the CPU. A time measured over an interval is reported as the time
times the mean, over the probe samples taken in that interval, of
REFERENCE_S / (loop time). The probe runs no lrcone code, so a slower
program still reads slower. REFERENCE_S only sets the unit.

The two passes answer to different work. The last pass runs with the
probe's data in the caches, like a long job in one process (rays,
hilbert, queries); timed right after a 320 MB array was summed it ran
0.4% slower than after a small pure-Python loop (medians of 300
alternations), so a job that moves more memory still reads slower. The
first pass runs after the job has evicted the probe's data, like a fresh
process that starts cold (every set-up, and every cli invocation): it
ran 37% slower after the array sum, so it is used only for work that
starts cold anyway. Scaled by
the last pass, five cli runs spread 1.52-1.66 s in wall_s as the host's
speed varied; scaled by the first pass, 1.21-1.23 s.

    python3 bench/hostspeed.py    (started by run.py; prints its samples
                                   as JSON when its stdin closes)
"""

import json
import select
import subprocess
import sys
import time
from fractions import Fraction

PERIOD_S = 0.025
WARMUP = 2             # passes before the last one; the first is timed too
REFERENCE_S = 0.00014  # loop time at the reference speed
MIN_SAMPLES = 4        # fewer samples in an interval than this: use `fallback`


def _loop():
    """Fraction arithmetic and small dict updates: the allocation-heavy mix
    lrcone runs, in a working set small enough that the job sharing the CPU
    cannot change how fast it runs. A plain integer loop proved less
    sensitive to the host's load than the jobs it was meant to scale."""
    acc = Fraction(0)
    seen = {}
    for i in range(60):
        key = (i % 7, i % 5, i % 3)
        seen[key] = seen.get(key, 0) + 1
        acc += Fraction(i % 97 + 1, i % 12 + 1)
    return acc


class Probe:
    """The probe process of one run; `stop` collects its samples."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE)
        self.samples = None

    def stop(self):
        if self.samples is None:
            self.proc.stdin.close()
            out = self.proc.stdout.read()
            self.proc.wait()
            self.proc.stdout.close()
            self.samples = json.loads(out) if out else []
        return self.samples

    def factor(self, start, end, fallback=None, cold=False):
        """Mean speed factor over the samples taken between two
        time.perf_counter() readings (the clock is system-wide). With fewer
        than MIN_SAMPLES in between: `fallback`, or the mean over all.
        `cold` takes the loop's first pass instead of its last."""
        k = 1 if cold else 2
        inside = [s[k] for s in self.samples if start <= s[0] <= end]
        if len(inside) < MIN_SAMPLES:
            if fallback is not None:
                return fallback
            inside = [s[k] for s in self.samples]
        return sum(REFERENCE_S / d for d in inside) / len(inside)


def main():
    samples = []
    while not select.select([sys.stdin], [], [], PERIOD_S)[0]:
        t = time.perf_counter()
        _loop()
        first = time.perf_counter() - t
        for _ in range(WARMUP - 1):
            _loop()
        t = time.perf_counter()
        _loop()
        samples.append((t, first, time.perf_counter() - t))
    print(json.dumps(samples))


if __name__ == "__main__":
    main()
