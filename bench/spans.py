"""In-memory span recording around the layer boundaries of lrcone.

`Tracer.install` replaces each listed function with a wrapper that records
one span per call: name, start, end and the span that was open when the
call began (its parent). Every binding of the function across the lrcone
modules is replaced, because the modules import each other's functions by
name (`from .cones import member`), so patching one module would miss the
calls made through the others.

Only layer boundaries are wrapped. Small helpers such as `flatten` or
`check_point` run millions of times inside the Hilbert sieve; wrapping them
would cost more than the work they do and would move that work out of the
self time of their callers.

Spans are kept in flat arrays and summarised, or written out, after the
job. The summaries assume one thread: the child spans of a span never
overlap one another.
"""

import functools
import sys
import time
from array import array

import numpy as np

# module -> layer-boundary functions wrapped in a traced run
LAYERS = {
    "partitions": ("lr_coef", "multi_coef", "coef_of_subsets", "multi_expand",
                   "partitions_in_box"),
    "cones": ("all_horn_data", "enumerate_horn", "inequality_system", "member",
              "nonvanishing", "shadow"),
    "rays": ("enumerate_rays", "facet_rays", "type1_ray", "ind_hat", "certify",
             "exact_rank", "special_rays"),
    "hilbert": ("hilbert_basis_bounded", "lattice_points_bounded",
                "is_indecomposable"),
    "oracle": ("dd_rays", "sample_spectrum_sum"),
    "cli": ("main", "cmd_horn", "cmd_rays", "cmd_facet", "cmd_member",
            "cmd_hilbert", "cmd_tables", "cmd_sample"),
}


class Tracer:
    """Records spans of the wrapped functions of the loaded lrcone modules."""

    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        # span name -> callback(args, result, nested), for counters; nested
        # is the number of spans recorded inside the call
        self.results = {}
        self._stack = [-1]

    def _id(self, name):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def wrap(self, fn, name):
        """A wrapper of `fn` that records one span named `name` per call."""
        nid = self._id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter
        on_result = self.results.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(args, result, len(names) - idx - 1)
            return result

        return wrapper

    def install(self, layers=LAYERS):
        """Wrap every listed function of every imported lrcone module."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "lrcone" or key.startswith("lrcone."))]
        for modname, funcs in layers.items():
            mod = sys.modules.get(f"lrcone.{modname}")
            if mod is None:
                continue
            for fname in funcs:
                original = getattr(mod, fname)
                wrapped = self.wrap(original, f"{modname}.{fname}")
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapped)

    def arrays(self):
        """The recorded spans as numpy arrays (name id, parent, start, end)."""
        return (np.array(self.name, dtype=np.int32),
                np.array(self.parent, dtype=np.int32),
                np.array(self.start, dtype=np.float64),
                np.array(self.end, dtype=np.float64))

    def summary(self):
        return summarize(self.names, *self.arrays())

    def save(self, path):
        name, parent, start, end = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name=name,
                            parent=parent, start=start, end=end)


def union_length(start, end):
    """Total length covered by intervals given in order of their start."""
    if len(start) == 0:
        return 0.0
    reach = np.maximum.accumulate(end)
    fresh = np.ones(len(start), dtype=bool)
    fresh[1:] = start[1:] > reach[:-1]
    first = np.flatnonzero(fresh)
    last = np.append(first[1:], len(start)) - 1
    return float(np.sum(reach[last] - start[first]))


def summarize(names, name, parent, start, end):
    """Per span name: calls, busy time and self time, in seconds.

    Busy time is the length of the union of the name's spans, so a
    recursive call is not counted twice. Self time is each span's duration
    minus the time its child spans cover, summed over the name's spans.
    """
    dur = end - start
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent],
                        minlength=len(dur))
    own = dur - child
    out = {}
    for nid, label in enumerate(names):
        mask = name == nid
        out[label] = {"calls": int(mask.sum()),
                      "busy_s": union_length(start[mask], end[mask]),
                      "self_s": float(own[mask].sum())}
    return out
