"""Seeded point queries for the `queries` workload, and their answer checks.

The query list is made from the seed alone, without calling lrcone, so a
cold worker meets it with cold caches. Points that must lie in a cone
(inputs of certify, shadow and is_indecomposable) are sums of recorded
extremal rays, which lie in the cone by convexity.

Every operation gets the same number of queries. No record of how the
library is used exists to weight them by, so none is favoured; the report
gives each operation's own median latency, from which any other weighting
can be worked out.

A share REPEAT of the queries repeats an earlier one of the same
operation, chosen uniformly from the distinct ones so far, so the oldest
keys repeat most and find the `lru_cache`s of the LR engine warm, as a
client asking about related points would. (Choosing among all earlier
queries, repeats included, made the repeat counts of the costliest keys
swing from seed to seed.) The value 0.3 is assumed, not measured:
high enough that cache hits are a visible part of the job, low enough that
most of the time goes to fresh work.
"""

import hashlib
import json
import numbers
import random

KINDS = ("C", "EqC", "LR", "EqLR", "CSL")
OPS = ("member", "lr_coef", "multi_coef", "nonvanishing", "certify", "shadow",
       "is_indecomposable")
REPEAT = 0.3


def parse(text):
    return tuple(tuple(int(v) for v in block.split(",")) for block in text.split(";"))


def fmt(point):
    return ";".join(",".join(str(v) for v in block) for block in point)


def partition(rng, rows, width):
    """A random partition with at most `rows` parts, each at most `width`."""
    return tuple(sorted((rng.randint(0, width) for _ in range(rows)), reverse=True))


def target(rng, lams, rows, deficit=0):
    """A partition nu with at most `rows` parts that contains every lam and
    has weight sum(|lam|) - deficit (or the least weight containment allows)."""
    nu = [max(lam[i] if i < len(lam) else 0 for lam in lams) for i in range(rows)]
    extra = max(0, sum(map(sum, lams)) - deficit - sum(nu))
    for _ in range(extra):
        rows_ok = [i for i in range(rows) if i == 0 or nu[i - 1] > nu[i]]
        nu[rng.choice(rows_ok)] += 1
    return tuple(nu)


def add(x, y):
    return tuple(tuple(a + b for a, b in zip(bx, by)) for bx, by in zip(x, y))


# A query's cost depends most on its shape (rows, blocks, cone kind, one
# ray or several), so the i-th new query of each operation cycles through
# the shapes: the seed picks the partitions and rays, not the mix of
# shapes, and the job time and its percentiles do not move with the seed.
def _member(rng, rays, i):
    rows = 2 + i % 4
    s = 4 if i // 20 % 4 == 3 else 3
    lams = [partition(rng, rows, rng.randint(1, 5)) for _ in range(s - 1)]
    nu = target(rng, lams, rows, deficit=rng.choice((0, 0, 1, 2)))
    return ("member", tuple(lams) + (nu,), KINDS[i % 5])


def _lr_coef(rng, rays, i):
    rows = 3 + i % 3
    lam = partition(rng, rows, rng.randint(2, 5))
    mu = partition(rng, rows, rng.randint(2, 5))
    return ("lr_coef", lam, mu, target(rng, [lam, mu], rows))


def _multi_coef(rng, rays, i):
    rows = 3 + i % 3
    lams = tuple(partition(rng, rows, rng.randint(1, 4)) for _ in range(3))
    return ("multi_coef", lams, target(rng, lams, rows + 1))


def _nonvanishing(rng, rays, i):
    rows = 2 + i % 4
    lams = tuple(partition(rng, rows, rng.randint(1, 5)) for _ in range(2))
    return ("nonvanishing", lams, target(rng, lams, rows, rng.choice((0, 1))),
            i // 4 % 2 == 1)


class _Pool:
    """A recorded ray set, dealt out one seeded shuffle at a time."""

    def __init__(self, points):
        self.points, self.deck = points, []


def _ray_sum(rng, pool, terms):
    """One ray of `pool` (terms == 1), or the sum of `terms` distinct ones.

    Single rays are dealt from seeded shuffles of the pool, so every ray is
    drawn equally often (to within one shuffle) whatever the seed. A
    certify query's cost depends on its ray, and drawn with replacement the
    few costliest rays came up a different number of times in each seed,
    which moved the workload's tail latency from seed to seed."""
    if terms == 1:
        if not pool.deck:
            pool.deck = rng.sample(pool.points, len(pool.points))
        return pool.deck.pop()
    picks = rng.sample(pool.points, terms)
    x = picks[0]
    for y in picks[1:]:
        x = add(x, y)
    return x


def _certify(rng, rays, i):
    kind = ("LR", "EqLR")[i % 2]
    return ("certify", _ray_sum(rng, rays[(4, 3, kind)], 1 + i // 2 % 2), kind)


def _shadow(rng, rays, i):
    pool = rays[(3 + i % 2, 3, "EqLR")]
    return ("shadow", _ray_sum(rng, pool, 1 + i // 2 % 3), rng.randint(1, 2))


def _is_indecomposable(rng, rays, i):
    kind = ("LR", "EqLR")[i % 2]
    pool = rays[(3 + i // 4 % 2 if kind == "EqLR" else 4, 3, kind)]
    return ("is_indecomposable", _ray_sum(rng, pool, 1 + i // 2 % 2), kind)


MAKERS = {"member": _member, "lr_coef": _lr_coef, "multi_coef": _multi_coef,
          "nonvanishing": _nonvanishing, "certify": _certify, "shadow": _shadow,
          "is_indecomposable": _is_indecomposable}


def make_queries(seed, count, rays):
    """`count` queries made from `seed`, count / len(OPS) of each operation,
    shuffled.

    `rays` maps (r, s, kind) to a list of extremal ray points; it needs
    (3, 3, "EqLR"), (4, 3, "LR") and (4, 3, "EqLR").
    """
    if count % len(OPS):
        raise ValueError(f"count must be a multiple of {len(OPS)}")
    rng = random.Random(seed)
    pools = {key: _Pool(points) for key, points in rays.items()}
    ops = [op for op in OPS for _ in range(count // len(OPS))]
    rng.shuffle(ops)
    fresh = {op: [] for op in OPS}
    out = []
    for op in ops:
        if fresh[op] and rng.random() < REPEAT:
            q = rng.choice(fresh[op])
        else:
            q = MAKERS[op](rng, pools, len(fresh[op]))
            fresh[op].append(q)
        out.append(q)
    return out


def distinct_frac(queries):
    return len(set(queries)) / len(queries)


def answer(lib, q):
    """Run one query against the lrcone package `lib`; plain-data answer."""
    op = q[0]
    if op == "member":
        return lib.member(q[1], q[2])
    if op == "lr_coef":
        return lib.lr_coef(q[1], q[2], q[3])
    if op == "multi_coef":
        return lib.multi_coef(q[1], q[2])
    if op == "nonvanishing":
        return lib.nonvanishing(list(q[1]), q[2], q[3])
    if op == "certify":
        ray = lib.certify(q[1], q[2])
        return (ray.point, ray.primitive, ray.tight_rank)
    if op == "shadow":
        return lib.shadow(q[1], q[2])
    if op == "is_indecomposable":
        return lib.is_indecomposable(q[1], q[2])
    raise ValueError(f"unknown query {op!r}")


def plain(value):
    """`value` as JSON data: bools, ints and lists, so that answers equal in
    value (a numpy or a Python int, a tuple or a list) read the same.
    Anything else, such as a raised error, stands as its repr."""
    if type(value).__name__ in ("bool", "bool_"):   # also numpy's bool
        return bool(value)
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, str):
        return value
    if isinstance(value, (tuple, list)):
        return [plain(v) for v in value]
    return repr(value)


def digest(queries, answers):
    """sha256 over the queries and their answers, in order, as JSON."""
    h = hashlib.sha256()
    for q, a in zip(queries, answers):
        h.update(json.dumps(plain((q, a))).encode() + b"\n")
    return h.hexdigest()


def _weight(lam):
    return sum(lam)


def _pad(lam, n):
    return tuple(lam) + (0,) * (n - len(lam))


def problems(lib, q, a, rays):
    """Paper identities the answer `a` to query `q` must satisfy; returns a
    list of violations (empty when the answer passes). `rays` maps
    (r, s, kind) to the set of recorded extremal rays."""
    op = q[0]
    out = []
    if op == "member":
        x = q[1]
        verdict = {k: lib.member(x, k) for k in KINDS}
        if a != verdict[q[2]]:
            out.append("member verdict is not repeatable")
        # face and cone inclusions: CSL in LR in C, LR in EqLR in EqC, C in EqC
        for small, big in (("CSL", "LR"), ("LR", "C"), ("LR", "EqLR"),
                           ("EqLR", "EqC"), ("C", "EqC")):
            if verdict[small] and not verdict[big]:
                out.append(f"in {small} but not in {big}")
        if len(x) == 3 and _weight(x[2]) == _weight(x[0]) + _weight(x[1]):
            # saturation: LR membership iff the LR coefficient is nonzero
            if verdict["LR"] != (lib.lr_coef(x[0], x[1], x[2]) != 0):
                out.append("LR membership disagrees with lr_coef")
    elif op == "lr_coef":
        lam, mu, nu = q[1:]
        if a != lib.lr_coef(mu, lam, nu):
            out.append("lr_coef is not symmetric in lam and mu")
        rows = len(nu)
        point = (_pad(lam, rows), _pad(mu, rows), nu)
        if lib.member(point, "LR") != (a != 0):
            out.append("saturation fails: LR membership vs lr_coef")
    elif op == "multi_coef":
        lams, nu = q[1:]
        if a != lib.multi_coef(lams[::-1], nu):
            out.append("multi_coef is not symmetric in its factors")
        if lib.nonvanishing(list(lams), nu, False) != (a != 0):
            out.append("saturation fails: LR membership vs multi_coef")
    elif op == "nonvanishing":
        lams, nu, equivariant = q[1:]
        if a != lib.nonvanishing(list(lams), nu, equivariant):
            out.append("nonvanishing is not repeatable")
        if not equivariant and _weight(nu) == sum(map(_weight, lams)):
            if a != (lib.lr_coef(lams[0], lams[1], nu) != 0):
                out.append("saturation fails: nonvanishing vs lr_coef")
        if not equivariant and a and not lib.nonvanishing(list(lams), nu, True):
            out.append("nonzero LR coefficient but zero equivariant one")
    elif op == "certify":
        point, primitive, rank = a
        x, kind = q[1:]
        r, s = len(x[0]), len(x)
        # the inputs are one extremal ray or the sum of two distinct ones
        single = x in rays[(r, s, kind)]
        if (rank == r * s - 1) != single:
            out.append("extremality certificate is wrong")
        if single and not primitive:
            out.append("a recorded primitive ray is reported non-primitive")
    elif op == "shadow":
        x, j = q[1:]
        y = a
        if not lib.member(y, "LR"):
            out.append("shadow is not in LR")
        if sum(map(_weight, y[:-1])) != _weight(y[-1]):
            out.append("shadow does not have equal trace")
        if any(y[k] != x[k] for k in range(len(x)) if k != j - 1):
            out.append("shadow changed a block other than j")
        if any(b > c for b, c in zip(y[j - 1], x[j - 1])):
            out.append("shadow grew block j")
    elif op == "is_indecomposable":
        x, kind = q[1:]
        if a != (x in rays[(len(x[0]), len(x), kind)]):
            out.append("indecomposability verdict is wrong")
    return out


def load_rays(path):
    """The recorded ray sets of `expected.json`, keyed by (r, s, kind)."""
    with open(path) as fh:
        data = json.load(fh)
    return {(e["r"], e["s"], e["kind"]): [parse(t) for t in e["points"]]
            for e in data["rays"]}
