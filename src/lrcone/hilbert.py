"""Indecomposability and bounded Hilbert-basis search for the lattice
semigroups LR_r^s and EqLR_r^s intersected with Z^{rs}.

The bounded search goes through the partitions nu of the r x B box and,
for each, through the tuples (lambda^1, ..., lambda^{s-1}, nu) that can be
members: where the forms say lambda^j <= nu (containment, as in EqLR), each
lambda^j ranges over the box partitions contained in nu, otherwise over
the whole box. It decides membership on the box indices of the tuples,
never on flat rows. Each form is linear, so its value at a tuple is the sum
of its values at the s points that hold one block of the tuple each and
zeros elsewhere. The search reads these from s block tables, one row of
form values for each block j and box partition, made once by one exact
product (`InequalitySystem.value_blocks`). Every coefficient is 0 or +-1
and every entry is in [0, B], so every value and every partial sum of
block values is at most rsB in absolute value, and the tables and their
sums are exact in a small integer dtype (int16 while rsB < 2**15). For each
nu the tables are summed over lambda^1, ..., lambda^{s-2} (the prefix),
and the prefix sums are broadcast against the table rows of the choices of
lambda^{s-1}, one block of at most VALUES_BLOCK_BYTES at a time; a tuple
is a member when all its sums are >= 0. The members of each nu are kept as
their positions in its grid of tuples, and their s index columns are built
once, for every nu at the end. The search then sieves them for
indecomposables, layer by layer in weight, following the degree-layered
reduction of Bruns & Ichim, "Normaliz: algorithms for affine monoids and
rational cones", J. Algebra 324 (2010).

The sieve uses the semigroup identity: a member x is decomposable iff
x - h is a nonzero member for some basis element h of smaller weight with
h <= x. This is equivalent to the pairwise-summand definition and avoids a
quadratic pass over all members. The sieve works on the s box indices of
each member, not on its flat row. With m box partitions, a dense boolean
member table has one entry per index tuple, read in mixed radix m + 1: the
extra digit m of each block is an "absent" slot that no member uses. A
difference table gives, for each block j and box partitions a and b, the
index of parts[a] - parts[b] times the radix of block j, or the absent
digit times that radix when the difference is not a partition. The blocks
of every member are partitions, and a difference of two box partitions
that is a partition lies in the box; so x - h is a member exactly when the
member table holds the sum of its s difference-table entries (one absent
digit is enough to miss). Two members of the same weight never decompose
one another, so the sieve goes up the weight layers and holds the basis
found so far as one group per weight. Each layer is decided against each
lighter group in one batch: s gathers and one lookup for every (element,
row) pair, cut into chunks of at most MASK_CHUNK_BYTES, and one compaction
of the layer, which drops the rows shown decomposable before the next
group is tried. Flat rows are built for the basis only.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .partitions import partitions_in_box, subpartitions
from .cones import (
    VALUES_BLOCK_BYTES,
    check_point,
    flatten,
    inequality_system,
    int_point,
    normalize_kind,
    point_sub,
    unflatten,
)

# The only memory guard: bytes the bounded search may allocate, as counted
# by check_search_budget. (r,s,B) = (6,3,4) needs about 0.8 GB and runs;
# (6,3,5) would need about 7.1 GB and is refused.
SEARCH_BYTE_BUDGET = 4 * 10**9
# Bytes charged to one chunk of the sieve, which cuts its (element, row)
# pairs into chunks of MASK_CHUNK_BYTES at 17 bytes a pair: the running sum
# of its difference-table entries and the gather of the next block, an intp
# each, and its member-table lookup, a bool.
MASK_CHUNK_BYTES = 2**23


def _contains(r, s, kind):
    """Whether the forms of the cone include containment, lambda^j <= nu."""
    return any(f.label == "containment" for f in inequality_system(r, s, kind).forms)


def _choices(parts, nu, contained):
    """Indices of the box partitions that each lambda^j may take beside nu:
    those contained in nu if `contained`, else the whole box."""
    if contained:
        return np.flatnonzero((parts <= nu).all(axis=1))
    return np.arange(len(parts))


def _sum_dtype(bound):
    """The smallest signed integer dtype that holds every integer of
    absolute value at most `bound`: int16 while bound < 2**15."""
    return np.dtype(next(t for t in (np.int16, np.int32, np.int64)
                         if bound <= np.iinfo(t).max))


def _block_candidates(forms, dtype):
    """Candidates in one block of sums: VALUES_BLOCK_BYTES at, for each of
    `forms` forms, one sum in `dtype` and its comparison, a bool."""
    return max(1, VALUES_BLOCK_BYTES // ((dtype.itemsize + 1) * forms))


def check_search_budget(r, s, kind, B):
    """Raise ValueError, before anything is allocated, if the bounded
    search at (r, s, B) could need more than SEARCH_BYTE_BUDGET bytes.

    The search goes, nu by nu, through T = sum over nu of k(nu)^(s-1)
    candidate tuples, where k(nu) is the number of box partitions each
    lambda^j may take beside nu, and keeps the members among them. With m
    box partitions and f forms, the estimate counts:
    - the s block tables, s * m * f sums in the `_sum_dtype` of rsB, and,
      for the largest nu, its prefix sums (m^(s-2) * f) and the table rows
      of its last choice block (m * f);
    - one block of sums (VALUES_BLOCK_BYTES) and one sieve chunk
      (MASK_CHUNK_BYTES), though they take turns;
    - the arrays of the largest nu, at 3 * 8 * s bytes for each of its
      m^(s-1) tuples: its candidate mask, the positions of its members and
      their index columns;
    - the sieve's member table ((m+1)^s bools) and difference table
      (s * m^2 intp);
    - T kept rows, each counted three times at 8 * (s + r*s) bytes. The
      per-row charge is an upper bound: a member is held as its position in
      its nu, then as its s index columns, and the sieve adds a few int64 a
      row (its weight, its position in weight order, its member-table
      index) and flat rows for the basis only."""
    contained = _contains(r, s, kind)
    forms = len(inequality_system(r, s, kind).forms)
    m = math.comb(r + B, r)
    tables = ((m + 1) ** s + 8 * s * m * m
              + _sum_dtype(r * s * B).itemsize * forms * (s * m + m ** (s - 2) + m))

    def need(rows, block):
        return (8 * 3 * (rows * (s + r * s) + s * block) + tables
                + MASK_CHUNK_BYTES + VALUES_BLOCK_BYTES)

    # nu = (B, ..., B) contains all m partitions of the box, so its block
    # has m^(s-1) rows; without containment so has every block
    block = m ** (s - 1)
    rows = block if contained else block * m
    exact = not contained
    # with containment T is counted nu by nu, unless the lower bound is
    # already over budget: a huge box is refused before it is listed
    if contained and need(rows, block) <= SEARCH_BYTE_BUDGET:
        parts = np.array(partitions_in_box(r, B), dtype=np.int64)
        rows = sum(len(_choices(parts, nu, contained)) ** (s - 1) for nu in parts)
        exact = True
    if need(rows, block) > SEARCH_BYTE_BUDGET:
        raise ValueError(
            f"the bounded search at r={r}, s={s}, B={B} would allocate "
            f"{'about' if exact else 'at least'} {need(rows, block) / 1e9:.1f} GB, "
            f"over the {SEARCH_BYTE_BUDGET / 1e9:.0f} GB budget")


def _member_mask(sums):
    """Cone membership of each candidate of a block, from its row of `sums`:
    the value of every form at the candidate, which must all be >= 0."""
    return (sums >= 0).all(axis=1)


def _flat_rows(parts, idx):
    """The flat rows of the points whose box indices are the columns of
    `idx` (s x n), gathered at once as n x s blocks of r."""
    return parts[idx.T].reshape(-1, parts.shape[1] * len(idx))


def _block_tables(system, parts, dtype):
    """T[j, p]: the value of every form at the point that holds the box
    partition parts[p] in block j and zeros elsewhere, in `dtype`, from one
    exact product with the s * m such rows."""
    s, f = system.s, len(system.forms)
    rows = np.kron(np.eye(s, dtype=np.int64), parts)
    tables = np.empty((len(rows), f), dtype=dtype)
    for at, values in system.value_blocks(rows):
        tables[at:at + len(values)] = values
    return tables.reshape(s, len(parts), f)


def _nu_members(tables, choices, v, size):
    """The positions of the members among the candidates of the nu of box
    index v, in the order of their grid (lambda^1 slowest), where each
    lambda^j takes the box indices `choices`: a candidate's form values are
    the sum of the table rows of its s blocks. The tables are summed over
    every lambda^j but the last (the prefix), once for the nu; each block
    of at most `size` candidates is the prefix sums of some tuples
    broadcast against the rows of some choices of the last block."""
    s, _, f = tables.shape
    k = len(choices)
    prefix = tables[-1, v][None]
    for j in range(s - 2):
        prefix = (prefix[:, None] + tables[j, choices][None]).reshape(-1, f)
    last = tables[s - 2, choices]
    rows, width = max(1, size // k), min(k, size)
    ok = np.empty((len(prefix), k), dtype=bool)
    for at in range(0, len(prefix), rows):
        for c in range(0, k, width):
            sums = prefix[at:at + rows, None] + last[None, c:c + width]
            ok[at:at + rows, c:c + width] = _member_mask(
                sums.reshape(-1, f)).reshape(sums.shape[:2])
            del sums  # so that the next block is not made beside this one
    return np.flatnonzero(ok)


def _member_indices(r, s, kind, B):
    """The partitions of the r x B box, in ascending order, and the box
    indices of the nonzero lattice points of the cone in the box, as s x n
    intp columns, nu by nu in ascending order and in grid order within a
    nu."""
    check_search_budget(r, s, kind, B)
    parts = np.array(partitions_in_box(r, B), dtype=np.int64)
    system = inequality_system(r, s, kind)
    # every coefficient is 0 or +-1 and every entry is in [0, B], so each
    # form's value, and each partial sum of its block values, is at most
    # rsB in absolute value
    dtype = _sum_dtype(r * s * B)
    tables = _block_tables(system, parts, dtype)
    size = _block_candidates(len(system.forms), dtype)
    contained = _contains(r, s, kind)
    found = []
    for v, nu in enumerate(parts):
        choices = _choices(parts, nu, contained)
        found.append((choices, _nu_members(tables, choices, v, size)))
    # the index columns of every member, made once into one array
    idx = np.empty((s, sum(len(hits) for _, hits in found)), dtype=np.intp)
    start = 0
    for v, (choices, hits) in enumerate(found):
        cols = idx[:, start:start + len(hits)]
        cols[:-1] = choices[np.stack(np.unravel_index(hits, (len(choices),) * (s - 1)))]
        cols[-1] = v
        start += len(hits)
    # the zero point is a member of every cone and is found first
    return parts, idx[:, 1:]


def _box_rows(parts, idx):
    """`_flat_rows` in box order, ascending: the partitions are listed in
    ascending order, so the index tuples sorted lambda^1 first ascend too."""
    return _flat_rows(parts, idx[:, np.lexsort(idx[::-1])])


def lattice_points_bounded(r, s, kind, B):
    """All nonzero lattice points of the cone whose blocks fit in the
    r x B box, as block tuples."""
    kind = normalize_kind(kind)
    if B < 0:
        raise ValueError(f"bound must be >= 0, got {B}")
    rows = _box_rows(*_member_indices(r, s, kind, B))
    return [unflatten(row, r) for row in rows.tolist()]


def _differences(parts):
    """sub[a, b]: the index in `parts` of parts[a] - parts[b], or len(parts),
    the absent slot, where that difference is not a partition (an entry is
    negative or the entries increase). A difference of two box partitions
    that is a partition lies in the box, so it is found among `parts`, which
    are in ascending order, by one lexicographic binary search."""
    m, r = parts.shape
    diff = parts[:, None] - parts[None]
    ok = (diff[..., -1] >= 0) & (diff[..., :-1] >= diff[..., 1:]).all(axis=-1)
    # each row as one record of r int64 fields, which compare lexicographically
    record = np.dtype([("", parts.dtype)] * r)
    sub = np.full((m, m), m, dtype=np.intp)
    sub[ok] = np.searchsorted(parts.view(record).ravel(), diff[ok].view(record).ravel())
    return sub


def _sieve(parts, idx):
    """The indecomposable points among the nonzero members whose box indices
    are the columns of `idx`, as index columns in weight order, in `idx`
    order within a weight. The member table is filled from `idx`, so it
    must hold every nonzero member of the box."""
    if not idx.shape[1]:
        return idx
    m, s = len(parts), len(idx)
    radix = (m + 1) ** np.arange(s - 1, -1, -1, dtype=np.intp)
    table = np.zeros((m + 1) ** s, dtype=bool)
    table[radix @ idx] = True
    sub = _differences(parts) * radix[:, None, None]
    # summed one column at a time: a gather of all s columns at once is as
    # large as `idx` itself
    block_weights = parts.sum(axis=1)
    weights = block_weights[idx[0]]
    for j in range(1, s):
        weights += block_weights[idx[j]]
    order = np.argsort(weights, kind="stable")
    cuts = np.flatnonzero(np.diff(weights[order])) + 1
    present = set(weights[order[np.r_[0, cuts]]].tolist())
    # the basis found so far, as one (weight, index columns) group per weight
    groups = []
    for left in np.split(order, cuts):
        weight = int(weights[left[0]])
        # the rows of this layer not yet shown decomposable
        x = idx[:, left]
        for group_weight, group in groups:
            # x - h has weight |x| - |h|: no member of that weight, no test
            if weight - group_weight not in present:
                continue
            # 17 bytes a pair (see MASK_CHUNK_BYTES)
            step = max(1, MASK_CHUNK_BYTES // (17 * x.shape[1]))
            keep = np.ones(x.shape[1], dtype=bool)
            for at in range(0, group.shape[1], step):
                h = group[:, at:at + step, None]
                rest = sub[0][x[0], h[0]]
                for j in range(1, s):
                    rest += sub[j][x[j], h[j]]
                keep[table[rest].any(axis=0)] = False
            x = x[:, keep]
            if not x.shape[1]:
                break
        groups.append((weight, x))
    return np.concatenate([x for _, x in groups], axis=1)


@dataclass(frozen=True)
class BoundedBasis:
    r: int
    s: int
    kind: str
    bound: int
    points: tuple

    def to_json(self):
        return {"r": self.r, "s": self.s, "kind": self.kind, "bound": self.bound,
                "count": len(self.points),
                "points": [[list(b) for b in p] for p in self.points]}


def _pointed(kind):
    """The normalized kind, if the cone is pointed: in C and EqC every point
    splits along the lines of the cone, so ValueError is raised for them."""
    kind = normalize_kind(kind)
    if kind not in ("CSL", "LR", "EqLR"):
        raise ValueError(f"{kind} is not pointed; indecomposability is not defined")
    return kind


def hilbert_basis_bounded(r, s, kind, B):
    """All indecomposable lattice points with every block in the r x B box.

    Complete for the true Hilbert basis only insofar as the basis fits the
    bound; the result records the bound used. Only for the pointed kinds
    LR, EqLR and CSL: ValueError is raised for C and EqC, as in
    `decomposition_witness`.
    """
    kind = _pointed(kind)
    if B < 1:
        raise ValueError(f"bound must be >= 1, got {B}")
    parts, idx = _member_indices(r, s, kind, B)
    basis = _box_rows(parts, _sieve(parts, idx)).tolist()
    return BoundedBasis(r, s, kind, B, tuple(unflatten(row, r) for row in basis))


# bounded, so that a long-lived process asking about many points does not
# grow without end
@lru_cache(maxsize=2**12)
def _split_choices(block):
    """The partitions mu <= block with block - mu a partition, in the order
    of `subpartitions`, as a read-only int64 array of rows, and their weights
    (read-only too: the arrays are shared through the cache)."""
    parts = np.array(subpartitions(block), dtype=np.int64).reshape(-1, len(block))
    rest = np.array(block, dtype=np.int64) - parts
    choices = parts[(rest[:, :-1] >= rest[:, 1:]).all(axis=1)]
    weights = choices.sum(axis=1)
    choices.flags.writeable = weights.flags.writeable = False
    return choices, weights


def decomposition_witness(x, kind):
    """A pair (y, x-y) of nonzero members summing to x, or None.

    Exhaustive over componentwise-dominated partition tuples y with
    0 < |y| <= |x|/2, in lexicographic order of the block choices; both
    halves of a decomposition are forced to be dominated by x since all
    entries are nonnegative. Block j of y ranges over the partitions mu <=
    x_j with x_j - mu a partition (`_split_choices`, cached per block).

    The product of the block choices is read in chunks of
    `system.block_rows` rows, by mixed-radix index in the order of
    `itertools.product`, and never built whole: each chunk is one exact
    integer product with the forms in the `point_dtype` of x, so the search
    holds one value block of candidate rows at a time. The forms are
    linear, so their values at x - y are their values at x (`flat_values`)
    minus those at y. The first chunk with a witness ends the search, and
    its first witness is returned: the first y in search order.

    Only for the pointed kinds LR, EqLR and CSL: in C and EqC every point
    splits along the lines of the cone, so ValueError is raised for them,
    as for a point with an entry that is not an integer (`int_point`).
    """
    x = check_point(x)
    kind = _pointed(kind)
    point = int_point(x)
    if point is None:
        raise ValueError(f"not a lattice point: {x}")
    x = point
    flat = flatten(x)
    if not any(flat):
        raise ValueError("the zero point is not a semigroup element")
    r = len(x[0])
    system = inequality_system(r, len(x), kind)
    vx = system.flat_values(flat)
    if not (vx >= 0).all():
        raise ValueError("not a lattice point of the semigroup")
    # every candidate lies between 0 and x entrywise, so the dtype of x
    # serves each chunk too
    dtype = system.point_dtype(flat)
    forms = system.columns(dtype)
    total = sum(flat)
    choices, weights = zip(*map(_split_choices, x))
    sizes = tuple(map(len, choices))
    count = math.prod(sizes)
    for at in range(0, count, system.block_rows):
        idx = np.unravel_index(np.arange(at, min(at + system.block_rows, count)), sizes)
        w = sum(wj[i] for wj, i in zip(weights, idx))
        keep = (w > 0) & (2 * w <= total)
        y = np.concatenate([cj[i[keep]] for cj, i in zip(choices, idx)], axis=1)
        vy = y.astype(dtype) @ forms
        # y is a member, and so is x - y: vx - vy >= 0
        found = ((vy >= 0) & (vy <= vx)).all(axis=1)
        if found.any():
            y = unflatten(y[found.argmax()].tolist(), r)
            return (y, point_sub(x, y))
    return None


def is_indecomposable(x, kind):
    """Whether x cannot be written as a sum of two nonzero lattice points."""
    return decomposition_witness(x, kind) is None

