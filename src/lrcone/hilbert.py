"""Indecomposability and bounded Hilbert-basis search for the lattice
semigroups LR_r^s and EqLR_r^s intersected with Z^{rs}.

The bounded search goes through the partitions nu of the r x B box and,
for each, through the tuples (lambda^1, ..., lambda^{s-1}, nu) that can be
members: where the forms say lambda^j <= nu (containment, as in EqLR), each
lambda^j ranges over the box partitions contained in nu, otherwise over
the whole box. It filters membership in batch, in chunks of a fixed byte
size, through `InequalitySystem.members` (exact integer arithmetic, in
float64 through BLAS under its stated bound), and keeps only the members.
It then sieves them for indecomposables, layer by layer in weight,
following the degree-layered reduction of Bruns & Ichim, "Normaliz:
algorithms for affine monoids and rational cones", J. Algebra 324 (2010).

The sieve uses the semigroup identity: a member x is decomposable iff
x - h is a nonzero member for some basis element h of smaller weight with
h <= x. This is equivalent to the pairwise-summand definition and avoids a
quadratic pass over all members. Each member row gets an exact mixed-radix
code, base B+1 per coordinate, so the code of x - h is code(x) - code(h)
whenever h <= x, and membership of x - h is one binary search in the
sorted codes of the members of weight |x| - |h|. Two members of the same
weight never decompose one another, so the sieve goes up the weight layers
and holds the basis found so far as one group per weight. Each layer is
decided against each lighter group in one batch: one domination test of
every (element, row) pair, on a narrow unsigned copy of the rows, cut into
chunks of at most MASK_CHUNK_BYTES; one binary search per dominated pair;
and one compaction of the layer, which drops the rows shown decomposable
before the next group is tried.
"""

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .partitions import partitions_in_box, subpartitions, weight
from .cones import (
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
# (6,3,5) would need about 6.9 GB and is refused.
SEARCH_BYTE_BUDGET = 4 * 10**9
# Bytes charged to one chunk of candidate rows in the membership mask: per
# row its s box indices, its r*s flat entries three times (the pieces, the
# row and its float64 copy), and its value under every form. About 1,700
# rows at r = 6, s = 3 (552 forms). The charge is an upper bound: the mask
# evaluates a slice of rows at a time, so the values it holds at once are
# one block of at most cones.VALUES_BLOCK_BYTES (1 MiB). The sieve cuts its
# domination tests into chunks of MASK_CHUNK_BYTES.
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


def _chunk_rows(r, s, kind):
    """Candidate rows per call of the membership mask."""
    per_row = 8 * (s + 3 * r * s + len(inequality_system(r, s, kind).forms))
    return max(1, MASK_CHUNK_BYTES // per_row)


def check_search_budget(r, s, kind, B):
    """Raise ValueError, before anything is allocated, if the bounded
    search at (r, s, B) could need more than SEARCH_BYTE_BUDGET bytes.

    The search builds, nu by nu, T = sum over nu of k(nu)^(s-1) candidate
    rows, where k(nu) is the number of box partitions each lambda^j may take
    beside nu, and keeps the members among them. The estimate counts one
    chunk of MASK_CHUNK_BYTES (a mask chunk during the search, then a sieve
    chunk, which take turns), the index block of the largest nu three times
    (its grid, stacked with nu, and joined to the rows before it), and T
    kept rows, each counted three times at 8 * (s + r*s) bytes: it is held
    as index columns, then as a flat row, then by the sieve as its code,
    sorted code, weight, position in weight order and narrow copy (32 + r*s
    bytes)."""
    contained = _contains(r, s, kind)

    def need(rows, block):
        return 8 * 3 * (rows * (s + r * s) + s * block) + MASK_CHUNK_BYTES

    # nu = (B, ..., B) contains all m partitions of the box, so its block
    # has m^(s-1) rows; without containment so has every block
    m = math.comb(r + B, r)
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


def _member_mask(flat_rows, r, s, kind):
    """Boolean mask of cone membership for an integer array of flat points."""
    return inequality_system(r, s, kind).members(flat_rows)


def _candidates(parts, s, contained, size):
    """The box indices (lambda^1, ..., lambda^{s-1}, nu) of every candidate
    tuple, generated nu by nu and cut into s x `size` int64 chunks (the
    last may be shorter)."""
    held, count = [], 0
    for v, nu in enumerate(parts):
        choices = _choices(parts, nu, contained)
        grid = choices[np.indices((len(choices),) * (s - 1)).reshape(s - 1, -1)]
        held.append(np.vstack([grid, np.full((1, grid.shape[1]), v)]))
        count += grid.shape[1]
        if count >= size:
            cat = np.concatenate(held, axis=1)
            full = count - count % size
            yield from (cat[:, at:at + size] for at in range(0, full, size))
            held, count = [cat[:, full:]], count - full
    if count:
        yield np.concatenate(held, axis=1)


def _member_rows(r, s, kind, B):
    """The nonzero lattice points of the cone in the r x B box, as an int64
    array of flat rows (block after block), in box order: ascending
    lexicographically."""
    check_search_budget(r, s, kind, B)
    parts = np.array(partitions_in_box(r, B), dtype=np.int64)
    chunks = _candidates(parts, s, _contains(r, s, kind), _chunk_rows(r, s, kind))
    idx = np.concatenate(
        [chunk[:, _member_mask(np.concatenate([parts[i] for i in chunk], axis=1),
                               r, s, kind)] for chunk in chunks], axis=1)
    # the partitions are listed in ascending order, so the index tuples
    # sorted lambda^1 first give the flat rows in ascending order
    idx = idx[:, np.lexsort(idx[::-1])]
    rows = np.concatenate([parts[i] for i in idx], axis=1)
    # the zero point is a member of every cone and comes first
    return rows[1:]


def lattice_points_bounded(r, s, kind, B):
    """All nonzero lattice points of the cone whose blocks fit in the
    r x B box, as block tuples."""
    kind = normalize_kind(kind)
    if B < 0:
        raise ValueError(f"bound must be >= 0, got {B}")
    return [unflatten(row, r) for row in _member_rows(r, s, kind, B).tolist()]


def _code_base(r, s, B):
    """The radix B+1 of the member codes, once it is known that every code
    (a number below (B+1)**(r*s)) fits in an int64."""
    if (B + 1) ** (r * s) >= 2**63:
        raise ValueError(
            f"the codes of the bounded search at r={r}, s={s}, B={B} need "
            f"(B+1)**(r*s) = {B + 1}**{r * s} < 2**63 to fit in int64")
    return B + 1


def _sieve(rows, base):
    """The indecomposable rows among the member rows `rows` (every entry
    below `base`), as an array in weight order, in `rows` order within a
    weight."""
    if not len(rows):
        return rows
    codes = rows @ base ** np.arange(rows.shape[1], dtype=np.int64)
    # every entry is below base, so a narrow copy decides domination
    narrow = rows.astype(np.min_scalar_type(base - 1))
    weights = rows.sum(axis=1)
    order = np.argsort(weights, kind="stable")
    cuts = np.flatnonzero(np.diff(weights[order])) + 1
    # the sorted member codes of each weight, and the basis found so far as
    # one (weight, narrow rows, codes, row indices) group per weight
    known, groups = {}, []
    for left in np.split(order, cuts):
        weight = int(weights[left[0]])
        known[weight] = np.sort(codes[left])
        # the rows of this layer not yet shown decomposable
        left_rows, left_codes = narrow[left], codes[left]
        for group_weight, group_rows, group_codes, _ in groups:
            # x - h has weight |x| - |h|: look it up among those members
            rests = known.get(weight - group_weight)
            if rests is None:
                continue
            # group elements per chunk of (element, row) pairs: a pair takes
            # one byte per entry and one for the domination test, then five
            # int64 for the indices, codes and lookup of a dominated pair
            step = max(1, MASK_CHUNK_BYTES // (len(left) * (narrow.shape[1] + 41)))
            keep = np.ones(len(left), dtype=bool)
            for at in range(0, len(group_rows), step):
                h, x = np.nonzero((left_rows[None] >= group_rows[at:at + step, None])
                                  .all(axis=-1))
                rest = left_codes[x] - group_codes[at + h]
                found = np.minimum(np.searchsorted(rests, rest), len(rests) - 1)
                keep[x[rests[found] == rest]] = False
            left, left_rows, left_codes = left[keep], left_rows[keep], left_codes[keep]
            if not len(left):
                break
        groups.append((weight, left_rows, left_codes, left))
    return rows[np.concatenate([left for *_, left in groups])]


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


def hilbert_basis_bounded(r, s, kind, B):
    """All indecomposable lattice points with every block in the r x B box.

    Complete for the true Hilbert basis only insofar as the basis fits the
    bound; the result records the bound used.
    """
    kind = normalize_kind(kind)
    if B < 1:
        raise ValueError(f"bound must be >= 1, got {B}")
    base = _code_base(r, s, B)
    basis = sorted(map(tuple, _sieve(_member_rows(r, s, kind, B), base).tolist()))
    return BoundedBasis(r, s, kind, B, tuple(unflatten(row, r) for row in basis))


def decomposition_witness(x, kind):
    """A pair (y, x-y) of nonzero members summing to x, or None.

    Exhaustive over componentwise-dominated partition tuples y with
    0 < |y| <= |x|/2, in lexicographic order of the block choices; both
    halves of a decomposition are forced to be dominated by x since all
    entries are nonnegative. The forms are linear, so their values at x - y
    are their values at x minus those at y.

    Only for the pointed kinds LR, EqLR and CSL: in C and EqC every point
    splits along the lines of the cone, so ValueError is raised for them,
    as for a point with an entry that is not an integer (`int_point`).
    """
    x = check_point(x)
    kind = normalize_kind(kind)
    if kind not in ("CSL", "LR", "EqLR"):
        raise ValueError(f"{kind} is not pointed; indecomposability is not defined")
    point = int_point(x)
    if point is None:
        raise ValueError(f"not a lattice point: {x}")
    x = point
    if not any(flatten(x)):
        raise ValueError("the zero point is not a semigroup element")
    system = inequality_system(len(x[0]), len(x), kind)
    vx = system.values(x)
    if not system.holds(vx):
        raise ValueError("not a lattice point of the semigroup")
    half = sum(flatten(x)) / 2
    block_choices = [
        [mu for mu in subpartitions(block)
         if all(a - b >= c - d for (a, b), (c, d)
                in zip(zip(block, mu), zip(block[1:], mu[1:])))]
        for block in x]
    for y in product(*block_choices):
        if not 0 < sum(map(weight, y)) <= half:
            continue
        vy = system.values(y)
        if system.holds(vy) and system.holds(vx - vy):
            return (y, point_sub(x, y))
    return None


def is_indecomposable(x, kind):
    """Whether x cannot be written as a sum of two nonzero lattice points."""
    return decomposition_witness(x, kind) is None

