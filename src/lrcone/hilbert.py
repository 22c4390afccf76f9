"""Indecomposability and bounded Hilbert-basis search for the lattice
semigroups LR_r^s and EqLR_r^s intersected with Z^{rs}.

The bounded search enumerates every partition tuple in the r x B box,
filters membership in batch (integer arithmetic through float64 matmuls,
exact because all values are tiny), and then sieves for indecomposables.
The sieve uses the semigroup identity: a member is decomposable iff
subtracting some already-found basis element of smaller weight leaves a
nonzero member. This is equivalent to the pairwise-summand definition and
avoids a quadratic pass over all members.
"""

from dataclasses import dataclass

import numpy as np

from .partitions import partitions_in_box, subpartitions, weight
from .cones import check_point, flatten, inequality_system, member, normalize_kind

# The only memory guard: bytes the box search may allocate. The largest
# search the acceptance suite runs, (r,s,B) = (5,3,4), needs about 3.2 GB;
# (6,3,4) would need about 44 GB.
SEARCH_BYTE_BUDGET = 4 * 10**9


def _member_mask(flat_rows, r, s, kind):
    """Boolean mask of cone membership for an integer array of flat points."""
    sys = inequality_system(r, s, kind)
    mat, rels = sys.matrix()
    vals = flat_rows.astype(np.float64) @ mat.T.astype(np.float64)
    ok = np.ones(len(flat_rows), dtype=bool)
    for idx, rel in enumerate(rels):
        if rel == "==":
            ok &= vals[:, idx] == 0
        else:
            ok &= vals[:, idx] >= 0
    return ok


def lattice_points_bounded(r, s, kind, B):
    """All nonzero lattice points of the cone whose blocks fit in the
    r x B box, as block tuples."""
    kind = normalize_kind(kind)
    parts = partitions_in_box(r, B)
    m = len(parts)
    # bytes of the index array (n x s int64), the flat points (n x rs int64)
    # and their float64 copy, and the n x forms float64 values
    forms = len(inequality_system(r, s, kind).forms)
    need = 8 * m ** s * (s + 2 * r * s + forms)
    if need > SEARCH_BYTE_BUDGET:
        raise ValueError(
            f"the bounded search at r={r}, s={s}, B={B} would allocate about "
            f"{need / 1e9:.1f} GB, over the {SEARCH_BYTE_BUDGET / 1e9:.0f} GB budget")
    part_arr = np.array(parts, dtype=np.int64)
    idx = np.indices((m,) * s).reshape(s, -1).T
    flat = np.concatenate([part_arr[idx[:, k]] for k in range(s)], axis=1)
    mask = _member_mask(flat, r, s, kind)
    rows = flat[mask]
    out = []
    for row in rows:
        if not row.any():
            continue
        out.append(tuple(tuple(int(v) for v in row[k * r:(k + 1) * r])
                         for k in range(s)))
    return out


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
    members = lattice_points_bounded(r, s, kind, B)
    member_set = {p for p in members}
    members.sort(key=lambda p: (sum(flatten(p)), flatten(p)))
    basis = []
    for x in members:
        wx = sum(flatten(x))
        fx = flatten(x)
        decomposable = False
        for h in basis:
            fh = flatten(h)
            if sum(fh) >= wx:
                break  # basis is in weight order; remainder would be 0 or negative
            if all(a <= b for a, b in zip(fh, fx)):
                rest = tuple(tuple(a - b for a, b in zip(bx, bh))
                             for bx, bh in zip(x, h))
                if rest in member_set:
                    decomposable = True
                    break
        if not decomposable:
            basis.append(x)
    basis.sort(key=flatten)
    return BoundedBasis(r, s, kind, B, tuple(basis))


def decomposition_witness(x, kind):
    """A pair (y, x-y) of nonzero members summing to x, or None.

    Exhaustive over componentwise-dominated partition tuples y with
    |y| <= |x|/2; both halves of a decomposition are forced to be dominated
    by x since all entries are nonnegative.
    """
    x = check_point(x)
    kind = normalize_kind(kind)
    if not any(flatten(x)):
        raise ValueError("the zero point is not a semigroup element")
    if not member(x, kind):
        raise ValueError("not a lattice point of the semigroup")
    half = sum(flatten(x)) / 2
    block_choices = []
    for block in x:
        subs = [mu for mu in subpartitions(block)
                if all(a - b >= c - d for (a, b), (c, d)
                       in zip(zip(block, mu), zip(block[1:], mu[1:])))]
        block_choices.append(subs)

    def rec(i, acc, w):
        if w > half:
            return None
        if i == len(block_choices):
            y = tuple(acc)
            if not any(flatten(y)):
                return None
            rest = tuple(tuple(a - b for a, b in zip(bx, by))
                         for bx, by in zip(x, y))
            if not any(flatten(rest)):
                return None
            if member(y, kind) and member(rest, kind):
                return (y, rest)
            return None
        for mu in block_choices[i]:
            hit = rec(i + 1, acc + [mu], w + weight(mu))
            if hit:
                return hit
        return None

    return rec(0, [], 0)


def is_indecomposable(x, kind):
    """Whether x cannot be written as a sum of two nonzero lattice points."""
    return decomposition_witness(x, kind) is None


def first_lattice_points(rays, kind):
    """The primitive points of a ray set, verified indecomposable."""
    out = []
    for p in rays:
        if not is_indecomposable(p, kind):
            raise AssertionError(
                f"primitive ray point {p} is decomposable; extremality and "
                "primitivity should forbid this")
        out.append(p)
    return out
