"""Recursive extremal-ray enumeration for the Littlewood-Richardson cones.

On each Horn facet, type I rays come from a direct swap construction on the
indexing subsets, and type II rays are images of rays of a product of two
smaller cones under the induction map. The union over all facets, together
with two explicitly known special families, is filtered for extremality.

The paper's maps are kept as single-point reference definitions: `pi`,
`pi_inverse`, `p2_hat`, `ind_hat`, and the certificate `certify` /
`is_extremal` (tight-form rank = r*s - 1, by fraction-free integer
elimination in `exact_rank` on the Gram matrix of the tight forms, which
has their rank, as step 4 shows). `enumerate_rays` and `facet_rays` run
the same steps on whole int64 arrays of flat points:

1. Images. `ind_hat` is linear, so on the facet of h it is one integer
   (rs x rs) matrix M_h (`_induction_matrix`, cached per datum). One
   product maps the stacked rays of both smaller cones.
2. Pool. Every candidate is one row. Zero rows are dropped, each row is
   divided by its gcd, and a lexsort on the columns dedups the rows and
   sorts them in the order `flatten` sorts points.
3. Tight sets. One exact integer product of the pool with the form
   matrix (`InequalitySystem.value_blocks`) gives every form value, a
   block of rows at a time. A negative value raises, as `certify` does.
   The forms tight at each row, T(p), are kept as packed bits.
4. Rejection, then proof. A row with |T(p)| < rs - 1 cannot have tight
   rank rs - 1. A row whose T(p) lies inside T(q) for another row q is not
   extremal either, by this lemma: let p and q be distinct primitive
   members of the pointed cone with T(p) contained in T(q). If T(p) had
   rank rs - 1, its null space would be span(p); q is in it, so q = c p
   with c > 0, and c = 1 since both are primitive, a contradiction. The
   rows are checked in descending |T| against the sets passed so far.
   Each row that passes is decided on the Gram matrix G = A^T A of its
   tight forms A, which has the rank of A (A^T A x = 0 gives |Ax|^2 = 0)
   and only rs rows. The Gram matrices of the passed rows are stacked,
   and one elimination mod the prime p = 2**31 - 1 takes every rank at
   once. A rank of rs - 1 mod p is a proof: the rank over Q is at least
   the rank mod p, and at most rs - 1, since every form in A is tight at
   the row, so G sends the row to 0. A row whose rank mod p falls short
   is decided by `exact_rank`.
"""

import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product

import numpy as np

from .partitions import coef_of_subsets, omega, weight
from .cones import (
    HornDatum,
    all_horn_data,
    check_horn_work,
    check_point,
    exact_dtype,
    flatten,
    format_point,
    horn_slack,
    inequality_system,
    member,
    normalize_kind,
    point_scale,
    point_sub,
    unflatten,
)


# ---------------------------------------------------------------------------
# exact linear algebra

def exact_rank(rows):
    """Rank of a list of int/Fraction vectors, by fraction-free integer
    elimination (Bareiss, Math. Comp. 22, 1968).

    Each nonzero row is scaled to integers by the lcm of its denominators.
    Each step takes a row with a nonzero leading entry as pivot, replaces
    every other row by pivot * row - lead * pivot row divided by the previous
    pivot, and drops the leading column. By Sylvester's identity every entry
    is then a minor of the input, so the division is exact and the integers
    stay small. A leading column that holds no pivot is dropped, and so is
    every row that becomes zero.
    """
    mat = []
    for row in rows:
        if any(row):
            scale = math.lcm(*(v.denominator for v in row))
            mat.append([v.numerator * (scale // v.denominator) for v in row])
    rank, prev = 0, 1
    while mat and mat[0]:
        piv = next((i for i, row in enumerate(mat) if row[0]), None)
        if piv is None:
            mat = [row[1:] for row in mat]
            continue
        pivot = mat.pop(piv)
        p, tail = pivot[0], pivot[1:]
        rank += 1
        rest = []
        for row in mat:
            f = row[0]
            if f:
                row = [(p * b - f * a) // prev for a, b in zip(tail, row[1:])]
            elif p == prev:
                row = row[1:]
            else:
                row = [p * b // prev for b in row[1:]]
            if any(row):
                rest.append(row)
        mat, prev = rest, p
    return rank


def primitive(x):
    """Scale a nonzero rational point to integer entries with gcd 1."""
    flat = flatten(x)
    denoms = [Fraction(v).denominator for v in flat]
    scale = math.lcm(*denoms) if denoms else 1
    ints = [int(v * scale) for v in flat]
    g = math.gcd(*ints)
    if g == 0:
        raise ValueError("cannot normalize the zero point")
    return tuple(tuple(int(v * scale) // g for v in block) for block in x)


# ---------------------------------------------------------------------------
# extremality

@dataclass(frozen=True)
class Ray:
    point: tuple
    primitive: bool
    tight_rank: int

    @property
    def extremal(self):
        r, s = len(self.point[0]), len(self.point)
        return self.tight_rank == r * s - 1


def certify(x, kind):
    """Extremality certificate for a nonzero member of the cone: its
    primitive multiple and the rank of the forms A tight at x.

    The tight forms are read off the form values at x
    (`InequalitySystem.flat_values`), exact for every input: an integer
    point is one 1-row product with the forms in its exact dtype (float64
    while rs * max|x| < 2**53, Python ints past it), and only a Fraction or
    float entry keeps Python arithmetic.

    The rank is that of the Gram matrix G = A^T A (A^T A v = 0 gives
    |Av|^2 = 0), which has rs rows however many forms are tight, and is
    exact in int64: the coefficients are 0 or +-1, so each entry is at most
    the number of forms. `exact_rank` decides it alone: a rank mod p in
    front, as the pipeline's stacks have (step 4 of the module docstring),
    costs more than it saves on one matrix."""
    x = check_point(x)
    r, s = len(x[0]), len(x)
    kind = normalize_kind(kind)
    flat = flatten(x)
    if not any(flat):
        raise ValueError("the zero point spans no ray")
    sys = inequality_system(r, s, kind)
    vals = sys.flat_values(flat)
    if not (vals >= 0).all():
        raise ValueError(f"{format_point(x)} is not in {kind}")
    # the forms tight at x: both rows of each equality, since x is a member
    tight = sys.int_rows[vals == 0]
    rank = exact_rank((tight.T @ tight).tolist())
    p = primitive(x)
    return Ray(p, p == x, rank)


def is_extremal(x, kind):
    return certify(x, kind).extremal


# ---------------------------------------------------------------------------
# type I rays

def type1_data(h):
    """All type I ray data (j, a) on the facet of h, ordered by (j, a).

    For j <= s-1: a in I_j with a+1 not in I_j and a < r.
    For j = s:    a in K  with a-1 not in K  and a > 1.
    """
    out = []
    for j, subset in enumerate(h.I, start=1):
        for a in subset:
            if a < h.r and a + 1 not in subset:
                out.append((j, a))
    for a in h.K:
        if a > 1 and a - 1 not in h.K:
            out.append((h.s, a))
    return out


def _swap_in(subset, old, new):
    return tuple(sorted(set(subset) - {old} | {new}))


def swap_datum(h, t):
    """The primed collection (I', K') obtained by the swap at datum t."""
    j, a = t
    if (j, a) not in type1_data(h):
        raise ValueError(f"{t} is not a valid type I datum for {h}")
    if j < h.s:
        return h.I[:j - 1] + (_swap_in(h.I[j - 1], a, a + 1),) + h.I[j:], h.K
    return h.I, _swap_in(h.K, a, a - 1)


def type1_ray(h, t):
    """Assemble the type I ray r(j,a) from consecutive differences.

    The last entry nu_r is computed by both the trace rule and the
    alternative rule (coefficient in a bigger Grassmannian); they must
    agree, else the LR engine itself is broken.
    """
    r, s = h.r, h.s
    I, K = swap_datum(h, t)
    lams = []
    for k in range(s - 1):
        diffs = [0] * (r + 1)  # diffs[b] = lam_{b-1} - lam_b for b in 2..r
        for b in range(2, r + 1):
            if b in I[k] and b - 1 not in I[k]:
                Ik2 = _swap_in(I[k], b, b - 1)
                subs = I[:k] + (Ik2,) + I[k + 1:]
                diffs[b] = coef_of_subsets(subs, K)
        lam = [0] * r
        for b in range(r, 1, -1):
            lam[b - 2] = lam[b - 1] + diffs[b]
        lams.append(tuple(lam))
    nu_diffs = [0] * r  # nu_diffs[c] = nu_c - nu_{c+1} for c in 1..r-1
    for c in range(1, r):
        if c in K and c + 1 not in K:
            K2 = _swap_in(K, c, c + 1)
            nu_diffs[c] = coef_of_subsets(I, K2)
    suffix = [0] * (r + 1)  # suffix[c] = nu_c - nu_r
    for c in range(r - 1, 0, -1):
        suffix[c] = suffix[c + 1] + nu_diffs[c]
    total_lam = sum(weight(l) for l in lams)
    rem = total_lam - sum(suffix[1:r])
    if rem % r:
        raise ArithmeticError(f"trace rule gives non-integer nu_r on {h} at {t}")
    nu_r_trace = rem // r
    if r not in K:
        nu_r_alt = 0
    else:
        K2 = _swap_in(K, r, r + 1)
        nu_r_alt = coef_of_subsets(I, K2)
    if nu_r_trace != nu_r_alt:
        raise ArithmeticError(
            f"trace rule ({nu_r_trace}) and alternative rule ({nu_r_alt}) "
            f"disagree on {h} at datum {t}; the LR engine is inconsistent")
    nu = tuple(nu_r_trace + suffix[c] for c in range(1, r + 1))
    return tuple(lams) + (nu,)


# ---------------------------------------------------------------------------
# the coordinate split and the induction map

def _complement(subset, r):
    return tuple(a for a in range(1, r + 1) if a not in subset)


def pi(x, h):
    """Split x by restriction to the subsets of h and their complements."""
    x = check_point(x, h.r, h.s)
    subs = h.I + (h.K,)
    first = tuple(tuple(block[a - 1] for a in sub) for block, sub in zip(x, subs))
    second = tuple(tuple(block[a - 1] for a in _complement(sub, h.r))
                   for block, sub in zip(x, subs))
    return first, second


def pi_inverse(xd, y, h):
    """Reassemble a rank-r point from a rank-d and a rank-(r-d) point."""
    xd = check_point(xd, h.d, h.s)
    y = check_point(y, h.r - h.d, h.s)
    subs = h.I + (h.K,)
    blocks = []
    for bd, by, sub in zip(xd, y, subs):
        comp = _complement(sub, h.r)
        block = [0] * h.r
        for v, a in zip(bd, sub):
            block[a - 1] = v
        for v, a in zip(by, comp):
            block[a - 1] = v
        blocks.append(tuple(block))
    return tuple(blocks)


@lru_cache(maxsize=None)
def _type1_rays(h):
    return tuple((t, type1_ray(h, t)) for t in type1_data(h))


def p2_hat(x, h):
    """Project a point on the span of the facet onto the complementary
    subcone by stripping off the type I components."""
    x = check_point(x, h.r, h.s)
    if horn_slack(x, h) != 0:
        raise ValueError(f"{format_point(x)} is not on the facet hyperplane of {h}")
    z = x
    for (j, a), ray in _type1_rays(h):
        if j < h.s:
            c = x[j - 1][a - 1] - x[j - 1][a]
        else:
            c = x[h.s - 1][a - 2] - x[h.s - 1][a - 1]
        if c:
            z = point_sub(z, point_scale(c, ray))
    return z


def ind_hat(xd, y, h):
    """The induction map: reassemble, then project off the type I part."""
    return p2_hat(pi_inverse(xd, y, h), h)


# ---------------------------------------------------------------------------
# special families

def x_ray(j, r, s):
    """x_j: omega_r in block j (1-based), zeros elsewhere, omega_r in nu."""
    blocks = [(0,) * r] * (s - 1)
    blocks[j - 1] = omega(r, r)
    return tuple(blocks) + (omega(r, r),)


def special_rays(r, s):
    """The omega-tuple rays: (omega_{k_1},...,omega_{k_{s-1}},omega_l) with
    every k_i <= l and sum k_i >= l. Includes each x_j (k_j = l = r)."""
    out = []
    for l in range(1, r + 1):
        for ks in product(range(l + 1), repeat=s - 1):
            if sum(ks) >= l:
                out.append(tuple(omega(k, r) for k in ks) + (omega(l, r),))
    return out


def diagonal_no_facet_check(r, s, l):
    """Whether the all-omega_l diagonal point avoids every Horn facet."""
    if not 1 <= l <= r:
        raise ValueError(f"need 1 <= l <= r, got l={l}")
    x = (omega(l, r),) * s
    return all(horn_slack(x, h) > 0 for h in all_horn_data(r, s))


# ---------------------------------------------------------------------------
# the batched pipeline: candidate pools as int64 rows

def _rows(points, n):
    """Points with n entries as an int64 array of flat rows."""
    return np.array([flatten(p) for p in points], dtype=np.int64).reshape(-1, n)


@lru_cache(maxsize=None)
def _induction_matrix(h):
    """ind_hat on the facet of h as one integer (rs x rs) matrix M_h: for a
    row z = (flatten(xd), flatten(y)), z @ M_h.T = flatten(ind_hat(xd, y, h)).

    pi_inverse is the permutation that places the coordinates, and p2_hat
    subtracts c_t(x) * ray_t for each type I datum t, where c_t(x) = x_k -
    x_{k+1} is the consecutive difference at the datum's position k."""
    r, s = h.r, h.s
    n = r * s
    subs = h.I + (h.K,)
    places = ([j * r + a - 1 for j, sub in enumerate(subs) for a in sub]
              + [j * r + a - 1 for j, sub in enumerate(subs)
                 for a in _complement(sub, r)])
    place = np.zeros((n, n), dtype=np.int64)
    place[places, np.arange(n)] = 1
    strip = np.eye(n, dtype=np.int64)
    for (j, a), ray in _type1_rays(h):
        k = (j - 1) * r + a - 1 if j < s else (s - 1) * r + a - 2
        strip[:, k] -= flatten(ray)
        strip[:, k + 1] += flatten(ray)
    return strip @ place


def _smaller_rays(d, r, s, kind):
    """The rays of the two smaller cones of a facet whose subsets have d
    elements, as rows z = (xd, y): the rank-d LR rays beside y = 0, then
    the rank-(r-d) rays of `kind` beside xd = 0."""
    lr = _rows(enumerate_rays(d, s, "LR"), d * s)
    other = _rows(enumerate_rays(r - d, s, kind), (r - d) * s)
    rows = np.zeros((len(lr) + len(other), r * s), dtype=np.int64)
    rows[:len(lr), :d * s] = lr
    rows[len(lr):, d * s:] = other
    return rows


def _facet_images(h, rows):
    """The induction images of the rows of `_smaller_rays`, as int64 rows
    (OverflowError if an entry does not fit)."""
    induce = _induction_matrix(h).T
    dtype = exact_dtype(rows, induce)
    return (rows.astype(dtype) @ induce.astype(dtype)).astype(np.int64, copy=False)


def _primitive_rows(rows):
    """The nonzero rows of an int64 array, each divided by its gcd."""
    g = np.gcd.reduce(rows, axis=1)
    return rows[g > 0] // g[g > 0, None]


def _unique_rows(rows):
    """The distinct rows of an int64 array in the order `flatten` sorts
    points, the index of each one's first occurrence in `rows`, and for
    each row of `rows` the index of its distinct row.

    A stable lexsort on the columns (the first column primary) puts equal
    rows next to each other, first occurrence first."""
    order = np.lexsort(rows.T[::-1])
    ordered = rows[order]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    inverse = np.empty(len(rows), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return ordered[new], order[new], inverse


def _tight_sets(pool, system):
    """The forms tight at each row of `pool`, as packed bits (uint64 words;
    form k is bit 7 - k % 8 of byte k // 8), and their number.

    Read from `system.value_blocks`. ValueError if a row lies outside the cone."""
    bits = np.zeros((len(pool), 8 * -(-len(system.forms) // 64)), dtype=np.uint8)
    sizes = np.zeros(len(pool), dtype=np.int64)
    for at, vals in system.value_blocks(pool):
        outside = (vals < 0).any(axis=1)
        if outside.any():
            row = pool[at + outside.argmax()].tolist()
            raise ValueError(f"{format_point(unflatten(row, system.r))} "
                             f"is not in {system.kind}")
        tight = vals == 0
        sizes[at:at + len(vals)] = tight.sum(axis=1)
        packed = np.packbits(tight, axis=1)
        bits[at:at + len(vals), :packed.shape[1]] = packed
    return bits.view(np.uint64), sizes


def _maximal(bits, sizes, least):
    """Yield, in descending |T|, the rows the tight-set filter passes: those
    with at least `least` tight forms whose set lies inside the set of no
    row passed before. Every row met before is either passed or inside a
    passed set, so a rejected row's set lies inside another row's set."""
    # the complements of the passed sets: T lies inside no passed set when
    # it meets every complement
    passed, count = np.empty_like(bits), 0
    for i in np.argsort(-sizes, kind="stable"):
        if sizes[i] < least:
            return
        if (passed[:count] & bits[i]).any(axis=1).all():
            passed[count] = ~bits[i]
            count += 1
            yield i


# The prime of `_ranks_mod_p`; below 2**31, so that the product of two
# residues is below 2**62.
RANK_MODULUS = 2**31 - 1


def _ranks_mod_p(mats):
    """The rank over GF(p), p = RANK_MODULUS, of each matrix of a (k, n, n)
    int64 stack, by one elimination vectorized over the k matrices.

    Column by column, each matrix with a nonzero entry there takes the
    first such row as pivot, and every row becomes pivot * row - entry *
    pivot row, mod p. That scales each row by the pivot, which is nonzero
    mod a prime, so no inverse is needed; the pivot row itself becomes
    zero, and each pivot adds one to the rank. Entries stay in [0, p), so
    with p < 2**31 each product is below 2**62 and each difference of two
    lies in int64."""
    p = RANK_MODULUS
    mat = mats % p
    at = np.arange(len(mat))
    rank = np.zeros(len(mat), dtype=np.int64)
    for c in range(mat.shape[2]):
        col = mat[:, :, c]
        nonzero = col != 0
        found = nonzero.any(axis=1)
        pivot_row = mat[at, nonzero.argmax(axis=1)]
        pivot = np.where(found, pivot_row[:, c], 1)
        mat = (pivot[:, None, None] * mat
               - col[:, :, None] * pivot_row[:, None, :]) % p
        rank += found
    return rank


def _grams(bits, system):
    """The Gram matrix A^T A of the forms A tight at each packed tight set
    in `bits`, as a (k, n, n) int64 stack: the tight mask times the form
    coefficient pair products (`system.pair_rows`), exact in float64."""
    m, n = system.int_rows.shape
    tight = np.unpackbits(bits.view(np.uint8), axis=1, count=m)
    gram = tight.astype(np.float64) @ system.pair_rows
    return gram.astype(np.int64).reshape(-1, n, n)


def _full_rank(bits, system):
    """Whether the forms of each packed tight set in `bits` have rank
    rs - 1, as a mask: the Gram matrix of the forms has rank rs - 1 mod p
    or, failing that, by `exact_rank` (step 4 of the module docstring).
    The ranks mod p are taken on a stack of Gram matrices,
    `system.block_rows` at a time (their tight masks take 8 bytes a form,
    as a block of values does). Beside the block the product holds the
    system's pair table, m x (rs)^2 float64 entries cached with the system:
    7.3 MB at r = 7, s = 3."""
    full = system.dim - 1
    out = np.zeros(len(bits), dtype=bool)
    for at in range(0, len(bits), system.block_rows):
        grams = _grams(bits[at:at + system.block_rows], system)
        ranks = _ranks_mod_p(grams)
        for i in np.flatnonzero(ranks < full):
            ranks[i] = exact_rank(grams[i].tolist())
        out[at:at + len(grams)] = ranks == full
    return out


def _extremal(pool, r, s, kind):
    """Which rows of `pool` span extremal rays of the cone, as a mask.

    `pool` holds distinct primitive nonzero int64 rows; ValueError if one
    lies outside the cone. The rows `_maximal` rejects are not extremal,
    and `_full_rank` decides the rows it passes."""
    system = inequality_system(r, s, kind)
    bits, sizes = _tight_sets(pool, system)
    extremal = np.zeros(len(pool), dtype=bool)
    rows = np.fromiter(_maximal(bits, sizes, r * s - 1), dtype=np.intp)
    extremal[rows] = _full_rank(bits[rows], system)
    return extremal


# ---------------------------------------------------------------------------
# facet-level and cone-level enumeration

@dataclass(frozen=True)
class FacetDecomposition:
    """Audit record of the ray algorithm on one Horn facet."""
    datum: HornDatum
    kind: str
    type1: tuple                 # ((j, a), point) pairs
    type2_extremal: tuple        # primitive extremal induction images, deduped
    type2_zero: int              # number of product rays mapping to 0
    type2_nonextremal: tuple     # nonzero, non-extremal images


def facet_rays(h, kind):
    """Run the facet algorithm: type I rays plus extremality-filtered
    induction images of the product of the two smaller cones, each list in
    the order of the images. A Horn work over its ceiling, or an h that is
    not a Horn datum, is refused first."""
    kind = normalize_kind(kind)
    if kind not in ("LR", "EqLR"):
        raise ValueError("facet decomposition applies to LR and EqLR only")
    check_horn_work(h.r, h.s)
    h.check()
    images = _facet_images(h, _smaller_rays(h.d, h.r, h.s, kind))
    nonzero = _primitive_rows(images)
    pool, first, where = _unique_rows(nonzero)
    extremal = _extremal(pool, h.r, h.s, kind)
    met = sorted(np.flatnonzero(extremal), key=first.__getitem__)
    return FacetDecomposition(
        h, kind, _type1_rays(h),
        tuple(unflatten(row, h.r) for row in pool[met].tolist()),
        len(images) - len(nonzero),
        tuple(unflatten(row, h.r) for row in nonzero[~extremal[where]].tolist()))


_RAY_MEMO = {}
CACHE_ENV = "LRCONE_CACHE_DIR"


@lru_cache(maxsize=None)
def _code_digest():
    """The "format" field of every cache file: a sha256 of the sources that
    compute and check a ray set. A file written by other code, or before
    the field existed, is a miss. Computed, and hashlib imported, only when
    a cache is in use, so that import time does not change."""
    import hashlib

    digest = hashlib.sha256()
    for name in ("rays.py", "cones.py", "partitions.py"):
        with open(os.path.join(os.path.dirname(__file__), name), "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def _cache_path(r, s, kind):
    root = os.environ.get(CACHE_ENV)
    if not root:
        return None
    return os.path.join(root, f"rays-r{r}-s{s}-{kind.lower()}.json")


def _read_cache(path, r, s, kind):
    """The ray set cached at `path`, or None if there is none or it fails a
    check: format (the code digest), key and count match; points sorted,
    distinct, integer, nonzero and primitive (a gcd of 1); each one in the
    cone (`_tight_sets` refuses a point outside it) with tight forms of rank
    rs - 1 (`_full_rank`), so extremal. Whether the set holds every ray is
    unchecked."""
    try:
        with open(path) as fh:
            data = json.load(fh)
        rays = tuple(check_point(p, r, s) for p in data["rays"])
        flats = [flatten(p) for p in rays]
        ok = ((data["format"], data["r"], data["s"], data["kind"], data["count"])
              == (_code_digest(), r, s, kind, len(rays))
              and all(a < b for a, b in zip(flats, flats[1:]))
              and all(type(v) is int for f in flats for v in f))
        if ok:
            pool = np.array(flats, dtype=np.int64).reshape(len(flats), r * s)
            system = inequality_system(r, s, kind)
            ok = ((np.gcd.reduce(pool, axis=1) == 1).all()
                  and _full_rank(_tight_sets(pool, system)[0], system).all())
    except (OSError, ValueError, KeyError, TypeError, OverflowError):
        return None
    return rays if ok else None


def _candidate_pool(r, s, kind):
    """The distinct candidate rays of LR or EqLR, as primitive int64 rows
    in the order `flatten` sorts points: the omega-tuples in the cone, every
    Horn facet's type I rays and induction images, and for EqLR the rays
    of the LR face."""
    n = r * s
    # an omega-tuple whose k's sum past l lies outside LR
    special = _rows(special_rays(r, s), n)
    pool = [special[inequality_system(r, s, kind).members(special)]]
    smaller = {d: _smaller_rays(d, r, s, kind) for d in range(1, r)}
    for h in all_horn_data(r, s):
        pool.append(_rows([p for _, p in _type1_rays(h)], n))
        pool.append(_facet_images(h, smaller[h.d]))
    if kind == "EqLR":
        pool.append(_rows(enumerate_rays(r, s, "LR"), n))
    return _unique_rows(_primitive_rows(np.concatenate(pool)))[0]


def enumerate_rays(r, s, kind):
    """All extremal rays of the cone, as primitive integer points in
    canonical (lexicographic) order.

    LR and EqLR go through the pipeline in the module docstring: the pool
    of `_candidate_pool`, then `_extremal`. CSL keeps the LR rays that are
    members of CSL. A Horn work over its ceiling is refused before all else.
    """
    kind = normalize_kind(kind)
    if kind not in ("CSL", "LR", "EqLR"):
        raise ValueError(f"{kind} is not pointed; its extremal rays are not well-defined")
    if r < 1 or s < 3:
        raise ValueError(f"need r >= 1 and s >= 3, got r={r}, s={s}")
    check_horn_work(r, s)
    key = (r, s, kind)
    if key in _RAY_MEMO:
        return _RAY_MEMO[key]
    path = _cache_path(r, s, kind)
    rays = _read_cache(path, r, s, kind) if path else None
    if rays is not None:
        _RAY_MEMO[key] = rays
        return rays

    if kind == "CSL":
        rays = tuple(x for x in enumerate_rays(r, s, "LR")
                     if member(x, "CSL"))
    else:
        pool = _candidate_pool(r, s, kind)
        rays = tuple(unflatten(row, r)
                     for row in pool[_extremal(pool, r, s, kind)].tolist())
    _RAY_MEMO[key] = rays
    if path:
        _write_cache(path, {"format": _code_digest(), **rayset_json(r, s, kind, rays)})
    return rays


def _write_cache(path, payload):
    """Write through a temp file and a rename, so that a run killed midway
    leaves either no file or the whole one at `path`."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            json.dump(payload, fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def rayset_lines(rays):
    """Text serialization: one sorted ray per line."""
    return [format_point(p) for p in rays]


def rayset_json(r, s, kind, rays):
    return {"r": r, "s": s, "kind": normalize_kind(kind), "count": len(rays),
            "rays": [[list(b) for b in p] for p in rays]}
