"""Exact inequality descriptions of the five cones and membership oracles.

A cone point is a tuple of s blocks, each a tuple of r numbers (int or
Fraction); the first s-1 blocks are the lambda^j, the last is nu.

Every cone is {x : Ax >= 0}: each form is a row of A, and an equality
(a trace, or a CSL last part) is written as the form and its negative, both
>= 0. Integer points, one or a batch, are multiplied with the forms in one
exact dtype, `exact_dtype`: float64 through BLAS while a stated bound shows
every partial sum below 2**53, Python ints otherwise -- no tolerances. For
one point the bound is rs * max|x|, since every coefficient is 0 or +-1.
`InequalitySystem.values` evaluates a single point: an integer point as a
1-row product, and only a point with a Fraction or float entry by Python
arithmetic on the object-dtype coefficients. `InequalitySystem.value_blocks`
yields the form values of a batch `block_rows` rows at a time to `members`
and the ray pipeline.
"""

import math
import numbers
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate, combinations_with_replacement

import numpy as np

from .partitions import (
    coef_of_subsets,
    d_subsets,
    multi_expand,
    pad,
    subpartitions,
    tau,
    tau_inverse,
    trim,
    weight,
)

KINDS = ("C", "EqC", "LR", "EqLR", "CSL")


def normalize_kind(kind):
    for k in KINDS:
        if kind.lower() == k.lower():
            return k
    raise ValueError(f"unknown cone kind {kind!r}; expected one of {KINDS}")


# ---------------------------------------------------------------------------
# points

def check_point(x, r=None, s=None):
    blocks = tuple(tuple(b) for b in x)
    if r is None:
        r = len(blocks[0]) if blocks else 0
    if s is None:
        s = len(blocks)
    if len(blocks) != s or any(len(b) != r for b in blocks):
        raise ValueError(f"expected {s} blocks of length {r}, got {x}")
    return blocks


def flatten(x):
    return tuple(v for block in x for v in block)


def unflatten(flat, r):
    """The inverse of `flatten` for points of rank r: blocks of r entries."""
    return tuple(tuple(flat[k:k + r]) for k in range(0, len(flat), r))


def zero_point(r, s):
    return ((0,) * r,) * s


def point_add(x, y):
    return tuple(tuple(a + b for a, b in zip(bx, by)) for bx, by in zip(x, y))


def point_sub(x, y):
    return tuple(tuple(a - b for a, b in zip(bx, by)) for bx, by in zip(x, y))


def point_scale(c, x):
    return tuple(tuple(c * a for a in b) for b in x)


def int_point(x):
    """x with every entry an int, or None if an entry is not an integer: a
    rational number (int, numpy int, Fraction) with denominator 1."""
    # int is listed first, so that plain ints skip the slower ABC check
    if not all(isinstance(v, (int, numbers.Rational)) and v.denominator == 1
               for v in flatten(x)):
        return None
    return tuple(tuple(int(v) for v in b) for b in x)


def parse_block(text):
    out = []
    for piece in text.split(","):
        piece = piece.strip()
        try:
            out.append(Fraction(piece) if "/" in piece else int(piece))
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {piece!r}") from None
    return tuple(out)


def parse_point(text):
    """Parse the text form `1,1,0;1,0,0;1,1,1` into a block tuple."""
    return tuple(parse_block(b) for b in text.split(";"))


def format_point(x):
    return ";".join(",".join(str(v) for v in block) for block in x)


def parse_subset(text):
    """Parse the text form `{2,4}` into a subset tuple."""
    text = text.strip()
    if text.startswith("{") and text.endswith("}"):
        text = text[1:-1]
    return tuple(sorted(int(p) for p in text.split(",") if p.strip()))


def format_subset(subset):
    return "{" + ",".join(str(i) for i in subset) + "}"


# ---------------------------------------------------------------------------
# Horn data

@dataclass(frozen=True, order=True)
class HornDatum:
    """Indexes a Horn facet: d-element subsets I_1,...,I_{s-1}, K of [r]
    whose structure coefficient equals 1."""
    r: int
    s: int
    d: int
    I: tuple
    K: tuple

    def __str__(self):
        return ";".join(format_subset(i) for i in self.I) + ";" + format_subset(self.K)

    def check(self):
        if not 1 <= self.d < self.r:
            raise ValueError(f"need 1 <= d < r, got d={self.d}, r={self.r}")
        for sub in self.I + (self.K,):
            if len(sub) != self.d or any(not 1 <= a <= self.r for a in sub):
                raise ValueError(f"bad subset {sub} for r={self.r}, d={self.d}")
        if coef_of_subsets(self.I, self.K) != 1:
            raise ValueError(f"structure coefficient of {self} is not 1")
        return self


# Horn enumeration at (r, s) reads its data off C(r, d)^(s-1) ordered subset
# tuples for each d. More than this many is refused before any work: over
# its own d by `enumerate_horn`, over every d by each other entry point that
# needs Horn data. (r, s) = (9, 3) has 48,618 over every d, in about 0.7 s.
HORN_WORK = 10**5


def check_horn_work(r, s, ds=None):
    """Raise ValueError if Horn enumeration at (r, s), over every 0 < d < r
    or the d in `ds`, would expand more than HORN_WORK subset tuples."""
    # each C(r, d)^(s-1) is at least r and 2^(s-1), so past either bound the
    # sum is over the ceiling; otherwise it stops once a partial sum passes
    # it. A term is at least its base C(r, d), so a base over the ceiling
    # stands for its term, unraised. The base is at least C(r, k) >= 2^k for
    # each k <= min(d, r - d): with k capped at the ceiling's bit length it
    # is exact while it is within the ceiling, and small to compute past it.
    cap = HORN_WORK.bit_length()
    bases = (math.comb(r, min(d, r - d, cap)) for d in ds or range(1, r))
    terms = (c if c > HORN_WORK else c ** (s - 1) for c in bases)
    if r >= 2 and s >= 3 and (r > HORN_WORK or s > cap
                              or any(w > HORN_WORK for w in accumulate(terms))):
        raise ValueError(f"r={r}, s={s} exceeds the Horn work ceiling: "
                         f"more than {HORN_WORK} subset tuples")


def _orderings(items):
    """The distinct orderings of the sorted tuple `items`, each once, in
    lexicographic order (next-permutation steps). `itertools.permutations`
    would yield 10! tuples for the one ordering of ten {1} at
    (r, s, d) = (3, 11, 1), which the work guard admits."""
    a = list(items)
    while True:
        yield tuple(a)
        i = len(a) - 2
        while i >= 0 and a[i] >= a[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(a) - 1
        while a[j] <= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        a[i + 1:] = reversed(a[i + 1:])


@lru_cache(maxsize=None)
def enumerate_horn(r, s, d):
    """All Horn data at (r, s) for a fixed 1 <= d < r, lexicographic.

    Instead of testing every K, we expand the product of the tau classes of
    (I_1,...,I_{s-1}) inside the d x (r-d) box and read off the targets with
    coefficient exactly 1. The coefficient is symmetric in the I's, so the
    product is expanded once per multiset {I_1,...,I_{s-1}}, and its targets
    are emitted for each distinct ordering. The work guard still counts the
    C(r, d)^(s-1) ordered tuples: the data hold one datum per ordering.
    """
    if s < 3:
        raise ValueError(f"need s >= 3, got {s}")
    if not 1 <= d < r:
        raise ValueError(f"need 1 <= d < r, got d={d}, r={r}")
    check_horn_work(r, s, (d,))
    box = (r - d,) * d
    out = []
    for multiset in combinations_with_replacement(d_subsets(r, d), s - 1):
        dist = multi_expand([tau(I) for I in multiset], box)
        Ks = [tau_inverse(pad(nu, d), r) for nu, c in dist.items() if c == 1]
        if Ks:
            out.extend(HornDatum(r, s, d, Is, K)
                       for Is in _orderings(multiset) for K in Ks)
    out.sort(key=lambda h: (h.I, h.K))
    return tuple(out)


@lru_cache(maxsize=None)
def all_horn_data(r, s):
    out = []
    for d in range(1, r):
        out.extend(enumerate_horn(r, s, d))
    return tuple(out)


# ---------------------------------------------------------------------------
# exact integer products

# Bytes of product entries (8 bytes each) a blocked batch evaluation holds
# at once: the form values of `InequalitySystem.value_blocks`, and the tight
# masks of the ray pipeline's Gram matrices, both `block_rows` rows a block.
VALUES_BLOCK_BYTES = 2**20


def _max_abs(a):
    """The largest |entry| of an integer array, as a Python int."""
    return max(int(a.max(initial=0)), -int(a.min(initial=0)))


def _bound_dtype(bound):
    """float64 if every partial sum of a product is at most bound < 2**53,
    which float64 holds exactly; Python ints (object dtype) otherwise."""
    return np.float64 if bound < 2**53 else object


def exact_dtype(a, b):
    """A dtype in which a @ b is exact, for integer arrays a and b.

    Each entry of a @ b is a sum of a.shape[1] terms, each at most max|a| *
    max|b|, so every partial sum is at most bound = a.shape[1] * max|a| *
    max|b|. Below 2**53 float64 holds every partial sum exactly, so the
    product can run through BLAS in float64; otherwise the operands are
    Python ints (object dtype). The bound holds for every row slice of a,
    so one dtype serves a product taken slice by slice."""
    return _bound_dtype(a.shape[1] * _max_abs(a) * _max_abs(b))


# ---------------------------------------------------------------------------
# inequality systems

@dataclass(frozen=True)
class LinearForm:
    """The form `coeffs . x >= 0`."""
    coeffs: tuple          # length r*s
    label: str             # chamber | nonneg | trace | containment | horn
    datum: HornDatum = None


@dataclass(frozen=True)
class InequalitySystem:
    r: int
    s: int
    kind: str
    forms: tuple

    @property
    def dim(self):
        return self.r * self.s

    def values(self, x):
        """The value of every form at the point x, exactly (`flat_values`)."""
        return self.flat_values(flatten(check_point(x, self.r, self.s)))

    def flat_values(self, flat):
        """The value of every form at a flat point of `dim` entries, which
        the caller has checked (`check_point`), exactly.

        A point of integers (int or numpy integers) is one 1-row product
        with the forms in its `point_dtype`: float64 below the bound, with
        int64 values, and Python ints past it. A point with a Fraction or
        float entry keeps Python arithmetic on the object-dtype
        coefficients, summed left to right."""
        try:
            ints = list(map(operator.index, flat))
        except TypeError:
            return self.coeffs @ np.array(flat, dtype=object)
        dtype = self.point_dtype(ints)
        vals = np.array(ints, dtype=dtype) @ self.columns(dtype)
        return vals.astype(np.int64) if dtype is np.float64 else vals

    def point_dtype(self, flat):
        """The `exact_dtype` of a product of the forms with rows of integers
        at most max|flat| in absolute value, for the integers `flat`: every
        coefficient is 0 or +-1, so each partial sum is at most
        dim * max|flat|."""
        return _bound_dtype(self.dim * max(map(abs, flat)))

    def columns(self, dtype):
        """The forms as the columns of a matrix in dtype (float64, cached,
        or Python ints), for a product in that `exact_dtype`."""
        return self.float_columns if dtype is np.float64 else self.coeffs.T

    @property
    def block_rows(self):
        """Rows in one block of VALUES_BLOCK_BYTES of form values, 8 each."""
        return max(1, VALUES_BLOCK_BYTES // (8 * len(self.forms)))

    def value_blocks(self, rows):
        """Yield (at, values): every form's value at rows[at:at + block_rows]
        of an integer array of flat points, in the batch's `exact_dtype`."""
        dtype = exact_dtype(rows, self.int_rows.T)
        forms = self.columns(dtype)
        for at in range(0, len(rows), self.block_rows):
            yield at, rows[at:at + self.block_rows].astype(dtype) @ forms

    def members(self, rows):
        """Membership of each row of an integer array of flat points, as a
        boolean mask, one value block at a time."""
        ok = np.empty(len(rows), dtype=bool)
        for at, values in self.value_blocks(rows):
            ok[at:at + len(values)] = (values >= 0).all(axis=1)
            del values  # so that the next block is not made beside this one
        return ok

    # Each array of the coefficients is made when first read, so that a
    # system holds only those its points need: the integer points of the
    # membership oracles only `float_columns`.
    @cached_property
    def coeffs(self):
        """The forms as an object array of Python ints (rows = forms)."""
        return np.array([f.coeffs for f in self.forms], dtype=object)

    @cached_property
    def int_rows(self):
        """The forms as int64 rows (every coefficient is 0 or +-1, so
        exact in `float_columns`, which they are read from)."""
        return np.ascontiguousarray(self.float_columns.T, dtype=np.int64)

    @cached_property
    def float_columns(self):
        """The forms as the float64 columns of `columns`, C-ordered: a row
        times them is a little faster than times the transposed rows."""
        return np.array([f.coeffs for f in self.forms], dtype=np.float64).T.copy()

    @cached_property
    def pair_rows(self):
        """Row i holds the products of form i's coefficient pairs, the
        (rs)^2 entries of its outer product: the Gram matrix of a set of
        forms is the sum of their rows. They are 0 or +-1, so any such sum is
        at most m in absolute value and exact in float64, their dtype."""
        forms = self.int_rows.astype(np.float64)
        m, n = forms.shape
        return (forms[:, :, None] * forms[:, None, :]).reshape(m, n * n)


def _unit(idx, n):
    v = [0] * n
    v[idx] = 1
    return v


def horn_form(h):
    """Coefficient vector of the Horn inequality for datum h."""
    n = h.r * h.s
    v = [0] * n
    for j, subset in enumerate(h.I):
        for a in subset:
            v[j * h.r + (a - 1)] += 1
    for k in h.K:
        v[(h.s - 1) * h.r + (k - 1)] -= 1
    return tuple(v)


@lru_cache(maxsize=None)
def inequality_system(r, s, kind):
    """Exact linear description of one of the five cones at rank (r, s)."""
    kind = normalize_kind(kind)
    if r < 1 or s < 3:
        raise ValueError(f"need r >= 1 and s >= 3, got r={r}, s={s}")
    check_horn_work(r, s)
    n = r * s
    forms = []

    def add(v, label, equality=False):
        forms.append(LinearForm(tuple(v), label))
        if equality:
            forms.append(LinearForm(tuple(-c for c in v), label))

    # (i) chamber: each block weakly decreasing
    for k in range(s):
        for i in range(r - 1):
            v = [0] * n
            v[k * r + i] = 1
            v[k * r + i + 1] = -1
            add(v, "chamber")
    # (ii)/(ii') trace
    add([1] * (n - r) + [-1] * r, "trace", kind not in ("EqC", "EqLR"))
    # (iii) Horn inequalities, all 1 <= d < r
    for h in all_horn_data(r, s):
        forms.append(LinearForm(horn_form(h), "horn", h))
    # last-part sign conditions
    if kind in ("LR", "EqLR", "CSL"):
        for k in range(s - 1):
            add(_unit(k * r + r - 1, n), "nonneg", kind == "CSL")
    if kind == "EqLR":
        add(_unit(n - 1, n), "nonneg")
        # (iv) containment nu >= lambda^j
        for k in range(s - 1):
            for i in range(r):
                v = [0] * n
                v[(s - 1) * r + i] = 1
                v[k * r + i] = -1
                add(v, "containment")
    return InequalitySystem(r, s, kind, tuple(forms))


def member(x, kind):
    """Exact membership of a cone point in the named cone."""
    x = check_point(x)
    system = inequality_system(len(x[0]), len(x), normalize_kind(kind))
    return bool((system.flat_values(flatten(x)) >= 0).all())


def horn_slack(x, h):
    """LHS - RHS of the Horn inequality indexed by h; 0 means x is on the facet."""
    x = check_point(x, h.r, h.s)
    lhs = sum(x[j][a - 1] for j, subset in enumerate(h.I) for a in subset)
    return lhs - sum(x[-1][k - 1] for k in h.K)


def nonvanishing(lams, nu, equivariant):
    """Whether the (equivariant) structure coefficient of the given integer
    partitions is nonzero, via the polyhedral description."""
    lams = [trim(l) for l in lams]
    nu = trim(nu)
    r = max([len(nu)] + [len(l) for l in lams] + [1])
    point = tuple(l + (0,) * (r - len(l)) for l in lams) + (nu + (0,) * (r - len(nu)),)
    return member(point, "EqLR" if equivariant else "LR")


def shadow(x, j):
    """Shrink block j of an EqLR lattice point so the trace form vanishes,
    keeping EqLR membership (hence landing in LR). 1 <= j <= s-1."""
    x = check_point(x)
    r, s = len(x[0]), len(x)
    if not 1 <= j <= s - 1:
        raise ValueError(f"block index {j} out of range [1, {s - 1}]")
    x = int_point(x)
    if x is None:
        raise ValueError("shadow requires an integer point")
    if not member(x, "EqLR"):
        raise ValueError("shadow requires a point of EqLR")
    block = x[j - 1]
    target = weight(x[-1]) - sum(weight(x[k]) for k in range(s - 1) if k != j - 1)
    if target == weight(block):
        return x
    # largest-first search order: greedy shrink tends to succeed immediately
    candidates = sorted((mu for mu in subpartitions(block) if weight(mu) == target),
                        reverse=True)
    for mu in candidates:
        y = x[:j - 1] + (mu,) + x[j:]
        if member(y, "EqLR"):
            return y
    raise RuntimeError(f"no shadow found for {x} at block {j}; "
                       "this contradicts a guaranteed existence result")
