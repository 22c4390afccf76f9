"""Partitions, d-subsets, and a stable Littlewood-Richardson coefficient engine.

Partitions are plain tuples of weakly decreasing nonnegative integers.
Subsets of [r] are strictly increasing tuples of integers (1-based).
Coefficients are computed by counting Littlewood-Richardson skew tableaux
(column-strict fillings whose reverse reading word is a lattice word),
which is stable by construction: trailing zeros never matter.
"""

from functools import lru_cache
from itertools import combinations


# ---------------------------------------------------------------------------
# basic partition helpers

def trim(lam):
    """Drop trailing zeros: (2,1,0,0) -> (2,1)."""
    lam = tuple(lam)
    n = len(lam)
    while n > 0 and lam[n - 1] == 0:
        n -= 1
    return lam[:n]


def pad(lam, length):
    lam = tuple(lam)
    if len(lam) > length:
        if any(lam[length:]):
            raise ValueError(f"cannot pad {lam} down to length {length}")
        return lam[:length]
    return lam + (0,) * (length - len(lam))


def is_partition(lam):
    return all(a >= b for a, b in zip(lam, lam[1:])) and (not lam or lam[-1] >= 0)


def weight(lam):
    return sum(lam)


def contains(outer, inner):
    """Young-diagram containment: inner[i] <= outer[i] for all i."""
    n = max(len(outer), len(inner))
    outer = pad(trim(outer), n) if len(outer) < n else tuple(outer)
    inner = tuple(inner)
    for i, part in enumerate(inner):
        o = outer[i] if i < len(outer) else 0
        if part > o:
            return False
    return True


def partitions_in_box(rows, width):
    """All partitions with at most `rows` parts, each part at most `width`,
    as tuples of length `rows` (zero-padded), in lexicographic order."""
    return subpartitions((width,) * rows)


def subpartitions(lam):
    """All partitions mu with mu <= lam componentwise, padded to len(lam)."""
    lam = tuple(lam)
    out = []

    def rec(prefix, i, cap):
        if i == len(lam):
            out.append(tuple(prefix))
            return
        for part in range(0, min(cap, lam[i]) + 1):
            rec(prefix + [part], i + 1, part)

    rec([], 0, lam[0] if lam else 0)
    return out


# ---------------------------------------------------------------------------
# the tau bijection between d-subsets of [r] and partitions in a d x (r-d) box

def tau(subset):
    """Map {i_1 < ... < i_d} to the partition (i_d - d, ..., i_1 - 1)."""
    elems = tuple(subset)
    if any(a >= b for a, b in zip(elems, elems[1:])) or (elems and elems[0] < 1):
        raise ValueError(f"not a strictly increasing subset of positive integers: {elems}")
    d = len(elems)
    return tuple(elems[d - 1 - m] - (d - m) for m in range(d))


def tau_inverse(lam, r):
    """Inverse of tau: the d-subset of [r] whose partition is lam."""
    lam = tuple(lam)
    if not is_partition(lam):
        raise ValueError(f"not a partition: {lam}")
    d = len(lam)
    if d and lam[0] > r - d:
        raise ValueError(f"partition {lam} does not fit in a {d}x{r - d} box")
    return tuple(sorted(lam[m] + (d - m) for m in range(d)))


def omega(j, r):
    """The partition (1,...,1,0,...,0) with j ones and r-j zeros."""
    if not 0 <= j <= r:
        raise ValueError(f"omega index {j} out of range [0, {r}]")
    return (1,) * j + (0,) * (r - j)


# ---------------------------------------------------------------------------
# Littlewood-Richardson coefficients

@lru_cache(maxsize=None)
def _lr_count(lam, mu, nu):
    """Count LR skew tableaux of shape nu/lam with content mu.

    Cells are filled in reverse reading word order (rows top to bottom,
    right to left within a row), so the lattice condition can be checked
    as a running prefix condition.
    """
    rows = len(nu)
    lam = pad(lam, rows)
    # cells of the skew shape in reverse reading order
    cells = [(i, j) for i in range(rows) for j in range(nu[i] - 1, lam[i] - 1, -1)]
    nletters = len(mu)
    counts = [0] * nletters
    fill = {}

    def place(pos):
        if pos == len(cells):
            return 1
        i, j = cells[pos]
        right = fill.get((i, j + 1))       # same row, placed earlier
        above = fill.get((i - 1, j))       # above cell, placed earlier (None if in lam)
        total = 0
        lo = 0 if above is None else above + 1
        hi = nletters if right is None else right + 1
        for t in range(lo, hi):
            if counts[t] >= mu[t]:
                continue
            if t > 0 and counts[t] >= counts[t - 1]:
                continue  # lattice word violation
            counts[t] += 1
            fill[(i, j)] = t
            total += place(pos + 1)
            counts[t] -= 1
        fill.pop((i, j), None)
        return total

    return place(0)


def lr_coef(lam, mu, nu):
    """The stable Littlewood-Richardson coefficient c_{lam,mu}^nu."""
    lam, mu, nu = trim(lam), trim(mu), trim(nu)
    if any(p < 0 for p in lam + mu + nu):
        raise ValueError("partitions must be nonnegative")
    if weight(lam) + weight(mu) != weight(nu):
        return 0
    if not contains(nu, lam) or not contains(nu, mu):
        return 0
    if not mu:
        return 1
    return _lr_count(lam, mu, nu)


@lru_cache(maxsize=None)
def lr_expand(sigma, mu, cap):
    """Expand c_{sigma,mu}^{*} over all targets nu with sigma <= nu <= cap.

    Returns a tuple of (nu, coefficient) pairs with nu trimmed; `cap` bounds
    the search (componentwise), typically the final target partition or a
    rectangle. Only nu of the correct weight appear.
    """
    sigma, mu, cap = trim(sigma), trim(mu), trim(cap)
    target = weight(sigma) + weight(mu)
    rows = len(cap)
    if weight(sigma) > weight(cap) or not contains(cap, sigma):
        return ()
    out = []

    def rec(prefix, i, remaining):
        if remaining == 0:
            nu = trim(prefix)
            c = lr_coef(sigma, mu, nu)
            if c:
                out.append((nu, c))
            return
        if i == rows:
            return
        lo = sigma[i] if i < len(sigma) else 0
        hi = min(cap[i], prefix[-1] if prefix else cap[0], remaining)
        # remaining boxes must fit in the rows still available
        for part in range(hi, lo - 1, -1):
            if remaining - part <= part * (rows - i - 1):
                rec(prefix + [part], i + 1, remaining - part)

    rec([], 0, target)
    return tuple(out)


def multi_expand(lams, cap):
    """Left-fold expansion of a product of Schur classes, pruned to `cap`.

    Returns a dict {nu: coefficient} over trimmed partitions nu <= cap with
    |nu| = sum of weights.
    """
    lams = [trim(l) for l in lams]
    if not lams:
        raise ValueError("need at least one factor")
    cap = trim(cap)
    first = lams[0]
    if not contains(cap, first):
        return {}
    dist = {first: 1}
    for mu in lams[1:]:
        nxt = {}
        for sigma, c in dist.items():
            for nu, c2 in lr_expand(sigma, mu, cap):
                nxt[nu] = nxt.get(nu, 0) + c * c2
        dist = nxt
    return dist


@lru_cache(maxsize=None)
def _multi_coef_cached(lams, nu):
    return multi_expand(lams, nu).get(nu, 0)


def multi_coef(lams, nu):
    """The multi-factor stable structure coefficient c_{lam^1,...,lam^k}^nu."""
    lams = tuple(trim(l) for l in lams)
    nu = trim(nu)
    if not lams:
        raise ValueError("need at least one factor")
    if len(lams) == 1:
        return 1 if lams[0] == nu else 0
    return _multi_coef_cached(lams, nu)


def coef_of_subsets(subsets, K):
    """c_{I_1,...,I_{s-1}}^K computed via tau on each subset."""
    return _coef_of_subsets(tuple(tuple(I) for I in subsets), tuple(K))


@lru_cache(maxsize=None)
def _coef_of_subsets(subsets, K):
    d = len(K)
    if any(len(I) != d for I in subsets):
        raise ValueError("all subsets must have the same cardinality")
    return multi_coef(tuple(tau(I) for I in subsets), tau(K))


def d_subsets(r, d):
    """All d-element subsets of [r] = {1, ..., r}, lexicographic."""
    return list(combinations(range(1, r + 1), d))
