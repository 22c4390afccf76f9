"""Partitions, d-subsets, and a stable Littlewood-Richardson coefficient engine.

Partitions are plain tuples of weakly decreasing nonnegative integers.
Subsets of [r] are strictly increasing tuples of integers (1-based).
Coefficients are computed by counting Littlewood-Richardson skew tableaux
(column-strict fillings whose reverse reading word is a lattice word),
which is stable by construction: trailing zeros never matter. The
coefficient entry points refuse arguments that are not partitions.

All coefficients come from one walk, `_lr_contents`: it fills the skew
shape nu/lam in the order of `_cell_order` and counts the LR tableaux of
every content kappa under a componentwise cap. A single c_{lam,mu}^nu, for
`lr_coef`, is the walk capped at mu (`_lr_count`, cached): the only content
under that cap with the shape's |nu| - |lam| cells is mu.

`lr_expand` reads every target of c_{sigma,mu}^* under a cap off one walk,
by Grassmannian duality: in the rectangle around the cap,
c_{sigma,mu}^nu = c_{sigma,nu'}^{mu'} with ' the complement, so the
contents of mu'/sigma are the complements of the targets. `multi_expand`
folds it over the factors largest first, since the product is
commutative; Horn enumeration (`cones.enumerate_horn`) expands one product
per multiset of factors for the same reason, and is what `lr_expand` and
`multi_expand` serve.

`multi_coef` answers one target with no expansion. It sorts the factors
largest first, lam then the rest, and walks nu/lam once with each kappa
capped by the Weyl bound of the product of the rest; the coefficient is
the sum of c_{lam,kappa}^nu c_{rest}^kappa, recursing on the rest down to
one factor, whose coefficient is 1 at nu itself and 0 elsewhere.
"""

from functools import lru_cache
from itertools import combinations
from operator import lt


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
    return not any(map(lt, lam, lam[1:])) and (not lam or lam[-1] >= 0)


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

def _checked(lam, name):
    """lam trimmed, or ValueError naming the argument if lam is not a
    partition: the tableau walk assumes partitions."""
    lam = tuple(lam)
    if not is_partition(lam):
        raise ValueError(f"{name} is not a partition: {lam}")
    # the zeros of a partition are its trailing ones
    return lam[:len(lam) - lam.count(0)]


def _size(lam):
    """Order of partitions by weight, then lexicographically."""
    return (weight(lam), lam)


def _cell_order(lam, nu):
    """The cells of the skew shape nu/lam in reverse reading word order
    (rows top to bottom, right to left within a row), as two index arrays:
    each cell's neighbours to the right and above come before it, and
    `right` and `above` hold their indices in that order, -1 where the
    neighbour is not in the skew shape. lam must lie inside nu."""
    lam = pad(lam, len(nu))
    right, above = [], []
    start = 0
    for i, (li, ni) in enumerate(zip(lam, nu)):
        # row i holds cells j = ni-1, ..., li; row i-1 begins at index `prev`
        prev, start = start, len(above)
        for j in range(ni - 1, li - 1, -1):
            right.append(len(above) - 1 if j < ni - 1 else -1)
            above.append(prev + nu[i - 1] - 1 - j if i and lam[i - 1] <= j else -1)
    return right, above


def _lr_contents(lam, nu, cap):
    """{kappa: c_{lam,kappa}^nu} over the partitions kappa <= cap
    (componentwise) with a nonzero coefficient, kappa trimmed.

    One walk over the LR skew tableaux of shape nu/lam, with the count of
    each letter t at most cap_t: each tableau is counted under its content.
    Cells are filled in the order of `_cell_order`, so the lattice condition
    can be checked as a running prefix condition, and a cell's neighbours
    to the right and above are filled before it. Letters past len(nu)
    cannot occur. lam must lie inside nu.
    """
    right, above = _cell_order(lam, nu)
    ncells = len(above)
    cap = (tuple(cap) + (0,) * len(nu))[:len(nu)]
    nletters = len(cap)
    counts = [0] * nletters
    fill = [0] * ncells
    out = {}

    def place(pos):
        if pos == ncells:
            kappa = trim(counts)
            out[kappa] = out.get(kappa, 0) + 1
            return
        a, b = above[pos], right[pos]
        lo = 0 if a < 0 else fill[a] + 1
        hi = nletters if b < 0 else fill[b] + 1
        for t in range(lo, hi):
            if counts[t] >= cap[t]:
                continue
            if t > 0 and counts[t] >= counts[t - 1]:
                continue  # lattice word violation
            counts[t] += 1
            fill[pos] = t
            place(pos + 1)
            counts[t] -= 1

    place(0)
    return out


@lru_cache(maxsize=None)
def _lr_count(lam, mu, nu):
    """c_{lam,mu}^nu, for trimmed mu and lam inside nu: the walk of nu/lam
    with content capped at mu. A content under the cap is mu itself
    exactly when its weight, the |nu| - |lam| cells of the shape, is |mu|."""
    return _lr_contents(lam, nu, mu).get(mu, 0)


def _weyl_bound(lams, rows):
    """A componentwise bound, over `rows` rows, on every kappa with
    c_{lams}^kappa nonzero: the d = 1 Horn (Weyl) bound
    kappa_{a+b} <= sigma_a + tau_b (rows from 0) of a product of two,
    folded over the factors. Each factor must have at most `rows` rows."""
    bound = pad(lams[0], rows)
    for lam in lams[1:]:
        lam = pad(lam, rows)
        bound = tuple(min(bound[a] + lam[i - a] for a in range(i + 1))
                      for i in range(rows))
    return bound


def lr_coef(lam, mu, nu):
    """The stable Littlewood-Richardson coefficient c_{lam,mu}^nu.

    Raises ValueError if an argument is not a partition. The coefficient
    is symmetric in lam and mu, so the count fills the smaller skew shape:
    nu over the larger of the two."""
    lam, mu, nu = _checked(lam, "lam"), _checked(mu, "mu"), _checked(nu, "nu")
    if _size(mu) > _size(lam):
        lam, mu = mu, lam
    if weight(lam) + weight(mu) != weight(nu):
        return 0
    if not contains(nu, lam) or not contains(nu, mu):
        return 0
    return _lr_count(lam, mu, nu)


@lru_cache(maxsize=None)
def lr_expand(sigma, mu, cap):
    """Expand c_{sigma,mu}^{*} over all targets nu <= cap.

    Returns a tuple of (nu, coefficient) pairs with nu trimmed and the
    coefficient nonzero, nu in reverse lexicographic order; `cap` bounds the
    targets (componentwise), typically the final target partition or a
    rectangle. sigma and mu must be partitions.

    Every target lies in the a x b rectangle around cap (a rows, b columns).
    Inside it, with ' the complement in the rectangle,
    c_{sigma,mu}^nu = c_{sigma,nu'}^{mu'}: both are the triple intersection
    number of the Schubert classes of sigma, mu and nu' on the Grassmannian
    of a-planes in C^{a+b} (Fulton, "Eigenvalues, invariant factors, highest
    weights, and Schubert calculus", Bull. AMS 37 (2000)). So one walk over
    mu'/sigma, its contents kappa capped by the rectangle, counts every
    target nu = kappa' at once.
    """
    sigma, mu, cap = trim(sigma), trim(mu), trim(cap)
    if not contains(cap, sigma) or not contains(cap, mu):
        return ()
    a, b = len(cap), max(cap, default=0)
    comp = tuple(b - v for v in reversed(pad(mu, a)))
    if not contains(comp, sigma):
        return ()
    out = []
    for kappa, c in _lr_contents(sigma, comp, (b,) * a).items():
        nu = trim(b - v for v in reversed(pad(kappa, a)))
        if contains(cap, nu):
            out.append((nu, c))
    return tuple(sorted(out, reverse=True))


def multi_expand(lams, cap):
    """Left-fold expansion of a product of Schur classes, pruned to `cap`.

    Returns a dict {nu: coefficient} over trimmed partitions nu <= cap with
    |nu| = sum of weights. The product is commutative, so the fold takes
    the factors largest first, whatever their order in `lams`: each step
    then counts tableaux of the smaller factor's weight. It lists every
    intermediate target under `cap`, which Horn enumeration needs; a single
    coefficient is `multi_coef`, which lists none.
    """
    lams = sorted((trim(l) for l in lams), key=_size, reverse=True)
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
    """c_{lams}^nu for trimmed factors sorted largest first (at least one).

    One factor gives 1 for nu itself and 0 otherwise. With lams = (lam,
    *rest), s_lam s_rest = sum over kappa of c_{rest}^kappa s_lam s_kappa,
    so the coefficient is the sum over kappa of c_{lam,kappa}^nu
    c_{rest}^kappa. One `_lr_contents` walk over nu/lam gives every
    c_{lam,kappa}^nu at once, kappa capped by the Weyl bound of the product
    of `rest`."""
    if len(lams) == 1:
        return int(lams[0] == nu)
    lam, rest = lams[0], lams[1:]
    if sum(map(weight, lams)) != weight(nu) or not all(contains(nu, l) for l in lams):
        return 0
    cap = _weyl_bound(rest, len(nu))
    return sum(c * _multi_coef_cached(rest, kappa)
               for kappa, c in _lr_contents(lam, nu, cap).items())


def multi_coef(lams, nu):
    """The multi-factor stable structure coefficient c_{lam^1,...,lam^k}^nu.

    Raises ValueError if a factor or nu is not a partition. The coefficient
    is symmetric in the factors; they are sorted largest first, so that
    every ordering shares one cache entry."""
    lams = tuple(sorted((_checked(l, f"lams[{k}]") for k, l in enumerate(lams)),
                        key=_size, reverse=True))
    nu = _checked(nu, "nu")
    if not lams:
        raise ValueError("need at least one factor")
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
