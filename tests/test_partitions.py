"""Combinatorics layer: tau, LR coefficients, and the independent
Schur-polynomial oracle."""

from functools import lru_cache
from itertools import combinations, combinations_with_replacement, permutations, product

import pytest
from hypothesis import given, strategies as st

from lrcone.partitions import (
    _lr_contents,
    coef_of_subsets,
    contains,
    d_subsets,
    lr_coef,
    lr_expand,
    multi_coef,
    multi_expand,
    omega,
    partitions_in_box,
    tau,
    tau_inverse,
    trim,
)


# ---------------------------------------------------------------------------
# an independent oracle: multiply Schur polynomials monomial-by-monomial and
# peel off leading terms. Shares nothing with the tableau counter.

@lru_cache(maxsize=None)
def ssyt_monomials(lam, nvars):
    """Multiset of x^alpha monomials of s_lam(x_1..x_nvars), as a dict."""
    lam = trim(lam)
    if len(lam) > nvars:
        return {}
    cells = [(i, j) for i, row in enumerate(lam) for j in range(row)]
    counts = {}

    def rec(pos, fill):
        if pos == len(cells):
            alpha = [0] * nvars
            for v in fill.values():
                alpha[v] += 1
            key = tuple(alpha)
            counts[key] = counts.get(key, 0) + 1
            return
        i, j = cells[pos]
        lo = fill.get((i - 1, j), -1) + 1
        left = fill.get((i, j - 1), 0)
        for v in range(max(lo, left), nvars):
            fill[(i, j)] = v
            rec(pos + 1, fill)
        fill.pop((i, j), None)

    rec(0, {})
    return counts


def poly_mult(p, q):
    out = {}
    for a, ca in p.items():
        for b, cb in q.items():
            key = tuple(x + y for x, y in zip(a, b))
            out[key] = out.get(key, 0) + ca * cb
    return out


def schur_expand(poly, nvars):
    """Greedy expansion of a symmetric polynomial in the Schur basis."""
    poly = dict(poly)
    out = {}
    while any(poly.values()):
        lead = max((m for m, c in poly.items() if c), key=lambda m: m)
        c = poly[lead]
        lam = trim(lead)
        assert tuple(sorted(lead, reverse=True)) == tuple(lead), "not symmetric"
        out[lam] = c
        for m, cm in ssyt_monomials(lam, nvars).items():
            poly[m] = poly.get(m, 0) - c * cm
    return out


def oracle_lr(lam, mu, nu):
    nvars = max(len(trim(lam)) + len(trim(mu)), len(trim(nu)), 1)
    prod = poly_mult(ssyt_monomials(lam, nvars), ssyt_monomials(mu, nvars))
    return schur_expand(prod, nvars).get(trim(nu), 0)


def oracle_expand(lams, nvars):
    """The Schur expansion {nu: c} of the product of the s_lam, over the nu
    with at most `nvars` rows: in nvars variables every other s_nu is 0."""
    prod = {(0,) * nvars: 1}
    for lam in lams:
        prod = poly_mult(prod, ssyt_monomials(trim(lam), nvars))
    return schur_expand(prod, nvars)


# ---------------------------------------------------------------------------

def test_tau_examples():
    assert tau((1, 2, 3)) == (0, 0, 0)
    assert tau((2,)) == (1,)
    assert tau((3,)) == (2,)


def test_tau_inverse_examples():
    assert tau_inverse((0,), 3) == (1,)
    assert tau_inverse((1,), 3) == (2,)
    assert tau_inverse((2, 1), 4) == (2, 4)
    assert tau((2, 4)) == (2, 1)


def test_tau_inverse_box_overflow():
    with pytest.raises(ValueError):
        tau_inverse((3,), 3)  # single part > r - d = 2


@pytest.mark.parametrize("r", range(1, 9))
def test_tau_roundtrip(r):
    for d in range(1, r + 1):
        for I in combinations(range(1, r + 1), d):
            lam = tau(I)
            assert tau_inverse(lam, r) == I
            assert all(a >= b for a, b in zip(lam, lam[1:]))


def test_omega():
    assert omega(0, 3) == (0, 0, 0)
    assert omega(2, 3) == (1, 1, 0)
    assert omega(3, 3) == (1, 1, 1)
    with pytest.raises(ValueError):
        omega(4, 3)


def test_lr_coef_examples():
    assert lr_coef((2, 1), (), (2, 1)) == 1
    assert lr_coef((1,), (1,), (2,)) == 1
    assert lr_coef((1,), (1,), (1, 1)) == 1
    assert lr_coef((2, 1), (2, 1), (3, 2, 1)) == 2
    # an empty content is counted once, by the walk over an empty skew shape
    assert lr_coef((), (), ()) == lr_coef((0,), (), (0, 0)) == 1


def test_lr_coef_degree_mismatch():
    assert lr_coef((2,), (1,), (2,)) == 0
    assert lr_coef((2, 2), (1,), (2, 1)) == 0


def test_lr_coef_oracle_equivalence_2x2_box():
    parts = partitions_in_box(2, 2)
    for lam, mu in product(parts, repeat=2):
        for nu in partitions_in_box(4, 4):
            if sum(nu) == sum(lam) + sum(mu):
                assert lr_coef(lam, mu, nu) == oracle_lr(lam, mu, nu), (lam, mu, nu)


box_partitions = st.builds(
    lambda parts: tuple(sorted(parts, reverse=True)),
    st.lists(st.integers(0, 3), min_size=0, max_size=3))


@given(box_partitions, box_partitions)
def test_lr_symmetry(lam, mu):
    nu_weight = sum(lam) + sum(mu)
    for nu in partitions_in_box(6, 6):
        if sum(nu) == nu_weight:
            assert lr_coef(lam, mu, nu) == lr_coef(mu, lam, nu)


@given(box_partitions, box_partitions, box_partitions)
def test_lr_stability_under_zero_padding(lam, mu, nu):
    padded = lam + (0, 0)
    assert lr_coef(lam, mu, nu) == lr_coef(padded, mu + (0,), nu + (0, 0, 0))


def test_multi_coef_examples():
    assert multi_coef([(2, 1)], (2, 1)) == 1
    assert multi_coef([(2, 1)], (2,)) == 0
    assert multi_coef([(1,), (1,)], (2,)) == 1
    assert multi_coef([(2,), (1,)], (3,)) == 1
    # one factor ends the recursion; an empty factor is the unit
    assert multi_coef([()], ()) == multi_coef([(), ()], (0,)) == 1
    assert multi_coef([(2, 1), ()], (2, 1)) == multi_coef([(), (1,), ()], (1,)) == 1
    assert multi_coef([(2, 1), ()], (2, 2)) == multi_coef([(), ()], (1,)) == 0


def test_multi_coef_commutativity():
    factors = ((2, 1), (1, 1), (1,))
    for nu in partitions_in_box(4, 6):
        if sum(nu) == 7:
            vals = {multi_coef(p, nu) for p in permutations(factors)}
            assert len(vals) == 1


def test_coef_of_subsets():
    assert coef_of_subsets([(2,), (2,)], (3,)) == 1
    assert coef_of_subsets([(1,), (1,)], (1,)) == 1
    assert coef_of_subsets([(2,), (2,)], (2,)) == 0
    with pytest.raises(ValueError):
        coef_of_subsets([(1, 2), (2,)], (3,))


def test_d_subsets():
    assert d_subsets(3, 2) == [(1, 2), (1, 3), (2, 3)]


@pytest.mark.parametrize("args, bad", [
    (((1, 2), (1,), (2, 2)), "lam"),
    (((1,), (1, 2), (2, 2)), "mu"),
    (((0, 1), (1,), (1, 1)), "lam"),
    (((1,), (1,), (2, -1)), "nu"),
])
def test_lr_coef_refuses_non_partitions(args, bad):
    # the first three used to be answered: as 1, 0 and 1
    with pytest.raises(ValueError, match=f"^{bad} is not a partition"):
        lr_coef(*args)


@pytest.mark.parametrize("lams, nu, bad", [
    (((1, 2), (1,)), (2, 2), r"lams\[0\]"),
    (((1,), (1, 2)), (2, 2), r"lams\[1\]"),
    (((1,), (1,)), (0, 2), "nu"),
    (((1,), (1,), (1, -1)), (2, 1), r"lams\[2\]"),
])
def test_multi_coef_refuses_non_partitions(lams, nu, bad):
    with pytest.raises(ValueError, match=f"^{bad} is not a partition"):
        multi_coef(lams, nu)


def test_lr_expand_pruned_matches_oracle():
    # every sigma and mu in a 3 x 3 box, under caps that cut the targets: two
    # rectangles, a staircase, two targets of the full weight: sigma + mu,
    # whose coefficient is 1, and one row, and the empty cap. In the 4 x 4
    # box, sigma need not lie inside the complement of mu (sigma = (3,3,3),
    # mu = (2,2,2)), and then no target does. All caps have at most 4 rows,
    # so the oracle runs in 4 variables. The targets come in reverse
    # lexicographic order.
    def under(want, cap):
        return tuple(sorted(((nu, c) for nu, c in want.items()
                             if c and contains(cap, nu)), reverse=True))

    parts = partitions_in_box(3, 3)
    for sigma, mu in product(parts, repeat=2):
        want = oracle_expand([sigma, mu], 4)
        total = sum(sigma) + sum(mu)
        caps = [(4, 4, 4), (4, 4, 4, 4), (4, 3, 2, 1),
                tuple(a + b for a, b in zip(sigma, mu)), (total,), ()]
        for cap in caps:
            assert lr_expand(sigma, mu, cap) == under(want, cap), (sigma, mu, cap)
    assert lr_expand((3, 3, 3), (2, 2, 2), (4, 4, 4, 4)) == ()
    assert lr_expand((), (), ()) == (((), 1),)
    # caps with more rows than len(sigma) + len(mu), whose last rows no
    # target reaches
    for sigma, mu in product(partitions_in_box(2, 2), repeat=2):
        want = oracle_expand([sigma, mu], 6)
        for cap in ((3,) * 6, (2, 2, 2, 1, 1, 1)):
            assert lr_expand(sigma, mu, cap) == under(want, cap), (sigma, mu, cap)


def test_three_factor_multi_coef_matches_oracle():
    parts = [trim(p) for p in partitions_in_box(2, 2)]
    for lams in combinations_with_replacement(parts, 3):
        want = oracle_expand(lams, 4)
        for nu in partitions_in_box(4, 6):
            if sum(nu) == sum(map(sum, lams)):
                for order in set(permutations(lams)):
                    assert multi_coef(order, nu) == want.get(trim(nu), 0), (order, nu)


def test_multi_expand_is_the_same_in_every_order():
    # multi_expand folds its factors largest first, which relies on this
    factors = ((2, 1), (1, 1), (1,), (2,), ())
    for cap in ((3, 3, 2), (4, 2, 1, 1), (7,), (2, 2, 2, 1)):
        want = oracle_expand(factors, len(cap))
        want = {nu: c for nu, c in want.items() if c and contains(cap, nu)}
        for order in permutations(factors):
            assert multi_expand(order, cap) == want, (order, cap)


@lru_cache(maxsize=None)
def targets(weight, rows, largest=None):
    """Every partition of `weight` with at most `rows` parts, each at most
    `largest` (default: no bound), trimmed, in reverse lexicographic order."""
    if weight == 0:
        return ((),)
    if rows == 0:
        return ()
    top = weight if largest is None else min(largest, weight)
    return tuple((part,) + rest for part in range(top, 0, -1)
                 for rest in targets(weight - part, rows - 1, part))


@pytest.mark.parametrize("nfactors, width", [(3, 3), (4, 2)])
def test_multi_coef_is_the_fold(nfactors, width):
    # the left fold multi_expand stays the oracle of the one-walk multi_coef:
    # every multiset of factors from a 2 x width box, one ordering each, at
    # every target of the right weight
    parts = [trim(p) for p in partitions_in_box(2, width)]
    for lams in combinations_with_replacement(parts, nfactors):
        lams = lams[::-1] if sum(map(sum, lams)) % 2 else lams
        for nu in targets(sum(map(sum, lams)), 2 * nfactors):
            assert multi_coef(lams, nu) == multi_expand(lams, nu).get(nu, 0), (lams, nu)


# the four slowest three-factor multi_coef queries of the benchmark under the
# fold, with the coefficients the fold gives
SLOW_QUERIES = [
    (((4, 4, 3, 1, 1), (4, 3, 2, 2, 1), (2, 2, 2, 0, 0)), (8, 6, 6, 5, 3, 3), 221),
    (((3, 2, 1, 1, 1), (4, 3, 3, 2, 1), (4, 3, 1, 0, 0)), (7, 6, 5, 5, 4, 2), 394),
    (((4, 4, 3, 3, 2), (4, 4, 2, 2, 2), (4, 4, 3, 0, 0)), (11, 7, 7, 7, 5, 4), 69),
    (((3, 3, 1, 0, 0), (4, 4, 4, 1, 0), (4, 3, 3, 2, 0)), (9, 6, 5, 5, 4, 3), 218),
]


@pytest.mark.parametrize("lams, nu, coef", SLOW_QUERIES)
def test_slow_multi_coef_queries_are_the_fold(lams, nu, coef):
    assert multi_expand(lams, nu).get(nu, 0) == coef
    assert multi_coef(lams, nu) == coef


def test_content_walk_is_lr_coef():
    # one walk over nu/lam counts c_{lam,kappa}^nu for every content kappa,
    # uncapped (cap = nu) and under caps that cut it, against the Schur
    # polynomial oracle: in `rows` variables the product s_lam s_kappa
    # holds every s_nu with at most `rows` rows at its coefficient
    for rows, width, lam_width in ((4, 3, 2), (3, 4, 3)):
        @lru_cache(maxsize=None)
        def expand(lam, kappa):
            return oracle_expand((lam, kappa), rows)

        for nu in map(trim, partitions_in_box(rows, width)):
            for lam in map(trim, partitions_in_box(rows, lam_width)):
                if not contains(nu, lam):
                    continue
                coefs = {kappa: expand(lam, kappa).get(nu, 0)
                         for kappa in targets(sum(nu) - sum(lam), len(nu))}
                coefs = {kappa: c for kappa, c in coefs.items() if c}
                for cap in (nu, (2, 2, 1), (3, 1, 1, 1), (1, 1)):
                    assert _lr_contents(lam, nu, cap) == {
                        kappa: c for kappa, c in coefs.items() if contains(cap, kappa)
                    }, (lam, nu, cap)

