"""The facet algorithm and cone-level ray enumeration."""

import hashlib
import json
import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lrcone import cones, rays
from lrcone.cli import main
from lrcone.cones import (
    HornDatum,
    all_horn_data,
    enumerate_horn,
    exact_dtype,
    flatten,
    horn_slack,
    inequality_system,
    member,
    parse_point,
    point_add,
    unflatten,
    zero_point,
)
from lrcone.hilbert import lattice_points_bounded
from lrcone.rays import (
    certify,
    diagonal_no_facet_check,
    enumerate_rays,
    exact_rank,
    facet_rays,
    ind_hat,
    is_extremal,
    p2_hat,
    pi,
    pi_inverse,
    point_sub,
    primitive,
    rayset_lines,
    special_rays,
    swap_datum,
    type1_data,
    type1_ray,
    x_ray,
)

H631 = HornDatum(3, 3, 1, ((2,), (2,)), (3,))


def test_exact_rank():
    assert exact_rank([(1, 0), (0, 1)]) == 2
    assert exact_rank([(2, 4), (1, 2)]) == 1
    assert exact_rank([]) == 0


def fraction_rank(rows):
    """Rank by Gaussian elimination over Fraction: the independent reference
    for the integer elimination in `exact_rank`."""
    mat = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    for col in range(len(mat[0]) if mat else 0):
        piv = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        for i in range(rank + 1, len(mat)):
            ratio = mat[i][col] / mat[rank][col]
            mat[i] = [a - ratio * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


@st.composite
def dependent_matrices(draw):
    """Small integer rows, then integer combinations of them (injected
    dependencies), some rows turned into Fractions, in a shuffled order."""
    ncols = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(st.integers(-3, 3), min_size=ncols, max_size=ncols),
                         min_size=1, max_size=5))
    for _ in range(draw(st.integers(0, 4))):
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(rows), max_size=len(rows)))
        rows.append([sum(c * row[j] for c, row in zip(coeffs, rows))
                     for j in range(ncols)])
    out = []
    for row in rows:
        if draw(st.booleans()):
            dens = draw(st.lists(st.integers(1, 6), min_size=ncols, max_size=ncols))
            row = [Fraction(v, d) for v, d in zip(row, dens)]
        out.append(row)
    return draw(st.permutations(out))


@settings(max_examples=300, deadline=None)
@given(dependent_matrices())
def test_exact_rank_matches_fraction_elimination(rows):
    assert exact_rank(rows) == fraction_rank(rows)


@pytest.mark.parametrize("rows, rank", [
    # the middle column holds no pivot once the first is eliminated
    ([(1, 2, 3), (2, 4, 7)], 2),
    # no row has a nonzero first entry
    ([(0, 1, 2), (0, 2, 4), (0, 1, 3)], 2),
    # the first row has a zero pivot, so a row below must be swapped in
    ([(0, 1), (1, 0)], 2),
    ([(0, 0, 5), (0, 2, 1), (3, 1, 1)], 3),
    # all-zero rows
    ([(0, 0), (0, 0)], 0),
    ([(0, 0, 0), (1, 2, 3), (0, 0, 0), (2, 4, 6)], 1),
    # a single row
    ([(3, 0, -1)], 1),
    ([(Fraction(1, 2), Fraction(-2, 3))], 1),
    # Fraction rows scaled by their row lcm
    ([(Fraction(1, 2), Fraction(1, 3)), (3, 2)], 1),
    # above 2**63: int64 would wrap (2**63 -> -2**63, 2**64 -> 0) to rank 2,
    # float64 would round the rows of determinant -1 to equal rows, rank 1
    ([(2**63, 1), (2**64, 2)], 1),
    ([(2**63 + 1, 2**63), (2**63, 2**63 - 1)], 2),
    ([(2**70, 3 * 2**70, 1), (2**65, 3 * 2**65, 2), (1, 1, 1)], 3),
])
def test_exact_rank_hand_cases(rows, rank):
    assert exact_rank(rows) == rank
    assert fraction_rank(rows) == rank


@st.composite
def small_stacks(draw):
    """Stacks of n x n integer matrices, n <= 6: rows with entries in
    [-3, 3], some of them replaced by the sum or difference of two of the
    drawn rows. Each row then has norm at most 6 sqrt(6), so by Hadamard's
    bound every minor is below (6 sqrt(6))**6 < 2**24 in size, and no
    nonzero minor vanishes mod RANK_MODULUS."""
    n = draw(st.integers(1, 6))
    row = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    index = st.integers(0, n - 1)
    mats = []
    for _ in range(draw(st.integers(1, 5))):
        drawn = draw(st.lists(row, min_size=n, max_size=n))
        mat = [list(r) for r in drawn]
        for i in draw(st.lists(index, max_size=n)):
            a, b, sign = draw(index), draw(index), draw(st.sampled_from((1, -1)))
            mat[i] = [x + sign * y for x, y in zip(drawn[a], drawn[b])]
        mats.append(mat)
    return mats


@settings(max_examples=200, deadline=None)
@given(small_stacks())
def test_ranks_mod_p_match_exact_rank(mats):
    ranks = rays._ranks_mod_p(np.array(mats, dtype=np.int64))
    assert ranks.tolist() == [exact_rank(m) for m in mats]
    with pytest.MonkeyPatch.context() as mp:
        # every rank mod a prime is at most the rank over Q
        mp.setattr(rays, "RANK_MODULUS", 3)
        low = rays._ranks_mod_p(np.array(mats, dtype=np.int64))
    assert (low <= ranks).all()


P = rays.RANK_MODULUS


@pytest.mark.parametrize("mat, mod_p, over_q", [
    # entries that are multiples of p
    ([(P, 0, 0), (0, 1, 0), (0, 0, 1)], 2, 3),
    ([(2 * P, P, 0), (P, 3 * P, 0), (0, 0, 5)], 1, 3),
    # multiples of p only in the determinant: 1 * (1 + p) - 1 * 1 = p
    ([(1, 1, 0), (1, 1 + P, 0), (0, 0, 0)], 1, 2),
    # negative entries are reduced to [0, p) first
    ([(-P, 1, 0), (0, -1, 0), (0, 0, -P - 1)], 2, 3),
])
def test_ranks_mod_p_hand_cases(mat, mod_p, over_q):
    assert exact_rank(mat) == over_q
    assert rays._ranks_mod_p(np.array([mat], dtype=np.int64)).tolist() == [mod_p]


@pytest.mark.parametrize("a, b", [
    # below 2**53 the product runs in float64 and every partial sum is exact
    ([(2**51, 2**51, 1)], [(1,), (1,), (1,)]),
    ([(2**52 + 1,)], [(1,)]),
    # from 2**53 on float64 would round 2**53 + 1; Python ints do not
    ([(2**52, 2**52, 1)], [(1,), (1,), (1,)]),
    ([(2**53 + 1,)], [(1,)]),
    ([(-(2**52), -(2**52), -1), (3, -5, 7)], [(1, -1), (1, 2), (1, 0)]),
])
def test_int_product_is_exact_at_the_float64_bound(a, b):
    a, b = np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)
    dtype = exact_dtype(a, b)
    assert (a.astype(dtype) @ b.astype(dtype)).tolist() == (a.astype(object)
                                                            @ b.astype(object)).tolist()


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.integers(-2, 2), min_size=4, max_size=4), max_size=30))
def test_unique_rows_is_np_unique(rows):
    rows = np.array(rows, dtype=np.int64).reshape(-1, 4)
    expected = np.unique(rows, axis=0, return_index=True, return_inverse=True)
    got = rays._unique_rows(rows)
    for x, y in zip(got, expected):
        assert x.tolist() == y.reshape(-1, *x.shape[1:]).tolist()


def test_primitive():
    assert primitive(((2, 4), (0, 2))) == ((1, 2), (0, 1))
    assert primitive(((Fraction(1, 2),), (Fraction(1, 3),))) == ((3,), (2,))
    with pytest.raises(ValueError):
        primitive(((0,), (0,)))


def test_type1_data_worked_example():
    assert type1_data(H631) == [(1, 2), (2, 2), (3, 3)]


def test_type1_data_edge_rules():
    h = HornDatum(3, 3, 1, ((3,), (3,)), (3,))
    # a = 3 is not < r for j in {1,2}; (s,3) valid since 2 not in K
    assert type1_data(h) == [(3, 3)]
    h2 = HornDatum(2, 3, 1, ((1,), (1,)), (1,))
    # K = {1}: datum (s,1) needs a > 1
    assert type1_data(h2) == [(1, 1), (2, 1)]


def test_swap_datum():
    assert swap_datum(H631, (1, 2)) == ((((3,), (2,))), (3,))
    assert swap_datum(H631, (3, 3)) == ((((2,), (2,))), (2,))
    with pytest.raises(ValueError):
        swap_datum(H631, (1, 1))


def test_type1_rays_worked_example():
    assert type1_ray(H631, (1, 2)) == parse_point("1,1,0;1,0,0;1,1,1")
    assert type1_ray(H631, (2, 2)) == parse_point("1,0,0;1,1,0;1,1,1")
    assert type1_ray(H631, (3, 3)) == parse_point("1,0,0;1,0,0;1,1,0")


def test_type1_rays_on_facet_and_extremal():
    for h in all_horn_data(3, 3):
        for t in type1_data(h):
            ray = type1_ray(h, t)
            assert horn_slack(ray, h) == 0
            assert member(ray, "CSL")
            assert is_extremal(ray, "LR")


def test_pi_worked_examples():
    x = parse_point("1,0,0;1,0,1;1,1,0")
    assert pi(x, H631) == (parse_point("0;0;0"), parse_point("1,0;1,1;1,1"))
    y = parse_point("0,1,0;0,0,0;0,0,1")
    assert pi(y, H631) == (parse_point("1;0;1"), parse_point("0,0;0,0;0,0"))
    assert pi(zero_point(3, 3), H631) == (zero_point(1, 3), zero_point(2, 3))


def test_pi_inverse_roundtrip():
    x = parse_point("3,2,1;2,2,0;4,3,2")
    a, b = pi(x, H631)
    assert pi_inverse(a, b, H631) == x


def test_p2_hat_worked_examples():
    assert p2_hat(parse_point("1,0,0;1,0,1;1,1,0"), H631) == \
        parse_point("1,0,0;1,1,1;1,1,1")
    assert p2_hat(parse_point("0,1,0;0,0,0;0,0,1"), H631) == zero_point(3, 3)
    fixed = parse_point("1,0,0;1,0,0;1,0,0")
    assert p2_hat(fixed, H631) == fixed


def test_p2_hat_requires_facet_point():
    with pytest.raises(ValueError):
        p2_hat(parse_point("1,1,1;1,1,1;1,1,1"), H631)


def test_ind_hat_worked_examples():
    assert ind_hat(parse_point("0;0;0"), parse_point("1,0;1,1;1,1"), H631) == \
        parse_point("1,0,0;1,1,1;1,1,1")
    assert ind_hat(parse_point("1;0;1"), parse_point("0,0;0,0;0,0"), H631) == \
        zero_point(3, 3)
    assert ind_hat(parse_point("0;0;0"), parse_point("1,1;1,1;1,1"), H631) == \
        parse_point("2,1,1;2,1,1;2,2,2")


def test_is_extremal():
    assert is_extremal(parse_point("1,1;1,1;2,1"), "EqLR")
    assert not is_extremal(parse_point("2,1,1;2,1,1;2,2,2"), "EqLR")
    assert is_extremal(x_ray(1, 3, 3), "EqLR")
    with pytest.raises(ValueError):
        is_extremal(zero_point(2, 3), "LR")
    with pytest.raises(ValueError):
        is_extremal(parse_point("1,1;1,1;2,1"), "LR")  # nonmember


def test_special_rays():
    r1 = {p for p in special_rays(1, 3)}
    assert r1 == {parse_point("1;0;1"), parse_point("0;1;1"), parse_point("1;1;1")}
    r3 = special_rays(3, 3)
    assert parse_point("1,1,1;1,1,1;1,1,1") in r3
    assert parse_point("1,1,0;1,1,0;1,1,0") in r3
    assert (tuple(), ) not in r3
    # omega_1 + omega_1 < omega_3 excluded
    assert parse_point("1,0,0;1,0,0;1,1,1") not in r3


def test_worked_facet_decomposition():
    dec = facet_rays(H631, "EqLR")
    assert [p for _, p in dec.type1] == [
        parse_point("1,1,0;1,0,0;1,1,1"),
        parse_point("1,0,0;1,1,0;1,1,1"),
        parse_point("1,0,0;1,0,0;1,1,0")]
    expected_type2 = {parse_point(t) for t in (
        "0,0,0;1,0,0;1,0,0", "0,0,0;1,1,1;1,1,1",
        "1,0,0;0,0,0;1,0,0", "1,1,1;0,0,0;1,1,1",
        "1,0,0;1,0,0;1,0,0", "1,0,0;1,1,1;1,1,1",
        "1,1,1;1,0,0;1,1,1")}
    assert set(dec.type2_extremal) == expected_type2
    assert dec.type2_zero == 3
    assert set(dec.type2_nonextremal) == {
        parse_point("2,1,1;2,1,1;2,2,2"),
        parse_point("2,1,1;2,1,1;3,2,2")}


def test_ray_counts_small():
    assert len(enumerate_rays(1, 3, "LR")) == 2
    assert len(enumerate_rays(1, 3, "EqLR")) == 3
    assert len(enumerate_rays(2, 3, "LR")) == 5
    assert len(enumerate_rays(2, 3, "EqLR")) == 10
    assert len(enumerate_rays(3, 3, "LR")) == 10
    assert len(enumerate_rays(3, 3, "EqLR")) == 27


# sha256 of the text lines of enumerate_rays(r, s, kind) (`rayset_lines`,
# joined by newlines), recorded from the release whose multi_coef expanded
# the product by a left fold; these shapes read 3- and 4-factor
# coefficients through coef_of_subsets
RAY_DIGESTS = {
    (4, 4, "LR"): (67, "ac905f8b101f2bfeb41c6b7f7e082460674042988856f8bd928e41bb1c26d403"),
    (4, 4, "EqLR"): (433, "18255b474fb17f8c7b7f0771306cea5a681b7f2e5aa361ddd3bdf94228003a64"),
    (5, 4, "LR"): (259, "52bdef39d67979f3626f2349c3ec6912bbd421e9455b1984f9bef2e3c065c44a"),
    (5, 4, "EqLR"): (1489, "99569683e1be9f1f72cb17fd32185d3f03cd6af5c917c3b3813a97bcac7daf4d"),
    (3, 5, "LR"): (44, "07976547501783029f02bb55b59aaadc7db5ee794b43b6062cd80527abdb26c4"),
    (3, 5, "EqLR"): (474, "3159ce24d15078baa86e980ea023a87353cea4134e7f0ad6c25c91e3813a392f"),
    (4, 5, "LR"): (174, "677d6f30e187d0ab2163f6a42febdf703498edba6ab83abe7147dac000a42779"),
    (4, 5, "EqLR"): (1947, "1f666e9569925b5dca2a618300bab78fae75df0165520eaf492bb3de6c9d574d"),
}


@pytest.mark.parametrize("r, s, kind", sorted(RAY_DIGESTS))
def test_ray_sets_are_pinned(monkeypatch, r, s, kind):
    monkeypatch.delenv(rays.CACHE_ENV, raising=False)
    found = enumerate_rays(r, s, kind)
    text = "\n".join(rayset_lines(found))
    assert (len(found), hashlib.sha256(text.encode()).hexdigest()) == RAY_DIGESTS[r, s, kind]


def test_rays_r2_table():
    table = ["0,0;1,0;1,0", "0,0;1,1;1,1", "1,0;0,0;1,0", "1,1;0,0;1,1",
             "1,0;1,0;1,1", "1,0;1,0;1,0", "1,0;1,1;1,1", "1,1;1,0;1,1",
             "1,1;1,1;1,1", "1,1;1,1;2,1"]
    assert set(enumerate_rays(2, 3, "EqLR")) == {parse_point(t) for t in table}


def test_rays_are_certified_and_primitive():
    for kind in ("LR", "EqLR"):
        rays = enumerate_rays(3, 3, kind)
        for p in rays:
            cert = certify(p, kind)
            assert cert.primitive and cert.extremal
        flats = [flatten(p) for p in rays]
        assert flats == sorted(flats)


def _row_rank(x, kind):
    """`exact_rank` of the rows of the forms tight at x themselves."""
    system = inequality_system(len(x[0]), len(x), kind)
    return exact_rank(system.coeffs[system.values(x) == 0].tolist())


@pytest.mark.parametrize("r, s, kind", [(4, 3, "LR"), (4, 3, "EqLR"), (3, 4, "EqLR")])
def test_certify_gram_rank_is_the_row_rank(r, s, kind):
    # certify ranks the Gram matrix of the tight forms, not their rows
    rays = enumerate_rays(r, s, kind)
    points = list(rays) + [point_add(x, y) for x, y in combinations(rays, 2)]
    ranks = [certify(x, kind).tight_rank for x in points]
    assert ranks == [_row_rank(x, kind) for x in points]
    assert ranks[:len(rays)] == [r * s - 1] * len(rays)
    assert min(ranks) < r * s - 1


@st.composite
def integer_members(draw):
    """(x, kind): a nonzero integer combination of rays, a member of the
    cone by convexity, with multiples small and up to 2**62, so that x is
    evaluated in float64 and in Python ints."""
    r, s, kind = draw(st.sampled_from([(3, 3, "LR"), (3, 3, "EqLR"),
                                       (3, 3, "CSL"), (2, 4, "EqLR")]))
    rays = enumerate_rays(r, s, kind)
    picks = draw(st.lists(st.sampled_from(rays), min_size=1, max_size=4))
    x = zero_point(r, s)
    for ray in picks:
        c = draw(st.one_of(st.integers(1, 3), st.integers(1, 2**62)))
        x = point_add(x, tuple(tuple(c * v for v in b) for b in ray))
    return x, kind


@settings(max_examples=200, deadline=None)
@given(integer_members())
def test_certify_rank_on_random_members(member_kind):
    x, kind = member_kind
    assert certify(x, kind).tight_rank == _row_rank(x, kind)


def test_lr_equals_csl_plus_xj():
    for r in (1, 2, 3):
        lr = set(enumerate_rays(r, 3, "LR"))
        csl = set(enumerate_rays(r, 3, "CSL"))
        xs = {x_ray(j, r, 3) for j in (1, 2)}
        assert lr == csl | xs
        assert len(lr) == len(csl) + 2


def test_xj_on_every_horn_facet():
    for r in (2, 3):
        for j in (1, 2):
            xj = x_ray(j, r, 3)
            assert all(horn_slack(xj, h) == 0 for h in all_horn_data(r, 3))


def test_ortho_lemma_r3():
    # distinct type I rays on one facet: unit consecutive difference at the
    # datum's own position, zero at every other datum's position
    for h in all_horn_data(3, 3):
        pairs = [(t, type1_ray(h, t)) for t in type1_data(h)]
        for (t1, ray1) in pairs:
            for (t2, _) in pairs:
                j, a = t2
                if j < h.s:
                    diff = ray1[j - 1][a - 1] - ray1[j - 1][a]
                else:
                    diff = ray1[h.s - 1][a - 2] - ray1[h.s - 1][a - 1]
                assert diff == (1 if t1 == t2 else 0)


def test_noway_kernel_counts_r3():
    for h in all_horn_data(3, 3):
        data = type1_data(h)
        dec = facet_rays(h, "EqLR")
        assert dec.type2_zero == len(data)
        # pi of the type I rays spans the kernel
        vecs = []
        for t in data:
            a, b = pi(type1_ray(h, t), h)
            vecs.append(flatten(a) + flatten(b))
        assert exact_rank(vecs) == len(data)


def test_protheo_lattice_decomposition():
    # facet points decompose as nonneg integer type I combinations plus an
    # EqLR point of the complementary subcone
    rng = random.Random(7)
    for h in all_horn_data(3, 3):
        pts = [p for p in lattice_points_bounded(3, 3, "EqLR", 2)
               if horn_slack(p, h) == 0]
        for x in rng.sample(pts, min(25, len(pts))):
            z = p2_hat(x, h)
            assert member(z, "EqLR")
            diff = point_sub(x, z)
            # reconstruct the coefficients used by p2_hat
            coeffs = []
            for (j, a) in type1_data(h):
                if j < h.s:
                    coeffs.append(x[j - 1][a - 1] - x[j - 1][a])
                else:
                    coeffs.append(x[h.s - 1][a - 2] - x[h.s - 1][a - 1])
            assert all(c >= 0 and isinstance(c, int) for c in coeffs)
            rebuilt = zero_point(3, 3)
            for c, t in zip(coeffs, type1_data(h)):
                ray = type1_ray(h, t)
                rebuilt = tuple(tuple(u + c * v for u, v in zip(bu, bv))
                                for bu, bv in zip(rebuilt, ray))
            assert rebuilt == diff


def test_step4_rule_agreement_r4():
    # type1_ray raises on disagreement, so constructing every ray suffices
    for r in (2, 3, 4):
        for h in all_horn_data(r, 3):
            for t in type1_data(h):
                type1_ray(h, t)


def test_diagonal_no_facet_check():
    assert diagonal_no_facet_check(3, 3, 2)
    assert not diagonal_no_facet_check(3, 3, 1)
    assert diagonal_no_facet_check(1, 3, 1)
    for r in (2, 3, 4):
        for l in range(1, r + 1):
            assert diagonal_no_facet_check(r, 3, l) == (l >= r / 2)


def test_enumerate_rays_ceiling():
    with pytest.raises(ValueError):
        enumerate_rays(3, 3, "EqC")


def refuse(*args, **kwargs):
    raise AssertionError("work began before the Horn work check")


@pytest.mark.parametrize("r, s", [(8, 8), (3, 30)])
def test_enumerate_rays_refuses_horn_work_first(monkeypatch, r, s):
    # the omega-tuples come first in a cold run: at (8, 8) they are drawn
    # from about 8 million tuples of k's
    monkeypatch.setattr(rays, "special_rays", refuse)
    with pytest.raises(ValueError, match="Horn work"):
        enumerate_rays(r, s, "EqLR")


def test_facet_rays_refuses_horn_work_first(monkeypatch):
    # W(10, 4) = 38,165,258; the (5, 4) cones of this d = 5 datum would
    # be enumerated before the system at (10, 4) is built
    low = tuple(range(1, 6))
    h = HornDatum(10, 4, 5, (low,) * 3, low).check()
    monkeypatch.setattr(rays, "_smaller_rays", refuse)
    with pytest.raises(ValueError, match="Horn work"):
        facet_rays(h, "EqLR")


def test_facet_rays_refuses_a_datum_that_is_not_horn():
    # tau({1}) = (0) and tau({3}) = (2), and c^{(2)}_{(0),(0)} = 0
    h = HornDatum(3, 3, 1, ((1,), (1,)), (3,))
    with pytest.raises(ValueError, match="structure coefficient"):
        facet_rays(h, "EqLR")


def test_disk_cache_write_is_atomic(tmp_path, monkeypatch):
    monkeypatch.setenv(rays.CACHE_ENV, str(tmp_path))
    monkeypatch.setattr(rays, "_RAY_MEMO", {})
    dump = json.dump

    def killed_midway(obj, fh):
        fh.write('{"r": 1, "s": 3, "kind": "LR", "count": 2, "rays": [[')
        raise KeyboardInterrupt

    monkeypatch.setattr(json, "dump", killed_midway)
    with pytest.raises(KeyboardInterrupt):
        enumerate_rays(2, 3, "EqLR")
    assert list(tmp_path.iterdir()) == []

    monkeypatch.setattr(json, "dump", dump)
    rays._RAY_MEMO.clear()
    found = enumerate_rays(2, 3, "EqLR")
    cached = json.loads((tmp_path / "rays-r2-s3-eqlr.json").read_text())
    assert cached == {"format": rays._code_digest(),
                      **rays.rayset_json(2, 3, "EqLR", found)}
    rays._RAY_MEMO.clear()
    assert enumerate_rays(2, 3, "EqLR") == found  # read back from disk


def counting_ranks(monkeypatch):
    """Record, per call of the batched rank mod p, the rows given and how
    many fell short of rs - 1, and every matrix given to `exact_rank`."""
    batched, calls = [], []
    ranks_mod_p = rays._ranks_mod_p

    def batched_counting(mats):
        ranks = ranks_mod_p(mats)
        batched.append((len(mats), int((ranks < mats.shape[1] - 1).sum())))
        return ranks

    def exact_counting(rows):
        calls.append(rows)
        return exact_rank(rows)

    monkeypatch.setattr(rays, "_ranks_mod_p", batched_counting)
    monkeypatch.setattr(rays, "exact_rank", exact_counting)
    return batched, calls


def test_each_candidate_certified_once(monkeypatch):
    monkeypatch.delenv(rays.CACHE_ENV, raising=False)
    monkeypatch.setattr(rays, "_RAY_MEMO", {})
    batched, calls = counting_ranks(monkeypatch)
    assert len(enumerate_rays(3, 3, "EqLR")) == 27
    # the cones computed on the way: LR and EqLR at r = 1, 2, 3
    cones = [(r, 3, kind) for r in (1, 2, 3) for kind in ("LR", "EqLR")]
    # one rank mod p per distinct tight set the filter passes, which is
    # fewer than the distinct candidates, and one exact rank per shortfall
    given = sum(rows for rows, _ in batched)
    assert given == sum(reference_survivors(*c) for c in cones)
    assert given < sum(len(reference_pool(*c)) for c in cones)
    assert len(calls) == sum(short for _, short in batched)


def test_rank_shortfalls_fall_back_to_exact_rank(monkeypatch):
    monkeypatch.delenv(rays.CACHE_ENV, raising=False)
    monkeypatch.setattr(rays, "_RAY_MEMO", {})
    cones = [(r, s, kind) for r, s in [(4, 3), (3, 4)] for kind in ("LR", "EqLR")]
    expected = [enumerate_rays(*c) for c in cones]
    # mod 3 many tight Gram matrices lose rank, so exact_rank decides them
    monkeypatch.setattr(rays, "RANK_MODULUS", 3)
    monkeypatch.setattr(rays, "_RAY_MEMO", {})
    batched, calls = counting_ranks(monkeypatch)
    assert [enumerate_rays(*c) for c in cones] == expected
    assert calls and len(calls) == sum(short for _, short in batched)


@pytest.mark.parametrize("modulus", [rays.RANK_MODULUS, 3])
def test_rank_alone_decides_one_row_pools(monkeypatch, modulus):
    # a pool of one row passes the tight-set filter whenever rs - 1 forms
    # are tight at it, so the rank decides every such member of the box,
    # most of which are not extremal
    monkeypatch.setattr(rays, "RANK_MODULUS", modulus)
    points = sorted({primitive(x) for x in lattice_points_bounded(3, 3, "EqLR", 2)
                     if any(flatten(x))})
    decided = [p for p in points if len(reference_tight(p, "EqLR")) >= 8]
    extremal = [is_extremal(p, "EqLR") for p in decided]
    assert extremal.count(False) > 100
    assert [rays._extremal(np.array([flatten(p)]), 3, 3, "EqLR")[0]
            for p in decided] == extremal


def _corrupt(payload, how):
    if how == "unversioned":  # as written before the format field existed
        del payload["format"]
    elif how == "another code digest":  # as written by other code
        payload["format"] = "0" * 64
    elif how == "non-member":  # 9,9;0,0;1,0 breaks containment nu >= lam
        payload.update(count=1, rays=[[[9, 9], [0, 0], [1, 0]]])
    elif how == "key":
        payload["s"] = 4
    elif how == "count":
        payload["count"] -= 1
    elif how == "unsorted":
        payload["rays"].reverse()
    elif how == "duplicate":
        payload["rays"][1] = payload["rays"][0]
    elif how == "zero":
        payload["rays"][0] = [[0, 0], [0, 0], [0, 0]]
    elif how == "non-extremal":  # in the cone, on the face of two rays
        first, second = payload["rays"][:2]
        inside = primitive(tuple(tuple(a + b for a, b in zip(p, q))
                                 for p, q in zip(first, second)))
        payload["rays"] = sorted(payload["rays"] + [[list(b) for b in inside]],
                                 key=flatten)
        payload["count"] += 1
    elif how == "non-primitive":
        payload["rays"][-1] = [[2 * v for v in b] for b in payload["rays"][-1]]
    elif how == "past int64":
        payload["rays"][-1][-1][0] = 2**64
    elif how == "float":
        payload["rays"][-1] = [[float(v) for v in b] for b in payload["rays"][-1]]
    elif how == "shape":
        payload["rays"][0] = payload["rays"][0][:2]
    return json.dumps(payload)


@pytest.mark.parametrize("how", ["unversioned", "another code digest",
                                 "non-member", "non-extremal", "key", "count",
                                 "unsorted", "duplicate", "zero", "non-primitive",
                                 "past int64", "float", "shape", "not json"])
def test_disk_cache_serves_only_what_it_can_check(tmp_path, monkeypatch,
                                                  capsys, how):
    monkeypatch.setenv(rays.CACHE_ENV, str(tmp_path))
    monkeypatch.setattr(rays, "_RAY_MEMO", {})
    found = enumerate_rays(2, 3, "EqLR")
    expected = {"format": rays._code_digest(), **rays.rayset_json(2, 3, "EqLR", found)}
    path = tmp_path / "rays-r2-s3-eqlr.json"
    text = "{not json" if how == "not json" else _corrupt(json.loads(
        json.dumps(expected)), how)
    path.write_text(text)
    rays._RAY_MEMO.clear()
    assert main(["rays", "--r", "2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["# 10 rays of EqLR_2^3"] + rays.rayset_lines(found)
    assert path.read_text() == json.dumps(expected)  # recomputed and rewritten


def test_disk_cache_serves_a_valid_file(tmp_path, monkeypatch):
    monkeypatch.setenv(rays.CACHE_ENV, str(tmp_path))
    monkeypatch.setattr(rays, "_RAY_MEMO", {})
    found = enumerate_rays(3, 3, "EqLR")
    rays._RAY_MEMO.clear()
    # a recomputation would fail
    monkeypatch.setattr(rays, "_candidate_pool", None)
    assert enumerate_rays(3, 3, "EqLR") == found
    assert len(list(tmp_path.iterdir())) == 6  # LR and EqLR at r = 1, 2, 3


# ---------------------------------------------------------------------------
# the batched pipeline against the single-point reference definitions

def reference_pool(r, s, kind):
    """The candidate pool of LR or EqLR built one point at a time from the
    paper's definitions: `type1_ray`, `ind_hat` and `primitive`."""
    candidates = [x for x in special_rays(r, s) if member(x, kind)]
    for h in all_horn_data(r, s):
        candidates += [type1_ray(h, t) for t in type1_data(h)]
        candidates += [ind_hat(a, zero_point(r - h.d, s), h)
                       for a in enumerate_rays(h.d, s, "LR")]
        candidates += [ind_hat(zero_point(h.d, s), b, h)
                       for b in enumerate_rays(r - h.d, s, kind)]
    if kind == "EqLR":
        candidates += enumerate_rays(r, s, "LR")
    return {primitive(x) for x in candidates if any(flatten(x))}


def reference_tight(x, kind):
    """The indices of the forms tight at x, by the exact evaluator."""
    system = inequality_system(len(x[0]), len(x), kind)
    return frozenset(np.flatnonzero(system.values(x) == 0).tolist())


def reference_survivors(r, s, kind):
    """How many rows the tight-set filter passes on the reference pool: one
    per distinct tight set with at least rs - 1 forms inside no other."""
    sets = {reference_tight(p, kind) for p in reference_pool(r, s, kind)}
    big = [t for t in sets if len(t) >= r * s - 1]
    return sum(not any(t < u for u in big) for t in big)


PIPELINE_SHAPES = ([(r, 3) for r in range(1, 5)] + [(r, 4) for r in range(1, 4)]
                   + [(r, 5) for r in range(1, 3)])


@pytest.mark.parametrize("kind", ["LR", "EqLR"])
@pytest.mark.parametrize("r, s", PIPELINE_SHAPES)
def test_tight_set_filter_is_a_proof(r, s, kind):
    pool = rays._candidate_pool(r, s, kind)
    points = [unflatten(row, r) for row in pool.tolist()]
    reference = reference_pool(r, s, kind)
    assert set(points) == reference and len(points) == len(reference)
    assert [flatten(p) for p in points] == sorted(flatten(p) for p in points)
    system = inequality_system(r, s, kind)
    bits, sizes = rays._tight_sets(pool, system)
    for p, row in zip(points, bits):
        tight = np.unpackbits(row.view(np.uint8), count=len(system.forms))
        assert frozenset(np.flatnonzero(tight).tolist()) == reference_tight(p, kind)
    passed = set(rays._maximal(bits, sizes, r * s - 1))
    assert len(passed) == reference_survivors(r, s, kind)
    extremal = {p for p in reference if is_extremal(p, kind)}
    # every rejection is a proof: no rejected candidate is extremal
    assert not {p for i, p in enumerate(points) if i not in passed} & extremal
    assert set(enumerate_rays(r, s, kind)) == extremal


@pytest.mark.parametrize("r", [2, 3, 4])
def test_induction_matrix_is_ind_hat(r):
    for h in all_horn_data(r, 3):
        m = rays._induction_matrix(h)
        for a in (zero_point(h.d, 3),) + enumerate_rays(h.d, 3, "LR"):
            for b in (zero_point(r - h.d, 3),) + enumerate_rays(r - h.d, 3, "EqLR"):
                z = np.array(flatten(a) + flatten(b), dtype=np.int64)
                assert tuple((m @ z).tolist()) == flatten(ind_hat(a, b, h))


@pytest.mark.parametrize("r", [2, 3, 4])
def test_induction_matrix_undoes_pi(r):
    # pi is the oracle of the coordinate split in M_h: for each ray x on the
    # facet of h, M_h maps the row z = pi(x, h) to p2_hat(x, h), so the
    # placement in M_h is the inverse of pi
    eqlr = enumerate_rays(r, 3, "EqLR")
    for h in all_horn_data(r, 3):
        m = rays._induction_matrix(h)
        on_facet = [x for x in eqlr if horn_slack(x, h) == 0]
        assert on_facet, h
        for x in on_facet:
            a, b = pi(x, h)
            z = np.array(flatten(a) + flatten(b), dtype=np.int64)
            assert tuple((m @ z).tolist()) == flatten(p2_hat(x, h)), (h, x)


def test_tight_sets_beyond_int64():
    # 2**61 * x_1 + x_2 is a primitive member; with entries near 2**61 its
    # form values are summed in Python ints, not int64
    x1, x2 = (np.array(flatten(x_ray(j, 3, 3)), dtype=np.int64) for j in (1, 2))
    big = 2**61 * x1 + x2
    pool = np.array([x1, big])
    system = inequality_system(3, 3, "EqLR")
    bits, sizes = rays._tight_sets(pool, system)
    for row, n, x in zip(bits, sizes, pool.tolist()):
        tight = np.unpackbits(row.view(np.uint8), count=len(system.forms))
        expected = reference_tight(unflatten(x, 3), "EqLR")
        assert frozenset(np.flatnonzero(tight).tolist()) == expected
        assert n == len(expected)
    assert rays._extremal(pool, 3, 3, "EqLR").tolist() == [True, False]


def test_value_blocks_of_one_row(monkeypatch):
    # with one row a block, each row is read from its own block, at the
    # offset that value_blocks yields
    system = inequality_system(3, 3, "EqLR")
    pool = rays._candidate_pool(3, 3, "EqLR")
    expected_bits, expected_sizes = rays._tight_sets(pool, system)
    box = np.indices((2,) * 9).reshape(9, -1).T
    monkeypatch.setattr(cones, "VALUES_BLOCK_BYTES", 1)
    assert system.block_rows == 1
    expected = [member(unflatten(row, 3), "EqLR") for row in box.tolist()]
    assert system.members(box).tolist() == expected
    assert any(expected) and not all(expected)
    bits, sizes = rays._tight_sets(pool, system)
    assert np.array_equal(bits, expected_bits)
    assert np.array_equal(sizes, expected_sizes)
    # 1,1,1;0,0,0;1,1,0 breaks containment; rows 0-2 are in the cone
    outside = np.insert(pool[:5], 3, [1, 1, 1, 0, 0, 0, 1, 1, 0], axis=0)
    with pytest.raises(ValueError, match="^1,1,1;0,0,0;1,1,0 is not in EqLR$"):
        rays._tight_sets(outside, system)


def test_pipeline_refuses_a_point_outside_the_cone():
    # 9,9;0,0;1,0 breaks containment nu >= lam, as certify reports
    outside = np.array([[1, 0, 1, 0, 1, 0], [9, 9, 0, 0, 1, 0]], dtype=np.int64)
    with pytest.raises(ValueError, match="9,9;0,0;1,0 is not in EqLR"):
        rays._extremal(outside, 2, 3, "EqLR")
    with pytest.raises(ValueError, match="9,9;0,0;1,0 is not in EqLR"):
        certify(parse_point("9,9;0,0;1,0"), "EqLR")
