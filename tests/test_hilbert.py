"""Bounded Hilbert-basis search and indecomposability."""

import hashlib
import tracemalloc
from itertools import accumulate, product

import numpy as np
import pytest

from lrcone import cones, hilbert
from lrcone.cones import (
    flatten,
    format_point,
    inequality_system,
    member,
    parse_point,
    point_add,
    point_sub,
)
from lrcone.partitions import partitions_in_box, subpartitions
from lrcone.hilbert import (
    decomposition_witness,
    hilbert_basis_bounded,
    is_indecomposable,
    lattice_points_bounded,
)
from lrcone.rays import enumerate_rays, is_extremal


def test_lattice_points_bounded_r1():
    pts = lattice_points_bounded(1, 3, "EqLR", 1)
    assert set(pts) == {parse_point(t) for t in ("1;0;1", "0;1;1", "1;1;1")}
    pts2 = lattice_points_bounded(1, 3, "EqLR", 2)
    assert parse_point("1;1;2") in pts2
    assert parse_point("0;0;1") not in pts2  # trace fails


def test_doubling_is_decomposable():
    x = parse_point("1,0;1,0;1,1")
    assert is_indecomposable(x, "LR")
    doubled = point_add(x, x)
    wit = decomposition_witness(doubled, "LR")
    assert wit is not None
    y, rest = wit
    assert point_add(y, rest) == doubled
    assert member(y, "LR") and member(rest, "LR")


def test_witness_is_the_first_in_search_order():
    # the search goes through y block by block, each block over its
    # subpartitions in order, and returns the first y that splits x
    x = parse_point("1,0;1,0;1,1")
    assert decomposition_witness(point_add(x, x), "LR") == (x, x)
    x = parse_point("2,2,1;2,1,1;3,2,2")
    y = ((0, 0, 0), (1, 0, 0), (1, 0, 0))
    assert decomposition_witness(x, "EqLR") == (y, parse_point("2,2,1;1,1,1;2,2,2"))


def loop_witness(x, kind):
    """The per-candidate search that `decomposition_witness` batches, as a
    reference: every y in the product of the block choices, in order, each
    tested on its object-dtype form values."""
    system = inequality_system(len(x[0]), len(x), kind)
    vx = system.values(x)
    half = sum(flatten(x)) / 2
    block_choices = [
        [mu for mu in subpartitions(block)
         if all(a - b >= c - d for (a, b), (c, d)
                in zip(zip(block, mu), zip(block[1:], mu[1:])))]
        for block in x]
    for y in product(*block_choices):
        if not 0 < sum(map(sum, y)) <= half:
            continue
        vy = system.values(y)
        if (vy >= 0).all() and (vx - vy >= 0).all():
            return (y, point_sub(x, y))
    return None


@pytest.fixture(scope="module")
def loop_witnesses():
    """(point, kind) pairs and their `loop_witness`: the rays at (4,3) and
    every sum of two of them, CSL rays, rays at s = 4 and 5, sums of
    neighbouring rays, and the non-extremal basis elements of (2,5,B=4)."""
    points = []
    for kind in ("LR", "EqLR"):
        rays = enumerate_rays(4, 3, kind)
        points += [(x, kind) for x in rays]
        points += [(point_add(x, y), kind) for i, x in enumerate(rays) for y in rays[i + 1:]]
    csl = enumerate_rays(4, 3, "CSL")
    points += [(x, "CSL") for x in csl] + [(point_add(x, y), "CSL")
                                           for x, y in zip(csl, csl[1:])]
    for r, s in ((3, 4), (2, 5)):
        rays = enumerate_rays(r, s, "EqLR")
        points += [(x, "EqLR") for x in rays] + [(point_add(x, y), "EqLR")
                                                 for x, y in zip(rays, rays[1:])]
    points += [(x, "EqLR") for x in hilbert_basis_bounded(2, 5, "EqLR", 4).points
               if not is_extremal(x, "EqLR")]
    return points, [loop_witness(x, kind) for x, kind in points]


@pytest.mark.parametrize("block_bytes, rows", [(cones.VALUES_BLOCK_BYTES, 2114), (1, 1)],
                         ids=["default", "one row"])
def test_batched_witness_matches_per_candidate_loop(monkeypatch, loop_witnesses,
                                                    block_bytes, rows):
    # the chunks of the product hold block_rows rows: 2114 at (4,3,EqLR),
    # which has 62 forms, and one row with a block of 1 byte
    monkeypatch.setattr(cones, "VALUES_BLOCK_BYTES", block_bytes)
    assert inequality_system(4, 3, "EqLR").block_rows == rows
    points, expected = loop_witnesses
    assert [decomposition_witness(x, kind) for x, kind in points] == expected
    assert expected.count(None) == 343 and len(expected) == 3331


def test_witness_holds_one_value_block(monkeypatch):
    # the witness of x is row 580 of its 1,296 candidates: their values
    # under the 168 forms of (5,3,EqLR) up to it would take 780 kB, while a
    # block of 8 KiB holds 6 rows
    x = parse_point("4,4,2,2,1;2,2,2,2,1;6,4,4,2,2")
    expected = decomposition_witness(x, "EqLR")  # caches the forms and choices
    monkeypatch.setattr(cones, "VALUES_BLOCK_BYTES", 2**13)
    assert inequality_system(5, 3, "EqLR").block_rows == 6
    tracemalloc.start()
    try:
        got = decomposition_witness(x, "EqLR")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == expected and got[0] == parse_point("2,2,1,1,0;1,1,1,1,0;3,2,2,1,1")
    # the float64 forms (20 kB), one block and the rows of its chunk
    assert peak < 2**16


def test_split_choices_are_read_only():
    choices, weights = hilbert._split_choices((2, 1))
    assert choices.tolist() == [[0, 0], [1, 0], [1, 1], [2, 1]]
    assert weights.tolist() == [0, 1, 2, 3]
    with pytest.raises(ValueError, match="read-only"):
        choices[0, 0] = 1
    with pytest.raises(ValueError, match="read-only"):
        weights[0] = 1


def test_nonray_indecomposable_example():
    # an extremal ray of EqLR_2 that is not in LR_2
    assert is_indecomposable(parse_point("1,1;1,1;2,1"), "EqLR")


def test_extra_hilbert_element_r6():
    # indecomposable lattice point beyond the extremal rays
    x = parse_point("2,1,1,1,1,1;2,2,2,1,1,1;3,3,2,2,2,1")
    assert member(x, "EqLR")
    assert is_indecomposable(x, "EqLR")


def test_witness_errors():
    with pytest.raises(ValueError):
        decomposition_witness(parse_point("0,0;0,0;0,0"), "LR")
    with pytest.raises(ValueError):
        decomposition_witness(parse_point("1,1;0,0;0,0"), "LR")


@pytest.mark.parametrize("kind", ["C", "EqC"])
def test_witness_refuses_cones_with_lines(kind):
    # x is a point of C (and of EqC); with lines in the cone it splits as
    # (x + l) + (-l) for a line l, which a search of y <= x does not see
    x = ((0, -1), (0, -1), (0, -2))
    with pytest.raises(ValueError, match="not pointed"):
        decomposition_witness(x, kind)
    with pytest.raises(ValueError, match="not pointed"):
        is_indecomposable(x, kind)
    with pytest.raises(ValueError, match="not pointed"):
        hilbert_basis_bounded(2, 3, kind, 1)


def test_witness_refuses_non_integer_points():
    half = parse_point("1/2,0;1/2,0;1,0")
    assert member(half, "LR")
    with pytest.raises(ValueError, match="not a lattice point"):
        decomposition_witness(half, "LR")
    with pytest.raises(ValueError, match="not a lattice point"):
        is_indecomposable(((1.0, 0), (1, 0), (1, 1)), "LR")
    # a Fraction with denominator 1 and a numpy integer are integers
    doubled = parse_point("2/1,0;2,0;2,2")
    assert decomposition_witness(doubled, "LR") == (((1, 0), (1, 0), (1, 1)),) * 2
    x = parse_point("1,0;1,0;1,1")
    assert is_indecomposable(tuple(tuple(np.int64(v) for v in b) for b in x), "LR")


def test_bounded_basis_counts_match_ray_counts():
    # for r <= 3 the B=3 Hilbert basis is exactly the primitive ray set
    for r, expected in ((1, 3), (2, 10), (3, 27)):
        basis = hilbert_basis_bounded(r, 3, "EqLR", 3)
        assert len(basis.points) == expected
        assert set(basis.points) == set(enumerate_rays(r, 3, "EqLR"))


def test_bounded_basis_lr():
    basis = hilbert_basis_bounded(2, 3, "LR", 3)
    assert set(basis.points) == set(enumerate_rays(2, 3, "LR"))


@pytest.mark.parametrize("kind", ["EqLR", "LR"])
@pytest.mark.parametrize("r, s, B", [(r, 3, B) for r in (1, 2, 3)
                                     for B in (1, 2, 3)] + [(2, 4, 2)])
def test_sieve_matches_exhaustive_definition(r, s, B, kind):
    basis = set(hilbert_basis_bounded(r, s, kind, B).points)
    for x in lattice_points_bounded(r, s, kind, B):
        assert (x in basis) == is_indecomposable(x, kind), x


def per_element_sieve(rows, base):
    """The sieve decided one basis element at a time: each weight layer is
    tested against the basis elements of the layers below it, one by one,
    in the order they were found. The reference for the batched sieve."""
    codes = rows @ base ** np.arange(rows.shape[1], dtype=np.int64)
    known = np.sort(codes)
    weights = rows.sum(axis=1)
    order = np.argsort(weights, kind="stable")
    cuts = np.flatnonzero(np.diff(weights[order])) + 1
    basis_rows, basis_codes = [], []
    for layer in np.split(order, cuts):
        left_rows, left_codes = rows[layer], codes[layer]
        for h, code in zip(basis_rows, basis_codes):
            test = np.flatnonzero((left_rows >= h).all(axis=1))
            if not len(test):
                continue
            rest = left_codes[test] - code
            at = np.minimum(np.searchsorted(known, rest), len(known) - 1)
            keep = np.ones(len(left_rows), dtype=bool)
            keep[test[known[at] == rest]] = False
            left_rows, left_codes = left_rows[keep], left_codes[keep]
            if not len(left_rows):
                break
        basis_rows.extend(left_rows)
        basis_codes.extend(left_codes)
    return basis_rows


# 50 bytes holds at most two (element, row) pairs (17 bytes each), so every
# group of basis elements of one weight is tested one or two elements per
# chunk
@pytest.mark.parametrize("chunk_bytes", [hilbert.MASK_CHUNK_BYTES, 50])
@pytest.mark.parametrize("r, s, kind, B", [(4, 4, "EqLR", 2), (6, 3, "EqLR", 2),
                                           (5, 3, "EqLR", 3), (3, 3, "LR", 3),
                                           (3, 3, "CSL", 2), (1, 3, "CSL", 1)])
def test_batched_sieve_matches_per_element_sieve(monkeypatch, r, s, kind, B,
                                                 chunk_bytes):
    parts, idx = hilbert._member_indices(r, s, kind, B)
    # the members in box order, as index columns and as flat rows
    idx = idx[:, np.lexsort(idx[::-1])]
    rows = hilbert._flat_rows(parts, idx)
    expected = [row.tolist() for row in per_element_sieve(rows, B + 1)]
    monkeypatch.setattr(hilbert, "MASK_CHUNK_BYTES", chunk_bytes)
    basis = hilbert._sieve(parts, idx)
    assert hilbert._flat_rows(parts, basis).tolist() == expected


def test_difference_table():
    parts = np.array(partitions_in_box(3, 2), dtype=np.int64)
    sub = hilbert._differences(parts)
    index = {tuple(p): i for i, p in enumerate(parts.tolist())}
    m = len(parts)
    for a, b in np.ndindex(m, m):
        diff = tuple(parts[a] - parts[b])
        assert sub[a, b] == index.get(diff, m), (parts[a], parts[b])
    # (1,1,0) dominates (1,0,0), but their difference (0,1,0) increases: it
    # is not a partition and maps to the absent slot
    assert sub[index[1, 1, 0], index[1, 0, 0]] == m


def test_horn_work_refused_at_once(monkeypatch):
    # r = 21 would expand the Horn data of every 0 < d < 21 before the
    # search starts; the Horn work ceiling refuses it before any expansion
    def expand(*args, **kwargs):
        raise AssertionError("Horn data were expanded")
    monkeypatch.setattr(cones, "multi_expand", expand)
    with pytest.raises(ValueError, match="Horn work"):
        hilbert_basis_bounded(21, 3, "EqLR", 1)


def test_basis_to_json():
    basis = hilbert_basis_bounded(1, 3, "LR", 2)
    js = basis.to_json()
    assert js["count"] == len(basis.points)
    assert js["bound"] == 2


def test_resource_guard(monkeypatch):
    # (6,3,B=6) would allocate about 50 GB; the byte guard refuses it
    # before any candidate point is built or tested
    def build_box(*args, **kwargs):
        raise AssertionError("the box was built")
    monkeypatch.setattr(np, "indices", build_box)
    monkeypatch.setattr(hilbert, "_member_mask", build_box)
    with pytest.raises(ValueError, match="budget"):
        hilbert_basis_bounded(6, 3, "EqLR", 6)
    with pytest.raises(ValueError):
        hilbert_basis_bounded(2, 3, "EqLR", 0)
    with pytest.raises(ValueError):
        lattice_points_bounded(2, 3, "EqLR", -1)


def test_search_budget():
    # (6,3,B=4) counts 1,492,260 candidate rows and fits; (6,3,B=5)
    # counts 13,728,792 and (6,3,B=6) 98,062,800, and neither does
    hilbert.check_search_budget(6, 3, "EqLR", 4)
    for B in (5, 6):
        with pytest.raises(ValueError, match="budget"):
            hilbert.check_search_budget(6, 3, "EqLR", B)
    # without containment every lambda^j ranges over the whole box
    with pytest.raises(ValueError, match="about .* GB, over the 4 GB budget"):
        hilbert.check_search_budget(6, 3, "LR", 4)


def test_huge_box_refused_before_it_is_listed(monkeypatch):
    # C(105, 5), about 96 million partitions, would not even fit as a list
    def listed(*args, **kwargs):
        raise AssertionError("the box was listed")
    monkeypatch.setattr(hilbert, "partitions_in_box", listed)
    with pytest.raises(ValueError, match="at least .* GB, over the"):
        lattice_points_bounded(5, 3, "EqLR", 100)


def full_product_rows(r, s, kind, B):
    """The member rows in box order, from the full product of the box
    partitions and `InequalitySystem.members`: the reference, independent
    of the search's block tables, that the search must match."""
    part_arr = np.array(partitions_in_box(r, B), dtype=np.int64)
    flat = np.concatenate([part_arr[idx] for idx in
                           np.indices((len(part_arr),) * s).reshape(s, -1)], axis=1)
    rows = flat[inequality_system(r, s, kind).members(flat)]
    return rows[rows.any(axis=1)]


def count_mask_rows(monkeypatch):
    """Wrap the membership mask; the returned list gets the row count of
    every call."""
    sizes = []
    mask = hilbert._member_mask

    def counted(flat_rows, *args):
        sizes.append(len(flat_rows))
        return mask(flat_rows, *args)
    monkeypatch.setattr(hilbert, "_member_mask", counted)
    return sizes


# a block of 8 MiB holds all the candidates of any nu at these shapes; one
# of 5000 bytes holds a few dozen, so the larger nu are cut into several;
# one of 500 bytes holds fewer than the choices of the last lambda^j of the
# larger nu, so their blocks cut those choices too
@pytest.mark.parametrize("block_bytes", [2**23, 5000, 500])
@pytest.mark.parametrize("kind", ["EqLR", "LR"])
@pytest.mark.parametrize("r, s, B", [(1, 3, 3), (2, 3, 1), (2, 3, 3), (3, 3, 2),
                                     (3, 3, 3), (4, 3, 2), (1, 4, 3), (2, 4, 2),
                                     (2, 4, 3), (3, 4, 2)])
def test_member_rows_match_full_product(monkeypatch, r, s, B, kind, block_bytes):
    expected = full_product_rows(r, s, kind, B)
    monkeypatch.setattr(hilbert, "VALUES_BLOCK_BYTES", block_bytes)
    sizes = count_mask_rows(monkeypatch)
    members = hilbert._box_rows(*hilbert._member_indices(r, s, kind, B))
    assert np.array_equal(members, expected)
    # the candidates of each nu: k(nu)^(s-1) tuples, k(nu) the box partitions
    # contained in nu (EqLR) or all of them (LR); a block holds at most the
    # candidates whose sums under every form, an int16 and its comparison a
    # bool each, fit block_bytes, no block spans two nu, and a nu is cut
    # into several blocks only when its candidates do not fit one
    parts = np.array(partitions_in_box(r, B), dtype=np.int64)
    counts = (parts[:, None] <= parts[None]).all(axis=2).sum(axis=0)
    if kind == "LR":
        counts[:] = len(parts)
    blocks = (counts ** (s - 1)).tolist()
    limit = block_bytes // (3 * len(inequality_system(r, s, kind).forms))
    assert max(sizes) <= limit
    assert sum(sizes) == sum(blocks)
    assert set(accumulate(blocks)) <= set(accumulate(sizes))
    assert (len(sizes) > len(blocks)) == (max(blocks) > limit)
    if block_bytes == 5000 and (r, s, B) == (3, 3, 3):
        # 59 candidates a block under the 28 forms of (3,3,EqLR) and 75
        # under the 22 of LR, and nu = (3, 3, 3) has 20^2 candidates
        assert limit == {"EqLR": 59, "LR": 75}[kind] and len(sizes) > len(blocks)


def test_member_mask_holds_a_slice_of_values():
    # the largest nu at (6,3,B=4), (4, ..., 4), has 210^2 = 44,100
    # candidates, whose int16 sums under the 552 forms would take 48.7 MB at
    # once; a block of VALUES_BLOCK_BYTES holds 633 of them, at 3 bytes a
    # form for the sum and its comparison
    r, s, B = 6, 3, 4
    system = inequality_system(r, s, "EqLR")
    parts = np.array(partitions_in_box(r, B), dtype=np.int64)
    dtype = hilbert._sum_dtype(r * s * B)
    tables = hilbert._block_tables(system, parts, dtype)
    size = hilbert._block_candidates(len(system.forms), dtype)
    assert dtype == np.int16 and size == 633
    m = len(parts)
    choices = np.arange(m)
    tracemalloc.start()
    try:
        found = hilbert._nu_members(tables, choices, m - 1, size)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    grid = np.vstack([np.indices((m, m)).reshape(2, -1), np.full(m * m, m - 1)])
    flat = hilbert._flat_rows(parts, grid)
    assert np.array_equal(found, np.flatnonzero(system.members(flat)))
    # one block of sums (699 kB) and its comparison (349 kB), beside the
    # prefix sums and the rows of the last block (232 kB each), the mask of
    # the nu (44 kB) and the positions of its members: not two blocks at
    # once, nor the sums of the whole nu
    assert peak < 2 * cones.VALUES_BLOCK_BYTES


@pytest.mark.parametrize("kind, candidates", [("EqLR", 37128), ("LR", 56**3)])
def test_candidate_count(monkeypatch, kind, candidates):
    # containment prunes EqLR to the sum over nu of k(nu)^2 candidates; LR
    # has no containment forms, so each lambda^j ranges over all 56 box
    # partitions
    sizes = count_mask_rows(monkeypatch)
    hilbert._member_indices(5, 3, kind, 3)
    assert sum(sizes) == candidates


def test_basis_restricts_to_smaller_bound():
    # indecomposability does not depend on the box, so the B=4 basis
    # restricted to blocks inside the 5 x 3 box is the B=3 basis
    big = hilbert_basis_bounded(5, 3, "EqLR", 4).points
    small = hilbert_basis_bounded(5, 3, "EqLR", 3).points
    assert [p for p in big if max(map(max, p)) <= 3] == list(small)
    assert len(big) == 195 and len(small) == 194


def test_primitive_rays_are_indecomposable():
    assert all(is_indecomposable(p, "EqLR") for p in enumerate_rays(2, 3, "EqLR"))
    assert not is_indecomposable(parse_point("2,0;2,0;2,2"), "LR")


def test_non_extremal_basis_element_at_s5_r2():
    # at s = 4 and 5 the Hilbert basis holds non-extremal elements already at
    # r = 3 and r = 2 (at s = 3 they first appear at r = 6); one at (2,5)
    x = parse_point("0,0;1,1;1,1;1,1;2,1")
    assert member(x, "EqLR")
    assert decomposition_witness(x, "EqLR") is None
    assert not is_extremal(x, "EqLR")


# the digest is of the non-extremal elements in basis order, one
# `format_point` a line, as the search over flat candidate rows found them;
# it is left out of the test ids
@pytest.mark.parametrize(
    "r, s, rays, nonextremal, digest",
    [(3, 4, 125, 20, "2f8fa9e8d4cf3d81b5a995ad93f92f20b0a8e411682251e031b271c5c042af3f"),
     (2, 5, 102, 6, "dcd9e74cfbf367417606125f6fa90983db0310d87ca11ce97284fa081d07f472")],
    ids=["3-4-125-20", "2-5-102-6"])
def test_basis_beyond_s3_extends_the_rays(r, s, rays, nonextremal, digest):
    # at B = 4 every EqLR ray fits the box: the extremal basis elements are
    # exactly the rays, and the rest of the basis is not extremal
    basis = hilbert_basis_bounded(r, s, "EqLR", 4).points
    extremal = {p for p in basis if is_extremal(p, "EqLR")}
    assert extremal == set(enumerate_rays(r, s, "EqLR"))
    assert len(extremal) == rays and len(basis) - len(extremal) == nonextremal
    text = "\n".join(format_point(p) for p in basis if p not in extremal)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
