"""Acceptance gate: one test per criterion, one verdict line each.

Run with `pytest tests/test_acceptance.py -s` to see the verdict lines as
they complete. This suite recomputes the headline results from scratch
(minus a shared in-process cache) and takes a few minutes.
"""

import random
from itertools import product

import pytest

from lrcone.cones import member, parse_point
from lrcone.partitions import partitions_in_box
from lrcone.hilbert import hilbert_basis_bounded, is_indecomposable, \
    lattice_points_bounded
from lrcone.oracle import LinealityError, dd_rays, sample_spectrum_sum
from lrcone.partitions import multi_coef
from lrcone.cones import all_horn_data, inequality_system, nonvanishing, shadow
from lrcone.rays import (
    diagonal_no_facet_check,
    enumerate_rays,
    facet_rays,
    is_extremal,
    pi,
    type1_data,
    type1_ray,
)
from lrcone.cones import HornDatum, flatten
from lrcone.rays import exact_rank

LR_COUNTS = {1: 2, 2: 5, 3: 10, 4: 20, 5: 44}
EQLR_COUNTS = {1: 3, 2: 10, 3: 27, 4: 72, 5: 195}


def verdict(n, ok=True):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'}")


def test_criterion_1_ray_counts():
    for r in range(1, 6):
        assert len(enumerate_rays(r, 3, "LR")) == LR_COUNTS[r], r
        assert len(enumerate_rays(r, 3, "EqLR")) == EQLR_COUNTS[r], r
    verdict(1)


TABLE_R1 = (["1;0;1", "0;1;1"], ["1;1;1"])
TABLE_R2 = (
    ["0,0;1,0;1,0", "0,0;1,1;1,1", "1,0;0,0;1,0", "1,1;0,0;1,1",
     "1,0;1,0;1,1"],
    ["1,0;1,0;1,0", "1,0;1,1;1,1", "1,1;1,0;1,1", "1,1;1,1;1,1",
     "1,1;1,1;2,1"])
TABLE_R3 = (
    ["0,0,0;1,0,0;1,0,0", "1,0,0;1,0,0;1,1,0", "1,1,0;1,0,0;1,1,1",
     "0,0,0;1,1,0;1,1,0", "1,0,0;1,1,0;1,1,1", "1,1,0;1,1,0;2,1,1",
     "0,0,0;1,1,1;1,1,1", "1,1,0;0,0,0;1,1,0", "1,1,1;0,0,0;1,1,1",
     "1,0,0;0,0,0;1,0,0"],
    ["1,0,0;1,0,0;1,0,0", "1,1,0;1,1,0;2,1,0", "1,1,1;1,1,1;1,1,1",
     "1,0,0;1,1,0;1,1,0", "1,1,0;1,1,1;1,1,1", "1,1,1;1,1,1;2,1,1",
     "1,0,0;1,1,1;1,1,1", "1,1,0;1,1,1;2,1,1", "1,1,1;1,1,1;2,2,1",
     "1,1,0;1,0,0;1,1,0", "1,1,1;1,0,0;1,1,1", "1,1,1;2,1,1;2,2,1",
     "1,1,0;1,1,0;1,1,0", "1,1,1;1,1,0;1,1,1", "2,1,1;1,1,1;2,2,1",
     "1,1,0;1,1,0;1,1,1", "1,1,1;1,1,0;2,1,1"])


def test_criterion_2_exact_ray_tables():
    for r, (on_lr, strict) in ((1, TABLE_R1), (2, TABLE_R2), (3, TABLE_R3)):
        expected = sorted(flatten(parse_point(t)) for t in on_lr + strict)
        rays = enumerate_rays(r, 3, "EqLR")
        assert [flatten(p) for p in rays] == expected, r
        # dashed-line split: trace slack zero <-> lies on the LR face
        got_on = {p for p in rays if member(p, "LR")}
        assert got_on == {parse_point(t) for t in on_lr}, r
        assert {p for p in rays} - got_on == {parse_point(t) for t in strict}, r
    verdict(2)


def test_criterion_3_worked_facet():
    h = HornDatum(3, 3, 1, ((2,), (2,)), (3,))
    dec = facet_rays(h, "EqLR")
    assert [(t, p) for t, p in dec.type1] == [
        ((1, 2), parse_point("1,1,0;1,0,0;1,1,1")),
        ((2, 2), parse_point("1,0,0;1,1,0;1,1,1")),
        ((3, 3), parse_point("1,0,0;1,0,0;1,1,0"))]
    assert set(dec.type2_extremal) == {parse_point(t) for t in (
        "0,0,0;1,0,0;1,0,0", "0,0,0;1,1,1;1,1,1", "1,0,0;0,0,0;1,0,0",
        "1,1,1;0,0,0;1,1,1", "1,0,0;1,0,0;1,0,0", "1,0,0;1,1,1;1,1,1",
        "1,1,1;1,0,0;1,1,1")}
    assert dec.type2_zero == 3
    assert set(dec.type2_nonextremal) == {
        parse_point("2,1,1;2,1,1;2,2,2"), parse_point("2,1,1;2,1,1;3,2,2")}
    verdict(3)


R6_EXTRAS = ("2,1,1,1,1,1;2,2,2,1,1,1;3,3,2,2,2,1",
             "2,2,1,1,1,1;2,2,1,1,1,1;3,2,2,2,2,1",
             "2,2,2,1,1,1;2,1,1,1,1,1;3,3,2,2,2,1")


def test_criterion_4_hilbert_basis():
    for r in range(1, 5):
        basis = hilbert_basis_bounded(r, 3, "EqLR", 3)
        assert len(basis.points) == EQLR_COUNTS[r], r
        assert set(basis.points) == set(enumerate_rays(r, 3, "EqLR"))
    # at r=5 one primitive ray point has a part equal to 4, so the full
    # basis needs B=4 (see test_criterion_4_r5_at_stated_bound)
    basis5 = hilbert_basis_bounded(5, 3, "EqLR", 4)
    assert len(basis5.points) == 195
    assert set(basis5.points) == set(enumerate_rays(5, 3, "EqLR"))
    # r=6 extras: found by the bounded search, indecomposable, on no ray
    basis6 = hilbert_basis_bounded(6, 3, "EqLR", 3)
    for text in R6_EXTRAS:
        x = parse_point(text)
        assert x in basis6.points
        assert member(x, "EqLR")
        assert is_indecomposable(x, "EqLR")
        assert not is_extremal(x, "EqLR")
    verdict(4)


def test_criterion_4_r6_cross_check():
    # every primitive point of an extremal ray is indecomposable, so each
    # ray whose parts are all <= 4 lies in the B=4 basis; the largest part
    # of any r=6 ray is 4, so the extremal basis elements are all the rays
    basis = hilbert_basis_bounded(6, 3, "EqLR", 4).points
    assert len(basis) == 535
    extremal = {x for x in basis if is_extremal(x, "EqLR")}
    assert len(extremal) == 532
    eqlr = enumerate_rays(6, 3, "EqLR")
    assert len(eqlr) == 532 and set(eqlr) == extremal
    assert set(basis) - extremal == {parse_point(t) for t in R6_EXTRAS}
    # LR is the face of EqLR where the trace form vanishes
    lr = enumerate_rays(6, 3, "LR")
    assert len(lr) == 114 and set(lr) == {x for x in extremal if member(x, "LR")}
    verdict(4)


@pytest.mark.xfail(
    strict=True,
    reason="the stated B=3 search at r=5 yields 194 of the 195 basis "
    "elements: the primitive point (2,2,1,1,1;2,2,1,1,1;4,2,2,2,1) of one "
    "extremal ray has a part equal to 4 and falls outside the 5x3 box; "
    "B=4 recovers all 195 (asserted in test_criterion_4_hilbert_basis)")
def test_criterion_4_r5_at_stated_bound():
    basis = hilbert_basis_bounded(5, 3, "EqLR", 3)
    assert len(basis.points) == 195


def test_criterion_5_dd_oracle():
    for r in (1, 2):
        for kind in ("CSL", "LR", "EqLR"):
            assert set(dd_rays(inequality_system(r, 3, kind))) == \
                set(enumerate_rays(r, 3, kind)), (r, kind)
    assert set(dd_rays(inequality_system(3, 3, "EqLR"))) == \
        set(enumerate_rays(3, 3, "EqLR"))
    with pytest.raises(LinealityError):
        dd_rays(inequality_system(2, 3, "EqC"))
    verdict(5)


def test_criterion_6_property_suites():
    # step-(4) rule agreement: type1_ray computes nu_r by two rules and
    # raises if they ever disagree
    for r in range(2, 6):
        for h in all_horn_data(r, 3):
            for t in type1_data(h):
                type1_ray(h, t)
    # orthogonality of type I rays against the swap data of their facet
    for r in range(2, 5):
        for h in all_horn_data(r, 3):
            data = type1_data(h)
            rays = {t: type1_ray(h, t) for t in data}
            for t1 in data:
                for t2 in data:
                    j, a = t2
                    x = rays[t1]
                    diff = (x[j - 1][a - 1] - x[j - 1][a] if j < h.s
                            else x[h.s - 1][a - 2] - x[h.s - 1][a - 1])
                    assert diff == (1 if t1 == t2 else 0)
            # kernel counts: pi kills exactly the type I directions
            vecs = [flatten(pi(rays[t], h)[0]) + flatten(pi(rays[t], h)[1])
                    for t in data]
            assert exact_rank(vecs) == len(data)
            dec = facet_rays(h, "EqLR")
            assert dec.type2_zero == len(data)
    # shadows of 500 random EqLR lattice points
    rng = random.Random(2024)
    pool = []
    for r in (2, 3, 4):
        pool += [(r, p) for p in lattice_points_bounded(r, 3, "EqLR", 3 if r < 4 else 2)]
    for r, x in rng.sample(pool, 500):
        j = rng.randrange(1, 3)
        y = shadow(x, j)
        assert member(y, "LR")
        assert sum(sum(b) for b in y[:-1]) == sum(y[-1])
        assert all(y[k] == x[k] for k in range(3) if k != j - 1)
        assert all(a <= b for a, b in zip(y[j - 1], x[j - 1]))
    # diagonal predicate
    for s in (3, 4):
        for r in range(1, 8):
            for l in range(1, r + 1):
                assert diagonal_no_facet_check(r, s, l) == (l >= r / (s - 1))
    # LR membership iff nonzero coefficient, 3x2 box
    parts = partitions_in_box(3, 2)
    for lam, mu, nu in product(parts, repeat=3):
        assert nonvanishing([lam, mu], nu, False) == (multi_coef((lam, mu), nu) != 0)
    verdict(6)


def test_criterion_7_numerical_oracle():
    spectra = [(3.0, 1.0, 0.0), (2.0, 1.0, 0.5)]
    for mode in ("equal", "majorized"):
        first = sample_spectrum_sum(spectra, mode, trials=1000, seed=42)
        assert len(first) == 1000
        worst = max(s.max_violation for s in first)
        assert worst <= 1e-9, (mode, worst)
        again = sample_spectrum_sum(spectra, mode, trials=1000, seed=42)
        assert [s.result for s in first] == [s.result for s in again]
    verdict(7)
