"""Cone descriptions, membership oracles, and the shadow search."""

import hashlib
import math
import random
from fractions import Fraction
from itertools import permutations, product

import numpy as np
import pytest

from lrcone import cones
from lrcone.partitions import multi_coef, partitions_in_box, subpartitions, trim
from lrcone.cones import (
    KINDS,
    HornDatum,
    all_horn_data,
    enumerate_horn,
    format_point,
    horn_slack,
    inequality_system,
    member,
    nonvanishing,
    parse_point,
    parse_subset,
    shadow,
    unflatten,
)
from lrcone.hilbert import is_indecomposable
from lrcone.rays import certify, exact_rank


def test_parse_and_format_roundtrip():
    text = "1,1,0;1,0,0;1,1,1"
    assert format_point(parse_point(text)) == text
    assert parse_subset("{2,4}") == (2, 4)


def test_enumerate_horn_r2():
    got = [(h.I, h.K) for h in enumerate_horn(2, 3, 1)]
    assert got == [(((1,), (1,)), (1,)),
                   (((1,), (2,)), (2,)),
                   (((2,), (1,)), (2,))]


def test_enumerate_horn_contains_worked_facet():
    assert any(h.I == ((2,), (2,)) and h.K == (3,)
               for h in enumerate_horn(3, 3, 1))


def test_enumerate_horn_range_errors():
    with pytest.raises(ValueError):
        enumerate_horn(1, 3, 1)
    with pytest.raises(ValueError):
        enumerate_horn(3, 3, 3)


def test_horn_work_refused_before_expanding(monkeypatch):
    # W(12, 3) = sum over d of C(12, d)^2, about 2.7 million subset tuples
    def expand(*args, **kwargs):
        raise AssertionError("Horn data were expanded")
    monkeypatch.setattr(cones, "multi_expand", expand)
    message = "r=12, s=3 exceeds the Horn work ceiling: more than 100000 subset tuples"
    with pytest.raises(ValueError, match=message):
        enumerate_horn(12, 3, 6)
    with pytest.raises(ValueError, match=message):
        member(((1,) * 12,) * 3, "EqLR")


@pytest.mark.parametrize("r", [20000, 99999])
def test_horn_work_stops_at_the_first_sum_over_the_ceiling(monkeypatch, r):
    # C(r, 1)^2 alone is over the ceiling, and the other terms are huge
    calls, comb_exact = [], cones.math.comb

    def comb(n, k):
        calls.append(k)
        return comb_exact(n, k)
    monkeypatch.setattr(cones.math, "comb", comb)
    with pytest.raises(ValueError, match="Horn work"):
        cones.check_horn_work(r, 3)
    assert calls == [1]


def test_horn_work_refuses_a_base_over_the_ceiling_unraised(monkeypatch):
    # C(99999, 49999) has about 30,000 digits: the check computes C(99999, 17)
    # instead, already over the ceiling, and raises no base to a power
    calls, comb_exact = [], cones.math.comb

    def comb(n, k):
        calls.append(k)
        return comb_exact(n, k)
    monkeypatch.setattr(cones.math, "comb", comb)
    with pytest.raises(ValueError, match="Horn work"):
        cones.check_horn_work(99999, 17, (49999,))
    assert calls == [17]


def test_horn_work_check_is_the_work_sum():
    for r in range(2, 14):
        for s in range(3, 7):
            work = sum(math.comb(r, d) ** (s - 1) for d in range(1, r))
            try:
                cones.check_horn_work(r, s)
                refused = False
            except ValueError:
                refused = True
            assert refused == (work > cones.HORN_WORK), (r, s)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("r, s", [(r, s) for r in range(1, 6) for s in (3, 4)])
def test_forms_are_zero_or_unit(r, s, kind):
    # the float64 pair table of the Gram matrices relies on it
    system = inequality_system(r, s, kind)
    assert set(np.unique(system.int_rows).tolist()) <= {-1, 0, 1}


def test_enumerate_horn_matches_brute_force():
    from itertools import combinations
    from lrcone.partitions import coef_of_subsets
    for r, d in ((2, 1), (3, 1), (3, 2)):
        subs = list(combinations(range(1, r + 1), d))
        brute = {(I1, I2, K) for I1, I2, K in product(subs, repeat=3)
                 if coef_of_subsets([I1, I2], K) == 1}
        got = {(h.I[0], h.I[1], h.K) for h in enumerate_horn(r, 3, d)}
        assert got == brute


def test_enumerate_horn_symmetric_in_inputs():
    for h in enumerate_horn(3, 3, 1):
        swapped = (h.I[1], h.I[0])
        assert any(g.I == swapped and g.K == h.K for g in enumerate_horn(3, 3, 1))


# sha256 of repr([(d, I, K), ...]) over all_horn_data(r, s), recorded from
# the expansion of every ordered tuple (I_1, ..., I_{s-1}) before it was
# replaced by one expansion per multiset
HORN_DIGESTS = {
    (7, 3): (2042, "1743235641a15167a123afb951c3cba1e49d9c82c022bd95a31bee14f9f295db"),
    (4, 4): (92, "788f78555cc1da8f605ec622f76870115618ecad6361c4cba64868cd00a36831"),
    (3, 5): (30, "782ddac6d742eced5aeaf44cdb225f49ead52e8c5c3e82cd29f190a92572fcc3"),
}


@pytest.mark.parametrize("r, s", sorted(HORN_DIGESTS))
def test_horn_data_are_pinned(r, s):
    data = all_horn_data(r, s)
    text = repr([(h.d, h.I, h.K) for h in data])
    assert (len(data), hashlib.sha256(text.encode()).hexdigest()) == HORN_DIGESTS[r, s]
    # the structure coefficient is symmetric in the I's
    keys = {(h.I, h.K) for h in data}
    for h in data:
        assert all((Is, h.K) in keys for Is in permutations(h.I)), h


def test_orderings_are_distinct_and_complete():
    for items in ((1, 1, 2, 3, 3), (1, 1, 1), (2,), ()):
        assert list(cones._orderings(items)) == sorted(set(permutations(items)))


def test_inequality_system_r1_eqlr():
    sys = inequality_system(1, 3, "EqLR")
    # lam1>=0, lam2>=0, nu>=0, trace, two containments; no Horn forms
    labels = sorted(f.label for f in sys.forms)
    assert labels == ["containment", "containment", "nonneg", "nonneg",
                      "nonneg", "trace"]
    assert not any(f.label == "horn" for f in sys.forms)


def test_trace_is_equality_for_lr():
    # an equality is the form and, right after it, its negative
    v = (1, 1, 1, 1, -1, -1)
    sys = inequality_system(2, 3, "LR")
    at = [i for i, f in enumerate(sys.forms) if f.label == "trace"]
    assert [sys.forms[i].coeffs for i in at] == [v, tuple(-c for c in v)]
    assert at[1] == at[0] + 1
    eq_sys = inequality_system(2, 3, "EqLR")
    assert [f.coeffs for f in eq_sys.forms if f.label == "trace"] == [v]


def test_worked_facet_form_present():
    sys = inequality_system(3, 3, "EqLR")
    target = None
    for f in sys.forms:
        if f.label == "horn" and f.datum.I == ((2,), (2,)) and f.datum.K == (3,):
            target = f
    # lam^1_2 + lam^2_2 - nu_3 >= 0
    assert target.coeffs == (0, 1, 0, 0, 1, 0, 0, 0, -1)


def test_member_examples():
    assert member(parse_point("1,0;1,0;1,1"), "LR")
    p = parse_point("1,1;1,1;2,1")
    assert member(p, "EqLR") and not member(p, "LR")
    assert member(parse_point("2,1,1;2,1,1;2,2,2"), "EqLR")


def test_member_rational_point():
    assert member(parse_point("1/2,0;1/2,0;1/2,1/2"), "LR")
    assert not member(parse_point("1/3,0;0,0;1/2,0"), "LR")
    # the EqLR trace form is -1/(2 * 3**40) at y; evaluated on y rounded to
    # float64 it reads 0
    y = parse_point(f"1/2,0;1/2,0;{3**40 // 2 + 1}/{3**40},1/2")
    assert not member(y, "EqLR") and not member(y, "LR")


def _member_by_definition(x, kind):
    """Membership of x in C, CSL or LR, written out from the definitions:
    weakly decreasing blocks, equal traces, every Horn inequality, and the
    last parts of lambda^1, ..., lambda^{s-1}: >= 0 in LR, 0 in CSL."""
    r, s = len(x[0]), len(x)
    if any(a < b for block in x for a, b in zip(block, block[1:])):
        return False
    if sum(sum(block) for block in x[:-1]) != sum(x[-1]):
        return False
    if any(horn_slack(x, h) < 0 for h in all_horn_data(r, s)):
        return False
    last = [block[-1] for block in x[:-1]]
    if kind == "LR":
        return all(v >= 0 for v in last)
    if kind == "CSL":
        return all(v == 0 for v in last)
    return True


def _definition_points():
    """r = 2: every block of entries -1..2, decreasing or not; r = 3: the
    decreasing blocks of entries -1..2; r = 2: the decreasing blocks of
    entries -1/2, 0, 1/3, 1/2, 1."""
    blocks2 = list(product(range(-1, 3), repeat=2))
    blocks3 = [b for b in product(range(-1, 3), repeat=3) if b[0] >= b[1] >= b[2]]
    fractions = [Fraction(k, 6) for k in (-3, 0, 2, 3, 6)]
    blocksq = [b for b in product(fractions, repeat=2) if b[0] >= b[1]]
    return [x for blocks in (blocks2, blocks3, blocksq)
            for x in product(blocks, repeat=3)]


@pytest.mark.parametrize("kind", ["C", "CSL", "LR"])
def test_member_matches_the_definitions(kind):
    points = _definition_points()
    verdicts = [member(x, kind) for x in points]
    assert verdicts == [_member_by_definition(x, kind) for x in points]
    assert any(verdicts) and not all(verdicts)
    # a member with nu_1 one unit up or down is off the trace
    for x in (x for x, inside in zip(points, verdicts) if inside):
        for d in (-1, 1):
            y = x[:-1] + ((x[-1][0] + d,) + x[-1][1:],)
            assert not member(y, kind) and not _member_by_definition(y, kind)


def _plain_values(sys, x):
    """Every form's value at x, by a plain Python sum over its nonzero
    coefficients."""
    flat = [v for b in x for v in b]
    return [sum(c * v for c, v in zip(f.coeffs, flat) if c) for f in sys.forms]


BIG = 2**70


@pytest.mark.parametrize("x", [
    ((BIG + 1, 0), (BIG, 0), (2 * BIG, 0)),
    ((BIG, BIG - 1), (3, 1), (BIG + 3, BIG - 1)),
    ((-BIG, 2**63), (2**64, -1), (BIG * BIG, 7)),
    ((Fraction(1, 3), 0), (Fraction(2, 3), Fraction(1, 3)), (1, Fraction(1, 3))),
    ((Fraction(BIG + 1, 3), 1), (Fraction(1, BIG), 0), (5, Fraction(-7, 2))),
    ((0.1, -0.7), (1e-17, 3.3), (2.5e16, 0.30000000000000004)),
], ids=["big-near-lr", "big", "big-signs", "fraction", "big-fraction", "float"])
def test_values_match_plain_python(x):
    for kind in KINDS:
        sys = inequality_system(2, 3, kind)
        vals = sys.values(x)
        assert list(vals) == _plain_values(sys, x)
        assert ({type(v) for v in vals} <= {float} if isinstance(x[0][0], float)
                else not any(isinstance(v, float) for v in vals))


# (r, s, M): points of rank (r, s) whose largest |entry| is M, so that the
# bound rs * M of the single-point product is the value in the comment
BOUND_CASES = {
    "2^53-1": (1, 6361, (2**53 - 1) // 6361),  # 2**53 - 1 = 6361 * 69431 * 20394401
    "2^53": (2, 4, 2**50),
    "2^53+1": (1, 3, (2**53 + 1) // 3),
    "2^62": (2, 4, 2**59),
    "6*2^62": (2, 3, 2**62),  # the sum of two entries is past int64
    "past-int64": (2, 3, 2**64 + 1),
}


def _bound_points(r, s, M):
    """lambda^1 = nu = (M,...,M) and the other blocks 0, the same with the
    last part of nu one lower, the negative of the first, every lambda^j
    (M,...,M) and nu (-M,...,-M), where the trace form is rs * M itself,
    and a seeded jumble of entries in [-M, M] with one entry -M."""
    zero = ((0,) * r,) * (s - 2)
    top = (M,) * r
    rng = random.Random(s * M)
    jumble = [rng.randint(-M, M) for _ in range(r * s)]
    jumble[-1] = -M
    return [(top,) + zero + (top,),
            (top,) + zero + (top[:-1] + (M - 1,),),
            ((-M,) * r,) + zero + ((-M,) * r,),
            (top,) * (s - 1) + ((-M,) * r,),
            unflatten(jumble, r)]


@pytest.mark.parametrize("case", sorted(BOUND_CASES))
def test_integer_values_at_the_float64_bound(case):
    r, s, M = BOUND_CASES[case]
    # the LR kinds at r = 1 hold a nonneg form for each of the s - 1 blocks
    kinds = ("C", "EqC") if s > 4 else KINDS
    for x in _bound_points(r, s, M):
        # numpy integers stay exact too, also where their sums pass int64
        ys = [x, tuple(tuple(map(np.int64, b)) for b in x)] if M < 2**63 else [x]
        for y, kind in product(ys, kinds):
            system = inequality_system(r, s, kind)
            vals = system.values(y)
            assert vals.dtype == (np.int64 if r * s * M < 2**53 else object)
            assert list(vals) == _plain_values(system, x)
            if kind in ("C", "CSL", "LR"):
                assert member(y, kind) == _member_by_definition(x, kind)
    assert member(_bound_points(r, s, M)[0], "C")


def test_exact_verdict_and_rank():
    # the trace form is 1 at x: a float64 evaluation rounds 2**70 + 1 to
    # 2**70, reads 0 and would put x in LR
    x = ((BIG + 1, 0), (BIG, 0), (2 * BIG, 0))
    sys = inequality_system(2, 3, "LR")
    floats = sys.coeffs.astype(np.float64) @ np.array(
        [v for b in x for v in b], dtype=np.float64)
    assert (floats >= 0).all()
    assert member(x, "EqLR") and not member(x, "LR")
    with pytest.raises(ValueError):
        certify(x, "LR")
    # the same forms are tight at x as at the small point of that pattern
    eqlr = inequality_system(2, 3, "EqLR")
    tight = [f.coeffs for f, v in zip(eqlr.forms, _plain_values(eqlr, x))
             if v == 0]
    ray = certify(x, "EqLR")
    assert ray.tight_rank == exact_rank(tight)
    assert ray.tight_rank == certify(((11, 0), (10, 0), (20, 0)), "EqLR").tight_rank
    assert ray.point == x and ray.primitive
    # a Fraction point certifies as its primitive integer multiple
    half = parse_point("1/2,0;1/2,0;1/2,1/2")
    ray = certify(half, "LR")
    assert not ray.primitive and ray.point == parse_point("1,0;1,0;1,1")
    assert ray.tight_rank == certify(ray.point, "LR").tight_rank
    # certify ranks the Gram matrix of the tight forms, not their rows
    lr = inequality_system(2, 3, "LR")
    tight = [f.coeffs for f, v in zip(lr.forms, _plain_values(lr, half)) if v == 0]
    assert ray.tight_rank == exact_rank(tight) == 5


def test_member_shape_error():
    with pytest.raises(ValueError):
        inequality_system(2, 3, "LR").values(((1,), (1,), (1,)))


def test_horn_slack():
    h = HornDatum(3, 3, 1, ((2,), (2,)), (3,))
    assert horn_slack(parse_point("0,0,0;0,0,0;0,0,0"), h) == 0
    assert horn_slack(parse_point("1,1,0;1,0,0;1,1,1"), h) == 0
    assert horn_slack(parse_point("1,1,1;1,1,1;1,1,1"), h) == 1


def test_nonvanishing():
    assert nonvanishing([(1,), (1,)], (2,), False)
    assert nonvanishing([(1, 0), (1, 0)], (1, 1), True)
    assert not nonvanishing([(1, 0), (0, 0)], (0, 0), True)


def test_lr_membership_iff_coefficient_nonzero():
    # all partition triples in a 3x2 box
    parts = partitions_in_box(3, 2)
    for lam, mu, nu in product(parts, repeat=3):
        expected = multi_coef((lam, mu), nu) != 0
        assert nonvanishing([lam, mu], nu, False) == expected, (lam, mu, nu)


def test_face_inclusions():
    pts = [tuple(p) for p in product(partitions_in_box(2, 2), repeat=3)]
    for x in pts:
        if member(x, "CSL"):
            assert member(x, "LR")
        if member(x, "LR"):
            assert member(x, "C") and member(x, "EqLR")
        if member(x, "EqLR"):
            assert member(x, "EqC")


def test_nu_r_nonnegativity_is_implied():
    # LR system without the chamber/nonneg forms on nu_r never admits an
    # integer partition-tuple point with nu_r < 0 (footnote check, r <= 3)
    for r in (2, 3):
        sys = inequality_system(r, 3, "LR")
        keep = np.array([f.coeffs[-1] == 0 or f.label in ("trace", "horn")
                         for f in sys.forms])
        for lam1 in partitions_in_box(r, 2):
            for lam2 in partitions_in_box(r, 2):
                for nu_hi in partitions_in_box(r - 1, 2 * r):
                    for nu_r in range(-2, 1):
                        if nu_hi and nu_hi[-1] < nu_r:
                            continue
                        nu = nu_hi + (nu_r,)
                        vals = sys.values((lam1, lam2, nu))
                        if (vals[keep] >= 0).all():
                            assert nu_r >= 0


def test_shadow_identity_on_lr():
    x = parse_point("1,0;1,0;1,1")
    assert shadow(x, 1) == x


def test_shadow_examples():
    assert shadow(parse_point("1,1;1,1;2,1"), 1) == parse_point("1,0;1,1;2,1")
    assert shadow(parse_point("1;1;1"), 2) == parse_point("1;0;1")


def test_shadow_properties():
    x = parse_point("2,1,1;2,1,1;2,2,2")
    for j in (1, 2):
        y = shadow(x, j)
        assert member(y, "LR")
        assert sum(sum(b) for b in y[:-1]) == sum(y[-1])
        for k in range(3):
            if k != j - 1:
                assert y[k] == x[k]


def test_shadow_domain_errors():
    with pytest.raises(ValueError):
        shadow(parse_point("1,0;0,0;0,0"), 1)  # not in EqLR
    with pytest.raises(ValueError):
        shadow(parse_point("1/2;0;1"), 1)  # not integral
    with pytest.raises(ValueError):
        shadow(parse_point("1;0;1"), 3)  # block index out of range


@pytest.mark.parametrize("kind", KINDS)
def test_members_is_is_member_on_a_box(kind):
    # every point of {-1, ..., 2}^6 at (r, s) = (2, 3): members and
    # nonmembers of every kind, with negative entries for C and EqC
    sys = inequality_system(2, 3, kind)
    rows = np.array(list(product(range(-1, 3), repeat=6)), dtype=np.int64)
    expected = [member(unflatten(row, 2), kind) for row in rows.tolist()]
    assert sys.members(rows).tolist() == expected
    assert any(expected) and not all(expected)


def test_members_is_exact_beyond_the_float64_bound():
    # the trace of (2**60, 1, 2**60) is 1: in float64, 2**60 + 1 rounds to
    # 2**60 and the trace would read 0
    sys = inequality_system(1, 3, "LR")
    rows = np.array([(2**60, 1, 2**60 + 1), (2**60, 1, 2**60),
                     (2**60, 0, 2**60), (-1, 2**60 + 1, 2**60)], dtype=np.int64)
    expected = [True, False, True, False]
    assert [member(unflatten(row, 1), "LR") for row in rows.tolist()] == expected
    assert sys.members(rows).tolist() == expected
    # and at (2, 3), near 2**62, on random offsets of members of EqLR
    eqlr = inequality_system(2, 3, "EqLR")
    rng = np.random.default_rng(0)
    base = np.array([(2, 1, 1, 1, 2, 2)], dtype=np.int64) * 2**60
    rows = base + rng.integers(-2, 3, size=(200, 6))
    expected = [member(unflatten(row, 2), "EqLR") for row in rows.tolist()]
    assert eqlr.members(rows).tolist() == expected
    assert any(expected) and not all(expected)


X_INT = ((2, 1, 0), (1, 1, 0), (2, 2, 1))


@pytest.mark.parametrize("x", [
    tuple(tuple(np.int64(v) for v in b) for b in X_INT),
    tuple(tuple(np.int32(v) for v in b) for b in X_INT),
    ((Fraction(2, 1), 1, 0),) + X_INT[1:],
])
def test_integer_entries_of_any_type(x):
    # shadow and is_indecomposable take the same integer points
    assert shadow(x, 1) == shadow(X_INT, 1)
    assert all(type(v) is int for b in shadow(x, 1) for v in b)
    assert is_indecomposable(x, "EqLR") == is_indecomposable(X_INT, "EqLR")


@pytest.mark.parametrize("value", [1.0, Fraction(1, 2)])
def test_non_integer_entries_refused_alike(value):
    x = ((2, value, 0),) + X_INT[1:]
    with pytest.raises(ValueError, match="shadow requires an integer point"):
        shadow(x, 1)
    with pytest.raises(ValueError, match="not a lattice point"):
        is_indecomposable(x, "EqLR")
