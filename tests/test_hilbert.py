"""Bounded Hilbert-basis search and indecomposability."""

import numpy as np
import pytest

from lrcone import hilbert
from lrcone.cones import member, parse_point, point_add
from lrcone.hilbert import (
    decomposition_witness,
    first_lattice_points,
    hilbert_basis_bounded,
    is_indecomposable,
    lattice_points_bounded,
)
from lrcone.rays import enumerate_rays


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


def test_codes_must_fit_in_int64():
    # (B+1)**(r*s) must stay below 2**63: at r*s = 63 and B = 1 it is 2**63
    assert hilbert._code_base(31, 2, 1) == 2
    with pytest.raises(ValueError, match="int64"):
        hilbert._code_base(21, 3, 1)
    with pytest.raises(ValueError, match="int64"):
        hilbert_basis_bounded(21, 3, "EqLR", 1)


def test_basis_to_json():
    basis = hilbert_basis_bounded(1, 3, "LR", 2)
    js = basis.to_json()
    assert js["count"] == len(basis.points)
    assert js["bound"] == 2


def test_resource_guard(monkeypatch):
    # (6,3,B=4) would allocate about 44 GB; the byte guard refuses it
    # before the box of candidate points is built or tested
    def build_box(*args, **kwargs):
        raise AssertionError("the box was built")
    monkeypatch.setattr(np, "indices", build_box)
    monkeypatch.setattr(hilbert, "_member_mask", build_box)
    with pytest.raises(ValueError, match="budget"):
        hilbert_basis_bounded(6, 3, "EqLR", 4)
    with pytest.raises(ValueError):
        hilbert_basis_bounded(2, 3, "EqLR", 0)


def test_first_lattice_points():
    rays = enumerate_rays(2, 3, "EqLR")
    assert first_lattice_points(rays, "EqLR") == list(rays)
    with pytest.raises(AssertionError):
        first_lattice_points([parse_point("2,0;2,0;2,2")], "LR")
