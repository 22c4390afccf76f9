"""Double-description oracle and the numerical spectrum sampler."""

import pytest

from lrcone import oracle
from lrcone.cones import inequality_system, parse_point
from lrcone.oracle import (
    LinealityError,
    dd_rays,
    sample_spectrum_sum,
    spectrum_violation,
)
from lrcone.rays import enumerate_rays

TOL = 1e-9


def test_dd_r1_eqlr():
    rays = dd_rays(inequality_system(1, 3, "EqLR"))
    assert set(rays) == {parse_point(t) for t in ("1;0;1", "0;1;1", "1;1;1")}


def test_dd_r2_lr():
    rays = dd_rays(inequality_system(2, 3, "LR"))
    assert len(rays) == 5


def test_dd_matches_recursive_enumeration():
    for r in (1, 2):
        for kind in ("CSL", "LR", "EqLR"):
            assert set(dd_rays(inequality_system(r, 3, kind))) == \
                set(enumerate_rays(r, 3, kind))
    assert set(dd_rays(inequality_system(3, 3, "EqLR"))) == \
        set(enumerate_rays(3, 3, "EqLR"))


@pytest.mark.parametrize("r, s", [(1, 4), (2, 4), (3, 4), (1, 5), (2, 5),
                                  (1, 6), (1, 7), (1, 8)])
@pytest.mark.parametrize("kind", ["CSL", "LR", "EqLR"])
def test_dd_matches_recursive_enumeration_s4_s5(r, s, kind):
    assert set(dd_rays(inequality_system(r, s, kind), ceiling=r * s)) == \
        set(enumerate_rays(r, s, kind))


def test_dd_lineality():
    # C and EqC contain lines (simultaneous trace shifts)
    with pytest.raises(LinealityError):
        dd_rays(inequality_system(1, 3, "C"))
    with pytest.raises(LinealityError):
        dd_rays(inequality_system(2, 3, "EqC"))


def test_dd_ceiling():
    with pytest.raises(ValueError):
        dd_rays(inequality_system(4, 3, "LR"), ceiling=9)


def test_spectrum_violation_exact_point():
    assert spectrum_violation([(1.0, 0.0), (1.0, 0.0)], (1.0, 1.0), "equal") == 0.0
    # the fully aligned sum is on the boundary, not outside
    assert spectrum_violation([(1.0, 0.0), (1.0, 0.0)], (2.0, 0.0), "equal") == 0.0
    # nu too concentrated at the top violates a Horn inequality
    assert spectrum_violation([(1.0, 0.0), (1.0, 0.0)], (2.5, -0.5), "equal") > 0


def test_sampler_equal_mode():
    samples = sample_spectrum_sum([(2.0, 1.0, 0.0), (1.0, 1.0, 0.0)],
                                  "equal", trials=40, seed=5)
    assert len(samples) == 40
    for smp in samples:
        assert smp.max_violation <= TOL
        assert abs(sum(smp.result) - 5.0) <= 1e-9


def test_sampler_majorized_mode():
    samples = sample_spectrum_sum([(2.0, 1.0, 0.0), (1.0, 1.0, 0.0)],
                                  "majorized", trials=40, seed=5)
    for smp in samples:
        assert smp.max_violation <= TOL
        assert sum(smp.result) <= 5.0 + 1e-9


def test_sampler_deterministic():
    a = sample_spectrum_sum([(1.0, 0.0), (1.0, 0.0)], "equal", 10, seed=123)
    b = sample_spectrum_sum([(1.0, 0.0), (1.0, 0.0)], "equal", 10, seed=123)
    assert [s.result for s in a] == [s.result for s in b]
    c = sample_spectrum_sum([(1.0, 0.0), (1.0, 0.0)], "equal", 10, seed=124)
    assert [s.result for s in a] != [s.result for s in c]


def test_sampler_input_validation():
    with pytest.raises(ValueError):
        sample_spectrum_sum([(0.0, 1.0)], "equal", 1, seed=0)
    with pytest.raises(ValueError):
        sample_spectrum_sum([(1.0, 0.0)], "sideways", 1, seed=0)
    with pytest.raises(ValueError):
        sample_spectrum_sum([(1.0, 0.0)], "equal", 0, seed=0)


def test_sampler_refuses_horn_work_first(monkeypatch):
    def unitary(*args):
        raise AssertionError("a trial began before the Horn work check")
    monkeypatch.setattr(oracle, "_random_unitary", unitary)
    with pytest.raises(ValueError, match="Horn work"):
        sample_spectrum_sum([(0.0,) * 20000] * 2, "equal", 1, 0)


@pytest.mark.parametrize("spectra", [[(1.0, 0.0)], [(0.0,) * 400], []])
def test_sampler_refuses_fewer_than_two_spectra_first(monkeypatch, spectra):
    # one spectrum makes s = 2, below the s >= 3 of every cone system
    def unitary(*args):
        raise AssertionError("a trial began before the spectra were counted")
    monkeypatch.setattr(oracle, "_random_unitary", unitary)
    with pytest.raises(ValueError, match=f"need at least two spectra, got {len(spectra)}"):
        sample_spectrum_sum(spectra, "equal", 1, 0)


def test_sampler_refuses_spectra_of_unequal_length():
    with pytest.raises(ValueError,
                       match=r"spectrum \(1\.0, 0\.0, 0\.0\) has length 3; expected 2"):
        sample_spectrum_sum([(1.0, 0.0), (1.0, 0.0, 0.0)], "equal", 1, seed=0)


@pytest.mark.parametrize("bad", [(float("nan"), 0.0), (float("inf"), 0.0),
                                 (1.0, float("-inf"))])
def test_sampler_refuses_non_finite_spectra(bad):
    with pytest.raises(ValueError, match=r"is not finite"):
        sample_spectrum_sum([bad, (1.0, 0.0)], "equal", 1, seed=0)
    with pytest.raises(ValueError, match=r"is not finite"):
        sample_spectrum_sum([(1.0, 0.0), bad], "majorized", 1, seed=0)
