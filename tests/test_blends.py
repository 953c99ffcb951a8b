"""The blend profiles carry every smoothness obligation in the package,
so they get checked on their own: exact branches, monotonicity, and
finite-difference agreement of the shipped derivatives."""
import numpy as np
import pytest

from symcone import blends
from symcone.blends import (
    cutoff,
    cutoff_with_deriv,
    plateau_bump,
    plateau_bump_with_deriv,
    smoothstep,
)


def fd(fn, x, h=1e-6):
    return (fn(x + h) - fn(x - h)) / (2.0 * h)


def test_smoothstep_branches_and_monotone():
    assert smoothstep(-0.5) == 0.0 and smoothstep(0.0) == 0.0
    assert smoothstep(1.0) == 1.0 and smoothstep(3.0) == 1.0
    # rounded, the step is monotone and within [0, 1] only to about 1e-13:
    # on this grid it falls back by up to 1.16e-13 and exceeds 1 by up to
    # 7.7e-14
    u = np.linspace(0, 1, 1_000_001)
    s = smoothstep(u)
    assert np.diff(s).min() >= -2e-13
    assert s.min() >= 0.0 and s.max() <= 1.0 + 1e-13


def test_profiles_overshoot_their_range_by_less_than_1e_13():
    # near u = 1 the step rounds up to 1 + 9.1e-14, so a bump reads as low
    # as -9.1e-14; the floor slack of `exprs` (FLOOR_SLACK) relies on it
    u = np.concatenate([np.linspace(0.0, 1.0, 1_000_001),
                        np.random.default_rng(5).uniform(0.9, 1.0, 1_000_000)])
    s = smoothstep(u)
    assert s.min() >= 0.0 and s.max() <= 1.0 + 1e-13
    for a, b in [(0.0, 1.0), (1.0, 3.0), (1e-6, 1e7), (0.5, 2.0)]:
        p = plateau_bump(np.linspace(a, b, 500_001), a, b)
        assert p.min() >= -1e-13 and p.max() <= 1.0


def test_smoothstep_deriv_matches_fd():
    rng = np.random.default_rng(3)
    u = rng.uniform(0.02, 0.98, 200)
    # the cutoff on [0, 1] is the step itself
    np.testing.assert_allclose(cutoff_with_deriv(u, 0.0, 1.0)[1], fd(smoothstep, u),
                               rtol=1e-7, atol=1e-7)
    # zero derivative outside the ramp, including at the joints
    joints = cutoff_with_deriv(np.array([-1.0, 0.0, 1.0, 2.0]), 0.0, 1.0)[1]
    assert joints.tolist() == [0, 0, 0, 0]


def test_smoothstep_high_order_contact():
    """Four derivatives vanish at both ends: the profile is C^4 there."""
    h = 1e-2
    for edge in (0.0, 1.0):
        vals = smoothstep(edge + np.array([-2, -1, 0, 1, 2]) * h)
        for order in range(1, 5):
            stencil = {1: [-0.5, 0, 0.5], 2: [1, -2, 1],
                       3: [-0.5, 1, 0, -1, 0.5], 4: [1, -4, 6, -4, 1]}[order]
            if len(stencil) == 3:
                d = np.dot(stencil, vals[1:4]) / h ** order
            else:
                d = np.dot(stencil, vals) / h ** order
            # C^4 contact leaves only the h^(5-order) tail (one-sided
            # stencils see the degree-5 term with an O(10^3) constant)
            assert abs(d) < 5000.0 * h ** (5 - order)


def test_cutoff_and_bump_regions():
    r = np.array([0.0, 0.05, 0.2, 1.0, 3.0])
    c = cutoff(r, 0.05, 1.0)
    assert c[0] == 0.0 and c[1] == 0.0 and c[3] == 1.0 and c[4] == 1.0
    assert 0.0 < c[2] < 1.0
    b = plateau_bump(r, 0.05, 1.0)
    np.testing.assert_allclose(b, 1.0 - c, atol=1e-15)
    with pytest.raises(ValueError):
        cutoff(r, 1.0, 1.0)
    with pytest.raises(ValueError):
        plateau_bump(r, -0.1, 1.0)


def test_cutoff_deriv_matches_fd():
    rng = np.random.default_rng(5)
    r = rng.uniform(0.06, 0.99, 200)
    value, deriv = cutoff_with_deriv(r, 0.05, 1.0)
    np.testing.assert_array_equal(value, cutoff(r, 0.05, 1.0))
    np.testing.assert_allclose(deriv, fd(lambda x: cutoff(x, 0.05, 1.0), r),
                               rtol=1e-6, atol=1e-6)
    value, deriv = plateau_bump_with_deriv(r, 0.05, 1.0)
    np.testing.assert_array_equal(value, plateau_bump(r, 0.05, 1.0))
    np.testing.assert_allclose(deriv, fd(lambda x: plateau_bump(x, 0.05, 1.0), r),
                               rtol=1e-6, atol=1e-6)


def test_stacked_plateau_bumps_are_one_minus_the_cutoff():
    # the plateau profile is the cutoff's complement, bit for bit, also
    # with (profiles, 1) columns stacking several profiles in one pass
    t = np.random.default_rng(5).uniform(-1.0, 6.0, 100_000)
    t_flat = np.array([0.3, 1.0, 0.0])[:, None]
    t_zero = np.array([1.5, 3.0, 2.2])[:, None]
    value, slope = plateau_bump_with_deriv(t, t_flat, t_zero)
    c_value, c_slope = cutoff_with_deriv(t, t_flat, t_zero)
    assert value.shape == slope.shape == (3, t.size)
    np.testing.assert_array_equal(value, 1.0 - c_value)
    np.testing.assert_array_equal(slope, -c_slope)
    for i in range(3):
        np.testing.assert_array_equal(
            value[i], plateau_bump(t, t_flat[i, 0], t_zero[i, 0]))
        np.testing.assert_array_equal(
            value[i], 1.0 - cutoff(t, t_flat[i, 0], t_zero[i, 0]))
    with pytest.raises(ValueError):
        plateau_bump_with_deriv(t, np.array([[1.0], [-0.5]]), np.array([[2.0], [1.0]]))
    with pytest.raises(ValueError):
        cutoff_with_deriv(t, np.array([[1.0], [2.0]]), np.array([[2.0], [2.0]]))


def _bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


# (t_flat, t_zero) bands: one starting at 0, so that a -0.0 argument
# clips to -0.0, and two inside the positive axis
_BANDS = ((0.0, 1.0), (0.3, 1.5), (1.0, 3.0))


def _band_edges():
    """NaN, signed zeros, infinities, every band end with its two float
    neighbours, and a point inside each band."""
    ends = np.array([x for band in _BANDS for x in band])
    inner = np.array([0.5 * (lo + hi) for lo, hi in _BANDS])
    return np.concatenate([[np.nan, -0.0, 0.0, np.inf, -np.inf], ends,
                           np.nextafter(ends, -np.inf), np.nextafter(ends, np.inf),
                           inner])


def _clipped_profile(t, lo, hi):
    """The cutoff and its slope as `np.clip` forms them: the reference for
    the stage's in-place clip."""
    width = hi - lo
    u = np.clip((t - lo) / width, 0.0, 1.0)
    u4 = u * u * u * u
    return blends._step_value(u, u4), blends._step_slope(u, u4) / width


@pytest.mark.parametrize("columns", [False, True], ids=["scalar-bounds", "columns"])
def test_stage_profiles_are_bitwise_the_checked_forms(columns):
    """The unchecked profiles the RK stages call are bitwise the checked
    public forms and the `np.clip` formula, at NaN, signed zeros,
    infinities and both band ends with their neighbours, for scalar
    bounds and for (profiles, 1) columns."""
    t = _band_edges()
    if columns:
        lo, hi = (np.array(col)[:, None] for col in zip(*_BANDS))
        calls = [(lo, hi)]
    else:
        calls = _BANDS
    for lo, hi in calls:
        value, slope = blends._cutoff_profile(t, lo, hi)
        ref_value, ref_slope = _clipped_profile(t, lo, hi)
        checked = cutoff_with_deriv(t, lo, hi)
        for got, want in ((value, ref_value), (slope, ref_slope),
                          (value, checked[0]), (slope, checked[1])):
            np.testing.assert_array_equal(_bits(got), _bits(want))
        bump_value, bump_slope = blends._plateau_profile(t, lo, hi)
        checked = plateau_bump_with_deriv(t, lo, hi)
        for got, want in ((bump_value, 1.0 - ref_value), (bump_slope, -ref_slope),
                          (bump_value, checked[0]), (bump_slope, checked[1])):
            np.testing.assert_array_equal(_bits(got), _bits(want))
        bands = _BANDS if columns else [(lo, hi)]
        for v, bv, (a, b) in zip(np.atleast_2d(value), np.atleast_2d(bump_value), bands):
            np.testing.assert_array_equal(_bits(v), _bits(cutoff(t, a, b)))
            np.testing.assert_array_equal(_bits(bv), _bits(plateau_bump(t, a, b)))
    # the -0.0 argument clips to -0.0 on the band that starts at 0
    assert np.signbit(blends._cutoff_profile(np.array([-0.0]), 0.0, 1.0)[0][0])
