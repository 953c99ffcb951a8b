"""The blend profiles carry every smoothness obligation in the package,
so they get checked on their own: exact branches, monotonicity, and
finite-difference agreement of the shipped derivatives."""
import numpy as np
import pytest

from symcone.blends import (
    cutoff,
    cutoff_with_deriv,
    plateau_bump,
    plateau_bump_with_deriv,
    smoothed_relu,
    smoothed_relu_deriv,
    smoothstep,
)


def fd(fn, x, h=1e-6):
    return (fn(x + h) - fn(x - h)) / (2.0 * h)


def test_smoothstep_branches_and_monotone():
    assert smoothstep(-0.5) == 0.0 and smoothstep(0.0) == 0.0
    assert smoothstep(1.0) == 1.0 and smoothstep(3.0) == 1.0
    u = np.linspace(0, 1, 2001)
    s = smoothstep(u)
    assert np.all(np.diff(s) >= 0)
    assert np.all((s >= 0) & (s <= 1))


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


def test_smoothed_relu_envelope():
    d = np.linspace(-2, 2, 4001)
    w = 0.3
    v = smoothed_relu(d, w)
    relu = np.maximum(d, 0.0)
    assert np.all(v >= relu - 1e-15)
    assert np.all(v <= relu + 0.137 * w)
    # exact branches, bitwise
    assert np.array_equal(v[d >= w], d[d >= w])
    assert np.all(v[d <= -w] == 0.0)


def test_smoothed_relu_deriv_matches_fd():
    rng = np.random.default_rng(4)
    d = rng.uniform(-0.29, 0.29, 300)
    got = smoothed_relu_deriv(d, 0.3)
    want = fd(lambda x: smoothed_relu(x, 0.3), d)
    np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-7)


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
