import numpy as np
import pytest

from symcone import (
    DimensionMismatchError,
    DomainError,
    angle_ratio_of,
    as_phase,
    liouville_field,
    omega_matrix,
    split_uv,
    symplectic_pairing,
)
from symcone.geometry import row_sum


def test_radial_split_of_phase_points():
    # r = |z|^2 and theta = z / sqrt(r), as StarDomain splits its rows;
    # the angle ratio depends on the direction theta alone.
    rng = np.random.default_rng(0)
    for _ in range(50):
        z = as_phase(rng.standard_normal(6))
        r = row_sum(z * z)
        theta = z / np.sqrt(r)
        assert abs(np.linalg.norm(theta) - 1.0) < 1e-14
        assert abs(r - np.dot(z, z)) < 1e-12 * max(1.0, np.dot(z, z))
        np.testing.assert_allclose(np.sqrt(r) * theta, z, rtol=0, atol=1e-12)
        assert angle_ratio_of(theta, 2) == pytest.approx(angle_ratio_of(z, 2),
                                                         rel=1e-14)


def test_as_phase_rejects_malformed_points():
    with pytest.raises(DomainError):
        as_phase([0.0, np.nan, 1.0, 0.0])
    with pytest.raises(DimensionMismatchError):
        as_phase(np.zeros(3))
    with pytest.raises(DimensionMismatchError):
        as_phase(np.zeros(4), n=3)


def test_pairing_matches_matrix():
    """The batched pairing agrees with the explicit block matrix."""
    rng = np.random.default_rng(1)
    n = 3
    Om = omega_matrix(n)
    for _ in range(20):
        a, b = rng.standard_normal((2, 2 * n))
        assert abs(symplectic_pairing(a, b) - a @ Om @ b) < 1e-12


def test_pairing_antisymmetric_and_nondegenerate():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((100, 4))
    b = rng.standard_normal((100, 4))
    np.testing.assert_allclose(symplectic_pairing(a, b),
                               -symplectic_pairing(b, a), atol=1e-14)
    # pairing against the quarter-turn image recovers the squared norm
    rot = np.concatenate([-a[:, 2:], a[:, :2]], axis=1)
    np.testing.assert_allclose(symplectic_pairing(a, rot),
                               np.sum(a * a, axis=1), rtol=1e-13)


def test_liouville_field_is_half_position():
    z = np.arange(1.0, 9.0)
    np.testing.assert_array_equal(liouville_field(z), z / 2)


def test_split_uv():
    # (x1, x2, y1, y2) with k = 1: v collects y2 only
    z = np.array([1.0, 2.0, 3.0, 4.0])
    u, v = split_uv(z, 1)
    assert u == 1 + 4 + 9 and v == 16
    u2, v2 = split_uv(z, 2)
    assert u2 == 1 + 4 and v2 == 9 + 16
    assert angle_ratio_of(z, 1) == 16.0 / 14.0
    with pytest.raises(DomainError):
        split_uv(z, 3)


def test_angle_ratio_infinite_off_axis():
    z = np.array([0.0, 0.0, 0.0, 2.0])
    assert np.isinf(angle_ratio_of(z, 1))
