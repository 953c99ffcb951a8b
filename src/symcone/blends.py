"""Polynomial blend profiles.

Every construction in the package that needs a smooth transition between
two exact closed-form branches goes through one of these profiles, so the
regularity of the whole artifact is decided in one place.  All profiles
are C^4: high enough that fourth-order integrators and five-point
finite-difference stencils see smooth data.
"""
import numpy as np


def _step_value(u, u4):
    """Degree-9 step polynomial at u in [0, 1], given u4 = u**4."""
    return u4 * u * (126.0 + u * (-420.0 + u * (540.0 + u * (-315.0 + u * 70.0))))


def _step_slope(u, u4):
    """Derivative of `_step_value`; exactly 0 at u = 0 and u = 1."""
    return u4 * (630.0 + u * (-2520.0 + u * (3780.0 + u * (-2520.0 + u * 630.0))))


def smoothstep(u):
    """C^4 monotone step: 0 for u <= 0, 1 for u >= 1 (degree-9 polynomial)."""
    u = np.clip(u, 0.0, 1.0)
    return _step_value(u, u * u * u * u)


# C^3 step and its antiderivative; the antiderivative is the C^4 profile
# used by smoothed_relu.
def _step7(u):
    return u ** 4 * (35.0 + u * (-84.0 + u * (70.0 - 20.0 * u)))


def _step7_integral(u):
    return u ** 5 * (7.0 + u * (-14.0 + u * (10.0 - 2.5 * u)))


def smoothed_relu(d, half_width):
    """C^4 overestimate of max(d, 0), exact outside [-half_width, half_width].

    Satisfies max(d, 0) <= value <= max(d, 0) + 0.137 * half_width, with the
    two branches returned verbatim outside the band (bitwise, not just to
    rounding).
    """
    d = np.asarray(d, dtype=float)
    u = np.clip((d + half_width) / (2.0 * half_width), 0.0, 1.0)
    mid = 2.0 * half_width * _step7_integral(u)
    return np.where(d >= half_width, d, np.where(d <= -half_width, 0.0, mid))


def smoothed_relu_deriv(d, half_width):
    d = np.asarray(d, dtype=float)
    u = np.clip((d + half_width) / (2.0 * half_width), 0.0, 1.0)
    return np.where(d >= half_width, 1.0, np.where(d <= -half_width, 0.0, _step7(u)))


def cutoff(r, r_lo, r_hi):
    """C^4 radial switch: exactly 0 for r <= r_lo, exactly 1 for r >= r_hi."""
    if not r_lo < r_hi:
        raise ValueError("cutoff needs r_lo < r_hi")
    return smoothstep((np.asarray(r, dtype=float) - r_lo) / (r_hi - r_lo))


def cutoff_with_deriv(r, r_lo, r_hi):
    """(cutoff, its derivative in r) from one clip and one fourth power;
    the value is bitwise the one `cutoff` returns."""
    if not r_lo < r_hi:
        raise ValueError("cutoff needs r_lo < r_hi")
    width = r_hi - r_lo
    u = np.clip((np.asarray(r, dtype=float) - r_lo) / width, 0.0, 1.0)
    u4 = u * u * u * u
    return _step_value(u, u4), _step_slope(u, u4) / width


def plateau_bump(t, t_flat, t_zero):
    """C^4 decreasing profile: 1 on [0, t_flat], 0 on [t_zero, inf)."""
    if not 0.0 <= t_flat < t_zero:
        raise ValueError("plateau_bump needs 0 <= t_flat < t_zero")
    return 1.0 - smoothstep((np.asarray(t, dtype=float) - t_flat) / (t_zero - t_flat))


def plateau_bump_with_deriv(t, t_flat, t_zero):
    """(plateau_bump, its derivative in t) from one clip and one fourth
    power; the value is bitwise the one `plateau_bump` returns.

    `t_flat` and `t_zero` may be column arrays of shape (profiles, 1): the
    result then holds every profile at every t, one row per profile, each
    bitwise equal to that profile's own call."""
    if not np.all((0.0 <= t_flat) & (t_flat < t_zero)):
        raise ValueError("plateau_bump needs 0 <= t_flat < t_zero")
    width = t_zero - t_flat
    u = np.clip((np.asarray(t, dtype=float) - t_flat) / width, 0.0, 1.0)
    u4 = u * u * u * u
    return 1.0 - _step_value(u, u4), -_step_slope(u, u4) / width
