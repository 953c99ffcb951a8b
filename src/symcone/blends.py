"""Polynomial blend profiles.

Every construction in the package that needs a smooth transition between
two exact closed-form branches goes through one of these profiles, so the
regularity of the whole artifact is decided in one place.  All profiles
are C^4: high enough that fourth-order integrators and five-point
finite-difference stencils see smooth data.

The profiles with a derivative have two forms.  `_cutoff_profile` and
`_plateau_profile` are arithmetic only: they check no bounds, so the RK
stages call them on bounds their owners checked once at construction
(the chi band in `smoothing.smoothing_certificate`, each bump's ends at
`exprs` parse time).  `cutoff_with_deriv` and `plateau_bump_with_deriv`
are those bodies behind their bounds' check, which raises ValueError.
"""
import numpy as np


def _horner(u, coeffs):
    """c_0 + u * (c_1 + u * (... + u * c_last)) for coeffs = (c_last, ...,
    c_0), updated in one buffer: the same operations on the same operands
    as the nested expression, without a temporary per step."""
    p = u * coeffs[0] + coeffs[1]
    for c in coeffs[2:]:
        p *= u  # in place for an array; a 0-d u just rebinds p
        p += c
    return p


def _step_value(u, u4):
    """Degree-9 step polynomial at u in [0, 1], given u4 = u**4:
    u4 * u * (126 + u * (-420 + u * (540 + u * (-315 + u * 70))))."""
    p = _horner(u, (70.0, -315.0, 540.0, -420.0, 126.0))
    p *= u4 * u
    return p


def _step_slope(u, u4):
    """Derivative of `_step_value`; exactly 0 at u = 0 and u = 1:
    u4 * (630 + u * (-2520 + u * (3780 + u * (-2520 + u * 630))))."""
    p = _horner(u, (630.0, -2520.0, 3780.0, -2520.0, 630.0))
    p *= u4
    return p


def smoothstep(u):
    """C^4 monotone step: exactly 0 for u <= 0, exactly 1 for u >= 1
    (degree-9 polynomial).  Between them the rounded values lie in
    [0, 1 + 9.2e-14]: near u = 1 the Horner form rounds up to 1 + 9.13e-14
    (the largest over 2e7 grid points of [0, 1]), and between neighbouring
    points of a 10^6-point grid they fall back by up to 1.2e-13.  They are
    not clamped to 1, which would change their bits."""
    u = np.clip(u, 0.0, 1.0)
    return _step_value(u, u * u * u * u)


# C^3 step and its antiderivative; the antiderivative is the C^4 profile
# of the double well's blend band (`domains.SmoothedWell`).
def _step7(u):
    return u ** 4 * (35.0 + u * (-84.0 + u * (70.0 - 20.0 * u)))


def _step7_integral(u):
    return u ** 5 * (7.0 + u * (-14.0 + u * (10.0 - 2.5 * u)))


def cutoff(r, r_lo, r_hi):
    """C^4 radial switch: exactly 0 for r <= r_lo, exactly 1 for r >= r_hi."""
    if not r_lo < r_hi:
        raise ValueError("cutoff needs r_lo < r_hi")
    return smoothstep((np.asarray(r, dtype=float) - r_lo) / (r_hi - r_lo))


def _cutoff_profile(r, r_lo, r_hi):
    """(cutoff, its derivative in r) at a float array r, bounds unchecked:
    one clip and one fourth power, formed in place.  The value is bitwise
    the one `cutoff` returns: the clip is `np.clip`'s, NaN and signed
    zeros included.  (profiles, 1) columns of `r_lo`, `r_hi` give one row
    per profile, each bitwise its own call."""
    width = r_hi - r_lo
    u = r - r_lo
    u /= width
    np.maximum(0.0, u, out=u)
    np.minimum(1.0, u, out=u)
    u4 = u * u
    u4 *= u
    u4 *= u
    slope = _step_slope(u, u4)
    slope /= width
    return _step_value(u, u4), slope


def cutoff_with_deriv(r, r_lo, r_hi):
    """`_cutoff_profile` at r as a float array of at least one dimension,
    once r_lo < r_hi holds everywhere; else ValueError."""
    if not np.all(r_lo < r_hi):
        raise ValueError("cutoff needs r_lo < r_hi")
    return _cutoff_profile(np.array(r, dtype=float, ndmin=1), r_lo, r_hi)


def plateau_bump(t, t_flat, t_zero):
    """C^4 decreasing profile: exactly 1 on [0, t_flat], exactly 0 on
    [t_zero, inf), and one minus `smoothstep` between, so its values lie
    in [-9.2e-14, 1]."""
    if not 0.0 <= t_flat < t_zero:
        raise ValueError("plateau_bump needs 0 <= t_flat < t_zero")
    return 1.0 - cutoff(t, t_flat, t_zero)


def _plateau_profile(t, t_flat, t_zero):
    """(plateau_bump, its derivative in t), bounds unchecked: one minus
    `_cutoff_profile` and its negated slope, both formed in place,
    (profiles, 1) columns included."""
    value, slope = _cutoff_profile(t, t_flat, t_zero)
    np.subtract(1.0, value, out=value)
    np.negative(slope, out=slope)
    return value, slope


def plateau_bump_with_deriv(t, t_flat, t_zero):
    """`_plateau_profile` at t as a float array of at least one dimension,
    once 0 <= t_flat < t_zero holds everywhere; else ValueError."""
    if not np.all((0.0 <= t_flat) & (t_flat < t_zero)):
        raise ValueError("plateau_bump needs 0 <= t_flat < t_zero")
    return _plateau_profile(np.array(t, dtype=float, ndmin=1), t_flat, t_zero)
