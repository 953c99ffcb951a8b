"""Coordinates and the linear symplectic structure of R^{2n}.

Points are numpy arrays of length 2n ordered (x_1..x_n, y_1..y_n); all
operations also broadcast over leading batch axes.  The radial coordinate
`r` is the squared norm |x|^2 + |y|^2 (units of action), so the Liouville
flow z -> e^{t/2} z multiplies r by e^t.
"""
import numpy as np

from .errors import DimensionMismatchError, DomainError


def as_phase(z, n=None):
    """Validate and return a phase-space point (or batch) as a float array."""
    z = np.asarray(z, dtype=float)
    if z.shape[-1] % 2 != 0 or z.shape[-1] == 0:
        raise DimensionMismatchError(f"phase vector length {z.shape[-1]} is not even")
    if n is not None and z.shape[-1] != 2 * n:
        raise DimensionMismatchError(f"expected length {2 * n}, got {z.shape[-1]}")
    if not np.all(np.isfinite(z)):
        raise DomainError("phase vector has non-finite entries")
    return z


def half_dim(z):
    return np.asarray(z).shape[-1] // 2


def liouville_field(z):
    """The radial scaling field: value z/2 at z."""
    return 0.5 * as_phase(z)


def symplectic_pairing(a, b):
    a = as_phase(a)
    b = as_phase(b, n=half_dim(a))
    n = half_dim(a)
    return np.sum(
        a[..., :n] * b[..., n:] - a[..., n:] * b[..., :n], axis=-1
    )


def symplectic_gradient(grad):
    """The Hamiltonian field of a function with ambient gradient `grad`:
    (xdot, ydot) = (-dH/dy, +dH/dx), the package's one sign convention."""
    n = half_dim(grad)
    out = np.empty_like(grad)
    out[..., :n] = -grad[..., n:]
    out[..., n:] = grad[..., :n]
    return out


def omega_matrix(n: int):
    eye = np.eye(n)
    return np.block([[np.zeros((n, n)), eye], [-eye, np.zeros((n, n))]])


def row_sum(a):
    """Sum over the last axis, adding one column at a time.

    On short rows this is several times faster than numpy's axis
    reduction, which also adds them in this order for up to six columns.
    """
    out = a[..., 0].copy()
    for j in range(1, a.shape[-1]):
        out += a[..., j]
    return out


def split_uv(z, k: int):
    """Batched (u, v): u collects |x|^2 plus the first n-k y's squared,
    v the last k y's squared."""
    z = as_phase(z)
    n = half_dim(z)
    if not 1 <= k <= n:
        raise DomainError(f"k = {k} outside 1..{n}")
    sq = np.square(z)
    v = row_sum(sq[..., 2 * n - k:])
    u = row_sum(sq) - v
    return u, v


def _ratio(u, v):
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(u > 0.0, v / np.where(u > 0.0, u, 1.0), np.inf)


def angle_ratio_of(z, k: int):
    return _ratio(*split_uv(z, k))


def angle_ratio_and_gradient(z, k: int):
    """(rho, ambient gradient of rho = v/u) at the rows of a batch z.

    The gradient is zeroed where u <= 1e-14 (rho is inf or nearly so);
    callers only use it through profile derivatives, which vanish there.
    """
    u, v = split_uv(z, k)
    rho = _ratio(u, v)
    safe = u > 1e-14
    # d rho / d z = 2 z / u on the last k y's, -2 rho z / u on the rest
    grad = z * np.where(safe, 2.0 / np.where(safe, u, 1.0), 0.0)[:, None]
    grad[:, :z.shape[1] - k] *= -np.where(safe, rho, 0.0)[:, None]
    return rho, grad
