"""Coordinates and the linear symplectic structure of R^{2n}.

Points are numpy arrays of length 2n ordered (x_1..x_n, y_1..y_n); all
operations also broadcast over leading batch axes.  The radial coordinate
`r` is the squared norm |x|^2 + |y|^2 (units of action), so the Liouville
flow z -> e^{t/2} z multiplies r by e^t.

Batches are rows, but the one RK loop (`contact._lockstep_rk`, which
`ContactIsotopy.flow_many` and the smoothed map both run) stacks one copy
of its batch per step count column-major on entry: a Fortran-ordered
(N, 2n) array, so that each coordinate is one contiguous N-vector and a
column access is a contiguous pass, not a stride-2n one.  The helpers that loop calls (`row_sum`,
`tangential`, `symplectic_gradient`, `angle_ratio_and_gradient`) work on
either layout and return results in the layout they are given; they add
columns one at a time in index order, so their values do not depend on
it, bit for bit.

The RK stage checks nothing.  `as_phase` checks rows where they enter
the package, `require_split` checks (n, k) where an object fixes it (an
`exprs.ExpressionHamiltonian` at construction), and the loop checks its
rows for finite numbers after every step; so `angle_ratio_and_gradient`,
which every stage runs, takes its rows and split as given.
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
    np.negative(grad[..., n:], out=out[..., :n])
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
    if a.shape[-1] == 1:
        return a[..., 0].copy()
    out = a[..., 0] + a[..., 1]
    for j in range(2, a.shape[-1]):
        out += a[..., j]
    return out


def tangential(X, th):
    """The part of each row of X orthogonal to the unit row of th: the
    projection onto the tangent space of the unit sphere at th."""
    return X - row_sum(X * th)[:, None] * th


def squared_split(z, k: int):
    """Batched (r, u, v): r = |z|^2, v the last k y's squared and
    u = r - v, which collects |x|^2 plus the first n-k y's squared."""
    z = as_phase(z)
    require_split(half_dim(z), k)
    return _squared_split(z, k)


def require_split(n: int, k: int):
    """Refuse an empty phase space (n < 1), then a split index k outside
    1..n."""
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    if not 1 <= k <= n:
        raise DomainError(f"k = {k} outside 1..{n}")


def _squared_split(z, k: int):
    """`squared_split` of a float batch whose entries and split are not
    checked."""
    sq = np.square(z)
    v = row_sum(sq[..., z.shape[-1] - k:])
    r = row_sum(sq)
    return r, r - v, v


def split_uv(z, k: int):
    """Batched (u, v) of `squared_split`."""
    _, u, v = squared_split(z, k)
    return u, v


def _ratio(u, v):
    pos = u > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(pos, v / np.where(pos, u, 1.0), np.inf)


def angle_ratio_of(z, k: int):
    return _ratio(*split_uv(z, k))


def angle_ratio_and_gradient(z, k: int):
    """(rho, ambient gradient of rho = v/u) at the rows of a batch z.

    The gradient is zeroed where u <= 1e-14 (rho is inf or nearly so);
    callers only use it through profile derivatives, which vanish there.
    This is the RK stage's split, so it checks neither z for finite
    entries (the loop checks its rows after every step) nor the split
    (its caller fixed (n, k) when it was built).
    """
    _, u, v = _squared_split(z, k)
    rho = _ratio(u, v)
    safe = u > 1e-14
    # d rho / d z = 2 z / u on the last k y's, -2 rho z / u on the rest
    grad = z * np.where(safe, 2.0 / np.where(safe, u, 1.0), 0.0)[:, None]
    grad[:, :z.shape[1] - k] *= -np.where(safe, rho, 0.0)[:, None]
    return rho, grad
