"""Hamiltonian kinematics on the unit sphere of R^{2n}.

Functions on the sphere generate flows through their 1-homogeneous
extensions: a function K on S^{2n-1} extends to Hext(z) = r K(theta) with
r = |z|^2, and the tangential part of the ambient Hamiltonian field of
Hext is the sphere field Y_K.  This realizes the correspondence between
sphere kinematics and homogeneous ambient kinematics exactly for the
round form alpha(v) = omega(theta, v) / 2, with no frame choices.

Sign convention used throughout (`geometry.symplectic_gradient`): the
ambient field of H is (xdot, ydot) = (-dH/dy, +dH/dx), so the squared-norm
function |z|^2 generates the counterclockwise rotation (-2y, 2x) of
period pi.
"""
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import AuditError, DomainError, IntegrationError
from .geometry import (as_phase, half_dim, angle_ratio_of, row_sum,
                       symplectic_gradient)
from . import sampling

FD_STEP = 1e-5


def _batched(theta):
    theta = np.asarray(theta, dtype=float)
    single = theta.ndim == 1
    return (theta[None, :] if single else theta), single


def reeb_field(theta, tol=1e-10):
    """Rotation field (-2y, 2x); unit pairing against the contact form."""
    th, single = _batched(theta)
    nrm = np.sqrt(row_sum(th * th))
    if np.any(np.abs(nrm - 1.0) > tol):
        raise DomainError("reeb_field requires unit vectors")
    out = symplectic_gradient(2.0 * th)  # the field of |z|^2
    return out[0] if single else out


@dataclass(frozen=True)
class SupportMeta:
    """Certified envelope data for a sphere Hamiltonian.

    M bounds the function from above everywhere; the function vanishes
    wherever the angle ratio exceeds rho1; m is a positive lower bound on
    the region {angle ratio <= rho0}.
    """

    M: float
    m: float
    rho0: float
    rho1: float

    def scaled(self, s: float):
        return SupportMeta(M=self.M * s, m=self.m * s, rho0=self.rho0, rho1=self.rho1)


class ContactHamiltonian:
    """A function on S^{2n-1}, vanishing past angle-ratio rho1 of the
    k-indexed coordinate split, with certified support metadata.

    `eval_fn` maps a batch of rows to values; the optional `grad_fn` maps
    it to the pair (values, ambient gradients) in one call.
    """

    def __init__(self, eval_fn: Callable, k: int, n: int, meta: SupportMeta,
                 grad_fn: Optional[Callable] = None):
        self.eval_fn = eval_fn
        self.k = int(k)
        self.n = int(n)
        self.meta = meta
        self.grad_fn = grad_fn

    def __call__(self, theta):
        th, single = _batched(theta)
        vals = np.asarray(self.eval_fn(th), dtype=float)
        return float(vals[0]) if single else vals

    def value_and_grad(self, theta):
        """(K, gradient of the ambient 0-homogeneous-in-direction extension,
        i.e. of K as a function of the unnormalized argument) at theta:
        one `grad_fn` call when there is one, else `eval_fn` values and
        central differences."""
        th, single = _batched(theta)
        if self.grad_fn is not None:
            vals, g = self.grad_fn(th)
            vals, g = np.asarray(vals, dtype=float), np.asarray(g, dtype=float)
        else:
            vals = np.asarray(self.eval_fn(th), dtype=float)
            g = np.empty_like(th)
            for i in range(th.shape[-1]):
                e = np.zeros(th.shape[-1])
                e[i] = FD_STEP
                hi = np.asarray(self.eval_fn(_renorm(th + e)), dtype=float)
                lo = np.asarray(self.eval_fn(_renorm(th - e)), dtype=float)
                g[:, i] = (hi - lo) / (2.0 * FD_STEP)
        return (float(vals[0]), g[0]) if single else (vals, g)

    def scaled(self, s: float):
        if s <= 0:
            raise DomainError("scale must be positive")
        ev = self.eval_fn
        gr = self.grad_fn

        def scaled_pair(th):
            vals, g = gr(th)
            return s * np.asarray(vals, dtype=float), s * np.asarray(g, dtype=float)

        return ContactHamiltonian(
            eval_fn=lambda th: s * np.asarray(ev(th), dtype=float),
            k=self.k, n=self.n, meta=self.meta.scaled(s),
            grad_fn=None if gr is None else scaled_pair,
        )

    def audit(self, samples: int = 10_000, seed: int = 0, zero_tol: float = 1e-12):
        """Sampled contract check of the metadata; raises AuditError."""
        thetas = sampling.sphere_points(self.n, samples, seed)
        vals = self(thetas)
        if np.any(vals < -zero_tol):
            raise AuditError(f"negative value {vals.min():.3e} found")
        if np.max(vals) > self.meta.M + 1e-6:
            raise AuditError(f"sampled sup {np.max(vals):.6g} exceeds M={self.meta.M}")
        rho = angle_ratio_of(thetas, self.k)
        outside = rho >= self.meta.rho1
        if np.any(np.abs(vals[outside]) > zero_tol):
            raise AuditError("support leaks past rho1")
        if not self.meta.m > 0:
            raise AuditError("m must be positive")
        inner = sampling.sphere_points_with_angle_ratio(
            self.n, self.k, samples // 4, seed + 1, rho_max=self.meta.rho0)
        inner_vals = self(inner)
        if np.min(inner_vals) < self.meta.m - 1e-12:
            raise AuditError(
                f"m={self.meta.m} is not a lower bound on the inner region "
                f"(sampled min {np.min(inner_vals):.6g})")
        return True


def _renorm(th):
    return th / np.sqrt(row_sum(th * th))[..., None]


def _homogeneous_field(Kv, g, th):
    """Field of r*K at unit rows th, from K's values and ambient gradients."""
    return symplectic_gradient(2.0 * Kv[:, None] * th + _tangential(g, th))


def _tangential(X, th):
    return X - row_sum(X * th)[:, None] * th


def _field_and_rate(K: ContactHamiltonian, th):
    """(Y_K, dK(R)) at a batch of unit rows from one value_and_grad call."""
    Kv, g = K.value_and_grad(th)
    Y = _tangential(_homogeneous_field(Kv, g, th), th)
    return Y, row_sum(g * reeb_field(th))


def contact_vector_field(K: ContactHamiltonian, theta):
    """Sphere field Y_K: tangential projection of the homogeneous field."""
    th, single = _batched(theta)
    Y = _tangential(_homogeneous_field(*K.value_and_grad(th), th), th)
    return Y[0] if single else Y


def reeb_derivative(K: ContactHamiltonian, theta):
    """dK evaluated on the rotation field (a tangent direction)."""
    th, single = _batched(theta)
    _, g = K.value_and_grad(th)
    val = row_sum(g * reeb_field(th))
    return float(val[0]) if single else val


class ContactIsotopy:
    """A path of sphere Hamiltonians on [0, 1] and its flow.

    `generator` is either a single ContactHamiltonian (autonomous case) or
    a callable t -> ContactHamiltonian.  The flow integrates the sphere
    field with a fixed-step fourth-order scheme, renormalizing to the
    sphere each step, and carries log of the conformal factor along every
    trajectory as one extra scalar.
    """

    def __init__(self, generator, step: float = 1e-3):
        if isinstance(generator, ContactHamiltonian):
            const = generator
            self.hamiltonian_at = lambda t: const
            self.k, self.n = const.k, const.n
        else:
            self.hamiltonian_at = generator
            probe = generator(0.0)
            self.k, self.n = probe.k, probe.n
        if not step > 0:
            raise IntegrationError("step underflow", {"step": step})
        self.step = step

    def _rhs(self, t, thetas):
        return _field_and_rate(self.hamiltonian_at(t), thetas)

    def flow_many(self, thetas, t_from: float = 0.0, t_to: float = 1.0):
        """Integrate a batch from t_from to t_to (either direction).

        Returns (endpoints, log_conformal) where log_conformal is the
        accumulated log-derivative integral along each trajectory.
        """
        th = _renorm(np.atleast_2d(np.asarray(thetas, dtype=float)))
        span = t_to - t_from
        n_steps = max(1, int(round(abs(span) / self.step)))
        h = span / n_steps
        logc = np.zeros(th.shape[0])
        for i in range(n_steps):
            t = t_from + i * h
            f1, c1 = self._rhs(t, th)
            f2, c2 = self._rhs(t + 0.5 * h, _renorm(th + 0.5 * h * f1))
            f3, c3 = self._rhs(t + 0.5 * h, _renorm(th + 0.5 * h * f2))
            f4, c4 = self._rhs(t + h, _renorm(th + h * f3))
            th = _renorm(th + (h / 6.0) * (f1 + 2.0 * f2 + 2.0 * f3 + f4))
            logc += (h / 6.0) * (c1 + 2.0 * c2 + 2.0 * c3 + c4)
            if not np.all(np.isfinite(th)):
                raise IntegrationError("flow diverged", {"step_index": i})
        return th, logc

    def inverse_images(self, thetas, t: float = 1.0):
        """psi_t^{-1}(theta) together with c_{psi_t} evaluated there.

        One backward pass: running the ODE from t down to 0 lands on the
        preimage, and the log-derivative integral accumulated along that
        same path (sign restored) is log c at the preimage.
        """
        th = np.atleast_2d(np.asarray(thetas, dtype=float))
        pre, logc_back = self.flow_many(th, t, 0.0)
        return pre, np.exp(-logc_back)


def concatenate_isotopies(second: ContactIsotopy, first: ContactIsotopy):
    """Isotopy whose time-1 map is (time-1 of second) o (time-1 of first)."""
    if (second.k, second.n) != (first.k, first.n):
        raise DomainError("isotopies act on different splits")

    def gen(t):
        if t < 0.5:
            return first.hamiltonian_at(2.0 * t).scaled(2.0)
        return second.hamiltonian_at(2.0 * t - 1.0).scaled(2.0)

    return ContactIsotopy(gen, step=min(second.step, first.step) / 2.0)


def identity_isotopy(n: int, k: int, step: float = 1e-3):
    meta = SupportMeta(M=0.0, m=1.0, rho0=0.1, rho1=1.0)
    zero = ContactHamiltonian(lambda th: np.zeros(th.shape[0]), k=k, n=n, meta=meta,
                              grad_fn=lambda th: (np.zeros(th.shape[0]), np.zeros_like(th)))
    return ContactIsotopy(zero, step=step)


def adjoint_action(iso: ContactIsotopy, K: ContactHamiltonian,
                   meta_samples: int = 2000, seed: int = 0) -> ContactHamiltonian:
    """Pull K back through the time-1 map with its conformal weight.

    The value at theta is c(pre) * K(pre) with pre the time-1 preimage of
    theta; metadata is re-estimated by sampling and inflated, to be
    re-audited by the caller when it matters.
    """
    if (iso.k, iso.n) != (K.k, K.n):
        raise DomainError("isotopy and Hamiltonian act on different splits")

    def ev(th):
        pre, c = iso.inverse_images(th)
        return c * np.asarray(K.eval_fn(pre), dtype=float)

    probe = sampling.sphere_points(K.n, meta_samples, seed)
    vals = ev(probe)
    rho = angle_ratio_of(probe, K.k)
    support_rho = rho[np.abs(vals) > 1e-12]
    rho1_new = K.meta.rho1 if support_rho.size == 0 else max(
        K.meta.rho1, 1.1 * float(np.max(support_rho)) + 0.1)
    inner = sampling.sphere_points_with_angle_ratio(
        K.n, K.k, meta_samples // 2, seed + 3, rho_max=K.meta.rho0)
    m_new = 0.75 * float(np.min(ev(inner)))
    M_new = 1.05 * float(np.max(vals)) + 1e-9
    meta = SupportMeta(M=M_new, m=m_new, rho0=K.meta.rho0, rho1=rho1_new)
    return ContactHamiltonian(ev, k=K.k, n=K.n, meta=meta)


def lie_bracket(H: ContactHamiltonian, K: ContactHamiltonian, theta):
    """Bracket value dK(Y_H) - K dH(R) at theta."""
    th, single = _batched(theta)
    Kv, gK = K.value_and_grad(th)
    YH, dH_R = _field_and_rate(H, th)
    val = row_sum(gK * YH) - Kv * dH_R
    return float(val[0]) if single else val


def model_field_contracting(k: int, z):
    """Linear field -x_j d/dx_j + y_j d/dy_j over the last k index pairs;
    generated by the sum of the last k products x_j y_j."""
    z = as_phase(z)
    n = half_dim(z)
    if not 1 <= k <= n:
        raise DomainError(f"k = {k} outside 1..{n}")
    out = np.zeros_like(z)
    out[..., n - k:n] = -z[..., n - k:n]
    out[..., 2 * n - k:] = z[..., 2 * n - k:]
    return out


def model_field_expanding(k: int, z):
    """Linear field x_j d/dx_j - y_j d/dy_j over the first 2n-k index pairs."""
    z = as_phase(z)
    n = half_dim(z)
    if not n <= k <= 2 * n - 1:
        raise DomainError(f"k = {k} outside {n}..{2 * n - 1}")
    j = 2 * n - k
    out = np.zeros_like(z)
    out[..., :j] = z[..., :j]
    out[..., n:n + j] = -z[..., n:n + j]
    return out
