"""Lifting sphere isotopies to R^{2n} and taming them near the origin.

A sphere map phi with conformal factor c lifts to the homogeneous map
(r, theta) -> (r / c(theta), phi(theta)), which is singular at 0.  The
smoothed version flows the ambient Hamiltonian chi(r) * r * K_t(theta)
instead: the radial switch chi vanishes on a small ball (so the flow is
exactly the identity there) and equals 1 far enough out that trajectories
of the homogeneous flow never see the transition band — agreement outside
a certified multiple of the ball is then a consequence of ODE uniqueness,
not of any error estimate.
"""
from dataclasses import dataclass

import numpy as np

from .blends import cutoff_with_deriv, plateau_bump
from .contact import ContactIsotopy
from .errors import AuditError, DomainError, IntegrationError
from .geometry import omega_matrix, row_sum, symplectic_gradient
from . import sampling

# the finite-difference step of the symplecticity check: the stencil rows
# and the Jacobians built from their images must use the same one
FD_STEP = 3e-4


def symplectize_many(iso: ContactIsotopy, rs, thetas):
    """Homogeneous lift applied to a batch of polar pairs."""
    ends, logc = iso.flow_many(np.atleast_2d(thetas), 0.0, 1.0)
    return np.asarray(rs, dtype=float) / np.exp(logc), ends


def symplectize_ambient(iso: ContactIsotopy, zs):
    """Same lift in cartesian coordinates (rows of nonzero points)."""
    zs = np.atleast_2d(np.asarray(zs, dtype=float))
    r = row_sum(zs * zs)
    if np.any(r == 0.0):
        raise DomainError("origin excluded from the homogeneous lift")
    th = zs / np.sqrt(r)[:, None]
    r_new, th_new = symplectize_many(iso, r, th)
    return np.sqrt(r_new)[:, None] * th_new


@dataclass(frozen=True)
class SmoothingCertificate:
    """(M, m) bound the conformal factor over the whole isotopy;
    outside squared radius K_factor * eps the smoothed map provably equals
    the homogeneous lift, and inside eps it is the identity."""

    M: float
    m: float
    K_factor: float
    eps: float
    chi_zero_below: float
    chi_one_above: float


def _conformal_envelope(iso: ContactIsotopy):
    """Sampled (min, max) of the conformal factor along the isotopy: 512
    seeded sphere probes, read at the ends of 50 equal time chunks."""
    th = sampling.sphere_points(iso.n, 512, 7)
    logc = np.zeros(512)
    lo, hi = 0.0, 0.0
    for i in range(50):
        t0, t1 = i / 50, (i + 1) / 50
        th, dlc = iso.flow_many(th, t0, t1)
        logc = logc + dlc
        lo = min(lo, float(np.min(logc)))
        hi = max(hi, float(np.max(logc)))
    return np.exp(lo), np.exp(hi)


def _rate_envelope(iso: ContactIsotopy):
    """Bound (min, max) of the conformal factor from the generator's rate.

    log c is the time integral of dK_t(R), so a sup bound on that rate over
    the sphere bounds the factor itself uniformly over all trajectories —
    no dependence on which trajectories happen to get sampled.  The sup is
    taken on a seeded 4096-point sphere grid at 9 equally spaced times and
    inflated by 25% to cover between-node variation.
    """
    from .contact import reeb_derivative

    th = sampling.sphere_points(iso.n, 4096, 7)
    lo, hi = 0.0, 0.0
    for t in np.linspace(0.0, 1.0, 9):
        rate = reeb_derivative(iso.hamiltonian_at(t), th)
        lo = min(lo, float(np.min(rate)))
        hi = max(hi, float(np.max(rate)))
    return np.exp(1.25 * lo), np.exp(1.25 * hi)


class SmoothedSymplectization:
    """Time-1 map of the cutoff Hamiltonian flow, with its certificate."""

    def __init__(self, iso: ContactIsotopy, eps: float, step: float = 1e-3):
        if not eps > 0:
            raise DomainError("eps must be positive")
        m, M = _rate_envelope(iso)
        # sampled trajectories must sit inside the rate-derived envelope;
        # if they do not, the grid missed structure and the certificate
        # would be built on sand
        m_samp, M_samp = _conformal_envelope(iso)
        if M_samp > M or m_samp < m:
            raise AuditError("sampled conformal factor escapes its bound",
                             {"bound": (m, M), "sampled": (m_samp, M_samp)})
        self.iso = iso
        self.eps = float(eps)
        self.certificate = SmoothingCertificate(
            M=M, m=m, K_factor=4.0 * M / m, eps=float(eps),
            chi_zero_below=float(eps), chi_one_above=4.0 * eps / m,
        )
        self.step = step

    def _field(self, t, zs):
        cert = self.certificate
        r = row_sum(zs * zs)
        out = np.zeros_like(zs)
        live = r > cert.chi_zero_below  # chi = 0 there: field vanishes exactly
        if not np.any(live):
            return out
        z = zs[live]
        rl = r[live]
        sq = np.sqrt(rl)
        th = z / sq[:, None]
        K = self.iso.hamiltonian_at(t)
        Kv, g = K.value_and_grad(th)
        tang = g - row_sum(g * th)[:, None] * th
        chi, chi_d = cutoff_with_deriv(rl, cert.chi_zero_below, cert.chi_one_above)
        w = chi * rl
        w_d = chi_d * rl + chi
        grad = (2.0 * w_d * Kv)[:, None] * z + (w / sq)[:, None] * tang
        out[live] = symplectic_gradient(grad)
        return out

    def __call__(self, zs, t_final: float = 1.0):
        zs = np.array(np.atleast_2d(np.asarray(zs, dtype=float)))
        n_steps = max(1, int(round(abs(t_final) / self.step)))
        h = t_final / n_steps
        z = zs
        for i in range(n_steps):
            t = i * h
            k1 = self._field(t, z)
            k2 = self._field(t + 0.5 * h, z + 0.5 * h * k1)
            k3 = self._field(t + 0.5 * h, z + 0.5 * h * k2)
            k4 = self._field(t + h, z + h * k3)
            z = z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.all(np.isfinite(z)):
                raise IntegrationError("smoothed flow diverged", {"step_index": i})
        return z


def symplecticity_stencil(zs):
    """Rows at which a map is evaluated for `symplecticity_defect`: for
    each coordinate j and c in (-2, -1, 1, 2), every row of zs moved by
    c * FD_STEP along e_j, stacked in that order."""
    zs = np.atleast_2d(np.asarray(zs, dtype=float))
    dim = zs.shape[1]
    probes = []
    for j in range(dim):
        e = np.zeros(dim)
        e[j] = 1.0
        for c in (-2.0, -1.0, 1.0, 2.0):
            probes.append(zs + c * FD_STEP * e)
    return np.concatenate(probes, axis=0)


def symplecticity_defect_of_images(images):
    """Max-norm defect of J^T Omega J - Omega per base row, from a map's
    images of the `symplecticity_stencil` rows (five-point Jacobians)."""
    dim = images.shape[1]
    npts = images.shape[0] // (4 * dim)
    Omega = omega_matrix(dim // 2)
    cols = []
    for j in range(dim):
        base = 4 * j * npts
        m2 = images[base:base + npts]
        m1 = images[base + npts:base + 2 * npts]
        p1 = images[base + 2 * npts:base + 3 * npts]
        p2 = images[base + 3 * npts:base + 4 * npts]
        cols.append((8.0 * (p1 - m1) - (p2 - m2)) / (12.0 * FD_STEP))
    J = np.stack(cols, axis=-1)  # (npts, dim, dim): J[p, i, j] = dF_i/dz_j
    defect = np.einsum("pji,jk,pkl->pil", J, Omega, J) - Omega
    return np.max(np.abs(defect), axis=(1, 2))


def symplecticity_defect(map_fn, zs):
    """Max-norm defect of J^T Omega J - Omega for finite-difference
    Jacobians of map_fn (five-point stencil), one value per input row."""
    images = map_fn(symplecticity_stencil(zs))
    return symplecticity_defect_of_images(images)


@dataclass(frozen=True)
class SqueezeWitness:
    tau: float
    scale: float
    grid_points: int
    violations: int
    max_excess: float


def radial_step_bump(r1: float, r2: float):
    """C^4 function of a point of R^d: 1 on |p| <= r1, 0 on |p| >= r2."""
    if not 0 < r1 < r2:
        raise DomainError("need 0 < r1 < r2")

    def H(p):
        p = np.atleast_2d(np.asarray(p, dtype=float))
        return plateau_bump(np.linalg.norm(p, axis=1), r1, r2)

    return H


def liouville_squeeze_witness(H, r1: float, r2: float, dim: int = 3,
                              grid_points: int = 10_000, tau: float = None,
                              box_pad: float = 1.05) -> SqueezeWitness:
    """Contract H through the model contracting flow and certify the
    pointwise inequality Ad H <= scale * H on a lattice.

    The flow scales the first coordinate by e^{-2 tau} and the remaining
    2n of them by e^{-tau}; its conformal factor is the constant e^{-2 tau}.
    With tau at least log(r2/r1), the preimage of any support point of H
    lies in the plateau ball, which forces the inequality everywhere.
    """
    if not r2 > r1 > 0:
        raise DomainError("geometry infeasible: need r2 > r1 > 0")
    if dim % 2 == 0 or dim < 3:
        raise DomainError("dim must be odd and at least 3")
    if tau is None:
        tau = float(np.log(r2 / r1))
    elif tau < np.log(r2 / r1) - 1e-12:
        raise DomainError("tau below log(r2/r1) certifies nothing")
    scale = float(np.exp(-2.0 * tau))

    per_axis = int(np.ceil(grid_points ** (1.0 / dim)))
    axes = [np.linspace(-box_pad * r2, box_pad * r2, per_axis)] * dim
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim)

    pre = mesh.copy()
    pre[:, 0] *= np.exp(2.0 * tau)
    pre[:, 1:] *= np.exp(tau)
    ad_vals = scale * np.asarray(H(pre), dtype=float)
    h_vals = np.asarray(H(mesh), dtype=float)
    excess = ad_vals - scale * h_vals
    bad = excess > 1e-12
    return SqueezeWitness(tau=tau, scale=scale, grid_points=mesh.shape[0],
                          violations=int(np.sum(bad)),
                          max_excess=float(np.max(excess)))
