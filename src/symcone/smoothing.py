"""Lifting sphere isotopies to R^{2n} and taming them near the origin.

A sphere map phi with conformal factor c lifts to the homogeneous map
(r, theta) -> (r / c(theta), phi(theta)), which is singular at 0.  The
smoothed version flows the ambient Hamiltonian chi(r) * r * K(theta)
instead: the radial switch chi vanishes on a small ball (so the flow is
exactly the identity there) and equals 1 far enough out that trajectories
of the homogeneous flow never see the transition band.  Outside a
certified multiple of the ball the exact smoothed flow therefore equals
the exact lift by ODE uniqueness; what the agreement check measures is
the gap between two discretisations of that one flow, the ambient rows
and the sphere rows with their log conformal factor, on DOP853 at the
map's step.

The map takes its certificate (`smoothing_certificate`) and chooses its
step once, at construction (`SmoothedSymplectization._choose_step`), by
step doubling on pilot rows the map owns.  For each n of PILOT_STEPS in
turn it runs the package's one Runge–Kutta table, DOP853's 8th-order
solution, at n and at 2n steps, as the two runs of one call of its one
loop, `contact._lockstep_rk`, and takes n steps at the first n whose gap
between the two runs is at most STEP_TOL.  When no pair passes, it takes
the last pair's n, and its `StepChoice.estimate`, that pair's gap, is
above the tolerance: the audit's thresholds then judge the map's images.
The map steps every integration on DOP853 at that step in the same loop,
which `ContactIsotopy.flow_many` runs on the same table with no ambient
rows.
Beside the ambient rows the loop carries sphere rows: 512 seeded probes
of the conformal factor, and the rows of a homogeneous lift when one is
asked for (`map_and_lift`).  Each stage (`_stage`) evaluates K once on
all rows stacked, and projects K's gradient tangentially once there; the
ambient rows then take the map's chi-weighted field and the sphere rows
Y_K and dK(R), so the two routes share only the evaluation of K and that
projection.  chi and its slope are exactly 0 on the ball, where
the field is made of signed zeros, so a ball row stays out of the loop
and is its own image, unless a coordinate of it is +-0.0 and the field
could flip that zero's sign.  Every integration checks the conformal
factor the loop sampled on all its sphere rows, probes and lift rows
alike, against the certificate before it returns anything: a
certificate they refute stops the map's first integration.
"""
from dataclasses import dataclass

import numpy as np

from .blends import _cutoff_profile, plateau_bump
from .contact import (ContactHamiltonian, _field_and_rate_of_tangent,
                      _lockstep_rk, _step_count, reeb_derivative)
from .errors import AuditError, DomainError, IntegrationError
from .geometry import omega_matrix, row_sum, symplectic_gradient, tangential
from . import sampling

# the smoothing contract's thresholds: points of the identity ball move by
# less than IDENTITY_TOL, and the lift agreement and the symplecticity
# defect stay below AUDIT_TOL
IDENTITY_TOL = 1e-9
AUDIT_TOL = 1e-6
# the step-doubling tolerance of the map's step: 1% of AUDIT_TOL, so the
# discretisation spends a small share of the audit's margin
STEP_TOL = 1e-8
# the DOP853 step counts n that the step choice tries in turn, each beside
# 2n steps; none below 16, where the gap between the images passes before
# the error in the map's Jacobian (the symplecticity defect) has settled
PILOT_STEPS = (16, 24, 32, 48)
# pilot rows of the step choice: every PILOT_PROBE_STRIDE-th probe and
# PILOT_AMBIENT ambient rows, 112 rows in all, since a stage under 128
# rows costs little more than its fixed overhead
PILOT_PROBE_STRIDE = 8
PILOT_AMBIENT = 48
# the finite-difference step of the symplecticity check: the stencil rows
# and the Jacobians built from their images must use the same one
FD_STEP = 3e-4
# lattice points per axis of the squeeze witness in R^3: 22^3 = 10648 is
# the least cube lattice of at least 10^4 points
WITNESS_AXIS_POINTS = 22


def _polar(zs):
    """(|z|^2, z / |z|) at rows of nonzero cartesian points."""
    zs = np.atleast_2d(np.asarray(zs, dtype=float))
    r = row_sum(zs * zs)
    if np.any(r == 0.0):
        raise DomainError("origin excluded from the homogeneous lift")
    return r, zs / np.sqrt(r)[:, None]


def _lift(r, ends, logc):
    """Homogeneous images of the points of squared radius r whose
    directions the time-1 sphere flow took to ends with log factor logc."""
    return np.sqrt(r / np.exp(logc))[:, None] * ends


@dataclass(frozen=True)
class SmoothingCertificate:
    """(M, m) bound the conformal factor over the whole isotopy;
    outside squared radius K_factor * eps the smoothed map provably equals
    the homogeneous lift, and inside eps it is the identity."""

    M: float
    m: float
    K_factor: float
    eps: float
    chi_one_above: float


def _conformal_envelope(cert: SmoothingCertificate, lo: float, hi: float):
    """Audit of the certificate by sampling: (lo, hi) are the extremes of
    log c that the loop read after every step (and 0 at the start) over
    the sphere rows of an integration of a smoothed map, the 512 seeded
    probes and any lift rows.  Raises AuditError when the sampled factor
    leaves (m, M): the rate grid then missed structure and the
    certificate would be built on sand."""
    m_samp, M_samp = np.exp(lo), np.exp(hi)
    if M_samp > cert.M or m_samp < cert.m:
        raise AuditError(f"sampled conformal factor escapes its bound: "
                         f"sampled [{m_samp:.6g}, {M_samp:.6g}], bound "
                         f"[{cert.m:.6g}, {cert.M:.6g}]")


def _rate_envelope(K: ContactHamiltonian):
    """Bound (min, max) of the conformal factor from the generator's rate.

    log c is the time integral of dK(R) over [0, 1], so a sup bound on that
    rate over the sphere bounds the factor itself uniformly over all
    trajectories — no dependence on which trajectories happen to get
    sampled.  The generator is autonomous, so the rate is one function on
    the sphere: its extremes are taken on a seeded 4096-point sphere grid
    and inflated by 25% to cover what the grid misses between its points.
    """
    rate = reeb_derivative(K, sampling.sphere_points(K.n, 4096, 7))
    lo, hi = min(0.0, float(np.min(rate))), max(0.0, float(np.max(rate)))
    with np.errstate(over="ignore"):  # an overflow is reported by the caller
        return np.exp(1.25 * lo), np.exp(1.25 * hi)


def smoothing_certificate(K: ContactHamiltonian, eps: float):
    """The `SmoothingCertificate` of K's smoothed map at eps, from K's
    rate bound (`_rate_envelope`) alone, before any integration.  An eps
    that is not a positive normal float, bounds that are not positive
    and finite, or a chi band [eps, chi_one_above] that is not a finite
    interval, are a DomainError: the map's stages take the band as
    checked here."""
    if not eps > 0:
        raise DomainError("eps must be positive")
    if not eps < np.inf:
        raise DomainError(f"eps must be finite, got {eps}")
    if eps < np.finfo(float).tiny:
        raise DomainError(f"eps {float(eps)!r} is not a normal finite float")
    m, M = _rate_envelope(K)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        K_factor = 4.0 * M / m
        chi_one_above = 4.0 * eps / m
    if not all(0.0 < x < np.inf for x in (M, m, K_factor)):
        raise DomainError(
            f"conformal bounds must be finite and positive, got M={M:.6g}, "
            f"m={m:.6g}, K_factor={K_factor:.6g}")
    if not eps < chi_one_above < np.inf:
        raise DomainError(f"chi band [{float(eps):.6g}, {chi_one_above:.6g}] "
                          f"is not a finite interval")
    return SmoothingCertificate(M, m, K_factor, eps=float(eps),
                                chi_one_above=chi_one_above)


@dataclass(frozen=True)
class StepChoice:
    """The map's DOP853 step h = 1 / n, chosen at construction.
    estimate is the largest gap between the pilot's runs at n and 2n
    steps: at most tol for the first pair of PILOT_STEPS that passes, and
    above it when none does and the map steps the last pair's n."""

    h: float
    estimate: float
    tol: float


class SmoothedSymplectization:
    """Time-1 map of the cutoff Hamiltonian flow of the sphere generator
    K, with its certificate (`smoothing_certificate(K, eps)`) at eps.

    The step comes from a pilot at construction (`_choose_step`, reported
    as `step_choice`).  Every integration runs DOP853 at that step,
    whatever its rows, so a row's image does not depend on the rows
    beside it; each flows the 512 conformal-factor probes beside its rows
    and audits the factor on every sphere row (`_conformal_envelope`)
    before it returns an image.
    """

    def __init__(self, K: ContactHamiltonian, certificate: SmoothingCertificate):
        self.certificate = certificate
        self.hamiltonian = K
        self._probes = sampling.sphere_points(K.n, 512, 7)
        self.step_choice = self._choose_step()
        self.step = self.step_choice.h

    def _stage(self, zs, th):
        """One RK stage of both routes from one K kernel call on the map's
        unit rows stacked over the sphere rows th: the map's field at zs,
        which vanishes on the ball r <= eps with chi and its slope, then
        (Y_K, dK(R)) at th.  The stacked rows are projected tangentially
        once for both routes.  The origin divides by 1, not by sqrt(0).
        Nothing is checked: the certificate fixed the chi band."""
        cert = self.certificate
        r = row_sum(zs * zs)
        sq = np.sqrt(np.where(r > 0.0, r, 1.0))
        # zs and th are column-major, so the stack of units is too
        unit = np.concatenate([zs / sq[:, None], th])
        Kv, g = self.hamiltonian.grad_fn(unit)
        tang = tangential(g, unit)
        nz = zs.shape[0]
        chi, chi_d = _cutoff_profile(r, cert.eps, cert.chi_one_above)
        w = chi * r
        w_d = chi_d * r + chi
        grad = (2.0 * w_d * Kv[:nz])[:, None] * zs + (w / sq)[:, None] * tang[:nz]
        return ((symplectic_gradient(grad),)
                + _field_and_rate_of_tangent(Kv[nz:], g[nz:], tang[nz:], th))

    def _pilot_rows(self):
        """The rows the step choice integrates: ambient rows log-spaced in
        squared radius over (eps, 8 K_factor eps], through the chi band and
        the conjugated zone, and every PILOT_PROBE_STRIDE-th probe."""
        cert = self.certificate
        r = cert.eps * np.geomspace(1.0, 8.0 * cert.K_factor, PILOT_AMBIENT + 1)[1:]
        dirs = sampling.sphere_points(self.hamiltonian.n, PILOT_AMBIENT, 11)
        return np.sqrt(r)[:, None] * dirs, self._probes[::PILOT_PROBE_STRIDE]

    def _choose_step(self):
        """The fewest DOP853 steps n in PILOT_STEPS whose step-doubling
        gap is at most STEP_TOL, as a `StepChoice` of h = 1 / n; the last
        n, with its gap, when none passes.

        For each n in turn, the pilot runs the `_pilot_rows` to time 1 at
        n and 2n steps in one loop call, so each RK stage of both runs is
        one kernel call, and each run's result is bitwise that of a call
        at its count alone.  The gap is the largest row norm of the
        differences of the ambient images and of the probes' ends, or the
        largest difference of their log c, whichever is larger.  It is
        the estimate as it stands, not divided by 2^p - 1: with C^4
        profiles the observed order p of the error is erratic.  A pair
        whose runs diverge fails; the last pair raises its
        IntegrationError.  The pilot discards the loop's log c extremes;
        the map's own integrations audit them.
        """
        pilot_z, pilot_th = self._pilot_rows()
        for n in PILOT_STEPS:
            last = n == PILOT_STEPS[-1]
            try:
                runs = _lockstep_rk(self._stage, pilot_z, pilot_th, (n, 2 * n), 1.0)
            except IntegrationError:
                if last:
                    raise
                continue
            dz, dth, dlogc = (a - b for a, b in zip(*(run[:3] for run in runs)))
            gap = max(float(np.max(np.sqrt(row_sum(dz * dz)))),
                      float(np.max(np.sqrt(row_sum(dth * dth)))),
                      float(np.max(np.abs(dlogc))))
            if gap <= STEP_TOL or last:
                return StepChoice(h=1.0 / n, estimate=gap, tol=STEP_TOL)

    def _integrate(self, zs, thetas):
        """Lockstep DOP853 over [0, 1] at the map's step
        (`contact._lockstep_rk` under `_stage`): the ambient rows zs that
        can move, and the sphere rows thetas, then the probes.  Returns
        the images of zs and the ends and log conformal factors of
        thetas, once the log c extremes of thetas and the probes have
        passed `_conformal_envelope`.

        A row of the identity ball takes a field of signed zeros at every
        stage, so it stays put unless one of its coordinates is itself
        +-0.0, whose sign the sum can flip; every other ball row skips the
        loop and is its own image.  The loop holds both batches
        column-major (see `geometry`), so the images come back
        Fortran-ordered."""
        zs = np.array(np.atleast_2d(zs), dtype=float, order="F")
        # the stage's own squared radius, so the two agree on the ball
        still = (row_sum(zs * zs) <= self.certificate.eps) & np.all(zs != 0.0, axis=1)
        ((z, th, logc, lo, hi),) = _lockstep_rk(
            self._stage, zs[~still], np.concatenate([thetas, self._probes]),
            (_step_count(1.0, self.step),), 1.0)
        _conformal_envelope(self.certificate, lo, hi)
        zs[~still] = z
        nt = len(thetas)
        return zs, th[:nt], logc[:nt]

    def __call__(self, zs):
        """Images of the rows zs under the time-1 map."""
        return self._integrate(zs, np.empty((0, 2 * self.hamiltonian.n)))[0]

    def map_and_lift(self, zs, lift_zs):
        """(images of zs, homogeneous lift of lift_zs) from one integration:
        the lift (r, theta) -> (r / c(theta), phi(theta)) of the time-1 map
        takes phi and c from the directions of lift_zs, which ride as
        sphere rows beside the probes, so it is bitwise the lift built from
        a loop call on those directions alone, on DOP853 at the map's
        step.  Their sampled conformal factor is audited with the
        probes'."""
        r, th = _polar(lift_zs)
        images, ends, logc = self._integrate(zs, th)
        return images, _lift(r, ends, logc)


def symplecticity_stencil(zs):
    """Rows at which a map is evaluated for `symplecticity_defect`: for
    each coordinate j and c in (-2, -1, 1, 2), every row of zs moved by
    c * FD_STEP along e_j, stacked in that order.  Raises DomainError when
    rounding leaves a moved row equal to its base row in the moved
    coordinate: the Jacobian would then measure the stencil, not the map."""
    zs = np.atleast_2d(np.asarray(zs, dtype=float))
    dim = zs.shape[1]
    probes = []
    for j in range(dim):
        e = np.zeros(dim)
        e[j] = 1.0
        for c in (-2.0, -1.0, 1.0, 2.0):
            moved = zs + c * FD_STEP * e
            if np.any(moved[:, j] == zs[:, j]):
                raise DomainError(
                    f"symplecticity stencil step FD_STEP = {FD_STEP:g} is lost "
                    f"to rounding at audited |z| up to "
                    f"{float(np.max(np.sqrt(row_sum(zs * zs)))):.6g}")
            probes.append(moved)
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


def liouville_squeeze_witness(H, r1: float, r2: float) -> SqueezeWitness:
    """Contract H, a function of a point of R^3, through the model
    contracting flow for time tau = log(r2/r1), and certify the pointwise
    inequality Ad H <= scale * H on the WITNESS_AXIS_POINTS^3 lattice
    over the cube of half-width 1.05 r2.

    The flow scales the first coordinate by e^{-2 tau} and the other two
    by e^{-tau}; its conformal factor is the constant e^{-2 tau}.  At this
    tau the preimage of any support point of H lies in the plateau ball,
    which forces the inequality everywhere.
    """
    if not r2 > r1 > 0:
        raise DomainError("geometry infeasible: need r2 > r1 > 0")
    tau = float(np.log(r2 / r1))
    scale = float(np.exp(-2.0 * tau))

    axes = [np.linspace(-1.05 * r2, 1.05 * r2, WITNESS_AXIS_POINTS)] * 3
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)

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
