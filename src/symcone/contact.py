"""Hamiltonian kinematics on the unit sphere of R^{2n}.

Functions on the sphere generate flows through their 1-homogeneous
extensions: a function K on S^{2n-1} extends to Hext(z) = r K(theta) with
r = |z|^2, and the tangential part of the ambient Hamiltonian field of
Hext is the sphere field Y_K.  This realizes the correspondence between
sphere kinematics and homogeneous ambient kinematics exactly for the
round form alpha(v) = omega(theta, v) / 2, with no frame choices.

Every kernel here takes an (N, 2n) batch of rows, one result per row;
any other shape raises `DimensionMismatchError`.

Sign convention used throughout (`geometry.symplectic_gradient`): the
ambient field of H is (xdot, ydot) = (-dH/dy, +dH/dx), so the squared-norm
function |z|^2 generates the counterclockwise rotation (-2y, 2x) of
period pi.
"""
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (AuditError, DimensionMismatchError, DomainError,
                     IntegrationError)
from .geometry import (as_phase, half_dim, angle_ratio_of, require_split,
                       row_sum, symplectic_gradient, tangential)
from . import sampling

# values at most this large in magnitude count as zero in the metadata audit
ZERO_TOL = 1e-12
# sphere points of the metadata audit; a quarter as many more probe the
# inner region {angle ratio <= rho0}
AUDIT_SAMPLES = 2000


def _rows(theta):
    th = np.asarray(theta, dtype=float)
    if th.ndim != 2:
        raise DimensionMismatchError(f"expected (N, 2n) rows, got shape {th.shape}")
    return th


def reeb_field(theta):
    """Rotation field (-2y, 2x), the field of |z|^2; unit pairing against
    the contact form.  Rows must have norm 1 to within 1e-10."""
    th = _rows(theta)
    if np.any(np.abs(np.sqrt(row_sum(th * th)) - 1.0) > 1e-10):
        raise DomainError("reeb_field requires unit vectors")
    return symplectic_gradient(2.0 * th)


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


class ContactHamiltonian:
    """A function on S^{2n-1}, vanishing past angle-ratio rho1 of the
    k-indexed coordinate split, with certified support metadata.

    `eval_fn` maps a batch of rows to values; `grad_fn` maps it to the
    pair (values, ambient gradients) in one call.

    Exact facts in the angle ratio rho, as `eval_fn` computes values on
    unit rows: the value is exactly 0 where rho >= `zero_rho`, and at
    least `floor` where rho <= `floor_rho`.  These defaults hold for no
    ratio; an `exprs.ExpressionHamiltonian` reads its own from its plan.
    """

    zero_rho = np.inf
    floor_rho = -np.inf
    floor = -np.inf

    def __init__(self, eval_fn: Callable, k: int, n: int, meta: SupportMeta,
                 grad_fn: Callable):
        self.eval_fn = eval_fn
        self.k = int(k)
        self.n = int(n)
        self.meta = meta
        self.grad_fn = grad_fn

    def __call__(self, theta):
        return np.asarray(self.eval_fn(_rows(theta)), dtype=float)

    def value_and_grad(self, theta):
        """(K, gradient of the ambient 0-homogeneous-in-direction extension,
        i.e. of K as a function of the unnormalized argument) at theta, from
        one `grad_fn` call.  Rows with non-finite entries are refused; the
        RK stages call `grad_fn` itself on rows the loop checks."""
        vals, g = self.grad_fn(as_phase(_rows(theta)))
        return np.asarray(vals, dtype=float), np.asarray(g, dtype=float)

    def audit(self, seed: int = 0):
        """Sampled contract check of the metadata at AUDIT_SAMPLES seeded
        sphere points; raises AuditError."""
        thetas = sampling.sphere_points(self.n, AUDIT_SAMPLES, seed)
        vals = self(thetas)
        if np.any(vals < -ZERO_TOL):
            raise AuditError(f"negative value {vals.min():.3e} found")
        if np.max(vals) > self.meta.M + 1e-6:
            raise AuditError(f"sampled sup {np.max(vals):.6g} exceeds M={self.meta.M}")
        rho = angle_ratio_of(thetas, self.k)
        outside = rho >= self.meta.rho1
        if np.any(np.abs(vals[outside]) > ZERO_TOL):
            raise AuditError("support leaks past rho1")
        if not self.meta.m > 0:
            raise AuditError("m must be positive")
        inner = sampling.sphere_points_with_angle_ratio(
            self.n, self.k, AUDIT_SAMPLES // 4, seed + 1, rho_max=self.meta.rho0)
        inner_vals = self(inner)
        if np.min(inner_vals) < self.meta.m - 1e-12:
            raise AuditError(
                f"m={self.meta.m} is not a lower bound on the inner region "
                f"(sampled min {np.min(inner_vals):.6g})")
        return True


def _renorm(th):
    return th / np.sqrt(row_sum(th * th))[..., None]


# the one Runge–Kutta table of the package: the 12-stage 8th-order
# solution of Dormand and Prince's DOP853 (Hairer, Norsett and Wanner,
# Solving ODEs I, II.10).  Stage i > 1 evaluates at
# y + sum_j (DOP853_A[i - 2][j] h) k_j, and the step adds
# h sum_j DOP853_B[j] k_j; both sums run in j order over the nonzero
# entries.  Each literal is the shortest decimal of its float64 value.
DOP853_A = (
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0.0, 0.08876275643042054),
    (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242),
    (0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596,
     -0.017578125),
    (0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023),
    (0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
     27.59209969944671, 20.154067550477894, -43.48988418106996),
    (0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
     21.230051448181193, 15.279233632882423, -33.28821096898486,
     -0.020331201708508627),
    (-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
     -8.149787010746927, -18.52006565999696, 22.739487099350505,
     2.4936055526796523, -3.0467644718982196),
    (2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
     -17.9589318631188, 27.94888452941996, -2.8589982771350235,
     -8.87285693353063, 12.360567175794303, 0.6433927460157636),
)
DOP853_B = (0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
            1.8915178993145003, -5.801203960010585, 0.3111643669578199,
            -0.1521609496625161, 0.20136540080403034, 0.04471061572777259)


def _stage_coefficients(h):
    """Per row of DOP853_A, its (j, DOP853_A[i][j] h) at the nonzero
    entries, in j order: a float for a float h, else an array like h."""
    return [[(j, a * h) for j, a in enumerate(row) if a] for row in DOP853_A]


def _stage_input(y, coefficients, slopes):
    """y + sum_j (a_j h) slopes[j] over one row's `_stage_coefficients`,
    the sum taken in j order before y is added."""
    acc = None
    for j, ah in coefficients:
        term = ah * slopes[j]
        if acc is None:
            acc = term
        else:
            acc += term
    return y + acc


def _increment(h, slopes):
    """h * sum_j DOP853_B[j] slopes[j], over the nonzero weights in j
    order, accumulated in place in the buffer of the first one's slope;
    every weighted slope is overwritten, so pass stage slopes nothing
    else holds."""
    acc = None
    for w, k in zip(DOP853_B, slopes):
        if not w:
            continue
        k *= w
        if acc is None:
            acc = k
        else:
            acc += k
    acc *= h
    return acc


def _step_count(span: float, step: float) -> int:
    """Fixed steps over a time span on a nominal step."""
    return max(1, int(round(abs(span) / step)))


def _field_and_rate(Kv, g, th):
    """(Y_K, dK(R)) at unit rows th, from K's values and ambient gradients
    there (one value_and_grad call); Y_K is the tangential part of the
    field of r*K.  Callers normalise or check th; it is not re-checked."""
    return _field_and_rate_of_tangent(Kv, g, tangential(g, th), th)


def _field_and_rate_of_tangent(Kv, g, grad, th):
    """`_field_and_rate` given grad = tangential(g, th), which it
    overwrites: a caller that projects more rows than th in one pass
    hands over the part at th."""
    grad += 2.0 * Kv[:, None] * th
    Y = tangential(symplectic_gradient(grad), th)
    return Y, row_sum(g * symplectic_gradient(2.0 * th))


def _lockstep_rk(stage, z, th, steps, span):
    """The one Runge–Kutta loop of the package, on the one table
    (`DOP853_A`, `DOP853_B`).  Ambient rows z and sphere rows th take n
    equal steps over the span for each count n of steps, (n,) or (n, 2n);
    stage(z, th) returns the ambient field at z and (Y_K, dK(R)) at th,
    in arrays nothing else holds.  The runs are stacked copies of the
    batch, so each of the 12 stages is one stage call on the rows of
    every live run.  The n-run leaves first, so the live rows are always
    a tail, kept by one copy.  Rows never interact and each run takes
    its own step, so each run's result is bitwise that of a call at its
    count alone.  Both batches are made column-major on entry (see `geometry`); th is
    normalised on entry, after every stage and after every step, and
    carries log of the conformal factor.  Each slope stays held until
    the stage that replaces it has returned.

    Returns one (z, th, log conformal factors, lo, hi) per count, in
    order.  (lo, hi) are the extremes of log c over every sphere row of
    every live run after every step, and 0 at t = 0: each run's tuple
    reads them up to its own last step, and a call with no sphere rows
    reads (0, 0).
    Every stage is arithmetic only.  Its kernels check neither their
    rows nor what their owners fixed at construction and checked there
    (a Hamiltonian's (n, k) split and bump ends, a smoothed map's chi
    band), and the loop forms each run's stage coefficients
    DOP853_A[i][j] h once per call, and again when the n-run leaves.  The
    loop raises IntegrationError("flow diverged", {"step_index": i}) at
    the first step i after which any row is not finite.
    """
    nz, nth, runs = len(z), len(th), len(steps)
    # each row's step: span / n itself, the cheaper operand, while one run
    # is live, else a (rows, 1) column
    hz = hth = hc = span / steps[-1]
    if runs == 2:
        h = [span / n for n in steps]
        hz, hth = np.repeat(h, nz)[:, None], np.repeat(h, nth)[:, None]
        hc = hth[:, 0]
    z, th = (np.concatenate([np.asarray(a, dtype=float)] * runs,
                            out=np.empty((runs * len(a), a.shape[1]), order="F"))
             for a in (z, th))
    th = _renorm(th)
    logc = np.zeros(runs * nth)
    lo, hi, out = 0.0, 0.0, []
    ks, fs, cs = ([None] * len(DOP853_B) for _ in range(3))
    az, ath = _stage_coefficients(hz), _stage_coefficients(hth)
    for i in range(steps[-1]):
        ks[0], fs[0], cs[0] = stage(z, th)
        for s, (cz, cth) in enumerate(zip(az, ath), 1):
            ks[s], fs[s], cs[s] = stage(_stage_input(z, cz, ks),
                                        _renorm(_stage_input(th, cth, fs)))
        z = _increment(hz, ks) + z
        th = _renorm(_increment(hth, fs) + th)
        logc += _increment(hc, cs)
        if not (np.all(np.isfinite(z)) and np.all(np.isfinite(th))):
            raise IntegrationError("flow diverged", {"step_index": i})
        lo, hi = float(np.min(logc, initial=lo)), float(np.max(logc, initial=hi))
        if i + 1 == steps[0] < steps[-1]:  # the n-run leaves
            out.append((z[:nz], th[:nth], logc[:nth], lo, hi))
            z, th = z[nz:].copy(order="F"), th[nth:].copy(order="F")
            logc = logc[nth:].copy()
            hz = hth = hc = span / steps[-1]
            az = ath = _stage_coefficients(hz)
    return out + [(z, th, logc, lo, hi)]


def contact_vector_field(K: ContactHamiltonian, theta):
    """Sphere field Y_K: tangential projection of the homogeneous field."""
    th = _rows(theta)
    return _field_and_rate(*K.value_and_grad(th), th)[0]


def reeb_derivative(K: ContactHamiltonian, theta):
    """dK evaluated on the rotation field (a tangent direction)."""
    th = _rows(theta)
    return row_sum(K.value_and_grad(th)[1] * reeb_field(th))


class ContactIsotopy:
    """The autonomous flow of one sphere Hamiltonian over [0, 1].

    The flow integrates the sphere field in the one loop `_lockstep_rk`
    on the package's one table, DOP853, which the smoothed map steps too,
    renormalizing to the sphere each stage, and carries log of the
    conformal factor along every trajectory as one extra scalar.  The
    default step, the metric pool's, takes 15 steps (180 kernel stages)
    over [0, 1].
    """

    def __init__(self, hamiltonian: ContactHamiltonian, step: float = 1 / 15):
        if not step > 0:
            raise IntegrationError("step underflow", {"step": step})
        self.hamiltonian = hamiltonian
        self.k, self.n = hamiltonian.k, hamiltonian.n
        self.step = step

    def flow_many(self, thetas, t_from: float = 0.0, t_to: float = 1.0):
        """Integrate a batch from t_from to t_to (either direction).

        Returns (endpoints, log_conformal) where log_conformal is the
        accumulated log-derivative integral along each trajectory.  The
        loop holds the batch column-major (see `geometry`), so the
        endpoints come back Fortran-ordered; the values do not depend on
        the layout the rows arrive in.
        """
        rows = _rows(thetas)
        K = self.hamiltonian

        def stage(z, th):  # z is the empty ambient batch, its own (empty) field
            return (z,) + _field_and_rate(*K.grad_fn(th), th)

        span = t_to - t_from
        (flowed,) = _lockstep_rk(stage, np.empty((0, rows.shape[1])), rows,
                                 (_step_count(span, self.step),), span)
        return flowed[1:3]

    def inverse_images(self, thetas):
        """psi_1^{-1}(theta) together with c_{psi_1} evaluated there.

        One backward pass: running the ODE from 1 down to 0 lands on the
        preimage, and the log-derivative integral accumulated along that
        same path (sign restored) is log c at the preimage.
        """
        pre, logc_back = self.flow_many(thetas, 1.0, 0.0)
        return pre, np.exp(-logc_back)


def model_field_contracting(k: int, z):
    """Linear field -x_j d/dx_j + y_j d/dy_j over the last k index pairs;
    generated by the sum of the last k products x_j y_j."""
    z = as_phase(z)
    n = half_dim(z)
    require_split(n, k)
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
