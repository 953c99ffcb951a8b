"""Planar dynamics of the double-well Hamiltonian, closed-orbit geometry,
and the action spectrum of the integrable domains built from it.

The planar system is h(x, y) = x^2/a^2 + g(y)/b^2 with g the smoothed
well.  Its flow (counterclockwise convention, so enclosed areas are
nonnegative) is integrated with a splitting method that is exact on each
of the two separable pieces; level curves, periods and actions are
computed independently of the integrator by 1-D quadrature and contour
geometry, which lets the two routes audit each other.
"""
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .domains import IntegrableDomain, SmoothedWell
from .errors import AuditError, DomainError, ScanBudgetError

__all__ = [
    "PlanarWellSystem", "PlanarTrajectory", "OrbitRecord", "TorusLabel",
    "ActionSpectrum", "integrate_planar", "closed_orbit_at_energy",
    "homoclinic_loop", "area_constant", "label_action_floor",
    "characteristic_spectrum", "single_period_return",
]

# 4th-order Yoshida composition for a two-map splitting: three kicks, and
# drifts that are half-sums of neighbouring kicks (zero-padded at the ends)
_W1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
_KICKS = (_W1, 1.0 - 2.0 * _W1, _W1)
_DRIFTS = (0.5 * _W1, 0.5 * (_W1 + _KICKS[1]), 0.5 * (_W1 + _KICKS[1]),
           0.5 * _W1)


@dataclass(frozen=True)
class PlanarWellSystem:
    a: float
    b: float
    well: SmoothedWell

    def __post_init__(self):
        if not (self.a > 0 and self.b > 0):
            raise DomainError("need a, b > 0")

    @classmethod
    def from_domain(cls, D: IntegrableDomain):
        return cls(a=D.a, b=D.b, well=D.well)

    def energy(self, x, y):
        return (np.asarray(x, dtype=float) ** 2 / self.a ** 2
                + self.well.value(y) / self.b ** 2)

    def field(self, x, y):
        """(dx/dt, dy/dt) of the planar flow."""
        return (-self.well.deriv(y) / self.b ** 2,
                2.0 * np.asarray(x, dtype=float) / self.a ** 2)

    def min_energy(self) -> float:
        return self.well.min_point()[1] / self.b ** 2


@dataclass
class PlanarTrajectory:
    start: np.ndarray
    end: np.ndarray
    duration: float
    step: float
    energy_start: float
    energy_end: float
    samples: Optional[np.ndarray] = None

    @property
    def energy_drift(self) -> float:
        return abs(self.energy_end - self.energy_start)


def integrate_planar(system: PlanarWellSystem, z0, duration: float,
                     step: float = 2e-4,
                     record_stride: int = 0) -> PlanarTrajectory:
    """Fixed-step symplectic splitting integration of the planar flow.

    Energy drift over durations up to 1e3 stays below 1e-8 relative to
    max(1, |initial energy|) at the default step.
    """
    x, y = float(z0[0]), float(z0[1])
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(duration)
            and duration >= 0 and step > 0):
        raise DomainError("need finite state, duration >= 0, step > 0")
    gp = system.well.deriv_at
    ay = 2.0 / system.a ** 2
    bk = 1.0 / system.b ** 2
    e0 = float(system.energy(x, y))
    n_full = int(duration / step)
    rem = duration - n_full * step

    rec = None
    if record_stride:
        rec = np.empty((n_full // record_stride + 2, 2))
        rec[0] = (x, y)
        ri = 1

    def advance(h: float, x: float, y: float):
        for i, d in enumerate(_KICKS):
            y += _DRIFTS[i] * h * ay * x
            x -= d * h * bk * gp(y)
        y += _DRIFTS[-1] * h * ay * x
        return x, y

    for k in range(n_full):
        x, y = advance(step, x, y)
        if record_stride and (k + 1) % record_stride == 0:
            rec[ri] = (x, y)
            ri += 1
    if rem > 0.0:
        x, y = advance(rem, x, y)
    if record_stride:
        rec[ri] = (x, y)
        rec = rec[:ri + 1]
    if not (math.isfinite(x) and math.isfinite(y)):
        raise DomainError("integration diverged")
    return PlanarTrajectory(
        start=np.array([float(z0[0]), float(z0[1])]), end=np.array([x, y]),
        duration=duration, step=step, energy_start=e0,
        energy_end=float(system.energy(x, y)), samples=rec,
    )


# --------------------------------------------------------------------------
# level-curve geometry


def turning_points(system: PlanarWellSystem, e: float):
    """y-interval(s) of the level {h = e}: x vanishes at the endpoints.

    Returns (y_lo, y_hi) for the selected structure: for e in
    (min energy, 0) these bound the right-hand oval (mirror for the
    left); for e > 0 they are (-y_max, y_max) of the single outer loop.
    """
    from scipy import optimize

    well, b2 = system.well, system.b ** 2
    t_min, v_min = well.min_point()
    e_min = v_min / b2
    if e <= e_min:
        raise DomainError(f"energy {e} at or below the minimum {e_min}: empty level")
    target = b2 * e

    def f(y):
        return well.value_at(y) - target

    hi = max(2.0 * well.C, 2.0 * t_min)
    while f(hi) <= 0.0:
        hi *= 2.0
    y_top = optimize.brentq(f, t_min, hi, xtol=1e-15, rtol=8.9e-16, maxiter=300)
    if e >= 0.0:
        return -y_top, y_top
    y_bot = optimize.brentq(f, 0.0, t_min, xtol=1e-15, rtol=8.9e-16, maxiter=300)
    return y_bot, y_top


def _period_quadrature(system: PlanarWellSystem, e: float,
                       y_lo: float, y_hi: float) -> float:
    """T = contour integral of dl/|grad h| = a * int dy / sqrt(e - g/b^2),
    evaluated with a cosine substitution that absorbs the square-root
    turning-point singularities."""
    from scipy import integrate

    well, b2, a = system.well, system.b ** 2, system.a
    mid, half = 0.5 * (y_lo + y_hi), 0.5 * (y_hi - y_lo)

    def f(u):
        y = mid - half * math.cos(u)
        val = e - well.value_at(y) / b2
        if val <= 0.0:
            return 0.0
        return half * math.sin(u) / math.sqrt(val)

    val, _ = integrate.quad(f, 0.0, math.pi, limit=800, epsabs=1e-13, epsrel=1e-11)
    return a * val


def _action_quadrature(system: PlanarWellSystem, e: float,
                       y_lo: float, y_hi: float) -> float:
    """Enclosed area = 2a * int sqrt(e - g/b^2) dy over the y-range."""
    from scipy import integrate

    well, b2, a = system.well, system.b ** 2, system.a

    def f(y):
        val = e - well.value_at(y) / b2
        return math.sqrt(val) if val > 0.0 else 0.0

    val, _ = integrate.quad(f, y_lo, y_hi, limit=800, epsabs=1e-13, epsrel=1e-11)
    return 2.0 * a * val


def _contour(system: PlanarWellSystem, e: float, y_lo: float, y_hi: float,
             m: int) -> np.ndarray:
    """Closed level-curve polygon, cosine-clustered, first point repeated."""
    well, b2, a = system.well, system.b ** 2, system.a
    u = 2.0 * math.pi * np.arange(m) / m
    y = 0.5 * (y_lo + y_hi) - 0.5 * (y_hi - y_lo) * np.cos(u)
    val = np.maximum(e - well.value(y) / b2, 0.0)
    x = a * np.sqrt(val) * np.sign(np.sin(u))
    pts = np.column_stack([x, y])
    return np.vstack([pts, pts[:1]])


def _shoelace(pts: np.ndarray) -> float:
    x, y = pts[:-1, 0], pts[:-1, 1]
    xn, yn = pts[1:, 0], pts[1:, 1]
    return 0.5 * float(np.sum(x * yn - xn * y))


@dataclass
class OrbitRecord:
    samples: np.ndarray
    period: float
    energy: float
    action: float
    closed: bool
    homoclinic_flag: bool = False

    def __post_init__(self):
        if not self.period > 0:
            raise DomainError("period must be positive")
        if self.action < -1e-9:
            raise DomainError(f"negative orbit action {self.action}")
        if self.closed:
            gap = float(np.linalg.norm(self.samples[0] - self.samples[-1]))
            if gap > 1e-6:
                raise DomainError(f"closed orbit fails to close: gap {gap}")


def _audited_level(system: PlanarWellSystem, e: float, branch: str = "auto",
                   samples: int = 2048, cross_check_tol: float = 1e-4):
    """(contour, y_lo, y_hi, action) of the closed component of {h = e}
    on `branch`; see `closed_orbit_at_energy`, which adds the period."""
    if e == 0.0:
        raise DomainError("zero level is the homoclinic figure-eight, not a "
                          "closed orbit; use homoclinic_loop")
    y_lo, y_hi = turning_points(system, e)
    if e < 0.0:
        if branch == "auto":
            branch = "right"
        if branch == "left":
            y_lo, y_hi = -y_hi, -y_lo
        elif branch != "right":
            raise DomainError(f"unknown branch {branch!r} for e < 0")
    elif branch not in ("auto", "outer"):
        raise DomainError("levels above zero have a single outer component")

    pts = _contour(system, e, y_lo, y_hi, samples)
    area = _shoelace(pts)
    y_lo, y_hi = min(y_lo, y_hi), max(y_lo, y_hi)
    area_q = _action_quadrature(system, e, y_lo, y_hi)
    if abs(area - area_q) > cross_check_tol * max(abs(area_q), 1e-12):
        raise AuditError(
            f"contour area {area} and quadrature area {area_q} disagree")
    return pts, y_lo, y_hi, max(area, 0.0)


def closed_orbit_at_energy(system: PlanarWellSystem, e: float,
                           branch: str = "auto", samples: int = 2048,
                           cross_check_tol: float = 1e-4) -> OrbitRecord:
    """Trace the closed component of {h = e} and measure period and action.

    `branch` picks the connected component for e < 0 ("right" around the
    positive well, "left" its mirror); levels with e > 0 have a single
    outer component.  The action is the shoelace area of the traced
    contour, audited against the independent quadrature route.
    """
    pts, y_lo, y_hi, action = _audited_level(system, e, branch, samples,
                                             cross_check_tol)
    period = _period_quadrature(system, e, y_lo, y_hi)
    return OrbitRecord(samples=pts, period=period, energy=e,
                       action=action, closed=True)


def contour_period(system: PlanarWellSystem, orbit: OrbitRecord) -> float:
    """Period re-estimated directly on the polygon as sum of dl/|grad h|."""
    pts = orbit.samples
    mids = 0.5 * (pts[:-1] + pts[1:])
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    gx = 2.0 * mids[:, 0] / system.a ** 2
    gy = system.well.deriv(mids[:, 1]) / system.b ** 2
    speed = np.hypot(gx, gy)
    return float(np.sum(seg / speed))


def homoclinic_loop(system: PlanarWellSystem, branch: str = "right",
                    samples: int = 2048) -> OrbitRecord:
    """One loop of the zero level through the saddle (infinite period)."""
    y_top = turning_points(system, 0.0)[1]
    y_lo, y_hi = (0.0, y_top) if branch == "right" else (-y_top, 0.0)
    pts = _contour(system, 0.0, y_lo, y_hi, samples)
    area = _shoelace(pts)
    return OrbitRecord(samples=pts, period=math.inf, energy=0.0,
                       action=max(area, 0.0), closed=False,
                       homoclinic_flag=True)


def single_period_return(system: PlanarWellSystem, orbit: OrbitRecord,
                         step: float = 2e-4) -> float:
    """Distance back to the start after integrating for one period."""
    traj = integrate_planar(system, orbit.samples[0], orbit.period,
                            step=step)
    return float(np.linalg.norm(traj.end - orbit.samples[0]))


# --------------------------------------------------------------------------
# spectrum


def area_constant(a: float = 1.0, b: float = 1.0) -> float:
    """(a/b) times the area of the ellipse segment
    {chi^2 + 3 eta^2 <= 15/4, eta >= 1}."""
    if not (a > 0 and b > 0):
        raise DomainError("need a, b > 0")
    from scipy import integrate

    top = math.sqrt(5.0) / 2.0

    def width(eta):
        val = 15.0 / 4.0 - 3.0 * eta * eta
        return 2.0 * math.sqrt(val) if val > 0.0 else 0.0

    val, _ = integrate.quad(width, 1.0, top, limit=400, epsabs=1e-14, epsrel=1e-12)
    return (a / b) * val


@dataclass(frozen=True)
class TorusLabel:
    """Values (c_1..c_n) of the commuting integrals, summing to one on
    the boundary; the first n-k entries are round and must be >= 0."""
    c: tuple
    n: int
    k: int

    def __post_init__(self):
        if len(self.c) != self.n:
            raise DomainError("label length must equal n")
        if abs(sum(self.c) - 1.0) > 1e-10:
            raise DomainError("label entries must sum to 1")
        if any(cj < 0 for cj in self.c[: self.n - self.k]):
            raise DomainError("round-factor entries must be nonnegative")


@dataclass
class ActionSpectrum:
    group_i: tuple
    group_ii_min_bound: float
    window_top: float
    scan_min_floor: float = math.inf
    scan_entries: tuple = field(default_factory=tuple)
    labels_scanned: int = 0
    scan_confirms_bound: bool = False
    partial: bool = False

    def __post_init__(self):
        if any(b <= a for a, b in zip(self.group_i, self.group_i[1:])):
            raise DomainError("round-orbit actions must be strictly increasing")
        if not self.group_ii_min_bound > 0:
            raise DomainError("well-orbit action bound must be positive")


def label_action_floor(system: PlanarWellSystem, e: float) -> float:
    """Certified lower bound on actions of closed characteristics whose
    well factor runs at energy e.

    Above the threshold -C^2/(4 b^2) the planar orbit's own area is the
    binding bound and is computed directly; below it the orbit is too
    deep in the well to close up on its own and the round factor, which
    carries the rest of the level budget 1 - e, must wind at least once.
    """
    threshold = -system.well.C ** 2 / (4.0 * system.b ** 2)
    if e >= threshold:
        branch = "right" if e < 0 else "outer"
        return _audited_level(system, e, branch)[3]
    return math.pi * system.a ** 2 * (1.0 - e)


def _confirms(entries, scan_min, bound) -> bool:
    """A scan confirms the bound only if it scanned a label (an empty scan
    is vacuous) and no floor fell below the bound."""
    return bool(entries) and scan_min >= bound * (1.0 - 1e-3)


def characteristic_spectrum(D: IntegrableDomain, window_top: float,
                            scan_labels: int = 1000,
                            budget: Optional[int] = None) -> ActionSpectrum:
    """Enumerate the closed-characteristic actions of the boundary.

    Group (i): round orbits on the sphere of radius a in the first
    coordinate block, with actions k*pi*a^2 up to the window.  Group
    (ii): everything with a nonzero well factor; these are certified to
    sit above C^2 * min(A_{a,b}, pi a^2 / (4 b^2)), and a grid scan over
    torus labels re-confirms the bound by direct orbit computation.
    """
    if not window_top > 0:
        raise DomainError("window top must be positive")
    if scan_labels < 1:
        raise DomainError(f"scan_labels must be at least 1, got {scan_labels}")
    system = PlanarWellSystem.from_domain(D)
    a, b, C = D.a, D.b, D.well.C
    pa2 = math.pi * a * a
    group_i = tuple(j * pa2 for j in range(1, int(window_top / pa2) + 1))
    b_hat = min(area_constant(a, b), pa2 / (4.0 * b * b))
    bound = C * C * b_hat

    e_min = system.min_energy()
    grid = np.linspace(e_min + 1e-9 * max(1.0, abs(e_min)), 1.0, scan_labels)
    stop = scan_labels if budget is None else min(max(budget, 0), scan_labels)
    entries = []
    scan_min = math.inf
    for e in grid[:stop]:
        if abs(e) < 1e-9:
            continue  # vanishing well factor: belongs to group (i)
        c = [0.0] * D.n
        c[0] = 1.0 - float(e)
        c[D.n - D.k] = float(e)
        label = TorusLabel(c=tuple(c), n=D.n, k=D.k)
        floor = label_action_floor(system, float(e))
        entries.append((label, floor))
        scan_min = min(scan_min, floor)
    spectrum = ActionSpectrum(
        group_i=group_i, group_ii_min_bound=bound, window_top=window_top,
        scan_min_floor=scan_min, scan_entries=tuple(entries),
        labels_scanned=len(entries),
        scan_confirms_bound=_confirms(entries, scan_min, bound),
        partial=stop < scan_labels,
    )
    if spectrum.partial:
        raise ScanBudgetError(
            f"label scan budget {budget} exceeded at {stop}/{scan_labels}",
            partial=spectrum)
    return spectrum
