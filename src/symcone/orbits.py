"""Planar dynamics of the double-well Hamiltonian, closed-orbit geometry,
and the action spectrum of the integrable domains built from it.

The planar system is h(x, y) = x^2/a^2 + g(y)/b^2 with g the smoothed
well.  Its flow (counterclockwise convention, so enclosed areas are
nonnegative) is integrated with a splitting method that is exact on each
of the two separable pieces; level curves, periods and actions are
computed independently of the integrator by 1-D quadrature and contour
geometry, which lets the two routes audit each other.

The quadrature route is one adaptive Gauss-Kronrod kernel (QUADPACK's
G7-K15 pair) that integrates a whole batch of levels at once: every live
panel of every level is evaluated in one array call of the well per
round.  A level's floor is the shoelace area of its traced contour.  The
label scan traces its contours CONTOUR_BLOCK levels at a time, so only
their areas outlive a block, and the kernel's area of all scanned levels
audits those floors in one call.
"""
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .domains import IntegrableDomain, SmoothedWell
from .errors import AuditError, DomainError

__all__ = [
    "PlanarWellSystem", "PlanarTrajectory", "OrbitRecord", "ActionSpectrum",
    "integrate_planar", "closed_orbit_at_energy", "area_constant",
    "label_action_floor", "characteristic_spectrum", "single_period_return",
]

# 4th-order Yoshida composition for a two-map splitting: three kicks, and
# drifts that are half-sums of neighbouring kicks (zero-padded at the ends)
_W1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
_KICKS = (_W1, 1.0 - 2.0 * _W1, _W1)
_DRIFTS = (0.5 * _W1, 0.5 * (_W1 + _KICKS[1]), 0.5 * (_W1 + _KICKS[1]),
           0.5 * _W1)

# vertices of a traced level-set contour, at u = 2 pi j / CONTOUR_POINTS
# on every level: cos u, and the sign of sin u that puts a vertex on the
# left or the right half
CONTOUR_POINTS = 2048
_CONTOUR_U = 2.0 * math.pi * np.arange(CONTOUR_POINTS) / CONTOUR_POINTS
_CONTOUR_COS, _CONTOUR_SIDE = np.cos(_CONTOUR_U), np.sign(np.sin(_CONTOUR_U))
# levels per block of the label scan's contours: a (3, 2048) array of
# doubles is 48 KiB.  Tracing all audited levels at once made every
# temporary 200-330 KB, over glibc's 128 KiB mmap threshold, so each was
# mapped, faulted in and unmapped on every scan.  Below that threshold
# the heap's top is still given back whenever a freed chunk of 64 KiB or
# more leaves more free space there than the trim threshold, and that
# threshold rises only after an earlier free of a mapped chunk: so with
# (4, 2048) blocks, exactly 64 KiB, a job took 0 or about 280 minor faults
# (`resource.getrusage`) depending on what the process had loaded before.
# Every block temporary under 64 KiB (and the well's grid check in blocks,
# `domains.SmoothedWell._audit`) frees no chunk that can trim the heap,
# and a repeated job takes no fresh pages either way.
CONTOUR_BLOCK = 3
# the most round-orbit actions group I lists: the report prints every
# one, so a window that holds more is refused before any is built
GROUP_I_MAX = 10 ** 5

# QUADPACK's qk15 rule on [-1, 1] (Piessens et al., QUADPACK, Springer
# 1983): nodes from -1 up to the midpoint, their Kronrod weights, and the
# weights of the embedded 7-point Gauss rule, which uses every second node;
# the other half mirrors them
_GK_X = np.array([
    -0.991455371120812639206854697526329, -0.949107912342758524526189684047851,
    -0.864864423359769072789712788640926, -0.741531185599394439863864773280788,
    -0.586087235467691130294144845693013, -0.405845151377397166906606412076961,
    -0.207784955007898467600689403773245, 0.0])
_GK_WK = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714])
_GK_WG = np.array([
    0.0, 0.129484966168869693270611432679082, 0.0, 0.279705391489276667901467771423780,
    0.0, 0.381830050505118944950369775488975, 0.0, 0.417959183673469387755102040816327])
_GK_NODES = np.concatenate([_GK_X, -_GK_X[-2::-1]])
_GK_KRONROD = np.concatenate([_GK_WK, _GK_WK[-2::-1]])
_GK_GAUSS = np.concatenate([_GK_WG, _GK_WG[-2::-1]])
# tolerances of the level quadrature; it gives up with an AuditError
# after _GK_ROUNDS rounds of bisection, or once a level holds more than
# _GK_PANELS live panels (rounding noise near a turning point can keep
# every panel there over its share, and the panels would double each round)
_GK_EPSABS, _GK_EPSREL = 1e-13, 1e-11
_GK_ROUNDS, _GK_PANELS = 60, 256

# area of the ellipse segment {chi^2 + 3 eta^2 <= 15/4, eta >= 1}: semi-axes
# sqrt(15)/2 and sqrt(5)/2, cut at half-angle acos(2/sqrt(5)) from the eta axis
_SEGMENT_AREA = math.sqrt(3.0) * (1.25 * math.acos(2.0 / math.sqrt(5.0)) - 0.5)


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


def integrate_planar(system: PlanarWellSystem, z0, duration: float,
                     step: float = 2e-4) -> PlanarTrajectory:
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

    def advance(h: float, x: float, y: float):
        for i, d in enumerate(_KICKS):
            y += _DRIFTS[i] * h * ay * x
            x -= d * h * bk * gp(y)
        y += _DRIFTS[-1] * h * ay * x
        return x, y

    for _ in range(n_full):
        x, y = advance(step, x, y)
    if rem > 0.0:
        x, y = advance(rem, x, y)
    if not (math.isfinite(x) and math.isfinite(y)):
        raise DomainError("integration diverged")
    return PlanarTrajectory(
        start=np.array([float(z0[0]), float(z0[1])]), end=np.array([x, y]),
        duration=duration, step=step, energy_start=e0,
        energy_end=float(system.energy(x, y)),
    )


# --------------------------------------------------------------------------
# level-curve geometry


def turning_points(system: PlanarWellSystem, es):
    """y-intervals (y_lo, y_hi) of the levels {h = e} at every energy of
    es, as arrays of its shape: x vanishes at the endpoints.  For e in
    (min energy, 0) they bound the right-hand oval (mirror for the left);
    for e > 0 they are (-y_max, y_max) of the single outer loop.  The
    crossings are the well's own (`SmoothedWell.level_crossings`) at the
    levels b^2 e; an empty level is refused.
    """
    es = np.asarray(es, dtype=float)
    e_min = system.min_energy()
    if np.any(es <= e_min):
        raise DomainError(f"energy {es.min()} at or below the minimum {e_min}: "
                          f"empty level")
    target = system.b ** 2 * np.atleast_1d(es)
    y_lo, y_hi = system.well.level_crossings(target)
    return (np.where(target >= 0.0, -y_hi, y_lo).reshape(es.shape),
            y_hi.reshape(es.shape))


def _level_quadrature(system: PlanarWellSystem, e, y_lo, y_hi,
                      weight) -> np.ndarray:
    """int weight(dy/du, e - g(y)/b^2) du over [0, pi] at every level of the
    arrays (e, y_lo, y_hi), where the cosine substitution
    y = mid - half cos u runs over [y_lo, y_hi] and absorbs the square-root
    turning-point singularities; the integrand is 0 where e - g(y)/b^2 <= 0.

    Adaptive Gauss-Kronrod over the whole batch.  A level's first panels
    end where y crosses an edge of the well's blend band, past which g is
    only C^4.  Each round evaluates every live panel of every level with
    QUADPACK's G7-K15 pair in one array call of the well, and takes
    |K15 - G7| as a panel's error.  A level is done once its errors sum
    to within its tolerance (relative 1e-11, absolute 1e-13).  Until then
    a panel is bisected if its error is over its share, an equal part of
    what the tolerance leaves after the panels already accepted, and
    accepted if not.  AuditError if a level is not done within
    _GK_ROUNDS rounds, or holds more than _GK_PANELS live panels.
    """
    e, y_lo, y_hi = (np.asarray(v, dtype=float) for v in (e, y_lo, y_hi))
    well, b2 = system.well, system.b ** 2
    mid, half = 0.5 * (y_lo + y_hi), 0.5 * (y_hi - y_lo)
    n = e.size
    t_lo, t_hi = well.band  # y rises with u on [0, pi]
    edges = np.array([-t_hi, -t_lo, t_lo, t_hi])
    breaks = np.arccos(np.clip((mid[:, None] - edges) / half[:, None], -1.0, 1.0))
    breaks = np.column_stack([np.zeros(n), breaks, np.full(n, math.pi)])
    width = np.diff(breaks, axis=1).ravel()
    first = width > 0.0
    level = np.repeat(np.arange(n), edges.size + 1)[first]   # of each live panel
    lo, width = breaks[:, :-1].ravel()[first], width[first]
    total, spent = np.zeros(n), np.zeros(n)   # over accepted panels
    for _ in range(_GK_ROUNDS):
        live = np.bincount(level, minlength=n)
        if live.max() > _GK_PANELS:
            break
        u = lo[:, None] + 0.5 * width[:, None] * (1.0 + _GK_NODES)
        val = e[level, None] - well.value(mid[level, None]
                                          - half[level, None] * np.cos(u)) / b2
        f = np.zeros_like(val)
        pos = val > 0.0
        f[pos] = weight((half[level, None] * np.sin(u))[pos], val[pos])
        kronrod = 0.5 * width * (f @ _GK_KRONROD)
        err = 0.5 * width * np.abs(f @ (_GK_KRONROD - _GK_GAUSS))
        estimate = total + np.bincount(level, kronrod, minlength=n)
        budget = np.maximum(_GK_EPSABS, _GK_EPSREL * np.abs(estimate)) - spent
        done = np.bincount(level, err, minlength=n) <= budget
        share = budget[level] / live[level]
        split = ~done[level] & (err > share)
        keep = ~split
        total += np.bincount(level[keep], kronrod[keep], minlength=n)
        spent += np.bincount(level[keep], err[keep], minlength=n)
        if not split.any():
            return total
        level = np.repeat(level[split], 2)
        width = np.repeat(0.5 * width[split], 2)
        lo = np.repeat(lo[split], 2) + width * np.tile([0.0, 1.0], split.sum())
    raise AuditError(f"level quadrature not within tolerance in {_GK_ROUNDS} "
                     f"rounds of at most {_GK_PANELS} panels a level")


def _period_quadrature(system: PlanarWellSystem, e: float,
                       y_lo: float, y_hi: float) -> float:
    """T = contour integral of dl/|grad h| = a * int dy / sqrt(e - g/b^2)."""
    return system.a * float(_level_quadrature(
        system, [e], [y_lo], [y_hi], lambda w, val: w / np.sqrt(val))[0])


def _action_quadrature(system: PlanarWellSystem, e, y_lo, y_hi) -> np.ndarray:
    """Enclosed areas = 2a * int sqrt(e - g/b^2) dy over the y-ranges."""
    return 2.0 * system.a * _level_quadrature(system, e, y_lo, y_hi,
                                              lambda w, val: w * np.sqrt(val))


def _contours(system: PlanarWellSystem, es, y_lo, y_hi):
    """Vertices (x, y) of the closed level-curve polygons of the levels
    (es, y_lo, y_hi), one cosine-clustered row of CONTOUR_POINTS each, from
    one array call of the well on all the rows it is given."""
    well, b2, a = system.well, system.b ** 2, system.a
    mid, half = 0.5 * (y_lo + y_hi), 0.5 * (y_hi - y_lo)
    y = mid[:, None] - half[:, None] * _CONTOUR_COS
    val = np.maximum(es[:, None] - well.value(y) / b2, 0.0)
    return a * np.sqrt(val) * _CONTOUR_SIDE, y


def _shoelace(x, y) -> np.ndarray:
    """Areas of the closed polygons with vertex rows x, y."""
    xn, yn = np.roll(x, -1, axis=1), np.roll(y, -1, axis=1)
    return 0.5 * np.sum(x * yn - xn * y, axis=1)


@dataclass
class OrbitRecord:
    samples: np.ndarray
    period: float
    energy: float
    action: float

    def __post_init__(self):
        if not self.period > 0:
            raise DomainError("period must be positive")
        if self.action < -1e-9:
            raise DomainError(f"negative orbit action {self.action}")
        gap = float(np.linalg.norm(self.samples[0] - self.samples[-1]))
        if gap > 1e-6:
            raise DomainError(f"closed orbit fails to close: gap {gap}")


def _closed_levels(system: PlanarWellSystem, es):
    """Turning points (y_lo, y_hi) of the closed components of the levels
    {h = e} at every energy of es; see `closed_orbit_at_energy`."""
    if np.any(es == 0.0):
        raise DomainError("zero level is the homoclinic figure-eight, not a "
                          "closed orbit")
    return turning_points(system, es)


def _contour_areas(system: PlanarWellSystem, es, y_lo, y_hi) -> np.ndarray:
    """Shoelace areas of the levels' contours, traced CONTOUR_BLOCK levels
    at a time.  Each row's area is reduced on its own, so it is bitwise
    the area of that row traced in any batch."""
    area = np.empty(es.size)
    for i in range(0, es.size, CONTOUR_BLOCK):
        rows = slice(i, i + CONTOUR_BLOCK)
        area[rows] = _shoelace(*_contours(system, es[rows], y_lo[rows], y_hi[rows]))
    return area


def _audited_areas(system: PlanarWellSystem, e, y_lo, y_hi, area) -> np.ndarray:
    """The contour areas of the levels (e, y_lo, y_hi), audited against
    the quadrature route to a relative 1e-4 in one kernel call; an area
    that is not finite on either route fails."""
    e, area = np.asarray(e, dtype=float), np.asarray(area, dtype=float)
    area_q = _action_quadrature(system, e, y_lo, y_hi)
    bad = ~(np.abs(area - area_q) <= 1e-4 * np.maximum(np.abs(area_q), 1e-12))
    if bad.any():
        i = int(np.argmax(bad))
        raise AuditError(f"contour area {area[i]} and quadrature area "
                         f"{area_q[i]} disagree at energy {e[i]}")
    return np.maximum(area, 0.0)


def closed_orbit_at_energy(system: PlanarWellSystem, e: float) -> OrbitRecord:
    """Trace the closed component of {h = e} and measure period and action.

    For e < 0 the component is the right oval, around the positive well
    (the left one is its mirror image); levels with e > 0 have a single
    outer component.  The action is the shoelace area of the traced
    contour, audited against the independent quadrature route to a
    relative 1e-4.
    """
    es = np.array([e], dtype=float)
    y_lo, y_hi = _closed_levels(system, es)
    x, y = _contours(system, es, y_lo, y_hi)
    action = float(_audited_areas(system, es, y_lo, y_hi, _shoelace(x, y))[0])
    period = _period_quadrature(system, e, float(y_lo[0]), float(y_hi[0]))
    pts = np.column_stack([np.append(x[0], x[0, 0]), np.append(y[0], y[0, 0])])
    return OrbitRecord(samples=pts, period=period, energy=e, action=action)


def single_period_return(system: PlanarWellSystem, orbit: OrbitRecord) -> float:
    """Distance back to the start after integrating for one period at the
    integrator's default step."""
    traj = integrate_planar(system, orbit.samples[0], orbit.period)
    return float(np.linalg.norm(traj.end - orbit.samples[0]))


# --------------------------------------------------------------------------
# spectrum


def area_constant(a: float, b: float) -> float:
    """(a/b) times the area of the ellipse segment
    {chi^2 + 3 eta^2 <= 15/4, eta >= 1}."""
    if not (a > 0 and b > 0):
        raise DomainError("need a, b > 0")
    return (a / b) * _SEGMENT_AREA


@dataclass
class ActionSpectrum:
    group_i: tuple
    group_ii_min_bound: float
    window_top: float
    scan_min_floor: float = math.inf
    # the well energy e of each scanned torus label, whose commuting
    # integrals are c_1 = 1 - e and c_{n-k+1} = e (0 elsewhere), and the
    # label's action floor
    scan_energies: np.ndarray = field(default_factory=lambda: np.empty(0))
    scan_floors: np.ndarray = field(default_factory=lambda: np.empty(0))
    labels_scanned: int = 0
    scan_confirms_bound: bool = False
    # set when a budget stopped the scan before its last label
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
    return float(_label_floors(system, np.array([e], dtype=float))[0])


def _label_floors(system: PlanarWellSystem, es: np.ndarray) -> np.ndarray:
    """`label_action_floor` at every energy of es: the turning points of
    all levels above the threshold in one solve, their contours and areas
    in blocks of CONTOUR_BLOCK levels, and those areas audited in one
    kernel call."""
    threshold = -system.well.C ** 2 / (4.0 * system.b ** 2)
    floors = math.pi * system.a ** 2 * (1.0 - es)
    above = es >= threshold
    if above.any():
        e = es[above]
        y_lo, y_hi = _closed_levels(system, e)
        floors[above] = _audited_areas(system, e, y_lo, y_hi,
                                       _contour_areas(system, e, y_lo, y_hi))
    return floors


def clears_bound(floor, bound) -> bool:
    """A scanned action floor confirms the bound to a relative 1e-3."""
    return floor >= bound * (1.0 - 1e-3)


def characteristic_spectrum(D: IntegrableDomain, window_top: float,
                            scan_labels: int = 1000,
                            budget: Optional[int] = None) -> ActionSpectrum:
    """Enumerate the closed-characteristic actions of the boundary.

    Group (i): round orbits on the sphere of radius a in the first
    coordinate block, with actions k*pi*a^2 up to the window.  Group
    (ii): everything with a nonzero well factor; these are certified to
    sit above C^2 * min(A_{a,b}, pi a^2 / (4 b^2)), and a grid scan over
    torus labels re-confirms the bound by direct orbit computation.  A
    budget below scan_labels stops the scan after that many grid labels,
    and the spectrum it returns has `partial` set.
    """
    if not window_top > 0:
        raise DomainError("window top must be positive")
    if scan_labels < 1:
        raise DomainError(f"scan_labels must be at least 1, got {scan_labels}")
    if budget is not None and budget < 0:
        raise DomainError(f"label scan budget must be nonnegative, got {budget}")
    system = PlanarWellSystem.from_domain(D)
    a, b, C = D.a, D.b, D.well.C
    pa2 = math.pi * a * a
    # group I lists floor(window_top / pa2) actions
    if not window_top / pa2 < GROUP_I_MAX + 1:
        raise DomainError(f"window top {window_top:g} holds more than "
                          f"{GROUP_I_MAX} round orbits of action pi a^2 = {pa2:g}")
    group_i = tuple(j * pa2 for j in range(1, int(window_top / pa2) + 1))
    b_hat = min(area_constant(a, b), pa2 / (4.0 * b * b))
    bound = C * C * b_hat

    e_min = system.min_energy()
    # the deepest label's floor pi a^2 (1 - e_min) is the largest one
    if not math.isfinite(pa2 * (1.0 - e_min)):
        raise DomainError(f"minimum energy {e_min:g} at b = {b:g}, C = {C:g} "
                          f"puts the action floors pi a^2 (1 - e) past the "
                          f"finite floats")
    grid = np.linspace(e_min + 1e-9 * max(1.0, abs(e_min)), 1.0, scan_labels)
    stop = scan_labels if budget is None else min(budget, scan_labels)
    es = grid[:stop]
    es = es[np.abs(es) >= 1e-9]  # a vanishing well factor belongs to group (i)
    floors = _label_floors(system, es)
    scan_min = float(np.min(floors)) if es.size else math.inf
    return ActionSpectrum(
        group_i=group_i, group_ii_min_bound=bound, window_top=window_top,
        scan_min_floor=scan_min, scan_energies=es, scan_floors=floors,
        labels_scanned=int(es.size),
        # an empty scan is vacuous: it confirms nothing
        scan_confirms_bound=bool(es.size) and clears_bound(scan_min, bound),
        partial=stop < scan_labels,
    )
