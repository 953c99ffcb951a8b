import dataclasses
import math

import numpy as np
import pytest

from symcone import IntegrableDomain, PlanarWellSystem, SmoothedWell
from symcone import orbits
from symcone.errors import AuditError, DomainError
from symcone.orbits import (
    OrbitRecord,
    area_constant,
    characteristic_spectrum,
    closed_orbit_at_energy,
    integrate_planar,
    label_action_floor,
    single_period_return,
    turning_points,
)


def test_energy_conservation_long_run(planar3):
    traj = integrate_planar(planar3, (0.4, 2.8), 100.0, step=2e-4)
    assert abs(traj.energy_end - traj.energy_start) < 1e-9
    assert traj.duration == 100.0


def test_integrator_fourth_order_convergence(planar3):
    z0, T = (0.4, 2.8), 2.0
    ref = integrate_planar(planar3, z0, T, step=1e-5).end
    e1 = np.linalg.norm(integrate_planar(planar3, z0, T, step=4e-3).end - ref)
    e2 = np.linalg.norm(integrate_planar(planar3, z0, T, step=2e-3).end - ref)
    assert e1 / e2 > 10.0  # halving the step buys ~2^4


def test_integrator_records_on_level(planar3):
    # 50 chunks of 0.1, each started from the previous chunk's end
    z = (0.4, 2.8)
    e0 = float(planar3.energy(*z))
    for _ in range(50):
        traj = integrate_planar(planar3, z, 0.1, step=1e-3)
        assert abs(traj.energy_end - e0) < 1e-6
        z = traj.end


def test_integrator_guards(planar3):
    with pytest.raises(DomainError):
        integrate_planar(planar3, (0.0, 1.0), -1.0)
    with pytest.raises(DomainError):
        integrate_planar(planar3, (np.nan, 1.0), 1.0)
    with pytest.raises(DomainError, match="integration diverged"):
        integrate_planar(planar3, (1e3, 1e3), 1e3, step=10.0)


def test_turning_points_lie_on_level(planar3):
    for e in (-5.0, -1.0, 0.5, 2.0):
        y_lo, y_hi = turning_points(planar3, e)
        assert y_lo < y_hi
        np.testing.assert_allclose(planar3.well.value([y_lo, y_hi]), e,
                                   rtol=0, atol=1e-12)
        if e > 0:
            assert y_lo == -y_hi  # single outer loop is symmetric
        else:
            assert y_lo > 0      # right-hand oval
    with pytest.raises(DomainError):
        turning_points(planar3, planar3.min_energy() - 0.1)


def test_turning_points_solve_the_outer_branch_for_high_levels(planar3):
    # at e = 100, far past 2C = 6, the crossing is the outer branch's root
    # sqrt((e + 4C^2)/3) = sqrt(136/3), and g = 3y^2 - 36 there is e to
    # within an ulp of 3y^2 = 136
    assert planar3.well.value_at(2.0 * planar3.well.C) < 100.0
    y_lo, y_hi = turning_points(planar3, 100.0)
    assert (y_lo, y_hi) == (-math.sqrt(136.0 / 3.0), math.sqrt(136.0 / 3.0))
    assert abs(planar3.well.value_at(float(y_hi)) - 100.0) <= np.spacing(136.0)


def _brentq_turning_points(system, e):
    """The scalar brentq route the batched turning points replaced: each
    crossing bracketed by the minimum and a band edge or 2C."""
    from scipy import optimize

    well, target = system.well, system.b ** 2 * e
    t_min = well.min_point()[0]

    def f(y):
        return well.value_at(y) - target

    y_top = optimize.brentq(f, t_min, max(2.0 * well.C, 2.0 * t_min),
                            xtol=1e-15, rtol=8.9e-16, maxiter=300)
    if e >= 0.0:
        return -y_top, y_top
    return optimize.brentq(f, 0.0, t_min, xtol=1e-15, rtol=8.9e-16,
                           maxiter=300), y_top


@pytest.mark.parametrize("C", [2.0, 4.0, 8.0])
def test_turning_points_match_brentq_on_every_criterion_03_level(C):
    # every level of the criterion-03 scan of 1000 labels, the deep ones
    # whose crossings lie in the blend band included: within brentq's own
    # xtol of 1e-15, plus 4 ulps of y, plus what 8 ulps of the level move
    # the crossing, 8 ulp(e) / |g'(y)|, which rules at the deepest levels,
    # where g' nearly vanishes
    system = PlanarWellSystem(a=1.0, b=1.0, well=SmoothedWell(C, C / 12.0))
    e_min = system.min_energy()
    es = np.linspace(e_min + 1e-9 * max(1.0, abs(e_min)), 1.0, 1000)
    es = es[np.abs(es) >= 1e-9]
    y_lo, y_hi = turning_points(system, es)
    want_lo, want_hi = np.array([_brentq_turning_points(system, e)
                                 for e in es.tolist()]).T
    t_lo, t_hi = system.well.band
    in_band = ((want_lo > t_lo) & (want_lo < t_hi)) | (want_hi < t_hi)
    assert in_band.any() and not in_band.all()
    for got, want in ((y_lo, want_lo), (y_hi, want_hi)):
        slope = np.abs(system.well.deriv(want))
        assert np.all(np.abs(got - want) <= 1e-15 + 4.0 * np.spacing(np.abs(want))
                      + 8.0 * np.spacing(np.abs(es)) / slope)


def test_closed_orbit_closure_and_mirror(planar3):
    orb = closed_orbit_at_energy(planar3, -5.0)
    np.testing.assert_array_equal(orb.samples[0], orb.samples[-1])
    assert orb.action > 0
    assert np.min(orb.samples[:, 1]) > 0  # the right oval


def test_period_closes_the_flow(planar3):
    for e in (-5.0, 0.8):
        orb = closed_orbit_at_energy(planar3, e)
        assert single_period_return(planar3, orb) < 1e-6


def test_zero_level_needs_homoclinic_route(planar3):
    with pytest.raises(DomainError, match="homoclinic"):
        closed_orbit_at_energy(planar3, 0.0)


def test_action_audit_catches_a_disagreeing_quadrature(planar3, monkeypatch):
    # A 1% error in the quadrature route is far past the 1e-4 cross-check.
    action_quadrature = orbits._action_quadrature
    monkeypatch.setattr(orbits, "_action_quadrature",
                        lambda *args: 1.01 * action_quadrature(*args))
    with pytest.raises(AuditError, match="disagree"):
        closed_orbit_at_energy(planar3, 0.5)
    # a quadrature area that is not a number disagrees with every area
    monkeypatch.setattr(orbits, "_action_quadrature",
                        lambda *args: np.nan * action_quadrature(*args))
    with pytest.raises(AuditError, match="quadrature area nan disagree"):
        closed_orbit_at_energy(planar3, 0.5)


def test_gauss_kronrod_rule_integrates_monomials_exactly():
    # G7 is exact to degree 13 and K15 to degree 22 on [-1, 1]; the next
    # even degree is not, which shows the nodes and weights are the pair's.
    x = orbits._GK_NODES
    for weights, degree in ((orbits._GK_GAUSS, 13), (orbits._GK_KRONROD, 22)):
        for d in range(degree + 1):
            exact = 2.0 / (d + 1) if d % 2 == 0 else 0.0
            assert abs(weights @ x ** d - exact) <= 1e-15, (degree, d)
        assert abs(weights @ x ** (degree + 2) - 2.0 / (degree + 3)) > 1e-10
    np.testing.assert_array_equal(x, -x[::-1])
    assert np.count_nonzero(orbits._GK_GAUSS) == 7


def _quad_level(system, e, y_lo, y_hi, weight):
    """The scalar scipy.integrate.quad route over the same integrand: the
    reference the kernel replaced."""
    from scipy import integrate

    well, b2 = system.well, system.b ** 2
    mid, half = 0.5 * (y_lo + y_hi), 0.5 * (y_hi - y_lo)

    def f(u):
        y = mid - half * math.cos(u)
        val = e - well.value_at(y) / b2
        return weight(half * math.sin(u), val) if val > 0.0 else 0.0

    return integrate.quad(f, 0.0, math.pi, limit=800, epsabs=1e-13,
                          epsrel=1e-11)[0]


@pytest.mark.parametrize("C", [2.0, 3.0, 5.0, 8.0])
def test_kernel_matches_scipy_quad_on_every_scan_level(C):
    system = PlanarWellSystem(a=1.0, b=1.0, well=SmoothedWell(C, C / 12.0))
    e_min = system.min_energy()
    grid = np.linspace(e_min + 1e-9 * max(1.0, abs(e_min)), 1.0, 200)
    es = grid[(grid >= -C * C / 4.0) & (np.abs(grid) >= 1e-9)]
    y_lo, y_hi = turning_points(system, es)
    area = orbits._action_quadrature(system, es, y_lo, y_hi)
    ref = [2.0 * _quad_level(system, e, lo, hi, lambda w, val: w * math.sqrt(val))
           for e, lo, hi in zip(es, y_lo, y_hi)]
    np.testing.assert_allclose(area, ref, rtol=2e-9, atol=0)
    # the period's weight has the turning-point factor 1/sqrt(val)
    for e, lo, hi in list(zip(es, y_lo, y_hi))[::10]:
        period = orbits._period_quadrature(system, float(e), lo, hi)
        assert period == pytest.approx(
            _quad_level(system, e, lo, hi, lambda w, val: w / math.sqrt(val)),
            rel=2e-9, abs=0)


def test_kernel_round_cap_raises(planar3, monkeypatch):
    # quad warned at its subinterval limit and returned; the kernel refuses
    monkeypatch.setattr(orbits, "_GK_ROUNDS", 1)
    with pytest.raises(AuditError, match="1 rounds"):
        closed_orbit_at_energy(planar3, -1.0)
    with pytest.raises(AuditError, match="1 rounds"):
        label_action_floor(planar3, 0.5)


def test_kernel_panel_cap_raises(well3, monkeypatch):
    # a level a hair below the rim at b = 3 keeps bisecting at its inner
    # turning point until it holds more than _GK_PANELS live panels, long
    # before the round cap: one call of the well per round, then the raise
    system = PlanarWellSystem(a=1.0, b=3.0, well=well3)
    e = -1e-12
    (y_lo,), (y_hi,) = turning_points(system, np.array([e]))
    array_value = SmoothedWell.value
    rounds = []

    def counting(self, t):
        rounds.append(np.shape(t))
        return array_value(self, t)

    monkeypatch.setattr(SmoothedWell, "value", counting)
    with pytest.raises(AuditError, match="at most 256 panels"):
        orbits._period_quadrature(system, e, float(y_lo), float(y_hi))
    assert len(rounds) == 23 < orbits._GK_ROUNDS
    assert orbits._GK_PANELS / 2 < rounds[-1][0] <= orbits._GK_PANELS


def test_orbit_record_validation():
    pts = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(DomainError):
        OrbitRecord(samples=pts, period=0.0, energy=1.0, action=1.0)
    with pytest.raises(DomainError):
        OrbitRecord(samples=pts, period=1.0, energy=1.0, action=-1.0)
    open_pts = np.array([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(DomainError):
        OrbitRecord(samples=open_pts, period=1.0, energy=1.0, action=1.0)


def test_orbit_record_refuses_a_near_miss():
    """Samples that miss closing by 1e-4 are not a closed orbit; a miss
    of 1e-7 is within the closure tolerance."""
    pts = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [1.0, 1e-4]])
    with pytest.raises(DomainError, match="fails to close: gap 0.0001"):
        OrbitRecord(samples=pts, period=1.0, energy=1.0, action=1.0)
    pts[-1, 1] = 1e-7
    OrbitRecord(samples=pts, period=1.0, energy=1.0, action=1.0)


@pytest.mark.parametrize("a, b", [(0.0, 1.0), (1.0, -2.0)])
def test_planar_system_needs_positive_scales(well3, a, b):
    with pytest.raises(DomainError, match=r"^need a, b > 0$"):
        PlanarWellSystem(a=a, b=b, well=well3)


@pytest.mark.parametrize("group_i, bound, message", [
    ((1.0, 2.0, 2.0), 1.0, "round-orbit actions must be strictly increasing"),
    ((3.0, 1.0), 1.0, "round-orbit actions must be strictly increasing"),
    ((1.0, 2.0), 0.0, "well-orbit action bound must be positive"),
    ((1.0, 2.0), -1.0, "well-orbit action bound must be positive"),
])
def test_action_spectrum_refuses_bad_groups(group_i, bound, message):
    with pytest.raises(DomainError, match=f"^{message}$"):
        orbits.ActionSpectrum(group_i=group_i, group_ii_min_bound=bound,
                              window_top=10.0)


def test_area_constant_value_and_scaling():
    assert abs(area_constant(1.0, 1.0) - 0.13780111571209303) < 1e-13
    np.testing.assert_allclose(area_constant(2.0, 5.0),
                               0.4 * area_constant(1.0, 1.0), rtol=1e-12)
    with pytest.raises(DomainError):
        area_constant(0.0, 1.0)


def test_area_constant_is_bitwise_the_segment_quadrature():
    """The closed form equals, bit for bit, the quadrature of the segment's
    chord width 2 sqrt(15/4 - 3 eta^2) over 1 <= eta <= sqrt(5)/2."""
    from scipy import integrate

    def width(eta):
        val = 15.0 / 4.0 - 3.0 * eta * eta
        return 2.0 * math.sqrt(val) if val > 0.0 else 0.0

    seg, _ = integrate.quad(width, 1.0, math.sqrt(5.0) / 2.0, limit=400,
                            epsabs=1e-14, epsrel=1e-12)
    assert area_constant(1.0, 1.0) == seg
    rng = np.random.default_rng(21)
    for a, b in rng.uniform(0.01, 100.0, size=(2000, 2)):
        assert area_constant(a, b) == (a / b) * seg


def test_action_floor_two_regimes(planar3):
    # Deep in the well the round factor must wind: floor is pi a^2 (1-e).
    np.testing.assert_allclose(label_action_floor(planar3, -3.0),
                               np.pi * 4.0, rtol=1e-12)
    # Near the rim the planar orbit's own area binds.
    orb = closed_orbit_at_energy(planar3, -1.0)
    np.testing.assert_allclose(label_action_floor(planar3, -1.0), orb.action,
                               rtol=1e-12)


def test_spectrum_round_actions_and_scan(domain3):
    spec = characteristic_spectrum(domain3, window_top=10.0, scan_labels=120)
    assert spec.group_i == (math.pi, 2 * math.pi, 3 * math.pi)
    assert spec.group_ii_min_bound > 1.0
    assert spec.scan_min_floor > spec.group_ii_min_bound
    assert spec.scan_confirms_bound and not spec.partial
    assert spec.labels_scanned == 120
    assert spec.scan_energies.shape == spec.scan_floors.shape == (120,)
    assert np.all(np.diff(spec.scan_energies) > 0) and spec.scan_energies[-1] == 1.0
    assert spec.scan_min_floor == np.min(spec.scan_floors)
    e = spec.scan_energies[::30]
    np.testing.assert_allclose(
        spec.scan_floors[::30],
        [label_action_floor(PlanarWellSystem.from_domain(domain3), x) for x in e],
        rtol=1e-12)


def test_level_scan_keeps_to_the_scalar_well(domain3, monkeypatch):
    # No 0-d array reaches the array form of g.  It serves the contour
    # calls first, full blocks of CONTOUR_BLOCK levels and then the rest, a
    # row of CONTOUR_POINTS each, and then one call per round of the
    # quadrature kernel, whose first round holds one panel per blend-band
    # piece of every audited level.  Every turning point of the scan lies
    # past the band, so no bisection runs.
    array_value = SmoothedWell.value
    shapes = []

    def counting(self, t):
        shapes.append(np.shape(t))
        return array_value(self, t)

    monkeypatch.setattr(SmoothedWell, "value", counting)
    spec = characteristic_spectrum(domain3, 10.0, scan_labels=20)
    assert spec.labels_scanned == 20
    assert () not in shapes
    n_contours = next(i for i, shape in enumerate(shapes)
                      if shape[1] != orbits.CONTOUR_POINTS)
    contours, rounds = shapes[:n_contours], shapes[n_contours:]
    levels = sum(rows for rows, _ in contours)
    assert 0 < levels <= spec.labels_scanned
    full, rest = divmod(levels, orbits.CONTOUR_BLOCK)
    assert contours == ([(orbits.CONTOUR_BLOCK, orbits.CONTOUR_POINTS)] * full
                        + [(rest, orbits.CONTOUR_POINTS)] * (rest > 0))
    assert 0 < len(rounds) <= orbits._GK_ROUNDS
    assert levels <= rounds[0][0] <= 5 * levels
    assert all(shape[1] == orbits._GK_NODES.size for shape in rounds)


@pytest.mark.parametrize("C", [3.0, 5.0, 8.0])
def test_blocked_floors_are_the_one_block_areas(C):
    # Each contour row's area is reduced on its own, so the scan's blocks
    # give the floors of one contour call over all audited levels bit for
    # bit; 40 labels audit 11 to 13 levels, three or four blocks and a
    # ragged one.
    D = IntegrableDomain(n=2, k=1, a=1.0, b=1.0,
                         well=SmoothedWell(C, C / 12.0))
    system = PlanarWellSystem.from_domain(D)
    spec = characteristic_spectrum(D, 10.0, scan_labels=40)
    above = spec.scan_energies >= -C ** 2 / 4.0
    e = spec.scan_energies[above]
    assert e.size > 2 * orbits.CONTOUR_BLOCK and e.size % orbits.CONTOUR_BLOCK
    y_lo, y_hi = turning_points(system, e)
    x, y = orbits._contours(system, e, y_lo, y_hi)
    one_block = orbits._shoelace(x, y)
    assert np.array_equal(orbits._contour_areas(system, e, y_lo, y_hi), one_block)
    assert np.array_equal(spec.scan_floors[above], np.maximum(one_block, 0.0))
    # the orbit record still traces its one level as that call's row
    for i in (0, e.size // 2, e.size - 1):
        rec = closed_orbit_at_energy(system, float(e[i]))
        assert rec.action == max(one_block[i], 0.0)
        assert np.array_equal(rec.samples[:-1], np.column_stack([x[i], y[i]]))
        assert np.array_equal(rec.samples[-1], rec.samples[0])


def test_level_scan_computes_no_period(domain3, monkeypatch):
    # A label's floor is an action; the scan has no use for the period
    # quadrature that closed_orbit_at_energy adds.
    period_quadrature, calls = orbits._period_quadrature, []

    def counting(*args):
        calls.append(args)
        return period_quadrature(*args)

    monkeypatch.setattr(orbits, "_period_quadrature", counting)
    spec = characteristic_spectrum(domain3, 10.0, scan_labels=20)
    assert spec.labels_scanned == 20 and calls == []
    closed_orbit_at_energy(PlanarWellSystem.from_domain(domain3), -1.0)
    assert len(calls) == 1  # the orbit record still measures its period


def test_level_scan_searches_the_well_minimum_once(monkeypatch):
    # Every label needs the well's minimum; it is searched once, when the
    # well is built, and held on it without becoming a field.  The search
    # is a bisection on the sign of g', the only reader of deriv_at in a
    # scan.
    deriv_at, calls = SmoothedWell.deriv_at, []

    def counting(self, t):
        calls.append(t)
        return deriv_at(self, t)

    monkeypatch.setattr(SmoothedWell, "deriv_at", counting)
    well = SmoothedWell(C=3.0, eps=0.25)
    searched = len(calls)
    assert 40 <= searched <= 64  # halvings of the band down to one ulp
    D = IntegrableDomain(n=2, k=1, a=1.0, b=1.0, well=well)
    spec = characteristic_spectrum(D, 10.0, scan_labels=20)
    assert spec.labels_scanned == 20 and len(calls) == searched
    assert well.min_point() == well.min_point() and len(calls) == searched
    assert [f.name for f in dataclasses.fields(well)] == ["C", "eps"]
    assert well == SmoothedWell(C=well.C, eps=well.eps)


def test_spectrum_budget_interrupt(domain3):
    # a budget stop is returned, not raised: the spectrum of the labels
    # scanned, marked partial, with the full scan's first 25 floors
    partial = characteristic_spectrum(domain3, window_top=10.0,
                                      scan_labels=120, budget=25)
    assert partial.partial and partial.labels_scanned == 25
    assert partial.scan_confirms_bound
    full = characteristic_spectrum(domain3, window_top=10.0, scan_labels=120)
    assert not full.partial and full.labels_scanned == 120
    assert np.array_equal(partial.scan_floors, full.scan_floors[:25])
