import dataclasses
import math

import numpy as np
import pytest

from symcone import (IntegrableDomain, PlanarWellSystem, SmoothedWell,
                     build_smoothed_well)
from symcone import orbits
from symcone.errors import DomainError, ScanBudgetError
from symcone.orbits import (
    OrbitRecord,
    area_constant,
    characteristic_spectrum,
    closed_orbit_at_energy,
    contour_period,
    homoclinic_loop,
    integrate_planar,
    label_action_floor,
    single_period_return,
    turning_points,
    TorusLabel,
)


def test_field_is_rotated_gradient(planar3):
    rng = np.random.default_rng(5)
    pts = rng.uniform(-3.0, 3.0, size=(60, 2))
    h = 1e-6
    fx, fy = planar3.field(pts[:, 0], pts[:, 1])
    dhdx = (planar3.energy(pts[:, 0] + h, pts[:, 1])
            - planar3.energy(pts[:, 0] - h, pts[:, 1])) / (2 * h)
    dhdy = (planar3.energy(pts[:, 0], pts[:, 1] + h)
            - planar3.energy(pts[:, 0], pts[:, 1] - h)) / (2 * h)
    np.testing.assert_allclose(fx, -dhdy, rtol=0, atol=5e-5)
    np.testing.assert_allclose(fy, dhdx, rtol=0, atol=5e-5)


def test_energy_conservation_long_run(planar3):
    traj = integrate_planar(planar3, (0.4, 2.8), 100.0, step=2e-4)
    assert traj.energy_drift < 1e-9
    assert traj.duration == 100.0


def test_integrator_fourth_order_convergence(planar3):
    z0, T = (0.4, 2.8), 2.0
    ref = integrate_planar(planar3, z0, T, step=1e-5).end
    e1 = np.linalg.norm(integrate_planar(planar3, z0, T, step=4e-3).end - ref)
    e2 = np.linalg.norm(integrate_planar(planar3, z0, T, step=2e-3).end - ref)
    assert e1 / e2 > 10.0  # halving the step buys ~2^4


def test_integrator_records_on_level(planar3):
    traj = integrate_planar(planar3, (0.4, 2.8), 5.0, step=1e-3,
                            record_stride=100)
    assert traj.samples is not None and traj.samples.shape[0] >= 50
    es = planar3.energy(traj.samples[:, 0], traj.samples[:, 1])
    assert np.max(np.abs(es - traj.energy_start)) < 1e-6


def test_integrator_guards(planar3):
    with pytest.raises(DomainError):
        integrate_planar(planar3, (0.0, 1.0), -1.0)
    with pytest.raises(DomainError):
        integrate_planar(planar3, (np.nan, 1.0), 1.0)


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


def test_closed_orbit_closure_and_mirror(planar3):
    orb = closed_orbit_at_energy(planar3, -5.0)
    assert orb.closed and not orb.homoclinic_flag
    np.testing.assert_array_equal(orb.samples[0], orb.samples[-1])
    assert orb.action > 0

    orb_left = closed_orbit_at_energy(planar3, -5.0, branch="left")
    np.testing.assert_allclose(orb_left.action, orb.action, rtol=1e-12)
    assert np.max(orb_left.samples[:, 1]) < 0 < np.min(orb.samples[:, 1])


def test_period_two_routes_agree(planar3):
    orb = closed_orbit_at_energy(planar3, -5.0)
    # quadrature period vs polygonal dl/|grad h| resummation
    assert abs(contour_period(planar3, orb) - orb.period) < 1e-4 * orb.period


def test_period_closes_the_flow(planar3):
    for e in (-5.0, 0.8):
        orb = closed_orbit_at_energy(planar3, e)
        assert single_period_return(planar3, orb, step=2e-4) < 1e-6


def test_zero_level_needs_homoclinic_route(planar3):
    with pytest.raises(DomainError):
        closed_orbit_at_energy(planar3, 0.0)
    with pytest.raises(DomainError):
        closed_orbit_at_energy(planar3, -1.0, branch="sideways")
    with pytest.raises(DomainError):
        closed_orbit_at_energy(planar3, 1.0, branch="left")


def test_homoclinic_loop_geometry(planar3):
    hom = homoclinic_loop(planar3)
    assert hom.homoclinic_flag and not hom.closed
    assert hom.period == math.inf
    # Oval areas grow toward the loop from below; past the saddle the
    # single outer contour encloses both lobes.
    below = closed_orbit_at_energy(planar3, -0.2).action
    above = closed_orbit_at_energy(planar3, 0.5).action
    assert below < hom.action
    assert 2.0 * hom.action < above


def test_orbit_record_validation():
    pts = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(DomainError):
        OrbitRecord(samples=pts, period=0.0, energy=1.0, action=1.0, closed=True)
    with pytest.raises(DomainError):
        OrbitRecord(samples=pts, period=1.0, energy=1.0, action=-1.0, closed=True)
    open_pts = np.array([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(DomainError):
        OrbitRecord(samples=open_pts, period=1.0, energy=1.0, action=1.0,
                    closed=True)


def test_area_constant_value_and_scaling():
    assert abs(area_constant(1.0, 1.0) - 0.13780111571209303) < 1e-13
    np.testing.assert_allclose(area_constant(2.0, 5.0),
                               0.4 * area_constant(1.0, 1.0), rtol=1e-12)
    with pytest.raises(DomainError):
        area_constant(0.0, 1.0)


def test_torus_label_validation():
    TorusLabel(c=(0.25, 0.75), n=2, k=1)
    with pytest.raises(DomainError):
        TorusLabel(c=(0.25, 0.25), n=2, k=1)     # does not sum to one
    with pytest.raises(DomainError):
        TorusLabel(c=(1.0,), n=2, k=1)           # wrong length
    with pytest.raises(DomainError):
        TorusLabel(c=(-0.5, 1.5), n=2, k=1)      # round entry negative


def test_action_floor_two_regimes(planar3):
    # Deep in the well the round factor must wind: floor is pi a^2 (1-e).
    np.testing.assert_allclose(label_action_floor(planar3, -3.0),
                               np.pi * 4.0, rtol=1e-12)
    # Near the rim the planar orbit's own area binds.
    orb = closed_orbit_at_energy(planar3, -1.0, branch="right")
    np.testing.assert_allclose(label_action_floor(planar3, -1.0), orb.action,
                               rtol=1e-12)


def test_spectrum_round_actions_and_scan(domain3):
    spec = characteristic_spectrum(domain3, window_top=10.0, scan_labels=120)
    assert spec.group_i == (math.pi, 2 * math.pi, 3 * math.pi)
    assert spec.group_ii_min_bound > 1.0
    assert spec.scan_min_floor > spec.group_ii_min_bound
    assert spec.scan_confirms_bound and not spec.partial
    assert spec.labels_scanned == 120


def test_level_scan_keeps_to_the_scalar_well(domain3, monkeypatch):
    # Root finding and quadrature evaluate g one point at a time; they
    # belong on the float form, not on 0-d arrays through the array form.
    array_value = SmoothedWell.value
    shapes = []

    def counting(self, t):
        shapes.append(np.ndim(t))
        return array_value(self, t)

    monkeypatch.setattr(SmoothedWell, "value", counting)
    spec = characteristic_spectrum(domain3, 10.0, scan_labels=20)
    assert spec.labels_scanned == 20
    assert shapes.count(0) == 0
    assert shapes  # the contours still take the array form


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
    # Every label needs the well's minimum; it is searched once per well
    # and held on it without becoming a field.
    from scipy import optimize

    minimize_scalar, calls = optimize.minimize_scalar, []

    def counting(*args, **kwargs):
        calls.append(args)
        return minimize_scalar(*args, **kwargs)

    monkeypatch.setattr(optimize, "minimize_scalar", counting)
    well = build_smoothed_well(C=3.0, eps=0.25)
    D = IntegrableDomain(n=2, k=1, a=1.0, b=1.0, well=well)
    spec = characteristic_spectrum(D, 10.0, scan_labels=20)
    assert spec.labels_scanned == 20 and len(calls) == 1
    res = minimize_scalar(well.value_at, bounds=well.band, method="bounded",
                          options={"xatol": 1e-13})
    assert well.min_point() == (float(res.x), float(res.fun))
    assert [f.name for f in dataclasses.fields(well)] == ["C", "eps", "delta"]
    assert well == SmoothedWell(C=well.C, eps=well.eps, delta=well.delta)


def test_spectrum_budget_interrupt(domain3):
    with pytest.raises(ScanBudgetError) as exc:
        characteristic_spectrum(domain3, window_top=10.0, scan_labels=120,
                                budget=25)
    partial = exc.value.partial
    assert partial.partial and partial.labels_scanned == 25
    assert partial.scan_confirms_bound
