import numpy as np
import pytest

from symcone import (
    AuditError,
    DomainError,
    Hyperboloid,
    SmoothedWell,
    StarDomain,
    build_smoothed_well,
    containment_audit,
    sandwich_solve,
)
from symcone.contact import SupportMeta
from symcone.exprs import hamiltonian_from_expression

from conftest import sphere


def test_hyperboloid_membership_and_scaling():
    hyp = Hyperboloid(n=2, k=1, a=1.0, b=2.0)
    # u = x1^2+x2^2+y1^2, v = y2^2, so (0.9,0,0,0) is inside and
    # (1.1,0,0,0) is outside; cranking v back up re-admits the point.
    assert hyp.contains([0.9, 0.0, 0.0, 0.0])
    assert not hyp.contains([1.1, 0.0, 0.0, 0.0])
    assert hyp.contains([1.1, 0.0, 0.0, 5.0])

    big = hyp.scaled(3.0)
    assert big.a == 3.0 and big.b == 6.0
    rng = np.random.default_rng(7)
    pts = rng.uniform(-2.0, 2.0, size=(500, 4))
    np.testing.assert_array_equal(big.contains_many(3.0 * pts),
                                  hyp.contains_many(pts))

    with pytest.raises(DomainError):
        Hyperboloid(n=2, k=1, a=-1.0, b=1.0)
    with pytest.raises(DomainError):
        Hyperboloid(n=2, k=3, a=1.0, b=1.0)
    with pytest.raises(DomainError):
        hyp.scaled(0.0)


def test_star_domain_membership(worked_hamiltonian):
    star = StarDomain(worked_hamiltonian)
    assert star.contains(np.zeros(4))  # the origin is always inside

    # On the ray through a fixed direction, membership flips exactly where
    # r * H(theta) crosses 1.
    theta = np.array([0.6, 0.0, 0.0, 0.8])
    val = float(worked_hamiltonian.eval_fn(theta[None])[0])
    assert val > 0.0
    r_star = 1.0 / val
    inside = np.sqrt(0.9 * r_star) * theta
    outside = np.sqrt(1.1 * r_star) * theta
    assert star.contains(inside)
    assert not star.contains(outside)

    # z -> s z on points matches the scaled domain.
    rng = np.random.default_rng(21)
    pts = rng.uniform(-3.0, 3.0, size=(400, 4))
    s = 1.7
    np.testing.assert_array_equal(star.scaled(s).contains_many(s * pts),
                                  star.contains_many(pts))


def test_well_branches_exact_outside_band(well3):
    t_lo, t_hi = well3.band
    assert well3.delta == 0.8
    np.testing.assert_allclose([t_lo, t_hi], [np.sqrt(8.8), np.sqrt(9.2)],
                               rtol=0, atol=1e-15)

    t_in = np.linspace(-t_lo, t_lo, 701)
    np.testing.assert_array_equal(well3.value(t_in), -t_in ** 2)
    t_out = np.concatenate([np.linspace(t_hi, 9.0, 300),
                            -np.linspace(t_hi, 9.0, 300)])
    np.testing.assert_array_equal(well3.value(t_out), 3.0 * t_out ** 2 - 36.0)
    # The float forms return the same branches verbatim.
    for t in t_in.tolist():
        assert well3.value_at(t) == -t * t and well3.deriv_at(t) == -2.0 * t
    for t in t_out.tolist():
        assert well3.value_at(t) == 3.0 * (t * t) - 36.0
        assert well3.deriv_at(t) == 6.0 * t

    # Inside the band the blend stays above both branches.
    t_mid = np.linspace(t_lo, t_hi, 512)
    lower = np.maximum(-t_mid ** 2, 3.0 * t_mid ** 2 - 36.0)
    assert np.min(well3.value(t_mid) - lower) >= -1e-12


def test_well_minimum_window(well3):
    t_min, v_min = well3.min_point()
    assert abs(t_min - 2.991912307690364) < 1e-9
    assert abs(v_min - -8.91413614821392) < 1e-9
    # Contract window: the minimum sits within eps above -C^2, near t = C.
    assert -9.0 <= v_min <= -9.0 + well3.eps
    assert abs(t_min - 3.0) <= well3.eps


def test_well_derivative_matches_value(well3):
    t = np.linspace(-7.0, 7.0, 1201)
    h = 1e-6
    fd = (well3.value(t + h) - well3.value(t - h)) / (2.0 * h)
    np.testing.assert_allclose(well3.deriv(t), fd, rtol=0, atol=5e-5)
    for x in t.tolist():
        fd = (well3.value_at(x + h) - well3.value_at(x - h)) / (2.0 * h)
        assert abs(well3.deriv_at(x) - fd) <= 5e-5


def test_well_scalar_forms_match_array_forms(well3):
    C, eps = well3.C, well3.eps
    t_lo, t_hi = well3.band
    edges = np.array([t_lo, t_hi, C - eps, C + eps, C])
    edges = np.concatenate([edges, np.nextafter(edges, 0.0),
                            np.nextafter(edges, np.inf)])
    t = np.concatenate([np.linspace(-3.0 * C, 3.0 * C, 2001),
                        np.linspace(t_lo, t_hi, 501), edges, -edges])
    value_at = np.array([well3.value_at(float(x)) for x in t])
    deriv_at = np.array([well3.deriv_at(float(x)) for x in t])
    # Inside the band the forms may differ in the last bit (numpy's array
    # power and Python's float power round differently), so not bitwise.
    np.testing.assert_allclose(value_at, well3.value(t), rtol=1e-14, atol=0)
    # g' crosses zero at the minimum, where only an absolute bound holds.
    np.testing.assert_allclose(deriv_at, well3.deriv(t), rtol=1e-14, atol=1e-13)


def test_well_radial_inequality_everywhere(well3):
    # (t/2) g'(t) - g(t) >= 0 is the convexity-type contract the builder
    # audits; spot-check it on a fresh random grid.
    rng = np.random.default_rng(11)
    t = rng.uniform(-10.0, 10.0, size=20_000)
    assert np.min(0.5 * t * well3.deriv(t) - well3.value(t)) >= -1e-12


def test_well_scaling_law(well3):
    s = 1.5
    big = well3.scaled(s)
    assert big.C == s * 3.0 and big.eps == s * 0.25
    assert big.delta == s * s * 0.8
    t = np.linspace(-8.0, 8.0, 401)
    np.testing.assert_allclose(big.value(s * t), s * s * well3.value(t),
                               rtol=1e-12, atol=1e-12)


def test_well_builder_rejects_bad_shapes():
    with pytest.raises(DomainError):
        build_smoothed_well(C=3.0, eps=0.5)  # eps too large for C/10
    with pytest.raises(DomainError):
        build_smoothed_well(C=-1.0, eps=0.01)


def test_integrable_domain_gradient_and_liouville(domain3):
    rng = np.random.default_rng(3)
    zs = rng.uniform(-2.5, 2.5, size=(40, 4))
    h = 1e-6
    grad = domain3.gradient(zs)
    for j in range(4):
        dz = np.zeros(4)
        dz[j] = h
        fd = (domain3.defining_function(zs + dz)
              - domain3.defining_function(zs - dz)) / (2.0 * h)
        np.testing.assert_allclose(grad[:, j], fd, rtol=0, atol=5e-5)
    lv = domain3.liouville_derivative(zs)
    np.testing.assert_allclose(lv, 0.5 * np.sum(zs * grad, axis=1),
                               rtol=0, atol=1e-12)


def test_boundary_projection_and_transversality(domain3):
    rng = np.random.default_rng(1234)
    dirs = sphere(rng, 256, 4)
    pts = domain3.boundary_project(dirs)
    G = domain3.defining_function(pts)
    assert np.max(np.abs(G - 1.0)) <= 1e-12

    margins = domain3.transversality_margin(pts)
    # The radial derivative can touch 1 from above (the equality regime of
    # the well) but never dips below it.
    assert np.min(margins) >= -1e-12

    with pytest.raises(DomainError):
        domain3.transversality_margin(0.5 * pts)  # off the boundary


def test_integrable_domain_validation(well3):
    from symcone import IntegrableDomain
    with pytest.raises(DomainError):
        IntegrableDomain(n=2, k=2, a=1.0, b=1.0, well=well3)
    with pytest.raises(DomainError):
        IntegrableDomain(n=2, k=1, a=0.0, b=1.0, well=well3)


def test_sandwich_worked_constants(worked_certificate):
    inner, outer = worked_certificate.inner, worked_certificate.outer
    np.testing.assert_allclose(inner.a ** 2, 0.125, rtol=1e-12)
    np.testing.assert_allclose(inner.b ** 2, 1.5, rtol=1e-12)
    np.testing.assert_allclose(outer.a ** 2, 4.0, rtol=1e-12)
    np.testing.assert_allclose(outer.b ** 2, 0.2, rtol=1e-12)
    conds = worked_certificate.check()
    assert min(conds) > 1e-9


def test_sandwich_needs_positive_floor():
    H = hamiltonian_from_expression(
        "1 * bump(rho; 1, 3)", n=2, k=1,
        meta=SupportMeta(M=1.0, m=0.0, rho0=0.1, rho1=3.0))
    with pytest.raises(DomainError, match="not in g\\+"):
        sandwich_solve(H)


def test_containment_audit_clean(worked_hamiltonian, worked_certificate):
    report = containment_audit(worked_hamiltonian, worked_certificate,
                               samples=30_000, seed=5)
    assert report.violations == 0
    assert report.samples_inner > 0 and report.samples_outer > 0
    assert report.box_halfwidth == 4.0 * max(worked_certificate.outer.a,
                                             worked_certificate.outer.b)


def test_containment_audit_flags_false_certificate(worked_hamiltonian,
                                                   worked_certificate):
    # Inflate the inner hyperboloid until it pokes out of the star domain:
    # the audit must see violations rather than rubber-stamp the algebra.
    bogus_inner = worked_certificate.inner.scaled(20.0)
    bogus = type(worked_certificate)(inner=bogus_inner,
                                     outer=worked_certificate.outer,
                                     provenance=worked_certificate.provenance)
    report = containment_audit(worked_hamiltonian, bogus,
                               samples=30_000, seed=5)
    assert report.violations_inner > 0


def test_certificate_check_rejects_thin_margins(worked_certificate):
    prov = dict(worked_certificate.provenance)
    prov["T"] = 0.1  # below the inner a^2, so T - a^2 goes negative
    bad = type(worked_certificate)(inner=worked_certificate.inner,
                                   outer=worked_certificate.outer,
                                   provenance=prov)
    with pytest.raises(AuditError):
        bad.check()


def test_integrable_domain_scaled(domain3):
    scaled = domain3.scaled(2.0)
    assert scaled.a == 2.0 and scaled.well.C == 6.0
    with pytest.raises(DomainError):
        domain3.scaled(0.0)
