import importlib.util
import random
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from symcone import (
    AuditError,
    DomainError,
    Hyperboloid,
    SmoothedWell,
    StarDomain,
    containment_audit,
    sandwich_solve,
    sampling,
)
from symcone.contact import ContactHamiltonian, SupportMeta
from symcone.domains import (AUDIT_BLOCK, BOX_FACTOR, SETTLE_DELTA,
                             ContainmentReport)
from symcone.exprs import FLOOR_SLACK, ExpressionHamiltonian
from symcone.geometry import row_sum, squared_split

from conftest import sphere


def test_hyperboloid_membership_and_scaling():
    hyp = Hyperboloid(n=2, k=1, a=1.0, b=2.0)
    # u = x1^2+x2^2+y1^2, v = y2^2, so (0.9,0,0,0) is inside and
    # (1.1,0,0,0) is outside; cranking v back up re-admits the point.
    level = hyp.defining_function([[0.9, 0.0, 0.0, 0.0], [1.1, 0.0, 0.0, 0.0],
                                   [1.1, 0.0, 0.0, 5.0]])
    np.testing.assert_array_equal(level < 1.0, [True, False, True])

    big = hyp.scaled(3.0)
    assert big.a == 3.0 and big.b == 6.0
    rng = np.random.default_rng(7)
    pts = rng.uniform(-2.0, 2.0, size=(500, 4))
    np.testing.assert_array_equal(big.defining_function(3.0 * pts) < 1.0,
                                  hyp.defining_function(pts) < 1.0)

    with pytest.raises(DomainError):
        Hyperboloid(n=2, k=1, a=-1.0, b=1.0)
    with pytest.raises(DomainError):
        Hyperboloid(n=2, k=3, a=1.0, b=1.0)
    with pytest.raises(DomainError):
        hyp.scaled(0.0)


def contains(star, zs):
    """`StarDomain.contains_rows` at the rows of zs, with their split."""
    zs = np.atleast_2d(np.asarray(zs, dtype=float))
    return star.contains_rows(zs, *squared_split(zs, star.H.k))


def test_star_domain_membership(worked_hamiltonian):
    star = StarDomain(worked_hamiltonian)
    # On the ray through a fixed direction, membership flips exactly where
    # r * H(theta) crosses 1; the origin is always inside.
    theta = np.array([0.6, 0.0, 0.0, 0.8])
    val = float(worked_hamiltonian.eval_fn(theta[None])[0])
    assert val > 0.0
    r_star = 1.0 / val
    rays = np.array([0.0, 0.9 * r_star, 1.1 * r_star])
    np.testing.assert_array_equal(contains(star, np.sqrt(rays)[:, None] * theta),
                                  [True, True, False])


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


def test_well_band_envelope(well3):
    # g - max(-t^2, 3t^2 - 4C^2) is max(d, 0)'s overestimate by the blend:
    # within [0, 0.137 delta] to rounding, and exactly 0 outside the band
    t_lo, t_hi = well3.band
    t = np.concatenate([np.linspace(-9.0, 9.0, 4001),
                        np.linspace(t_lo, t_hi, 2001), -np.linspace(t_lo, t_hi, 2001)])
    for g in (well3.value(t), np.array([well3.value_at(x) for x in t.tolist()])):
        t2 = t * t
        gap = g - np.maximum(-t2, 3.0 * t2 - 36.0)
        tol = 4.0 * np.spacing(36.0)
        assert np.all(gap >= -tol)
        assert np.all(gap <= 0.137 * well3.delta + tol)
        outside = np.abs(4.0 * t2 - 36.0) >= well3.delta
        assert np.all(gap[outside] == 0.0)
        assert np.max(gap) > 0.1 * well3.delta  # the band is sampled


def test_well_band_slope_matches_fd(well3):
    t_lo, t_hi = well3.band
    rng = np.random.default_rng(4)
    t = rng.uniform(t_lo + 1e-5, t_hi - 1e-5, 300) * rng.choice([-1.0, 1.0], 300)
    h = 1e-6
    np.testing.assert_allclose(
        well3.deriv(t), (well3.value(t + h) - well3.value(t - h)) / (2.0 * h),
        rtol=1e-6, atol=1e-7)
    got = [well3.deriv_at(x) for x in t.tolist()]
    want = [(well3.value_at(x + h) - well3.value_at(x - h)) / (2.0 * h)
            for x in t.tolist()]
    np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-7)


def test_well_minimum_window(well3):
    t_min, v_min = well3.min_point()
    # the root of step7(u) = 1/4 and g there, to 20 digits (mpmath at 50)
    assert abs(t_min - 2.9919123276354009749) < 1e-14
    assert abs(v_min - -8.9141361482140494206) < 1e-14
    # Contract window: the minimum sits within eps above -C^2, near t = C.
    assert -9.0 <= v_min <= -9.0 + well3.eps
    assert abs(t_min - 3.0) <= well3.eps


@pytest.mark.parametrize("C, eps_share", [(0.5, 1 / 12), (2.0, 1 / 50), (3.0, 1 / 12),
                                          (8.0, 1 / 50), (40.0, 1 / 12)])
def test_well_minimum_matches_minimize_scalar(C, eps_share):
    # scipy's bounded Brent search stops once it is within sqrt(eps) |x| +
    # xatol / 3 of its root, so it is no closer than that (1.0e-7 off at
    # C = 40); the bisection's t is where g' changes sign between adjacent
    # floats, and its g(t) is never above scipy's
    from scipy import optimize

    well = SmoothedWell(C, C * eps_share)
    t, v = well.min_point()
    res = optimize.minimize_scalar(well.value_at, bounds=well.band, method="bounded",
                                   options={"xatol": 1e-13})
    assert abs(t - res.x) <= np.sqrt(np.finfo(float).eps) * res.x + 1e-13
    assert v <= res.fun and v == well.value_at(t)
    assert well.deriv_at(np.nextafter(t, 0.0)) < 0.0 <= well.deriv_at(t)


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


def test_well_array_forms_are_bitwise_the_where_form(well3):
    # value/deriv run the blend only on in-band entries; the result is
    # bitwise the form that blends every entry, on a clipped blend
    # variable u, and selects with np.where.
    from symcone.blends import _step7, _step7_integral

    def where_forms(well, t):
        t = np.asarray(t, dtype=float)
        t2 = t * t
        d = 4.0 * t2 - well.four_c2
        u = np.clip((d + well.delta) / (2.0 * well.delta), 0.0, 1.0)
        value = np.where(d >= well.delta, 3.0 * t2 - well.four_c2,
                         np.where(d <= -well.delta, -t2,
                                  -t2 + 2.0 * well.delta * _step7_integral(u)))
        d = 4.0 * t * t - well.four_c2
        u = np.clip((d + well.delta) / (2.0 * well.delta), 0.0, 1.0)
        deriv = np.where(d >= well.delta, 6.0 * t,
                         np.where(d <= -well.delta, -2.0 * t,
                                  t * (-2.0 + 8.0 * _step7(u))))
        return value, deriv

    def edge_well(C, t):
        # a well whose band edge d = +-delta falls on t exactly: the eps
        # of delta = 3.2 eps = |d|, searched among the floats next to |d|/3.2
        d = 4.0 * t * t - 4.0 * C * C
        eps = abs(d) / 3.2
        for eps in (eps, np.nextafter(eps, 0.0), np.nextafter(eps, np.inf)):
            well = SmoothedWell(C, float(eps))
            if 4.0 * t * t - well.four_c2 in (well.delta, -well.delta):
                return well
        raise AssertionError(f"no well has its band edge at t = {t}")

    rng = np.random.default_rng(17)
    t_lo, t_hi = well3.band
    # C = 8 wells with the upper and the lower band edge on a dyadic t
    cases = [(well3, np.concatenate([rng.uniform(-10.0, 10.0, 2999),
                                     rng.uniform(t_lo, t_hi, 500),
                                     -rng.uniform(t_lo, t_hi, 500)])),
             (edge_well(8.0, 8.03125), np.array([8.03125, -8.03125, 0.3])),
             (edge_well(8.0, 7.96875), np.array([7.96875, -7.96875, 9.1]))]
    for well, t in cases:
        for shape in (t.shape, (t.size // 3, 3)):
            value, deriv = where_forms(well, t.reshape(shape))
            np.testing.assert_array_equal(well.value(t.reshape(shape)), value)
            np.testing.assert_array_equal(well.deriv(t.reshape(shape)), deriv)
        for x in np.concatenate([t[:3], t[-3:]]):  # 0-d in, 0-d array out
            value, deriv = where_forms(well, x)
            assert well.value(x).shape == () and well.value(x) == value
            assert well.deriv(x).shape == () and well.deriv(x) == deriv


@pytest.mark.parametrize("C", [0.5, 2.0, 3.0, 5.5, 8.0])
def test_zero_d_well_input_gets_the_scalar_forms_bits(C):
    # a 0-d input takes the float forms, never the array power, which
    # rounds the band polynomial's last bit differently for some t
    well = SmoothedWell(C, C / 12.0)
    t_lo, t_hi = well.band
    rng = np.random.default_rng(int(4 * C))
    for x in np.concatenate([rng.uniform(t_lo, t_hi, 1000),
                             rng.uniform(-3.0 * C, 3.0 * C, 200)]):
        value, deriv = well.value(x), well.deriv(x)
        assert value.shape == () and deriv.shape == ()
        assert value.tobytes() == np.float64(well.value_at(float(x))).tobytes()
        assert deriv.tobytes() == np.float64(well.deriv_at(float(x))).tobytes()


def test_well_radial_inequality_everywhere(well3):
    # (t/2) g'(t) - g(t) >= 0 is the convexity-type contract the constructor
    # audits; spot-check it on a fresh random grid.
    rng = np.random.default_rng(11)
    t = rng.uniform(-10.0, 10.0, size=20_000)
    assert np.min(0.5 * t * well3.deriv(t) - well3.value(t)) >= -1e-12


def test_well_constructor_rejects_bad_shapes():
    with pytest.raises(DomainError):
        SmoothedWell(C=3.0, eps=0.5)  # eps too large for C/10
    with pytest.raises(DomainError):
        SmoothedWell(C=-1.0, eps=0.01)


@pytest.mark.parametrize("C", [16.0, 20.0, 40.0])
def test_well_constructor_accepts_large_wells(C):
    # the grid checks compare terms of size 27 C^2, where one ulp is
    # already 9.1e-13 at C = 16
    well = SmoothedWell(C, C / 12.0)
    assert well.C == C


@pytest.mark.parametrize("C", [5.281945, 7.188219852135678])
def test_well_whose_c_squared_pow_rounds_apart_builds(C):
    # at these C glibc's pow(C, 2) rounds one ulp away from C * C, so a
    # well that held 4C^2 as 4.0 * C ** 2 and audited its branches
    # against 4.0 * C * C refused itself; the well rounds 4C^2 once
    well = SmoothedWell(C, C / 12.0)
    assert well.four_c2 == 4.0 * C * C
    t = np.linspace(C + well.eps, 3.0 * C, 1001)
    assert np.array_equal(well.value(t), 3.0 * (t * t) - 4.0 * C * C)


def test_well_constructor_still_refuses_a_dip(monkeypatch):
    value = SmoothedWell.value
    monkeypatch.setattr(SmoothedWell, "value",
                        lambda self, t: value(self, t) - 1e-9)
    with pytest.raises(AuditError, match="dips below"):
        SmoothedWell(16.0, 16.0 / 12.0)


def test_well_constructor_refuses_a_radial_inequality_failure(monkeypatch):
    deriv = SmoothedWell.deriv
    monkeypatch.setattr(SmoothedWell, "deriv",
                        lambda self, t: 0.5 * deriv(self, t))
    with pytest.raises(AuditError, match="radial-derivative inequality fails"):
        SmoothedWell(3.0, 0.25)


def test_well_constructor_refuses_a_minimum_outside_its_window(monkeypatch):
    # the grid checks read the array forms only; the minimum's value is
    # the scalar form's, here moved 2 eps above -C^2
    value_at = SmoothedWell.value_at
    monkeypatch.setattr(SmoothedWell, "value_at",
                        lambda self, t: value_at(self, t) + 2.0 * self.eps)
    with pytest.raises(AuditError, match="outside the contract window"):
        SmoothedWell(3.0, 0.25)


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
    # G stays below 1 on the ray out to 2^60 when a = 1e150
    wide = IntegrableDomain(n=2, k=1, a=1e150, b=1.0, well=well3)
    with pytest.raises(DomainError, match="failed to exhaust along a ray"):
        wide.boundary_project([[1.0, 0.0, 0.0, 0.0]])


def test_sandwich_worked_constants(worked_certificate):
    inner, outer = worked_certificate.inner, worked_certificate.outer
    np.testing.assert_allclose(inner.a ** 2, 0.125, rtol=1e-12)
    np.testing.assert_allclose(inner.b ** 2, 1.5, rtol=1e-12)
    np.testing.assert_allclose(outer.a ** 2, 4.0, rtol=1e-12)
    np.testing.assert_allclose(outer.b ** 2, 0.2, rtol=1e-12)
    conds = worked_certificate.check()
    assert min(conds) > 1e-9


def test_sandwich_needs_positive_floor():
    H = ExpressionHamiltonian(
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


def evaluated_membership(H, zs):
    """r H(z / sqrt r) < 1 at every row but the origin, which is inside:
    star membership with H evaluated on every row and no ratio facts."""
    r = row_sum(zs * zs)
    out = np.ones(zs.shape[0], dtype=bool)
    nz = r > 0.0
    out[nz] = r[nz] * H.eval_fn(zs[nz] / np.sqrt(r[nz])[:, None]) < 1.0
    return out


def whole_array_audit(H, cert, samples, seed):
    """The containment audit as three whole-array membership passes over
    one `box_points` draw: the reference for the blocked audit."""
    halfwidth = BOX_FACTOR * max(cert.outer.a, cert.outer.b)
    pts = sampling.box_points(2 * H.n, halfwidth, samples, seed)
    in_inner = cert.inner.defining_function(pts) < 1.0
    in_star = evaluated_membership(H, pts)
    in_outer = cert.outer.defining_function(pts) < 1.0
    return ContainmentReport(
        samples_inner=int(np.sum(in_inner)), samples_outer=int(np.sum(in_star)),
        violations_inner=int(np.sum(in_inner & ~in_star)),
        violations_outer=int(np.sum(in_star & ~in_outer)),
        box_halfwidth=halfwidth)


AUDIT_COUNTS = [1, AUDIT_BLOCK - 1, AUDIT_BLOCK + 1, 3 * AUDIT_BLOCK + 17]


def _workload_expressions(count):
    """`count` draws of the sandwich-audit workload's expression generator."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    rng = random.Random("blocked-audit")
    return [module.random_expression(rng) for _ in range(count)]


@pytest.mark.parametrize("samples", AUDIT_COUNTS)
def test_blocked_audit_matches_the_whole_array_route(samples, worked_hamiltonian,
                                                     worked_certificate):
    got = containment_audit(worked_hamiltonian, worked_certificate,
                            samples=samples, seed=5)
    assert got == whole_array_audit(worked_hamiltonian, worked_certificate,
                                    samples, 5)
    assert all(type(c) is int for c in (got.samples_inner, got.samples_outer,
                                         got.violations_inner, got.violations_outer))


def test_blocked_audit_counts_false_certificate_violations(worked_hamiltonian,
                                                           worked_certificate):
    bogus = type(worked_certificate)(inner=worked_certificate.inner.scaled(20.0),
                                     outer=worked_certificate.outer.scaled(0.2),
                                     provenance=worked_certificate.provenance)
    for samples in AUDIT_COUNTS[1:]:
        got = containment_audit(worked_hamiltonian, bogus, samples=samples, seed=5)
        assert got.violations_inner > 0 and got.violations_outer > 0
        assert got == whole_array_audit(worked_hamiltonian, bogus, samples, 5)


@pytest.mark.parametrize("expr", _workload_expressions(3))
def test_blocked_audit_matches_on_workload_expressions(expr):
    H = ExpressionHamiltonian(expr, n=2, k=1)
    cert = sandwich_solve(H)
    for samples, seed in [(AUDIT_BLOCK + 1, 2), (3 * AUDIT_BLOCK + 17, 3)]:
        assert (containment_audit(H, cert, samples=samples, seed=seed)
                == whole_array_audit(H, cert, samples, seed))


def test_blocked_audit_memory_is_bounded(worked_hamiltonian, worked_certificate):
    # the whole-array audit of 10^6 samples peaks above 100 MB
    tracemalloc.start()
    try:
        containment_audit(worked_hamiltonian, worked_certificate,
                          samples=1_000_000, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def test_containment_audit_needs_the_split_of_H(worked_hamiltonian,
                                                worked_certificate):
    other_k = ExpressionHamiltonian("1 * bump(rho; 1, 3)", n=2, k=2,
                                    meta=worked_hamiltonian.meta)
    with pytest.raises(DomainError, match="hyperboloids"):
        containment_audit(other_k, worked_certificate, samples=10)


def test_star_membership_with_an_origin_row(worked_hamiltonian):
    star = StarDomain(worked_hamiltonian)
    pts = np.random.default_rng(3).uniform(-3.0, 3.0, size=(1000, 4))
    got = contains(star, np.insert(pts, 417, 0.0, axis=0))
    assert got[417]
    others = np.delete(got, 417)
    assert 0 < np.count_nonzero(others) < len(pts)
    np.testing.assert_array_equal(others, contains(star, pts))


def rows_at_ratio(rng, n, k, rho, r, count):
    """`count` rows of squared norm about r and angle ratio about rho,
    in random directions within each block."""
    u_part = sphere(rng, count, 2 * n - k) * np.sqrt(1.0 / (1.0 + rho))
    v_part = sphere(rng, count, k) * np.sqrt(rho / (1.0 + rho))
    return np.hstack([u_part, v_part]) * np.sqrt(r)


def adversarial_rows(H, seed):
    """Rows on which a settled decision could go wrong: ratios at each of
    H's finite rho facts times 1 +- j 1e-10 and 1 +- 2 SETTLE_DELTA, for
    r from 1e-5 to 1e15 (past 1e13, r times a bump's rounding near its
    end reaches 1); squared norms that put r times the floor (and
    r times the floor's coefficient) within a few ulps of 1, at ratios
    up to floor_rho that include the ends of every bump; rows with
    u = 0; and origin rows."""
    rng = np.random.default_rng(seed)
    n, k = H.n, H.k
    facts = [t for t in (H.zero_rho, H.floor_rho) if np.isfinite(t)]
    steps = np.concatenate([np.arange(-8, 9) * 1e-10,
                            [-2 * SETTLE_DELTA, 2 * SETTLE_DELTA]])
    blocks = [rows_at_ratio(rng, n, k, t * (1.0 + d), r, 3)
              for t in facts for d in steps
              for r in 10.0 ** np.arange(-5, 16, 2)]
    if H.floor > 0:
        c = H.floor + FLOOR_SLACK * sum(coeff for coeff, _, _ in H._plan)
        # below floor_rho, and where a bump's profile ends (u in [0.9, 1]),
        # whose values dip below 0 by up to 9.1e-14
        ends = [a + (b - a) * rng.uniform(0.9, 1.0, 40) for a, b in H._bumps]
        ratios = np.concatenate([[0.0, 0.5 * H.floor_rho,
                                  H.floor_rho * (1.0 - 2 * SETTLE_DELTA)], *ends])
        for target in (1.0 / H.floor, 1.0 / c):
            for rho in ratios[ratios <= H.floor_rho]:
                r = target * (1.0 + np.arange(-40, 41) * 2.0 ** -52)
                blocks += [rows_at_ratio(rng, n, k, rho, ri, 2) for ri in r]
        # rows (x, 0, ..., 0) with fl(x^2) * floor within an ulp of 1
        x = np.sqrt(1.0 / H.floor) * (1.0 + np.arange(-400, 401) * 2.0 ** -53)
        on_axis = np.zeros((len(x), 2 * n))
        on_axis[:, 0] = x
        blocks.append(on_axis[np.abs(x * x * H.floor - 1.0) <= 2.0 ** -52])
    u_zero = np.zeros((20, 2 * n))
    u_zero[:, 2 * n - k:] = rng.uniform(-3.0, 3.0, (20, k))
    return np.vstack(blocks + [u_zero, np.zeros((3, 2 * n))])


DECISION_CASES = [
    ("1 * bump(rho; 1, 3)", 2, 1),  # the README expression
    *[(expr, 2, 1) for expr in _workload_expressions(3)],
    ("1 * bump(rho; 1, 3) + 0.5 * bump(rho; 0.5, 2) * mono(x1^3 y1)", 2, 1),
    ("0.8 * bump(rho; 0.5, 2) * mono(x1^2) + 0.3 * bump(rho; 0.2, 1) * mono(y2^4)",
     2, 1),
    ("1 * bump(rho; 2e4, 5e4) + 0.5 * bump(rho; 1e4, 3e4) * mono(x2^2)", 2, 1),
    ("1 * bump(rho; 1, 3) + 0.2 * bump(rho; 0.5, 4) * mono(x3^2)", 3, 2),
    # the second bump dips below 0 inside the floor's ratio range, which
    # the floor's slack must cover
    ("1 * bump(rho; 2, 3) + 1 * bump(rho; 0.5, 1)", 2, 1),
]


@pytest.mark.parametrize("expr, n, k", DECISION_CASES)
def test_settled_rows_get_the_evaluated_decision(expr, n, k):
    H = ExpressionHamiltonian(expr, n=n, k=k)
    zs = adversarial_rows(H, seed=len(expr))
    if H.floor > 0:  # the rows bracket r * floor = 1 to the ulp
        products = row_sum(zs * zs) * H.floor
        assert products[products < 1.0].max() >= 1.0 - 2.0 ** -52
        assert 1.0 <= products[products >= 1.0].min() <= 1.0 + 2.0 ** -52
    got = contains(StarDomain(H), zs)
    np.testing.assert_array_equal(got, evaluated_membership(H, zs))


def _evaluated_rows(H):
    """A list that gathers the row count of every `H.eval_fn` call."""
    counts, values = [], H.eval_fn

    def counted(th):
        counts.append(th.shape[0])
        return values(th)

    H.eval_fn = counted
    return counts


def test_most_box_rows_are_settled_without_H(worked_certificate):
    # a fresh H, not the shared fixture, since the count wraps its eval_fn
    H = ExpressionHamiltonian("1 * bump(rho; 1, 3)", n=2, k=1)
    counts = _evaluated_rows(H)
    halfwidth = BOX_FACTOR * max(worked_certificate.outer.a,
                                 worked_certificate.outer.b)
    pts = sampling.box_points(4, halfwidth, 20_000, 3)
    got = contains(StarDomain(H), pts)
    assert counts and sum(counts) < 0.5 * len(pts)
    np.testing.assert_array_equal(got, evaluated_membership(H, pts))


@pytest.mark.parametrize("H", [
    ExpressionHamiltonian("1 * bump(rho; 2e4, 5e4) + 0.5 * bump(rho; 1e4, 3e4)",
                          n=2, k=1, meta=SupportMeta(M=1.5, m=1.0, rho0=0.1,
                                                     rho1=5e4)),
    ContactHamiltonian(lambda th: np.zeros(th.shape[0]), k=1, n=2,
                       meta=SupportMeta(M=0.0, m=1.0, rho0=0.1, rho1=1.0),
                       grad_fn=None),
], ids=["facts-above-1e4", "no-plan"])
def test_rows_are_evaluated_where_no_fact_applies(H):
    # every row but the origin reaches H, the u = 0 rows included
    zs = adversarial_rows(ExpressionHamiltonian("1 * bump(rho; 1, 3)", n=2, k=1),
                          seed=9)
    counts = _evaluated_rows(H)
    got = contains(StarDomain(H), zs)
    assert sum(counts) == np.count_nonzero(row_sum(zs * zs) > 0.0)
    np.testing.assert_array_equal(got, evaluated_membership(H, zs))
