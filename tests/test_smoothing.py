import numpy as np
import pytest

from symcone import (
    ContactIsotopy,
    DomainError,
    SmoothedSymplectization,
    identity_isotopy,
    liouville_squeeze_witness,
    radial_step_bump,
    random_hamiltonian,
    symplectize_ambient,
    symplecticity_defect,
)
from symcone.smoothing import symplecticity_defect_of_images, symplecticity_stencil

from conftest import sphere


def shell(rng, npts, dim, r2lo, r2hi):
    th = sphere(rng, npts, dim)
    rr = rng.uniform(r2lo, r2hi, size=npts)
    return th * np.sqrt(rr)[:, None]


@pytest.fixture(scope="module")
def tame_map():
    K = random_hamiltonian(2, 1, seed=31, amplitude=0.1)
    iso = ContactIsotopy(K, step=1e-3)
    return iso, SmoothedSymplectization(iso, 0.05)


def test_identity_isotopy_certificate_is_tight():
    sm = SmoothedSymplectization(identity_isotopy(2, 1), 0.1)
    cert = sm.certificate
    assert cert.M == 1.0 and cert.m == 1.0
    assert cert.K_factor == 4.0
    assert cert.chi_zero_below == 0.1 and cert.chi_one_above == 0.4


def test_certificate_brackets_one(tame_map):
    _, sm = tame_map
    cert = sm.certificate
    assert cert.m < 1.0 < cert.M
    assert cert.K_factor == pytest.approx(4.0 * cert.M / cert.m)


def test_identity_ball_is_exact(tame_map):
    """Inside the switch-off ball the field vanishes branch-exactly, so
    the map does not move points at all."""
    _, sm = tame_map
    rng = np.random.default_rng(30)
    zs = shell(rng, 300, 4, 1e-6, sm.eps * 0.999)
    out = sm(zs)
    assert np.max(np.linalg.norm(out - zs, axis=1)) == 0.0


def test_agreement_with_homogeneous_lift(tame_map):
    iso, sm = tame_map
    cert = sm.certificate
    rng = np.random.default_rng(31)
    zs = shell(rng, 200, 4, cert.K_factor * sm.eps * 1.001,
               cert.K_factor * sm.eps * 4.0)
    diff = np.linalg.norm(sm(zs) - symplectize_ambient(iso, zs), axis=1)
    assert np.max(diff) < 1e-6


def test_symplecticity_all_regions(tame_map):
    _, sm = tame_map
    cert = sm.certificate
    rng = np.random.default_rng(32)
    zs = np.vstack([
        shell(rng, 20, 4, 1e-4, sm.eps * 0.9),
        shell(rng, 20, 4, sm.eps * 1.05, cert.K_factor * sm.eps * 0.95),
        shell(rng, 20, 4, cert.K_factor * sm.eps * 1.05,
              cert.K_factor * sm.eps * 3.0),
    ])
    assert np.max(symplecticity_defect(sm, zs)) < 1e-6


def test_stacked_blocks_map_bitwise_like_separate_calls(tame_map):
    """The fixed-step flow treats rows independently, so one call on
    stacked blocks gives each block exactly its own call's images."""
    _, sm = tame_map
    cert = sm.certificate
    rng = np.random.default_rng(34)
    base = shell(rng, 3, 4, 1e-4, cert.K_factor * sm.eps * 4.0)
    blocks = [
        shell(rng, 8, 4, 1e-4, sm.eps * 0.999),                    # identity ball
        shell(rng, 8, 4, sm.eps * 1.001, cert.K_factor * sm.eps),  # band
        shell(rng, 8, 4, cert.K_factor * sm.eps * 1.001,
              cert.K_factor * sm.eps * 4.0),                       # outer shell
        symplecticity_stencil(base),
    ]
    images = sm(np.vstack(blocks))
    start = 0
    for block in blocks:
        assert np.array_equal(images[start:start + len(block)], sm(block))
        start += len(block)
    # the stencil block's defect is that of the composed route
    assert np.array_equal(symplecticity_defect_of_images(images[24:]),
                          symplecticity_defect(sm, base))


def test_lift_scales_like_rays():
    """The homogeneous lift is 1-homogeneous: scaling the input scales
    the output by the same factor."""
    K = random_hamiltonian(2, 1, seed=8, amplitude=0.2)
    iso = ContactIsotopy(K, step=1e-3)
    rng = np.random.default_rng(33)
    zs = shell(rng, 40, 4, 0.5, 2.0)
    one = symplectize_ambient(iso, zs)
    three = symplectize_ambient(iso, 3.0 * zs)
    np.testing.assert_allclose(three, 3.0 * one, rtol=1e-12, atol=1e-12)


def test_smoothed_map_rejects_bad_eps():
    with pytest.raises(DomainError):
        SmoothedSymplectization(identity_isotopy(2, 1), -0.05)


def test_radial_step_bump_profile():
    H = radial_step_bump(2.0, 3.0)
    pts = np.array([[0.0, 0.0, 0.5], [1.9, 0.0, 0.0], [0.0, 3.1, 0.0]])
    vals = np.asarray(H(pts))
    assert vals[0] == 1.0 and vals[1] == 1.0 and vals[2] == 0.0
    with pytest.raises(DomainError):
        radial_step_bump(3.0, 2.0)


def test_squeeze_witness_certifies():
    H = radial_step_bump(2.0, 3.0)
    w = liouville_squeeze_witness(H, 2.0, 3.0, grid_points=4000)
    assert w.scale == pytest.approx((2.0 / 3.0) ** 2, abs=1e-15)
    assert w.violations == 0
    assert w.grid_points >= 4000


def test_squeeze_witness_guards():
    H = radial_step_bump(2.0, 3.0)
    with pytest.raises(DomainError):
        liouville_squeeze_witness(H, 2.0, 3.0, tau=0.1)   # below log(3/2)
    with pytest.raises(DomainError):
        liouville_squeeze_witness(H, 2.0, 3.0, dim=4)     # even dimension


def test_smoothed_map_makes_one_kernel_call_per_rk_stage(tame_map, monkeypatch):
    iso, sm = tame_map
    K = iso.hamiltonian_at(0.0)
    original, grads = K.grad_fn, []

    def counted(th):
        grads.append(th.shape[0])
        return original(th)

    monkeypatch.setattr(K, "grad_fn", counted)
    zs = shell(np.random.default_rng(30), 25, 4, 1.0, 2.0)  # all outside the ball
    sm(zs, t_final=0.01)
    assert grads == [25] * (4 * 10)
