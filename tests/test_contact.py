import numpy as np
import pytest

from symcone import (
    ContactHamiltonian,
    ContactIsotopy,
    DomainError,
    adjoint_action,
    concatenate_isotopies,
    contact_vector_field,
    identity_isotopy,
    lie_bracket,
    model_field_contracting,
    model_field_expanding,
    random_hamiltonian,
    reeb_derivative,
    reeb_field,
    symplectic_pairing,
)
from symcone import sampling

from conftest import sphere


def test_reeb_field_basics():
    rng = np.random.default_rng(10)
    th = sphere(rng, 100, 6)
    R = reeb_field(th)
    # unit pairing against the base point and tangency
    np.testing.assert_allclose(0.5 * symplectic_pairing(th, R), 1.0, atol=1e-14)
    np.testing.assert_allclose(np.sum(R * th, axis=1), 0.0, atol=1e-14)
    with pytest.raises(DomainError):
        reeb_field(2.0 * th)


def test_reeb_flow_closes_with_period_pi():
    """The characteristic flow is the double-angle rotation, period pi."""
    rng = np.random.default_rng(11)
    th = sphere(rng, 40, 4)
    n = 2
    x, y = th[:, :n], th[:, n:]

    def rotate(t):
        c, s = np.cos(2 * t), np.sin(2 * t)
        return np.concatenate([c * x - s * y, s * x + c * y], axis=1)

    quarter = rotate(np.pi / 4)
    np.testing.assert_allclose(np.concatenate([-y, x], axis=1), quarter, atol=1e-14)
    np.testing.assert_allclose(rotate(np.pi), th, atol=1e-13)
    # the generator of that rotation is exactly the field
    h = 1e-7
    np.testing.assert_allclose((rotate(h) - rotate(-h)) / (2 * h), reeb_field(th),
                               atol=1e-6)


def test_contact_field_pairing_recovers_hamiltonian():
    rng = np.random.default_rng(12)
    th = sphere(rng, 200, 4)
    for seed in range(3):
        K = random_hamiltonian(2, 1, seed=seed)
        Y = contact_vector_field(K, th)
        vals = 0.5 * symplectic_pairing(th, Y)
        np.testing.assert_allclose(vals, np.asarray(K(th)), atol=1e-13)
        # the field is tangent to the sphere
        np.testing.assert_allclose(np.sum(Y * th, axis=1), 0.0, atol=1e-13)


def test_reeb_derivative_matches_fd():
    rng = np.random.default_rng(13)
    th = sphere(rng, 100, 4)
    K = random_hamiltonian(2, 1, seed=7)
    R = reeb_field(th)
    h = 1e-6
    plus = th + h * R
    minus = th - h * R
    plus /= np.linalg.norm(plus, axis=1, keepdims=True)
    minus /= np.linalg.norm(minus, axis=1, keepdims=True)
    want = (np.asarray(K(plus)) - np.asarray(K(minus))) / (2 * h)
    np.testing.assert_allclose(reeb_derivative(K, th), want, rtol=2e-6, atol=2e-6)


def test_flow_renormalizes_input_rays():
    """Flows act on rays: feeding a scaled direction is the same as
    feeding the unit one."""
    K = random_hamiltonian(2, 1, seed=3, amplitude=0.3)
    iso = ContactIsotopy(K, step=2e-3)
    rng = np.random.default_rng(14)
    th = sphere(rng, 20, 4)
    a, _ = iso.flow_many(th, 0.0, 1.0)
    b, _ = iso.flow_many(3.7 * th, 0.0, 1.0)
    np.testing.assert_allclose(a, b, atol=1e-13)
    np.testing.assert_allclose(np.linalg.norm(a, axis=1), 1.0, atol=1e-12)


def test_inverse_images_roundtrip():
    K = random_hamiltonian(2, 1, seed=4, amplitude=0.3)
    iso = ContactIsotopy(K, step=1e-3)
    rng = np.random.default_rng(15)
    th = sphere(rng, 30, 4)
    pre, c = iso.inverse_images(th)
    back, _ = iso.flow_many(pre, 0.0, 1.0)
    assert np.max(np.linalg.norm(back - th, axis=1)) < 1e-9
    assert np.all(c > 0)


def test_identity_isotopy_fixes_everything():
    iso = identity_isotopy(2, 1)
    rng = np.random.default_rng(16)
    th = sphere(rng, 25, 4)
    out, logc = iso.flow_many(th, 0.0, 1.0)
    np.testing.assert_allclose(out, th, atol=1e-15)
    np.testing.assert_array_equal(logc, np.zeros(25))


def test_adjoint_identity_and_positivity():
    H = random_hamiltonian(2, 1, seed=9, amplitude=0.3)
    rng = np.random.default_rng(17)
    th = sphere(rng, 150, 4)
    adH = adjoint_action(identity_isotopy(2, 1), H, meta_samples=200)
    np.testing.assert_allclose(np.asarray(adH(th)), np.asarray(H(th)), atol=1e-13)

    psi = ContactIsotopy(random_hamiltonian(2, 1, seed=5, amplitude=0.3), step=2e-3)
    conj = adjoint_action(psi, H, meta_samples=200)
    vals = np.asarray(conj(th))
    assert np.all(vals >= -1e-12)  # conjugation preserves the cone
    assert conj.meta.M >= np.max(vals)


def test_adjoint_composition_cocycle():
    """Conjugating by a concatenation agrees with conjugating twice."""
    H = random_hamiltonian(2, 1, seed=9, amplitude=0.3)
    psi1 = ContactIsotopy(random_hamiltonian(2, 1, seed=5, amplitude=0.3), step=2e-3)
    psi2 = ContactIsotopy(random_hamiltonian(2, 1, seed=6, amplitude=0.3), step=2e-3)
    rng = np.random.default_rng(18)
    th = sphere(rng, 100, 4)
    lhs = adjoint_action(concatenate_isotopies(psi2, psi1), H, meta_samples=150)
    rhs = adjoint_action(psi2, adjoint_action(psi1, H, meta_samples=150),
                         meta_samples=150)
    err = np.max(np.abs(np.asarray(lhs(th)) - np.asarray(rhs(th))))
    assert err < 1e-3


def test_lie_bracket_antisymmetric():
    K = random_hamiltonian(2, 1, seed=5)
    H = random_hamiltonian(2, 1, seed=9)
    th = sampling.sphere_points(2, 200, 19)
    b1 = np.asarray(lie_bracket(K, H, th))
    b2 = np.asarray(lie_bracket(H, K, th))
    scale = max(1.0, np.max(np.abs(b1)))
    np.testing.assert_allclose(b1, -b2, atol=1e-12 * scale)
    np.testing.assert_allclose(np.asarray(lie_bracket(K, K, th)), 0.0, atol=1e-12)


def test_model_fields():
    z = np.array([1.0, 2.0, 3.0, 4.0])  # (x1, x2, y1, y2), n = 2
    con = model_field_contracting(1, z)
    np.testing.assert_array_equal(con, [0.0, -2.0, 0.0, 4.0])
    exp = model_field_expanding(2, z)
    np.testing.assert_array_equal(exp, [1.0, 2.0, -3.0, -4.0])
    with pytest.raises(DomainError):
        model_field_contracting(3, z)
    with pytest.raises(DomainError):
        model_field_expanding(1, z)


def _counted(fn, calls):
    def wrapped(th):
        calls.append(th.shape[0])
        return fn(th)
    return wrapped


def test_flow_makes_one_kernel_call_per_rk_stage():
    K = random_hamiltonian(2, 1, seed=3, amplitude=0.3)
    grads, evals = [], []
    K.grad_fn = _counted(K.grad_fn, grads)
    K.eval_fn = _counted(K.eval_fn, evals)
    th = sphere(np.random.default_rng(20), 30, 4)
    ContactIsotopy(K, step=0.05).flow_many(th, 0.0, 1.0)
    assert grads == [30] * (4 * 20)
    assert evals == []


def test_scaled_plain_hamiltonian_scales_the_pair():
    K = random_hamiltonian(2, 1, seed=8)
    plain = ContactHamiltonian(K.eval_fn, k=1, n=2, meta=K.meta, grad_fn=K.grad_fn)
    th = sphere(np.random.default_rng(21), 50, 4)
    vals, g = plain.scaled(3.0).value_and_grad(th)
    np.testing.assert_array_equal(vals, 3.0 * K.eval_fn(th))
    np.testing.assert_array_equal(g, 3.0 * K.grad_fn(th)[1])
