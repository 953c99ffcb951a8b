import numpy as np
import pytest

from symcone import (
    ContactHamiltonian,
    ContactIsotopy,
    ExpressionHamiltonian,
    ParseError,
    StarDomain,
    SupportMeta,
    angle_ratio_of,
    domain_from_dict,
    domain_to_dict,
    hamiltonian_from_expression,
    random_hamiltonian,
)
from symcone import exprs
from symcone.blends import plateau_bump, plateau_bump_with_deriv

from conftest import sphere


def test_eval_matches_hand_rolled():
    """bump-of-ratio times a coordinate monomial, written out by hand."""
    H = hamiltonian_from_expression("2.5 * bump(rho; 0.5, 2) * mono(x1^2 y2^2)",
                                    n=2, k=1)
    rng = np.random.default_rng(21)
    th = sphere(rng, 300, 4)
    rho = angle_ratio_of(th, 1)
    want = 2.5 * plateau_bump(rho, 0.5, 2.0) * th[:, 0] ** 2 * th[:, 3] ** 2
    np.testing.assert_allclose(np.asarray(H(th)), want, rtol=1e-13, atol=1e-15)


def test_gradient_matches_fd():
    H = hamiltonian_from_expression(
        "1 * bump(rho; 0.4, 1.8) + 0.3 * bump(rho; 0.2, 2.2) * mono(y1^2)",
        n=2, k=1)
    rng = np.random.default_rng(22)
    th = sphere(rng, 60, 4)
    g = np.atleast_2d(H.value_and_grad(th)[1])
    h = 1e-6
    for j in range(4):
        e = np.zeros(4)
        e[j] = h
        want = (np.asarray(H(th + e)) - np.asarray(H(th - e))) / (2 * h)
        np.testing.assert_allclose(g[:, j], want, rtol=5e-6, atol=5e-7)


def test_compact_support_in_ratio():
    H = hamiltonian_from_expression("1 * bump(rho; 0.5, 2)", n=2, k=1)
    # points leaning entirely into the last-k slot have infinite ratio
    far = np.array([[0.0, 0.0, 0.0, 1.0], [0.1, 0.0, 0.0, np.sqrt(0.99)]])
    vals = np.asarray(H(far))
    assert vals[0] == 0.0
    assert vals[1] == 0.0  # ratio 99 is far past the cutoff
    near = np.array([[1.0, 0.0, 0.0, 0.0]])
    assert np.asarray(H(near))[0] == 1.0


def test_parse_errors():
    for bad in ("bump(rho; 1, 3)",          # missing leading coefficient
                "1 * mono(x1^2)",           # no bump factor in the term
                "1 * bump(rho; 3, 1)",      # inverted support interval
                "1 * bump(rho; 1, 3) * mono(x9^2)",  # coordinate out of range
                "1 * bump(rho; 1, 3) +",    # dangling operator
                "1 * bump(r; 1, 3)"):       # unknown symbol
        with pytest.raises(ParseError):
            hamiltonian_from_expression(bad, n=2, k=1)


def test_estimated_meta_brackets_values():
    H = random_hamiltonian(2, 1, seed=40)
    rng = np.random.default_rng(23)
    th = sphere(rng, 500, 4)
    vals = np.asarray(H(th))
    assert np.all(vals >= 0)
    assert H.meta.M >= np.max(vals)
    assert 0 < H.meta.rho0 < H.meta.rho1


def test_explicit_meta_is_kept():
    meta = SupportMeta(M=1.0, m=0.5, rho0=0.1, rho1=3.0)
    H = hamiltonian_from_expression("1 * bump(rho; 1, 3)", n=2, k=1, meta=meta)
    assert H.meta == meta
    H.audit(samples=500, seed=0)


def test_audit_catches_wrong_bound():
    bad = SupportMeta(M=0.2, m=0.5, rho0=0.1, rho1=3.0)  # M too small
    H = hamiltonian_from_expression("1 * bump(rho; 1, 3)", n=2, k=1, meta=bad)
    from symcone import AuditError
    with pytest.raises(AuditError):
        H.audit(samples=500, seed=0)


def _fd_grad(H, th, h=1e-6):
    """Central differences of the expression in the unnormalized argument."""
    cols = []
    for j in range(th.shape[1]):
        e = np.zeros(th.shape[1])
        e[j] = h
        cols.append((np.asarray(H.eval_fn(th + e)) - np.asarray(H.eval_fn(th - e))) / (2 * h))
    return np.stack(cols, axis=1)


def _check_fused_kernel(H, th):
    vals, g = H.grad_fn(th)
    np.testing.assert_allclose(vals, H.eval_fn(th), rtol=1e-15, atol=0.0)
    np.testing.assert_allclose(g, _fd_grad(H, th), rtol=5e-6, atol=5e-7)


def test_fused_kernel_matches_fd_on_random_hamiltonians():
    th = sphere(np.random.default_rng(24), 80, 4)
    for seed in range(20):
        _check_fused_kernel(random_hamiltonian(2, 1, seed=seed), th)


_HAND_WRITTEN = [
    "0.7 * bump(rho; 0.3, 1.9) * mono(x1^2 y2^3)",       # multi-variable monomial
    "0.4 * bump(rho; 0.5, 2.5) * mono(x2 y1^5)",          # exponents 1 and 5
    "1 * bump(rho; 0.4, 1.8) + 0.3 * bump(rho; 0.4, 1.8) * mono(y1^2)",  # shared bump
    "0.5 * bump(rho; 0.2, 1.5) * mono(x1^3) * bump(rho; 0.6, 2.4) * mono(x1 y1^4)",
]
# odd powers change sign, so the metadata is given rather than estimated
_GIVEN_META = SupportMeta(M=1.0, m=0.5, rho0=0.1, rho1=3.0)


@pytest.mark.parametrize("text", _HAND_WRITTEN)
def test_fused_kernel_matches_fd_on_hand_written(text):
    H = hamiltonian_from_expression(text, n=2, k=1, meta=_GIVEN_META)
    _check_fused_kernel(H, sphere(np.random.default_rng(25), 80, 4))


def test_stacked_bump_profiles_are_bitwise_per_bump_calls(monkeypatch):
    """The kernel evaluates all distinct bumps in one stacked call; making
    that call one profile at a time changes no bit of its output."""
    Hs = [random_hamiltonian(2, 1, seed=seed) for seed in range(20)]
    Hs += [hamiltonian_from_expression(text, n=2, k=1, meta=_GIVEN_META)
           for text in _HAND_WRITTEN + ["1 * bump(rho; 1, 3)"]]  # single bump
    th = np.vstack([sphere(np.random.default_rng(28), 200, 4),
                    [[0.0, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0, 0.0]]])  # rho = inf, 0
    stacked = [H.grad_fn(th) for H in Hs]
    profiles = []

    def per_bump(t, t_flat, t_zero):
        pairs = [plateau_bump_with_deriv(t, a, b)
                 for a, b in zip(t_flat.ravel().tolist(), t_zero.ravel().tolist())]
        profiles.append(len(pairs))
        return np.stack([v for v, _ in pairs]), np.stack([d for _, d in pairs])

    monkeypatch.setattr(exprs, "plateau_bump_with_deriv", per_bump)
    for H, (vals, grad) in zip(Hs, stacked):
        per_vals, per_grad = H.grad_fn(th)
        assert np.array_equal(vals, per_vals) and np.array_equal(grad, per_grad)
    assert len(profiles) == len(Hs) and profiles[-1] == 1 and max(profiles) == 3


def test_fused_kernel_is_finite_where_u_vanishes():
    """Rows inside the last-k block have rho = inf; value and gradient are 0."""
    H = random_hamiltonian(3, 2, seed=3)
    th = np.array([[0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
                   [0.0, 0.0, 0.0, 0.0, 0.6, -0.8]])
    vals, g = H.grad_fn(th)
    assert np.all(np.isfinite(g))
    np.testing.assert_array_equal(vals, 0.0)
    np.testing.assert_array_equal(g, 0.0)


def test_rhs_agrees_with_the_finite_difference_route():
    """Dual route: the fused kernel and eval_fn plus central differences
    give the same sphere field and conformal rate."""
    H = random_hamiltonian(2, 1, seed=11)
    plain = ContactHamiltonian(H.eval_fn, k=H.k, n=H.n, meta=H.meta)
    th = sphere(np.random.default_rng(26), 200, 4)
    Y, rate = ContactIsotopy(H)._rhs(0.0, th)
    Y_fd, rate_fd = ContactIsotopy(plain)._rhs(0.0, th)
    np.testing.assert_allclose(Y, Y_fd, atol=1e-6)
    np.testing.assert_allclose(rate, rate_fd, atol=1e-6)


def test_scaled_stays_an_expression():
    H = random_hamiltonian(2, 1, seed=12)
    s = 2.75
    Hs = H.scaled(s)
    assert isinstance(Hs, ExpressionHamiltonian)
    assert Hs.meta == H.meta.scaled(s)
    th = sphere(np.random.default_rng(27), 300, 4)
    np.testing.assert_allclose(Hs.eval_fn(th), s * H.eval_fn(th), rtol=1e-15, atol=0.0)
    _, g = Hs.grad_fn(th)
    np.testing.assert_allclose(g, s * H.grad_fn(th)[1], rtol=1e-14, atol=1e-15)
    # round trip through the domain serializer keeps text, meta and values
    back = domain_from_dict(domain_to_dict(StarDomain(Hs))).H
    assert back.text == Hs.text and back.meta == Hs.meta
    np.testing.assert_array_equal(back.eval_fn(th), Hs.eval_fn(th))
    # StarDomain.scaled goes through the same path
    assert isinstance(StarDomain(H).scaled(2.0).H, ExpressionHamiltonian)
