import numpy as np
import pytest

from symcone import (
    ContactHamiltonian,
    ExpressionHamiltonian,
    ParseError,
    SupportMeta,
    angle_ratio_of,
    random_hamiltonian,
    scaling_family,
)
from symcone import contact, exprs, sampling
from symcone.growth import scale_id
from symcone.blends import plateau_bump, plateau_bump_with_deriv

from conftest import sphere


def test_eval_matches_hand_rolled():
    """bump-of-ratio times a coordinate monomial, written out by hand."""
    H = ExpressionHamiltonian("2.5 * bump(rho; 0.5, 2) * mono(x1^2 y2^2)",
                              n=2, k=1)
    rng = np.random.default_rng(21)
    th = sphere(rng, 300, 4)
    rho = angle_ratio_of(th, 1)
    want = 2.5 * plateau_bump(rho, 0.5, 2.0) * th[:, 0] ** 2 * th[:, 3] ** 2
    np.testing.assert_allclose(np.asarray(H(th)), want, rtol=1e-13, atol=1e-15)


def test_gradient_matches_fd():
    H = ExpressionHamiltonian(
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
    H = ExpressionHamiltonian("1 * bump(rho; 0.5, 2)", n=2, k=1)
    # points leaning entirely into the last-k slot have infinite ratio
    far = np.array([[0.0, 0.0, 0.0, 1.0], [0.1, 0.0, 0.0, np.sqrt(0.99)]])
    vals = np.asarray(H(far))
    assert vals[0] == 0.0
    assert vals[1] == 0.0  # ratio 99 is far past the cutoff
    near = np.array([[1.0, 0.0, 0.0, 0.0]])
    assert np.asarray(H(near))[0] == 1.0


@pytest.mark.parametrize("text, zero_rho, floor_rho, c", [
    ("1 * bump(rho; 1, 3)", 3.0, 1.0, 1.0),
    # the floor comes from the larger pure-bump coefficient, and its ratio
    # from that term's least bump start
    ("0.4 * bump(rho; 0.2, 1.5) + 0.9 * bump(rho; 0.6, 1) * bump(rho; 0.3, 2)"
     " + 0.2 * bump(rho; 0.1, 4) * mono(x1^2 y2^4)", 4.0, 0.3, 0.9),
    # x1 * x1 merges to an even power
    ("1 * bump(rho; 1, 3) * mono(x1) * mono(x1) + 0.5 * bump(rho; 0.5, 2)",
     3.0, 0.5, 0.5),
    # an odd power can make a term negative, and with no pure-bump term
    # there is no floor; either way the zero ratio stands
    ("1 * bump(rho; 1, 3) + 0.5 * bump(rho; 0.5, 2) * mono(x1^3 y1)",
     3.0, -np.inf, None),
    ("0.8 * bump(rho; 0.5, 2) * mono(x1^2) + 0.3 * bump(rho; 0.2, 1) * mono(y2^4)",
     2.0, -np.inf, None),
])
def test_plan_states_its_rho_facts(text, zero_rho, floor_rho, c):
    H = ExpressionHamiltonian(text, n=2, k=1)
    assert H.zero_rho == zero_rho == H.meta.rho1
    assert H.floor_rho == floor_rho
    total = sum(coeff for coeff, _, _ in H._plan)
    assert H.floor == (-np.inf if c is None else c - exprs.FLOOR_SLACK * total)
    # the facts hold as eval_fn computes: exactly 0 from zero_rho on, and
    # at least the floor up to floor_rho
    th = sphere(np.random.default_rng(41), 20_000, 4)
    rho = angle_ratio_of(th, 1)
    vals = H.eval_fn(th)
    assert np.count_nonzero(rho >= zero_rho) > 100
    assert np.all(vals[rho >= zero_rho] == 0.0)
    if c is not None:
        low = sampling.sphere_points_with_angle_ratio(2, 1, 2000, 3, floor_rho)
        assert np.all(H.eval_fn(low) >= H.floor)


def test_a_plain_hamiltonian_states_no_rho_facts():
    H = ContactHamiltonian(lambda th: np.ones(th.shape[0]), k=1, n=2,
                           meta=SupportMeta(M=1.0, m=1.0, rho0=0.1, rho1=1.0),
                           grad_fn=None)
    assert (H.zero_rho, H.floor_rho, H.floor) == (np.inf, -np.inf, -np.inf)


def test_parse_errors():
    for bad in ("bump(rho; 1, 3)",          # missing leading coefficient
                "1 * mono(x1^2)",           # no bump factor in the term
                "1 * bump(rho; 3, 1)",      # inverted support interval
                "1 * bump(rho; 1, 3) * mono(x9^2)",  # coordinate out of range
                "1 * bump(rho; 1, 3) +",    # dangling operator
                "1 * bump(r; 1, 3)"):       # unknown symbol
        with pytest.raises(ParseError):
            ExpressionHamiltonian(bad, n=2, k=1)


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
    H = ExpressionHamiltonian("1 * bump(rho; 1, 3)", n=2, k=1, meta=meta)
    assert H.meta == meta
    H.audit(seed=0)


def test_audit_catches_wrong_bound():
    bad = SupportMeta(M=0.2, m=0.5, rho0=0.1, rho1=3.0)  # M too small
    H = ExpressionHamiltonian("1 * bump(rho; 1, 3)", n=2, k=1, meta=bad)
    from symcone import AuditError
    with pytest.raises(AuditError):
        H.audit(seed=0)


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
    H = ExpressionHamiltonian(text, n=2, k=1, meta=_GIVEN_META)
    _check_fused_kernel(H, sphere(np.random.default_rng(25), 80, 4))


def test_stacked_bump_profiles_are_bitwise_per_bump_calls(monkeypatch):
    """The kernel evaluates all distinct bumps in one stacked call; making
    that call one profile at a time changes no bit of its output."""
    Hs = [random_hamiltonian(2, 1, seed=seed) for seed in range(20)]
    Hs += [ExpressionHamiltonian(text, n=2, k=1, meta=_GIVEN_META)
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

    monkeypatch.setattr(exprs, "_plateau_profile", per_bump)
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
    h = 1e-5

    def fd_pair(th):
        # central differences along each coordinate, back on the sphere
        g = np.empty_like(th)
        for j in range(th.shape[1]):
            e = np.zeros(th.shape[1])
            e[j] = h
            plus, minus = th + e, th - e
            plus /= np.linalg.norm(plus, axis=1, keepdims=True)
            minus /= np.linalg.norm(minus, axis=1, keepdims=True)
            g[:, j] = (H.eval_fn(plus) - H.eval_fn(minus)) / (2 * h)
        return H.eval_fn(th), g

    plain = ContactHamiltonian(H.eval_fn, k=H.k, n=H.n, meta=H.meta, grad_fn=fd_pair)
    th = sphere(np.random.default_rng(26), 200, 4)
    Y, rate = contact._field_and_rate(*H.value_and_grad(th), th)
    Y_fd, rate_fd = contact._field_and_rate(*plain.value_and_grad(th), th)
    np.testing.assert_allclose(Y, Y_fd, atol=1e-6)
    np.testing.assert_allclose(rate, rate_fd, atol=1e-6)


@pytest.mark.parametrize("s", [2.0, 3.5, 0.3])
def test_scaling_family_elements_are_bitwise_s_times_f(s):
    """Each element of the scaling family is s * f: its values are
    bitwise s times those of f = bump(rho; 1, 3), its gradients are so up
    to the rounding of one reassociated product, and its metadata is f's
    with M and m scaled."""
    fam = scaling_family(scales=(1.0, s), grid_points=10, pool_size=0)
    f, sf = fam.elements["f"].H, fam.elements[scale_id(s)].H
    assert isinstance(sf, ExpressionHamiltonian)
    assert sf.meta == SupportMeta(M=s * f.meta.M, m=s * f.meta.m,
                                  rho0=f.meta.rho0, rho1=f.meta.rho1)
    th = sphere(np.random.default_rng(27), 300, 4)
    np.testing.assert_array_equal(sf.eval_fn(th), s * f.eval_fn(th))
    vals, grad = sf.grad_fn(th)
    f_vals, f_grad = f.grad_fn(th)
    np.testing.assert_array_equal(vals, s * f_vals)
    np.testing.assert_allclose(grad, s * f_grad, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("n, k", [(2, 1), (3, 2)])
def test_fused_kernel_is_bitwise_independent_of_the_input_layout(n, k):
    H = random_hamiltonian(n, k, seed=6)
    th = sphere(np.random.default_rng(23), 301, 2 * n)
    vals_c, grad_c = H.grad_fn(th)
    vals_f, grad_f = H.grad_fn(np.asfortranarray(th))
    assert np.array_equal(vals_c, vals_f) and np.array_equal(grad_c, grad_f)
    assert np.array_equal(H.eval_fn(np.asfortranarray(th)), vals_c)
    assert grad_f.flags.f_contiguous  # a column-major batch stays column-major
