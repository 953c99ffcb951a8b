import numpy as np
import pytest

from symcone import (
    AuditError,
    DimensionMismatchError,
    ContactIsotopy,
    DomainError,
    ExpressionHamiltonian,
    IntegrationError,
    SupportMeta,
    contact_vector_field,
    model_field_contracting,
    model_field_expanding,
    random_hamiltonian,
    reeb_derivative,
    reeb_field,
    symplectic_pairing,
)
from symcone import contact
from symcone.geometry import symplectic_gradient
from symcone.sampling import sphere_points

from conftest import sphere, zero_hamiltonian


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
    iso = ContactIsotopy(K, step=0.02)
    rng = np.random.default_rng(14)
    th = sphere(rng, 20, 4)
    a, _ = iso.flow_many(th, 0.0, 1.0)
    b, _ = iso.flow_many(3.7 * th, 0.0, 1.0)
    np.testing.assert_allclose(a, b, atol=1e-13)
    np.testing.assert_allclose(np.linalg.norm(a, axis=1), 1.0, atol=1e-12)


def test_inverse_images_roundtrip():
    K = random_hamiltonian(2, 1, seed=4, amplitude=0.3)
    iso = ContactIsotopy(K, step=0.01)
    rng = np.random.default_rng(15)
    th = sphere(rng, 30, 4)
    pre, c = iso.inverse_images(th)
    back, _ = iso.flow_many(pre, 0.0, 1.0)
    assert np.max(np.linalg.norm(back - th, axis=1)) < 1e-9
    assert np.all(c > 0)


def test_identity_isotopy_fixes_everything():
    iso = ContactIsotopy(zero_hamiltonian(2, 1))
    rng = np.random.default_rng(16)
    th = sphere(rng, 25, 4)
    out, logc = iso.flow_many(th, 0.0, 1.0)
    np.testing.assert_allclose(out, th, atol=1e-15)
    np.testing.assert_array_equal(logc, np.zeros(25))


@pytest.mark.parametrize("suffix, changed, message", [
    ("", {"rho1": 0.5}, "support leaks past rho1"),
    ("", {"m": 2.0}, "is not a lower bound"),
    ("", {"m": 0.0}, "m must be positive"),
    (" * mono(x1)", {}, "negative value"),
], ids=["rho1-too-small", "m-too-large", "m-zero", "negative-values"])
def test_audit_rejects_wrong_metadata(suffix, changed, message):
    """The sampled route refutes metadata the declared route gets wrong."""
    meta = {"M": 1.0, "m": 0.5, "rho0": 0.1, "rho1": 3.0, **changed}
    H = ExpressionHamiltonian("1 * bump(rho; 1, 3)" + suffix, n=2, k=1,
                              meta=SupportMeta(**meta))
    with pytest.raises(AuditError, match=message):
        H.audit()


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
    assert grads == [30] * (12 * 20)
    assert evals == []


@pytest.mark.parametrize("n, k", [(2, 1), (3, 2)])
def test_flow_is_bitwise_independent_of_the_input_layout(n, k):
    # the flow holds its batch column-major; a row-major batch must give
    # the same bits, and the endpoints must keep the contiguous columns
    K = random_hamiltonian(n, k, seed=4, amplitude=0.5)
    iso = ContactIsotopy(K, step=0.05)
    th = sphere(np.random.default_rng(22), 257, 2 * n)
    assert th.flags.c_contiguous
    ends_c, logc_c = iso.flow_many(th, 1.0, 0.0)
    ends_f, logc_f = iso.flow_many(np.asfortranarray(th), 1.0, 0.0)
    assert np.array_equal(ends_c, ends_f) and np.array_equal(logc_c, logc_f)
    assert ends_c.flags.f_contiguous and ends_f.flags.f_contiguous


_ONE_ROW = [
    ("reeb_field", lambda K, row: reeb_field(row)),
    ("call", lambda K, row: K(row)),
    ("value_and_grad", lambda K, row: K.value_and_grad(row)),
    ("contact_vector_field", lambda K, row: contact_vector_field(K, row)),
    ("reeb_derivative", lambda K, row: reeb_derivative(K, row)),
]


@pytest.mark.parametrize("call", [c for _, c in _ONE_ROW],
                         ids=[name for name, _ in _ONE_ROW])
def test_kernels_refuse_a_single_row(call):
    # the kernels take (N, 2n) batches only; one row is not unwrapped
    K = random_hamiltonian(2, 1, seed=3)
    row = sphere(np.random.default_rng(23), 1, 4)
    call(K, row)  # the same point as a one-row batch is fine
    with pytest.raises(DimensionMismatchError):
        call(K, row[0])


def test_flow_stages_skip_the_reeb_field_check(monkeypatch):
    # the RK loop pairs gradients with the rotation field directly: rows
    # it has just renormalised are not checked again on every stage
    def refused(th):
        raise AssertionError("reeb_field called inside an RK stage")

    K = random_hamiltonian(2, 1, seed=3, amplitude=0.3)
    th = sphere(np.random.default_rng(25), 30, 4)
    want = ContactIsotopy(K, step=0.05).flow_many(th, 0.0, 1.0)
    monkeypatch.setattr(contact, "reeb_field", refused)
    got = ContactIsotopy(K, step=0.05).flow_many(th, 0.0, 1.0)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def _reference_flow(iso, thetas, t_from, t_to):
    """A sphere-only DOP853 loop of its own, the reference route for the
    package's one loop: the same stage kernels, stepped on scipy's DOP853
    table with the loop's sums written out in the loop's order.  A stage
    input is y + sum_j (a_j h) k_j, and a step adds (sum_j b_j k_j) h,
    each sum over the nonzero coefficients in j order."""
    from scipy.integrate._ivp import dop853_coefficients as ref

    K = iso.hamiltonian

    def rhs(th):
        return contact._field_and_rate(*K.value_and_grad(th), th)

    def combined(coeffs, slopes):
        terms = [c * k for c, k in zip(coeffs, slopes) if c]
        return sum(terms[1:], terms[0])

    th = contact._renorm(np.asfortranarray(thetas))
    span = t_to - t_from
    n_steps = max(1, int(round(abs(span) / iso.step)))
    h = span / n_steps
    logc = np.zeros(th.shape[0])
    for _ in range(n_steps):
        fs, cs = [], []
        for row in ref.A[:12]:  # row 0 is zero: the first stage is at th
            f, c = rhs(contact._renorm(th + combined(row * h, fs)) if fs else th)
            fs.append(f)
            cs.append(c)
        th = contact._renorm(combined(ref.B, fs) * h + th)
        logc += combined(ref.B, cs) * h
    return th, logc


@pytest.mark.parametrize("n, k", [(2, 1), (3, 2)])
@pytest.mark.parametrize("t_from, t_to", [(0.0, 1.0), (1.0, 0.0)],
                         ids=["forward", "backward"])
def test_flow_is_bitwise_the_reference_sphere_loop(n, k, t_from, t_to):
    iso = ContactIsotopy(random_hamiltonian(n, k, seed=5, amplitude=0.5), step=0.05)
    th = sphere(np.random.default_rng(24), 97, 2 * n)
    ends, logc = iso.flow_many(th, t_from, t_to)
    want_ends, want_logc = _reference_flow(iso, th, t_from, t_to)
    assert np.array_equal(ends, want_ends) and np.array_equal(logc, want_logc)
    assert np.any(logc != 0.0)


def test_diverging_flow_names_its_step():
    K = random_hamiltonian(2, 1, seed=3)
    K.grad_fn = lambda th: (np.full(th.shape[0], np.inf), np.full_like(th, np.inf))
    iso = ContactIsotopy(K)
    th = sphere(np.random.default_rng(26), 5, 4)
    with np.errstate(invalid="ignore"), \
            pytest.raises(IntegrationError, match="flow diverged") as exc:
        iso.flow_many(th)
    assert exc.value.diagnostics == {"step_index": 0}


def test_two_counts_step_bitwise_as_their_own_calls():
    """One call at the counts (n, 2n) gives each count, bitwise, what a
    call at that count alone gives.  While both runs are live each stage
    call holds the rows of the n-run over those of the 2n-run, each
    bitwise what its own call passes at that stage; once the n-run has
    left, the 2n-run's rows alone.  Each run reads the extremes of log c
    over every sphere row the call has stepped up to its last step."""
    K = random_hamiltonian(2, 1, seed=5, amplitude=0.5)
    calls = []

    def stage(z, th):  # z grows like e^{50 t}, past 1e13 by t = 0.7
        calls.append((z.copy(), th.copy()))
        return (50.0 * z,) + contact._field_and_rate(*K.value_and_grad(th), th)

    rng = np.random.default_rng(27)
    z0, th0 = rng.uniform(0.5, 1.0, (3, 4)), sphere(rng, 8, 4)
    got = contact._lockstep_rk(stage, z0, th0, (9, 18), 0.7)
    paired, alone = calls[:], []
    for n in (9, 18):
        calls.clear()
        alone.append((contact._lockstep_rk(stage, z0, th0, (n,), 0.7)[0],
                      calls[:]))
    assert len(paired) == 18 * 12
    for i, (z, th) in enumerate(paired):
        runs = [calls for _, calls in alone if i < len(calls)]
        assert np.array_equal(z, np.vstack([run[i][0] for run in runs]))
        assert np.array_equal(th, np.vstack([run[i][1] for run in runs]))
    assert len(got) == 2
    for run, (want, _) in zip(got, alone):
        assert len(run) == len(want) == 5
        assert all(np.array_equal(a, b) for a, b in zip(run[:3], want[:3]))
        assert want[3] < 0.0 < want[4]
        assert np.all(np.isfinite(run[0])) and np.max(run[0]) > 1e13
    # the n-run reads its own extremes and the 2n-run's up to step n, the
    # 2n-run's first n steps being a call of n steps over half the span;
    # the 2n-run reads both runs' extremes over the whole call
    (n_run, _), (fine, _) = alone
    (half,) = contact._lockstep_rk(stage, z0, th0, (9,), 0.35)
    assert got[0][3:] == (min(n_run[3], half[3]), max(n_run[4], half[4]))
    assert got[1][3:] == (min(n_run[3], fine[3]), max(n_run[4], fine[4]))
    # with no sphere rows, both runs read the extremes at t = 0
    bare = contact._lockstep_rk(stage, z0, th0[:0], (9, 18), 0.7)
    assert [run[3:] for run in bare] == [(0.0, 0.0)] * 2


@pytest.mark.parametrize("z_scale, counts, want", [
    (1e303, (20, 40), {(20,): 4, (40,): 7, (20, 40): 4}),
    (1e292, (2, 4), {(2,): None, (4,): 3, (2, 4): 3})],
    ids=["coarser-first", "finer-after-the-coarser-left"])
def test_two_counts_raise_at_the_first_non_finite_step(z_scale, counts, want):
    """The loop raises at the first step after which a row of any live
    run is not finite.  A pair raises where its coarser run leaves the
    finite numbers, when that run does; else, once the coarser run has
    returned its finite rows, where the finer run's own call raises."""
    def stage(z, th):  # z grows like e^{50 t}
        return 50.0 * z, np.zeros_like(th), np.zeros(len(th))

    rng = np.random.default_rng(27)
    z0, th0 = z_scale * rng.uniform(0.5, 1.0, (2, 4)), sphere(rng, 4, 4)
    index = {}
    for steps in [counts[:1], counts[1:], counts]:
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                contact._lockstep_rk(stage, z0, th0, steps, 0.7)
                index[steps] = None
            except IntegrationError as exc:
                assert str(exc) == "flow diverged"
                index[steps] = exc.diagnostics["step_index"]
    assert index == want


@pytest.mark.parametrize("step", [0.0, -1e-3])
def test_isotopy_refuses_a_step_that_is_not_positive(step):
    with pytest.raises(IntegrationError, match="step underflow"):
        ContactIsotopy(random_hamiltonian(2, 1, seed=3), step=step)


def _dop853_matrix():
    """The typed DOP853 rows as the 12 x 12 matrix A, its first row 0."""
    A = np.zeros((12, 12))
    for i, row in enumerate(contact.DOP853_A, 1):
        A[i, :len(row)] = row
    return A


def test_dop853_table_is_scipys():
    # scipy is a test dependency only: the package types the table in
    from scipy.integrate._ivp import dop853_coefficients as ref

    assert [len(row) for row in contact.DOP853_A] == list(range(1, 12))
    assert np.array_equal(_dop853_matrix(), ref.A[:12, :12])
    assert np.array_equal(np.array(contact.DOP853_B), ref.B)


def test_dop853_weights_meet_the_quadrature_conditions():
    # sum_i b_i c_i^(q-1) = 1/q up to order 8, with c_i the row sums of A
    b = np.array(contact.DOP853_B)
    c = _dop853_matrix().sum(axis=1)
    for q in range(1, 9):
        assert abs(np.sum(b * c ** (q - 1)) - 1.0 / q) < 1e-14


def test_dop853_steps_a_rotation_at_order_8():
    """The ambient stage z' = J(2z), the field of |z|^2, has the exact
    time-1 flow z -> rotation of each (x_j, y_j) plane by angle 2.  The
    loop on DOP853 reaches it at observed order 8 from 3 to 8 steps."""
    z0 = np.random.default_rng(28).standard_normal((20, 4))

    def stage(z, th):
        return symplectic_gradient(2.0 * z), np.empty_like(th), np.empty(len(th))

    c, s = np.cos(2.0), np.sin(2.0)
    x, y = z0[:, :2], z0[:, 2:]
    exact = np.hstack([c * x - s * y, s * x + c * y])
    errors = []
    for n in range(3, 9):
        (run,) = contact._lockstep_rk(stage, z0, np.empty((0, 4)), (n,), 1.0)
        errors.append(np.max(np.abs(run[0] - exact)))
    orders = [np.log(errors[i] / errors[i + 1]) / np.log((i + 4) / (i + 3))
              for i in range(5)]
    assert min(orders) >= 7.9


def _blowing_up():
    """A real expression whose flow leaves the finite numbers: the kernel
    sees non-finite rows at the stage after it overflows."""
    return ExpressionHamiltonian("1e200 * bump(rho; 0.1, 3) * mono(x1^2)", 2, 1,
                                 meta=SupportMeta(1, 1, 0.1, 3))


def test_diverging_expression_flow_is_the_loops_integration_error():
    # the kernel does not refuse the non-finite rows of a stage: the loop
    # finds them after the step and names it
    iso = ContactIsotopy(_blowing_up(), step=1e-2)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(IntegrationError, match="flow diverged") as exc:
        iso.flow_many(sphere_points(2, 50, 1))
    assert exc.value.diagnostics == {"step_index": 1}
    # an entry point that is not a stage still refuses such rows
    with pytest.raises(DomainError, match="non-finite"):
        iso.hamiltonian.value_and_grad(np.full((1, 4), np.nan))
