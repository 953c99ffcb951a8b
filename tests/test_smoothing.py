import sys
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from symcone import (
    AuditError,
    ContactIsotopy,
    DomainError,
    liouville_squeeze_witness,
    radial_step_bump,
    random_hamiltonian,
    symplecticity_defect,
)
from symcone import IntegrationError, blends, geometry, sampling, smoothing
from symcone.contact import DOP853_B, _lockstep_rk, _step_count, reeb_derivative
from symcone.smoothing import (PILOT_STEPS, STEP_TOL, SmoothedSymplectization,
                               StepChoice, symplecticity_defect_of_images,
                               symplecticity_stencil)

from conftest import (lift_at_the_maps_step, smoothed_map, sphere,
                      symplectize_ambient, zero_hamiltonian)


def shell(rng, npts, dim, r2lo, r2hi):
    th = sphere(rng, npts, dim)
    rr = rng.uniform(r2lo, r2hi, size=npts)
    return th * np.sqrt(rr)[:, None]


@pytest.fixture(scope="module")
def tame_map():
    """The map of one generator, beside that generator's isotopy: the
    reference route of the homogeneous lift."""
    K = random_hamiltonian(2, 1, seed=31, amplitude=0.1)
    return ContactIsotopy(K, step=0.02), smoothed_map(K, 0.05)


def test_identity_isotopy_certificate_is_tight():
    sm = smoothed_map(zero_hamiltonian(2, 1), 0.1)
    cert = sm.certificate
    assert cert.M == 1.0 and cert.m == 1.0
    assert cert.K_factor == 4.0
    assert cert.eps == 0.1 and cert.chi_one_above == 0.4


def test_certificate_brackets_one(tame_map):
    _, sm = tame_map
    cert = sm.certificate
    assert cert.m < 1.0 < cert.M
    assert cert.K_factor == pytest.approx(4.0 * cert.M / cert.m)


def test_identity_ball_is_exact(tame_map):
    """Inside the switch-off ball chi and its slope are exactly 0, so the
    field vanishes and the map does not move points at all.  The map
    skips these rows, so this holds by construction; its premise, that
    the loop would leave them put, is
    `test_loop_leaves_ordinary_ball_rows_put`."""
    _, sm = tame_map
    rng = np.random.default_rng(30)
    zs = shell(rng, 300, 4, 1e-6, sm.certificate.eps * 0.999)
    assert np.array_equal(sm(zs), zs)


def test_origin_maps_to_itself(tame_map):
    """The origin's divisor is 1, where sqrt(r) would give 0/0; the rows
    beside it keep their own images."""
    _, sm = tame_map
    cert = sm.certificate
    rng = np.random.default_rng(37)
    zs = np.vstack([np.zeros((1, 4)),
                    shell(rng, 4, 4, 1e-4, cert.K_factor * cert.eps * 4.0)])
    out = sm(zs)
    assert np.array_equal(out[0], np.zeros(4))
    assert np.array_equal(out[1:], sm(zs[1:]))


def _counted_grads(K, monkeypatch):
    original, rows = K.grad_fn, []

    def counted(th):
        rows.append(th.shape[0])
        return original(th)

    monkeypatch.setattr(K, "grad_fn", counted)
    return rows


def test_ball_row_with_a_signed_zero_is_stepped(tame_map, monkeypatch):
    """The field of the ball is made of signed zeros, and adding one can
    flip the sign of a zero coordinate, so a ball row with a +-0.0
    coordinate takes the loop's steps: its image, signs included, is the
    one the loop gives it beside the probes."""
    iso, sm = tame_map
    zs = np.array([[-0.0, -0.0, -0.0, -0.1], [0.1, 0.0, -0.1, 0.1],
                   [0.1, -0.1, 0.1, 0.1]])
    rows = _counted_grads(iso.hamiltonian, monkeypatch)
    images = sm(zs)
    assert rows == [2 + 512] * (12 * round(1.0 / sm.step))
    (stepped,) = _lockstep_rk(sm._stage, zs[:2], sm._probes, (round(1.0 / sm.step),),
                              1.0)
    assert np.array_equal(images[:2], stepped[0])
    assert np.array_equal(np.signbit(images[:2]), np.signbit(stepped[0]))
    # the loop turns the first row's third zero from -0.0 to +0.0
    assert np.signbit(zs[0, 2]) and not np.signbit(images[0, 2])
    assert np.array_equal(images[2], zs[2])


def test_loop_leaves_ordinary_ball_rows_put(tame_map):
    """The premise of the ball rows' skip: stepped through the loop at
    the map's step, a ball row with no +-0.0 coordinate, out to the
    ball's edge r = eps, comes back bitwise unchanged, so skipping it
    gives the image the loop would."""
    _, sm = tame_map
    rng = np.random.default_rng(38)
    eps = sm.certificate.eps
    ball = np.vstack([shell(rng, 20, 4, 1e-300, eps * 0.999),
                      [[0.125, 0.18540496217739158, 1e-200, -1e-200]]])
    assert np.sum(ball * ball, axis=1)[-1] == eps and np.all(ball != 0.0)
    (stepped,) = _lockstep_rk(sm._stage, ball, np.empty((0, 4)),
                              (_step_count(1.0, sm.step),), 1.0)
    assert np.array_equal(stepped[0], ball)


def test_agreement_with_homogeneous_lift(tame_map):
    iso, sm = tame_map
    cert = sm.certificate
    rng = np.random.default_rng(31)
    zs = shell(rng, 200, 4, cert.K_factor * cert.eps * 1.001,
               cert.K_factor * cert.eps * 4.0)
    diff = np.linalg.norm(sm(zs) - symplectize_ambient(iso, zs), axis=1)
    assert np.max(diff) < 1e-6


def test_symplecticity_all_regions(tame_map):
    _, sm = tame_map
    cert = sm.certificate
    rng = np.random.default_rng(32)
    zs = np.vstack([
        shell(rng, 20, 4, 1e-4, cert.eps * 0.9),
        shell(rng, 20, 4, cert.eps * 1.05, cert.K_factor * cert.eps * 0.95),
        shell(rng, 20, 4, cert.K_factor * cert.eps * 1.05,
              cert.K_factor * cert.eps * 3.0),
    ])
    assert np.max(symplecticity_defect(sm, zs)) < 1e-6


def test_stacked_blocks_map_bitwise_like_separate_calls(tame_map):
    """The map's step is chosen at construction, not from the rows it is
    called on, so one call on stacked blocks gives each block exactly its
    own call's images."""
    _, sm = tame_map
    assert sm.step_choice.estimate <= STEP_TOL  # a measured step
    cert = sm.certificate
    rng = np.random.default_rng(34)
    base = shell(rng, 3, 4, 1e-4, cert.K_factor * cert.eps * 4.0)
    blocks = [
        shell(rng, 8, 4, 1e-4, cert.eps * 0.999),                      # identity ball
        shell(rng, 8, 4, cert.eps * 1.001, cert.K_factor * cert.eps),  # band
        shell(rng, 8, 4, cert.K_factor * cert.eps * 1.001,
              cert.K_factor * cert.eps * 4.0),                         # outer shell
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
    iso = ContactIsotopy(K, step=0.02)
    rng = np.random.default_rng(33)
    zs = shell(rng, 40, 4, 0.5, 2.0)
    one = symplectize_ambient(iso, zs)
    three = symplectize_ambient(iso, 3.0 * zs)
    np.testing.assert_allclose(three, 3.0 * one, rtol=1e-12, atol=1e-12)


def test_smoothed_map_rejects_bad_eps():
    with pytest.raises(DomainError):
        smoothed_map(zero_hamiltonian(2, 1), -0.05)


def test_sampled_envelope_must_sit_inside_the_rate_bound(monkeypatch):
    # A rate bound of exactly 1 is wrong for any nonzero generator.  The
    # step choice audits nothing, so the map is built; its first
    # integration, at the chosen step with all 512 probes, refutes the
    # bound and returns no image.
    K = random_hamiltonian(2, 1, seed=2, amplitude=0.1)
    probes = []

    def recorded(stage, z, th, steps, span):
        probes.append((list(steps), len(th)))
        return _lockstep_rk(stage, z, th, steps, span)

    monkeypatch.setattr(smoothing, "_rate_envelope", lambda K: (1.0, 1.0))
    monkeypatch.setattr(smoothing, "_lockstep_rk", recorded)
    sm = smoothed_map(K, 0.05)
    assert sm.certificate.M == sm.certificate.m == 1.0
    with pytest.raises(AuditError, match="escapes its bound"):
        sm(np.array([[0.1, 0.0, 0.0, 0.0]]))
    # the pilot's call steps every 8th probe, the map's all of them
    assert probes == [([16, 32], 64), ([16], 512)]


def test_lift_rows_are_audited_beside_the_probes():
    """The loop reads log c on every sphere row it steps, so a lift row
    that climbs past the certificate's M refutes it, even where the 512
    probes stay below.  The lift direction is the argmax of the rate
    dK(R) on a dense grid; M sits between the probes' sampled maximum of
    log c and that row's."""
    K = random_hamiltonian(2, 1, seed=12, amplitude=0.1)
    honest = smoothed_map(K, 0.05)
    grid = sampling.sphere_points(2, 20000, 3)
    top = grid[np.argmax(reeb_derivative(K, grid))][None]

    def sampled_max(th):
        (run,) = _lockstep_rk(honest._stage, np.empty((0, 4)), th,
                              (_step_count(1.0, honest.step),), 1.0)
        return run[4]

    probes_max, lift_max = sampled_max(honest._probes), sampled_max(top)
    assert probes_max < lift_max < np.log(honest.certificate.M)
    M = float(np.exp(0.5 * (probes_max + lift_max)))
    sm = SmoothedSymplectization(K, replace(honest.certificate, M=M))
    zs = np.array([[0.5, 0.0, 0.0, 0.0]])
    assert np.array_equal(sm(zs), honest(zs))
    with pytest.raises(AuditError, match="escapes its bound"):
        sm.map_and_lift(zs, 2.0 * top)


def doubling_gap(sm, n):
    """Reference step-doubling gap of DOP853 at n steps on the map's pilot
    rows: the largest row norm of the differences between the runs at n
    and 2n steps, each a loop call of its own."""
    z, th = sm._pilot_rows()
    fine, coarse = (_lockstep_rk(sm._stage, z, th, (k,), 1.0)[0][:3]
                    for k in (2 * n, n))
    return max(np.max(np.linalg.norm(fine[0] - coarse[0], axis=1)),
               np.max(np.linalg.norm(fine[1] - coarse[1], axis=1)),
               np.max(np.abs(fine[2] - coarse[2])))


def test_step_choice_is_the_largest_rung_within_tolerance():
    """Seed 9 needs the second pair: the gap of 16 DOP853 steps against
    32 is over STEP_TOL, so the map takes 24 steps, whose gap against 48
    passes and is the estimate as it stands."""
    K = random_hamiltonian(2, 1, seed=9, amplitude=0.1)
    sm = smoothed_map(K, 0.05)
    choice = sm.step_choice
    assert choice.tol == STEP_TOL
    assert PILOT_STEPS == (16, 24, 32, 48)
    assert choice.h == 1.0 / 24
    assert sm.step == choice.h and sm.hamiltonian is K
    assert doubling_gap(sm, 16) > STEP_TOL  # the coarser step does not pass
    assert choice.estimate == doubling_gap(sm, 24) <= STEP_TOL
    # a second construction chooses the same step
    assert smoothed_map(K, 0.05).step_choice == choice
    assert smoothed_map(random_hamiltonian(2, 1, seed=9, amplitude=0.1),
                        0.05).step_choice == choice


def test_measured_rung_carries_its_own_doubling_estimate():
    sm = smoothed_map(random_hamiltonian(2, 1, seed=2, amplitude=0.1), 0.05)
    choice = sm.step_choice
    assert choice.h == 1.0 / 16
    # each run of the pilot's call is bitwise a call at its count alone
    assert choice.estimate == doubling_gap(sm, 16) <= STEP_TOL


def test_every_map_pays_the_same_pilot_steps(monkeypatch):
    """The pilot runs the same step counts for every isotopy whose first
    pair passes, whichever its gap; a map whose first pair fails runs the
    second pair in a second call, and no more."""
    pilot_steps = []

    def counted(stage, z, th, steps, span):
        pilot_steps[-1].append(list(steps))
        return _lockstep_rk(stage, z, th, steps, span)

    monkeypatch.setattr(smoothing, "_lockstep_rk", counted)
    chosen = []
    for seed in (12, 2, 31, 9):
        pilot_steps.append([])
        K = random_hamiltonian(2, 1, seed=seed, amplitude=0.1)
        chosen.append(smoothed_map(K, 0.05).step)
    assert chosen == [1.0 / 16] * 3 + [1.0 / 24]
    # one call per pair tried, its runs n and 2n steps
    assert pilot_steps == [[[16, 32]]] * 3 + [[[16, 32], [24, 48]]]


def test_diverging_pilot_runs_step_down_and_the_map_still_raises(monkeypatch):
    """Pilot pairs that diverge step down the ladder, and the last one's
    IntegrationError refuses the map at construction."""
    calls = []

    def diverging(stage, z, th, steps, span):
        calls.append(list(steps))
        raise IntegrationError("flow diverged", {"step_index": 0})

    monkeypatch.setattr(smoothing, "_lockstep_rk", diverging)
    with pytest.raises(IntegrationError, match="diverged"):
        smoothed_map(random_hamiltonian(2, 1, seed=2, amplitude=0.1), 0.05)
    assert calls == [[n, 2 * n] for n in PILOT_STEPS]


def _stand_in_pilot(gaps, calls, part=0):
    """A pilot whose pair of runs at n and 2n steps sits gaps[n] apart,
    everything else equal, in one part of the run at n steps: the first
    ambient coordinate (part 0), the first sphere coordinate (1) or the
    first log c (2)."""
    def pilot(stage, z, th, steps, span):
        calls.append(list(steps))
        runs = []
        for n_steps in steps:
            run = [np.zeros_like(z), np.array(th), np.zeros(len(th))]
            if n_steps == steps[0]:
                run[part][..., :1] += gaps.get(n_steps, 0.0)
            runs.append((*run, 0.0, 0.0))
        return runs
    return pilot


@pytest.mark.parametrize("gaps, steps", [
    ({16: 9e-9, 24: 1.0}, 16), ({16: 1.1e-8, 24: STEP_TOL}, 24),
    ({16: 1.1e-8, 24: 1.1e-8, 32: 1.1e-8, 48: 2e-8}, None)],
    ids=["first-pair", "second-pair", "none-passes"])
def test_pairs_are_tried_coarsest_first_and_the_floor_is_unmeasured(
        monkeypatch, gaps, steps):
    """The first pair whose gap is at most STEP_TOL gives the step, and
    its gap, not divided by 2^p - 1, is the estimate; a pair runs only
    when those before it fail.  When none passes, the map steps the last
    pair's n, and that pair's gap, above STEP_TOL, is the estimate."""
    calls = []
    monkeypatch.setattr(smoothing, "_lockstep_rk", _stand_in_pilot(gaps, calls))
    choice = smoothed_map(
        random_hamiltonian(2, 1, seed=2, amplitude=0.1), 0.05).step_choice
    n = steps or PILOT_STEPS[-1]
    assert choice == StepChoice(h=1.0 / n, estimate=gaps[n], tol=STEP_TOL)
    assert calls == [[m, 2 * m] for m in PILOT_STEPS[:PILOT_STEPS.index(n) + 1]]


@pytest.mark.parametrize("part", [1, 2], ids=["sphere-rows", "log-c"])
def test_the_pilot_gap_reads_every_part_of_a_run(monkeypatch, part):
    """Rung 16's runs differ only in the sphere rows, or only in log c:
    the rung fails, and the map takes 24 steps."""
    calls = []
    monkeypatch.setattr(smoothing, "_lockstep_rk",
                        _stand_in_pilot({16: 1.0}, calls, part))
    sm = smoothed_map(random_hamiltonian(2, 1, seed=2, amplitude=0.1), 0.05)
    assert sm.step_choice == StepChoice(h=1.0 / 24, estimate=0.0, tol=STEP_TOL)
    sm(np.array([[1.0, 0.0, 0.0, 0.0]]))
    assert calls == [[16, 32], [24, 48], [24]]


def test_diverging_map_names_its_step():
    """The map steps the one RK loop `flow_many` steps, so a stage that
    leaves the finite numbers raises the same error at the same step."""
    K = random_hamiltonian(2, 1, seed=2, amplitude=0.1)
    sm = smoothed_map(K, 0.05)
    K.grad_fn = lambda th: (np.full(th.shape[0], np.inf), np.full_like(th, np.inf))
    with np.errstate(invalid="ignore"), \
            pytest.raises(IntegrationError, match="flow diverged") as exc:
        sm(np.array([[0.5, 0.0, 0.0, 0.0]]))
    assert exc.value.diagnostics == {"step_index": 0}


def test_zero_isotopy_takes_the_top_rung():
    choice = smoothed_map(zero_hamiltonian(2, 1), 0.1).step_choice
    assert choice == StepChoice(h=1.0 / PILOT_STEPS[0], estimate=0.0,
                                tol=STEP_TOL)


def test_radial_step_bump_profile():
    H = radial_step_bump(2.0, 3.0)
    pts = np.array([[0.0, 0.0, 0.5], [1.9, 0.0, 0.0], [0.0, 3.1, 0.0]])
    vals = np.asarray(H(pts))
    assert vals[0] == 1.0 and vals[1] == 1.0 and vals[2] == 0.0
    with pytest.raises(DomainError):
        radial_step_bump(3.0, 2.0)


def test_squeeze_witness_certifies():
    H = radial_step_bump(2.0, 3.0)
    w = liouville_squeeze_witness(H, 2.0, 3.0)
    assert w.tau == np.log(1.5)
    assert w.scale == pytest.approx((2.0 / 3.0) ** 2, abs=1e-15)
    assert w.violations == 0
    assert w.grid_points == 22 ** 3


def test_squeeze_witness_guards():
    H = radial_step_bump(2.0, 3.0)
    for r1, r2 in ((3.0, 2.0), (2.0, 2.0), (0.0, 3.0)):
        with pytest.raises(DomainError, match="r2 > r1 > 0"):
            liouville_squeeze_witness(H, r1, r2)


def test_rk_stages_run_no_checks(tame_map, monkeypatch):
    """The stages of a flow and of the smoothed map are arithmetic only:
    neither checked profile form nor the split check runs inside
    `flow_many` or `map_and_lift`, through any module's binding of it.
    Construction checked what they would check."""
    _, sm = tame_map
    iso = ContactIsotopy(sm.hamiltonian)  # 15 steps, 180 stages
    checks = (blends.cutoff_with_deriv, blends.plateau_bump_with_deriv,
              geometry.require_split)
    counts = Counter()

    def counting(check):
        def counted(*args):
            counts[check.__name__] += 1
            return check(*args)
        return counted

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "symcone":
            for attr, value in list(vars(module).items()):
                if any(value is check for check in checks):
                    monkeypatch.setattr(module, attr, counting(value))
    geometry.require_split(2, 1)  # the counters see a call
    assert counts == {"require_split": 1}
    counts.clear()
    rng = np.random.default_rng(33)
    iso.flow_many(sphere(rng, 20, 4))
    sm.map_and_lift(shell(rng, 20, 4, 0.01, 2.0), shell(rng, 5, 4, 1.0, 2.0))
    assert counts == {}, dict(counts)


def test_smoothed_map_makes_one_kernel_call_per_rk_stage(tame_map, monkeypatch):
    """Every RK stage is one kernel call on the rows outside the identity
    ball and the probes.  The ball's rows, down to its edge r = eps, take
    no steps: they are their own images, bitwise, and the rows beside
    them keep their own."""
    iso, sm = tame_map
    rng = np.random.default_rng(30)
    eps = sm.certificate.eps
    ball = np.vstack([shell(rng, 10, 4, 1e-300, eps * 0.999),
                      [[0.125, 0.18540496217739158, 1e-200, -1e-200]]])
    assert np.sum(ball * ball, axis=1)[-1] == eps
    outside = shell(rng, 15, 4, eps * 1.001, 2.0)
    want = sm(outside)
    grads = _counted_grads(iso.hamiltonian, monkeypatch)
    images = sm(np.vstack([ball[:5], outside, ball[5:]]))
    # round(1 / step) steps of DOP853's 12 stages at the map's chosen
    # step; the 512 conformal-factor probes ride in the same call
    assert len(DOP853_B) == 12
    assert grads == [15 + 512] * (12 * round(1.0 / sm.step))
    assert np.array_equal(images[5:20], want)
    assert np.array_equal(np.delete(images, np.s_[5:20], axis=0), ball)


def test_map_and_lift_is_bitwise_the_two_routes(tame_map):
    """One lockstep integration gives, bitwise, the map's own images and
    the homogeneous lift from a loop call on the lift's directions alone,
    at the map's step.  Both routes step one loop,
    `contact._lockstep_rk`; `test_flow_is_bitwise_the_reference_sphere_loop`
    (test_contact.py) holds that loop to a separate one written out from
    scipy's DOP853 table, and `test_dop853_steps_a_rotation_at_order_8` to
    the exact flow."""
    _, sm = tame_map
    cert = sm.certificate
    rng = np.random.default_rng(35)
    zs = np.vstack([shell(rng, 6, 4, 1e-4, cert.eps * 0.999),
                    shell(rng, 6, 4, cert.eps * 1.001, cert.K_factor * cert.eps)])
    lift_zs = shell(rng, 7, 4, cert.K_factor * cert.eps * 1.001,
                    cert.K_factor * cert.eps * 4.0)
    images, lift = sm.map_and_lift(zs, lift_zs)
    assert np.array_equal(images, sm(zs))
    assert np.array_equal(lift, lift_at_the_maps_step(sm, lift_zs))
    with pytest.raises(DomainError, match="origin"):
        sm.map_and_lift(zs, np.zeros((1, 4)))


def test_map_and_lift_is_bitwise_independent_of_the_input_layout(tame_map):
    iso, sm = tame_map
    rng = np.random.default_rng(36)
    zs = shell(rng, 40, 4, 1e-4, 4.0)
    lift_zs = shell(rng, 9, 4, 1.0, 2.0)
    images_c, lift_c = sm.map_and_lift(zs, lift_zs)
    images_f, lift_f = sm.map_and_lift(np.asfortranarray(zs),
                                       np.asfortranarray(lift_zs))
    assert np.array_equal(images_c, images_f) and np.array_equal(lift_c, lift_f)
    assert images_c.flags.f_contiguous and images_f.flags.f_contiguous
