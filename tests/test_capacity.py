import math

import numpy as np
import pytest

from symcone import (DomainError, ExpressionHamiltonian, Hyperboloid,
                     StarDomain, SupportMeta, sampling)
from symcone.capacity import (
    CapacityInterval,
    candidate_pool,
    capacity_hyperboloid,
    capacity_interval,
    capacity_of_hamiltonian,
    nonsqueezing_verdict,
)
from symcone.domains import BOX_FACTOR
from symcone.smoothing import STEP_TOL


def test_interval_validation():
    CapacityInterval(1.0, 2.0)
    with pytest.raises(DomainError):
        CapacityInterval(0.0, 1.0)
    with pytest.raises(DomainError):
        CapacityInterval(2.0, 1.0)
    with pytest.raises(DomainError):
        CapacityInterval(1.0, 2.0, exact=True)


def test_interval_hamiltonian_scaling():
    sh = CapacityInterval(2.0, 3.0).scaled_hamiltonian(4.0)
    assert (sh.lo, sh.hi) == (0.5, 0.75)


def test_hyperboloid_capacity_exact_and_b_free():
    V = Hyperboloid(n=2, k=1, a=1.5, b=7.0)
    w = capacity_hyperboloid(V)
    assert w.exact and w.lo == w.hi == math.pi * 2.25
    # b plays no role
    w2 = capacity_hyperboloid(Hyperboloid(n=2, k=1, a=1.5, b=0.01))
    assert w2.lo == w.lo


def test_no_capacity_at_full_index():
    with pytest.raises(DomainError, match="capacity is undefined for k = 2"):
        capacity_hyperboloid(Hyperboloid(n=2, k=2, a=1.0, b=1.0))
    H = ExpressionHamiltonian("1 * bump(rho; 1, 3)", n=2, k=2,
                              meta=SupportMeta(M=1.0, m=0.5, rho0=0.1, rho1=3.0))
    with pytest.raises(DomainError, match="capacity is undefined for k = 2"):
        capacity_of_hamiltonian(H)


def test_domain_scaling_commutes_with_capacity():
    V = Hyperboloid(n=3, k=2, a=0.8, b=2.0)
    s = 1.7
    direct = capacity_hyperboloid(V.scaled(s))
    w = capacity_hyperboloid(V)
    np.testing.assert_allclose([direct.lo, direct.hi],
                               [s * s * w.lo, s * s * w.hi], rtol=1e-14)


def test_star_interval_worked_values(worked_hamiltonian, worked_certificate):
    w = capacity_interval(StarDomain(worked_hamiltonian))
    np.testing.assert_allclose(w.lo, math.pi * 0.125, rtol=1e-12)
    np.testing.assert_allclose(w.hi, math.pi * 4.0, rtol=1e-12)
    assert not w.exact

    # The enclosure is the one of the worked sandwich, from either entry.
    assert (w.lo, w.hi) == (math.pi * worked_certificate.inner.a ** 2,
                            math.pi * worked_certificate.outer.a ** 2)
    w2 = capacity_of_hamiltonian(worked_hamiltonian)
    assert (w2.lo, w2.hi) == (w.lo, w.hi)


def test_hamiltonian_scaling_commutes_with_interval(worked_hamiltonian):
    s = 2.5
    scaled = ExpressionHamiltonian(
        f"{s!r} * bump(rho; 1, 3)", n=2, k=1,
        meta=SupportMeta(M=s, m=0.5 * s, rho0=0.1, rho1=3.0))
    direct = capacity_of_hamiltonian(scaled)
    transported = capacity_of_hamiltonian(worked_hamiltonian).scaled_hamiltonian(s)
    np.testing.assert_allclose([direct.lo, direct.hi],
                               [transported.lo, transported.hi], rtol=1e-12)


def test_vacuous_below_unit_scale():
    V = Hyperboloid(n=2, k=1, a=1.0, b=1.0)
    rep = nonsqueezing_verdict(V, 0.9, [("unused", lambda zs: zs)])
    assert rep.verdict == "VACUOUS" and rep.candidates == ()


def test_sweep_finds_witnesses():
    V = Hyperboloid(n=2, k=1, a=1.0, b=1.0)
    pool = candidate_pool(2, 1, 2, seed=11)
    rep = nonsqueezing_verdict(V, 1.5, pool, samples=2000, seed=4)
    assert rep.verdict == "IMPOSSIBLE"
    assert rep.theoretical["s2w_lo"] > rep.theoretical["w_hi"]
    for cand in rep.candidates:
        assert cand.escapes and cand.excess > 0
        assert cand.witness_point is not None
        assert not V.defining_function(cand.witness_point) < 1.0


def test_default_squeeze_maps_all_meet_the_step_tolerance():
    """Every map of the default `squeeze` pool steps DOP853 at a step its
    pilot measured within STEP_TOL; candidate-1's first two pairs fail,
    and its third, 32 steps against 64, passes."""
    pool = candidate_pool(2, 1, 5, seed=0)
    choices = [sm.step_choice for _, sm in pool]
    assert all(c.estimate <= STEP_TOL for c in choices)
    assert choices[1].h == 1.0 / 32


def test_sweep_flags_impossible_squeezer():
    # A map that crushes everything into the domain is not symplectic;
    # the sweep must surface it as a contradiction, not a success.
    V = Hyperboloid(n=2, k=1, a=1.0, b=1.0)
    rep = nonsqueezing_verdict(V, 1.5, [("shrink", lambda zs: 1e-6 * zs)],
                               samples=500, seed=4)
    assert rep.verdict == "CONTRADICTION"
    assert not rep.candidates[0].escapes
    assert rep.candidates[0].excess == -math.inf


def _sweep_draws(monkeypatch, V, s, samples, seed):
    """The rows the sweep of V at scale s maps, and the extent it drew
    them under."""
    drawn = {}
    ray_points = sampling.ray_points

    def spy(n, count, seed, extent):
        drawn["extent"] = extent
        drawn["rows"] = ray_points(n, count, seed, extent)
        return drawn["rows"]

    monkeypatch.setattr(sampling, "ray_points", spy)
    nonsqueezing_verdict(V, s, [("identity", lambda zs: zs)],
                         samples=samples, seed=seed)
    return drawn["rows"], drawn["extent"]


@pytest.mark.parametrize("n, k", [(2, 1), (3, 1), (4, 2)])
def test_sweep_draws_fill_the_scaled_domain_by_ray(monkeypatch, n, k):
    """Every draw lies in the closed s*V and within the box cap; along a
    ray that leaves s*V, (t / extent)^(2n) is the uniform U of the radial
    law, so its mean is 1/2, and a share 1 - s^(-2n) of the draws lies
    outside V.  At 10^4 draws, over half of them on such rays, one
    standard error of either mean is below 0.006, so both are held to
    0.03."""
    V, s = Hyperboloid(n=n, k=k, a=1.0, b=1.0), 1.5
    big = V.scaled(s)
    zs, extent = _sweep_draws(monkeypatch, V, s, 10_000, 3)
    assert zs.shape == (10_000, 2 * n)
    assert np.all(big.defining_function(zs) <= 1.0)
    t = np.linalg.norm(zs, axis=1)
    cap = BOX_FACTOR * max(big.a, big.b)
    assert np.all(t <= cap)
    theta = zs / t[:, None]
    leaves = big.defining_function(theta) > 0.0
    assert leaves.sum() > 5_000
    e = extent(theta)
    assert np.all(e <= cap) and np.all(e[~leaves] == cap)
    u = (t[leaves] / e[leaves]) ** (2 * n)
    assert abs(u.mean() - 0.5) < 0.03
    uncapped = leaves & (e < cap)
    shell = V.defining_function(zs[uncapped]) >= 1.0
    assert abs(shell.mean() - (1.0 - s ** (-2 * n))) < 0.03


def test_sweep_draws_repeat_by_seed(monkeypatch):
    V = Hyperboloid(n=3, k=1, a=1.0, b=2.0)
    first, _ = _sweep_draws(monkeypatch, V, 1.5, 500, 9)
    again, _ = _sweep_draws(monkeypatch, V, 1.5, 500, 9)
    other, _ = _sweep_draws(monkeypatch, V, 1.5, 500, 10)
    assert first.tobytes() == again.tobytes()
    assert not np.array_equal(first, other)


def _last_pair_squeezer(n, lam):
    """(x_n, y_n) -> (x_n / lam, lam y_n): linear and symplectic."""
    def squeeze(zs):
        out = np.array(zs, dtype=float)
        out[:, n - 1] /= lam
        out[:, 2 * n - 1] *= lam
        return out
    return squeeze


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("lam", [8.0, 64.0])
def test_sweep_shows_a_symplectic_squeezer_escaping(n, lam):
    """At k = 1 < n the map on the last pair sends much of s*V into V (it
    lowers G), yet it is symplectic, so by Gromov's theorem some point of
    s*V must land outside V, and the sweep must find one."""
    V = Hyperboloid(n=n, k=1, a=1.0, b=1.0)
    pair = ("last-pair", _last_pair_squeezer(n, lam))
    rep = nonsqueezing_verdict(V, 1.5, [pair], samples=10_000, seed=0)
    assert rep.verdict == "IMPOSSIBLE"
    cand = rep.candidates[0]
    assert cand.escapes and cand.excess >= 0.0
    assert not V.defining_function(cand.witness_point) < 1.0


def test_escape_is_measured_from_the_boundary_of_v():
    """z -> sqrt(2/3) z sends 1.5 V onto sqrt(1.5) V, so the points the
    sweep maps land at G < 1.5: some escape V, each by less than 0.5."""
    V = Hyperboloid(n=2, k=1, a=1.0, b=1.0)
    rep = nonsqueezing_verdict(
        V, 1.5, [("shrink", lambda zs: math.sqrt(2.0 / 3.0) * zs)],
        samples=10_000, seed=0)
    assert rep.verdict == "IMPOSSIBLE"
    cand = rep.candidates[0]
    assert cand.escapes and 0.0 < cand.excess < 0.5
