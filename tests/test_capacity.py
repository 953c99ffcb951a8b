import math

import numpy as np
import pytest

from symcone import (DomainError, ExpressionHamiltonian, Hyperboloid,
                     StarDomain, SupportMeta)
from symcone.capacity import (
    CapacityInterval,
    candidate_pool,
    capacity_hyperboloid,
    capacity_interval,
    capacity_of_hamiltonian,
    nonsqueezing_verdict,
)
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
        assert not V.contains_many(cand.witness_point)


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
