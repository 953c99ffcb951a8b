import numpy as np
import pytest

from symcone import (
    ContactHamiltonian,
    ExpressionHamiltonian,
    IntegrableDomain,
    PlanarWellSystem,
    SmoothedWell,
    SupportMeta,
    sandwich_solve,
)
from symcone.contact import _lockstep_rk, _step_count
from symcone.smoothing import (SmoothedSymplectization, _lift, _polar,
                               smoothing_certificate)


@pytest.fixture(scope="session")
def well3():
    """The C=3, eps=0.25 double-well profile used across the suite."""
    return SmoothedWell(C=3.0, eps=0.25)


@pytest.fixture(scope="session")
def planar3(well3):
    return PlanarWellSystem(a=1.0, b=1.0, well=well3)


@pytest.fixture(scope="session")
def domain3(well3):
    return IntegrableDomain(n=2, k=1, a=1.0, b=1.0, well=well3)


@pytest.fixture(scope="session")
def worked_hamiltonian():
    """The plateau bump with the worked support constants."""
    return ExpressionHamiltonian(
        "1 * bump(rho; 1, 3)", n=2, k=1,
        meta=SupportMeta(M=1.0, m=0.5, rho0=0.1, rho1=3.0))


@pytest.fixture(scope="session")
def worked_certificate(worked_hamiltonian):
    return sandwich_solve(worked_hamiltonian)


def sphere(rng, count, dim):
    v = rng.standard_normal((count, dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def zero_hamiltonian(n, k):
    """The zero sphere Hamiltonian: its flow is the identity."""
    return ContactHamiltonian(
        lambda th: np.zeros(th.shape[0]), k=k, n=n,
        meta=SupportMeta(M=0.0, m=1.0, rho0=0.1, rho1=1.0),
        grad_fn=lambda th: (np.zeros(th.shape[0]), np.zeros_like(th)))


def smoothed_map(K, eps):
    """The smoothed map of K built from its certificate at eps."""
    return SmoothedSymplectization(K, smoothing_certificate(K, eps))


def symplectize_ambient(iso, zs):
    """The homogeneous lift (r, theta) -> (r / c(theta), phi(theta)) of the
    time-1 map of iso at rows of nonzero points, with phi and c from
    `flow_many`: the reference route for the smoothed map and its lift."""
    r, th = _polar(zs)
    return _lift(r, *iso.flow_many(th, 0.0, 1.0))


def lift_at_the_maps_step(sm, zs):
    """The homogeneous lift of the time-1 map that the smoothed map sm
    steps, with phi and c from one loop call on the directions of zs
    alone, at sm's own step: the reference route for
    `SmoothedSymplectization.map_and_lift`, whose lift rows ride beside
    the map's ambient rows and probes."""
    r, th = _polar(zs)
    (run,) = _lockstep_rk(sm._stage, np.empty((0, zs.shape[1])), th,
                          (_step_count(1.0, sm.step),), 1.0)
    return _lift(r, run[1], run[2])
