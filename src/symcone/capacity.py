"""Capacity enclosures for the domain zoo and the non-squeezing sweep.

Hyperboloids carry an exact capacity pi*a^2 (independent of b); star
domains only admit an interval enclosure, obtained from the sandwich
certificate together with monotonicity.  Scalings act exactly on both:
z -> sz multiplies capacities by s^2, while scaling the Hamiltonian by s
shrinks its star domain and divides the capacity by s.

The squeeze sweep draws s*V by a uniform direction and a radius uniform in
volume along it: 1 - s^(-2n) of an uncapped ray's draws lie outside V.
"""
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .contact import ContactHamiltonian
from .domains import BOX_FACTOR, Hyperboloid, StarDomain, sandwich_solve
from .errors import DomainError
from . import sampling
from .smoothing import SmoothedSymplectization, smoothing_certificate
from .exprs import random_hamiltonian


@dataclass(frozen=True)
class CapacityInterval:
    lo: float
    hi: float
    exact: bool = False

    def __post_init__(self):
        if not (self.lo > 0 and self.lo <= self.hi):
            raise DomainError(f"need 0 < lo <= hi, got [{self.lo}, {self.hi}]")
        if self.exact and self.lo != self.hi:
            raise DomainError("exact intervals must be degenerate")

    def scaled_hamiltonian(self, s: float) -> "CapacityInterval":
        """Capacity of V(sH) given this enclosure of V(H)."""
        return CapacityInterval(self.lo / s, self.hi / s, self.exact)


def require_capacity(n: int, k: int):
    """Refuse k >= n with a DomainError: no capacity with the required
    monotonicity/conjugation properties exists there, so no number derived
    from one is true."""
    if k >= n:
        raise DomainError(
            f"capacity is undefined for k = {k} >= n = {n}: this regime "
            "admits arbitrarily contracting conjugations")


def capacity_hyperboloid(V: Hyperboloid) -> CapacityInterval:
    """Exact value pi*a^2; only defined for k < n (`require_capacity`)."""
    require_capacity(V.n, V.k)
    w = math.pi * V.a ** 2
    return CapacityInterval(w, w, exact=True)


def capacity_interval(D: StarDomain) -> CapacityInterval:
    """[pi a^2, pi a'^2] from the sandwich `sandwich_solve` puts around
    V(H); only defined for k < n (`require_capacity`)."""
    require_capacity(D.H.n, D.H.k)
    cert = sandwich_solve(D.H)
    return CapacityInterval(math.pi * cert.inner.a ** 2,
                            math.pi * cert.outer.a ** 2, exact=False)


def capacity_of_hamiltonian(H: ContactHamiltonian) -> CapacityInterval:
    """`capacity_interval` of the star domain V(H)."""
    return capacity_interval(StarDomain(H))


@dataclass
class CandidateResult:
    cid: str
    escapes: bool
    witness_point: Optional[np.ndarray]
    displacement: float
    excess: float


@dataclass
class NonsqueezingReport:
    domain: Hyperboloid
    s: float
    w: CapacityInterval
    candidates: Tuple[CandidateResult, ...]
    verdict: str  # IMPOSSIBLE | VACUOUS | CONTRADICTION

    @property
    def theoretical(self) -> dict:
        return {"w_lo": self.w.lo, "w_hi": self.w.hi,
                "s2w_lo": self.s ** 2 * self.w.lo}


def candidate_pool(n: int, k: int, count: int, seed: int = 0,
                   eps: float = 0.05) -> list:
    """Smoothed symplectizations of random compactly supported sphere
    generators, each stepping DOP853 at the step its pilot measures
    (`SmoothedSymplectization._choose_step`).

    The generator amplitude 0.15 keeps the conformal envelope moderate, so
    the smoothed maps act nontrivially at unit scale instead of pushing
    their fully-conjugated zone far from the domains being probed.
    """
    maps = []
    for i, s in enumerate(sampling.spawn(seed, count)):
        K = random_hamiltonian(n, k, seed=s, amplitude=0.15)
        maps.append((f"candidate-{i}",
                     SmoothedSymplectization(K, smoothing_certificate(K, eps))))
    return maps


def nonsqueezing_verdict(V: Hyperboloid, s: float,
                         candidates: Sequence[Tuple[str, Callable]],
                         samples: int = 10_000, seed: int = 0) -> NonsqueezingReport:
    """Check that no candidate map sends s*V inside V.

    The theoretical verdict is immediate from scaling and monotonicity:
    w(sV) = s^2 w(V) > w(V) for s > 1, so a squeezing map cannot exist.
    The sweep then tries each candidate anyway on points of s*V drawn by
    `sampling.ray_points`: theta uniform on the sphere, radius e U^(1/(2n))
    with U uniform on [0, 1) and e = min(1/sqrt(G_sV(theta)), BOX_FACTOR
    max(s a, s b)), s*V's extent along theta capped where G_sV <= 0.  On an
    uncapped ray 1 - s^(-2n) of the draws lie in the shell between V and
    s*V.  A mapped point outside V is an escape witness; a candidate with
    none is reported as CONTRADICTION (it would falsify the capacity
    axioms, i.e. expose a bug).  Fewer than one sample or no candidate is a
    DomainError: a sweep that maps no point, or tries no map, shows nothing.
    """
    if samples < 1:
        raise DomainError(f"need at least 1 sweep sample, got {samples}")
    if not candidates:
        raise DomainError("need at least 1 candidate map, got none")
    w = capacity_hyperboloid(V)
    if s <= 1.0:
        return NonsqueezingReport(domain=V, s=s, w=w, candidates=(),
                                  verdict="VACUOUS")
    big = V.scaled(s)
    def extent(theta):
        with np.errstate(divide="ignore"):
            g = np.maximum(big.defining_function(theta), 0.0)
            return np.minimum(1.0 / np.sqrt(g), BOX_FACTOR * max(big.a, big.b))
    zs = sampling.ray_points(V.n, samples, seed, extent)
    results = []
    verdict = "IMPOSSIBLE"
    for cid, mp in candidates:
        ws = np.atleast_2d(np.asarray(mp(zs), dtype=float))
        level = V.defining_function(ws)
        outside = ~(level < 1.0)
        if np.any(outside):
            excess = np.where(outside, level - 1.0, -np.inf)
            idx = int(np.argmax(excess))
            results.append(CandidateResult(
                cid=cid, escapes=True, witness_point=ws[idx],
                displacement=float(np.linalg.norm(ws[idx] - zs[idx])),
                excess=float(excess[idx])))
        else:
            results.append(CandidateResult(cid=cid, escapes=False,
                                           witness_point=None,
                                           displacement=0.0,
                                           excess=-math.inf))
            verdict = "CONTRADICTION"
    return NonsqueezingReport(domain=V, s=s, w=w,
                              candidates=tuple(results), verdict=verdict)
