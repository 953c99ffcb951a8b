"""Capacity enclosures for the domain zoo and the non-squeezing sweep.

Hyperboloids carry an exact capacity pi*a^2 (independent of b); star
domains only admit an interval enclosure, obtained from the sandwich
certificate together with monotonicity.  Scalings act exactly on both:
z -> sz multiplies capacities by s^2, while scaling the Hamiltonian by s
shrinks its star domain and divides the capacity by s.
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
    The sweep then tries each candidate anyway: points of s*V are
    rejection-sampled, mapped, and a witness landing outside V is
    exhibited.  A candidate with no witness is reported as CONTRADICTION
    (it would falsify the capacity axioms, i.e. expose a bug).  Fewer
    than one sample or no candidate is a DomainError: a sweep that maps
    no point, or tries no map, shows nothing.  So is a sweep whose 64
    blocks of box draws hold fewer than `samples` points of s*V.
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
    halfwidth = BOX_FACTOR * s * max(V.a, V.b)
    streams = sampling.spawn(seed, 64)
    pts = []
    have = 0
    for stream in streams:
        draw = sampling.box_points(2 * V.n, halfwidth, samples, stream)
        keep = draw[big.contains_many(draw)]
        pts.append(keep)
        have += keep.shape[0]
        if have >= samples:
            break
    zs = np.vstack(pts)[:samples]
    if zs.shape[0] < samples:
        raise DomainError(
            f"rejection sampling starved: s*V fills too little of the cube of "
            f"half-width {BOX_FACTOR:g}*s*max(a, b) = {halfwidth:.6g} (kept "
            f"{zs.shape[0]} of {samples} samples in {len(streams) * samples} draws)")

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
