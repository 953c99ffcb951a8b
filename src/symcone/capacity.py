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

from .contact import ContactHamiltonian, ContactIsotopy
from .domains import Hyperboloid, SandwichCertificate, StarDomain, sandwich_solve
from .errors import DomainError
from . import sampling
from .smoothing import SmoothedSymplectization
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

    def scaled_domain(self, s: float) -> "CapacityInterval":
        """Capacity of the image under z -> sz."""
        return CapacityInterval(s * s * self.lo, s * s * self.hi, self.exact)

    def scaled_hamiltonian(self, s: float) -> "CapacityInterval":
        """Capacity of V(sH) given this enclosure of V(H)."""
        return CapacityInterval(self.lo / s, self.hi / s, self.exact)

    def overlaps(self, other: "CapacityInterval") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi


def capacity_hyperboloid(V: Hyperboloid) -> CapacityInterval:
    """Exact value pi*a^2; only defined for k < n (for k >= n no capacity
    with the required monotonicity/conjugation properties exists)."""
    if V.k >= V.n:
        raise DomainError(
            f"capacity is undefined for k = {V.k} >= n = {V.n}: this regime "
            "admits arbitrarily contracting conjugations")
    w = math.pi * V.a ** 2
    return CapacityInterval(w, w, exact=True)


def capacity_interval(D: StarDomain,
                      cert: Optional[SandwichCertificate] = None
                      ) -> CapacityInterval:
    """[pi a^2, pi a'^2] from the sandwich around V(H)."""
    if cert is None:
        cert = sandwich_solve(D.H)
    return CapacityInterval(math.pi * cert.inner.a ** 2,
                            math.pi * cert.outer.a ** 2, exact=False)


def capacity_of_hamiltonian(H: ContactHamiltonian,
                            cert: Optional[SandwichCertificate] = None
                            ) -> CapacityInterval:
    return capacity_interval(StarDomain(H), cert=cert)


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
                   eps: float = 0.05, iso_step: float = 5e-3,
                   map_step: float = 1e-2, amplitude: float = 0.15) -> list:
    """Smoothed symplectizations of random compactly supported isotopies.

    The generator amplitude keeps the conformal envelope moderate, so the
    smoothed maps act nontrivially at unit scale instead of pushing their
    fully-conjugated zone far from the domains being probed.
    """
    maps = []
    for i, s in enumerate(sampling.spawn(seed, count)):
        K = random_hamiltonian(n, k, seed=s, amplitude=amplitude)
        iso = ContactIsotopy(K, step=iso_step)
        smoothed = SmoothedSymplectization(iso, eps, step=map_step)
        maps.append((f"candidate-{i}", smoothed))
    return maps


def nonsqueezing_verdict(V: Hyperboloid, s: float,
                         candidates: Sequence[Tuple[str, Callable]],
                         samples: int = 10_000, seed: int = 0,
                         box_factor: float = 4.0) -> NonsqueezingReport:
    """Check that no candidate map sends s*V inside V.

    The theoretical verdict is immediate from scaling and monotonicity:
    w(sV) = s^2 w(V) > w(V) for s > 1, so a squeezing map cannot exist.
    The sweep then tries each candidate anyway: points of s*V are
    rejection-sampled, mapped, and a witness landing outside V is
    exhibited.  A candidate with no witness is reported as CONTRADICTION
    (it would falsify the capacity axioms, i.e. expose a bug).
    """
    w = capacity_hyperboloid(V)
    if s <= 1.0:
        return NonsqueezingReport(domain=V, s=s, w=w, candidates=(),
                                  verdict="VACUOUS")
    big = V.scaled(s)
    halfwidth = box_factor * s * max(V.a, V.b)
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
        raise DomainError("rejection sampling starved; enlarge the box")

    results = []
    verdict = "IMPOSSIBLE"
    for cid, mp in candidates:
        ws = np.atleast_2d(np.asarray(mp(zs), dtype=float))
        inside = V.contains_many(ws)
        outside = ~inside
        if np.any(outside):
            over = _split_excess(V, ws)
            excess = np.where(outside, over, -np.inf)
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


def _split_excess(V: Hyperboloid, zs: np.ndarray) -> np.ndarray:
    """How far outside the hyperboloid each point sits (its defining
    quantity minus one)."""
    from .geometry import split_uv

    u, v = split_uv(zs, V.k)
    return u / V.a ** 2 - v / V.b ** 2 - 1.0
