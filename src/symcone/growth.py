"""Relative growth, the conjugation-invariant pseudo-metric, and the
order structure on a finite family of cone elements.

The true growth coefficient rho(f, h) is an infimum over the whole
transformation group, which no finite computation can reach.  Everything
here is therefore an interval with explicit provenance: upper bounds are
*witnessed* by pool conjugators g realizing Ad_g f <= s h on a sphere
grid, lower bounds come from capacity enclosures (and are exact for
pairs related by scaling or conjugation, where the capacity ratio is
known in closed form).  Reports distinguish "witnessed" relations from
"unknown" ones; absence is never claimed.
"""
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .capacity import (CapacityInterval, capacity_of_hamiltonian,
                       require_capacity)
from .contact import ContactHamiltonian, ContactIsotopy, SupportMeta
from .errors import AuditError, DomainError
from .exprs import ExpressionHamiltonian, random_hamiltonian
from .geometry import require_split
from . import sampling

__all__ = [
    "ConeElement", "Conjugator", "ConeFamily", "GrowthInterval",
    "DistanceInterval", "relative_growth_bounds", "pseudo_distance",
    "submultiplicativity_check", "dw_bound_check", "equivalence_and_order",
    "scaling_family", "random_family",
]


@dataclass(frozen=True)
class ConeElement:
    eid: str
    H: ContactHamiltonian
    base_id: str
    scale: float = 1.0


class Conjugator:
    """Pool element: a contactomorphism given by an isotopy (or the
    identity), optionally applied after another conjugator, with the
    preimages and conformal factors of the last grid cached."""

    def __init__(self, cid: str, iso: Optional[ContactIsotopy] = None,
                 after: Optional["Conjugator"] = None):
        self.cid = cid
        self.iso = iso
        self.after = after
        self._cache: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None

    def pulled_back(self, grid: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(preimages, conformal factor at the preimages) for the grid."""
        if self._cache is None or self._cache[0] is not grid:
            if self.after is None:
                pre, factor = grid, np.ones(grid.shape[0])
            else:
                pre, factor = self.after.pulled_back(grid)
            if self.iso is not None:
                pre, own = self.iso.inverse_images(pre)
                factor = factor * own
            self._cache = (grid, pre, factor)
        return self._cache[1:]

    def composed_after(self, cid: str, first: "Conjugator") -> "Conjugator":
        """This conjugator applied after `first`: grids are pulled back
        through `first`, then through this one."""
        inner = first if self.after is None else self.after.composed_after(cid, first)
        return Conjugator(cid, iso=self.iso, after=inner)


@dataclass(frozen=True)
class GrowthInterval:
    lo: float
    hi: float
    witnesses: Tuple[Tuple[str, float], ...] = ()

    def __post_init__(self):
        if self.lo < 0 or self.lo > self.hi:
            raise DomainError(f"invalid growth interval [{self.lo}, {self.hi}]")


@dataclass(frozen=True)
class DistanceInterval:
    lo: float
    hi: float


class ConeFamily:
    def __init__(self, n: int, k: int, elements: Sequence[ConeElement],
                 seed: int = 0, pool_size: int = 8, grid_points: int = 10_000):
        if grid_points < 1:
            raise DomainError(f"need at least 1 grid point, got {grid_points}")
        require_split(n, k)
        require_capacity(n, k)
        self.n, self.k = n, k
        self.elements: Dict[str, ConeElement] = {e.eid: e for e in elements}
        if len(self.elements) != len(elements):
            raise DomainError("duplicate element ids")
        for e in elements:
            if (e.H.n, e.H.k) != (n, k):
                raise DomainError(f"element {e.eid!r} has (n, k) = ({e.H.n}, "
                                  f"{e.H.k}), not the family's ({n}, {k})")
        self.grid = sampling.sphere_points(n, grid_points, seed)
        self.pool: List[Conjugator] = [Conjugator("identity")]
        for i, s in enumerate(sampling.spawn(seed + 1, pool_size)):
            gen = random_hamiltonian(n, k, seed=s)
            self.pool.append(Conjugator(f"flow-{i}", ContactIsotopy(gen)))
        # c * f(pre) per (element id, conjugator); pairs of elements share it
        self._pulled: Dict[Tuple[str, Conjugator], np.ndarray] = {}
        self._caps: Dict[str, CapacityInterval] = {}
        for e in self.elements.values():
            e.H.audit(seed=seed)

    # -- cached evaluations ------------------------------------------------

    def _pulled_values(self, eid: str, conj: Conjugator) -> np.ndarray:
        if (eid, conj) not in self._pulled:
            pre, c = conj.pulled_back(self.grid)
            self._pulled[(eid, conj)] = c * np.asarray(
                self.elements[eid].H.eval_fn(pre), dtype=float)
        return self._pulled[(eid, conj)]

    def capacity(self, eid: str) -> CapacityInterval:
        """Enclosure of w for the element, transported exactly from its
        base (scaling divides w, conjugation preserves it)."""
        el = self.elements[eid]
        if el.base_id not in self._caps:
            base = next((e for e in self.elements.values()
                         if e.base_id == el.base_id and e.scale == 1.0), None)
            if base is None:
                raise DomainError(f"family has no unscaled base element for "
                                  f"{el.base_id!r}")
            self._caps[el.base_id] = capacity_of_hamiltonian(base.H)
        return self._caps[el.base_id].scaled_hamiltonian(el.scale)

    # -- witnessed upper bounds ---------------------------------------------

    def sup_ratio(self, fid: str, hid: str, conj: Conjugator) -> float:
        """Smallest s with Ad_conj f <= s h on the grid (0/0 counts as
        dominated; a positive numerator over a vanishing h gives inf)."""
        num = self._pulled_values(fid, conj)
        den = self._pulled_values(hid, self.pool[0])  # identity: h on the grid
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(num <= 0.0, 0.0,
                             np.where(den <= 0.0, np.inf, num / den))
        return float(np.max(ratio))


def relative_growth_bounds(fam: ConeFamily, fid: str, hid: str
                           ) -> GrowthInterval:
    """Interval enclosure of rho(f, h) = inf{s : f precedes s h}."""
    f, h = fam.elements[fid], fam.elements[hid]
    wits = []
    for conj in fam.pool:
        s = fam.sup_ratio(fid, hid, conj)
        if math.isfinite(s):
            wits.append((conj.cid, s))
    wits.sort(key=lambda t: t[1])
    hi = wits[0][1] if wits else math.inf

    if f.base_id == h.base_id:
        # w(h)/w(f) is exactly scale_f/scale_h for a shared base
        lo = f.scale / h.scale
    else:
        wf, wh = fam.capacity(fid), fam.capacity(hid)
        lo = max(0.0, wh.lo / wf.hi)
    if lo > hi * (1.0 + 1e-12):
        raise AuditError(
            f"growth lower bound {lo} exceeds witnessed upper bound {hi} "
            f"for ({fid}, {hid}): capacity and witnesses are inconsistent")
    return GrowthInterval(lo=min(lo, hi), hi=hi, witnesses=tuple(wits[:4]))


def _min_abs_log(lo: float, hi: float) -> float:
    """min |log t| over t in [lo, hi] (lo may be 0: open at 0)."""
    if lo <= 1.0 <= hi:
        return 0.0
    if hi < 1.0:
        return abs(math.log(hi))
    return abs(math.log(lo))


def _distance(I1: GrowthInterval, I2: GrowthInterval) -> DistanceInterval:
    """Enclosure of d(f, h) = max(|log rho(f,h)|, |log rho(h,f)|) from
    enclosures I1 of rho(f,h) and I2 of rho(h,f).

    The upper endpoint uses rho(f,h) * rho(h,f) >= 1: each |log rho| is
    bounded by max(log hi_fwd, log hi_bwd), so naive endpoint
    combinations (which would violate the triangle inequality) are never
    needed.
    """
    d_lo = max(_min_abs_log(I1.lo, I1.hi), _min_abs_log(I2.lo, I2.hi))
    if math.isinf(I1.hi) or math.isinf(I2.hi):
        return DistanceInterval(lo=d_lo, hi=math.inf)
    d_hi = max(math.log(I1.hi), math.log(I2.hi), 0.0)
    return DistanceInterval(lo=d_lo, hi=max(d_lo, d_hi))


def pseudo_distance(fam: ConeFamily, fid: str, hid: str) -> DistanceInterval:
    """`_distance` of the witnessed growth intervals of (f, h) and (h, f)."""
    return _distance(relative_growth_bounds(fam, fid, hid),
                     relative_growth_bounds(fam, hid, fid))


@dataclass
class ComposedWitness:
    links: Tuple[Tuple[str, float], ...]
    claimed: float
    measured: float
    ok: bool


def submultiplicativity_check(fam: ConeFamily, fid: str, gid: str,
                              hid: str) -> ComposedWitness:
    """Reconstruct rho_hi(f,h) <= rho_hi(f,g) * rho_hi(g,h), to a relative
    1e-9, by actually composing the two best witnesses and re-measuring on
    the grid; the composed conjugator joins the pool."""
    w1 = relative_growth_bounds(fam, fid, gid)
    w2 = relative_growth_bounds(fam, gid, hid)
    if not (w1.witnesses and w2.witnesses):
        raise DomainError("no finite witnesses to compose")
    (c1id, s1), (c2id, s2) = w1.witnesses[0], w2.witnesses[0]
    c1 = next(c for c in fam.pool if c.cid == c1id)
    c2 = next(c for c in fam.pool if c.cid == c2id)

    composed = c1.composed_after(f"{c2id}|{c1id}", c2)
    fam.pool.append(composed)

    measured = fam.sup_ratio(fid, hid, composed)
    claimed = s1 * s2
    ok = measured <= claimed * (1.0 + 1e-9)
    return ComposedWitness(links=((c1id, s1), (c2id, s2)),
                           claimed=claimed, measured=measured, ok=ok)


def dw_bound_check(fam: ConeFamily, fid: str, hid: str,
                   d: DistanceInterval) -> dict:
    """d_hi(f,h) >= half the log-gap of the capacity enclosures, with the
    endpoints chosen to make the right-hand side smallest; `d` is the
    pair's distance enclosure."""
    wf, wh = fam.capacity(fid), fam.capacity(hid)
    ratio_lo, ratio_hi = wf.lo / wh.hi, wf.hi / wh.lo
    if ratio_lo <= 1.0 <= ratio_hi:
        rhs = 0.0
    else:
        rhs = 0.5 * min(abs(math.log(ratio_lo)), abs(math.log(ratio_hi)))
    return {"d_hi": d.hi, "rhs": rhs, "ok": d.hi >= rhs - 1e-12}


def _closed_hi_matrix(hi: Dict[Tuple[str, str], float]
                      ) -> Dict[Tuple[str, str], float]:
    """Multiplicative closure of all-pairs witnessed upper bounds, so that
    chained witnesses are as good as direct ones: one Floyd-Warshall pass
    over products (Floyd, CACM 1962).

    A diagonal entry the closure lowers below its direct witness marks a
    cycle of witnesses with product below 1, which contradicts
    rho(f,g) * rho(g,f) >= 1.
    """
    ids = list(dict.fromkeys(i for i, _ in hi))
    closed = dict(hi)
    for g in ids:
        for i in ids:
            for j in ids:
                cand = closed[(i, g)] * closed[(g, j)]
                if cand < closed[(i, j)] * (1.0 - 1e-15):
                    closed[(i, j)] = cand
    for i in ids:
        if closed[(i, i)] < hi[(i, i)]:
            raise AuditError(
                f"witnessed growth bounds chain from {i!r} back to itself "
                f"with product {closed[(i, i)]} < {hi[(i, i)]}: they "
                f"contradict rho(f,g) * rho(g,f) >= 1")
    return closed


@dataclass
class QuotientReport:
    classes: Tuple[Tuple[str, ...], ...]
    distances: Dict[Tuple[str, str], DistanceInterval]
    edges: Dict[float, Tuple[Tuple[int, int], ...]]
    antisymmetry_ok: bool


def equivalence_and_order(fam: ConeFamily) -> QuotientReport:
    """Cluster elements at witnessed distance zero and report the
    witnessed strict order between the clusters: `edges` maps each eps
    in 1e-1, 1e-2, 1e-3 to the class pairs (p, q) witnessed with
    rho(p, q) <= 1/(1 + eps)."""
    ids = list(fam.elements)
    raw = {(i, j): relative_growth_bounds(fam, i, j) for i in ids for j in ids}
    hi = _closed_hi_matrix({key: iv.hi for key, iv in raw.items()})

    # the closure may lower hi below a raw lo, which then drops to it
    closed = {key: GrowthInterval(min(iv.lo, hi[key]), hi[key])
              for key, iv in raw.items()}
    dists = {(i, j): _distance(closed[(i, j)], closed[(j, i)])
             for a, i in enumerate(ids) for j in ids[a + 1:]}

    parent = list(range(len(ids)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a in range(len(ids)):
        for b in range(a + 1, len(ids)):
            if dists[(ids[a], ids[b])].hi <= 1e-12:
                parent[find(a)] = find(b)
    roots = sorted(set(find(a) for a in range(len(ids))))
    classes = tuple(tuple(ids[a] for a in range(len(ids)) if find(a) == r)
                    for r in roots)

    edges: Dict[float, Tuple[Tuple[int, int], ...]] = {}
    anti_ok = True
    for eps in (1e-1, 1e-2, 1e-3):
        found = []
        for p, P in enumerate(classes):
            for q, Q in enumerate(classes):
                if p == q:
                    continue
                best = min(hi[(i, j)] for i in P for j in Q)
                if best * (1.0 + eps) <= 1.0:
                    found.append((p, q))
        for (p, q) in found:
            if (q, p) in found:
                anti_ok = False
        edges[eps] = tuple(found)
    return QuotientReport(classes=classes, distances=dists, edges=edges,
                          antisymmetry_ok=anti_ok)


# --------------------------------------------------------------------------
# family constructors

def scale_id(s: float) -> str:
    """The id of the element s * f of `scaling_family`: "f" at s = 1,
    otherwise f"{s:g}f" when that label reads back as s, and repr(s)
    followed by "f" when it would name another scale."""
    s = float(s)
    if s == 1.0:
        return "f"
    label = f"{s:g}"
    return (label if float(label) == s else repr(s)) + "f"


def scaling_family(scales: Sequence[float] = (1.0, 2.0, 4.0), n: int = 2,
                   k: int = 1, seed: int = 0, **kw) -> ConeFamily:
    """The family {s_i * f} of scalings of f = bump(rho; 1, 3), each
    element parsed with the coefficient s_i and given the metadata of f
    scaled by s_i; every element's capacity is read from f's, so scales
    must hold 1.0.  A scale that is not a positive normal float (so that
    1 / s is finite), or whose id (`scale_id`) is taken, is a DomainError."""
    els = []
    for s in scales:
        if s <= 0:
            raise DomainError("scale must be positive")
        if not np.finfo(float).tiny <= s < np.inf:
            raise DomainError(f"scale {float(s)!r} is not a normal finite float")
        eid = scale_id(s)
        if any(el.eid == eid for el in els):
            raise DomainError(f"scale {float(s)!r} repeats element {eid}")
        H = ExpressionHamiltonian(
            f"{float(s)!r} * bump(rho; 1, 3)", n=n, k=k,
            meta=SupportMeta(M=1.0 * s, m=0.5 * s, rho0=0.1, rho1=3.0))
        els.append(ConeElement(eid=eid, H=H, base_id="f", scale=float(s)))
    return ConeFamily(n, k, els, seed=seed, **kw)


def random_family(count: int = 5, n: int = 2, k: int = 1, seed: int = 0,
                  **kw) -> ConeFamily:
    """A family of `count` seeded random Hamiltonians; fewer than two have
    no pair to measure, which is a DomainError."""
    if count < 2:
        raise DomainError(f"need at least 2 family elements, got {count}")
    els = []
    for i, s in enumerate(sampling.spawn(seed + 17, count)):
        H = random_hamiltonian(n, k, seed=s)
        els.append(ConeElement(eid=f"h{i}", H=H, base_id=f"h{i}", scale=1.0))
    return ConeFamily(n, k, els, seed=seed, **kw)
