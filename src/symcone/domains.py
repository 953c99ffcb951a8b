"""The domain zoo: hyperboloids, star domains of sphere Hamiltonians,
smoothed double wells, and the bounded integrable domains they define.

The sandwich solver certifies that a star domain V(H) is pinched between
an inner and an outer hyperboloid using only the support metadata of H;
the Monte-Carlo audit then re-checks the containments by rejection
sampling so no certificate is ever trusted on algebra alone.
"""
from dataclasses import dataclass

import numpy as np

from .blends import _step7, _step7_integral, smoothed_relu, smoothed_relu_deriv
from .contact import ContactHamiltonian
from .errors import AuditError, DomainError
from .geometry import as_phase, row_sum, split_uv
from . import sampling


@dataclass(frozen=True)
class Hyperboloid:
    """Model domain {u/a^2 - v/b^2 < 1} of the k-indexed split."""

    n: int
    k: int
    a: float
    b: float

    def __post_init__(self):
        if not (self.a > 0 and self.b > 0):
            raise DomainError("hyperboloid needs a, b > 0")
        if not 1 <= self.k <= self.n:
            raise DomainError(f"k = {self.k} outside 1..{self.n}")

    def contains(self, z) -> bool:
        return bool(self.contains_many(np.atleast_2d(as_phase(z, n=self.n)))[0])

    def contains_many(self, zs):
        u, v = split_uv(as_phase(zs, n=self.n), self.k)
        return u / self.a ** 2 - v / self.b ** 2 < 1.0

    def scaled(self, s: float):
        if not s > 0:
            raise DomainError("scale must be positive")
        return Hyperboloid(n=self.n, k=self.k, a=s * self.a, b=s * self.b)


@dataclass(frozen=True)
class StarDomain:
    """{r H(theta) < 1} for a nonnegative sphere Hamiltonian H."""

    H: ContactHamiltonian

    def contains(self, z) -> bool:
        return bool(self.contains_many(np.atleast_2d(as_phase(z, n=self.H.n)))[0])

    def contains_many(self, zs):
        zs = np.atleast_2d(as_phase(zs, n=self.H.n))
        r = row_sum(zs * zs)
        out = np.ones(zs.shape[0], dtype=bool)
        nz = r > 0.0
        if np.any(nz):
            th = zs[nz] / np.sqrt(r[nz])[:, None]
            vals = np.asarray(self.H.eval_fn(th), dtype=float)
            out[nz] = r[nz] * vals < 1.0
        return out

    def scaled(self, s: float):
        # the image of {rH < 1} under z -> sz is {r H/s^2 < 1}
        if not s > 0:
            raise DomainError("scale must be positive")
        return StarDomain(H=self.H.scaled(1.0 / (s * s)))


@dataclass(frozen=True)
class SmoothedWell:
    """Even function equal to -t^2 near 0 and 3t^2 - 4C^2 past the blend
    band, lying above both branches, with its single positive minimum
    pinned near t = C.  `delta` is the band half-width in the variable
    4t^2 - 4C^2.  `value`/`deriv` take arrays; `value_at`/`deriv_at` take
    one float (root finders, quadrature, the integrator) and agree with
    them bitwise outside the band, to rounding inside."""

    C: float
    eps: float
    delta: float

    def __post_init__(self):
        # 4C^2 held once per well, as a plain instance attribute (a
        # functools.cached_property read is no faster than recomputing it)
        object.__setattr__(self, "_four_c2", 4.0 * self.C ** 2)

    def value_at(self, t: float) -> float:
        t2 = t * t
        d = 4.0 * t2 - self._four_c2
        if d >= self.delta:
            return 3.0 * t2 - self._four_c2
        if d <= -self.delta:
            return -t2
        u = (d + self.delta) / (2.0 * self.delta)
        return -t2 + 2.0 * self.delta * _step7_integral(u)

    def deriv_at(self, t: float) -> float:
        d = 4.0 * t * t - self._four_c2
        if d >= self.delta:
            return 6.0 * t
        if d <= -self.delta:
            return -2.0 * t
        u = (d + self.delta) / (2.0 * self.delta)
        return t * (-2.0 + 8.0 * _step7(u))

    def value(self, t):
        t = np.asarray(t, dtype=float)
        t2 = t * t
        d = 4.0 * t2 - self._four_c2
        mid = -t2 + smoothed_relu(d, self.delta)
        return np.where(d >= self.delta, 3.0 * t2 - self._four_c2,
                        np.where(d <= -self.delta, -t2, mid))

    def deriv(self, t):
        t = np.asarray(t, dtype=float)
        d = 4.0 * t * t - self._four_c2
        mid = t * (-2.0 + 8.0 * smoothed_relu_deriv(d, self.delta))
        return np.where(d >= self.delta, 6.0 * t,
                        np.where(d <= -self.delta, -2.0 * t, mid))

    @property
    def band(self):
        """(t_lo, t_hi): outside, the two branches hold verbatim."""
        c2 = self.C ** 2
        return np.sqrt(c2 - self.delta / 4.0), np.sqrt(c2 + self.delta / 4.0)

    def min_point(self):
        """(t, g(t)) at the positive minimum, searched once per well and
        held like 4C^2, so it is neither a field nor serialized."""
        found = self.__dict__.get("_min_point")
        if found is None:
            from scipy import optimize
            res = optimize.minimize_scalar(self.value_at, bounds=self.band,
                                           method="bounded", options={"xatol": 1e-13})
            found = (float(res.x), float(res.fun))
            object.__setattr__(self, "_min_point", found)
        return found

    def scaled(self, s: float):
        return SmoothedWell(C=s * self.C, eps=s * self.eps, delta=s * s * self.delta)


def build_smoothed_well(C: float, eps: float, grid: int = 10_000) -> SmoothedWell:
    """Construct the well and verify its contracts on a grid."""
    if not (C > 0 and 0 < eps < C / 10.0):
        raise DomainError(f"need 0 < eps < C/10, got C={C}, eps={eps}")
    well = SmoothedWell(C=C, eps=eps, delta=min(3.2 * eps, 7.6 * C * eps))
    t = np.linspace(-3.0 * C, 3.0 * C, grid)
    g, gp = well.value(t), well.deriv(t)
    if np.min(0.5 * t * gp - g) < -1e-12:
        raise AuditError("radial-derivative inequality fails on the grid")
    if np.min(g - np.maximum(-t * t, 3.0 * t * t - 4.0 * C * C)) < -1e-12:
        raise AuditError("well dips below its two branches")
    inner = np.abs(t) <= C - eps
    outer = np.abs(t) >= C + eps
    if not (np.all(g[inner] == -t[inner] ** 2)
            and np.all(g[outer] == 3.0 * t[outer] ** 2 - 4.0 * C * C)):
        raise AuditError("branches are not exact outside the blend window")
    t_min, v_min = well.min_point()
    if not (-C * C - 1e-12 <= v_min <= -C * C + eps and abs(t_min - C) <= eps):
        raise AuditError(f"minimum {v_min} at {t_min} outside the contract window")
    return well


@dataclass(frozen=True)
class IntegrableDomain:
    """{G < 1} with G = (|x|^2 + sum of first n-k y^2)/a^2 + last-k well terms."""

    n: int
    k: int
    a: float
    b: float
    well: SmoothedWell

    def __post_init__(self):
        if not 1 <= self.k < self.n:
            raise DomainError(f"k = {self.k} outside 1..{self.n - 1}")
        if not (self.a > 0 and self.b > 0):
            raise DomainError("need a, b > 0")

    def defining_function(self, zs):
        zs = np.atleast_2d(as_phase(zs, n=self.n))
        u, _ = split_uv(zs, self.k)
        yk = zs[:, 2 * self.n - self.k:]
        return u / self.a ** 2 + np.sum(self.well.value(yk), axis=1) / self.b ** 2

    def gradient(self, zs):
        zs = np.atleast_2d(as_phase(zs, n=self.n))
        out = 2.0 * zs / self.a ** 2
        yk = zs[:, 2 * self.n - self.k:]
        out[:, 2 * self.n - self.k:] = self.well.deriv(yk) / self.b ** 2
        return out

    def liouville_derivative(self, zs):
        """Derivative of G along the radial scaling field, i.e. (z/2) . grad G."""
        zs = np.atleast_2d(as_phase(zs, n=self.n))
        return 0.5 * np.sum(zs * self.gradient(zs), axis=1)

    def contains_many(self, zs):
        return self.defining_function(zs) < 1.0

    def boundary_project(self, directions, tol: float = 1e-12, max_iter: int = 200):
        """Scale each direction onto {G = 1} (bisection along the ray)."""
        d = np.atleast_2d(np.asarray(directions, dtype=float))
        d = d / np.linalg.norm(d, axis=1, keepdims=True)
        lo = np.zeros(d.shape[0])
        hi = np.ones(d.shape[0])
        for _ in range(60):  # expand until every ray has exited
            vals = self.defining_function(hi[:, None] * d)
            inside = vals < 1.0
            if not np.any(inside):
                break
            hi[inside] *= 2.0
        else:
            raise DomainError("defining function failed to exhaust along a ray")
        for _ in range(max_iter):
            mid = 0.5 * (lo + hi)
            vals = self.defining_function(mid[:, None] * d)
            below = vals < 1.0
            lo[below] = mid[below]
            hi[~below] = mid[~below]
            if np.max(np.abs(vals - 1.0)) < tol:
                break
        mid = 0.5 * (lo + hi)
        return mid[:, None] * d

    def transversality_margin(self, zs, boundary_tol: float = 1e-8):
        zs = np.atleast_2d(as_phase(zs, n=self.n))
        G = self.defining_function(zs)
        if np.max(np.abs(G - 1.0)) > boundary_tol:
            raise DomainError("transversality margin needs boundary points")
        return self.liouville_derivative(zs) - 1.0

    def scaled(self, s: float):
        if not s > 0:
            raise DomainError("scale must be positive")
        return IntegrableDomain(n=self.n, k=self.k, a=s * self.a, b=s * self.b,
                                well=self.well.scaled(s))


@dataclass(frozen=True)
class SandwichCertificate:
    inner: Hyperboloid
    outer: Hyperboloid
    provenance: dict

    def check(self, margin: float = 1e-9):
        M, m = self.provenance["M"], self.provenance["m"]
        rho0, rho1 = self.provenance["rho0"], self.provenance["rho1"]
        T = self.provenance["T"]
        a2, b2 = self.inner.a ** 2, self.inner.b ** 2
        ap2, bp2 = self.outer.a ** 2, self.outer.b ** 2
        conds = [
            T - a2,
            b2 / a2 - rho1 * T / (T - a2),
            rho0 - bp2 / ap2,
            ap2 - 1.0 / m,
        ]
        if min(conds) < margin:
            raise AuditError(f"certificate inequality margins too small: {conds}")
        return conds


def sandwich_solve(H: ContactHamiltonian) -> SandwichCertificate:
    """Inner and outer hyperboloids for V(H) from the support metadata.

    The inner radius solves the threshold r < 1/M on the low-ratio part of
    the inner hyperboloid with the ratio bound rho1 controlling how much
    of it can lean toward the excluded subspace; the outer one only needs
    the positive floor m on the small-ratio region.  Parameters sit at
    mid-margin of the feasible set so the sampling audit has room.
    """
    meta = H.meta
    if not meta.m > 0:
        raise DomainError("not in g+: need a positive inner floor m")
    T = 1.0 / (meta.M * (1.0 + meta.rho1))
    a2 = T / 2.0
    b2 = 4.0 * meta.rho1 * a2
    ap2 = 2.0 / meta.m
    bp2 = ap2 * meta.rho0 / 2.0
    cert = SandwichCertificate(
        inner=Hyperboloid(n=H.n, k=H.k, a=float(np.sqrt(a2)), b=float(np.sqrt(b2))),
        outer=Hyperboloid(n=H.n, k=H.k, a=float(np.sqrt(ap2)), b=float(np.sqrt(bp2))),
        provenance={"M": meta.M, "m": meta.m, "rho0": meta.rho0,
                    "rho1": meta.rho1, "T": T},
    )
    cert.check()
    return cert


@dataclass
class ContainmentReport:
    samples_inner: int
    samples_outer: int
    violations_inner: int
    violations_outer: int
    box_halfwidth: float

    @property
    def violations(self):
        return self.violations_inner + self.violations_outer


def containment_audit(H: ContactHamiltonian, cert: SandwichCertificate,
                      samples: int = 100_000, seed: int = 0,
                      box_factor: float = 4.0) -> ContainmentReport:
    """Rejection-sample both inclusions inner ⊂ V(H) ⊂ outer."""
    star = StarDomain(H)
    halfwidth = box_factor * max(cert.outer.a, cert.outer.b)
    pts = sampling.box_points(2 * H.n, halfwidth, samples, seed)
    in_inner = cert.inner.contains_many(pts)
    in_star = star.contains_many(pts)
    in_outer = cert.outer.contains_many(pts)
    viol_inner = int(np.sum(in_inner & ~in_star))
    viol_outer = int(np.sum(in_star & ~in_outer))
    return ContainmentReport(
        samples_inner=int(np.sum(in_inner)), samples_outer=int(np.sum(in_star)),
        violations_inner=viol_inner, violations_outer=viol_outer,
        box_halfwidth=halfwidth,
    )
