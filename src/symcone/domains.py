"""The domain zoo: hyperboloids, star domains of sphere Hamiltonians,
smoothed double wells, and the bounded integrable domains they define.

The sandwich solver certifies that a star domain V(H) is pinched between
an inner and an outer hyperboloid using only the support metadata of H;
the Monte-Carlo audit then re-checks the containments by rejection
sampling so no certificate is ever trusted on algebra alone.  The audit
streams its box samples in blocks of AUDIT_BLOCK rows, bitwise the one
seeded draw of `sampling.box_points`, so its memory is bounded whatever
the sample count.

Most audit rows never reach H.  A row's raw split (u, v) gives its angle
ratio v/u, which its unit row shares up to rounding, and H's exact rho
facts (`ContactHamiltonian.zero_rho`, `floor_rho`, `floor`) settle it:
inside where the ratio clears `zero_rho`, since H is exactly 0 there,
and outside where it stays below `floor_rho` and r times `floor` is at
least 1, since r H is at least that.  Each ratio must clear its fact by
a relative SETTLE_DELTA, far above the rows' rounding gap, and since r H
rounds monotonically in H, every settled row gets the answer that
evaluating H would give, bit for bit.  Only the other rows are
normalised and evaluated.
"""
from dataclasses import dataclass

import numpy as np

from .blends import _step7, _step7_integral
from .contact import ContactHamiltonian
from .errors import AuditError, DomainError
from .geometry import as_phase, require_split, split_uv, squared_split
from . import sampling

# half-width of a rejection-sampling box, and the squeeze sweep's radius cap
# on rays that never leave s*V, in largest semi-axes of the hyperboloid
BOX_FACTOR = 4.0
# rows per block of the containment audit: 16384 points of R^4 are 512 KB,
# so a block and its 1-D temporaries stay within a 2 MiB L2 cache
AUDIT_BLOCK = 16384
# relative margin by which a row's raw angle ratio must clear one of H's
# rho facts for `StarDomain.contains_rows` to settle the row without H:
# over 8e6 rows (n = 2 and 3, four scales) the ratio of a raw row and that
# of its unit row differed by at most 8.4 (1 + rho) 2^-53
SETTLE_DELTA = 1e-9
# facts at larger ratios settle nothing, so that gap stays below
# SETTLE_DELTA / 100
SETTLE_RHO_MAX = 1e4


def _require_squares(named: dict):
    """Refuse, with a DomainError that names it, any value x of named
    unless x > 0 and x^2 is a positive finite float."""
    for name, x in named.items():
        if not (x > 0 and 0.0 < float(x) * float(x) < np.inf):
            raise DomainError(f"{name} must be positive with a positive "
                              f"finite square, got {name} = {x:g}")


@dataclass(frozen=True)
class Hyperboloid:
    """Model domain {G < 1}, G = u/a^2 - v/b^2, of the k-indexed split."""

    n: int
    k: int
    a: float
    b: float

    def __post_init__(self):
        _require_squares({"a": self.a, "b": self.b})
        require_split(self.n, self.k)

    def defining_function(self, zs):
        return self.level(*split_uv(as_phase(zs, n=self.n), self.k))

    def level(self, u, v):
        """G from the points' split masses (u, v)."""
        return u / self.a ** 2 - v / self.b ** 2

    def scaled(self, s: float):
        if not s > 0:
            raise DomainError("scale must be positive")
        _require_squares({"s * a": s * self.a, "s * b": s * self.b})
        return Hyperboloid(n=self.n, k=self.k, a=s * self.a, b=s * self.b)


@dataclass(frozen=True)
class StarDomain:
    """{r H(theta) < 1} for a nonnegative sphere Hamiltonian H."""

    H: ContactHamiltonian

    def contains_rows(self, zs, r, u, v):
        """Membership of the rows of zs, given their `squared_split`
        (r, u, v).  The origin (r = 0) is inside.  A row is settled inside
        where v >= zero_rho (1 + SETTLE_DELTA) u, rows with u = 0
        included, and outside where v <= floor_rho (1 - SETTLE_DELTA) u
        and r floor >= 1; only the other rows are normalised and passed to
        `H.eval_fn`.  Comparing v with a threshold times u needs no
        division, and an infinite threshold times u = 0 is NaN, which
        settles nothing.  Exact for rows whose nonzero coordinates square
        to normal floats (see the module docstring)."""
        H = self.H
        zero = (H.zero_rho * (1.0 + SETTLE_DELTA)
                if H.zero_rho <= SETTLE_RHO_MAX else np.inf)
        low = (H.floor_rho * (1.0 - SETTLE_DELTA)
               if H.floor_rho <= SETTLE_RHO_MAX else -np.inf)
        with np.errstate(invalid="ignore"):  # an infinite threshold times u = 0
            out = (v >= zero * u) | (r == 0.0)
            rest = ~(out | ((v <= low * u) & (r * H.floor >= 1.0)))
        # gathered by index: a boolean mask gathers rows several times slower
        rest = np.flatnonzero(rest)
        r = r.take(rest)
        out[rest] = r * H.eval_fn(zs.take(rest, axis=0) / np.sqrt(r)[:, None]) < 1.0
        return out


@dataclass(frozen=True)
class SmoothedWell:
    """Even function equal to -t^2 near 0 and 3t^2 - 4C^2 past the blend
    band, lying above both branches, with its single positive minimum
    pinned near t = C.  The fields are C and eps.  Construction refuses
    bad ones (DomainError); derives, as plain attributes, `four_c2` =
    4.0 * C * C, the one rounding of 4C^2 that every form reads, and the
    band half-width `delta` in the variable 4t^2 - 4C^2; finds the
    minimum; and audits the well on a grid (AuditError).
    `value_at`/`deriv_at` take one float (root finders, the integrator);
    `value`/`deriv` take arrays and give a 0-d input the scalar forms'
    bits.  Other arrays match them bitwise outside the band and to
    rounding inside: numpy's array `**` and libm's `pow` differ in the
    last bit for about 5% of u**4 (10,755 of 200,000 uniform u on an
    AVX-512 x86-64 machine)."""

    C: float
    eps: float

    def __post_init__(self):
        C, eps = self.C, self.eps
        if not (C > 0 and 0 < eps < C / 10.0):
            raise DomainError(f"need 0 < eps < C/10, got C={C}, eps={eps}")
        four_c2 = 4.0 * C * C
        if not 0.0 < four_c2 < np.inf:
            raise DomainError(f"4C^2 must be a positive finite float, got C = {C:g}")
        object.__setattr__(self, "four_c2", four_c2)
        object.__setattr__(self, "delta", min(3.2 * eps, 7.6 * C * eps))
        object.__setattr__(self, "_min_point", self._search_minimum())
        self._audit()

    def _band_value(self, t2, d):
        """g inside the blend band |d| < delta, from t^2 and d = 4t^2 - 4C^2:
        -t^2 plus a C^4 overestimate of max(d, 0) that stays within
        0.137 delta of it."""
        return -t2 + 2.0 * self.delta * _step7_integral((d + self.delta)
                                                        / (2.0 * self.delta))

    def _band_slope(self, t, d):
        """g' inside the blend band, from t and d = 4t^2 - 4C^2."""
        return t * (-2.0 + 8.0 * _step7((d + self.delta) / (2.0 * self.delta)))

    def value_at(self, t: float) -> float:
        t2 = t * t
        d = 4.0 * t2 - self.four_c2
        if d >= self.delta:
            return 3.0 * t2 - self.four_c2
        if d <= -self.delta:
            return -t2
        return self._band_value(t2, d)

    def deriv_at(self, t: float) -> float:
        d = 4.0 * t * t - self.four_c2
        if d >= self.delta:
            return 6.0 * t
        if d <= -self.delta:
            return -2.0 * t
        return self._band_slope(t, d)

    def value(self, t):
        t = np.asarray(t, dtype=float)
        if not t.ndim:
            return np.asarray(self.value_at(float(t)))
        t2 = t * t
        d = 4.0 * t2 - self.four_c2
        # outside the band g is the larger branch: 3t^2 - 4C^2 - (-t^2) = d
        out = np.maximum(3.0 * t2 - self.four_c2, -t2)
        band = np.abs(d) < self.delta  # the blend runs on these entries only
        out[band] = self._band_value(t2[band], d[band])
        return out

    def deriv(self, t):
        t = np.asarray(t, dtype=float)
        if not t.ndim:
            return np.asarray(self.deriv_at(float(t)))
        d = 4.0 * t * t - self.four_c2
        out = np.where(d >= self.delta, 6.0 * t, -2.0 * t)
        band = np.abs(d) < self.delta
        out[band] = self._band_slope(t[band], d[band])
        return out

    @property
    def band(self):
        """(t_lo, t_hi): outside, the two branches hold verbatim."""
        return (0.5 * np.sqrt(self.four_c2 - self.delta),
                0.5 * np.sqrt(self.four_c2 + self.delta))

    def min_point(self):
        """(t, g(t)) at the positive minimum, searched at construction."""
        return self._min_point

    def _search_minimum(self):
        """In the band g'(t) = t (-2 + 8 step7(u)) with u rising in t, so
        g' changes sign once, where the degree-7 step7(u) crosses 1/4.
        Bisection on the sign of g' narrows the band to two adjacent
        floats; t is the upper one, the least float at which g' is not
        negative."""
        lo, hi = (float(t) for t in self.band)  # g' < 0 at lo, > 0 at hi
        mid = 0.5 * (lo + hi)
        while lo < mid < hi:
            if self.deriv_at(mid) < 0.0:
                lo = mid
            else:
                hi = mid
            mid = 0.5 * (lo + hi)
        return hi, self.value_at(hi)

    def _audit(self):
        """(t/2) g' >= g, g above its branches and equal to them outside
        |t - C| < eps on a grid, and the minimum's contract window."""
        C, eps = self.C, self.eps
        # both grid checks compare terms as large as 27 C^2 (0.5 t g' at
        # |t| = 3C) that reach the same value by different roundings, so
        # they allow a few ulps at that size (2 is the worst seen)
        tol = 4.0 * np.spacing(max(1.0, 27.0 * C * C))
        # np.linspace(-3C, 3C, 10^4)'s points, bit for bit, in two blocks of
        # 40 KB arrays: no freed chunk reaches the 64 KiB at which glibc may
        # give the heap's top back (see `orbits.CONTOUR_BLOCK`)
        start, stop = -3.0 * C, 3.0 * C
        step = (stop - start) / 9_999
        for i in (0, 5_000):
            t = np.arange(i, i + 5_000) * step + start
            if i:
                t[-1] = stop
            t2 = t * t
            g = self.value(t)
            branches = np.maximum(3.0 * t2 - self.four_c2, -t2)
            if np.min(0.5 * t * self.deriv(t) - g) < -tol:
                raise AuditError("radial-derivative inequality fails on the grid")
            if np.min(g - branches) < -tol:
                raise AuditError("well dips below its two branches")
            exact = (np.abs(t) <= C - eps) | (np.abs(t) >= C + eps)
            if np.any((g != branches) & exact):
                raise AuditError("branches are not exact outside the blend window")
        t_min, v_min = self._min_point
        if not (-C * C - 1e-12 <= v_min <= -C * C + eps and abs(t_min - C) <= eps):
            raise AuditError(f"minimum {v_min} at {t_min} outside the contract window")

    def level_crossings(self, levels):
        """(inner, outer) crossings t >= 0 of the levels g = l of a 1-d
        array above the minimum: inner in [0, t_min], 0 where l >= 0, and
        outer past t_min.  Past the band each is a branch's root in closed
        form, sqrt(-l) or sqrt((l + 4C^2)/3), taken where `value`'s branch
        test holds at it; one vectorised bisection on g(t) <= l narrows
        the others, in the band, to adjacent floats, each the float on
        the inside of the level."""
        outer = np.sqrt((levels + self.four_c2) / 3.0)
        inner = np.sqrt(np.maximum(-levels, 0.0))
        # the band's crossings, where the branch test fails at the branch root
        top = 4.0 * (outer * outer) - self.four_c2 < self.delta
        bottom = 4.0 * (inner * inner) - self.four_c2 > -self.delta
        n_top = np.count_nonzero(top)
        t_lo, t_hi = self.band
        level = np.concatenate([levels[top], levels[bottom]])
        t_in = np.full(level.shape, self._min_point[0])  # g <= level from here
        t_out = np.concatenate([np.full(n_top, t_hi),
                                np.full(np.count_nonzero(bottom), t_lo)])
        while True:
            mid = 0.5 * (t_in + t_out)
            if not np.any((mid != t_in) & (mid != t_out)):
                break
            inside = self.value(mid) <= level
            t_in, t_out = np.where(inside, mid, t_in), np.where(inside, t_out, mid)
        outer[top], inner[bottom] = t_in[:n_top], t_in[n_top:]
        return inner, outer


@dataclass(frozen=True)
class IntegrableDomain:
    """{G < 1} with G = (|x|^2 + sum of first n-k y^2)/a^2 + last-k well terms."""

    n: int
    k: int
    a: float
    b: float
    well: SmoothedWell

    def __post_init__(self):
        if self.n < 2:
            raise DomainError(f"an integrable domain needs n >= 2, got {self.n}")
        if not 1 <= self.k < self.n:
            raise DomainError(f"k = {self.k} outside 1..{self.n - 1}")
        _require_squares({"a": self.a, "b": self.b})

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

    def boundary_project(self, directions):
        """Scale each direction onto {G = 1}: bisection along the ray, at
        most 200 halvings, stopping once every |G - 1| < 1e-12."""
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
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            vals = self.defining_function(mid[:, None] * d)
            below = vals < 1.0
            lo[below] = mid[below]
            hi[~below] = mid[~below]
            if np.max(np.abs(vals - 1.0)) < 1e-12:
                break
        mid = 0.5 * (lo + hi)
        return mid[:, None] * d

    def transversality_margin(self, zs):
        """(z/2) . grad G - 1 at points with |G - 1| <= 1e-8."""
        zs = np.atleast_2d(as_phase(zs, n=self.n))
        G = self.defining_function(zs)
        if np.max(np.abs(G - 1.0)) > 1e-8:
            raise DomainError("transversality margin needs boundary points")
        return self.liouville_derivative(zs) - 1.0


@dataclass(frozen=True)
class SandwichCertificate:
    inner: Hyperboloid
    outer: Hyperboloid
    provenance: dict

    def check(self):
        """The four inequalities of the construction, each with a margin
        of at least 1e-9 times its own scale (T, b^2/a^2, rho0 and the
        outer a'^2), so the check reads the same at any amplitude of H;
        raises AuditError otherwise."""
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
        scales = [T, b2 / a2, rho0, ap2]
        if any(c < 1e-9 * s for c, s in zip(conds, scales)):
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
    # no Hamiltonian has a floor m above its sup bound M, or a floor on
    # rho <= rho0 where it must already vanish (rho >= rho1)
    if not (meta.m <= meta.M and meta.rho0 < meta.rho1):
        raise DomainError(f"support metadata contradicts itself: need m <= M "
                          f"and rho0 < rho1, got M={meta.M:g}, m={meta.m:g}, "
                          f"rho0={meta.rho0:g}, rho1={meta.rho1:g}")
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
                      samples: int = 100_000, seed: int = 0) -> ContainmentReport:
    """Rejection-sample both inclusions inner ⊂ V(H) ⊂ outer.

    The samples stream in blocks of AUDIT_BLOCK rows (`sampling.box_blocks`),
    the same draws as `sampling.box_points`, so memory stays bounded at any
    sample count.  Each block is squared and split once: both hyperboloids
    read its (u, v), and the star test all three.
    """
    if samples < 1:
        raise DomainError(f"need at least 1 audit sample, got {samples}")
    if {(h.n, h.k) for h in (cert.inner, cert.outer)} != {(H.n, H.k)}:
        raise DomainError("the certificate's hyperboloids must have the (n, k) of H")
    star = StarDomain(H)
    halfwidth = BOX_FACTOR * max(cert.outer.a, cert.outer.b)
    n_inner = n_star = viol_inner = viol_outer = 0
    for pts in sampling.box_blocks(2 * H.n, halfwidth, samples, seed, AUDIT_BLOCK):
        r, u, v = squared_split(pts, H.k)
        in_inner = cert.inner.level(u, v) < 1.0
        in_star = star.contains_rows(pts, r, u, v)
        in_outer = cert.outer.level(u, v) < 1.0
        n_inner += np.count_nonzero(in_inner)
        n_star += np.count_nonzero(in_star)
        viol_inner += np.count_nonzero(in_inner & ~in_star)
        viol_outer += np.count_nonzero(in_star & ~in_outer)
    return ContainmentReport(
        samples_inner=int(n_inner), samples_outer=int(n_star),
        violations_inner=int(viol_inner), violations_outer=int(viol_outer),
        box_halfwidth=halfwidth,
    )
