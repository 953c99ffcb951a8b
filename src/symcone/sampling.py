"""Seeded random sampling helpers.

All randomness in the package flows through `rng(seed)` so every scan,
audit, and CLI run is reproducible from a single 64-bit seed.
"""
import numpy as np
from scipy.special import betainc, betaincinv

from .errors import DomainError


def rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed))


def spawn(seed: int, count: int):
    """Independent child seeds (for parallelizable sweeps)."""
    return [int(s.generate_state(1, dtype=np.uint64)[0])
            for s in np.random.SeedSequence(seed).spawn(count)]


def sphere_points(n: int, count: int, seed: int):
    """Uniform points of S^{2n-1} as rows."""
    g = rng(seed)
    z = g.standard_normal((count, 2 * n))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def _unit_rows(g, count, dim):
    w = g.standard_normal((count, dim))
    return w / np.linalg.norm(w, axis=1, keepdims=True)


def sphere_points_with_angle_ratio(n: int, k: int, count: int, seed: int,
                                   rho_min: float = 0.0, rho_max: float = np.inf):
    """Uniform sphere points conditioned on the angle ratio v/u lying in
    [rho_min, rho_max], where v is the squared mass of the last k of the
    y-block.  Exact conditioning via the Beta law of v on the sphere."""
    if not 1 <= k <= n:
        raise DomainError(f"k = {k} outside 1..{n}")
    if not 0.0 <= rho_min < rho_max:
        raise DomainError("need 0 <= rho_min < rho_max")
    g = rng(seed)
    v_lo = rho_min / (1.0 + rho_min)
    v_hi = 1.0 if np.isinf(rho_max) else rho_max / (1.0 + rho_max)
    a, b = k / 2.0, (2.0 * n - k) / 2.0
    q = g.uniform(betainc(a, b, v_lo), betainc(a, b, v_hi), size=count)
    v = betaincinv(a, b, q)
    v = np.clip(v, 0.0, 1.0)
    out = np.zeros((count, 2 * n))
    inner = _unit_rows(g, count, k) * np.sqrt(v)[:, None]
    outer = _unit_rows(g, count, 2 * n - k) * np.sqrt(1.0 - v)[:, None]
    # assemble: the v-block is the last k slots, u fills everything else
    out[:, 2 * n - k:] = inner
    out[:, :2 * n - k] = outer
    return out


def box_points(dim: int, halfwidth: float, count: int, seed: int):
    g = rng(seed)
    return g.uniform(-halfwidth, halfwidth, size=(count, dim))
