"""Seeded random sampling helpers.

All randomness in the package flows through `rng(seed)` so every scan,
audit, and CLI run is reproducible from a single nonnegative integer
seed; a negative one is a DomainError.
"""
import numpy as np
from scipy.special import betainc, betaincinv

from .errors import DomainError


def _seed_sequence(seed: int) -> np.random.SeedSequence:
    if seed < 0:
        raise DomainError(f"seed must be a nonnegative integer, got {seed}")
    return np.random.SeedSequence(seed)


def rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(_seed_sequence(seed))


def spawn(seed: int, count: int):
    """`count` independent child seeds (for parallelizable sweeps); a
    negative count is a DomainError."""
    if count < 0:
        raise DomainError(f"count of seeds must be nonnegative, got {count}")
    return [int(s.generate_state(1, dtype=np.uint64)[0])
            for s in _seed_sequence(seed).spawn(count)]


def sphere_points(n: int, count: int, seed: int):
    """Uniform points of S^{2n-1} as rows."""
    return _unit_rows(rng(seed), count, 2 * n)


def _unit_rows(g, count, dim):
    w = g.standard_normal((count, dim))
    return w / np.linalg.norm(w, axis=1, keepdims=True)


def sphere_points_with_angle_ratio(n: int, k: int, count: int, seed: int,
                                   rho_max: float):
    """Uniform sphere points conditioned on the angle ratio v/u lying in
    [0, rho_max], where v is the squared mass of the last k of the
    y-block.  Exact conditioning via the Beta law of v on the sphere."""
    if not 1 <= k <= n:
        raise DomainError(f"k = {k} outside 1..{n}")
    if not rho_max > 0.0:
        raise DomainError(f"need rho_max > 0, got {rho_max}")
    g = rng(seed)
    v_hi = 1.0 if np.isinf(rho_max) else rho_max / (1.0 + rho_max)
    a, b = k / 2.0, (2.0 * n - k) / 2.0
    q = g.uniform(0.0, betainc(a, b, v_hi), size=count)
    v = betaincinv(a, b, q)
    v = np.clip(v, 0.0, 1.0)
    out = np.zeros((count, 2 * n))
    inner = _unit_rows(g, count, k) * np.sqrt(v)[:, None]
    outer = _unit_rows(g, count, 2 * n - k) * np.sqrt(1.0 - v)[:, None]
    # assemble: the v-block is the last k slots, u fills everything else
    out[:, 2 * n - k:] = inner
    out[:, :2 * n - k] = outer
    return out


def _box_rows(g, dim, halfwidth, count):
    return g.uniform(-halfwidth, halfwidth, size=(count, dim))


def box_points(dim: int, halfwidth: float, count: int, seed: int):
    """Uniform points of the box [-halfwidth, halfwidth]^dim as rows."""
    return _box_rows(rng(seed), dim, halfwidth, count)


def box_blocks(dim: int, halfwidth: float, count: int, seed: int, block: int):
    """`box_points` in consecutive blocks of at most `block` rows, drawn one
    after another from the one seeded generator: the blocks concatenate to
    `box_points(dim, halfwidth, count, seed)` bit for bit."""
    g = rng(seed)
    for start in range(0, count, block):
        yield _box_rows(g, dim, halfwidth, min(block, count - start))
