"""Seeded random sampling helpers.

All randomness in the package flows through `rng(seed)` so every scan,
audit, and CLI run is reproducible from a single nonnegative integer
seed; a negative one is a DomainError.

The angle-ratio sampler conditions on the Beta(k/2, n - k/2) law of a
block's squared mass.  Both parameters are integers or both are
half-integers, so the law's tails are finite sums or fast positive series
(`_beta_tail`), and the sampler inverts them by safeguarded Newton steps.
"""
import math

import numpy as np

from .errors import AuditError, DomainError
from .geometry import require_split

# rounds of the Newton solve of `_beta_tail_inverse`; from the leading
# term's root it settles in 3 to 9
_NEWTON_ROUNDS = 60


def _seed_sequence(seed: int) -> "np.random.SeedSequence":
    if seed < 0:
        raise DomainError(f"seed must be a nonnegative integer, got {seed}")
    return np.random.SeedSequence(seed)


def rng(seed: int) -> "np.random.Generator":
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


def ray_points(n: int, count: int, seed: int, extent):
    """Rows t*theta in a domain star-shaped about 0: theta uniform on
    S^{2n-1}, then t = extent(theta) U^(1/(2n)) with U uniform on [0, 1),
    from one generator, so each ray is uniform in volume up to its extent.
    `extent` maps unit rows to finite radii."""
    g = rng(seed)
    theta = _unit_rows(g, count, 2 * n)
    t = extent(theta) * g.uniform(size=count) ** (1.0 / (2 * n))
    return t[:, None] * theta


def sphere_points_with_angle_ratio(n: int, k: int, count: int, seed: int,
                                   rho_max: float):
    """Uniform sphere points conditioned on the angle ratio v/u lying in
    [0, rho_max], where v is the squared mass of the last k of the
    y-block.  Exact conditioning via the Beta law of v on the sphere."""
    require_split(n, k)
    if not rho_max > 0.0:
        raise DomainError(f"need rho_max > 0, got {rho_max}")
    g = rng(seed)
    v_hi = 1.0 if np.isinf(rho_max) else rho_max / (1.0 + rho_max)
    a, b = k / 2.0, (2.0 * n - k) / 2.0
    q = g.uniform(0.0, float(_beta_cdf(v_hi, a, b)), size=count)
    v = _beta_quantile(q, a, b)
    out = np.zeros((count, 2 * n))
    inner = _unit_rows(g, count, k) * np.sqrt(v)[:, None]
    outer = _unit_rows(g, count, 2 * n - k) * np.sqrt(1.0 - v)[:, None]
    # assemble: the v-block is the last k slots, u fills everything else
    out[:, 2 * n - k:] = inner
    out[:, :2 * n - k] = outer
    return out


def _beta_tail(t, p, r):
    """I_t(p, r), the lower tail of the Beta(p, r) law, at t in [0, 1/2],
    for p and r halves of positive integers whose sum is an integer.  Every
    route adds positive terms only, so the tail keeps a few ulps of relative
    accuracy however small it is.  Raising p by the recurrence DLMF 8.17.20
    subtracts instead: from I_t(1/2, r) it loses all accuracy at small t
    (relative error 1.6e-4 for (p, r) = (3/2, 3/2) at t = 1e-12, negative
    tails from p = 5/2), so half-integer p > 1/2 sums that recurrence in
    its other direction, as the series below."""
    t = np.asarray(t, dtype=float)
    s = 1.0 - t
    m = round(p + r)
    if p == int(p):
        # DLMF 8.17.5: sum over j = p .. m-1 of C(m-1, j) t^j s^(m-1-j)
        coeffs = [math.comb(m - 1, j) for j in range(m - 1, int(p) - 1, -1)]
        return np.polyval(coeffs, t / s) * t ** int(p) * s ** (m - 1 - int(p))
    if p == 0.5:
        # DLMF 8.17.21 from I_t(1/2, 1/2) = (2/pi) arcsin sqrt t: raising r
        # by one adds t^(1/2) s^r / (r B(1/2, r))
        coeffs, c = [], 1.0
        for j in range(m - 1):
            coeffs.append(c)
            c *= (1.0 + j) / (1.5 + j)
        return (2.0 / math.pi) * (np.arcsin(np.sqrt(t)) + np.sqrt(t * s)
                                  * np.polyval(coeffs[::-1], s))
    # DLMF 8.17.20 unrolled: the sum over j >= 0 of t^(p+j) s^r / ((p+j)
    # B(p+j, r)), in units of its first term, up to the term past which the
    # rest is below 1e-17: the ratios of later terms lie between the next
    # one and t, so the rest is at most term * rho / (1 - rho)
    t_max = float(np.max(t, initial=0.0))
    coeffs, c, j = [1.0], 1.0, 0
    while True:
        c *= (p + r + j) / (p + 1.0 + j)
        j += 1
        coeffs.append(c)
        rho = max((p + r + j) / (p + 1.0 + j) * t_max, t_max)
        if rho < 1.0 and c * t_max ** j * rho < 1e-17 * (1.0 - rho):
            break
    lead = math.exp(math.lgamma(p + r) - math.lgamma(p + 1.0) - math.lgamma(r))
    return lead * t ** p * s ** r * np.polyval(coeffs[::-1], t)


def _beta_cdf(x, a, b):
    """I_x(a, b) for a = k/2, b = n - k/2: the lower tail up to x = 1/2,
    one minus the upper tail I_(1-x)(b, a) past it."""
    x = np.asarray(x, dtype=float)
    return np.where(x <= 0.5, _beta_tail(np.minimum(x, 0.5), a, b),
                    1.0 - _beta_tail(np.minimum(1.0 - x, 0.5), b, a))


def _beta_quantile(q, a, b):
    """x in [0, 1] with I_x(a, b) = q, for a = k/2, b = n - k/2: quantiles
    up to I_(1/2)(a, b) solve the lower tail, the others the upper tail for
    1 - q, so each solve reads a tail at its own argument."""
    q = np.asarray(q, dtype=float)
    lower = q <= _beta_tail(0.5, a, b)
    x = np.empty_like(q)
    x[lower] = _beta_tail_inverse(q[lower], a, b)
    x[~lower] = 1.0 - _beta_tail_inverse(1.0 - q[~lower], b, a)
    return x


def _beta_tail_inverse(target, p, r):
    """t in [0, 1/2] with I_t(p, r) = target, for targets up to I_(1/2)(p, r).

    Newton's method on log I against log t, where a tail c t^p is a line,
    from the root of the tail's leading term t^p / (p B(p, r)); a step that
    leaves the bracket the signs have kept so far bisects it instead.  Once
    every step is within 1e-9 of t, one more step takes the root to the
    tail's own rounding (quadratic convergence).  AuditError if that takes
    more than _NEWTON_ROUNDS steps."""
    inv_beta = math.exp(math.lgamma(p + r) - math.lgamma(p) - math.lgamma(r))
    live = target > 0.0
    t = np.where(live, np.minimum((p * target / inv_beta) ** (1.0 / p), 0.5), 0.0)
    lo, hi = np.zeros_like(t), np.full_like(t, 0.5)
    settled = False
    for _ in range(_NEWTON_ROUNDS):
        tail = _beta_tail(t, p, r)
        over = tail > target
        lo, hi = np.where(over, lo, t), np.where(over, t, hi)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            # slope of log I against log t: t times the density, over I
            slope = inv_beta * t ** p * (1.0 - t) ** (r - 1.0) / tail
            step = t * np.exp(-np.log(tail / target) / slope)
        step = np.where((step >= lo) & (step <= hi), step, 0.5 * (lo + hi))
        step = np.where(live, step, 0.0)
        if settled:
            return step
        settled = bool(np.all(np.abs(step - t) <= 1e-9 * t))
        t = step
    raise AuditError(f"Beta({p:g}, {r:g}) quantile not settled in "
                     f"{_NEWTON_ROUNDS} Newton steps")


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
