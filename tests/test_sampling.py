import numpy as np
import pytest
from scipy import stats

from symcone import sampling


def beta_law_route(n, k, count, seed, rho_min, rho_max):
    """The angle-ratio sampler written with scipy.stats' Beta law."""
    g = sampling.rng(seed)
    v_lo = rho_min / (1.0 + rho_min)
    v_hi = 1.0 if np.isinf(rho_max) else rho_max / (1.0 + rho_max)
    law = stats.beta(k / 2.0, (2.0 * n - k) / 2.0)
    v = np.clip(law.ppf(g.uniform(law.cdf(v_lo), law.cdf(v_hi), size=count)),
                0.0, 1.0)
    out = np.zeros((count, 2 * n))
    out[:, 2 * n - k:] = sampling._unit_rows(g, count, k) * np.sqrt(v)[:, None]
    out[:, :2 * n - k] = (sampling._unit_rows(g, count, 2 * n - k)
                          * np.sqrt(1.0 - v)[:, None])
    return out


@pytest.mark.parametrize("n, k", [(n, k) for n in range(1, 5)
                                  for k in range(1, n + 1)])
@pytest.mark.parametrize("rho_min, rho_max", [(0.0, np.inf), (0.25, np.inf),
                                              (0.1, 3.0)])
def test_angle_ratio_sampler_matches_the_beta_law(n, k, rho_min, rho_max):
    seed = 100 * n + k
    got = sampling.sphere_points_with_angle_ratio(n, k, 2000, seed,
                                                  rho_min=rho_min,
                                                  rho_max=rho_max)
    np.testing.assert_array_equal(
        got, beta_law_route(n, k, 2000, seed, rho_min, rho_max))
