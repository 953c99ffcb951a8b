import numpy as np
import pytest
from scipy import stats

from symcone import DomainError, sampling
from symcone.domains import AUDIT_BLOCK
from symcone.geometry import angle_ratio_of


def beta_law_route(n, k, count, seed, rho_max):
    """The angle-ratio sampler written with scipy.stats' Beta law, drawing
    the quantile between the law's cdf at v = 0 and at the ratio's top."""
    g = sampling.rng(seed)
    v_hi = 1.0 if np.isinf(rho_max) else rho_max / (1.0 + rho_max)
    law = stats.beta(k / 2.0, (2.0 * n - k) / 2.0)
    v = np.clip(law.ppf(g.uniform(law.cdf(0.0), law.cdf(v_hi), size=count)),
                0.0, 1.0)
    out = np.zeros((count, 2 * n))
    out[:, 2 * n - k:] = sampling._unit_rows(g, count, k) * np.sqrt(v)[:, None]
    out[:, :2 * n - k] = (sampling._unit_rows(g, count, 2 * n - k)
                          * np.sqrt(1.0 - v)[:, None])
    return out


@pytest.mark.parametrize("n, k", [(n, k) for n in range(1, 5)
                                  for k in range(1, n + 1)])
@pytest.mark.parametrize("rho_probe, rho_max", [(0.0, np.inf), (0.25, np.inf),
                                                (0.1, 3.0)])
def test_angle_ratio_sampler_matches_the_beta_law(n, k, rho_probe, rho_max):
    # bitwise the reference route; then, read back from the rows' own
    # angle ratios, every row lies under rho_max and the share at most
    # rho_probe is the conditioned law's, to five binomial deviations
    seed, count = 100 * n + k, 2000
    got = sampling.sphere_points_with_angle_ratio(n, k, count, seed, rho_max)
    np.testing.assert_array_equal(got, beta_law_route(n, k, count, seed, rho_max))
    rho = angle_ratio_of(got, k)
    assert np.all(rho <= rho_max)
    law = stats.beta(k / 2.0, (2.0 * n - k) / 2.0)
    v_hi = 1.0 if np.isinf(rho_max) else rho_max / (1.0 + rho_max)
    p = law.cdf(rho_probe / (1.0 + rho_probe)) / law.cdf(v_hi)
    share = np.mean(rho <= rho_probe)
    assert abs(share - p) <= 5.0 * np.sqrt(p * (1.0 - p) / count) + 1.0 / count


@pytest.mark.parametrize("rho_max", [0.0, -1.0])
def test_angle_ratio_sampler_needs_a_positive_top(rho_max):
    with pytest.raises(DomainError, match="rho_max > 0"):
        sampling.sphere_points_with_angle_ratio(2, 1, 10, 0, rho_max)


@pytest.mark.parametrize("count", [1, AUDIT_BLOCK - 1, AUDIT_BLOCK, AUDIT_BLOCK + 1,
                                   3 * AUDIT_BLOCK + 17])
def test_box_blocks_concatenate_to_box_points(count):
    blocks = list(sampling.box_blocks(4, 2.5, count, 11, AUDIT_BLOCK))
    assert [len(b) for b in blocks[:-1]] == [AUDIT_BLOCK] * (len(blocks) - 1)
    assert 1 <= len(blocks[-1]) <= AUDIT_BLOCK
    np.testing.assert_array_equal(np.concatenate(blocks),
                                  sampling.box_points(4, 2.5, count, 11))


def test_negative_seed_is_a_domain_error():
    with pytest.raises(DomainError, match="nonnegative"):
        sampling.rng(-1)
    with pytest.raises(DomainError, match="nonnegative"):
        sampling.spawn(-3, 2)
    assert sampling.spawn(0, 2) == sampling.spawn(0, 2)
