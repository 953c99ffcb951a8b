import numpy as np
import pytest
from scipy import stats
from scipy.special import betainc, betaincinv

from symcone import AuditError, DomainError, sampling
from symcone.domains import AUDIT_BLOCK
from symcone.geometry import angle_ratio_of, row_sum

SHAPES = [(n, k) for n in range(1, 5) for k in range(1, n + 1)]


def ulps(got, want):
    """|got - want| in units of the last place of want."""
    return np.abs(got - want) / np.spacing(np.abs(want))


def beta_law_route(n, k, count, seed, rho_max):
    """The angle-ratio sampler written with scipy.special's Beta law: the
    same draws in the same order, the quantile drawn between the law's cdf
    at v = 0 and at the ratio's top.  Returns the rows and their v."""
    g = sampling.rng(seed)
    v_hi = 1.0 if np.isinf(rho_max) else rho_max / (1.0 + rho_max)
    a, b = k / 2.0, (2.0 * n - k) / 2.0
    v = np.clip(betaincinv(a, b, g.uniform(0.0, betainc(a, b, v_hi), size=count)),
                0.0, 1.0)
    out = np.zeros((count, 2 * n))
    out[:, 2 * n - k:] = sampling._unit_rows(g, count, k) * np.sqrt(v)[:, None]
    out[:, :2 * n - k] = (sampling._unit_rows(g, count, 2 * n - k)
                          * np.sqrt(1.0 - v)[:, None])
    return out, v


@pytest.mark.parametrize("n, k", SHAPES)
def test_beta_tails_match_betainc(n, k):
    # both tails, each at its own argument t <= 1/2, to 16 ulps relative
    # (the largest gap seen is 9); near x = 1 one minus scipy's cdf is no
    # reference for the upper tail: its I_x(1/2, 1/2) is off by 3.5e-10 at
    # x = 1 - 1e-14
    t = np.concatenate([np.geomspace(1e-14, 0.5, 400),
                        np.random.default_rng(n * 10 + k).uniform(0.0, 0.5, 400)])
    a, b = k / 2.0, n - k / 2.0
    for p, r in ((a, b), (b, a)):
        assert np.max(ulps(sampling._beta_tail(t, p, r), betainc(p, r, t))) <= 16.0
    x = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    np.testing.assert_allclose(sampling._beta_cdf(x, a, b), betainc(a, b, x),
                               rtol=16 * np.finfo(float).eps, atol=0.0)


@pytest.mark.parametrize("n, k", SHAPES)
def test_beta_quantile_matches_betaincinv(n, k):
    # to 32 ulps of the quantile (the largest gap seen is 25, at n = 3 and 4
    # with k = 1, where q is near the lower tail's top I_(1/2) and a few ulps
    # of q span many of x; betaincinv itself misses the root by up to 24
    # ulps there, against mpmath at 40 digits)
    q = np.concatenate([[0.0, 1.0], np.geomspace(1e-16, 1e-3, 200),
                        1.0 - np.geomspace(1e-16, 1e-3, 200),
                        np.random.default_rng(n * 10 + k).uniform(0.0, 1.0, 4000)])
    a, b = k / 2.0, n - k / 2.0
    got, want = sampling._beta_quantile(q, a, b), betaincinv(a, b, q)
    assert np.max(ulps(got, want)) <= 32.0


def test_beta_quantile_refuses_an_unsettled_solve(monkeypatch):
    monkeypatch.setattr(sampling, "_NEWTON_ROUNDS", 1)
    with pytest.raises(AuditError, match="1 Newton steps"):
        sampling._beta_quantile(np.array([0.3]), 0.5, 1.5)


@pytest.mark.parametrize("n, k", SHAPES)
@pytest.mark.parametrize("rho_probe, rho_max", [(0.0, np.inf), (0.25, np.inf),
                                                (0.1, 3.0)])
def test_angle_ratio_sampler_matches_the_beta_law(n, k, rho_probe, rho_max):
    # the reference route's rows but for the quantile v: the same block
    # directions to 4 eps, and the squared mass of the v-block within 128
    # ulps of the reference v (the largest gap seen is 75, at n = 4, k = 1,
    # rho_max = 3, where the law's cdf at the top and the quantile each add
    # theirs); then, read back from the rows' own angle ratios, every row
    # lies under rho_max and the share at most rho_probe is the conditioned
    # law's, to five binomial deviations
    seed, count = 100 * n + k, 2000
    got = sampling.sphere_points_with_angle_ratio(n, k, count, seed, rho_max)
    want, v = beta_law_route(n, k, count, seed, rho_max)
    for block in (slice(2 * n - k, None), slice(0, 2 * n - k)):
        g, w = got[:, block], want[:, block]
        g_mass, w_mass = row_sum(g * g), row_sum(w * w)
        full = w_mass > 0.0
        np.testing.assert_allclose(g[full] / np.sqrt(g_mass[full])[:, None],
                                   w[full] / np.sqrt(w_mass[full])[:, None],
                                   rtol=0.0, atol=4 * np.finfo(float).eps)
    assert np.max(ulps(row_sum(got[:, 2 * n - k:] ** 2), v)) <= 128.0
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


@pytest.mark.parametrize("n, k", [(2, 0), (2, 3), (3, -1)])
def test_angle_ratio_sampler_needs_k_in_1_to_n(n, k):
    with pytest.raises(DomainError, match=rf"^k = {k} outside 1\.\.{n}$"):
        sampling.sphere_points_with_angle_ratio(n, k, 10, 0, 1.0)


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
