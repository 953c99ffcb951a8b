import math

import numpy as np
import pytest

from symcone import AuditError, DomainError, sampling
from symcone.contact import SupportMeta
from symcone.exprs import hamiltonian_from_expression
from symcone.growth import (
    ConeElement,
    ConeFamily,
    Conjugator,
    GrowthInterval,
    _closed_hi_matrix,
    dw_bound_check,
    equivalence_and_order,
    pseudo_distance,
    random_family,
    relative_growth_bounds,
    scaling_family,
    submultiplicativity_check,
)


@pytest.fixture(scope="module")
def scale_fam():
    # Small pool/grid keeps the module suite quick; the scaling relations
    # below are exact at any pool size because the identity conjugator is
    # always available.
    return scaling_family(pool_size=2, grid_points=2000, seed=0)


@pytest.fixture(scope="module")
def rand_fam():
    return random_family(count=3, seed=3, pool_size=3, grid_points=2000)


def test_growth_interval_validation():
    GrowthInterval(0.0, math.inf)
    with pytest.raises(DomainError):
        GrowthInterval(-1.0, 1.0)
    with pytest.raises(DomainError):
        GrowthInterval(2.0, 1.0)


def test_scaling_pairs_are_exact(scale_fam):
    fwd = relative_growth_bounds(scale_fam, "f", "2f")
    assert (fwd.lo, fwd.hi) == (0.5, 0.5)
    assert fwd.witnesses[0] == ("identity", 0.5)
    bwd = relative_growth_bounds(scale_fam, "2f", "f")
    assert (bwd.lo, bwd.hi) == (2.0, 2.0)
    far = relative_growth_bounds(scale_fam, "f", "4f")
    assert (far.lo, far.hi) == (0.25, 0.25)


def test_scaling_distances_collapse_to_logs(scale_fam):
    d = pseudo_distance(scale_fam, "f", "2f")
    assert d.lo == d.hi == math.log(2.0)
    d4 = pseudo_distance(scale_fam, "f", "4f")
    assert d4.lo == d4.hi == math.log(4.0)


def test_quotient_order_of_scalings(scale_fam):
    rep = equivalence_and_order(scale_fam)
    assert rep.classes == (("f",), ("2f",), ("4f",))
    assert rep.antisymmetry_ok
    # Strict order f < 2f < 4f is witnessed at every tolerance level.
    for eps, found in rep.edges.items():
        assert set(found) == {(0, 1), (0, 2), (1, 2)}
    # Multiplicative triangle with exact equality along the scaling chain.
    assert rep.growth_hi[("f", "4f")] == (rep.growth_hi[("f", "2f")]
                                          * rep.growth_hi[("2f", "4f")])
    d12 = rep.distances[("f", "2f")]
    d24 = rep.distances[("2f", "4f")]
    d14 = rep.distances[("f", "4f")]
    assert d14.hi <= d12.hi + d24.hi + 1e-12


def test_identical_elements_cluster(worked_hamiltonian):
    els = [ConeElement(eid="f", H=worked_hamiltonian, base_id="f", scale=1.0),
           ConeElement(eid="fbis", H=worked_hamiltonian, base_id="f",
                       scale=1.0)]
    fam = ConeFamily(2, 1, els, seed=0, pool_size=1, grid_points=1500)
    rep = equivalence_and_order(fam)
    assert rep.classes == (("f", "fbis"),)
    d = rep.distances[("f", "fbis")]
    assert d.lo == d.hi == 0.0


def test_duplicate_ids_rejected(worked_hamiltonian):
    els = [ConeElement(eid="f", H=worked_hamiltonian, base_id="f", scale=1.0),
           ConeElement(eid="f", H=worked_hamiltonian, base_id="f", scale=1.0)]
    with pytest.raises(DomainError):
        ConeFamily(2, 1, els, seed=0, pool_size=1, grid_points=500)


def test_capacity_transport_along_scale(scale_fam):
    w1 = scale_fam.capacity("f")
    w4 = scale_fam.capacity("4f")
    np.testing.assert_allclose([w4.lo, w4.hi], [w1.lo / 4.0, w1.hi / 4.0],
                               rtol=1e-12)


def test_random_family_interval_invariants(rand_fam):
    ids = list(rand_fam.elements)
    for i in ids:
        for j in ids:
            if i == j:
                continue
            g = relative_growth_bounds(rand_fam, i, j)
            assert 0.0 <= g.lo <= g.hi
            # witness list is sorted best-first
            svals = [s for _, s in g.witnesses]
            assert svals == sorted(svals)
            d = pseudo_distance(rand_fam, i, j)
            assert 0.0 <= d.lo <= d.hi
            assert dw_bound_check(rand_fam, i, j, d)["ok"]


def test_composed_witness_is_remeasured(rand_fam):
    ids = list(rand_fam.elements)
    pool_before = len(rand_fam.pool)
    sub = submultiplicativity_check(rand_fam, ids[0], ids[1], ids[2])
    assert sub.ok
    assert sub.measured <= sub.claimed * (1.0 + 1e-9)
    assert len(sub.links) == 2
    # the composed conjugator joined the pool for future bounds
    assert len(rand_fam.pool) == pool_before + 1


def _growth_matrix(ids, entries, default):
    hi = {(i, j): (1.0 if i == j else default) for i in ids for j in ids}
    hi.update(entries)
    return hi


def test_closure_chains_witnesses_as_exact_products():
    ids = ("a", "b", "c", "d")
    hi = _growth_matrix(ids, {("a", "b"): 0.3, ("b", "c"): 0.7,
                              ("c", "d"): 0.9, ("a", "d"): 0.5}, 100.0)
    closed = _closed_hi_matrix(hi)
    assert closed[("a", "c")] == 0.3 * 0.7
    assert closed[("b", "d")] == 0.7 * 0.9
    assert closed[("a", "d")] == 0.3 * 0.7 * 0.9
    assert closed[("d", "a")] == 100.0
    assert all(closed[(i, i)] == 1.0 for i in ids)
    assert hi[("a", "d")] == 0.5  # the raw matrix is left alone


def test_closure_rejects_a_cycle_below_one():
    hi = _growth_matrix(("a", "b"), {("a", "b"): 0.5, ("b", "a"): 1.5}, 1.0)
    with pytest.raises(AuditError):
        _closed_hi_matrix(hi)


def test_composed_conjugator_pulls_back_in_sequence(rand_fam):
    grid = sampling.sphere_points(2, 200, 5)
    iso1, iso2, iso3 = (c.iso for c in rand_fam.pool[1:4])
    c21 = Conjugator("c1", iso1).composed_after("c2|c1", Conjugator("c2", iso2))
    pre, factor = c21.pulled_back(grid)
    pre2, cf2 = iso2.inverse_images(grid)
    pre21, cf1 = iso1.inverse_images(pre2)
    assert np.array_equal(pre, pre21) and np.array_equal(factor, cf2 * cf1)
    assert c21.pulled_back(grid)[0] is pre
    assert c21.pulled_back(grid.copy())[0] is not pre
    # a composed conjugator composes again: through c3, then c2, then c1
    c321 = c21.composed_after("c3|c2|c1", Conjugator("c3", iso3))
    pre, factor = c321.pulled_back(grid)
    pre3, cf3 = iso3.inverse_images(grid)
    pre32, cf2 = iso2.inverse_images(pre3)
    pre321, cf1 = iso1.inverse_images(pre32)
    assert np.array_equal(pre, pre321)
    assert np.array_equal(factor, cf3 * cf2 * cf1)


def test_composed_witness_exact_on_scalings(scale_fam):
    sub = submultiplicativity_check(scale_fam, "f", "2f", "4f")
    assert sub.claimed == 0.25 and sub.measured == 0.25 and sub.ok
    assert sub.links == (("identity", 0.5), ("identity", 0.5))


def test_dw_bound_interval_shape(scale_fam):
    out = dw_bound_check(scale_fam, "f", "4f",
                         pseudo_distance(scale_fam, "f", "4f"))
    assert out["ok"]
    np.testing.assert_allclose(out["d_hi"], math.log(4.0), rtol=1e-12)
    # The enclosures of a shared-base pair overlap after transport, so the
    # certified right-hand side degrades to zero rather than overclaiming.
    assert out["rhs"] == 0.0


def test_capacity_without_a_base_element_is_a_domain_error():
    base = hamiltonian_from_expression(
        "1 * bump(rho; 1, 3)", n=2, k=1,
        meta=SupportMeta(M=1.0, m=0.5, rho0=0.1, rho1=3.0))
    fam = ConeFamily(2, 1, [ConeElement("2f", base.scaled(2.0), base_id="f", scale=2.0)],
                     pool_size=0, grid_points=100, audit_samples=200)
    with pytest.raises(DomainError):
        fam.capacity("2f")
