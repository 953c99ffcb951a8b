"""End-to-end acceptance checks.

Each test covers one advertised guarantee of the package, prints a
single PASS/FAIL line with the measured numbers (run with `pytest -s`
to see them), and pins the documented tolerance and runtime budget.
Run the whole file with:

    pytest tests/test_acceptance.py -s -v
"""
import itertools
import json
import math
import time

import numpy as np

from symcone import (
    ContactIsotopy,
    Hyperboloid,
    IntegrableDomain,
    PlanarWellSystem,
    SmoothedWell,
    candidate_pool,
    closed_orbit_at_energy,
    containment_audit,
    contact_vector_field,
    dw_bound_check,
    equivalence_and_order,
    liouville_squeeze_witness,
    nonsqueezing_verdict,
    pseudo_distance,
    radial_step_bump,
    random_family,
    random_hamiltonian,
    reeb_derivative,
    reeb_field,
    relative_growth_bounds,
    sandwich_solve,
    scaling_family,
    single_period_return,
    submultiplicativity_check,
    symplectic_pairing,
)
from symcone.cli import main
from symcone.growth import _closed_hi_matrix
from symcone.orbits import area_constant, characteristic_spectrum


def _report(num: int, ok: bool, detail: str, elapsed: float, budget: float):
    in_budget = elapsed < budget
    verdict = "PASS" if (ok and in_budget) else "FAIL"
    print(f"criterion {num:02d} {verdict} — {detail} [{elapsed:.1f}s of "
          f"{budget:.0f}s budget]")
    assert ok, detail
    assert in_budget, f"criterion {num} overran its budget: {elapsed:.1f}s"


def _norm_rows(a):
    return a / np.linalg.norm(a, axis=-1, keepdims=True)


def test_criterion_01_hyperboloid_capacity_exact(capsys):
    t0 = time.monotonic()
    ok = True
    values = []
    for beta in ("0.1", "1", "10"):
        code = main(["capacity", "--hyperboloid", "--a", "1", "--b", beta])
        out = capsys.readouterr().out
        res = json.loads(out)["result"]
        values.append(res["lo"])
        ok &= (code == 0 and res["exact"]
               and res["lo"] == res["hi"] == "3.1415926535897931"
               and float(res["lo"]) == math.pi)
    elapsed = time.monotonic() - t0
    with capsys.disabled():
        _report(1, ok, f"capacity(1, b) = {values[0]} for all three b", elapsed, 1.0)


def test_criterion_02_spectrum_round_actions(capsys):
    t0 = time.monotonic()
    well = SmoothedWell(C=3.0, eps=0.25)
    D = IntegrableDomain(n=2, k=1, a=1.0, b=1.0, well=well)
    spec = characteristic_spectrum(D, window_top=10.0, scan_labels=120)
    want = (math.pi, 2 * math.pi, 3 * math.pi)
    err = max(abs(g - w) for g, w in zip(spec.group_i, want))
    ok = len(spec.group_i) == 3 and err < 1e-9
    with capsys.disabled():
        _report(2, ok, f"round actions {{pi, 2pi, 3pi}}, max err {err:.2e} (tol 1e-9)",
                time.monotonic() - t0, 10.0)


def test_criterion_03_well_actions_grow_quadratically(capsys):
    t0 = time.monotonic()
    mins, bounds, confirms = [], [], []
    for C in (2.0, 4.0, 8.0):
        well = SmoothedWell(C=C, eps=C / 12.0)
        D = IntegrableDomain(n=2, k=1, a=1.0, b=1.0, well=well)
        spec = characteristic_spectrum(D, window_top=10.0, scan_labels=1000)
        mins.append(spec.scan_min_floor)
        bounds.append(spec.group_ii_min_bound)
        confirms.append(spec.scan_confirms_bound)
    r1, r2 = mins[1] / mins[0], mins[2] / mins[1]
    ok = (abs(r1 - 4.0) <= 0.2 and abs(r2 - 4.0) <= 0.2
          and all(confirms)
          and all(m >= b * (1 - 1e-3) for m, b in zip(mins, bounds)))
    with capsys.disabled():
        _report(3, ok, f"doubling C scales the min well action by {r1:.4f}, "
                f"{r2:.4f} (want 4.0 +/- 5%), floors above C^2 bound",
                time.monotonic() - t0, 120.0)


def test_criterion_04_planar_orbit_suite(capsys):
    t0 = time.monotonic()
    well = SmoothedWell(C=3.0, eps=0.25)
    system = PlanarWellSystem(a=1.0, b=1.0, well=well)
    rng = np.random.default_rng(2024)
    emin = system.min_energy()
    es = np.concatenate([rng.uniform(emin + 0.01, -1e-3, 50),
                         rng.uniform(1e-3, 5.0, 50)])
    worst_gap = worst_ret = 0.0
    worst_act = math.inf
    for e in es:
        orb = closed_orbit_at_energy(system, float(e))
        worst_gap = max(worst_gap, float(
            np.linalg.norm(orb.samples[0] - orb.samples[-1])))
        worst_ret = max(worst_ret, single_period_return(system, orb))
        worst_act = min(worst_act, orb.action)
    ok = worst_gap <= 1e-6 and worst_ret <= 1e-5 and worst_act >= -1e-9
    with capsys.disabled():
        _report(4, ok, f"100 orbits: closure {worst_gap:.1e} (tol 1e-6), "
                f"period return {worst_ret:.1e} (tol 1e-5), min action "
                f"{worst_act:.1e} (>= -1e-9)", time.monotonic() - t0, 60.0)


def test_criterion_05_area_constant_against_monte_carlo(capsys):
    t0 = time.monotonic()
    A = area_constant(1.0, 1.0)
    # Independent route: rejection sampling of the ellipse segment
    # {chi^2 + 3 eta^2 <= 15/4, eta >= 1} in its bounding box.
    rng = np.random.default_rng(7)
    N = 10_000_000
    eta_top, chi_top = math.sqrt(5.0) / 2.0, math.sqrt(0.75)
    eta = rng.uniform(1.0, eta_top, N)
    chi = rng.uniform(-chi_top, chi_top, N)
    frac = np.mean(chi * chi + 3.0 * eta * eta <= 3.75)
    mc = float(frac * (eta_top - 1.0) * 2.0 * chi_top)
    ok = abs(A - 0.1379) <= 2e-4 and abs(A - mc) <= 2e-4
    with capsys.disabled():
        _report(5, ok, f"A(1,1) = {A:.8f}, Monte-Carlo {mc:.6f} at 1e7 samples "
                f"(tol 2e-4)", time.monotonic() - t0, 30.0)


def test_criterion_06_boundary_transversality(capsys):
    t0 = time.monotonic()
    well = SmoothedWell(C=3.0, eps=0.25)
    D = IntegrableDomain(n=2, k=1, a=1.0, b=1.0, well=well)
    rng = np.random.default_rng(1234)
    pts = D.boundary_project(rng.standard_normal((10_000, 4)))
    margins = D.transversality_margin(pts)
    near = int(np.sum(margins < 1e-6))
    ok = float(np.min(margins)) >= -1e-9 and near >= 1
    with capsys.disabled():
        _report(6, ok, f"10^4 boundary points: min margin {np.min(margins):.2e} "
                f"(>= -1e-9), {near} points in the equality regime",
                time.monotonic() - t0, 30.0)


def test_criterion_07_sandwich_audit_clean(worked_hamiltonian, capsys):
    t0 = time.monotonic()
    cert = sandwich_solve(worked_hamiltonian)
    report = containment_audit(worked_hamiltonian, cert, samples=100_000,
                               seed=5)
    ok = report.violations == 0
    with capsys.disabled():
        _report(7, ok, f"10^5 rejection samples, {report.violations} containment "
                f"violations (inner {report.samples_inner}, star "
                f"{report.samples_outer})", time.monotonic() - t0, 60.0)


def test_criterion_08_smoothing_contract(capsys):
    t0 = time.monotonic()
    code = main(["smoothing-audit", "--seed", "31"])
    out = capsys.readouterr().out
    res = json.loads(out)["result"]
    checks = res["checks"]
    idd = float(checks["identity_ball_max_move"])
    agr = float(checks["agreement_max_diff"])
    dft = float(checks["symplecticity_defect"])
    ok = code == 0 and idd < 1e-9 and agr < 1e-6 and dft < 1e-6
    elapsed = time.monotonic() - t0
    with capsys.disabled():
        _report(8, ok, f"identity ball move {idd:.1e} (tol 1e-9), lift "
                    f"agreement {agr:.1e} (tol 1e-6), symplecticity defect "
                    f"{dft:.1e} (tol 1e-6)", elapsed, 60.0)


def test_criterion_09_contact_identities(capsys):
    t0 = time.monotonic()
    rng = np.random.default_rng(99)
    n = 2
    worst_alpha = worst_lie = 0.0
    for trial in range(5):
        K = random_hamiltonian(n=n, k=1, seed=1000 + trial)
        iso = ContactIsotopy(K, step=1e-4)
        th = _norm_rows(rng.standard_normal((20, 2 * n)))
        Y = contact_vector_field(K, th)
        alp = 0.5 * symplectic_pairing(th, Y)
        worst_alpha = max(worst_alpha, float(np.max(np.abs(alp - K(th)))))
        h, d = 1e-4, 1e-5
        R = reeb_field(th)
        tang = rng.standard_normal(th.shape)
        tang -= th * np.sum(tang * th, axis=1, keepdims=True)
        for v in (R, tang):
            def pairing_at(tt):
                plus, _ = iso.flow_many(_norm_rows(th + d * v), 0.0, tt)
                minus, _ = iso.flow_many(_norm_rows(th - d * v), 0.0, tt)
                base, _ = iso.flow_many(th, 0.0, tt)
                dv = (plus - minus) / (2.0 * d)
                return 0.5 * symplectic_pairing(base, dv)

            lie_fd = (pairing_at(h) - pairing_at(-h)) / (2.0 * h)
            rhs = reeb_derivative(K, th) * (0.5 * symplectic_pairing(th, v))
            worst_lie = max(worst_lie, float(np.max(np.abs(lie_fd - rhs))))
    ok = worst_alpha < 2e-4 and worst_lie < 2e-4
    with capsys.disabled():
        _report(9, ok, f"form-on-field identity err {worst_alpha:.1e}, "
                f"Lie-derivative identity err {worst_lie:.1e} (tol 2e-4, "
                f"100 points x 5 generators)", time.monotonic() - t0, 30.0)


def test_criterion_10_contraction_dominates_bump(capsys):
    t0 = time.monotonic()
    H = radial_step_bump(2.0, 3.0)
    w = liouville_squeeze_witness(H, 2.0, 3.0)
    ok = (abs(w.scale - 4.0 / 9.0) < 1e-12 and w.grid_points >= 10_000
          and w.violations == 0)
    with capsys.disabled():
        _report(10, ok, f"contracted bump <= {w.scale:.12f} * bump on "
                f"{w.grid_points} grid points, {w.violations} violations, "
                f"max excess {w.max_excess:.1e}", time.monotonic() - t0, 30.0)


def _triangle_slacks(value, combine):
    """Extended-real triangle check: a triple whose right-hand side is
    infinite is vacuously satisfied; a finite right-hand side below an
    infinite left-hand side is a genuine violation."""

    def slack(ids):
        a, b, c = ids
        rhs = combine(value(a, b), value(b, c))
        if math.isinf(rhs):
            return None
        lhs = value(a, c)
        return math.inf if math.isinf(lhs) else lhs - rhs

    return slack


def test_criterion_11_metric_suite(capsys):
    t0 = time.monotonic()
    fam = scaling_family(scales=(1.0, 2.0, 4.0), n=2, k=1, seed=0)
    d12 = pseudo_distance(fam, "f", "2f")
    d24 = pseudo_distance(fam, "2f", "4f")
    d14 = pseudo_distance(fam, "f", "4f")
    err = max(abs(d12.hi - math.log(2)), abs(d12.lo - math.log(2)),
              abs(d24.hi - math.log(2)), abs(d24.lo - math.log(2)),
              abs(d14.hi - math.log(4)), abs(d14.lo - math.log(4)))
    ok = err < 1e-9

    # Triangle inequalities at the hi level, in extended reals: compactly
    # supported elements with non-nested supports legitimately report an
    # infinite (unwitnessed) bound, and those triples are vacuous.  The
    # scaling family is finite throughout, so the additive check is
    # substantive there; the random family exercises the multiplicative
    # level on every support-nested chain.
    worst = -math.inf
    substantive = 0
    families = [fam, random_family(count=5, n=2, k=1, seed=3)]
    for family in families:
        ids = list(family.elements)
        Dm = equivalence_and_order(family).distances
        # the closed growth matrix the report's distances are built on
        G = _closed_hi_matrix({(a, b): relative_growth_bounds(family, a, b).hi
                               for a in ids for b in ids})

        def dh(a, b):
            return Dm[(a, b)].hi if (a, b) in Dm else Dm[(b, a)].hi

        mul = _triangle_slacks(lambda a, b: G[(a, b)], lambda x, y: x * y)
        add = _triangle_slacks(dh, lambda x, y: x + y)
        for trip in itertools.permutations(ids, 3):
            for check in (mul, add):
                s = check(trip)
                if s is not None:
                    substantive += 1
                    worst = max(worst, s)
    ok &= worst <= 1e-12 and substantive >= 20

    rfam = families[1]
    rids = list(rfam.elements)
    dw_ok = all(dw_bound_check(rfam, i, j, pseudo_distance(rfam, i, j))["ok"]
                for i in rids for j in rids if i < j)
    ok &= dw_ok

    # The multiplicative triangles above read the closed growth matrix,
    # which holds them by construction.  submultiplicativity_check instead
    # composes the two best witnesses of a chain f -> g -> h and measures
    # the composed map on the grid against the product of their ratios.
    links = {pair: relative_growth_bounds(rfam, *pair).witnesses
             for pair in itertools.permutations(rids, 2)}
    composed = [submultiplicativity_check(rfam, f, g, h)
                for f, g, h in itertools.permutations(rids, 3)
                if links[(f, g)] and links[(g, h)]]
    composed_ok = sum(c.ok for c in composed)
    ok &= bool(composed) and composed_ok == len(composed)
    with capsys.disabled():
        _report(11, ok, f"scaling distances off log(s) by {err:.1e} (tol 1e-9); "
                f"worst triangle slack {worst:.1e} over {substantive} "
                f"substantive triples; capacity-vs-distance bound "
                f"{'holds' if dw_ok else 'fails'} on all pairs; "
                f"{composed_ok}/{len(composed)} composed witnesses within "
                f"the product of their links",
                time.monotonic() - t0, 120.0)


def test_criterion_12_nonsqueezing_sweep(capsys):
    t0 = time.monotonic()
    V = Hyperboloid(n=2, k=1, a=1.0, b=1.0)
    cands = candidate_pool(n=2, k=1, count=5, seed=11)
    rep = nonsqueezing_verdict(V, 1.5, cands, samples=10_000, seed=11)
    escapes = sum(c.escapes for c in rep.candidates)
    th = rep.theoretical
    ok = (rep.verdict == "IMPOSSIBLE" and escapes == 5
          and th["s2w_lo"] > th["w_hi"])
    with capsys.disabled():
        _report(12, ok, f"all {escapes}/5 candidates exhibit escape witnesses; "
                f"scaled capacity {th['s2w_lo']:.4f} exceeds w = {th['w_hi']:.4f}",
                time.monotonic() - t0, 60.0)
