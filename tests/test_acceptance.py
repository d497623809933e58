"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Budgets and tolerances are pinned here; every random quantity is seeded, so
the whole module is a deterministic function of the codebase.
"""

import math
import subprocess
import sys
import time

import numpy as np

from schattenlab.ensembles import EnsembleParams, SchattenSpec
from schattenlab import moments as mo
from schattenlab import samplers as sp
from schattenlab import verify as vf
from schattenlab.util import batch_means_cov


def _line(tag, ok, elapsed, detail=""):
    print(f"{tag} {'PASS' if ok else 'FAIL'} ({elapsed:.1f}s) {detail}")


def test_a1_entry_identities():
    t0 = time.perf_counter()
    rep = vf.check_entry_identities(per_field=1000, n_range=(2, 8), tol=1e-9, seed=101)
    elapsed = time.perf_counter() - t0
    ok = rep.passed and elapsed < 10.0
    _line("A1", ok, elapsed, f"worst rel residual {rep.lhs:.2e} over {rep.details['matrices']} matrices")
    assert rep.passed, rep
    assert elapsed < 10.0


def test_a2_identity_suite():
    t0 = time.perf_counter()
    reports = []
    for abc in ((2, 1, 0), (2, 2, 1), (2, 4, 3), (2, 1, 1), (2, 2, 0), (2, 2, 2)):
        for n in (2, 3):
            params = EnsembleParams(*abc, n)
            for p in (1.0, 2.0, 4.0):
                reports.extend(vf.identity_suite_for(params, p, tol=1e-5))
    # integration by parts, including an odd-a family and the n=1 reduction
    reports.append(vf.check_int_by_parts(EnsembleParams(2, 1, 0, 2), 2.0, xi=2, f_id="one"))
    reports.append(vf.check_int_by_parts(EnsembleParams(2, 2, 1, 3), 2.0, xi=2, f_id="one"))
    reports.append(vf.check_int_by_parts(EnsembleParams(2, 1, 0, 2), 2.0, xi=2, f_id="norm2_sq"))
    reports.append(vf.check_int_by_parts(EnsembleParams(2, 2, 1, 2), 4.0, xi=4, f_id="one"))
    reports.append(vf.check_int_by_parts(EnsembleParams(1, 2, 0, 2), 2.0, xi=2, f_id="one"))
    reports.append(vf.check_int_by_parts(EnsembleParams(1, 1, 0, 1), 2.0, xi=2, f_id="one"))
    # homogeneous-moment closed form
    for p in (1.0, 2.0, 4.0):
        for l in (2.0, p, p + 2.0):
            reports.append(vf.check_homogeneous_moment(EnsembleParams(2, 2, 1, 2), p, l))
    elapsed = time.perf_counter() - t0
    bad = [r for r in reports if not r.passed]
    ok = not bad and elapsed < 300.0
    _line("A2", ok, elapsed, f"{len(reports)} identity checks, {len(bad)} failures")
    for r in bad:
        print("  failed:", r.claim_id, r.lhs, r.rhs)
    assert not bad
    assert elapsed < 300.0


def test_a3_sigma_ground_truth():
    t0 = time.perf_counter()
    est_r = mo.sigma_pipeline(SchattenSpec("R", "Full", 2, 2.0), budget=100_000, seed=103)
    est_c = mo.sigma_pipeline(SchattenSpec("C", "Full", 2, 2.0), budget=100_000, seed=104)
    elapsed = time.perf_counter() - t0
    ok_r = abs(est_r.sigma_sq - 0.5) <= 0.05
    ok_c = abs(est_c.sigma_sq - 1.0 / 3.0) <= 1.0 / 30.0
    ok = ok_r and ok_c and elapsed < 60.0
    _line("A3", ok, elapsed,
          f"sigma^2(R,n=2)={est_r.sigma_sq:.4f} (target 0.5), sigma^2(C,n=2)={est_c.sigma_sq:.4f} (target 1/3)")
    assert ok_r and ok_c
    assert elapsed < 60.0


def _moment_panel(points):
    """First four coordinate-symmetrized moments of x1^2, plus ||x||_2^2."""
    v = np.sum(points**2, axis=1)
    cols = [np.mean(points**2, axis=1), np.mean(points**4, axis=1),
            np.mean(points**6, axis=1), np.mean(points**8, axis=1), v]
    return np.stack(cols, axis=1)


def test_a4_sampler_cross_validation():
    t0 = time.perf_counter()
    failures = []
    rows = []
    for abc in ((2, 1, 0), (2, 2, 1)):
        for n in (4, 8):
            params = EnsembleParams(*abc, n)
            exact = sp.exact_p2_sample(params, 150_000, seed=105)
            chain = sp.mcmc_sample(params, 2.0, n_chains=4, n_samples=100_000, seed=106)
            me, ce, _ = batch_means_cov(_moment_panel(exact.points))
            mm, cm, _ = batch_means_cov(_moment_panel(chain.points))
            for k, name in enumerate(["x1^2", "x1^4", "x1^6", "x1^8", "norm^2"]):
                se = math.sqrt(ce[k, k] + cm[k, k])
                z = (me[k] - mm[k]) / se
                if abs(z) > 3.0:
                    failures.append((abc, n, name, z))
            d2 = params.d / 2.0
            for label, mean, cov in (("exact", me, ce), ("mcmc", mm, cm)):
                z = (mean[4] - d2) / math.sqrt(cov[4, 4])
                if abs(z) > 3.0:
                    failures.append((abc, n, f"{label} norm^2 vs d/2", z))
            rows.append((abc, n))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 120.0
    _line("A4", ok, elapsed, f"{len(rows)} configs x 5 moments + closed form; failures: {failures}")
    assert not failures
    assert elapsed < 120.0


def test_a5_thinshell_infinite_p():
    t0 = time.perf_counter()
    rep1 = vf.check_thinshell_large_p(1, n_grid=(8, 16))
    rep2 = vf.check_thinshell_large_p(2, n_grid=(8, 16))
    elapsed = time.perf_counter() - t0
    ok = rep1.passed and rep2.passed and elapsed < 1200.0
    det = {b: [(e["n"], round(e["var"], 4)) for e in rep.details["estimates"]]
           for b, rep in ((1, rep1), (2, rep2))}
    _line("A5", ok, elapsed, f"var estimates {det}; targets 1/8 and 1/16")
    assert rep1.passed, rep1
    assert rep2.passed, rep2
    assert elapsed < 1200.0


def test_a6_negative_correlation():
    t0 = time.perf_counter()
    gas_reports = [
        vf.check_cross_term_negative(1, 0, 4),
        vf.check_cross_term_negative(1, 0, 8),
        vf.check_cross_term_negative(2, 1, 4),
        vf.check_cross_term_negative(2, 1, 8),
    ]
    entry_inf = vf.check_entry_correlations("R", math.inf, n=4, budget=40_000, seed=113)
    entry_p2 = vf.check_entry_correlations("R", 2.0, n=4, budget=100_000, seed=114)
    elapsed = time.perf_counter() - t0
    bad = [r.claim_id for r in gas_reports + [entry_inf, entry_p2] if not r.passed]
    ok = not bad and elapsed < 900.0
    _line("A6", ok, elapsed,
          f"exact gas gaps {[round(r.lhs, 5) for r in gas_reports]}, "
          f"entry inequality z={entry_inf.details['neg_corr_z']:.1f}, "
          f"p=2 quartic z={entry_p2.details['quartic_z']:.2f}")
    assert not bad, bad
    assert elapsed < 900.0


def test_a7_quartic_ratio():
    t0 = time.perf_counter()
    rep_p2 = [
        vf.check_neg_correlation_threshold(1, 0, 2.0, n_grid=(16,), budget=200_000, seed=115),
        vf.check_neg_correlation_threshold(2, 1, 2.0, n_grid=(16,), budget=200_000, seed=116),
    ]
    rep_p1 = vf.check_neg_correlation_threshold(1, 0, 1.0, n_grid=(16,), budget=150_000, seed=117)
    elapsed = time.perf_counter() - t0
    ok = all(r.passed for r in rep_p2) and rep_p1.passed and elapsed < 600.0
    r1 = rep_p1.details["grid"][0]
    _line("A7", ok, elapsed,
          f"p=2 ratios {[round(r.details['grid'][0]['ratio'], 3) for r in rep_p2]} (target 2 +/- 10%); "
          f"p=1 ratio {r1['ratio']:.3f} vs lower reference 17/8 "
          f"(two-sided 20% band position: {r1['within_two_sided_20pct']})")
    for r in rep_p2:
        assert r.passed, r
    assert rep_p1.passed, rep_p1
    assert elapsed < 600.0


def test_a8_hermitian_split():
    t0 = time.perf_counter()
    reports = []
    for n in (2, 3):
        for p in (2.0, math.inf):
            for xi in (2, 4):
                reports.append(vf.check_hermitian_split(n, p, xi=xi, tol=1e-4))
    elapsed = time.perf_counter() - t0
    bad = [r.claim_id for r in reports if not r.passed]
    ok = not bad and elapsed < 300.0
    _line("A8", ok, elapsed, f"{len(reports)} split identities, failures: {bad}")
    assert not bad, bad
    assert elapsed < 300.0


def test_a9_gamma_estimates():
    t0 = time.perf_counter()
    reports = [vf.check_gamma_gap_positive(), vf.check_gamma_sandwich(),
               vf.check_gamma_discrepancy()]
    elapsed = time.perf_counter() - t0
    ok = all(r.passed for r in reports) and elapsed < 10.0
    _line("A9", ok, elapsed,
          f"gap>0: {reports[0].passed}, sandwich range [{reports[1].lhs:.3g}, {reports[1].rhs:.3g}], "
          f"approximant worst {reports[2].lhs:.3g} (cap {reports[2].rhs:g})")
    for r in reports:
        assert r.passed, r
    assert elapsed < 10.0


def test_a10_orders_of_magnitude():
    t0 = time.perf_counter()
    rep = vf.check_orders_of_magnitude(
        ensembles=((2, 1, 0), (2, 2, 1)),
        n_grid=(2, 4, 8, 16),
        p_grid=(1.0, 2.0, 8.0, math.inf),
        budget=30_000,
        seed=118,
    )
    elapsed = time.perf_counter() - t0
    bad = [g for g in rep.details["grid"] if not g["passed"]]
    _line("A10", rep.passed and elapsed < 900.0, elapsed,
          f"normalized ratio range [{rep.lhs:.3g}, {rep.rhs:.3g}] vs band [0.05, 20]; "
          f"{len(bad)} grid cells outside")
    for g in bad:
        print(f"  outside band: {g['ensemble']} n={g['n']} p={g['p']} "
              f"x1^2:{g['coord_sq_order']:.3g} x1^4:{g['quartic_order']:.3g} "
              f"var:{g['var_order']:.3g}")
    if bad:
        print(
            "  note: the fourth-moment and variance constants at p=1 for the "
            "(2,2,1) family sit near 95-120; the deterministic quadrature "
            "oracle confirms M_1(x1^4)/M_1(1) / n^4 = 117.86 at n=2 and "
            "117.32 at n=3, so the [1/20, 20] band cannot hold there."
        )
    assert rep.passed, "orders-of-magnitude band violated; see printed cells"
    assert elapsed < 900.0


def test_a11_isotropic_constant():
    t0 = time.perf_counter()
    rep = vf.check_isotropic_constant_limit("R", 16, budget=60_000, seed=119)
    elapsed = time.perf_counter() - t0
    ok = rep.passed and elapsed < 300.0
    _line("A11", ok, elapsed,
          f"exact L_n/L_inf = {rep.details['l_ratio']:.5f} (tolerance 15%); "
          f"draws' mean ||T||^2 = {rep.lhs:.4f} vs exact {rep.rhs:.4f}, "
          f"z = {rep.details['z']:.2f}")
    assert rep.passed, rep
    assert elapsed < 300.0


def test_a12_reproducibility(tmp_path):
    t0 = time.perf_counter()
    # library-level replay
    params = EnsembleParams(2, 2, 1, 3)
    a = sp.mcmc_sample(params, math.inf, n_chains=2, n_samples=3000, seed=120)
    b = sp.mcmc_sample(params, math.inf, n_chains=2, n_samples=3000, seed=120)
    lib_ok = np.array_equal(a.points, b.points)
    rep_a = vf.check_isotropic_constant_limit("R", 4, budget=8000, seed=121)
    rep_b = vf.check_isotropic_constant_limit("R", 4, budget=8000, seed=121)
    rep_ok = rep_a.to_record() == rep_b.to_record()
    # CLI-level replay: identical data records, header timestamp aside
    outs = []
    for name in ("r1.jsonl", "r2.jsonl"):
        path = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "schattenlab.cli", "verify", "--suite", "gamma",
             "--seed", "7", "--out", str(path)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        with open(path, encoding="utf-8") as fh:
            outs.append([ln for ln in fh.read().splitlines()
                         if '"record": "header"' not in ln])
    cli_ok = outs[0] == outs[1] and len(outs[0]) == 3
    elapsed = time.perf_counter() - t0
    ok = lib_ok and rep_ok and cli_ok
    _line("A12", ok, elapsed,
          f"sampler replay: {lib_ok}, check replay: {rep_ok}, cli replay: {cli_ok}")
    assert ok
