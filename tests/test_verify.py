import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from schattenlab.ensembles import BETA, EnsembleParams, SchattenSpec
from schattenlab import cli
from schattenlab import matrixlab as ml
from schattenlab import moments as mo
from schattenlab import samplers as sp
from schattenlab import verify as vf


def test_identity_suite_quadrature():
    for reports in (
        vf.identity_suite_for(EnsembleParams(2, 1, 0, 2), 2.0),
        vf.identity_suite_for(EnsembleParams(2, 1, 1, 2), 2.0),
        vf.identity_suite_for(EnsembleParams(2, 2, 1, 2), 1.0),
    ):
        for rep in reports:
            assert rep.passed, rep
            assert 0.0 <= rep.details["oracle_error_bound"] <= rep.tolerance


def test_identity_lhs_coefficient_example():
    # (2,1,0), n=2, p=2: the degree-2 identity carries coefficient 5
    rep = vf.identity_suite_for(EnsembleParams(2, 1, 0, 2), 2.0)[0]
    params = EnsembleParams(2, 1, 0, 2)
    assert (2 * params.d + 2) / 2 == 5.0
    assert rep.passed


def test_identity_requires_even_a_and_finite_p():
    with pytest.raises(ValueError):
        vf.identity_suite_for(EnsembleParams(1, 2, 0, mo.ORACLE_MAX_N + 1), 2.0)
    with pytest.raises(ValueError):
        vf.identity_suite_for(EnsembleParams(2, 1, 0, 2), math.inf)
    with pytest.raises(ValueError):
        vf.identity_suite_for(EnsembleParams(1, 2, 0, 2), 2.0)
    with pytest.raises(ValueError):
        vf.identity_suite_for(EnsembleParams(2, 1, 0, 3), math.inf)


def test_identity_mc_route():
    # past the oracle the identities are checked on shared gas draws, and replay
    params = EnsembleParams(2, 1, 0, mo.ORACLE_MAX_N + 1)
    reports = vf.identity_suite_for(params, 2.0, budget=60_000, seed=3)
    assert reports == vf.identity_suite_for(params, 2.0, budget=60_000, seed=3)
    for rep in reports:
        assert rep.method == "mc"
        assert rep.passed, rep


def test_mc_relation_with_a_zero_error_bar_fails():
    # lhs - rhs is 1 on every draw: the batch means do not vary, so the error
    # bar is 0 and the difference must read as infinitely many of them
    rep = vf._mc_relation_report("x", [(1.0, mo.one())], [], np.zeros((1000, 2)))
    assert rep.lhs == 1.0 and rep.tolerance == 0.0
    assert rep.details["z"] == math.inf
    assert not rep.passed
    assert vf._z(-2.0, 0.0) == -math.inf
    assert vf._z(0.0, 0.0) == 0.0


# Three draws are too few for a batch-means error bar (it is inf below 4), so
# each Monte Carlo verdict must fail whatever its estimate reads.
_THREE_DRAW_CHECKS = {
    "mc-relation": lambda: vf.identity_suite_for(EnsembleParams(2, 1, 0, mo.ORACLE_MAX_N + 1),
                                                 2.0, budget=3),
    "sigma-band": lambda: [vf.check_sigma_band_hit_and_run(budget=3)],
    "antisym-normalization": lambda: [vf.check_antisym_normalization(4, 3.0, budget=3)],
    "entry-correlations-p2": lambda: [vf.check_entry_correlations("R", 2.0, n=4, budget=3)],
    "quartic-ratio-p1": lambda: [vf.check_neg_correlation_threshold(1, 0, 1.0, n_grid=(16,),
                                                                    budget=3)],
    "isotropic-constant": lambda: [vf.check_isotropic_constant_limit("R", 16, budget=3)],
}


@pytest.mark.parametrize("name", list(_THREE_DRAW_CHECKS))
def test_mc_checks_without_an_error_bar_fail(name):
    assert math.isnan(vf._z(1.0, math.inf))
    for rep in _THREE_DRAW_CHECKS[name]():
        assert not rep.passed, rep


def test_int_by_parts_cases():
    assert vf.check_int_by_parts(EnsembleParams(2, 1, 0, 2), 2.0, xi=2, f_id="one").passed
    assert vf.check_int_by_parts(EnsembleParams(1, 2, 0, 2), 2.0, xi=2, f_id="one").passed
    assert vf.check_int_by_parts(EnsembleParams(2, 2, 1, 2), 2.0, xi=2,
                                 f_id="norm2_sq").passed
    # degenerate n=1: reduces to the Gamma recurrence
    assert vf.check_int_by_parts(EnsembleParams(1, 1, 0, 1), 2.0, xi=2, f_id="one").passed


def test_zeta_bounds():
    rep = vf.check_zeta_bounds(2, 2, trials=50_000, seed=1)
    assert rep.passed
    # a = xi = 2 collapses the envelope to equality
    assert rep.lhs == pytest.approx(1.0, abs=1e-9)
    assert rep.rhs == pytest.approx(1.0, abs=1e-9)
    assert vf.check_zeta_bounds(2, 4, trials=50_000, seed=2).passed
    assert vf.check_zeta_bounds(1, 2, trials=50_000, seed=3).passed


def test_holder_band():
    assert vf.check_holder_band(trials=20_000, seed=4).passed


def test_gamma_checks():
    assert vf.check_gamma_gap_positive().passed
    assert vf.check_gamma_sandwich().passed
    assert vf.check_gamma_discrepancy().passed


def test_entry_identities_check():
    rep = vf.check_entry_identities(per_field=60, seed=5)
    assert rep.passed
    assert rep.lhs <= 1e-9


def test_hermitian_split_examples():
    assert vf.check_hermitian_split(2, 2.0, xi=2).passed
    assert vf.check_hermitian_split(3, 2.0, xi=2).passed
    assert vf.check_hermitian_split(2, math.inf, xi=4).passed


def test_cross_term_negative_small():
    rep = vf.check_cross_term_negative(1, 0, 4)
    assert rep.passed
    assert rep.details["z"] < -3.0
    # the exact gap E x1^2 x2^2 - (E x1^2)^2 of (2,1,0) at n=4 and p=inf
    assert rep.lhs == -5 / 162
    assert (rep.method, rep.provenance, rep.tolerance) == ("exact", "selberg-averages", 0.0)


def test_neg_correlation_p2():
    rep = vf.check_neg_correlation_threshold(1, 0, 2.0, n_grid=(16,), budget=60_000, seed=7)
    assert rep.passed
    r = rep.details["grid"][0]["ratio"]
    assert abs(r - 2.0) < 0.2
    # (2,1,0) at p=2 reads the Gaussian closed forms: E x1^4 / (E x1^2)^2 = 33/16 at n=16
    assert (r, rep.tolerance, rep.method, rep.provenance) == (
        2.0625, 0.0, "exact", "gaussian-closed-form")
    # only p in {1, 2, inf} carry a reference; any other p must not pass silently
    with pytest.raises(ValueError):
        vf.check_neg_correlation_threshold(1, 0, 3.0)


def test_antisym_normalization_small():
    # p=inf takes the max-norm comparison and the Gamma factor 1
    for n, p in ((4, 3.0), (4, math.inf), (5, math.inf)):
        rep = vf.check_antisym_normalization(n, p, budget=6000, seed=8)
        assert rep.details["pair_worst"] <= 1e-10
        assert rep.details["norm_worst"] <= 1e-10
        assert rep.passed, rep
        assert (rep.details["gamma_factor"] == 1.0) == math.isinf(p)


def test_entry_correlations_p2():
    rep = vf.check_entry_correlations("R", 2.0, n=4, budget=30_000, seed=9)
    assert rep.passed
    assert abs(rep.details["quartic_z"]) <= 3.0


@pytest.mark.parametrize("field", ["R", "C", "H"])
def test_entry_statistics_match_single_matrix_terms(field):
    n = 3
    spec = SchattenSpec(field, "Full", n, 2.0)
    coords = np.random.default_rng(28).standard_normal((6, spec.dim))
    m2, row, col, diag_cross, quart, _ = vf._entry_statistics(spec, coords)
    for k, e in enumerate(ml.coords_to_entries(spec, coords)):
        mat = ml.MatrixSample(field, e)
        t = ml.entry_identity_terms(mat)
        assert m2[k] == pytest.approx(ml.abs_sq(field, e).sum() / (n * n), rel=1e-12)
        assert row[k] + col[k] == pytest.approx(t.row_col_cross / (n * n * (n - 1)), rel=1e-12)
        assert diag_cross[k] == pytest.approx(t.pair_cross / (n * n * (n - 1) ** 2), rel=1e-12)
        assert quart[k] == pytest.approx(t.quartic_cross / (n * n * (n - 1) ** 2),
                                         rel=1e-12, abs=1e-12 * t.lhs4)


@pytest.mark.parametrize("field", ["R", "C", "H"])
def test_entry_statistics_blocks_match_one_batch(field, monkeypatch):
    # n = 4 is the size check_entry_correlations runs at
    block = vf._ENTRY_BLOCK
    sizes = (1, block - 1, block, block + 1, 2 * block + 3)
    for n in (3, 4):
        spec = SchattenSpec(field, "Full", n, 2.0)
        coords = np.random.default_rng(29).standard_normal((max(sizes), spec.dim))
        monkeypatch.setattr(vf, "_ENTRY_BLOCK", block)
        blocked = {m: vf._entry_statistics(spec, coords[:m]) for m in sizes}
        monkeypatch.setattr(vf, "_ENTRY_BLOCK", max(sizes) + 1)
        for m in sizes:
            whole = vf._entry_statistics(spec, coords[:m])
            assert all(np.array_equal(a, b) for a, b in zip(blocked[m], whole, strict=True))


def test_entry_correlations_memory_does_not_grow_with_budget():
    # 100k draws of Full R, n=4 are 12.8 MB; with the statistics in blocks
    # the call traced 27 MB at peak, with all draws in one batch 97 MB
    tracemalloc.start()
    try:
        vf.check_entry_correlations("R", 2.0, n=4, budget=100_000, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6


def test_isotropic_constant():
    for field in ("R", "C", "H"):
        rep = vf.check_isotropic_constant_limit(field, 16, budget=30_000, seed=10)
        assert rep.passed, rep
        assert rep.details["l_inf"] == pytest.approx(1.0 / math.sqrt(math.pi * math.exp(1.5)),
                                                     rel=1e-12)


def test_isotropic_constant_is_exact(monkeypatch):
    # the exact part of A11 needs no draws: stub them out with 4 zero points
    monkeypatch.setattr(vf.sp, "gas_sample", lambda params, p, budget, seed, **kwargs:
                        sp.SampleBatch(np.zeros((4, params.n))))

    def exact(field, n):
        return vf.check_isotropic_constant_limit(field, n, budget=4)

    # n = 1: the interval [-1, 1] and the unit disc
    assert exact("R", 1).details["l_n"] == pytest.approx(1 / math.sqrt(12), abs=1e-15)
    assert exact("C", 1).details["l_n"] == pytest.approx(1 / math.sqrt(4 * math.pi), abs=1e-15)
    ratios = {("R", 16): 1.00629, ("R", 64): 1.00154, ("R", 1024): 1.00009,
              ("C", 16): 1.00066,
              ("H", 4): 0.99375, ("H", 16): 0.99741, ("H", 1024): 0.99995}
    for (field, n), ratio in ratios.items():
        rep = exact(field, n)
        assert rep.details["l_ratio"] == pytest.approx(ratio, abs=1e-5)
        beta = BETA[field]
        assert rep.rhs == pytest.approx(n * n * beta / (2 + (2 * n - 1) * beta), rel=1e-15)
    # (the n -> inf radius 0.5 sqrt(2 pi e^{3/2} / n) reads 0.663317 there, 2.2% above)
    assert exact("R", 16).details["vol_radius"] == pytest.approx(0.649103, abs=1e-6)


def test_isotropic_constant_fails_for_the_wrong_family(monkeypatch):
    # planted fault: R's check fed the complex Full family's singular values
    orig = sp.gas_sample

    def complex_draws(params, p, budget, seed, **kwargs):
        return orig(EnsembleParams(2, 2, 1, params.n), p, budget, seed, **kwargs)

    monkeypatch.setattr(vf.sp, "gas_sample", complex_draws)
    rep = vf.check_isotropic_constant_limit("R", 16, budget=10_000, seed=10)
    assert not rep.passed
    assert abs(rep.details["z"]) > 3.0
    assert abs(rep.details["l_ratio"] - 1.0) <= rep.details["rel_tol"]


def test_sigma_band_hit_and_run_meets_the_exact_value():
    # the thinshell suite's call at seed 0
    rep = vf.check_sigma_band_hit_and_run(budget=20_000, seed=2)
    assert rep.passed
    assert rep.rhs == rep.details["reference"] == pytest.approx(25.0 / 44.0, rel=1e-15)
    assert abs(rep.details["z"]) <= 3.0


def test_sigma_band_hit_and_run_catches_a_wrong_law(monkeypatch):
    # Frobenius-ball draws in place of the operator-norm walk: sigma^2 near
    # 4/(D+4) = 0.2 lies inside the band [0.01, 10] but far from 25/44
    def frobenius_walk(spec, n_samples, seed=0, **_):
        return sp.exact_p2_matrix_sample(dataclasses.replace(spec, p=2.0), n_samples, seed=seed)

    monkeypatch.setattr(sp, "matrix_hit_and_run", frobenius_walk)
    rep = vf.check_sigma_band_hit_and_run(budget=20_000, seed=2)
    lo, hi = rep.details["band"]
    assert lo <= rep.lhs <= hi
    assert rep.details["z"] < -3.0
    assert not rep.passed


def test_reports_are_reproducible(capsys):
    # compared as `schattenlab verify` writes them, where a NaN reads "nan"
    a = vf.check_isotropic_constant_limit("R", 4, budget=5000, seed=12)
    b = vf.check_isotropic_constant_limit("R", 4, budget=5000, seed=12)
    writer = cli._Writer(cli.build_parser().parse_args(["verify"]))
    writer.record(a, record="check")
    writer.record(b, record="check")
    _, rec_a, rec_b = capsys.readouterr().out.splitlines()
    assert rec_a == rec_b


def test_run_suite_unknown():
    with pytest.raises(KeyError):
        vf.run_suite("bogus")


def test_run_suite_needs_a_finite_positive_scale_and_tol():
    # an infinite scale would overflow int(1000 * scale), and a negative one
    # would run the floor budgets in silence
    for bad in (math.inf, -1.0, math.nan, 0.0):
        with pytest.raises(ValueError, match="finite numbers > 0"):
            vf.run_suite("entries", budget_scale=bad)
        with pytest.raises(ValueError, match="finite numbers > 0"):
            vf.run_suite("identities", tol=bad)


@pytest.mark.parametrize("name", list(vf.SUITES))
def test_every_suite_runs_with_distinct_passing_claims(name):
    # orders-of-magnitude carries A10's red cells; its verdict is A10's
    reports = vf.run_suite(name, budget_scale=0.01, seed=0)
    ids = [r.claim_id for r in reports]
    assert reports and len(set(ids)) == len(ids)
    assert all(r.passed for r in reports if r.claim_id != "orders-of-magnitude"), [
        r.claim_id for r in reports if not r.passed]


def test_run_suite_all_runs_every_suite_in_order(monkeypatch):
    stubs = {name: lambda scale, seed, name=name: [(name, scale, seed)] for name in vf.SUITES}
    monkeypatch.setattr(vf, "SUITES", stubs)
    assert vf.run_suite("all", budget_scale=0.5, seed=3) == [
        (name, 0.5, 3)
        for name in ("identities", "gamma", "entries", "negcorr", "thinshell", "hermitian-split")]


def test_suite_gamma():
    reports = vf.run_suite("gamma")
    assert len(reports) == 3
    assert all(r.passed for r in reports)
