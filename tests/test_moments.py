import math
from fractions import Fraction

import numpy as np
import pytest

from schattenlab.ensembles import BETA, EnsembleParams, SchattenSpec, ensemble_of
from schattenlab import moments as mo
from schattenlab import samplers as sp


def test_quadrature_one_dim_gaussian():
    est = mo.quadrature_moment(EnsembleParams(1, 1, 0, 1), 2.0, "x1_sq")
    assert est.value == pytest.approx(0.5, abs=1e-10)
    assert est.method == "quadrature"
    assert est.std_err <= 1e-8


def test_quadrature_normalization_sanity():
    est = mo.quadrature_moment(EnsembleParams(2, 1, 0, 2), math.inf, "one")
    assert est.value == pytest.approx(1.0, abs=1e-12)


def test_quadrature_norm_moment_closed_form():
    est = mo.quadrature_moment(EnsembleParams(2, 2, 1, 2), 2.0, "norm2_sq")
    assert est.value == pytest.approx(4.0, abs=1e-8)


def test_quadrature_p_norm_exact_degree():
    # M(||x||_p^p)/M(1) = d/p for every family
    for params, p in [
        (EnsembleParams(2, 1, 0, 3), 1.0),
        (EnsembleParams(2, 4, 3, 2), 4.0),
        (EnsembleParams(1, 2, 0, 3), 2.0),
    ]:
        est = mo.quadrature_moment(params, p, mo.abs_pow_sum(p))
        assert est.value == pytest.approx(params.d / p, rel=1e-8)


_REGISTERED = ("x1_sq", "x1_pow4", "x1sq_x2sq", "norm2_sq", "norm2_4", "norm4_4",
               "normpow:4", "norm2_sq*normpow:4")


@pytest.mark.parametrize("abc", [(2, 1, 0), (2, 2, 1), (2, 1, 1)])
def test_quadrature_matches_exact_sampler(abc):
    params = EnsembleParams(*abc, 2)
    batch = sp.exact_p2_sample(params, 60_000, seed=31)
    for fid in _REGISTERED:
        q = mo.quadrature_moment(params, 2.0, fid)
        m = mo.estimate_moment(batch, fid)
        assert abs(q.value - m.value) <= 3.0 * m.std_err + q.std_err, fid


def test_quadrature_rejects_large_n_and_odd_cases():
    with pytest.raises(ValueError):
        mo.quadrature_moment(EnsembleParams(2, 1, 0, 4), 2.0, "one")
    with pytest.raises(mo.OracleFailure):
        mo.quadrature_moment(EnsembleParams(1, 1, 0, 2), 1.0, "one")
    with pytest.raises(mo.OracleFailure):
        mo.quadrature_moment(EnsembleParams(1, 1, 1, 2), 2.0, "one")


def test_quadrature_oracle_failure_never_silent(monkeypatch):
    monkeypatch.setattr(mo, "_LEVELS", mo._LEVELS[:2])
    monkeypatch.setattr(mo, "_ABS_TOL", 1e-14)
    monkeypatch.setattr(mo, "_REL_TOL", 1e-16)
    with pytest.raises(mo.OracleFailure):
        mo.quadrature_moments(EnsembleParams(2, 2, 1, 3), 1.0, ["norm2_4"])


def test_quadrature_reports_face_node_count(monkeypatch):
    # the face grid has (2*level - 1)*order nodes on each of its n - 1 axes;
    # a loose tolerance stops at the second level, (3, 10): 5 panels of 10
    assert mo.quadrature_moment(EnsembleParams(2, 1, 0, 1), 2.0, "x1_sq").n_samples == 1
    monkeypatch.setattr(mo, "_ABS_TOL", 1.0)
    monkeypatch.setattr(mo, "_REL_TOL", 1.0)
    for n in (2, 3):
        est = mo.quadrature_moments(EnsembleParams(2, 1, 0, n), 2.0, ["x1_sq"])["x1_pow2"]
        assert est.n_samples == 50 ** (n - 1)
        assert est.ess == est.n_samples


def _aomoto_product_mean(b, c, n, k):
    """Aomoto's E[x_1^2 ... x_k^2] for the (2, b, c) gas at p = inf.

    With t = x^2 the gas is the Selberg density on [0,1]^n with
    alpha = (c+1)/2, beta = 1 and gamma = b/2.
    """
    alpha, gamma = (c + 1) / 2.0, b / 2.0
    return math.prod((alpha + (n - i) * gamma) / (alpha + 1.0 + (2 * n - i - 1) * gamma)
                     for i in range(1, k + 1))


@pytest.mark.parametrize("abc", [(2, 1, 0), (2, 2, 1), (2, 4, 3), (2, 1, 1), (2, 2, 0), (2, 2, 2),
                                 (2, 3, 0)])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_quadrature_aomoto_at_p_infinity(abc, n):
    params = EnsembleParams(*abc, n)
    pair = ["x1sq_x2sq"] if n > 1 else []
    ests = mo.quadrature_moments(params, math.inf, ["x1_sq", "x1_pow4", *pair])
    _, b, c = abc
    # the exact Selberg averages: E y1, E y1 y2 and E sum y^2 / n with y = x^2
    y1, y1y2, sum_sq = mo._selberg_moments(params)
    assert ests["x1_pow2"].value == pytest.approx(_aomoto_product_mean(b, c, n, 1), rel=1e-10)
    assert float(y1) == pytest.approx(ests["x1_pow2"].value, rel=1e-12)
    assert float(sum_sq / n) == pytest.approx(ests["x1_pow4"].value, rel=1e-12)
    if n == 1:
        # no pair: for (2,3,0) Aomoto's E y1 y2 would divide by alpha + 1 - gamma = 0
        assert y1y2 == 0
        return
    assert ests["x1sq_x2sq"].value == pytest.approx(_aomoto_product_mean(b, c, n, 2), rel=1e-10)
    assert float(y1y2) == pytest.approx(ests["x1sq_x2sq"].value, rel=1e-12)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("p", [2.0, math.inf])
def test_quadrature_odd_functional_on_signed_sector(n, p):
    # the (1,2,0) gas is even under x -> -x, so the mean coordinate has mean 0;
    # the face x_n = t alone would give a positive value, the face x_1 = -t cancels it
    mean_x = mo.Functional("mean_x", 1.0, lambda x: np.mean(x, axis=1))
    est = mo.quadrature_moment(EnsembleParams(1, 2, 0, n), p, mean_x)
    assert abs(est.value) <= 1e-12


def test_quadrature_rejects_wrong_declared_degree():
    wrong = mo.Functional("norm2_sq_as_cubic", 3.0, lambda x: np.sum(x**2, axis=1))
    with pytest.raises(mo.OracleFailure):
        mo.quadrature_moment(EnsembleParams(2, 1, 0, 2), 2.0, wrong)


def test_closed_form_moment_values():
    assert mo.closed_form_moment(1, 0, 2, 2) == pytest.approx(0.5, rel=1e-12)
    assert mo.closed_form_moment(8, 0, 4, 4) == pytest.approx(2.0, rel=1e-12)
    assert mo.closed_form_moment(4, 2, 4, 2) == pytest.approx(12.0, rel=1e-12)
    with pytest.raises(ValueError):
        mo.closed_form_moment(4, -5, 2, 2)
    with pytest.raises(ValueError):
        mo.closed_form_moment(4, 0, 2, math.inf)
    for p in (0.0, -2.0):
        with pytest.raises(ValueError):
            mo.closed_form_moment(4, 0, 2, p)


@pytest.mark.parametrize("field", ["R", "C", "H"])
def test_opnorm_ball_sigma_sq_matches_oracle(field):
    beta = BETA[field]
    for n in (1, 2, 3):
        params = EnsembleParams(2, beta, beta - 1, n)
        est = mo.quadrature_moments(params, math.inf,
                                    ["norm2_sq", "norm2_4", mo.coord_pow(2), mo.coord_pow(4)])
        m2, m4 = est["norm2_sq"].value, est["norm2_4"].value
        oracle = beta * n * n * (m4 / m2**2 - 1.0)
        assert float(mo.opnorm_ball_sigma_sq(field, n)) == pytest.approx(oracle, rel=1e-12)
        # the gas quartic ratio c4 = E x1^4 / (E x1^2)^2 from the same Selberg averages
        y1, _, sum_sq = mo._selberg_moments(params)
        c4 = est["x1_pow4"].value / est["x1_pow2"].value ** 2
        assert float(sum_sq / (n * y1 * y1)) == pytest.approx(c4, rel=1e-12)
    exact = {"R": (4, Fraction(25, 44)), "C": (3, Fraction(18, 35)), "H": (2, Fraction(9, 20))}
    n, value = exact[field]
    assert mo.opnorm_ball_sigma_sq(field, n) == value


def test_homogeneous_transfer_on_grid():
    params = EnsembleParams(2, 2, 1, 2)
    base = mo.coord_pow(2)
    for p in (1.0, 2.0, 4.0):
        for l in (2.0, p, p + 2.0):
            lifted = mo.p_norm_power_times(p, l, base)
            ests = mo.quadrature_moments(params, p, [base, lifted])
            measured = ests[lifted.name].value / ests[base.name].value
            expected = mo.closed_form_moment(params.d, 2.0, l, p)
            assert measured == pytest.approx(expected, rel=1e-6)


def test_estimate_moment_constant_and_linearity():
    batch = sp.exact_p2_sample(EnsembleParams(2, 1, 0, 2), 5000, seed=32)
    one = mo.estimate_moment(batch, "one")
    assert one.value == 1.0 and one.std_err == 0.0
    a = mo.estimate_moment(batch, "x1_sq")
    b = mo.estimate_moment(batch, "norm2_sq")
    assert b.value == pytest.approx(2.0 * a.value, rel=1e-12)
    # x1^2 mean: d/(2n) = 1
    assert abs(a.value - 1.0) <= 3.0 * a.std_err


def test_estimate_moment_low_confidence_flag():
    batch = sp.exact_p2_sample(EnsembleParams(2, 1, 0, 2), 64, seed=33)
    est = mo.estimate_moment(batch, "x1_sq")
    assert est.low_confidence


def test_sigma_pipeline_euclidean_ball():
    est = mo.sigma_pipeline(SchattenSpec("R", "Full", 2, 2.0), budget=100_000, seed=34)
    assert est.sigma_sq == pytest.approx(0.5, rel=0.1)
    est = mo.sigma_pipeline(SchattenSpec("C", "Full", 2, 2.0), budget=100_000, seed=35)
    assert est.sigma_sq == pytest.approx(1.0 / 3.0, rel=0.1)
    est = mo.sigma_pipeline(SchattenSpec("R", "Full", 1, 2.0), budget=100_000, seed=36)
    assert est.sigma_sq == pytest.approx(0.8, rel=0.1)


def test_sigma_pipeline_invariant():
    est = mo.sigma_pipeline(SchattenSpec("R", "Full", 2, 2.0), budget=20_000, seed=37)
    assert est.sigma_sq == pytest.approx(
        est.dim * est.var_norm_sq / est.mean_norm_sq**2, rel=1e-12
    )


@pytest.mark.parametrize("spec", [
    *(SchattenSpec(f, "Full", n, 2.0) for f in "RCH" for n in (1, 2, 3)),
    SchattenSpec("R", "Full", 16, 2.0),
    SchattenSpec("C", "SelfAdjoint", 3, 2.0),
    SchattenSpec("C", "AntiSymHermitian", 5, 2.0),
    SchattenSpec("C", "ComplexSymmetric", 3, 2.0),
], ids=lambda s: f"{s.field}-{s.subspace}-{s.n}")
def test_sigma_pipeline_p2_reads_only_the_radius(spec):
    # the gas cancels out of ||T||_2^2 at p=2: the radial route must equal the
    # explicit gas + pushforward route on the same seeds
    budget, seed = 3000, 41
    est = mo.sigma_pipeline(spec, budget=budget, seed=seed)
    mapping = ensemble_of(spec)
    scale = 1.0 if mapping.multiplicity == 1 else 2.0**-0.5
    gas = sp.gas_sample(mapping.params, 2.0, budget, seed)
    ball = sp.ball_pushforward(gas, mapping.params, 2.0, seed=seed + 1, norm_scale=scale)
    v = mapping.multiplicity * np.sum(ball.points**2, axis=1)
    ref = mo.sigma_from_values(v, spec.dim, "explicit")
    assert est.method == "radial"
    for key in ("sigma_sq", "mean_norm_sq", "std_err"):
        assert getattr(est, key) == pytest.approx(getattr(ref, key), rel=1e-10, abs=0.0)


def test_sigma_pipeline_p2_needs_a_budget():
    with pytest.raises(ValueError, match="n_samples must be >= 1"):
        mo.sigma_pipeline(SchattenSpec("R", "Full", 2, 2.0), budget=0)


def test_sigma_pipeline_rejects_an_unknown_sampler():
    # a hyphen for the underscore must not fall through to the radial route
    with pytest.raises(ValueError, match="sampler must be 'auto' or 'hit_and_run'"):
        mo.sigma_pipeline(SchattenSpec("R", "Full", 2, 2.0), sampler="hit-and-run", budget=10)


def test_var_mp_pipeline_terms():
    # 40000 = 200^2 keeps the batch-means trim empty, so the decomposition
    # must reproduce the plug-in variance of ||x||_2^2 exactly
    params = EnsembleParams(2, 1, 0, 2)
    est = mo.var_mp_pipeline(params, 2.0, budget=40_000, seed=38)
    assert est.combination > 0.0
    for term in (est.term_quartic, est.term_cross, est.term_square):
        assert np.isfinite(term)
    gas = sp.exact_p2_sample(params, 40_000, seed=38)
    v = np.sum(gas.points**2, axis=1)
    assert est.combination == pytest.approx(float(np.var(v)), rel=1e-9)


def test_functional_registry_resolution():
    f = mo.resolve_functional("pair_ratio:2:2")
    pts = np.array([[1.0, 2.0]])
    # (x^4 - y^4)/(x^2 - y^2) = x^2 + y^2
    assert f(pts)[0] == pytest.approx(5.0)
    with pytest.raises(ValueError):
        mo.resolve_functional("nonsense")
    with pytest.raises(ValueError):
        mo.pair_ratio(2, 3)
