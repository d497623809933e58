import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from schattenlab.ensembles import EnsembleParams, SchattenSpec, ensemble_of
from schattenlab import exact
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
                                 (2, 3, 0), (1, 1, 0), (1, 2, 0), (1, 4, 0)])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_quadrature_aomoto_at_p_infinity(abc, n):
    params = EnsembleParams(*abc, n)
    pair = ["x1sq_x2sq"] if n > 1 else []
    ests = mo.quadrature_moments(params, math.inf, ["x1_sq", "x1_pow4", *pair])
    a, b, c = abc
    # the exact Selberg averages E x1^4, E x1^2 x2^2 and E x1^2
    _, (x4, cross, x2) = exact.gas_moments(params, math.inf)
    assert float(x2) == pytest.approx(ests["x1_pow2"].value, rel=1e-12)
    assert float(x4) == pytest.approx(ests["x1_pow4"].value, rel=1e-12)
    if a == 2:
        assert ests["x1_pow2"].value == pytest.approx(_aomoto_product_mean(b, c, n, 1), rel=1e-10)
    if n == 1:
        # no pair: for (2,3,0) Aomoto's E y1 y2 would divide by alpha + 1 - gamma = 0
        assert cross == 0
        return
    assert float(cross) == pytest.approx(ests["x1sq_x2sq"].value, rel=1e-12)
    if a == 2:
        assert ests["x1sq_x2sq"].value == pytest.approx(_aomoto_product_mean(b, c, n, 2),
                                                        rel=1e-10)


@pytest.mark.parametrize("abc", [(2, 1, 0), (2, 2, 1), (2, 4, 3), (2, 1, 1), (2, 2, 0), (2, 2, 2),
                                 (2, 3, 0), (1, 1, 0), (1, 2, 0), (1, 4, 0)])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_quadrature_gaussian_moments_at_p2(abc, n):
    # the p=2 closed forms: Gamma(d/2) for ||x||_2^2, with identity 1 (a=2) or
    # the Gaussian beta ensemble's fourth moment (a=1) for E sum x^4
    params = EnsembleParams(*abc, n)
    pair = ["x1sq_x2sq"] if n > 1 else []
    ests = mo.quadrature_moments(params, 2.0, ["x1_pow4", "x1_sq", *pair])
    _, (x4, cross, x2) = exact.gas_moments(params, 2.0)
    assert float(x4) == pytest.approx(ests["x1_pow4"].value, rel=1e-12)
    assert float(x2) == pytest.approx(ests["x1_pow2"].value, rel=1e-12)
    if n == 1:
        assert cross == 0
    else:
        assert float(cross) == pytest.approx(ests["x1sq_x2sq"].value, rel=1e-12)


def test_gas_moments_cover_only_the_closed_forms():
    # p=2 and p=inf, each for a=2 or (a=1, c=0), the families exact_p2_sample
    # draws; (1,2,0) at p=inf became exact with the Jack averages
    assert exact.gas_moments(EnsembleParams(1, 2, 0, 3), math.inf)[0] == "selberg"
    assert exact.gas_moments(EnsembleParams(1, 2, 0, 3), 2.0)[0] == "gaussian"
    for p in (2.0, math.inf):
        assert exact.gas_moments(EnsembleParams(1, 1, 2, 3), p) is None
        assert exact.gas_moments(EnsembleParams(3, 1, 0, 3), p) is None
    for p in (1.0, 3.0, 4.0):
        assert exact.gas_moments(EnsembleParams(2, 1, 0, 3), p) is None
        assert exact.gas_moments(EnsembleParams(1, 2, 0, 3), p) is None


# every ball: Full and SelfAdjoint over each field, C ComplexSymmetric, and C
# AntiSymHermitian at an even and an odd n (the forced zero), each with its
# exact sigma^2 at p=inf as the pipeline read it before the route table
_BALLS = {
    ("R", "Full", 3): Fraction(16, 27),
    ("C", "Full", 3): Fraction(18, 35),
    ("H", "Full", 3): Fraction(25, 54),
    ("R", "SelfAdjoint", 3): Fraction(272, 405),
    ("C", "SelfAdjoint", 3): Fraction(164, 289),
    ("H", "SelfAdjoint", 3): Fraction(1775, 4212),
    ("C", "ComplexSymmetric", 3): Fraction(4, 7),
    ("C", "AntiSymHermitian", 4): Fraction(8, 15),
    ("C", "AntiSymHermitian", 5): Fraction(40, 77),
}


@pytest.mark.parametrize("ball", sorted(_BALLS), ids=lambda b: "{}-{}-{}".format(*b))
def test_ball_moments_cover_every_ball_at_p2_and_p_inf(ball):
    # p=inf: k ||x||^2 against the oracle's E||x||^2 and E||x||^4; p=2: the radial rule
    mapping = ensemble_of(SchattenSpec(*ball, math.inf))
    k = mapping.multiplicity
    oracle = mo.quadrature_moments(mapping.params, math.inf, ["norm2_sq", "norm2_4"])
    route, (m, m2) = exact.ball_moments(SchattenSpec(*ball, math.inf))
    assert route == "selberg"
    assert float(m) == pytest.approx(k * oracle["norm2_sq"].value, rel=1e-12)
    assert float(m2) == pytest.approx(k * k * oracle["norm2_4"].value, rel=1e-12)
    dim = Fraction(SchattenSpec(*ball, 2.0).dim)
    assert exact.ball_moments(SchattenSpec(*ball, 2.0)) == ("radial", (dim / (dim + 2),
                                                                      dim / (dim + 4)))
    for p in (1.0, 1.5, 3.0, 4.0):
        assert exact.ball_moments(SchattenSpec(*ball, p)) is None


class _Drew(Exception):
    """A pipeline reached a sampler."""


def _draws(monkeypatch, pipeline, *args):
    """Whether pipeline(*args, budget=10) reaches the gas sampler or the
    matrix walk (each patched to raise _Drew); else its estimate."""
    def refuse(*_, **__):
        raise _Drew

    monkeypatch.setattr(sp, "gas_sample", refuse)
    monkeypatch.setattr(sp, "matrix_hit_and_run", refuse)
    try:
        return pipeline(*args, budget=10)
    except _Drew:
        return True


@pytest.mark.parametrize("ball", sorted(_BALLS), ids=lambda b: "{}-{}-{}".format(*b))
def test_pipelines_answer_from_exact_at_p2_and_p_inf_only(ball, monkeypatch):
    for p, method in ((2.0, "exact-radial"), (math.inf, "exact-selberg")):
        spec = SchattenSpec(*ball, p)
        est = _draws(monkeypatch, mo.sigma_pipeline, spec)
        value = Fraction(4, spec.dim + 4) if p == 2 else _BALLS[ball]
        assert (est.method, est.sigma_sq, est.std_err, est.ess) == (
            method, float(value), 0.0, math.inf)
        assert est.method == "exact-" + exact.ball_moments(spec)[0]
    params = ensemble_of(SchattenSpec(*ball, 2.0)).params
    for p, method in ((2.0, "exact-gaussian"), (math.inf, "exact-selberg")):
        est = _draws(monkeypatch, mo.var_mp_pipeline, params, p)
        route, (_, _, e2) = exact.gas_moments(params, p)
        assert (est.method, est.coord_sq_mean, est.std_err) == (method, float(e2), 0.0)
        assert method == "exact-" + route
    for p in (1.0, 3.0):
        assert _draws(monkeypatch, mo.sigma_pipeline, SchattenSpec(*ball, p)) is True
        assert _draws(monkeypatch, mo.var_mp_pipeline, params, p) is True


def test_pipelines_route_test_catches_a_table_that_answers_p1(monkeypatch):
    # planted fault: a route table that also answers p=1, with the p=2 rules
    ball_moments, gas_moments = exact.ball_moments, exact.gas_moments
    monkeypatch.setattr(exact, "ball_moments", lambda spec: ball_moments(
        dataclasses.replace(spec, p=2.0) if spec.p == 1 else spec))
    monkeypatch.setattr(exact, "gas_moments", lambda params, p: gas_moments(
        params, 2.0 if p == 1 else p))
    spec = SchattenSpec("R", "Full", 3, 1.0)
    assert _draws(monkeypatch, mo.sigma_pipeline, spec) is not True
    assert _draws(monkeypatch, mo.var_mp_pipeline, ensemble_of(spec).params, 1.0) is not True


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
    assert exact.closed_form_moment(1, 0, 2, 2) == pytest.approx(0.5, rel=1e-12)
    assert exact.closed_form_moment(8, 0, 4, 4) == pytest.approx(2.0, rel=1e-12)
    assert exact.closed_form_moment(4, 2, 4, 2) == pytest.approx(12.0, rel=1e-12)
    with pytest.raises(ValueError):
        exact.closed_form_moment(4, -5, 2, 2)
    with pytest.raises(ValueError):
        exact.closed_form_moment(4, 0, 2, math.inf)
    for p in (0.0, -2.0):
        with pytest.raises(ValueError):
            exact.closed_form_moment(4, 0, 2, p)


def _no_draws(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the exact routes must draw nothing")

    monkeypatch.setattr(sp, "gas_sample", refuse)


def _exact_sigma_meets_oracle(spec):
    """The exact route's sigma^2 against the oracle's D (E||x||^4 / (E||x||^2)^2 - 1)."""
    params = ensemble_of(spec).params
    est = mo.quadrature_moments(params, math.inf, ["norm2_sq", "norm2_4"])
    m2, m4 = est["norm2_sq"].value, est["norm2_4"].value
    exact = mo.sigma_pipeline(spec)
    assert exact.sigma_sq == pytest.approx(spec.dim * (m4 / m2**2 - 1.0), rel=1e-12)
    assert (exact.method, exact.std_err, exact.ess) == ("exact-selberg", 0.0, math.inf)
    return exact


@pytest.mark.parametrize("field", ["R", "C", "H"])
def test_sigma_pipeline_exact_opnorm_full_matches_oracle(field, monkeypatch):
    _no_draws(monkeypatch)
    for n in (1, 2, 3):
        spec = SchattenSpec(field, "Full", n, math.inf)
        _exact_sigma_meets_oracle(spec)
        # the gas quartic ratio c4 = E x1^4 / (E x1^2)^2 from the same Selberg averages
        params = ensemble_of(spec).params
        est = mo.quadrature_moments(params, math.inf, [mo.coord_pow(2), mo.coord_pow(4)])
        c4 = est["x1_pow4"].value / est["x1_pow2"].value ** 2
        assert mo.var_mp_pipeline(params, math.inf).quart_ratio == pytest.approx(c4, rel=1e-12)
    exact = {"R": (4, Fraction(25, 44)), "C": (3, Fraction(18, 35)), "H": (2, Fraction(9, 20))}
    n, value = exact[field]
    assert mo.sigma_pipeline(SchattenSpec(field, "Full", n, math.inf)).sigma_sq == float(value)


@pytest.mark.parametrize("spec", [
    *(SchattenSpec("C", "ComplexSymmetric", n, math.inf) for n in (1, 2, 3)),
    *(SchattenSpec("C", "AntiSymHermitian", n, math.inf) for n in range(2, 8)),
    *(SchattenSpec(f, "SelfAdjoint", n, math.inf) for f in "RCH" for n in (1, 2, 3)),
], ids=lambda s: (f"{s.field}-" if s.subspace == "SelfAdjoint" else "") + f"{s.subspace}-{s.n}")
def test_sigma_pipeline_exact_opnorm_subspaces_match_oracle(spec, monkeypatch):
    # every ball at p=inf: (2,1,1) and (2,2,2r) on floor(n/2) <= 3 coordinates,
    # and the signed (1,beta,0) of the SelfAdjoint balls
    _no_draws(monkeypatch)
    exact = _exact_sigma_meets_oracle(spec)
    assert exact.sigma_sq == pytest.approx(
        exact.dim * exact.var_norm_sq / exact.mean_norm_sq**2, rel=1e-12)
    assert exact.mean_over_dim == pytest.approx(exact.mean_norm_sq / spec.dim, rel=1e-15)


_SELF_ADJOINT_SIGMA_SQ = {
    "R": (Fraction(3, 4), Fraction(272, 405), Fraction(775, 1232)),
    "C": (Fraction(248, 343), Fraction(164, 289), Fraction(28256, 52855)),
    "H": (Fraction(13, 20), Fraction(1775, 4212), Fraction(6223, 14144)),
}


@pytest.mark.parametrize("field", sorted(_SELF_ADJOINT_SIGMA_SQ))
def test_sigma_pipeline_exact_opnorm_self_adjoint_draws_nothing(field, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the exact route must draw nothing")

    for name in ("gas_sample", "mcmc_sample", "exact_p2_sample", "matrix_hit_and_run"):
        monkeypatch.setattr(sp, name, refuse)
    for n, value in zip((2, 3, 4), _SELF_ADJOINT_SIGMA_SQ[field]):
        est = mo.sigma_pipeline(SchattenSpec(field, "SelfAdjoint", n, math.inf))
        assert (est.sigma_sq, est.method, est.std_err, est.ess) == (
            float(value), "exact-selberg", 0.0, math.inf)
    est = mo.var_mp_pipeline(ensemble_of(SchattenSpec(field, "SelfAdjoint", 3, math.inf)).params,
                             math.inf)
    assert (est.method, est.std_err, est.ess) == ("exact-selberg", 0.0, math.inf)


_WALK_CASES = {
    "cs3": (SchattenSpec("C", "ComplexSymmetric", 3, math.inf), Fraction(4, 7)),
    "ash4": (SchattenSpec("C", "AntiSymHermitian", 4, math.inf), Fraction(8, 15)),
    "ash5": (SchattenSpec("C", "AntiSymHermitian", 5, math.inf), Fraction(40, 77)),
    "sa-c3": (SchattenSpec("C", "SelfAdjoint", 3, math.inf), Fraction(164, 289)),
    "sa-h2": (SchattenSpec("H", "SelfAdjoint", 2, math.inf), Fraction(13, 20)),
}


def _walk_z(spec, seed):
    """z of the matrix walk's sigma^2 against the exact route's, and both
    routes' mean ||T||_2^2."""
    walk = mo.sigma_pipeline(spec, sampler="hit_and_run", budget=20_000, seed=seed)
    exact = mo.sigma_pipeline(spec)
    return (walk.sigma_sq - exact.sigma_sq) / walk.std_err, walk.mean_norm_sq, exact.mean_norm_sq


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("case", sorted(_WALK_CASES))
def test_sigma_pipeline_exact_opnorm_meets_the_matrix_walk(case, seed):
    spec, value = _WALK_CASES[case]
    assert mo.sigma_pipeline(spec).sigma_sq == float(value)
    z, walk_mean, exact_mean = _walk_z(spec, seed)
    assert abs(z) <= 3.0
    # the means differ by under 1% at these seeds; a lost multiplicity is a factor 2
    assert walk_mean == pytest.approx(exact_mean, rel=0.02)


def test_sigma_pipeline_exact_opnorm_walk_catches_a_lost_forced_zero(monkeypatch):
    # planted fault: n=5 mapped without its forced zero, (2,2,0) in place of (2,2,2)
    spec = _WALK_CASES["ash5"][0]
    true_map = exact.ensemble_of

    def no_forced_zero(s):
        m = true_map(s)
        return dataclasses.replace(m, params=dataclasses.replace(m.params, c=0))

    monkeypatch.setattr(exact, "ensemble_of", no_forced_zero)
    assert mo.sigma_pipeline(spec).sigma_sq == float(Fraction(8, 9))
    assert abs(_walk_z(spec, 0)[0]) > 3.0


def test_homogeneous_transfer_on_grid():
    params = EnsembleParams(2, 2, 1, 2)
    base = mo.coord_pow(2)
    for p in (1.0, 2.0, 4.0):
        for l in (2.0, p, p + 2.0):
            lifted = mo.p_norm_power_times(p, l, base)
            ests = mo.quadrature_moments(params, p, [base, lifted])
            measured = ests[lifted.name].value / ests[base.name].value
            expected = exact.closed_form_moment(params.d, 2.0, l, p)
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


def test_sigma_pipeline_invariant():
    est = mo.sigma_pipeline(SchattenSpec("R", "Full", 2, 3.0), budget=20_000, seed=37)
    assert est.method == "mcmc"
    assert est.sigma_sq == pytest.approx(
        est.dim * est.var_norm_sq / est.mean_norm_sq**2, rel=1e-12
    )


def _p2_columns(spec, lose_scale=False):
    """radial_columns of 20k exact gas draws at p=2; lose_scale keeps the
    multiplicity in ||T||_2^2 but drops it from N(x) (a planted fault)."""
    mapping = ensemble_of(spec)
    k = mapping.multiplicity
    gas = sp.gas_sample(mapping.params, 2.0, 20_000, 41)
    if lose_scale:
        return mo.radial_columns(gas.points, 2.0, 1, spec.dim) * [k, k * k]
    return mo.radial_columns(gas.points, 2.0, k, spec.dim)


def _meets_exact(columns, exact):
    """Every row of the columns is the exact route's (E v, E v^2) to 1e-12:
    at p=2, w = 1, so the columns are constant and no z is needed."""
    m = exact.mean_norm_sq
    return bool(np.allclose(columns, [m, exact.var_norm_sq + m * m], rtol=1e-12, atol=0.0))


@pytest.mark.parametrize("spec", [
    *(SchattenSpec(f, "Full", n, 2.0) for f in "RCH" for n in (1, 2, 3)),
    SchattenSpec("R", "Full", 16, 2.0),
    SchattenSpec("C", "SelfAdjoint", 3, 2.0),
    SchattenSpec("C", "AntiSymHermitian", 5, 2.0),
    SchattenSpec("C", "ComplexSymmetric", 3, 2.0),
], ids=lambda s: f"{s.field}-{s.subspace}-{s.n}")
def test_sigma_pipeline_p2_reads_only_the_radius(spec, monkeypatch):
    # v = R^2 at p=2 on every subspace: the exact route must meet the radial
    # columns of gas draws, and must draw nothing
    columns = _p2_columns(spec)
    _no_draws(monkeypatch)
    exact = mo.sigma_pipeline(spec, budget=1)
    assert (exact.method, exact.std_err, exact.ess) == ("exact-radial", 0.0, math.inf)
    assert exact.sigma_sq == float(Fraction(4, spec.dim + 4))
    assert exact.mean_norm_sq == float(Fraction(spec.dim, spec.dim + 2))
    assert _meets_exact(columns, exact)


def test_sigma_pipeline_p2_explicit_route_catches_a_lost_scale():
    # planted fault: AntiSymHermitian n=5 with the multiplicity dropped from
    # N(x) doubles every ||T||_2^2; sigma^2 is scale-free, the mean is not
    spec = SchattenSpec("C", "AntiSymHermitian", 5, 2.0)
    wrong, exact = _p2_columns(spec, lose_scale=True), mo.sigma_pipeline(spec)
    assert np.mean(wrong[:, 0]) == pytest.approx(2.0 * exact.mean_norm_sq, rel=1e-12)
    assert not _meets_exact(wrong, exact)


def _oracle_sigma(spec):
    """Exact (sigma^2, E ||T||_2^2) of the ball from the oracle's averages of
    the degree-0 functionals w and w^2 of its gas, w = k ||x||_2^2 / N(x)^2:
    sigma^2 = d [(d+2)^2 / (d (d+4)) E w^2 / (E w)^2 - 1], E ||T||_2^2 =
    d/(d+2) E w."""
    mapping = ensemble_of(spec)
    k, p, d = mapping.multiplicity, spec.p, spec.dim

    def w(x):
        if math.isinf(p):
            norm = np.max(np.abs(x), axis=1)
        else:
            norm = (k * np.sum(np.abs(x) ** p, axis=1)) ** (1.0 / p)
        return k * np.sum(x**2, axis=1) / norm**2

    est = mo.quadrature_moments(mapping.params, p, [mo.Functional("w", 0.0, w),
                                                    mo.Functional("w2", 0.0, lambda x: w(x) ** 2)])
    ew, ew2 = est["w"].value, est["w2"].value
    return d * ((d + 2) ** 2 / (d * (d + 4)) * ew2 / ew**2 - 1.0), d / (d + 2) * ew


def _meets_oracle(est, sigma_sq, mean):
    """|z| <= 3 on sigma^2 and E ||T||_2^2 within 1%; an exact route to 1e-7."""
    if est.std_err == 0.0:
        return (est.sigma_sq == pytest.approx(sigma_sq, rel=1e-7)
                and est.mean_norm_sq == pytest.approx(mean, rel=1e-7))
    z = (est.sigma_sq - sigma_sq) / est.std_err
    return abs(z) <= 3.0 and est.mean_norm_sq == pytest.approx(mean, rel=0.01)


_ORACLE_SPECS = [
    SchattenSpec("R", "Full", 3, 3.0), SchattenSpec("C", "Full", 3, 3.0),
    SchattenSpec("C", "Full", 2, 1.0), SchattenSpec("H", "Full", 2, 4.0),
    SchattenSpec("R", "Full", 2, math.inf),
    SchattenSpec("C", "SelfAdjoint", 3, math.inf), SchattenSpec("C", "SelfAdjoint", 3, 4.0),
    SchattenSpec("R", "SelfAdjoint", 2, 8.0),
    SchattenSpec("C", "AntiSymHermitian", 4, 3.0), SchattenSpec("C", "AntiSymHermitian", 5, 3.0),
    SchattenSpec("C", "AntiSymHermitian", 6, 1.0),
    SchattenSpec("C", "ComplexSymmetric", 3, 1.0), SchattenSpec("C", "ComplexSymmetric", 2, 3.0),
]


def _gas_route_sigma(spec, seed=0):
    """sigma_pipeline's gas route on 20k draws; at p=inf, where sigma_pipeline
    is exact, the same estimator on radial_columns of Metropolis gas draws."""
    if not math.isinf(spec.p):
        return mo.sigma_pipeline(spec, budget=20_000, seed=seed)
    mapping = ensemble_of(spec)
    points = sp.mcmc_sample(mapping.params, math.inf, n_samples=20_000, seed=seed).points
    columns = mo.radial_columns(points, math.inf, mapping.multiplicity, spec.dim)
    return mo.sigma_from_values(columns, spec.dim, "mcmc")


@pytest.mark.parametrize("spec", _ORACLE_SPECS,
                         ids=lambda s: f"{s.field}-{s.subspace}-{s.n}-p{s.p:g}")
def test_sigma_pipeline_gas_route_meets_the_oracle(spec):
    # the gas route integrates the ball's radius; the oracle integrates the
    # gas's, so the two meet only if radial_columns is the exact E[. | direction]
    assert _meets_oracle(_gas_route_sigma(spec), *_oracle_sigma(spec))


@pytest.mark.parametrize("spec", [s for s in _ORACLE_SPECS if math.isinf(s.p)],
                         ids=lambda s: f"{s.field}-{s.subspace}-{s.n}")
def test_opnorm_gas_route_oracle_catches_planted_faults(monkeypatch, spec):
    true_columns = mo.radial_columns
    oracle = _oracle_sigma(spec)
    assert _meets_oracle(_gas_route_sigma(spec, seed=1), *oracle)

    def l2_for_max(points, p, k, d):  # N(x) = ||x||_2 in place of max |x_i|: w = k
        w = np.full(len(points), float(k))
        return np.stack([w * (d / (d + 2)), w**2 * (d / (d + 4))], axis=1)

    def no_radial_variance(points, p, k, d):  # E R^4 taken as (E R^2)^2
        cols = true_columns(points, p, k, d)
        cols[:, 1] = cols[:, 0] ** 2
        return cols

    for fault in (l2_for_max, no_radial_variance):
        monkeypatch.setattr(mo, "radial_columns", fault)
        assert not _meets_oracle(_gas_route_sigma(spec), *oracle), fault.__name__


def test_sigma_pipeline_gas_route_oracle_catches_planted_faults(monkeypatch):
    true_columns = mo.radial_columns
    full = SchattenSpec("R", "Full", 3, 3.0)
    ash = SchattenSpec("C", "AntiSymHermitian", 4, 3.0)
    oracle = {spec: _oracle_sigma(spec) for spec in (full, ash)}

    def no_radial_variance(points, p, k, d):  # E R^4 taken as (E R^2)^2
        cols = true_columns(points, p, k, d)
        cols[:, 1] = cols[:, 0] ** 2
        return cols

    monkeypatch.setattr(mo, "radial_columns", no_radial_variance)
    wrong = mo.sigma_pipeline(full, budget=20_000, seed=0)
    assert not _meets_oracle(wrong, *oracle[full])
    assert wrong.mean_norm_sq == pytest.approx(oracle[full][1], rel=0.01)

    def no_multiplicity_in_norm(points, p, k, d):
        return true_columns(points, p, 1, d) * [k, k * k]

    monkeypatch.setattr(mo, "radial_columns", no_multiplicity_in_norm)
    wrong = mo.sigma_pipeline(ash, budget=20_000, seed=0)
    assert wrong.mean_norm_sq == pytest.approx(2 ** (2 / 3) * oracle[ash][1], rel=0.01)
    assert not _meets_oracle(wrong, *oracle[ash])


def test_sigma_pipeline_p2_needs_a_budget():
    with pytest.raises(ValueError, match="n_samples must be >= 1"):
        mo.sigma_pipeline(SchattenSpec("R", "Full", 2, 2.0), budget=0)


def test_sigma_pipeline_rejects_an_unknown_sampler():
    # a hyphen for the underscore must not fall through to the exact route
    with pytest.raises(ValueError, match="sampler must be 'auto' or 'hit_and_run'"):
        mo.sigma_pipeline(SchattenSpec("R", "Full", 2, 2.0), sampler="hit-and-run", budget=10)


def test_var_mp_pipeline_terms():
    # 40000 = 200^2 keeps the batch-means trim empty, so the decomposition
    # must reproduce the plug-in variance of ||x||_2^2 exactly
    params = EnsembleParams(2, 1, 0, 2)
    gas = sp.exact_p2_sample(params, 40_000, seed=38)
    est = mo.var_mp_pipeline(params, 2.0, gas=gas)
    assert est.combination > 0.0
    for term in (est.term_quartic, est.term_cross, est.term_square):
        assert np.isfinite(term)
    v = np.sum(gas.points**2, axis=1)
    assert est.combination == pytest.approx(float(np.var(v)), rel=1e-9)


def test_var_mp_cross_gap_is_nan_without_a_pair():
    # a one-coordinate gas has no pair: 0 - (E x1^2)^2 with a finite error
    # bar would read as a strong negative correlation, on either route
    params = EnsembleParams(2, 1, 0, 1)
    drawn = mo.var_mp_pipeline(params, 1.0, budget=3000, seed=0)
    for est, method in ((mo.var_mp_pipeline(params, 2.0), "exact-gaussian"), (drawn, "mcmc")):
        assert est.method == method
        assert math.isnan(est.cross_gap) and math.isnan(est.cross_gap_se)
        assert est.term_cross == 0.0
        assert math.isfinite(est.combination) and math.isfinite(est.std_err)


def test_functional_registry_resolution():
    f = mo.resolve_functional("pair_ratio:2:2")
    pts = np.array([[1.0, 2.0]])
    # (x^4 - y^4)/(x^2 - y^2) = x^2 + y^2
    assert f(pts)[0] == pytest.approx(5.0)
    with pytest.raises(ValueError):
        mo.resolve_functional("nonsense")
    with pytest.raises(ValueError):
        mo.pair_ratio(2, 3)
    # the oracle results and the benchmark key functionals by these names
    assert {fid: mo.resolve_functional(fid).name for fid in _REGISTERED + ("one",)} == {
        "x1_sq": "x1_pow2", "x1_pow4": "x1_pow4", "x1sq_x2sq": "x1sq_x2sq",
        "norm2_sq": "norm2_sq", "norm2_4": "norm2_4", "norm4_4": "normpow4",
        "normpow:4": "normpow4", "norm2_sq*normpow:4": "norm2_sq*normpow4", "one": "one"}
    # a wrong argument count, an exponent that is not finite and >= 0, or a
    # pair_ratio power a outside {1, 2}, refused when the id resolves
    for fid in ("pair_ratio:2", "norm2_sq*normpow", "normpow:4:9", "x1_sq:2",
                "normpow:nan", "normpow:inf", "normpow:-2", "norm2_sq*normpow:-1",
                "pair_ratio:3:2", "pair_ratio:0:2"):
        with pytest.raises(ValueError):
            mo.resolve_functional(fid)
