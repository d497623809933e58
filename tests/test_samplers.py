import concurrent.futures
import math
import subprocess
import sys

import numpy as np
import pytest

from schattenlab.density import log_f_p
from schattenlab.ensembles import EnsembleParams, SchattenSpec
from schattenlab import matrixlab as ml
from schattenlab import moments as mo
from schattenlab import samplers as sp
from schattenlab.util import batch_means


def test_mcmc_one_dimensional_gaussian_moment():
    # closed form: second moment 1/2 for exp(-x^2)
    params = EnsembleParams(1, 1, 0, 1)
    batch = sp.mcmc_sample(params, 2.0, n_chains=4, n_samples=20_000, seed=7, validate=True)
    est = mo.estimate_moment(batch, "x1_sq")
    assert abs(est.value - 0.5) <= 3.0 * est.std_err


def test_mcmc_norm_moment_closed_form():
    params = EnsembleParams(2, 2, 1, 4)
    batch = sp.mcmc_sample(params, 2.0, n_chains=4, n_samples=24_000, seed=8)
    est = mo.estimate_moment(batch, "norm2_sq")
    assert params.d == 32
    assert abs(est.value - 16.0) <= 3.0 * est.std_err


def test_mcmc_replay_bit_identical():
    params = EnsembleParams(2, 1, 0, 3)
    a = sp.mcmc_sample(params, 4.0, n_chains=3, n_samples=2000, seed=42)
    b = sp.mcmc_sample(params, 4.0, n_chains=3, n_samples=2000, seed=42)
    assert np.array_equal(a.points, b.points)
    c = sp.mcmc_sample(params, 4.0, n_chains=3, n_samples=2000, seed=43)
    assert not np.array_equal(a.points, c.points)


def test_mcmc_infinite_p_stays_in_cube():
    params = EnsembleParams(2, 1, 0, 4)
    batch = sp.mcmc_sample(params, math.inf, n_chains=2, n_samples=4000, seed=9)
    assert np.max(np.abs(batch.points)) <= 1.0


# each statistic of var_mp_pipeline with the field holding its error bar
_SE_OF = {"coord_sq_mean": "coord_sq_se", "cross_gap": "cross_gap_se",
          "quart_ratio": "quart_ratio_se", "combination": "std_err"}


def _z_against_exact(drawn, exact):
    return {k: (getattr(drawn, k) - getattr(exact, k)) / getattr(drawn, se)
            for k, se in _SE_OF.items()}


def test_metropolis_meets_selberg_averages_at_p_inf():
    # Metropolis draws at p=inf against the exact Selberg averages that
    # var_mp_pipeline reads when it is given no draws
    drawn = {}
    for abc, n in (((2, 1, 0), 8), ((2, 2, 1), 8), ((2, 4, 3), 4), ((2, 1, 1), 4),
                   ((2, 2, 0), 4)):
        params = EnsembleParams(*abc, n)
        gas = sp.mcmc_sample(params, math.inf, n_samples=40_000, seed=123)
        drawn[abc] = mo.var_mp_pipeline(params, math.inf, gas=gas)
        exact = mo.var_mp_pipeline(params, math.inf)
        assert (drawn[abc].method, exact.method) == ("mcmc", "exact-selberg")
        z = _z_against_exact(drawn[abc], exact)
        assert all(abs(v) <= 3.0 for v in z.values()), (abc, n, z)
    # planted fault: (2,2,1) draws against the (2,1,0) averages at n=8
    wrong = _z_against_exact(drawn[(2, 2, 1)],
                             mo.var_mp_pipeline(EnsembleParams(2, 1, 0, 8), math.inf))
    assert all(abs(v) > 3.0 for v in wrong.values()), wrong


def test_exact_p2_moments():
    for params, expect in [
        (EnsembleParams(2, 1, 0, 2), 2.0),
        (EnsembleParams(1, 2, 0, 3), 4.5),
    ]:
        batch = sp.exact_p2_sample(params, 40_000, seed=11)
        est = mo.estimate_moment(batch, "norm2_sq")
        assert abs(est.value - expect) <= 3.0 * est.std_err


def test_exact_p2_replay_and_unavailable():
    params = EnsembleParams(2, 3, 2, 3)
    a = sp.exact_p2_sample(params, 500, seed=1)
    b = sp.exact_p2_sample(params, 500, seed=1)
    assert np.array_equal(a.points, b.points)
    with pytest.raises(sp.SamplerUnavailable):
        sp.exact_p2_sample(EnsembleParams(1, 1, 1, 3), 10)
    with pytest.raises(sp.SamplerUnavailable):
        sp.exact_p2_sample(EnsembleParams(3, 1, 0, 3), 10)


def test_exact_p2_samplers_need_a_budget():
    for n_samples in (0, -5):
        with pytest.raises(ValueError, match="n_samples must be >= 1"):
            sp.exact_p2_sample(EnsembleParams(2, 1, 0, 3), n_samples)
    with pytest.raises(ValueError, match="n_samples must be >= 1"):
        sp.exact_p2_matrix_sample(SchattenSpec("R", "Full", 2, 2.0), 0)
    spec = SchattenSpec("R", "Full", 2, math.inf)
    for n_samples in (0, -5):
        with pytest.raises(ValueError, match="n_samples must be >= 1"):
            sp.matrix_hit_and_run(spec, n_samples)
    params = EnsembleParams(2, 1, 0, 3)
    for bad in ({"n_chains": 0}, {"thinning": 0}, {"burn_in": -1}):
        with pytest.raises(ValueError, match="n_chains >= 1, thinning >= 1 and burn_in >= 0"):
            sp.mcmc_sample(params, 4.0, n_samples=10, **bad)
        with pytest.raises(ValueError, match="n_chains >= 1, thinning >= 1 and burn_in >= 0"):
            sp.matrix_hit_and_run(spec, 10, **bad)


def _serial_metropolis_chain(params, p, keep, burn_in, thinning, seed_seq):
    """One adaptive Metropolis chain, coordinate by coordinate in scalar
    arithmetic: the reference that the lockstep sweep must reproduce."""
    rng = np.random.default_rng(seed_seq)
    n, a, b, c = params.n, params.a, params.b, params.c
    scale = (params.d / (n * p)) ** (1.0 / p)
    logf = -math.inf
    while not np.isfinite(logf):
        x = rng.uniform(-0.95, 0.95, n) if math.isinf(p) else rng.standard_normal(n) * scale
        logf = float(log_f_p(params, p, x))
    xa = x.copy() if a == 1 else x**a
    steps = np.full(n, 0.25 if math.isinf(p) else 0.5 * scale)
    window = np.zeros(n)
    out = []
    with np.errstate(divide="ignore", invalid="ignore"):
        for sweep in range(burn_in + keep * thinning):
            zs, us = rng.standard_normal(n), rng.random(n)
            for i in range(n):
                prop = x[i] + steps[i] * zs[i]
                if math.isinf(p) and abs(prop) > 1.0:
                    continue
                prop_a = prop if a == 1 else prop**a
                ratio = (prop_a - xa) / (xa[i] - xa)
                ratio[i] = 1.0
                delta = b * float(np.sum(np.log(np.abs(ratio))))
                if c:
                    delta += c * (math.log(abs(prop / x[i])) if prop != 0.0 else -math.inf)
                if not math.isinf(p):
                    delta -= abs(prop) ** p - abs(x[i]) ** p
                if delta >= 0.0 or us[i] < math.exp(delta):
                    x[i], xa[i] = prop, prop_a
                    window[i] += sweep < burn_in
            if sweep < burn_in and (sweep + 1) % 50 == 0:
                steps *= np.exp(0.6 * (window / 50 - 0.44))
                window[:] = 0.0
            if sweep >= burn_in and (sweep - burn_in) % thinning == 0:
                out.append(x.copy())
    return np.array(out)


@pytest.mark.parametrize("abc, n, p, chains", [
    ((2, 1, 0), 3, 4.0, 3), ((2, 2, 1), 3, math.inf, 2), ((1, 2, 0), 3, 2.0, 2),
    ((2, 2, 1), 4, 1.0, 4), ((1, 1, 0), 1, 2.0, 1),
])
def test_lockstep_metropolis_matches_serial_chains(abc, n, p, chains):
    params = EnsembleParams(*abc, n)
    batch = sp.mcmc_sample(params, p, n_chains=chains, n_samples=60 * chains, seed=31,
                           burn_in=120, thinning=2, validate=True)
    seqs = np.random.SeedSequence(31).spawn(chains)
    ref = [_serial_metropolis_chain(params, p, 60, 120, 2, s) for s in seqs]
    assert np.array_equal(batch.points, np.concatenate(ref))


CHAIN_WALKS = {
    "metropolis": lambda **kw: sp.mcmc_sample(EnsembleParams(2, 1, 0, 3), 4.0, **kw),
    "hit_and_run": lambda **kw: sp.matrix_hit_and_run(SchattenSpec("C", "Full", 2, 3.0), **kw),
}


@pytest.mark.parametrize("walk", CHAIN_WALKS.values(), ids=CHAIN_WALKS.keys())
def test_chains_run_on_own_streams_and_merge_in_chain_order(walk):
    # chain 0 has spawn key 0 whatever the chain count, so a 3-chain run of
    # 3m draws starts with the m draws of a 1-chain run on the same seed
    m = 12
    three = walk(n_chains=3, n_samples=3 * m, seed=17, burn_in=20, thinning=2).points
    one = walk(n_chains=1, n_samples=m, seed=17, burn_in=20, thinning=2).points
    assert three.shape[0] == 3 * m
    assert np.array_equal(three[:m], one)
    assert not np.array_equal(three[m : 2 * m], one)


def test_only_chains_that_return_draws_run():
    # 40 draws from 32 chains keep 2 each, so 20 chains hold all of them; 5
    # draws from 4 chains keep 2 each, so 3 chains do
    spec = SchattenSpec("R", "Full", 2, math.inf)
    walk = sp.matrix_hit_and_run(spec, 40, seed=3, burn_in=0)
    twenty = sp.matrix_hit_and_run(spec, 40, seed=3, burn_in=0, n_chains=20)
    assert walk.diagnostics["chains"] == 20
    assert np.array_equal(walk.points, twenty.points)
    params = EnsembleParams(2, 1, 0, 3)
    gas = sp.mcmc_sample(params, 4.0, n_chains=4, n_samples=5, seed=3, burn_in=20)
    three = sp.mcmc_sample(params, 4.0, n_chains=3, n_samples=5, seed=3, burn_in=20)
    assert gas.diagnostics["chains"] == 3
    assert np.array_equal(gas.points, three.points)
    assert np.array_equal(gas.diagnostics["acceptance"], three.diagnostics["acceptance"])


@pytest.mark.parametrize("abc", [(2, 1, 0), (2, 2, 1), (2, 4, 3)])
@pytest.mark.parametrize("n", [1, 2, 16])
def test_laguerre_chunk_matches_dense_bidiagonal_product(abc, n):
    # the same chi-square draws, squared into the dense B B^T of the
    # bidiagonal Laguerre model, must give the chunk's eigenvalues
    params = EnsembleParams(*abc, n)
    m = 200
    x = sp._draw_chunks(sp._laguerre_draws, params, m, np.random.default_rng(51), map)
    rng = np.random.default_rng(51)
    a, b, c = abc
    bid = np.zeros((m, n, n))
    idx = np.arange(n)
    bid[:, idx, idx] = np.sqrt(rng.chisquare(b * (n - 1) + c + 1 - b * idx, size=(m, n)))
    if n > 1:
        j = np.arange(n - 1)
        bid[:, j + 1, j] = np.sqrt(rng.chisquare(b * (n - 1 - j), size=(m, n - 1)))
    y = np.linalg.eigvalsh(bid @ bid.transpose(0, 2, 1)) / 2.0
    assert np.max(np.abs(x**2 - y)) <= 1e-12 * np.max(y)


@pytest.mark.parametrize("b", [1, 2, 4])
@pytest.mark.parametrize("n", [1, 2, 16])
def test_hermite_chunk_matches_dense_tridiagonal(b, n):
    # the same normal and chi draws, in the dense symmetric tridiagonal
    # Gaussian beta model, must give the chunk's eigenvalues
    params = EnsembleParams(1, b, 0, n)
    m = 200
    x = sp._draw_chunks(sp._hermite_draws, params, m, np.random.default_rng(51), map)
    rng = np.random.default_rng(51)
    tri = np.zeros((m, n, n))
    idx = np.arange(n)
    tri[:, idx, idx] = rng.standard_normal((m, n))
    if n > 1:
        j = np.arange(n - 1)
        off = np.sqrt(rng.chisquare(b * (n - 1 - j), size=(m, n - 1))) / math.sqrt(2.0)
        tri[:, j + 1, j] = off
        tri[:, j, j + 1] = off
    y = np.linalg.eigvalsh(tri) / math.sqrt(2.0)
    assert np.max(np.abs(x - y)) <= 1e-12 * np.max(np.abs(y))


@pytest.mark.parametrize("abc", [(1, 1, 0), (1, 2, 0), (2, 1, 0), (2, 2, 1), (2, 4, 3)])
def test_exact_p2_draws_do_not_depend_on_the_core_count(abc, monkeypatch):
    s, chunk = sp._EIG_SLICE, sp._EIG_CHUNK
    budgets = (1, s - 1, s, s + 1, chunk, chunk + 1, 10_000)
    pools = []
    pool_cls = concurrent.futures.ThreadPoolExecutor

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool started at one core")

    def counted_pool(workers):
        pools.append(workers)
        return pool_cls(workers)

    for n in (1, 2, 16):
        params = EnsembleParams(*abc, n)
        for budget in budgets:
            monkeypatch.setattr(sp, "_cores", lambda: 1)
            monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
            serial = sp.exact_p2_sample(params, budget, seed=budget).points
            monkeypatch.setattr(sp, "_cores", lambda: 3)
            monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", counted_pool)
            pools.clear()
            threaded = sp.exact_p2_sample(params, budget, seed=budget).points
            assert serial.shape == (budget, n)
            assert np.array_equal(serial, threaded)
            slices = -(-min(budget, chunk) // s)
            assert pools == ([min(3, slices)] if slices > 1 else [])


def test_import_starts_no_pool_machinery():
    # concurrent.futures imports logging; the exact sampler imports it only
    # when it starts a pool, so it never adds to the import time
    code = ("import sys, schattenlab, schattenlab.cli; "
            "print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_mcmc_reports_burn_in_share():
    for walk in CHAIN_WALKS.values():
        batch = walk(n_chains=2, n_samples=30, seed=6, burn_in=10, thinning=2)
        # 2 chains x 10 burn-in sweeps against 30 draws x 2 sweeps each
        assert batch.diagnostics["burn_in_share"] == pytest.approx(20 / 80)


def test_exact_vs_mcmc_max_coordinate_ks():
    # two-sample Kolmogorov-Smirnov on max |x_i|
    params = EnsembleParams(2, 1, 0, 3)
    a = np.sort(np.max(np.abs(sp.exact_p2_sample(params, 100_000, seed=3).points), axis=1))
    b = np.sort(np.max(np.abs(
        sp.mcmc_sample(params, 2.0, n_chains=4, n_samples=100_000, seed=4).points), axis=1))
    grid = np.concatenate([a, b])
    fa = np.searchsorted(a, grid, side="right") / len(a)
    fb = np.searchsorted(b, grid, side="right") / len(b)
    assert np.max(np.abs(fa - fb)) < 0.02


def test_pushforward_support_and_transfer():
    params = EnsembleParams(2, 1, 0, 3)
    p = 4.0
    gas = sp.mcmc_sample(params, p, n_chains=4, n_samples=40_000, seed=5)
    ball = sp.ball_pushforward(gas, params, p, seed=6)
    norms = np.sum(np.abs(ball.points) ** p, axis=1) ** (1.0 / p)
    assert np.max(norms) <= 1.0 + 1e-12
    vg = np.sum(gas.points**2, axis=1)
    vb = np.sum(ball.points**2, axis=1)
    m_b, se_b, _ = batch_means(vb)
    m_g, se_g, _ = batch_means(vg)
    target = math.exp(math.lgamma(1 + params.d / p) - math.lgamma(1 + (params.d + 2) / p))
    ratio = m_b / m_g
    se = ratio * math.hypot(se_b / m_b, se_g / m_g)
    assert abs(ratio - target) <= 3.0 * se


def test_pushforward_preserves_signs():
    params = EnsembleParams(1, 2, 0, 3)
    gas = sp.mcmc_sample(params, 2.0, n_chains=2, n_samples=5000, seed=12)
    ball = sp.ball_pushforward(gas, params, 2.0, seed=13)
    assert np.array_equal(np.sign(ball.points), np.sign(gas.points))


def test_pushforward_identity_at_infinity():
    params = EnsembleParams(2, 1, 0, 2)
    gas = sp.mcmc_sample(params, math.inf, n_chains=2, n_samples=2000, seed=14)
    ball = sp.ball_pushforward(gas, params, math.inf, seed=15)
    assert ball.points is gas.points


def test_pushforward_skips_zero_points():
    params = EnsembleParams(2, 1, 0, 2)
    batch = sp.SampleBatch(points=np.array([[0.0, 0.0], [1.0, 0.5]]))
    out = sp.ball_pushforward(batch, params, 2.0, seed=16)
    assert len(out) == 1
    assert out.diagnostics["skipped_zero_points"] == 1


def test_hit_and_run_membership_examples():
    spec = SchattenSpec("R", "Full", 2, math.inf)
    half = ml.coords_to_entries(spec, np.array([[0.5, 0, 0, 0.5]]))
    assert ml.schatten_norms("R", half, math.inf)[0] <= 1.0
    assert ml.schatten_norms("R", 1.2 * half, 1.0)[0] > 1.0


def test_hit_and_run_stays_inside_and_replays():
    spec = SchattenSpec("C", "Full", 2, 3.0)
    a = sp.matrix_hit_and_run(spec, n_samples=1500, seed=2, burn_in=50)
    norms = ml.schatten_norms("C", ml.coords_to_entries(spec, a.points), 3.0)
    assert np.max(norms) <= 1.0 + 1e-9
    b = sp.matrix_hit_and_run(spec, n_samples=1500, seed=2, burn_in=50)
    assert np.array_equal(a.points, b.points)


def test_hit_and_run_agrees_with_pushforward():
    # second moment of ||T||_2^2 via two independent routes (n=3, field R, p=4)
    spec = SchattenSpec("R", "Full", 3, 4.0)
    hr = sp.matrix_hit_and_run(spec, n_samples=12_000, seed=21)
    v_hr = ml.frobenius_sq_batch(spec, hr.points)
    m1, se1, _ = batch_means(v_hr)

    params = EnsembleParams(2, 1, 0, 3)
    gas = sp.mcmc_sample(params, 4.0, n_chains=4, n_samples=40_000, seed=22)
    ball = sp.ball_pushforward(gas, params, 4.0, seed=23)
    v_pf = np.sum(ball.points**2, axis=1)
    m2, se2, _ = batch_means(v_pf)
    assert abs(m1 - m2) <= 3.0 * math.hypot(se1, se2)


def test_hit_and_run_entry_symmetries():
    # means of |a_11|^2, |a_12|^2, |a_21|^2 agree (position symmetry)
    spec = SchattenSpec("R", "Full", 3, math.inf)
    batch = sp.matrix_hit_and_run(spec, n_samples=12_000, seed=24)
    entries = ml.coords_to_entries(spec, batch.points)
    stats = {}
    for key, (i, j) in {"a11": (0, 0), "a12": (0, 1), "a21": (1, 0)}.items():
        stats[key] = batch_means(entries[:, i, j] ** 2)
    for key in ("a12", "a21"):
        m0, s0, _ = stats["a11"]
        m1, s1, _ = stats[key]
        assert abs(m0 - m1) <= 3.0 * math.hypot(s0, s1)


@pytest.mark.parametrize("p", [1.0, 3.0, math.inf])
def test_hit_and_run_chords_of_the_interval_are_uniform(p):
    # at n=1 every chord is the whole ball [-1, 1], so the walk draws iid U(-1, 1)
    spec = SchattenSpec("R", "Full", 1, p)
    x = sp.matrix_hit_and_run(spec, n_samples=20_000, seed=28, burn_in=0).points[:, 0]
    n = len(x)
    se = math.sqrt((1.0 / 5.0 - 1.0 / 9.0) / n)  # Var x^2 = E x^4 - (E x^2)^2
    assert abs(np.mean(x**2) - 1.0 / 3.0) <= 3.0 * se
    lag1 = np.sum(x[1:] * x[:-1]) / np.sum(x**2)
    assert abs(lag1) <= 3.0 / math.sqrt(n)


def test_hit_and_run_meets_the_frobenius_ball_law():
    # C SelfAdjoint n=3 has D = 9 real coordinates and they are an isometry,
    # so the uniform ball law gives E ||T||_2^2 = D / (D + 2)
    spec = SchattenSpec("C", "SelfAdjoint", 3, 2.0)
    batch = sp.matrix_hit_and_run(spec, n_samples=20_000, seed=29)
    m, se, _ = batch_means(ml.frobenius_sq_batch(spec, batch.points))
    d = spec.dim
    assert abs(m - d / (d + 2.0)) <= 3.0 * se


def test_exact_ball_sampler_uniformity():
    spec = SchattenSpec("R", "Full", 2, 2.0)
    batch = sp.exact_p2_matrix_sample(spec, 50_000, seed=25)
    v = ml.frobenius_sq_batch(spec, batch.points)
    d = spec.dim
    m, se, _ = batch_means(v)
    assert abs(m - d / (d + 2.0)) <= 3.0 * se
    with pytest.raises(sp.SamplerUnavailable):
        sp.exact_p2_matrix_sample(SchattenSpec("R", "Full", 2, 3.0), 10)


def test_coords_round_trip_dimensions():
    for spec in [
        SchattenSpec("R", "Full", 3, 2.0),
        SchattenSpec("C", "Full", 3, 2.0),
        SchattenSpec("H", "Full", 2, 2.0),
        SchattenSpec("R", "SelfAdjoint", 3, 2.0),
        SchattenSpec("C", "SelfAdjoint", 3, 2.0),
        SchattenSpec("H", "SelfAdjoint", 2, 2.0),
        SchattenSpec("C", "AntiSymHermitian", 4, 2.0),
        SchattenSpec("C", "AntiSymHermitian", 5, 2.0),
        SchattenSpec("C", "ComplexSymmetric", 3, 2.0),
    ]:
        rng = np.random.default_rng(26)
        coords = rng.standard_normal((5, spec.dim))
        entries = ml.coords_to_entries(spec, coords)
        assert entries.shape[0] == 5 and entries.shape[1] == spec.n
        # frobenius consistency against singular values
        sv = ml.batch_singular_values(spec, coords)
        v = ml.frobenius_sq_batch(spec, coords)
        mult = 2.0 if spec.subspace == "AntiSymHermitian" else 1.0
        if spec.subspace == "AntiSymHermitian":
            s = sv[:, 0 : 2 * (spec.n // 2) : 2]
        else:
            s = sv
        assert np.allclose(mult * np.sum(s**2, axis=1), v, rtol=1e-9)


def test_hermitian_coords_give_hermitian_matrices():
    spec = SchattenSpec("C", "SelfAdjoint", 3, 2.0)
    rng = np.random.default_rng(27)
    e = ml.coords_to_entries(spec, rng.standard_normal((4, spec.dim)))
    assert np.allclose(e, e.conj().transpose(0, 2, 1))
    # anti-symmetric Hermitian: T is Hermitian with T^t = -T
    spec = SchattenSpec("C", "AntiSymHermitian", 4, 2.0)
    e = ml.coords_to_entries(spec, rng.standard_normal((4, spec.dim)))
    assert np.allclose(e, e.conj().transpose(0, 2, 1))
    assert np.allclose(e.transpose(0, 2, 1), -e)
