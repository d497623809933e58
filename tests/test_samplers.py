import math
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from schattenlab.density import log_f_p
from schattenlab.ensembles import EnsembleParams, SchattenSpec
from schattenlab import exact
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


_A1_FUNCTIONALS = ("norm2_sq", "norm2_4", "x1_pow4")


def _z_against_reference(gas, reference):
    """z of the draws' E ||x||^2, E ||x||^4 and E x1^4 against reference values."""
    out = {}
    for fid in _A1_FUNCTIONALS:
        est = mo.estimate_moment(gas, fid)
        out[fid] = (est.value - reference[fid]) / est.std_err
    return out


def _a1_reference(params):
    """E ||x||^2, E ||x||^4 and E x1^4 at p=inf: the oracle's up to n = 3,
    the exact table's beyond."""
    if params.n <= mo.ORACLE_MAX_N:
        ests = mo.quadrature_moments(params, math.inf, _A1_FUNCTIONALS)
        return {fid: est.value for fid, est in ests.items()}
    (_, (x4, cross, x2)), n = exact.gas_moments(params, math.inf), params.n
    return {"norm2_sq": float(n * x2), "norm2_4": float(n * x4 + n * (n - 1) * cross),
            "x1_pow4": float(x4)}


@pytest.mark.parametrize("seed", [0, 1])
def test_metropolis_meets_the_oracle_on_a1_families_at_p_inf(seed):
    # the a=1 (SelfAdjoint) gases at p=inf have no exact sampler, so
    # Metropolis is tested against the quadrature oracle (n <= 3) and the
    # exact Selberg averages (n = 8)
    for n in (2, 3, 8):
        reference, drawn = {}, {}
        for abc in ((1, 1, 0), (1, 2, 0), (1, 4, 0)):
            params = EnsembleParams(*abc, n)
            reference[abc] = _a1_reference(params)
            drawn[abc] = sp.mcmc_sample(params, math.inf, n_samples=20_000, seed=seed)
            z = _z_against_reference(drawn[abc], reference[abc])
            assert all(abs(v) <= 3.0 for v in z.values()), (abc, n, z)
        # planted fault: (1,2,0) draws against the (1,1,0) values
        wrong = _z_against_reference(drawn[(1, 2, 0)], reference[(1, 1, 0)])
        assert all(abs(v) > 3.0 for v in wrong.values()), (n, wrong)


def test_exact_p2_moments():
    for params, expect in [
        (EnsembleParams(2, 1, 0, 2), 2.0),
        (EnsembleParams(1, 2, 0, 3), 4.5),
    ]:
        batch = sp.exact_p2_sample(params, 40_000, seed=11)
        est = mo.estimate_moment(batch, "norm2_sq")
        assert abs(est.value - expect) <= 3.0 * est.std_err


def test_exact_p2_sample_meets_the_gaussian_closed_forms():
    # exact p=2 draws against the closed forms var_mp_pipeline reads when it
    # is given no draws
    drawn = {}
    for abc, n in (((2, 1, 0), 8), ((2, 2, 1), 8), ((1, 1, 0), 8), ((2, 4, 3), 4),
                   ((2, 1, 1), 4), ((2, 2, 0), 4), ((1, 2, 0), 4), ((1, 4, 0), 4)):
        params = EnsembleParams(*abc, n)
        gas = sp.exact_p2_sample(params, 40_000, seed=123)
        drawn[abc] = mo.var_mp_pipeline(params, 2.0, gas=gas)
        exact = mo.var_mp_pipeline(params, 2.0)
        assert (drawn[abc].method, exact.method) == ("exact-p2", "exact-gaussian")
        z = _z_against_exact(drawn[abc], exact)
        assert all(abs(v) <= 3.0 for v in z.values()), (abc, n, z)
    # planted fault: (2,2,1) draws against the (2,1,0) closed forms at n=8
    wrong = _z_against_exact(drawn[(2, 2, 1)],
                             mo.var_mp_pipeline(EnsembleParams(2, 1, 0, 8), 2.0))
    assert all(abs(v) > 3.0 for v in wrong.values()), wrong


def test_exact_p2_replay_and_unavailable():
    params = EnsembleParams(2, 3, 2, 3)
    a = sp.exact_p2_sample(params, 500, seed=1)
    b = sp.exact_p2_sample(params, 500, seed=1)
    assert np.array_equal(a.points, b.points)
    with pytest.raises(sp.SamplerUnavailable):
        sp.exact_p2_sample(EnsembleParams(1, 1, 1, 3), 10)
    with pytest.raises(sp.SamplerUnavailable):
        sp.exact_p2_sample(EnsembleParams(3, 1, 0, 3), 10)


def test_gas_sample_falls_back_to_metropolis_at_p2():
    # no exact p=2 model for (1,1,1): the router must hand the chain kwargs
    # to Metropolis and return its draws unchanged
    params = EnsembleParams(1, 1, 1, 3)
    kw = {"n_chains": 3, "burn_in": 50}
    batch = sp.gas_sample(params, 2.0, 500, 7, mcmc_kwargs=kw)
    ref = sp.mcmc_sample(params, 2.0, n_samples=500, seed=7, **kw)
    assert (batch.diagnostics["method"], batch.diagnostics["chains"]) == ("mcmc", 3)
    assert np.array_equal(batch.points, ref.points)
    assert not np.array_equal(batch.points, sp.gas_sample(params, 2.0, 500, 7).points)


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
    for bad in ({"n_chains": 0}, {"burn_in": -1}):
        with pytest.raises(ValueError, match="n_chains >= 1 and burn_in >= 0"):
            sp.mcmc_sample(params, 4.0, n_samples=10, **bad)
        with pytest.raises(ValueError, match="n_chains >= 1 and burn_in >= 0"):
            sp.matrix_hit_and_run(spec, 10, **bad)


def _serial_metropolis_chain(params, p, keep, burn_in, seed_seq):
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
        for sweep in range(burn_in + keep):
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
            if sweep >= burn_in:
                out.append(x.copy())
    return np.array(out)


@pytest.mark.parametrize("abc, n, p, chains", [
    ((2, 1, 0), 3, 4.0, 3), ((2, 2, 1), 3, math.inf, 2), ((1, 2, 0), 3, 2.0, 2),
    ((2, 2, 1), 4, 1.0, 4), ((1, 1, 0), 1, 2.0, 1),
])
def test_lockstep_metropolis_matches_serial_chains(abc, n, p, chains):
    params = EnsembleParams(*abc, n)
    batch = sp.mcmc_sample(params, p, n_chains=chains, n_samples=60 * chains, seed=31,
                           burn_in=120, validate=True)
    seqs = np.random.SeedSequence(31).spawn(chains)
    ref = [_serial_metropolis_chain(params, p, 60, 120, s) for s in seqs]
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
    three = walk(n_chains=3, n_samples=3 * m, seed=17, burn_in=20).points
    one = walk(n_chains=1, n_samples=m, seed=17, burn_in=20).points
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


def _chunk_streams(seed, m):
    """(rows, generator) of each chunk of an m-draw exact p=2 run: chunk j
    holds rows j*_CHUNK onwards and draws from child j of the seed."""
    sizes = [min(sp._CHUNK, m - start) for start in range(0, m, sp._CHUNK)]
    children = np.random.SeedSequence(seed).spawn(len(sizes))
    return [(slice(j * sp._CHUNK, j * sp._CHUNK + k), np.random.default_rng(child))
            for j, (k, child) in enumerate(zip(sizes, children))]


@pytest.mark.parametrize("abc", [(2, 1, 0), (2, 2, 1), (2, 4, 3)])
@pytest.mark.parametrize("n", [1, 2, 16])
def test_laguerre_chunk_matches_dense_bidiagonal_product(abc, n):
    # each chunk's chi-square draws, squared into the dense B B^T of the
    # bidiagonal Laguerre model, must give the chunk's eigenvalues
    params = EnsembleParams(*abc, n)
    m = sp._CHUNK + 200
    x = sp.exact_p2_sample(params, m, seed=51).points
    a, b, c = abc
    for rows, rng in _chunk_streams(51, m):
        k = rows.stop - rows.start
        bid = np.zeros((k, n, n))
        idx = np.arange(n)
        bid[:, idx, idx] = np.sqrt(rng.chisquare(b * (n - 1) + c + 1 - b * idx, size=(k, n)))
        if n > 1:
            j = np.arange(n - 1)
            bid[:, j + 1, j] = np.sqrt(rng.chisquare(b * (n - 1 - j), size=(k, n - 1)))
        y = np.linalg.eigvalsh(bid @ bid.transpose(0, 2, 1)) / 2.0
        assert np.max(np.abs(x[rows] ** 2 - y)) <= 1e-12 * np.max(y)


@pytest.mark.parametrize("b", [1, 2, 4])
@pytest.mark.parametrize("n", [1, 2, 16])
def test_hermite_chunk_matches_dense_tridiagonal(b, n):
    # each chunk's normal and chi draws, in the dense symmetric tridiagonal
    # Gaussian beta model, must give the chunk's eigenvalues
    params = EnsembleParams(1, b, 0, n)
    m = sp._CHUNK + 200
    x = sp.exact_p2_sample(params, m, seed=51).points
    for rows, rng in _chunk_streams(51, m):
        k = rows.stop - rows.start
        tri = np.zeros((k, n, n))
        idx = np.arange(n)
        tri[:, idx, idx] = rng.standard_normal((k, n))
        if n > 1:
            j = np.arange(n - 1)
            off = np.sqrt(rng.chisquare(b * (n - 1 - j), size=(k, n - 1))) / math.sqrt(2.0)
            tri[:, j + 1, j] = off
            tri[:, j, j + 1] = off
        y = np.linalg.eigvalsh(tri) / math.sqrt(2.0)
        assert np.max(np.abs(x[rows] - y)) <= 1e-12 * np.max(np.abs(y))


def _dense_tridiagonal(d, e):
    """The dense symmetric tridiagonal matrices with diagonals d (m, n) and
    sub-diagonals e (m, n-1)."""
    m, n = d.shape
    t = np.zeros((m, n, n))
    idx = np.arange(n)
    t[:, idx, idx] = d
    j = np.arange(n - 1)
    t[:, j + 1, j] = t[:, j, j + 1] = e
    return t


def _tridiagonal_cases(n, m=64):
    """Named (diagonals, sub-diagonals) batches of the kernel's test inputs."""
    rng = np.random.default_rng(100 + n)
    hermite, hermite_sq, _ = sp._hermite_draws(EnsembleParams(1, 2, 0, n), m, rng)
    laguerre, laguerre_sq, _ = sp._laguerre_draws(EnsembleParams(2, 4, 3, n), m, rng)
    diag = rng.standard_normal((m, n))
    graded = np.tile(np.logspace(-8, 8, n), (m, 1))
    return {
        "hermite": (hermite, np.sqrt(hermite_sq)),
        "laguerre": (laguerre, np.sqrt(laguerre_sq)),
        "split": (diag, np.zeros((m, n - 1))),  # eigenvalues: the sorted diagonal
        "sub-diagonal 1e-200": (diag, np.full((m, n - 1), 1e-200)),  # squares to 0
        "sub-diagonal 1e-100": (diag, np.full((m, n - 1), 1e-100)),
        "equal diagonal": (np.full((m, n), 1.5), rng.random((m, n - 1))),
        "zero diagonal": (np.zeros((m, n)), rng.random((m, n - 1))),
        "multiple of I": (np.full((m, n), -2.0), np.zeros((m, n - 1))),
        "zero": (np.zeros((m, n)), np.zeros((m, n - 1))),
        "graded": (graded, rng.random((m, n - 1))),
        "graded reversed": (graded[:, ::-1], rng.random((m, n - 1))),
    }


def _cases_missing_eigvalsh(n):
    """Names of the cases at size n where the kernel, given the squared
    sub-diagonals, misses eigvalsh of the dense matrices by more than 1e-13
    of a matrix's largest |eigenvalue|, or changes its inputs."""
    missed = []
    for name, (d, e) in _tridiagonal_cases(n).items():
        ref = np.linalg.eigvalsh(_dense_tridiagonal(d, e))
        d_in, e2_in = d.copy(), e * e
        lam = sp._tridiagonal_eigvalsh(d_in, e2_in)
        close = np.abs(lam - ref) <= 1e-13 * np.max(np.abs(ref), axis=1, keepdims=True)
        if not (close.all() and np.array_equal(d_in, d) and np.array_equal(e2_in, e * e)):
            missed.append(name)
    return missed


@pytest.mark.parametrize("n", [1, 2, 3, 16, 32])
def test_tridiagonal_kernel_meets_eigvalsh(n):
    assert _cases_missing_eigvalsh(n) == []


def _rows_depend_on_their_batch(abc):
    """Whether any of 4096 n=16 models of the gas abc gets eigenvalue bits in
    the whole batch other than in the batch reversed, in blocks of 64, or
    alone (every 97th matrix)."""
    draw = sp._hermite_draws if abc[0] == 1 else sp._laguerre_draws
    d, e2, _ = draw(EnsembleParams(*abc, 16), 4096, np.random.default_rng(7))
    lam = sp._tridiagonal_eigvalsh(d, e2)
    others = [sp._tridiagonal_eigvalsh(d[::-1], e2[::-1])[::-1],
              np.concatenate([sp._tridiagonal_eigvalsh(d[j : j + 64], e2[j : j + 64])
                              for j in range(0, 4096, 64)])]
    alone = [sp._tridiagonal_eigvalsh(d[j : j + 1], e2[j : j + 1]) for j in range(0, 4096, 97)]
    return not (all(np.array_equal(lam, o) for o in others)
                and np.array_equal(lam[::97], np.concatenate(alone)))


@pytest.mark.parametrize("abc", [(1, 1, 0), (2, 4, 3)])
def test_tridiagonal_kernel_rows_do_not_depend_on_their_batch(abc):
    # so the gas draws are prefix-stable whatever group a chunk is solved in
    assert not _rows_depend_on_their_batch(abc)


def _fixed_sweeps_only(d, e2):
    """A planted fault in samplers._ql_converged: every matrix passes, so no
    matrix takes sweeps of its own after the fixed ones."""
    return np.ones(d.shape[1], dtype=bool)


def _batch_converged(d, e2, converged=sp._ql_converged):
    """A planted fault in samplers._ql_converged: a matrix passes only when
    every matrix of its batch does, so all are swept until the batch has
    converged."""
    passed = converged(d, e2)
    return np.full(passed.shape, passed.all())


def test_tridiagonal_kernel_faults_are_caught(monkeypatch):
    monkeypatch.setattr(sp, "_ql_converged", _fixed_sweeps_only)
    assert _cases_missing_eigvalsh(16) and _cases_missing_eigvalsh(32)
    monkeypatch.setattr(sp, "_ql_converged", _batch_converged)
    assert _rows_depend_on_their_batch((2, 4, 3))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("n, entry", [(1, "diagonal"), (2, "diagonal"), (2, "sub-diagonal"),
                                      (16, "diagonal"), (16, "sub-diagonal")])
def test_tridiagonal_kernel_raises_on_a_non_finite_row(bad, n, entry):
    # a NaN never passes the convergence test: the sweep cap must end it
    d, e2, _ = sp._hermite_draws(EnsembleParams(1, 1, 0, n), 8, np.random.default_rng(3))
    (d if entry == "diagonal" else e2)[5, n // 2 - 1] = bad
    with pytest.raises(np.linalg.LinAlgError, match=r"rows \[5\]"):
        sp._tridiagonal_eigvalsh(d, e2)


def _exact_sampler(abc, n):
    """(draw(budget, seed) -> points, row width) of the exact sampler that abc
    names: a gas ensemble (a, b, c), or, as a field letter, the Full
    Frobenius ball over that field.  Both loop over samplers._chunk_streams."""
    if isinstance(abc, str):
        spec = SchattenSpec(abc, "Full", n, 2.0)
        return (lambda budget, seed: sp.exact_p2_matrix_sample(spec, budget, seed).points), spec.dim
    params = EnsembleParams(*abc, n)
    return (lambda budget, seed: sp.exact_p2_sample(params, budget, seed).points), n


def _ball_chunks_follow_their_streams(spec, points, seed):
    """Whether each chunk of exact ball draws is, to rounding, its child
    stream's standard normal rows scaled to unit length, then by u^(1/dim)
    with its uniforms u drawn after them."""
    dim = spec.dim
    for rows, rng in _chunk_streams(seed, len(points)):
        k = rows.stop - rows.start
        g = rng.standard_normal((k, dim))
        want = g / np.sqrt(np.sum(g * g, axis=1))[:, None] * rng.random((k, 1)) ** (1.0 / dim)
        if not np.max(np.abs(points[rows] - want)) <= 1e-14:
            return False
    return True


@pytest.mark.parametrize("field", ["R", "C", "H"])
@pytest.mark.parametrize("n", [1, 4])
def test_exact_ball_chunks_follow_their_child_streams(field, n):
    spec = SchattenSpec(field, "Full", n, 2.0)
    m = 2 * sp._CHUNK + 200
    assert _ball_chunks_follow_their_streams(spec, sp.exact_p2_matrix_sample(spec, m, 51).points, 51)


@pytest.mark.parametrize("abc", [(1, 1, 0), (1, 2, 0), (2, 1, 0), (2, 2, 1), (2, 4, 3), "R", "C"])
def test_exact_p2_draws_do_not_depend_on_the_core_count(abc, monkeypatch):
    # neither sampler may read the core count or start a thread, so with all
    # three made to raise every budget still draws, and draws the same
    def forbidden(*args, **kwargs):
        raise AssertionError("an exact sampler read the core count or started a thread")

    chunk = sp._CHUNK
    budgets = (1, chunk - 1, chunk, chunk + 1, 10_000)
    for n in (1, 2, 16):
        draw, width = _exact_sampler(abc, n)
        free = [draw(budget, budget) for budget in budgets]
        with monkeypatch.context() as m:
            m.setattr(os, "sched_getaffinity", forbidden, raising=False)
            m.setattr(os, "cpu_count", forbidden)
            m.setattr(threading.Thread, "start", forbidden)
            for budget, want in zip(budgets, free):
                points = draw(budget, budget)
                assert points.shape == (budget, width)
                assert np.array_equal(points, want)


def _prefix_stable(abc, n):
    draw, _ = _exact_sampler(abc, n)
    budget = 2 * sp._CHUNK
    return np.array_equal(draw(budget + 7, 61)[:budget], draw(budget, 61))


@pytest.mark.parametrize("abc", [(1, 1, 0), (2, 2, 1), (2, 4, 3), "R", "C"])
@pytest.mark.parametrize("n", [2, 16])
def test_exact_p2_draws_are_prefix_stable(abc, n):
    # chunk j draws from child j of the seed, so a longer budget only
    # appends draws after the last full chunk
    assert _prefix_stable(abc, n)


def _reversed_streams(seed, n_samples):
    """A planted fault in samplers._chunk_streams: chunk j draws from child
    n_chunks - 1 - j of the seed."""
    children = np.random.SeedSequence(seed).spawn(-(-n_samples // sp._CHUNK))
    for j, child in enumerate(reversed(children)):
        rows = slice(j * sp._CHUNK, min((j + 1) * sp._CHUNK, n_samples))
        yield rows, np.random.default_rng(child)


def _shared_stream(seed, n_samples):
    """A planted fault in samplers._chunk_streams: every chunk draws, in
    order, from one stream of the seed."""
    rng = np.random.default_rng(seed)
    for start in range(0, n_samples, sp._CHUNK):
        yield slice(start, min(start + sp._CHUNK, n_samples)), rng


@pytest.mark.parametrize("fault", [_reversed_streams, _shared_stream])
def test_exact_p2_stream_faults_are_caught(fault, monkeypatch):
    # either fault breaks the chunk-to-child-stream law; reversed streams
    # also break prefix stability (a shared stream run in order keeps it)
    monkeypatch.setattr(sp, "_chunk_streams", fault)
    spec = SchattenSpec("R", "Full", 4, 2.0)
    m = 2 * sp._CHUNK + 200
    assert not _ball_chunks_follow_their_streams(spec, sp.exact_p2_matrix_sample(spec, m, 51).points, 51)
    if fault is _reversed_streams:
        assert not _prefix_stable((2, 2, 1), 2)
        assert not _prefix_stable("C", 2)


@pytest.mark.parametrize("full_chunks", [3, 1])
def test_exact_p2_worker_exception_reaches_the_caller(full_chunks, monkeypatch):
    # only the short chunk after `full_chunks` full ones raises; its error
    # must reach the caller and not be lost with the chunks before it
    draws, einsum = sp._laguerre_draws, np.einsum

    def failing(params, m, rng):
        if m != sp._CHUNK:
            raise RuntimeError("last chunk")
        return draws(params, m, rng)

    def failing_einsum(subscripts, g, *args, **kwargs):  # the ball's squared norms
        if len(g) != sp._CHUNK:
            raise RuntimeError("last chunk")
        return einsum(subscripts, g, *args, **kwargs)

    monkeypatch.setattr(sp, "_laguerre_draws", failing)
    monkeypatch.setattr(np, "einsum", failing_einsum)
    for abc in ((2, 1, 0), "R"):
        draw, _ = _exact_sampler(abc, 4)
        with pytest.raises(RuntimeError, match="last chunk"):
            draw(full_chunks * sp._CHUNK + 5, 0)


def test_exact_p2_memory_beyond_the_draws_does_not_grow_with_budget():
    # past the draws, only the running group's buffers and temporaries
    # remain, so the peak beyond the draws barely moves between one full
    # group (_GROUP chunks) and 64 chunks
    for abc, n in (((2, 4, 3), 16), ("R", 4)):
        draw, _ = _exact_sampler(abc, n)
        draw(2 * sp._CHUNK, 0)  # first-call costs are not the budget's
        extra = []
        for k in (sp._GROUP, 64):
            tracemalloc.start()
            try:
                points = draw(k * sp._CHUNK, 0)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            extra.append(peak - points.nbytes)
        assert abs(extra[1] - extra[0]) < 1e6, (abc, extra)


def test_exact_p2_peak_beyond_the_draws_holds_one_group():
    # at n=16 a full group's diagonal and sub-diagonal buffers, the QL
    # kernel's working arrays and one chunk's draws come to about 3.7 model
    # arrays, a model array being the diagonal and sub-diagonal of 4096
    # matrices; a spent group's buffers kept alive while the next group is
    # solved add about 2.5.  The bound is in bytes, whatever _GROUP is, and
    # the budget spans two full groups.
    n = 16
    draw, _ = _exact_sampler((2, 4, 3), n)
    draw(2 * sp._CHUNK, 0)  # first-call costs are not the budget's
    model = 4 * sp._CHUNK * (2 * n - 1) * 8
    tracemalloc.start()
    try:
        points = draw(2 * sp._GROUP * sp._CHUNK, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - points.nbytes < 4 * model, (peak - points.nbytes) / model


def _chunkwise_draws(abc, n, m, seed):
    """Exact p=2 gas draws with each chunk solved alone: the chunk's own
    models, reversed, through _tridiagonal_eigvalsh, then its finish."""
    params = EnsembleParams(*abc, n)
    draw = sp._hermite_draws if abc[0] == 1 else sp._laguerre_draws
    out = np.empty((m, n))
    for rows, rng in _chunk_streams(seed, m):
        d, e2, finish = draw(params, rows.stop - rows.start, rng)
        out[rows] = sp._tridiagonal_eigvalsh(d[:, ::-1], e2[:, ::-1])
        finish(out[rows])
    return out


@pytest.mark.parametrize("abc", [(1, 1, 0), (2, 4, 3)])
@pytest.mark.parametrize("n", [2, 16])
def test_exact_p2_groups_draw_what_each_chunk_draws_alone(abc, n):
    # the group buffers hold each chunk's models in its own columns, so the
    # draws are those of every chunk solved on its own, byte for byte
    params = EnsembleParams(*abc, n)
    for m in (sp._GROUP * sp._CHUNK, sp._GROUP * sp._CHUNK + 1, 2 * sp._GROUP * sp._CHUNK + 5):
        x = sp.exact_p2_sample(params, m, seed=m).points
        assert x.tobytes() == _chunkwise_draws(abc, n, m, m).tobytes(), m


def _ql_widths(monkeypatch, budget):
    """The matrix count of each _ql_solve call of an n=4 (2,4,3) gas run of
    budget draws."""
    widths, solve = [], sp._ql_solve

    def counted(d, e2):
        widths.append(d.shape[1])
        solve(d, e2)

    with monkeypatch.context() as mp:
        mp.setattr(sp, "_ql_solve", counted)
        sp.exact_p2_sample(EnsembleParams(2, 4, 3, 4), budget, 0)
    return widths


def _solves_ten_chunks_per_call(monkeypatch):
    group = 10 * sp._CHUNK
    return (_ql_widths(monkeypatch, 10_000) == [10_000]
            and _ql_widths(monkeypatch, 2 * group + 1) == [group, group, 1])


def test_exact_p2_solves_ten_thousand_draws_in_one_call(monkeypatch):
    assert _solves_ten_chunks_per_call(monkeypatch)
    monkeypatch.setattr(sp, "_GROUP", 4)  # a planted fault: the old group size
    assert not _solves_ten_chunks_per_call(monkeypatch)


def test_import_starts_no_pool_machinery():
    # concurrent.futures imports logging; neither import nor three chunks of
    # either exact sampler may load them or leave a thread beside the main one
    code = ("import sys, threading, schattenlab, schattenlab.cli\n"
            "from schattenlab import samplers as sp\n"
            "from schattenlab.ensembles import EnsembleParams, SchattenSpec\n"
            "sp.exact_p2_sample(EnsembleParams(2, 4, 3, 4), 3 * sp._CHUNK, 0)\n"
            "sp.exact_p2_matrix_sample(SchattenSpec('R', 'Full', 4, 2.0), 3 * sp._CHUNK, 0)\n"
            "print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)), "
            "threading.active_count())")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[] 1"


def test_mcmc_reports_burn_in_share():
    for walk in CHAIN_WALKS.values():
        batch = walk(n_chains=2, n_samples=30, seed=6, burn_in=10)
        # each of 2 chains runs 10 burn-in sweeps and 15 kept ones
        assert batch.diagnostics["burn_in_share"] == pytest.approx(20 / 50)


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
    # the first radial column is E[||T||_2^2 | direction] of the ball point
    # with the gas point's direction: its mean over the gas mean of ||x||_2^2
    # is the homogeneous transfer factor
    params = EnsembleParams(2, 1, 0, 3)
    p = 4.0
    gas = sp.mcmc_sample(params, p, n_chains=4, n_samples=40_000, seed=5)
    vg = np.sum(gas.points**2, axis=1)
    vb = mo.radial_columns(gas.points, p, 1, params.d)[:, 0]
    # sup ||T||_2^2 on the unit 4-ball of R^3 is 3^(1/2), times E R^2 = d/(d+2)
    assert np.max(vb) <= 3.0 ** 0.5 * params.d / (params.d + 2) * (1.0 + 1e-12)
    m_b, se_b, _ = batch_means(vb)
    m_g, se_g, _ = batch_means(vg)
    target = math.exp(math.lgamma(1 + params.d / p) - math.lgamma(1 + (params.d + 2) / p))
    ratio = m_b / m_g
    se = ratio * math.hypot(se_b / m_b, se_g / m_g)
    assert abs(ratio - target) <= 3.0 * se


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
    m2, se2, _ = batch_means(mo.radial_columns(gas.points, 4.0, 1, params.d)[:, 0])
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
