"""Random generation targeting the gas densities and the Schatten balls.

Two gas routes: adaptive random-walk Metropolis for arbitrary parameters and
exact tridiagonal ensemble samplers for the Gaussian (p=2) weight.  A
hit-and-run walk on the matrix subspace itself gives an independent route to
the uniform ball measure.  Metropolis and hit-and-run share one lockstep
chain loop, _run_chains.  Both exact p=2 samplers, of the gas and of the
Frobenius ball, share one chunk map, _map_chunks: fixed chunks, one child
seed stream per chunk, the self-contained chunks mapped over the process's
cores (no rounds, no shared buffers); the draws do not depend on the core
count and are prefix-stable (the first full chunks of any budget agree), the
wall-time gain needs a second free core, and one core runs serially.
"""

import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import matrixlab as ml
from .density import log_f_p

# kept under its old name for perfbench/worker.py, whose warm-up calls it here
batch_singular_values = ml.batch_singular_values

__all__ = [
    "SampleBatch",
    "SamplerUnavailable",
    "mcmc_sample",
    "exact_p2_sample",
    "gas_sample",
    "matrix_hit_and_run",
    "exact_p2_matrix_sample",
]


class SamplerUnavailable(RuntimeError):
    """No exact sampler exists for the requested parameters."""


@dataclass
class SampleBatch:
    """Unweighted draws (one row per point) plus sampler diagnostics."""

    points: np.ndarray
    diagnostics: dict = field(default_factory=dict)

    def __len__(self):
        return self.points.shape[0]


def _check_budget(n_samples):
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")


# ---------------------------------------------------------------------------
# the chain loop shared by Metropolis and hit-and-run

def _run_chains(n_samples, n_chains, seed, burn_in, start, sweep):
    """Run chains in lockstep, each on its own spawned seed stream, and
    return (points, diagnostics).

    start(rngs) returns the (chains, dim) start states; sweep(x, rngs, s)
    advances every row of x in place at sweep s.  Each chain keeps
    keep_each = ceil(n_samples / min(n_chains, n_samples)) draws, the states
    after burn_in sweeps, and only the ceil(n_samples / keep_each) chains
    whose draws are returned run: the last returned chain may be cut short,
    but none runs idle.  The draws merge in chain order and are cut to
    n_samples; chain k's stream depends only on (seed, k), so the draws equal
    those of a run with n_chains = chains.
    """
    _check_budget(n_samples)
    if n_chains < 1 or burn_in < 0:
        raise ValueError("need n_chains >= 1 and burn_in >= 0")
    keep_each = -(-n_samples // min(n_chains, n_samples))
    chains = -(-n_samples // keep_each)
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(chains)]
    x = start(rngs)
    out = np.empty((chains, keep_each, x.shape[1]))
    for s in range(burn_in + keep_each):
        sweep(x, rngs, s)
        if s >= burn_in:
            out[:, s - burn_in] = x
    points = out.reshape(chains * keep_each, -1)[:n_samples]
    return points, {"chains": chains, "burn_in": burn_in,
                    "burn_in_share": burn_in / (burn_in + keep_each)}


# ---------------------------------------------------------------------------
# random-walk Metropolis for the gas densities

_ADAPT_WINDOW = 50
_TARGET_ACCEPT = 0.44


class _Metropolis:
    """Per-coordinate Metropolis with one state row per chain: coordinate i
    of every chain moves at once, with per-chain step sizes and acceptance
    counts.  Each chain's generator is called as a lone chain would call it:
    its start point, then standard_normal(n) and random(n) per sweep."""

    def __init__(self, params, p, burn_in, validate):
        self.params, self.p, self.burn_in, self.validate = params, p, burn_in, validate

    def start(self, rngs):
        params, p, n = self.params, self.p, self.params.n
        scale = (params.d / (n * p)) ** (1.0 / p)
        rows, logfs = [], []
        for rng in rngs:
            logf = -math.inf
            while not np.isfinite(logf):  # redraw until the start has positive density
                x = rng.uniform(-0.95, 0.95, n) if math.isinf(p) else rng.standard_normal(n) * scale
                logf = float(log_f_p(params, p, x))
            rows.append(x)
            logfs.append(logf)
        self.x, self.logf = np.stack(rows), np.array(logfs)
        self.xa = self.x.copy() if params.a == 1 else self.x**params.a
        self.steps = np.full(self.x.shape, 0.25 if math.isinf(p) else 0.5 * scale)
        self.acc_window, self.accepted = np.zeros(self.x.shape), np.zeros(self.x.shape)
        self.sampling_sweeps = 0
        return self.x

    def sweep(self, x, rngs, s):
        n, a, b, c, p = self.params.n, self.params.a, float(self.params.b), self.params.c, self.p
        inf_p = math.isinf(p)
        adapting = s < self.burn_in
        draws = [(rng.standard_normal(n), rng.random(n)) for rng in rngs]
        # coordinate-major views: row i holds coordinate i of every chain
        moves = (self.steps * np.stack([z for z, _ in draws])).T
        us = np.stack([u for _, u in draws]).T
        xs, xa, xas = x.T, self.xa, self.xa.T
        accepts = np.empty(xs.shape, dtype=bool)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for i in range(n):
                xi = xs[i]
                prop = xi + moves[i]
                prop_a = prop if a == 1 else prop**a
                ratio = prop_a[:, None] - xa
                ratio /= xas[i][:, None] - xa
                ratio[:, i] = 1.0
                delta = b * np.add.reduce(np.log(np.abs(ratio)), axis=1)
                if c:
                    delta += c * np.log(np.abs(prop / xi))
                if not inf_p:
                    delta -= np.abs(prop) ** p - np.abs(xi) ** p
                accept = us[i] < np.exp(delta)  # always true for delta >= 0
                if inf_p:
                    accept &= np.abs(prop) <= 1.0
                if self.validate:
                    np.add(self.logf, delta, out=self.logf, where=accept)
                np.copyto(xi, prop, where=accept)
                np.copyto(xas[i], prop_a, where=accept)
                accepts[i] = accept
        if adapting:
            self.acc_window += accepts.T
            if (s + 1) % _ADAPT_WINDOW == 0:
                self.steps *= np.exp(0.6 * (self.acc_window / _ADAPT_WINDOW - _TARGET_ACCEPT))
                self.acc_window[:] = 0.0
        else:
            self.accepted += accepts.T
            self.sampling_sweeps += 1


def mcmc_sample(params, p, n_chains=4, n_samples=20_000, seed=0, burn_in=None,
                validate=False):
    """Per-coordinate random-walk Metropolis draws from the weighted gas density.

    Step sizes adapt per chain toward 0.44 acceptance during burn-in only and
    freeze afterwards, so the retained path is a fixed-kernel Markov chain.
    The chains run in lockstep, each on its own spawned seed stream; each
    keeps ceil(n_samples / min(n_chains, n_samples)) draws, merged in chain
    order and cut to n_samples, so the result is a pure function of (inputs,
    seed).  Only the chains that return draws run (see _run_chains), so
    n_chains=4, n_samples=5 runs 3 chains and diagnostics["chains"] and
    ["acceptance"] cover those 3.  diagnostics["burn_in_share"] reports the
    burn-in sweeps as a share of all sweeps run.
    """
    if burn_in is None:
        burn_in = 1000 + 60 * params.n
    walk = _Metropolis(params, p, burn_in, validate)
    points, diag = _run_chains(n_samples, n_chains, seed, burn_in, walk.start, walk.sweep)
    if validate:
        fresh = log_f_p(params, p, walk.x)
        for cached, new in zip(walk.logf, fresh):
            if not math.isclose(new, cached, rel_tol=1e-8, abs_tol=1e-8):
                raise AssertionError(f"cached log density drifted: {cached} vs {new}")
    acceptance = np.mean(walk.accepted / walk.sampling_sweeps, axis=0)
    return SampleBatch(points=points, diagnostics={"method": "mcmc", "acceptance": acceptance,
                                                   **diag})


# ---------------------------------------------------------------------------
# exact samplers at the Gaussian weight

_CHUNK = 1024  # draws per chunk, each from its own child stream; it fixes every draw


def _cores():
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _map_chunks(fill, seed, *arrays):
    """Fill arrays of one length chunk by chunk: fill(rng, *rows) for each
    chunk of _CHUNK rows (the last one may be short), rows being the chunk's
    rows of each array and rng a generator on child j of
    SeedSequence(seed).spawn(n_chunks) for chunk j, so for one seed the
    first k full chunks of any budget are the same draws.

    A chunk depends only on (seed, j, its size) and writes only its own rows,
    so one map over a thread pool with one worker per core the process may
    use runs them all, and the draws are byte-identical whatever the core
    count.  With one core, or one chunk, no pool starts and the chunks run
    in a plain loop.
    """
    n_chunks = -(-len(arrays[0]) // _CHUNK)
    seeds = np.random.SeedSequence(seed).spawn(n_chunks)

    def run(j):
        rows = slice(j * _CHUNK, (j + 1) * _CHUNK)
        fill(np.random.default_rng(seeds[j]), *(a[rows] for a in arrays))

    workers = min(_cores(), n_chunks)
    if workers > 1:
        # imported here: concurrent.futures imports logging, which would
        # add to every `import schattenlab`
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(workers) as pool:
            for _ in pool.map(run, range(n_chunks)):
                pass  # reading every result re-raises a worker's exception
    else:
        for j in range(n_chunks):
            run(j)


def exact_p2_sample(params, n_samples, seed=0):
    """Independent draws from the p=2 gas via tridiagonal ensemble models.

    a=1 (c=0): rescaled eigenvalues of the tridiagonal Gaussian beta model.
    a=2 (any c): signed square roots of rescaled tridiagonal Laguerre
    eigenvalues; the Laguerre shape is chosen so the substitution y = x^2
    reproduces the gas exactly.  Anything else raises SamplerUnavailable.

    The draws come from _map_chunks.  Each chunk is self-contained: its
    variates, its own zeroed tridiagonal matrices, eigvalsh (which releases
    the interpreter lock) and the eigenvalue map into its own rows.
    """
    _check_budget(n_samples)
    n, a, b, c = params.n, params.a, params.b, params.c
    if a == 1 and c == 0:
        draw = _hermite_draws
    elif a == 2:
        draw = _laguerre_draws
    else:
        raise SamplerUnavailable(f"no exact p=2 sampler for (a,b,c)=({a},{b},{c})")

    def fill(rng, lam):
        diag, sub, finish = draw(params, len(lam), rng)
        mats = np.zeros((len(lam), n, n))
        _set_tridiagonal(mats, diag, sub)
        lam[:] = np.linalg.eigvalsh(mats)
        finish(lam)

    points = np.empty((n_samples, n))
    _map_chunks(fill, seed, points)
    return SampleBatch(points=points, diagnostics={"method": "exact-p2", "chains": 1})


def _set_tridiagonal(mats, diag, sub):
    """Write the (m, n) diag on the diagonals and the (m, n-1) sub on the
    sub-diagonals of the contiguous (m, n, n) mats, through strides.  Nothing
    else is written: the rest of the lower triangle must be zero, and the
    upper triangle is never read, as eigvalsh reads the lower one only."""
    m, n = diag.shape
    flat = mats.reshape(m, n * n)
    flat[:, :: n + 1] = diag
    flat[:, n :: n + 1] = sub


def _hermite_draws(params, m, rng):
    """Diagonal, sub-diagonal and in-place eigenvalue map of m tridiagonal
    Gaussian beta models."""
    n, b = params.n, params.b
    diag = rng.standard_normal((m, n))
    sub = np.sqrt(rng.chisquare(b * (n - np.arange(1, n)), size=(m, n - 1))) / math.sqrt(2.0)
    return diag, sub, lambda lam: np.divide(lam, math.sqrt(2.0), out=lam)


def _laguerre_draws(params, m, rng):
    """Diagonal, sub-diagonal and in-place eigenvalue map of m Laguerre
    models B B^T, B lower bidiagonal (diagonal a_i, sub-diagonal s_i): the
    tridiagonal B B^T has diagonal a_i^2 + s_(i-1)^2 and sub-diagonal a_i s_i.
    The signs do not depend on the eigenvalues, so they are drawn here; the
    stream order is diagonal chi-squares, sub-diagonal chi-squares, signs."""
    n, b, c = params.n, params.b, params.c
    two_shape = b * (n - 1) + c + 1  # = 2 * Laguerre shape parameter
    a_sq = rng.chisquare(two_shape - b * np.arange(n), size=(m, n))
    s_sq = rng.chisquare(b * (n - 1 - np.arange(n - 1)), size=(m, n - 1))
    sub = np.sqrt(a_sq[:, :-1] * s_sq)
    a_sq[:, 1:] += s_sq  # now the diagonal
    signs = rng.integers(0, 2, size=(m, n)) * 2.0 - 1.0

    def finish(y):
        y /= 2.0
        np.maximum(y, 0.0, out=y)
        np.sqrt(y, out=y)
        y *= signs

    return a_sq, sub, finish


def gas_sample(params, p, budget, seed, mcmc_kwargs=None):
    """Route to the exact sampler at p=2 when available, else to Metropolis."""
    if p == 2:
        try:
            return exact_p2_sample(params, budget, seed)
        except SamplerUnavailable:
            pass
    kw = dict(mcmc_kwargs or {})
    return mcmc_sample(params, p, n_samples=budget, seed=seed, **kw)


# ---------------------------------------------------------------------------
# hit-and-run on the Schatten ball

def matrix_hit_and_run(spec, n_samples, seed=0, burn_in=300, n_chains=32):
    """Hit-and-run walk over the uniform measure on K_{p,E}.

    Chains start at the origin and move to a uniform point of the chord
    through the current point along a uniform direction.  The point is drawn
    by the shrinkage procedure of slice sampling (Neal, Ann. Statist. 31,
    2003): t is uniform on a bracket around the chord, and each rejected t
    becomes the bracket end on its side of 0, so the accepted t is exactly
    uniform on the chord without either chord end being computed.  The chains
    run in lockstep, each on its own spawned seed stream; each keeps
    ceil(n_samples / min(n_chains, n_samples)) draws, merged in chain order
    and cut to n_samples.  Only the chains that return draws run (see
    _run_chains), so 40 draws from the default 32 chains run 20 chains of 2
    draws each.  The returned points are coordinate rows (see
    matrixlab.coords_to_entries).
    """
    if spec.n > 12:
        raise ValueError("hit-and-run is limited to n <= 12")
    dim = spec.dim

    def start(rngs):
        return np.zeros((len(rngs), dim))

    def sweep(x, rngs, s):
        dirs = np.stack([r.standard_normal(dim) for r in rngs])
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        # ||x + t v|| >= |t| ||v|| - 1, so the chord lies within |t| <= 2/||v||
        hi = 2.0 / ml.schatten_norms(spec.field, ml.coords_to_entries(spec, dirs), spec.p) + 1e-9
        lo = -hi
        t = np.empty(len(x))
        pending = np.arange(len(x))
        # The loop ends: t = 0 is the current point, inside the ball, so the
        # chord is an interval of positive length around 0 that the bracket
        # always holds, and the shrinking bracket lands a draw on it.
        while pending.size:
            u = np.array([rngs[k].random() for k in pending])
            t[pending] = lo[pending] + u * (hi[pending] - lo[pending])
            mats = ml.coords_to_entries(spec, x[pending] + t[pending, None] * dirs[pending])
            pending = pending[ml.schatten_norms(spec.field, mats, spec.p) > 1.0]
            tp = t[pending]
            hi[pending] = np.where(tp > 0.0, tp, hi[pending])
            lo[pending] = np.where(tp < 0.0, tp, lo[pending])
        x += t[:, None] * dirs

    points, diag = _run_chains(n_samples, n_chains, seed, burn_in, start, sweep)
    return SampleBatch(points=points, diagnostics={"method": "hit_and_run", **diag})


def exact_p2_matrix_sample(spec, n_samples, seed=0):
    """Uniform draws from the Frobenius-norm ball (p=2, Full subspaces only).

    The flat coordinates are a Euclidean isometry there, so Gaussian
    directions scaled to unit length and then by a radius u^(1/dim), u
    uniform, sample the ball exactly.  The draws come from _map_chunks: each
    chunk draws its standard normal rows into its own rows of the result,
    then its uniforms, and scales the rows in place, so the draws do not
    depend on the core count.  A chunk allocates no array: its norms and
    radii go to its rows of one scratch array of one value per draw.
    """
    if spec.subspace != "Full" or spec.p != 2:
        raise SamplerUnavailable("exact ball sampling needs p=2 on a Full subspace")
    _check_budget(n_samples)
    dim = spec.dim

    def fill(rng, g, r):
        rng.standard_normal(out=g)
        np.einsum("ij,ij->i", g, g, out=r)
        g /= np.sqrt(r, out=r)[:, None]
        rng.random(out=r)
        r **= 1.0 / dim
        g *= r[:, None]

    # Both made on the calling thread: with the chunks' small arrays made in
    # the worker threads, their malloc arenas kept memory, and the peak RSS
    # of perfbench's gauss-exact workload rose by about 10 MB.
    points, scratch = np.empty((n_samples, dim)), np.empty(n_samples)
    _map_chunks(fill, seed, points, scratch)
    return SampleBatch(points=points, diagnostics={"method": "exact-ball", "chains": 1})
