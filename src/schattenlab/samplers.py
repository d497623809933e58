"""Random generation targeting the gas densities and the Schatten balls.

Two gas routes: adaptive random-walk Metropolis for arbitrary parameters and
exact tridiagonal ensemble samplers for the Gaussian (p=2) weight.  A
hit-and-run walk on the matrix subspace itself gives an independent route to
the uniform ball measure.  Metropolis and hit-and-run share one lockstep
chain loop, _run_chains.  Both exact p=2 samplers, of the gas and of the
Frobenius ball, loop over the same fixed chunks, each with its own child seed
stream (_chunk_streams), so their draws are prefix-stable: the first full
chunks of any budget agree.  The gas sampler solves its tridiagonal models
in place with a batched root-free QL kernel, _ql_solve.  Everything runs
on the calling thread: the package starts no threads.
"""

import itertools
import math
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


def _chunk_streams(seed, n_samples):
    """Yield (rows, rng) for each chunk of an n_samples-draw run: chunk j
    covers the rows slice [j*_CHUNK, min((j+1)*_CHUNK, n_samples)) and rng is
    a generator on child j of SeedSequence(seed).spawn(n_chunks), so for one
    seed the first k full chunks of any budget are the same draws.  This is
    the one chunk-to-stream rule of both exact p=2 samplers.
    """
    n_chunks = -(-n_samples // _CHUNK)
    for j, child in enumerate(np.random.SeedSequence(seed).spawn(n_chunks)):
        yield slice(j * _CHUNK, min((j + 1) * _CHUNK, n_samples)), np.random.default_rng(child)


# Chunks per _ql_solve call: a call's fixed cost (a few thousand small numpy
# operations, about 2.7 ms at n=16) is shared by up to 10,240 matrices, so a
# 10,000-draw budget is one call; its buffers and temporaries, a few MB, stay
# the same whatever the budget.
_GROUP = 10


def exact_p2_sample(params, n_samples, seed=0):
    """Independent draws from the p=2 gas via tridiagonal ensemble models.

    a=1 (c=0): rescaled eigenvalues of the tridiagonal Gaussian beta model.
    a=2 (any c): signed square roots of rescaled tridiagonal Laguerre
    eigenvalues; the Laguerre shape is chosen so the substitution y = x^2
    reproduces the gas exactly.  Anything else raises SamplerUnavailable.

    The draws come chunk by chunk from _chunk_streams, each chunk's variates
    from its own child stream.  Every _GROUP chunks (then the last, shorter
    group) are written straight into one (n, m) diagonal and one (n-1, m)
    squared sub-diagonal buffer, a chunk's matrices in its own columns, and
    solved in place by one _ql_solve call; the eigenvalues go to the chunks'
    rows, are sorted there and mapped to the gas.  A matrix's eigenvalues do
    not depend on the group it is solved in, so the draws are prefix-stable.
    Each kernel call has a fixed cost, a few thousand small numpy operations
    (about 2.7 ms at n=16), so a budget of one draw costs about that much;
    up to 10 chunks share one call.
    """
    _check_budget(n_samples)
    n, a, b, c = params.n, params.a, params.b, params.c
    if a == 1 and c == 0:
        draw = _hermite_draws
    elif a == 2:
        draw = _laguerre_draws
    else:
        raise SamplerUnavailable(f"no exact p=2 sampler for (a,b,c)=({a},{b},{c})")
    points = np.empty((n_samples, n))
    streams = _chunk_streams(seed, n_samples)
    for start in range(0, n_samples, _GROUP * _CHUNK):
        width = min(_GROUP * _CHUNK, n_samples - start)
        d, e2, finishes = np.empty((n, width)), np.empty((n - 1, width)), []
        for rows, rng in itertools.islice(streams, _GROUP):
            diag, sub_sq, finish = draw(params, rows.stop - rows.start, rng)
            # Each matrix goes in reversed, which keeps its eigenvalues.  The
            # models' chi-square degrees of freedom fall down the matrix, so
            # their entries shrink toward the last row, and QL, which
            # deflates at the first row, converges in fewer sweeps from that
            # end.
            cols = slice(rows.start - start, rows.stop - start)
            d[:, cols] = diag[:, ::-1].T
            e2[:, cols] = sub_sq[:, ::-1].T
            del diag, sub_sq
            finishes.append((points[rows], finish))
        _ql_solve(d, e2)
        block = points[start : start + width]
        block[:] = d.T
        # free the buffers before the next group is drawn, so the peak
        # memory holds one group's arrays
        del d, e2
        block.sort(axis=1)
        for chunk, finish in finishes:
            finish(chunk)
    return SampleBatch(points=points, diagnostics={"method": "exact-p2", "chains": 1})


def _hermite_draws(params, m, rng):
    """Diagonal, squared sub-diagonal and in-place eigenvalue map of m
    tridiagonal Gaussian beta models."""
    n, b = params.n, params.b
    diag = rng.standard_normal((m, n))
    sub_sq = rng.chisquare(b * (n - np.arange(1, n)), size=(m, n - 1)) / 2.0
    return diag, sub_sq, lambda lam: np.divide(lam, math.sqrt(2.0), out=lam)


def _laguerre_draws(params, m, rng):
    """Diagonal, squared sub-diagonal and in-place eigenvalue map of m
    Laguerre models B B^T, B lower bidiagonal (diagonal a_i, sub-diagonal
    s_i): the tridiagonal B B^T has diagonal a_i^2 + s_(i-1)^2 and
    sub-diagonal a_i s_i.  The signs do not depend on the eigenvalues, so
    they are drawn here; the stream order is diagonal chi-squares,
    sub-diagonal chi-squares, signs."""
    n, b, c = params.n, params.b, params.c
    two_shape = b * (n - 1) + c + 1  # = 2 * Laguerre shape parameter
    a_sq = rng.chisquare(two_shape - b * np.arange(n), size=(m, n))
    s_sq = rng.chisquare(b * (n - 1 - np.arange(n - 1)), size=(m, n - 1))
    sub_sq = a_sq[:, :-1] * s_sq
    a_sq[:, 1:] += s_sq  # now the diagonal
    neg = rng.integers(0, 2, size=(m, n)) == 0

    def finish(y):
        y /= 2.0
        np.maximum(y, 0.0, out=y)
        np.sqrt(y, out=y)
        np.negative(y, out=y, where=neg)

    return a_sq, sub_sq, finish


# ---------------------------------------------------------------------------
# eigenvalues of a batch of symmetric tridiagonal matrices

_EPS2 = np.finfo(float).eps ** 2
_TINY = np.finfo(float).tiny


def _ql_sweep(d, e2, l, work):
    """One root-free implicit QL sweep, in place, over rows l.. of the lists
    d and e2 of equal-length arrays: entry j of every array belongs to matrix
    j, d[i] holds diagonal entries and e2[i] squared sub-diagonal entries.
    This is the QL step of LAPACK's dsterf (Pal, Walker and Kahan; Parlett,
    The Symmetric Eigenvalue Problem, section 8.15) with its shift, applied
    from the last row up to row l with no split search, so each line below
    is one numpy operation over every matrix.  work holds eight scratch
    arrays of the same length."""
    n = len(d)
    c, s, r, t, gamma, oldgam, p, shift = work
    # local names: the loop below runs a dozen ufunc calls per row
    add, sub, mul, div, fmax = np.add, np.subtract, np.multiply, np.divide, np.fmax
    dl, el = d[l], e2[l]
    # the shift: the eigenvalue of the leading 2x2 block nearer d_l; the
    # floor makes it d_l, not 0/0, where that block is a multiple of I
    sub(d[l + 1], dl, t)
    mul(t, 0.5, t)
    mul(t, t, r)
    add(r, el, r)
    np.sqrt(r, r)
    fmax(r, _TINY, r)
    np.copysign(r, t, r)
    add(r, t, r)
    div(el, r, r)
    sub(dl, r, shift)
    sub(d[n - 1], shift, gamma)
    mul(gamma, gamma, p)
    for i in range(n - 2, l - 1, -1):
        bb, alpha = e2[i], d[i]
        # the floor keeps r > 0 where a matrix has split exactly (bb = 0)
        # with a zero bulge (p = 0), as in a multiple of I
        fmax(p, _TINY, p)
        add(p, bb, r)
        if i < n - 2:
            mul(s, r, e2[i + 1])
        div(p, r, c)
        div(bb, r, s)
        gamma, oldgam = oldgam, gamma
        sub(alpha, shift, t)
        mul(c, t, gamma)
        mul(s, oldgam, t)
        sub(gamma, t, gamma)
        sub(alpha, gamma, t)
        add(oldgam, t, d[i + 1])
        mul(gamma, gamma, p)
        div(p, c, p)
    mul(s, p, e2[l])
    add(shift, gamma, dl)


def _tridiagonal_eigvalsh(d, e2):
    """Ascending eigenvalues of m symmetric tridiagonal matrices, as
    np.linalg.eigvalsh gives those of the dense matrices: row j of d (m, n)
    holds matrix j's diagonal and row j of e2 (m, n-1) its squared
    sub-diagonal (>= 0).  The inputs are not changed: the work runs on
    (n, m) copies, solved by _ql_solve, whose errors it raises.
    """
    d = np.array(d.T, dtype=float, order="C")
    e2 = np.array(e2.T, dtype=float, order="C")
    _ql_solve(d, e2)
    lam = d.T.copy()
    lam.sort(axis=1)
    return lam


def _ql_solve(d, e2):
    """Eigenvalues, in place and unsorted, of m symmetric tridiagonal
    matrices held column-wise: column j of d (n, m) holds matrix j's
    diagonal and column j of e2 (n-1, m) its squared sub-diagonal (>= 0).
    On return column j of d holds matrix j's eigenvalues, and e2 is spent.
    Both are float64; C order keeps each row, one step's operand, contiguous.

    Each step of a sweep (_ql_sweep) is a few numpy operations over all m
    matrices.  At deflation level l every matrix takes a fixed number of
    sweeps; then each matrix whose own test e2_l <= eps^2 |d_l d_(l+1)|
    fails is swept alone, with the others that fail it, until it passes.
    The last 2x2 block is solved in closed form.  So a matrix's arithmetic
    depends on that matrix alone: its eigenvalues are the same bits in any
    batch.  Unlike dsterf it does not scale the matrices, so it is meant for
    entries well inside 1e-150..1e150 in magnitude.  A matrix that needs
    more than 30 n sweeps in all (LAPACK's cap), or whose eigenvalues are
    not finite, as with a NaN or an inf entry, raises np.linalg.LinAlgError
    naming its rows: matrix j is row j of _tridiagonal_eigvalsh's inputs.
    """
    n, m = d.shape
    cap, sweeps = 30 * n, np.zeros(m, dtype=np.int64)
    d_rows, e2_rows = list(d), list(e2)  # row views: indexing a list is cheaper
    work = [np.empty(m) for _ in range(8)]
    with np.errstate(all="ignore"):
        for l in range(n - 2):
            # The first level starts cold and takes 5 sweeps; past the first
            # third the earlier sweeps have nearly converged the rest, which
            # take 2.  These counts were about the fastest for the gas
            # sampler's models at n = 8, 16 and 32; the per-matrix sweeps
            # below finish every level, so they change the time, not the
            # accuracy.
            fixed = 5 if l == 0 else 3 if l < n // 3 else 2
            for _ in range(fixed):
                _ql_sweep(d_rows, e2_rows, l, work)
            sweeps += fixed
            left = np.flatnonzero(~_ql_converged(d[l:], e2[l:]))
            while left.size:
                stuck = left[sweeps[left] >= cap]
                if stuck.size:
                    raise np.linalg.LinAlgError(
                        f"tridiagonal QL: rows {stuck.tolist()} did not converge in {cap} sweeps")
                dt, et = d[l:, left], e2[l:, left]
                _ql_sweep(list(dt), list(et), 0, [w[: left.size] for w in work])
                d[l:, left], e2[l:, left] = dt, et
                sweeps[left] += 1
                left = left[~_ql_converged(dt, et)]
        if n > 1:
            # the eigenvalue of larger magnitude, then the other one from the determinant
            x, y, b2 = d[n - 2], d[n - 1], e2[n - 2]
            big = x + y
            big += np.copysign(np.sqrt((x - y) ** 2 + 4.0 * b2), big)
            big *= 0.5
            other = np.zeros(m)
            np.divide(x * y - b2, big, out=other, where=big != 0.0)
            d[n - 2], d[n - 1] = big, other
    bad = np.flatnonzero(~np.isfinite(d).all(axis=0))
    if bad.size:
        raise np.linalg.LinAlgError(f"tridiagonal QL: rows {bad.tolist()} have non-finite eigenvalues")


def _ql_converged(d, e2):
    """Whether each matrix's leading sub-diagonal is negligible (dsterf's test)."""
    return e2[0] <= _EPS2 * np.abs(d[0] * d[1])


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
    uniform, sample the ball exactly.  Chunk by chunk from _chunk_streams,
    on the calling thread, each chunk draws its standard normal rows into its
    own rows of the result, then its uniforms, and scales the rows in place.
    """
    if spec.subspace != "Full" or spec.p != 2:
        raise SamplerUnavailable("exact ball sampling needs p=2 on a Full subspace")
    _check_budget(n_samples)
    dim = spec.dim
    points = np.empty((n_samples, dim))
    for rows, rng in _chunk_streams(seed, n_samples):
        g = points[rows]
        rng.standard_normal(out=g)
        r = np.einsum("ij,ij->i", g, g)
        g /= np.sqrt(r, out=r)[:, None]
        rng.random(out=r)
        r **= 1.0 / dim
        g *= r[:, None]
    return SampleBatch(points=points, diagnostics={"method": "exact-ball", "chains": 1})
