"""Random generation targeting the gas densities and the Schatten balls.

Three routes: adaptive random-walk Metropolis for arbitrary parameters, exact
tridiagonal ensemble samplers for the Gaussian (p=2) weight, and a radial
pushforward converting weighted gas draws into the singular-value law of a
uniform ball sample.  A hit-and-run walk on the matrix subspace itself gives
an independent route to the same uniform measure.  Metropolis and hit-and-run
share one lockstep chain loop, _run_chains.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import matrixlab as ml
from .density import log_f_p
from .util import batch_means

# kept under its old name for perfbench/worker.py, whose warm-up calls it here
batch_singular_values = ml.batch_singular_values

__all__ = [
    "SampleBatch",
    "SamplerUnavailable",
    "mcmc_sample",
    "exact_p2_sample",
    "gas_sample",
    "ball_pushforward",
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

def _run_chains(n_samples, n_chains, seed, burn_in, thinning, start, sweep):
    """Run chains in lockstep, each on its own spawned seed stream, and
    return (points, diagnostics).

    start(rngs) returns the (chains, dim) start states; sweep(x, rngs, s)
    advances every row of x in place at sweep s.  Each chain keeps
    keep_each = ceil(n_samples / min(n_chains, n_samples)) draws, every
    thinning-th state after burn_in sweeps, and only the ceil(n_samples /
    keep_each) chains whose draws are returned run: the last returned chain
    may be cut short, but none runs idle.  The draws merge in chain order and
    are cut to n_samples; chain k's stream depends only on (seed, k), so the
    draws equal those of a run with n_chains = chains.  ess_norm2sq sums the
    batch-means ESS of ||state||^2 over the chains' returned draws.
    """
    _check_budget(n_samples)
    if n_chains < 1 or thinning < 1 or burn_in < 0:
        raise ValueError("need n_chains >= 1, thinning >= 1 and burn_in >= 0")
    keep_each = -(-n_samples // min(n_chains, n_samples))
    chains = -(-n_samples // keep_each)
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(chains)]
    x = start(rngs)
    out = np.empty((chains, keep_each, x.shape[1]))
    for s in range(burn_in + keep_each * thinning):
        sweep(x, rngs, s)
        kept, skip = divmod(s - burn_in, thinning)
        if kept >= 0 and skip == 0:
            out[:, kept] = x
    points = out.reshape(chains * keep_each, -1)[:n_samples]
    norm2sq = np.sum(points**2, axis=1)
    ess = sum(batch_means(norm2sq[k : k + keep_each])[2] for k in range(0, n_samples, keep_each))
    sweeps = chains * (burn_in + keep_each * thinning)
    return points, {"chains": chains, "burn_in": burn_in, "thinning": thinning,
                    "burn_in_share": chains * burn_in / sweeps, "ess_norm2sq": ess}


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
                thinning=1, validate=False):
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
    points, diag = _run_chains(n_samples, n_chains, seed, burn_in, thinning,
                               walk.start, walk.sweep)
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

_EIG_CHUNK = 4096


def exact_p2_sample(params, n_samples, seed=0):
    """Independent draws from the p=2 gas via tridiagonal ensemble models.

    a=1 (c=0): rescaled eigenvalues of the tridiagonal Gaussian beta model.
    a=2 (any c): signed square roots of rescaled tridiagonal Laguerre
    eigenvalues; the Laguerre shape is chosen so the substitution y = x^2
    reproduces the gas exactly.  Anything else raises SamplerUnavailable.
    """
    _check_budget(n_samples)
    n, a, b, c = params.n, params.a, params.b, params.c
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    if a == 1 and c == 0:
        sampler = _hermite_chunk
    elif a == 2:
        sampler = _laguerre_chunk
    else:
        raise SamplerUnavailable(f"no exact p=2 sampler for (a,b,c)=({a},{b},{c})")
    chunks = []
    remaining = n_samples
    while remaining > 0:
        m = min(_EIG_CHUNK, remaining)
        chunks.append(sampler(params, m, rng))
        remaining -= m
    points = np.concatenate(chunks, axis=0)
    v = np.sum(points**2, axis=1)
    return SampleBatch(
        points=points,
        diagnostics={
            "method": "exact-p2",
            "chains": 1,
            "ess_norm2sq": batch_means(v)[2],
        },
    )


def _hermite_chunk(params, m, rng):
    n, b = params.n, params.b
    mats = np.zeros((m, n, n))
    idx = np.arange(n)
    mats[:, idx, idx] = rng.standard_normal((m, n))
    if n > 1:
        df = b * (n - np.arange(1, n))
        off = np.sqrt(rng.chisquare(df, size=(m, n - 1))) / math.sqrt(2.0)
        j = np.arange(n - 1)
        mats[:, j + 1, j] = off  # eigvalsh reads the lower triangle only
    lam = np.linalg.eigvalsh(mats)
    return lam / math.sqrt(2.0)


def _laguerre_chunk(params, m, rng):
    """Rescaled eigenvalues of B B^T for the lower bidiagonal Laguerre model B
    (diagonal a_i, sub-diagonal s_i), built as the tridiagonal matrix with
    diagonal a_i^2 + s_(i-1)^2 and sub-diagonal a_i s_i (lower triangle only,
    which is all eigvalsh reads)."""
    n, b, c = params.n, params.b, params.c
    two_shape = b * (n - 1) + c + 1  # = 2 * Laguerre shape parameter
    idx = np.arange(n)
    diag_df = two_shape - b * idx
    a_sq = rng.chisquare(diag_df, size=(m, n))
    lag = np.zeros((m, n, n))
    lag[:, idx, idx] = a_sq
    if n > 1:
        j = np.arange(n - 1)
        sub_df = b * (n - 1 - j)
        s_sq = rng.chisquare(sub_df, size=(m, n - 1))
        lag[:, j + 1, j + 1] += s_sq
        lag[:, j + 1, j] = np.sqrt(a_sq[:, :-1] * s_sq)
    y = np.linalg.eigvalsh(lag) / 2.0
    signs = rng.integers(0, 2, size=y.shape) * 2.0 - 1.0
    return signs * np.sqrt(np.maximum(y, 0.0))


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
# radial pushforward onto the ball

def ball_pushforward(gas, params, p, seed=0, norm_scale=1.0):
    """Map weighted gas draws onto the unnormalized-density law on the p-ball.

    Each x goes to norm_scale * u^(1/d) * x / ||x||_p with u uniform, which
    replaces the gas radial law by the ball one while keeping the angular
    (and sign) structure.  At p = inf the gas is already ball-restricted and
    the map is the identity.
    """
    if math.isinf(p):
        if np.max(np.abs(gas.points)) > 1.0 + 1e-12:
            raise ValueError("p=inf gas contains points outside the unit cube")
        diag = dict(gas.diagnostics)
        diag["pushforward"] = "identity (p=inf)"
        return SampleBatch(points=gas.points, diagnostics=diag)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    x = gas.points
    norms = np.sum(np.abs(x) ** p, axis=1) ** (1.0 / p)
    u = rng.random(len(x))
    ok = norms > 0.0
    radius = u[ok] ** (1.0 / params.d)
    pts = norm_scale * x[ok] * (radius / norms[ok])[:, None]
    diag = dict(gas.diagnostics)
    diag["pushforward"] = "radial"
    diag["skipped_zero_points"] = int(np.sum(~ok))
    return SampleBatch(points=pts, diagnostics=diag)


# ---------------------------------------------------------------------------
# hit-and-run on the Schatten ball

_BISECT_STEPS = 60


def matrix_hit_and_run(spec, n_samples, seed=0, burn_in=300, n_chains=32, thinning=1):
    """Hit-and-run walk over the uniform measure on K_{p,E}.

    Chains start at the origin and move to a uniform point of the chord
    through the current point along a uniform direction; chord endpoints come
    from 60 bisection steps on the Schatten norm.  The chains run in lockstep,
    each on its own spawned seed stream; each keeps ceil(n_samples /
    min(n_chains, n_samples)) draws, merged in chain order and cut to
    n_samples.  Only the chains that return draws run (see _run_chains), so
    40 draws from the default 32 chains run 20 chains of 2 draws each.  The
    returned points are coordinate rows (see matrixlab.coords_to_entries).
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
        t_hi = 2.0 / ml.schatten_norms(spec.field, ml.coords_to_entries(spec, dirs), spec.p) + 1e-9
        # both chord ends in one bisection over the rows (x, +dirs), (x, -dirs)
        ends = _bisect_boundary(spec, np.concatenate([x, x]), np.concatenate([dirs, -dirs]),
                                np.concatenate([t_hi, t_hi]))
        lo_plus, lo_minus = ends[: len(x)], ends[len(x) :]
        u = np.array([r.random() for r in rngs])
        x += (-lo_minus + u * (lo_minus + lo_plus))[:, None] * dirs

    points, diag = _run_chains(n_samples, n_chains, seed, burn_in, thinning, start, sweep)
    return SampleBatch(points=points, diagnostics={"method": "hit_and_run", **diag})


def _bisect_boundary(spec, x, dirs, t_hi):
    """Inner bound on the boundary crossing along +dirs from inside points."""
    lo = np.zeros(x.shape[0])
    hi = t_hi.copy()
    for _ in range(_BISECT_STEPS):
        mid = 0.5 * (lo + hi)
        mats = ml.coords_to_entries(spec, x + mid[:, None] * dirs)
        inside = ml.schatten_norms(spec.field, mats, spec.p) <= 1.0
        lo = np.where(inside, mid, lo)
        hi = np.where(inside, hi, mid)
    return lo


def exact_p2_matrix_sample(spec, n_samples, seed=0):
    """Uniform draws from the Frobenius-norm ball (p=2, Full subspaces only).

    The flat coordinates are a Euclidean isometry there, so scaled Gaussian
    directions with a beta-law radius sample the ball exactly, and the ESS
    series ||T||_2^2 is read from the coordinate rows.  The unit
    directions are scaled by the radius in place (the same multiply as a
    scaled copy), so no second (n_samples, dim) array of draws is made.
    """
    if spec.subspace != "Full" or spec.p != 2:
        raise SamplerUnavailable("exact ball sampling needs p=2 on a Full subspace")
    _check_budget(n_samples)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    dim = spec.dim
    g = rng.standard_normal((n_samples, dim))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    r = rng.random(n_samples) ** (1.0 / dim)
    g *= r[:, None]
    v = np.einsum("ij,ij->i", g, g)  # ||T||_2^2, as the coordinates are an isometry
    return SampleBatch(
        points=g,
        diagnostics={"method": "exact-ball", "chains": 1, "ess_norm2sq": batch_means(v)[2]},
    )
