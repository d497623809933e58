"""Moment ratios M_p(F)/M_p(1) of the gas densities: Monte Carlo estimators,
a deterministic quadrature oracle for n <= 3, and the thin-shell statistic
pipelines, which read the closed forms of `exact` where they exist.

The oracle integrates the radius exactly (a Gamma factor, by homogeneity) and
only the face of the ordered sector by quadrature, so there is no truncation
tail; its error bound is the change between its last two refinement levels.
Every functional must be homogeneous of its declared degree.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import density
from . import exact
from . import matrixlab as ml
from . import samplers
from .ensembles import ensemble_of
from .util import batch_means, batch_means_cov, delta_se

__all__ = [
    "Functional",
    "MomentEstimate",
    "SigmaEstimate",
    "VarMpEstimate",
    "OracleFailure",
    "one",
    "coord_pow",
    "pair_sq",
    "norm_sq",
    "norm_sq_sq",
    "abs_pow_sum",
    "pair_ratio",
    "p_norm_power_times",
    "product_of",
    "resolve_functional",
    "estimate_moment",
    "quadrature_moment",
    "quadrature_moments",
    "radial_columns",
    "sigma_from_values",
    "sigma_pipeline",
    "var_mp_pipeline",
]


class OracleFailure(RuntimeError):
    """The quadrature oracle could not certify the requested tolerance."""


@dataclass(frozen=True)
class Functional:
    """A symmetric functional of the gas point, homogeneous of the declared
    degree (the quadrature oracle relies on it and checks it)."""

    name: str
    degree: float
    fn: object

    def __call__(self, pts):
        return self.fn(np.asarray(pts, dtype=float))


def one():
    return Functional("one", 0.0, lambda x: np.ones(x.shape[0]))


def coord_pow(k):
    """Symmetrized coordinate power (1/n) sum_i x_i^k (k even)."""
    return Functional(f"x1_pow{k}", float(k), lambda x: np.mean(x**k, axis=1))


def pair_sq():
    """Symmetrized pair moment sum_{i != j} x_i^2 x_j^2 / (n(n-1)); a point
    with n < 2 coordinates has no pair, so its evaluation raises ValueError."""

    def fn(x):
        n = x.shape[1]
        if n < 2:
            raise ValueError(f"x1sq_x2sq needs a pair of coordinates, n >= 2, got n={n}")
        s2 = np.sum(x**2, axis=1)
        s4 = np.sum(x**4, axis=1)
        return (s2**2 - s4) / (n * (n - 1))

    return Functional("x1sq_x2sq", 4.0, fn)


def norm_sq():
    return Functional("norm2_sq", 2.0, lambda x: np.sum(x**2, axis=1))


def norm_sq_sq():
    return Functional("norm2_4", 4.0, lambda x: np.sum(x**2, axis=1) ** 2)


def abs_pow_sum(xi):
    """sum_i |x_i|^xi, i.e. the xi-th power of the l_xi norm (xi finite, >= 0)."""
    xi = float(xi)
    if not 0 <= xi < math.inf:
        raise ValueError(f"abs_pow_sum needs a finite xi >= 0, got {xi:g}")
    return Functional(f"normpow{xi:g}", xi, lambda x: np.sum(np.abs(x) ** xi, axis=1))


def pair_ratio(a, xi):
    """The pair sum sum_{i<j} (|x_i|^xi x_i^a - |x_j|^xi x_j^a)/(x_i^a - x_j^a).

    Evaluated through its polynomial form (xi must be a nonnegative even
    integer), so coincidence points need no special handling.
    """
    xi = int(xi)
    if xi < 0 or xi % 2:
        raise ValueError("pair_ratio needs even xi >= 0")

    def fn(x):
        n = x.shape[1]
        iu, ju = np.triu_indices(n, k=1)
        if a == 1:
            u, v = x[:, iu], x[:, ju]
            total = np.zeros(x.shape[0])
            for m in range(xi + 1):
                total += np.sum(u**m * v ** (xi - m), axis=1)
            return total
        if a == 2:
            u, v = x[:, iu] ** 2, x[:, ju] ** 2
            mm = xi // 2 + 1
            total = np.zeros(x.shape[0])
            for m in range(mm):
                total += np.sum(u**m * v ** (mm - 1 - m), axis=1)
            return total
        raise ValueError("pair_ratio supports a in {1, 2}")

    return Functional(f"pair_ratio_a{a}_xi{xi}", float(xi), fn)


def p_norm_power_times(p, l, base):
    """||x||_p^l * base(x), used for the homogeneous-moment closed-form checks."""

    def fn(x):
        return np.sum(np.abs(x) ** p, axis=1) ** (l / p) * base.fn(x)

    return Functional(f"pnorm{p:g}^{l:g}*{base.name}", l + base.degree, fn)


def product_of(f1, f2):
    """Pointwise product of two functionals."""
    return Functional(f"{f1.name}*{f2.name}", f1.degree + f2.degree,
                      lambda x: f1.fn(x) * f2.fn(x))


# functional id head -> (factory, one converter per ':'-separated argument)
_FUNCTIONALS = {
    "one": (one, ()),
    "x1_sq": (lambda: coord_pow(2), ()),
    "x1_pow4": (lambda: coord_pow(4), ()),
    "x1_pow6": (lambda: coord_pow(6), ()),
    "x1_pow8": (lambda: coord_pow(8), ()),
    "x1sq_x2sq": (pair_sq, ()),
    "norm2_sq": (norm_sq, ()),
    "norm2_4": (norm_sq_sq, ()),
    "norm4_4": (lambda: abs_pow_sum(4), ()),
    "normpow": (abs_pow_sum, (float,)),
    "norm2_sq*normpow": (lambda xi: product_of(norm_sq(), abs_pow_sum(xi)), (float,)),
    "pair_ratio": (pair_ratio, (int, int)),
}


def resolve_functional(fid):
    """Resolve a functional id: a head, then exactly the ':'-separated arguments it takes.

    Examples: "one", "x1_sq", "x1sq_x2sq", "normpow:4", "norm2_sq*normpow:6",
    "pair_ratio:2:2".
    """
    if isinstance(fid, Functional):
        return fid
    head, *args = fid.split(":")
    if head not in _FUNCTIONALS:
        raise ValueError(f"unknown functional id {fid!r}")
    factory, converters = _FUNCTIONALS[head]
    if len(args) != len(converters):
        raise ValueError(f"functional id {fid!r}: {head} takes {len(converters)} argument(s)")
    return factory(*(convert(arg) for convert, arg in zip(converters, args)))


# ---------------------------------------------------------------------------
# estimates

@dataclass(frozen=True)
class MomentEstimate:
    """A moment ratio M_p(F)/M_p(1) with its error bar.

    For quadrature, std_err is the change between the last two refinement
    levels (the radius is exact, so there is no tail term) and n_samples is
    the node count of the face grid; neither is a statistical quantity.
    """

    value: float
    std_err: float
    n_samples: int
    ess: float
    method: str
    low_confidence: bool = False


def estimate_moment(batch, functional):
    """Batch-means Monte Carlo estimate of a functional over a SampleBatch."""
    func = resolve_functional(functional)
    values = func(batch.points)
    mean, se, eff = batch_means(values)
    return MomentEstimate(
        value=mean,
        std_err=se,
        n_samples=len(values),
        ess=eff,
        method="mc",
        low_confidence=eff < 100,
    )


# ---------------------------------------------------------------------------
# deterministic quadrature oracle (n <= 3)
#
# The density f and every functional F are homogeneous, of degrees d - n and
# k.  On the ordered sector x_n is the largest |x_i|, so x = t (y, 1) with y
# on the face [0,1]^(n-1) (even a) or [-1,1]^(n-1) (odd a).  With
# s = ||(y,1)||_p^p the radius integrates exactly:
#     int_0^inf t^(d+k-1) exp(-s t^p) dt = Gamma((d+k)/p) / p * s^(-(d+k)/p),
# and at p = inf, where t <= 1, it is 1/(d+k).  Only the face is a quadrature.

# the largest n the oracle integrates; callers that route by n read it
ORACLE_MAX_N = 3
_LEVELS = ((2, 6), (3, 10), (4, 14), (5, 18), (6, 24), (7, 30))
# successive levels must agree within half of max(_ABS_TOL, _REL_TOL * |value|)
_ABS_TOL = 1e-8
_REL_TOL = 1e-10


def _panel_nodes(level, order):
    """Gauss-Legendre nodes/weights on [0,1] over dyadic panels packed toward
    both endpoints."""
    breaks = [0.0] + [2.0**-k for k in range(level, 0, -1)]
    breaks += [1.0 - 2.0**-k for k in range(level - 1, 0, -1)] + [1.0]
    breaks = np.array(sorted(set(breaks)))
    base_x, base_w = np.polynomial.legendre.leggauss(order)
    nodes, weights = [], []
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        half = 0.5 * (hi - lo)
        nodes.append(lo + half * (base_x + 1.0))
        weights.append(half * base_w)
    return np.concatenate(nodes), np.concatenate(weights)


def _face_grid(params, level, order):
    """Face points x = (y, 1) of the ordered sector with their weights.

    For odd a the sector also holds the face x_1 = -t, the image of x under
    x -> -x reversed; f is even under that map, so the mirror points come back
    as a second point set sharing the weights.
    """
    n = params.n
    nodes, weights = _panel_nodes(level, order)
    idx = np.indices((nodes.size,) * (n - 1)).reshape(n - 1, nodes.size ** (n - 1)).T
    u = nodes[idx]
    w = np.prod(weights[idx], axis=1)
    # y_i = prod_{k >= i} u_k keeps the face coordinates ordered.
    y = np.cumprod(u[:, ::-1], axis=1)[:, ::-1]
    for k in range(1, n - 1):
        w = w * u[:, k] ** k
    if params.a % 2 == 0:
        return [np.concatenate([y, np.ones((y.shape[0], 1))], axis=1)], w
    x = np.concatenate([2.0 * y - 1.0, np.ones((y.shape[0], 1))], axis=1)
    return [x, -x[:, ::-1]], w * 2.0 ** (n - 1)


def _check_degrees(funcs, faces):
    """Raise OracleFailure unless F(2x) = 2^k F(x) on the face points."""
    x = np.concatenate(faces)
    for f in funcs:
        scaled = 2.0**f.degree * f.fn(x)
        if not np.allclose(f.fn(2.0 * x), scaled, rtol=1e-9,
                           atol=1e-12 * float(np.max(np.abs(scaled), initial=0.0))):
            raise OracleFailure(f"functional {f.name} is not homogeneous of degree {f.degree:g}")


def _sector_sums(params, p, funcs, faces, w):
    """Face sums of f(x) s^(-(d+k)/p) F(x) for F of degree k in [1, funcs...]."""
    x = faces[0]
    logf = density.log_f(params, x)
    # (d + k) / p is 0 at p = inf, where the radius leaves no s factor
    log_s = np.log(np.sum(np.abs(x) ** p, axis=1))
    return np.array([np.dot(w * np.exp(logf - (params.d + f.degree) / p * log_s),
                            sum(f.fn(face) for face in faces))
                     for f in [one(), *funcs]])


def _radial_ratio(d, k, p):
    """Ratio of the radial integrals of degrees d + k and d."""
    return d / (d + k) if math.isinf(p) else exact.closed_form_moment(d, 0.0, k, p)


def quadrature_moments(params, p, functionals):
    """Deterministic moment ratios M_p(F)/M_p(1) for several functionals at once.

    The radius is integrated exactly, so every functional must be homogeneous
    of its declared degree (checked on the first level's nodes).  The face of
    the ordered sector (positive for even a, signed for odd a) is integrated
    with panel-refined Gauss-Legendre rules, escalating refinement until
    successive levels agree within tolerance; raises OracleFailure otherwise.
    """
    n = params.n
    if n > ORACLE_MAX_N:
        raise ValueError(f"quadrature oracle is limited to n <= {ORACLE_MAX_N}")
    funcs = [resolve_functional(f) for f in functionals]
    signed = params.a % 2 == 1
    if signed and params.c % 2 == 1:
        raise OracleFailure("odd-a ensembles need even c for smooth quadrature")
    if signed and not math.isinf(p) and p % 2 != 0:
        raise OracleFailure("odd-a ensembles need even (or infinite) p")
    radial = np.array([_radial_ratio(params.d, f.degree, p) for f in funcs])

    prev = None
    last_err = None
    for level, order in _LEVELS:
        faces, w = _face_grid(params, level, order)
        if prev is None:
            _check_degrees(funcs, faces)
        totals = _sector_sums(params, p, funcs, faces, w)
        if totals[0] <= 0.0:
            raise OracleFailure("vanishing normalization integral")
        ratios = radial * totals[1:] / totals[0]
        if prev is not None:
            deltas = np.abs(ratios - prev)
            last_err = deltas
            if all(dlt <= 0.5 * max(_ABS_TOL, _REL_TOL * abs(r)) for dlt, r in zip(deltas, ratios)):
                return {
                    f.name: MomentEstimate(
                        value=float(r),
                        std_err=float(dlt),
                        n_samples=w.size,
                        ess=float(w.size),
                        method="quadrature",
                    )
                    for f, r, dlt in zip(funcs, ratios, deltas)
                }
        prev = ratios
    raise OracleFailure(
        f"quadrature did not reach tol={_ABS_TOL:g} at max refinement (last delta {last_err})"
    )


def quadrature_moment(params, p, functional):
    """Single-functional wrapper around quadrature_moments."""
    func = resolve_functional(functional)
    return quadrature_moments(params, p, [func])[func.name]


# ---------------------------------------------------------------------------
# thin-shell pipelines

@dataclass(frozen=True)
class SigmaEstimate:
    """Thin-shell statistic of a Schatten ball: sigma^2 = dim Var(v)/E(v)^2
    for v = ||T||_2^2 under the uniform measure, dim the real dimension of
    the matrix subspace.

    std_err is the delta-method error of sigma_sq from the joint batch means
    of the two columns sigma_from_values reads, inf below 4 draws; ess is the
    smaller of their effective sample sizes; on an exact route std_err is
    0 and ess inf.  The fields are in the order of the CLI's sigma record.
    """

    sigma_sq: float
    std_err: float
    var_norm_sq: float
    mean_norm_sq: float
    dim: int
    mean_over_dim: float
    ess: float
    method: str


def radial_columns(points, p, multiplicity, d):
    """Per-draw columns (w d/(d+2), w^2 d/(d+4)) of gas points, whose means
    are E v and E v^2 for v = ||T||_2^2 on the ball of real dimension d.

    w = k ||x||_2^2 / N(x)^2 with k the multiplicity and N(x) the ball's norm
    of x: (k sum |x_i|^p)^(1/p), or max |x_i| at p = inf.  The ball point is
    T = R x / N(x) with R = N(T) independent of the direction and R^d
    uniform, so v = R^2 w, and E R^2 = d/(d+2) and E R^4 = d/(d+4) are
    integrated, never drawn (Rao-Blackwellisation).
    """
    x = np.asarray(points, dtype=float)
    k = multiplicity
    if math.isinf(p):
        norm_sq = np.max(np.abs(x), axis=1) ** 2
    else:
        norm_sq = (k * np.sum(np.abs(x) ** p, axis=1)) ** (2.0 / p)
    w = k * np.sum(x**2, axis=1) / norm_sq
    return np.stack([w * (d / (d + 2)), w**2 * (d / (d + 4))], axis=1)


def sigma_from_values(columns, d, method):
    """The one sigma^2 estimator: SigmaEstimate of a ball of real dimension d
    from (N, 2) per-draw columns whose means are E v and E v^2, v = ||T||_2^2:
    (v, v^2) of the matrix walk's draws, or radial_columns of gas draws.  The
    error is the delta-method one of their joint batch means; method names
    the route that drew them."""
    means, cov, eff = batch_means_cov(columns)
    return _sigma_estimate(d, *means, cov, eff, method)


def _sigma_estimate(d, m, m2, cov, eff, method):
    """SigmaEstimate from the means m, m2 of (v, v^2) and their covariance;
    the exact route passes Fractions and a zero covariance."""
    var = m2 - m * m
    # delta method on (m, m2) -> d*(m2/m^2 - 1)
    return SigmaEstimate(
        sigma_sq=float(d * var / m**2),
        std_err=delta_se([-2.0 * d * m2 / m**3, d / m**2], cov),
        var_norm_sq=float(var),
        mean_norm_sq=float(m),
        dim=int(d),
        mean_over_dim=float(m / d),
        ess=eff,
        method=method,
    )


# the samplers sigma_pipeline accepts, in the order the CLI offers them
SIGMA_SAMPLERS = ("auto", "hit_and_run")


def sigma_pipeline(spec, sampler="auto", budget=100_000, seed=0, mcmc_kwargs=None):
    """Estimate the thin-shell statistic of K_{p,E} from the singular-value law.

    sampler: "auto" (exact where exact.ball_moments answers, else
    radial_columns of gas draws) or "hit_and_run" for the direct matrix walk,
    whose raw (v, v^2) validate it.  mcmc_kwargs (n_chains, burn_in) go to
    whichever chain sampler runs: Metropolis or hit-and-run.  The exact route
    draws nothing (budget must still be >= 1) and names its method "exact-"
    + route.  Other samplers raise ValueError.
    """
    if sampler not in SIGMA_SAMPLERS:
        raise ValueError(f"sampler must be {' or '.join(map(repr, SIGMA_SAMPLERS))}, "
                         f"got {sampler!r}")
    if sampler == "hit_and_run":
        mats = samplers.matrix_hit_and_run(spec, n_samples=budget, seed=seed,
                                           **(mcmc_kwargs or {}))
        v = ml.frobenius_sq_batch(spec, mats.points)
        return sigma_from_values(np.stack([v, v**2], axis=1), spec.dim, "hit_and_run")
    if (found := exact.ball_moments(spec)) is not None:
        samplers._check_budget(budget)
        route, (m, m2) = found
        return _sigma_estimate(spec.dim, m, m2, np.zeros((2, 2)), math.inf, "exact-" + route)
    mapping = ensemble_of(spec)
    gas = samplers.gas_sample(mapping.params, spec.p, budget, seed, mcmc_kwargs=mcmc_kwargs)
    return sigma_from_values(radial_columns(gas.points, spec.p, mapping.multiplicity, spec.dim),
                             spec.dim, gas.diagnostics["method"])


@dataclass(frozen=True)
class VarMpEstimate:
    """Var_{M_p}(||x||_2^2) split into its symmetrized moment terms.

    combination = term_quartic + term_cross - term_square, estimated jointly
    on shared draws with a covariance-aware standard error.  method names the
    route: the gas batch's method, or an "exact-" one with every error bar 0.
    At n=1 the gas has no pair: term_cross is 0, and cross_gap and
    cross_gap_se are NaN.
    """

    term_quartic: float
    term_cross: float
    term_square: float
    combination: float
    std_err: float
    cross_gap: float
    cross_gap_se: float
    coord_sq_mean: float
    coord_sq_se: float
    quart_ratio: float
    quart_ratio_se: float
    ess: float
    n: int
    method: str


def var_mp_pipeline(params, p, budget=100_000, seed=0, mcmc_kwargs=None, gas=None):
    """Estimate Var_{M_p}(||x||_2^2) and its decomposition from gas draws.

    With no gas it draws nothing where exact.gas_moments answers, and names
    its method "exact-" + route, every error bar 0.
    """
    n = params.n
    if gas is None and (found := exact.gas_moments(params, p)) is not None:
        samplers._check_budget(budget)
        route, moments = found
        return _var_mp_estimate(n, moments, np.zeros((3, 3)), math.inf, "exact-" + route)
    if gas is None:
        gas = samplers.gas_sample(params, p, budget, seed, mcmc_kwargs=mcmc_kwargs)
    x = gas.points
    cross = pair_sq().fn(x) if n > 1 else np.zeros(len(x))
    joint = np.stack([coord_pow(4).fn(x), cross, coord_pow(2).fn(x)], axis=1)
    means, cov, eff = batch_means_cov(joint)
    return _var_mp_estimate(n, means, cov, eff, gas.diagnostics["method"])


def _var_mp_estimate(n, means, cov, eff, method):
    """VarMpEstimate from the means of (x1^4, x1^2 x2^2, x1^2) and their covariance."""
    e4, ec, e2 = means
    term_quartic = n * e4
    term_cross = n * (n - 1) * ec
    term_square = n**2 * e2**2
    combination = term_quartic + term_cross - term_square
    return VarMpEstimate(
        term_quartic=float(term_quartic),
        term_cross=float(term_cross),
        term_square=float(term_square),
        combination=float(combination),
        std_err=delta_se([n, n * (n - 1), -2.0 * n**2 * e2], cov),
        cross_gap=float(ec - e2**2) if n > 1 else math.nan,
        cross_gap_se=delta_se([0.0, 1.0, -2.0 * e2], cov) if n > 1 else math.nan,
        coord_sq_mean=float(e2),
        coord_sq_se=delta_se([0.0, 0.0, 1.0], cov),
        quart_ratio=float(e4 / e2**2),
        quart_ratio_se=delta_se([1.0 / e2**2, 0.0, -2.0 * e4 / e2**3], cov),
        ess=eff,
        n=n,
        method=method,
    )
