"""Reference values that the benchmark derives without the package.

Everything here uses only the standard library, numpy and mpmath, so a
fault in schattenlab cannot leak into the numbers it is checked against.
The derivations are written out in README.md.
"""

import math

import mpmath
import numpy as np

# A Monte Carlo check is powered when a deviation equal to its tolerance
# lies at least this many standard errors from zero.
POWER_Z = 5.0


def aomoto_product_mean(b, c, n, k):
    """E[x_1^2 ... x_k^2] for the a=2 gas (b, c, n) on the cube [-1, 1]^n.

    With y = x^2 the gas is the Selberg density prod |y_i - y_j|^b
    prod y_i^(alpha-1) on [0, 1]^n, alpha = (c+1)/2, beta = 1, gamma = b/2,
    and Aomoto's formula gives
    E[y_1 ... y_k] = prod_{i=1..k} (alpha + (n-i) gamma) / (alpha + 1 + (2n-i-1) gamma).
    """
    alpha, gamma = (c + 1) / 2.0, b / 2.0
    out = 1.0
    for i in range(1, k + 1):
        out *= (alpha + (n - i) * gamma) / (alpha + 1.0 + (2 * n - i - 1) * gamma)
    return out


def gas_degree(a, b, c, n):
    """Total degree d = a b n(n-1)/2 + (c+1) n of the gas (b, c, n) with exponent a."""
    return a * b * n * (n - 1) // 2 + (c + 1) * n


def gaussian_radial_moments(d):
    """E||x||_2^2 and E||x||_2^4 at p=2, where ||x||_2^2 ~ Gamma(d/2, 1)."""
    h = d / 2.0
    return h, h * (h + 1.0)


def gaussian_quartic_a1(b, n):
    """E sum x_i^4 for the a=1, c=0 gas at p=2 (integration by parts).

    2 E sum x^4 = 3 E sum x^2 + b E sum_{i<j} (x_i^2 + x_i x_j + x_j^2), with
    E sum x^2 = d/2 and E (sum x)^2 = n/2 from translation along (1, ..., 1).
    """
    d = gas_degree(1, b, 0, n)
    s2 = d / 2.0
    pair = (n - 1) * s2 + 0.5 * (n / 2.0 - s2)
    return 0.5 * (3.0 * s2 + b * pair)


def gaussian_quartic_a2(b, c, n):
    """E sum x_i^4 for the a=2 gas at p=2 (integration by parts):
    2 E sum x^4 = (3 + 2b(n-1) + c) E sum x^2, with E sum x^2 = d/2."""
    d = gas_degree(2, b, c, n)
    return (3.0 + 2.0 * b * (n - 1) + c) * d / 4.0


def frobenius_ball(dim):
    """Uniform law on the Euclidean unit ball of R^dim: v = ||T||_2^2 ~ Beta(dim/2, 1).

    Returns (E v, sigma^2 = dim Var(v) / (E v)^2 = 4/(dim+4), E of one coordinate squared).
    """
    return dim / (dim + 2.0), 4.0 / (dim + 4.0), 1.0 / (dim + 2.0)


def log_gamma_ratio(x, y):
    """log Gamma(x) - log Gamma(y) from math.lgamma."""
    return math.lgamma(x) - math.lgamma(y)


def mp_gamma_ratio(d, p, q, dps=40):
    """Gamma(1 + d/p) / Gamma(1 + (d+q)/p) in mpmath."""
    with mpmath.workdps(dps):
        d = mpmath.mpf(d)
        return float(mpmath.exp(mpmath.loggamma(1 + d / p) - mpmath.loggamma(1 + (d + q) / p)))


def mp_gamma_gap(d, p, dps=60):
    """ratio(d, p, 2)^2 - ratio(d, p, 4) in mpmath, with enough digits that the
    cancellation between the two terms costs nothing at double precision."""
    with mpmath.workdps(dps):
        d = mpmath.mpf(d)
        lg0 = mpmath.loggamma(1 + d / p)
        r2 = mpmath.exp(lg0 - mpmath.loggamma(1 + (d + 2) / p))
        r4 = mpmath.exp(lg0 - mpmath.loggamma(1 + (d + 4) / p))
        return float(r2 * r2 - r4)


def batch_cov_of_means(columns):
    """Means and batch-means covariance of the means of a (N, k) sample path.

    The path is cut into floor(N / b) consecutive batches of b = floor(sqrt(N))
    draws; the spread of the batch means carries the autocorrelation.
    """
    columns = np.asarray(columns, dtype=float)
    n, k = columns.shape
    size = max(1, int(math.isqrt(n)))
    nb = n // size
    means = columns[: nb * size].reshape(nb, size, k).mean(axis=1)
    return columns.mean(axis=0), np.atleast_2d(np.cov(means.T, ddof=1)) / nb


def batch_summary(values):
    """Mean, batch-means standard error and effective sample size of a 1-d path.

    ESS = Var(x) / Var(mean), capped at N; a path too short for two batches
    has an undefined se (nan), which makes any check on it underpowered.
    """
    values = np.asarray(values, dtype=float)
    if values.size < 4:
        return float(values.mean()), math.nan, float(values.size)
    (mean,), cov = batch_cov_of_means(values[:, None])
    var_mean = float(cov[0, 0])
    ess = float(values.size)
    if var_mean > 0.0:
        ess = min(ess, float(values.var(ddof=1)) / var_mean)
    return float(mean), math.sqrt(var_mean), ess


def sigma_sq_with_se(v, dim):
    """Thin-shell statistic dim Var(v)/E(v)^2 of a sample path of v = ||T||_2^2,
    with a delta-method standard error from batch means of (v, v^2)."""
    v = np.asarray(v, dtype=float)
    (m1, m2), cov = batch_cov_of_means(np.stack([v, v * v], axis=1))
    grad = np.array([-2.0 * dim * m2 / m1**3, dim / m1**2])
    return float(dim * (m2 / m1**2 - 1.0)), float(math.sqrt(max(0.0, grad @ cov @ grad)))
