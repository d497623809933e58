"""Batch-means error bars, effective sample sizes and delta-method errors."""

import math

import numpy as np

__all__ = ["batch_means", "batch_means_cov", "delta_se"]


def batch_means(values):
    """Mean, batch-means standard error and ESS of a 1-d sample path.

    Batch size floor(sqrt(N)); ESS is capped at the raw count.
    """
    values = np.asarray(values, dtype=float)
    n = values.size
    if n < 4:
        return float(np.mean(values)), float("inf"), float(n)
    b = int(math.floor(math.sqrt(n)))
    nb = n // b
    trimmed = values[: nb * b].reshape(nb, b)
    bm = trimmed.mean(axis=1)
    mean = float(trimmed.mean())
    var_bm = float(np.var(bm, ddof=1))
    if var_bm == 0.0:
        return mean, 0.0, float(n)
    se = math.sqrt(var_bm / nb)
    var_all = float(np.var(trimmed, ddof=1))
    eff = min(float(n), nb * var_all / var_bm)
    return mean, se, eff


def batch_means_cov(values):
    """Joint batch-means estimate for a (N, k) sample path.

    Returns (means, cov_of_mean, min_ess): cov_of_mean is the k x k covariance
    matrix of the vector of sample means.
    """
    values = np.asarray(values, dtype=float)
    n, k = values.shape
    b = max(1, int(math.floor(math.sqrt(n))))
    nb = n // b
    trimmed = values[: nb * b].reshape(nb, b, k)
    bm = trimmed.mean(axis=1)
    means = trimmed.reshape(-1, k).mean(axis=0)
    cov = np.atleast_2d(np.cov(bm.T, ddof=1)) / nb
    ess_min = float("inf")
    var_all = np.var(trimmed.reshape(-1, k), axis=0, ddof=1)
    var_bm = np.var(bm, axis=0, ddof=1)
    for j in range(k):
        if var_bm[j] > 0:
            ess_min = min(ess_min, nb * var_all[j] / var_bm[j])
    ess_min = min(ess_min, float(n))
    return means, cov, ess_min


def delta_se(grad, cov):
    """Delta-method standard error sqrt(g.C.g) of a smooth function of the
    means, from its gradient g and the covariance C of the means."""
    grad = np.asarray(grad, dtype=float)
    return float(np.sqrt(max(0.0, grad @ cov @ grad)))
