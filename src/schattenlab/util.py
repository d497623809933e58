"""Batch-means error bars, effective sample sizes and delta-method errors."""

import math

import numpy as np

__all__ = ["batch_means", "batch_means_cov", "delta_se"]


def batch_means(values):
    """Mean, batch-means standard error and ESS of a 1-d sample path: the
    one-column case of batch_means_cov (an infinite error bar below 4 draws)."""
    means, cov, ess = batch_means_cov(np.asarray(values, dtype=float)[:, None])
    return float(means[0]), math.sqrt(cov[0, 0]), ess


def batch_means_cov(values):
    """Joint batch-means estimate for a (N, k) sample path.

    Returns (means, cov_of_mean, ess): means are over all N draws,
    cov_of_mean is the k x k covariance matrix of the vector of sample means,
    from batches of floor(sqrt(N)) draws with the tail trimmed, and ess is
    the smallest per-column effective sample size, capped at N.  Below 4
    draws there are too few batches for an error bar, so the covariance is
    inf and ess is N.  Each column is reduced as one contiguous row.
    """
    cols = np.ascontiguousarray(np.asarray(values, dtype=float).T)
    k, n = cols.shape
    if n < 4:
        return cols.mean(axis=1), np.full((k, k), math.inf), float(n)
    b = math.isqrt(n)
    nb = n // b
    trimmed = cols[:, : nb * b]
    bm = trimmed.reshape(k, nb, b).mean(axis=2)
    cov = np.atleast_2d(np.cov(bm, ddof=1)) / nb
    var_bm = np.var(bm, axis=1, ddof=1)
    var_all = np.var(trimmed, axis=1, ddof=1)
    ess = min([n] + [nb * va / vb for va, vb in zip(var_all, var_bm) if vb > 0])
    return cols.mean(axis=1), cov, float(ess)


def delta_se(grad, cov):
    """Delta-method standard error sqrt(g.C.g) of a smooth function of the
    means, from its gradient g and the covariance C of the means; inf when C
    is not finite."""
    if not np.isfinite(cov).all():
        return math.inf
    grad = np.asarray(grad, dtype=float)
    return float(np.sqrt(max(0.0, grad @ cov @ grad)))
