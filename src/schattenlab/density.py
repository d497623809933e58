"""Log-domain evaluation of the gas densities, weighted and unweighted.

All density work stays in log domain: the pair product overflows double
precision near n ~ 20 otherwise.  Coincidence points and zeros of the
coordinate factor give -inf, which samplers treat as reject-always states.
"""

import math

import numpy as np

__all__ = ["log_f", "log_f_p"]


def _check_dim(params, x):
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != params.n:
        raise ValueError(f"point has {x.shape[-1]} coordinates, ensemble has n={params.n}")
    return x


def log_f(params, x):
    """log of prod_{i<j}|x_i^a - x_j^a|^b * prod_i |x_i|^c, or -inf on the zero set.

    Accepts a single point of shape (n,) or a batch of shape (m, n).
    """
    x = _check_dim(params, x)
    single = x.ndim == 1
    pts = x[None, :] if single else x
    out = _log_f_batch(params, pts)
    return float(out[0]) if single else out


def _log_f_batch(params, pts):
    n = params.n
    with np.errstate(divide="ignore", invalid="ignore"):
        if n > 1:
            xa = pts ** params.a if params.a != 1 else pts
            iu, ju = np.triu_indices(n, k=1)
            diffs = np.abs(xa[:, iu] - xa[:, ju])
            pair = params.b * np.sum(np.log(diffs), axis=1)
        else:
            pair = np.zeros(pts.shape[0])
        if params.c:
            coord = params.c * np.sum(np.log(np.abs(pts)), axis=1)
        else:
            coord = 0.0
    out = pair + coord
    return np.where(np.isnan(out), -np.inf, out)


def log_f_p(params, p, x):
    """log of the weighted density exp(-||x||_p^p) * f(x).

    For p = inf the weight is the indicator of the unit cube: points outside
    get -inf.
    """
    x = _check_dim(params, x)
    single = x.ndim == 1
    pts = x[None, :] if single else x
    base = _log_f_batch(params, pts)
    if math.isinf(p):
        inside = np.max(np.abs(pts), axis=1) <= 1.0
        out = np.where(inside, base, -np.inf)
    else:
        out = base - np.sum(np.abs(pts) ** p, axis=1)
    return float(out[0]) if single else out

