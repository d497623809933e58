"""Log-Gamma and the Gamma-ratio quantities used throughout the moment identities."""

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["log_gamma", "gamma_ratio", "gamma_gap", "GammaRatio"]


def log_gamma(x):
    """Natural log of Gamma(x) for x > 0, by math.lgamma.

    Against mpmath its relative error is at most 2.7e-14 over 400 geometric
    points of [1e-3, 1e8] (those with |log Gamma(x)| > 1e-3).
    """
    if not x > 0.0:
        raise ValueError(f"log_gamma requires x > 0, got {x!r}")
    return math.lgamma(x)


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
    if d < 1 or p < 1 or q < 0:
        raise ValueError("gamma_ratio requires d >= 1, p >= 1, q >= 0")
    log_value = log_gamma(1.0 + d / p) - log_gamma(1.0 + (d + q) / p)
    value = math.exp(log_value)
    approximant = ((d + p + q) / p) ** (-q / p)
    discrepancy = math.exp(log_value + (q / p) * math.log((d + p + q) / p))
    return GammaRatio(d=d, p=p, q=q, value=value, approximant=approximant, discrepancy=discrepancy)


def gamma_gap(d, p):
    """The difference ratio(d,p,2)^2 - ratio(d,p,4), computed in the log domain.

    The two terms agree to O(1/(p*d)); the shared exponent is factored out
    before subtracting, but the difference of the two log-Gamma combinations
    still cancels: against mpmath the relative error reaches 3.5e-6 on a
    36-point grid with d and p up to 1e5.
    """
    if d < 1 or p < 1:
        raise ValueError("gamma_gap requires d >= 1, p >= 1")
    lg0 = log_gamma(1.0 + d / p)
    a = 2.0 * (lg0 - log_gamma(1.0 + (d + 2.0) / p))
    b = lg0 - log_gamma(1.0 + (d + 4.0) / p)
    m = max(a, b)
    return math.exp(m) * (math.exp(a - m) - math.exp(b - m))


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
