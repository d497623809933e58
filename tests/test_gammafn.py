import math
from fractions import Fraction

import numpy as np
import pytest

from schattenlab.gammafn import GammaRatio, gamma_gap, gamma_ratio


def test_gamma_ratio_trivial():
    assert gamma_ratio(4, 2, 2).value == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert gamma_ratio(4, 2, 0).value == pytest.approx(1.0, rel=1e-14)


def test_gamma_ratio_direct_evaluation():
    # frozen via direct lgamma arithmetic
    r = gamma_ratio(100, 10, 2)
    expected = math.exp(math.lgamma(11.0) - math.lgamma(11.2))
    assert r.value == pytest.approx(expected, rel=1e-12)
    assert isinstance(r, GammaRatio)
    # discrepancy factor stays within the (1 +- c q/d)^q band with c modest
    assert abs(r.discrepancy ** (1.0 / 2.0) - 1.0) <= 5.0 * 2.0 / 100


def test_gamma_ratio_bounded():
    # Gamma dips below 1 on (1, 1.4616...), so the ratio can slightly exceed 1
    # when d/p is small; 1/min Gamma = 1.1292 is the sharp global cap, and the
    # ratio is a true probability-like factor once 1 + d/p passes the dip.
    rng = np.random.default_rng(0)
    cap = 1.0 / 0.8856031944108887
    for _ in range(300):
        d = rng.integers(1, 2000)
        p = rng.uniform(1, 100)
        q = rng.uniform(0, 50)
        v = gamma_ratio(d, p, q).value
        assert 0.0 < v <= cap + 1e-12
        if d >= p:
            assert v <= 1.0 + 1e-12


def test_gamma_ratio_functional_equation():
    rng = np.random.default_rng(1)
    for _ in range(100):
        d = float(rng.integers(1, 500))
        p = rng.uniform(1, 50)
        q1 = rng.uniform(0, 10)
        q2 = rng.uniform(0, 10)
        lhs = gamma_ratio(d, p, q1 + q2).value
        rhs = gamma_ratio(d, p, q1).value * gamma_ratio(d + q1, p, q2).value
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_gamma_gap_positive_and_stable():
    assert gamma_gap(16, 4) > 0.0
    # large-d decay at fixed p, without catastrophic cancellation
    prev = math.inf
    for d in [10, 100, 1000, 10_000, 100_000]:
        g = gamma_gap(d, 3)
        assert 0.0 < g < prev
        prev = g


def test_gamma_gap_sandwich_samples():
    for d in [4, 16, 256, 4096]:
        for p in [1.0, 2.0, 37.0, 4096.0]:
            val = gamma_gap(d, p) / gamma_ratio(d, p, 2).value ** 2
            assert 0.02 / (p * (p + d)) <= val <= 50.0 / (p * d)


def _exact_gap(d, p):
    """ratio(d,p,2)^2 - ratio(d,p,4) as a Fraction: at p = 1 the ratios are
    1/((d+1)(d+2)) and 1/((d+1)...(d+4)), at p = 2 they are 2/(d+2) and
    4/((d+2)(d+4))."""
    d = Fraction(d)
    if p == 1:
        r2 = 1 / ((d + 1) * (d + 2))
        r4 = r2 / ((d + 3) * (d + 4))
    else:
        r2 = 2 / (d + 2)
        r4 = 4 / ((d + 2) * (d + 4))
    return r2 * r2 - r4


def test_gamma_gap_exact_rationals():
    # the two terms agree to O(1/(p d)), so this pins the cancellation-free route
    for p in (1, 2):
        for k in range(8):
            d = 10**k
            exact = _exact_gap(d, p)
            err = abs(Fraction(gamma_gap(float(d), float(p))) - exact) / exact
            assert err <= 1e-13, (d, p, float(err))


@pytest.mark.parametrize("d, p, q", [(math.inf, 2.0, 2.0), (4.0, math.inf, 2.0),
                                     (4.0, 2.0, math.inf), (4.0, 2.0, math.nan)])
def test_gamma_functions_reject_non_finite_arguments(d, p, q):
    with pytest.raises(ValueError, match="finite"):
        gamma_ratio(d, p, q)
    if math.isfinite(q):
        with pytest.raises(ValueError, match="finite"):
            gamma_gap(d, p)
