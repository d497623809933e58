import math

import numpy as np
import pytest

from schattenlab.density import log_f, log_f_p
from schattenlab.ensembles import EnsembleParams

FACT_TABLE = [
    EnsembleParams(2, 1, 0, 3),
    EnsembleParams(2, 2, 1, 3),
    EnsembleParams(2, 4, 3, 3),
    EnsembleParams(1, 1, 0, 3),
    EnsembleParams(1, 2, 0, 3),
    EnsembleParams(2, 1, 1, 3),
]


def test_log_f_values():
    assert log_f(EnsembleParams(2, 1, 0, 2), [1.0, 2.0]) == pytest.approx(math.log(3))
    assert log_f(EnsembleParams(1, 2, 0, 3), [0.0, 1.0, 2.0]) == pytest.approx(math.log(4))


def test_log_f_coincidence_is_minus_inf():
    assert log_f(EnsembleParams(2, 1, 0, 2), [1.3, 1.3]) == -math.inf
    assert log_f(EnsembleParams(2, 1, 1, 2), [0.0, 1.0]) == -math.inf


def test_log_f_p_values():
    assert log_f_p(EnsembleParams(2, 1, 0, 2), 2.0, [1.0, 2.0]) == pytest.approx(math.log(3) - 5.0)
    # degenerate n=1, c=2, p=1
    assert log_f_p(EnsembleParams(1, 1, 2, 1), 1.0, [3.0]) == pytest.approx(2 * math.log(3) - 3.0)


def test_log_f_p_infinity_cube():
    params = EnsembleParams(2, 1, 0, 3)
    assert log_f_p(params, math.inf, [2.0, 0.1, 0.2]) == -math.inf
    inside = log_f_p(params, math.inf, [0.5, 0.1, 0.2])
    assert inside == pytest.approx(log_f(params, [0.5, 0.1, 0.2]))


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        log_f(EnsembleParams(2, 1, 0, 3), [1.0, 2.0])


def test_homogeneity_degree_values():
    assert EnsembleParams(2, 2, 1, 2).degree == 6
    assert EnsembleParams(1, 1, 0, 2).degree == 1


def test_homogeneity_scaling_all_families():
    rng = np.random.default_rng(2)
    for params in FACT_TABLE:
        deg = params.degree
        for _ in range(20):
            x = rng.standard_normal(params.n) * 2.0
            r = float(np.exp(rng.uniform(-2, 2)))
            lhs = log_f(params, r * x) - log_f(params, x)
            assert lhs == pytest.approx(deg * math.log(r), abs=1e-10)


def test_permutation_invariance():
    rng = np.random.default_rng(3)
    for params in FACT_TABLE:
        x = rng.standard_normal(params.n)
        base = log_f(params, x)
        for _ in range(10):
            perm = rng.permutation(params.n)
            assert log_f(params, x[perm]) == pytest.approx(base, abs=1e-12)


def test_sign_flip_invariance_even_a():
    rng = np.random.default_rng(4)
    for params in FACT_TABLE:
        if params.a % 2:
            continue
        x = rng.standard_normal(params.n)
        base = log_f(params, x)
        for _ in range(10):
            eps = rng.choice([-1.0, 1.0], size=params.n)
            assert log_f(params, eps * x) == pytest.approx(base, abs=1e-12)


def test_sign_flip_changes_odd_a():
    # the eigenvalue families are not sign-symmetric coordinatewise
    params = EnsembleParams(1, 1, 0, 2)
    x = np.array([0.4, 1.0])
    flipped = np.array([-0.4, 1.0])
    assert log_f(params, x) != pytest.approx(log_f(params, flipped))


def test_batch_evaluation_matches_scalar():
    params = EnsembleParams(2, 2, 1, 4)
    rng = np.random.default_rng(5)
    pts = rng.standard_normal((32, 4))
    batch = log_f_p(params, 3.0, pts)
    for i in range(32):
        assert batch[i] == pytest.approx(log_f_p(params, 3.0, pts[i]), rel=1e-12)
