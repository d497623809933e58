import math
import warnings

import numpy as np
import pytest

from schattenlab.util import batch_means, batch_means_cov, delta_se


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 100, 10_000])
def test_batch_means_is_the_one_column_case(n):
    v = np.random.default_rng(n).standard_normal(n).cumsum()
    mean, se, ess = batch_means(v)
    means, cov, ess_cov = batch_means_cov(v[:, None])
    assert mean == means[0]
    assert ess == ess_cov
    assert math.isclose(se, math.sqrt(cov[0, 0]), rel_tol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_error_bar_is_infinite_below_four_draws(n):
    x = np.random.default_rng(n).standard_normal((n, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mean, se, ess = batch_means(x[:, 0])
        means, cov, ess_cov = batch_means_cov(x)
        assert se == math.inf and ess == n and mean == x[:, 0].mean()
        assert np.all(cov == math.inf) and ess_cov == n
        np.testing.assert_array_equal(means, x.mean(axis=0))
        assert delta_se([1.0, 0.0], cov) == math.inf


def test_delta_se_is_inf_for_a_non_finite_covariance():
    assert delta_se([1.0, 0.0], np.array([[math.nan, 0.0], [0.0, 1.0]])) == math.inf
    assert delta_se([3.0, 4.0], np.eye(2)) == 5.0


def test_constant_path_has_a_zero_error_bar_and_full_ess():
    assert batch_means(np.full(100, 2.5)) == (2.5, 0.0, 100.0)
