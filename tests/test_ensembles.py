import math

import numpy as np
import pytest

from matrix_reference import Quaternion
from schattenlab.ensembles import (
    BETA,
    EnsembleParams,
    SchattenSpec,
    ensemble_of,
)

I = Quaternion(0, 1, 0, 0)
J = Quaternion(0, 0, 1, 0)
K = Quaternion(0, 0, 0, 1)
ONE = Quaternion(1, 0, 0, 0)


def _rand_quat(rng):
    return Quaternion(*rng.standard_normal(4))


def test_defining_relations():
    assert I * J == K
    assert J * K == I
    assert K * I == J
    assert I * I == Quaternion(-1, 0, 0, 0)


def test_conjugate_and_abs():
    q = Quaternion(1, 1, 0, 0)
    assert q.conjugate() == Quaternion(1, -1, 0, 0)
    assert abs(Quaternion(1, 1, 1, 1)) == pytest.approx(2.0)
    # conjugate(q) q = |q|^2
    rng = np.random.default_rng(0)
    for _ in range(50):
        q = _rand_quat(rng)
        sq = q.conjugate() * q
        assert sq.w == pytest.approx(q.norm_sq(), rel=1e-12)
        assert sq.vector_norm() < 1e-12 * max(1.0, q.norm_sq())


def test_product_algebra_random_triples():
    rng = np.random.default_rng(1)
    for _ in range(200):
        a, b, c = (_rand_quat(rng) for _ in range(3))
        left = (a * b) * c
        right = a * (b * c)
        assert abs(left - right) < 1e-12 * max(1.0, abs(left))
        dist = a * (b + c)
        expand = a * b + a * c
        assert abs(dist - expand) < 1e-12 * max(1.0, abs(dist))
        # anti-automorphism and multiplicativity of the norm
        assert abs((a * b).conjugate() - b.conjugate() * a.conjugate()) < 1e-12
        assert abs(a * b) == pytest.approx(abs(a) * abs(b), rel=1e-12)


def test_ensemble_params_degree():
    p = EnsembleParams(2, 2, 1, 2)
    assert p.d == 8
    assert p.degree == 6
    assert EnsembleParams(1, 1, 0, 2).degree == 1
    with pytest.raises(ValueError):
        EnsembleParams(0, 1, 0, 2)
    with pytest.raises(ValueError):
        EnsembleParams(2, 1, -1, 2)


def test_full_mapping_all_fields():
    for field in ("R", "C", "H"):
        beta = BETA[field]
        for n in range(1, 33):
            spec = SchattenSpec(field, "Full", n, 2.0)
            m = ensemble_of(spec)
            assert m.params == EnsembleParams(2, beta, beta - 1, n)
            assert m.params.d == beta * n * n == spec.dim
            assert m.multiplicity == 1


def test_self_adjoint_mapping():
    m = ensemble_of(SchattenSpec("R", "SelfAdjoint", 4, 2.0))
    assert m.params == EnsembleParams(1, 1, 0, 4)
    assert m.params.d == 4 * 5 // 2
    m = ensemble_of(SchattenSpec("H", "SelfAdjoint", 3, 1.0))
    assert m.params == EnsembleParams(1, 4, 0, 3)
    assert m.params.d == 2 * 9 - 3


def test_antisym_mapping():
    m = ensemble_of(SchattenSpec("C", "AntiSymHermitian", 5, 2.0))
    assert m.params == EnsembleParams(2, 2, 2, 2)
    assert m.multiplicity == 2
    m = ensemble_of(SchattenSpec("C", "AntiSymHermitian", 4, 2.0))
    assert m.params == EnsembleParams(2, 2, 0, 2)
    # the gas degree matches the subspace dimension
    for n in range(2, 12):
        spec = SchattenSpec("C", "AntiSymHermitian", n, 2.0)
        assert ensemble_of(spec).params.d == spec.dim == n * (n - 1) // 2


def test_complex_symmetric_mapping():
    for n in (1, 2, 5):
        spec = SchattenSpec("C", "ComplexSymmetric", n, 3.0)
        m = ensemble_of(spec)
        assert m.params == EnsembleParams(2, 1, 1, n)
        assert m.params.d == n * (n + 1) == spec.dim


def test_mapping_is_deterministic():
    spec = SchattenSpec("C", "Full", 6, math.inf)
    assert ensemble_of(spec) == ensemble_of(spec)


def test_illegal_specs():
    with pytest.raises(ValueError):
        SchattenSpec("R", "AntiSymHermitian", 4, 2.0)
    with pytest.raises(ValueError):
        SchattenSpec("H", "ComplexSymmetric", 4, 2.0)
    with pytest.raises(ValueError):
        SchattenSpec("R", "Full", 2, 0.5)
    with pytest.raises(ValueError):
        SchattenSpec("Q", "Full", 2, 2.0)
    # the 1 x 1 anti-Hermitian ball has dimension 0: no spec, whatever p
    for p in (1.0, 2.0, 3.0, math.inf):
        with pytest.raises(ValueError, match="n >= 2"):
            SchattenSpec("C", "AntiSymHermitian", 1, p)


def test_p_infinity_is_exact():
    spec = SchattenSpec("R", "Full", 2, math.inf)
    assert math.isinf(spec.p)
    assert spec.p == float("inf")
