import dataclasses
import math

import numpy as np
import pytest

import matrix_reference as ref
from matrix_reference import Quaternion
from schattenlab.ensembles import SchattenSpec
from schattenlab import matrixlab as ml


def _norm(field, entries, p):
    """The package's Schatten p-norm of one matrix: schatten_norms on a batch of one."""
    return float(ml.schatten_norms(field, entries[None], p)[0])


def test_svd_trivial_cases():
    assert np.allclose(ref.svd("R", np.diag([1.0, 2.0])), [2, 1])
    assert np.allclose(ref.svd("R", np.array([[0.0, 1.0], [1.0, 0.0]])), [1, 1])
    q = np.zeros((1, 1, 4))
    q[0, 0, 1] = 1.0
    assert np.allclose(ref.svd("H", q), [1.0])


@pytest.mark.parametrize("field", ["R", "C"])
def test_svd_matches_library(field):
    rng = np.random.default_rng(10)
    for n in (2, 3, 5, 8):
        for _ in range(10):
            t = ml.random_matrix(field, n, rng)
            ours = ref.svd(field, t)
            lib = np.linalg.svd(t, compute_uv=False)
            assert np.max(np.abs(ours - lib)) < 1e-10 * max(1.0, lib[0])


def test_svd_quaternion_embedding_pairs():
    rng = np.random.default_rng(11)
    for n in (2, 4, 6):
        t = ml.random_matrix("H", n, rng)
        emb = np.linalg.svd(ml._embed(t), compute_uv=False)
        assert np.max(np.abs(emb[0::2] - emb[1::2])) < 1e-10 * emb[0]
        ours = ref.svd("H", t)
        assert np.max(np.abs(ours - emb[0::2])) < 1e-10 * emb[0]
    # a (B, n, n, 4) batch embeds and decomposes matrix by matrix
    batch = rng.standard_normal((5, 3, 3, 4))
    emb = ml._embed(batch)
    sv = ml.singular_values("H", batch)
    assert emb.shape == (5, 6, 6) and sv.shape == (5, 3)
    for k in range(5):
        assert np.array_equal(emb[k], ml._embed(batch[k]))
        assert np.array_equal(emb[k], ref.complex_embedding(batch[k]))
        jac = ref.svd("H", batch[k])
        assert np.max(np.abs(sv[k] - jac)) < 1e-10 * jac[0]


def test_frobenius_consistency():
    rng = np.random.default_rng(12)
    for field in ("R", "C", "H"):
        t = ml.random_matrix(field, 6, rng)
        s = ref.svd(field, t)
        assert np.sum(s**2) == pytest.approx(ml.abs_sq(field, t).sum(), rel=1e-10)
        assert np.all(np.diff(s) <= 1e-12)
        assert np.all(s >= 0)


def test_schatten_norm_values():
    eye3 = np.eye(3)
    assert _norm("R", eye3, 1.0) == pytest.approx(3.0)
    assert _norm("R", eye3, math.inf) == pytest.approx(1.0)
    assert _norm("R", np.diag([3.0, 4.0]), 2.0) == pytest.approx(5.0)
    empty = np.zeros((0, 0))
    assert _norm("R", empty, math.inf) == 0.0 and _norm("R", empty, 2.0) == 0.0
    # the library-SVD norms against the one-sided Jacobi reference
    rng = np.random.default_rng(16)
    for field in ("R", "C", "H"):
        for n in (1, 2, 3, 5):
            t = ml.random_matrix(field, n, rng)
            sv = ref.svd(field, t)
            for p in (1.0, 2.0, 3.0, math.inf):
                want = sv[0] if math.isinf(p) else np.sum(sv**p) ** (1.0 / p)
                assert _norm(field, t, p) == pytest.approx(want, rel=1e-12, abs=0.0)


def _layout_reference(spec, row):
    """One matrix from one coordinate row, entry by entry from the documented
    layout of coords_to_entries."""
    n, field, sub = spec.n, spec.field, spec.subspace
    upper = [(i, j) for i in range(n) for j in range(i + 1, n)]

    def element(cols, count, m):
        """m-th of count field elements: R one real, C a real part from the
        first block and an imaginary part from the second, H four components."""
        if field == "R":
            return cols[m]
        if field == "C":
            return complex(cols[m], cols[count + m])
        return cols[4 * m : 4 * m + 4]

    def conj(v):
        return np.array([v[0], -v[1], -v[2], -v[3]]) if field == "H" else np.conj(v)

    out = np.zeros((n, n, 4) if field == "H" else (n, n), dtype=complex if field == "C" else float)
    if sub == "Full":
        for i in range(n):
            for j in range(n):
                out[i, j] = element(row, n * n, i * n + j)
    elif sub == "AntiSymHermitian":
        out = out.astype(complex)
        for m, (i, j) in enumerate(upper):
            out[i, j], out[j, i] = 1j * row[m], -1j * row[m]
    else:
        symmetric = sub == "ComplexSymmetric"
        n_diag = 2 * n if symmetric else n
        for i in range(n):
            if symmetric:
                out[i, i] = element(row[:n_diag], n, i)
            elif field == "H":
                out[i, i, 0] = row[i]
            else:
                out[i, i] = row[i]
        for m, (i, j) in enumerate(upper):
            v = element(row[n_diag:], len(upper), m)
            out[i, j] = v
            out[j, i] = v if symmetric else conj(v)
    return out


@pytest.mark.parametrize("field,subspace", [
    ("R", "Full"), ("C", "Full"), ("H", "Full"),
    ("R", "SelfAdjoint"), ("C", "SelfAdjoint"), ("H", "SelfAdjoint"),
    ("C", "AntiSymHermitian"), ("C", "ComplexSymmetric"),
])
def test_coords_to_entries_layout(field, subspace):
    rng = np.random.default_rng(17)
    # the 1 x 1 anti-Hermitian ball has dimension 0 and no spec (test_illegal_specs)
    for n in (2, 3, 4) if subspace == "AntiSymHermitian" else (1, 2, 3, 4):
        spec = SchattenSpec(field, subspace, n, 2.0)
        coords = rng.standard_normal((3, spec.dim))
        entries = ml.coords_to_entries(spec, coords)
        ref = np.stack([_layout_reference(spec, row) for row in coords])
        assert entries.dtype == ref.dtype and np.array_equal(entries, ref)
        if subspace == "Full" and field != "C":
            assert np.shares_memory(entries, coords)
    with pytest.raises(ValueError):
        ml.coords_to_entries(spec, coords[:, 1:])


def test_entry_identity_diag_case():
    t = ml.entry_identity_terms(ml.MatrixSample("R", np.diag([1.0, 2.0])))
    assert t.lhs4 == pytest.approx(17.0)
    assert t.sum_abs4 == pytest.approx(17.0)
    assert t.row_col_cross == pytest.approx(0.0)
    assert t.quartic_cross == pytest.approx(0.0)


def test_entry_identity_ones_matrix():
    t = ml.entry_identity_terms(ml.MatrixSample("R", np.ones((2, 2))))
    assert t.lhs4 == pytest.approx(16.0)
    assert (t.sum_abs4, t.row_col_cross, t.quartic_cross) == (4.0, 8.0, 4.0)
    # rank one: no second singular value
    assert t.lhs22 == pytest.approx(0.0, abs=1e-12)
    assert t.det_cross == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("field", ["R", "C", "H"])
def test_entry_identities_random(field):
    rng = np.random.default_rng(13)
    for n in range(2, 6):
        for _ in range(25):
            mat = ml.random_matrix(field, n, rng)
            t = ml.entry_identity_terms(ml.MatrixSample(field, mat))
            scale4 = max(1.0, t.lhs4)
            # lhs4 comes from the library SVD; the Jacobi SVD is the reference
            assert abs(t.lhs4 - np.sum(ref.svd(field, mat) ** 4)) < 1e-10 * scale4
            assert abs(t.lhs4 - t.rhs4()) < 1e-9 * scale4
            assert abs(t.lhs22 - t.rhs22()) < 1e-9 * max(1.0, abs(t.lhs22))
            if field != "H":
                assert abs(t.lhs22 - t.det_cross) < 1e-9 * max(1.0, abs(t.lhs22))
            else:
                assert t.det_cross is None


def _entry_sums_error(sums, field, batch):
    """The largest deviation of any EntrySums field from the brute-force
    reference, over a batch, relative to (sum q)^2, which bounds every sum."""
    worst = 0.0
    for k, e in enumerate(batch):
        want = ref.entry_sums(field, e)
        scale = want["frobenius_sq"] ** 2
        # the non-scalar part the package's Gram-modulus rule leaves out vanishes
        assert want.pop("quartic_cross_vector") <= 1e-12 * scale
        worst = max(worst, *(abs(float(getattr(sums, name)[k]) - v) / scale
                             for name, v in want.items()))
    return worst


def _gram_sq_unconjugated(field, entries):
    """Planted fault: |(T T^t)_il|^2, the Gram without the conjugate."""
    return ml.abs_sq(field, entries @ entries.swapaxes(-1, -2))


def _gram_sq_first_half(field, entries):
    """Planted fault over H: only the first n columns of the embedded Gram
    rows, |G_a|^2 without |G_b|^2."""
    n = entries.shape[-3]
    big = ml._embed(entries)
    return ml.abs_sq("C", big[..., :n, :] @ big.conj().swapaxes(-1, -2))[..., :n]


@pytest.mark.parametrize("field", ["R", "C", "H"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_entry_sums_meet_the_brute_force_loops(field, n, monkeypatch):
    # at n = 1 every sum over i != l or j != k is empty
    rng = np.random.default_rng(30 + n)
    batch = np.stack([ml.random_matrix(field, n, rng) for _ in range(4)])
    sums = ml.entry_sums(field, batch)
    assert _entry_sums_error(sums, field, batch) <= 1e-12
    if n == 1:
        for name in ("row_cross", "col_cross", "pair_cross", "quartic_cross", "diag_real_cross"):
            assert np.all(getattr(sums, name) == 0.0)
    # planted faults, each caught unless its sums are empty (n = 1):
    # quartic_cross without its -(sum_j c_j^2 - sum q^2) term
    q = ml.abs_sq(field, batch)
    dropped = (q.sum(axis=1) ** 2).sum(axis=1) - (q**2).sum(axis=(1, 2))
    faulty = dataclasses.replace(sums, quartic_cross=sums.quartic_cross + dropped)
    assert (_entry_sums_error(faulty, field, batch) > 1e-3) == (n > 1)
    # diag_real_cross read from the imaginary part (component 1 over H)
    imag = batch[..., 1] if field == "H" else np.imag(batch)
    diag = imag[:, np.arange(n), np.arange(n)]
    faulty = dataclasses.replace(sums, diag_real_cross=diag.sum(axis=1) ** 2 - (diag**2).sum(axis=1))
    assert (_entry_sums_error(faulty, field, batch) > 1e-3) == (n > 1)
    # over C the Gram without the conjugate, over H only |G_a|^2
    plant = {"C": _gram_sq_unconjugated, "H": _gram_sq_first_half}.get(field)
    if plant is not None:
        monkeypatch.setattr(ml, "_gram_sq", plant)
        assert (_entry_sums_error(ml.entry_sums(field, batch), field, batch) > 1e-3) == (n > 1)


def test_rotation_swaps_rows_with_sign():
    rotated = ref.symmetry_transform("R", np.diag([1.0, 2.0]), "rotate_left",
                                     i=0, j=1, theta=math.pi / 2)
    assert np.allclose(rotated, [[0.0, 2.0], [-1.0, 0.0]], atol=1e-12)
    assert np.allclose(ref.svd("R", rotated), [2.0, 1.0])


def test_transforms_preserve_schatten_norms():
    rng = np.random.default_rng(14)
    cases = {
        "R": [("transpose", {}), ("scale_col", {"index": 1, "unit": -1.0})],
        "C": [("transpose", {}), ("scale_row", {"index": 0, "unit": np.exp(0.7j)})],
        "H": [("scale_row", {"index": 0, "unit": Quaternion(0, 0, 1, 0)})],
    }
    common = [
        ("permute_rows", {"perm": [2, 0, 1]}),
        ("permute_cols", {"perm": [1, 2, 0]}),
        ("rotate_left", {"i": 0, "j": 2, "theta": 0.9}),
        ("rotate_right", {"i": 1, "j": 2, "theta": -0.4}),
        ("conj_transpose", {}),
    ]
    for field in ("R", "C", "H"):
        t = ml.random_matrix(field, 3, rng)
        for p in (1.0, 2.5, math.inf):
            base = _norm(field, t, p)
            for kind, kw in common + cases[field]:
                out = _norm(field, ref.symmetry_transform(field, t, kind, **kw), p)
                assert out == pytest.approx(base, rel=1e-12)


def test_quaternion_transpose_rejected():
    # the plain transpose genuinely changes quaternion singular values:
    # T = [[i, 1], [j, k]] has s = (2, 0) but s(T^t) = (sqrt2, sqrt2)
    e = np.zeros((2, 2, 4))
    e[0, 0, 1] = 1.0
    e[0, 1, 0] = 1.0
    e[1, 0, 2] = 1.0
    e[1, 1, 3] = 1.0
    assert np.allclose(ref.svd("H", e), [2.0, 0.0], atol=1e-12)
    assert np.allclose(ref.svd("H", e.transpose(1, 0, 2)), [math.sqrt(2)] * 2, atol=1e-12)
    with pytest.raises(ValueError):
        ref.symmetry_transform("H", e, "transpose")


def _antisym_hermitian(n, rng):
    spec = SchattenSpec("C", "AntiSymHermitian", n, 2.0)
    return ml.coords_to_entries(spec, rng.standard_normal((1, spec.dim)))[0]


def test_antisym_hermitian_structure():
    rng = np.random.default_rng(15)
    t4 = _antisym_hermitian(4, rng)
    s = ref.svd("C", t4)
    assert abs(s[0] - s[1]) < 1e-10 * max(1.0, s[0])
    assert abs(s[2] - s[3]) < 1e-10 * max(1.0, s[0])
    t5 = _antisym_hermitian(5, rng)
    s = ref.svd("C", t5)
    assert abs(s[-1]) < 1e-10 * max(1.0, s[0])


def test_nonfinite_entries_rejected():
    with pytest.raises(ValueError):
        ml.MatrixSample("R", np.array([[1.0, np.inf], [0.0, 1.0]]))
