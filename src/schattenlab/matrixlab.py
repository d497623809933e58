"""Matrices over R, C and H: subspace coordinates, singular values, Schatten
norms and the exact fourth-moment identities between entries and singular values.

This is the one module that turns subspace coordinates into entries, a
(..., n, n) real or complex array or a (..., n, n, 4) component array over H,
and entries, with any leading batch axes, into |a_ij|^2, the complex
embedding, singular values, Schatten norms and entry sums.  Quaternion
matrices are reduced to a 2n x 2n complex matrix for spectral work; the
embedded singular values come in equal pairs and are returned once each.
Every singular value comes from one batched library SVD, `singular_values`.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MatrixSample",
    "EntryIdentityTerms",
    "EntrySums",
    "abs_sq",
    "singular_values",
    "schatten_norms",
    "coords_to_entries",
    "frobenius_sq_batch",
    "batch_singular_values",
    "entry_sums",
    "entry_identity_batch",
    "entry_identity_terms",
    "random_matrix",
]


@dataclass(frozen=True)
class MatrixSample:
    """An n x n matrix over R, C or H (H as an (n, n, 4) component array): the
    argument of entry_identity_terms, which perfbench/workloads.py calls."""

    field: str
    entries: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.entries)
        if self.field == "H":
            if e.ndim != 3 or e.shape[0] != e.shape[1] or e.shape[2] != 4:
                raise ValueError("quaternion matrix needs shape (n, n, 4)")
        elif e.ndim != 2 or e.shape[0] != e.shape[1]:
            raise ValueError("matrix must be square")
        if not np.all(np.isfinite(e)):
            raise ValueError("matrix entries must be finite")
        object.__setattr__(self, "entries", e)


# ---------------------------------------------------------------------------
# quaternion component helpers

def _qconj(p):
    out = p.copy()
    out[..., 1:] *= -1.0
    return out


def _halves(entries):
    """Complex halves (A, B) of a quaternion matrix T = A + B j."""
    return entries[..., 0] + 1j * entries[..., 1], entries[..., 2] + 1j * entries[..., 3]


def _embed(entries):
    """Complex adjoint embedding of quaternion matrices (..., n, n, 4):
    T = A + B j maps to [[A, B], [-conj(B), conj(A)]]."""
    a, b = _halves(entries)
    return np.block([[a, b], [-b.conj(), a.conj()]])


def abs_sq(field, entries):
    """Entrywise |a_ij|^2 of (..., n, n) entries, or (..., n, n, 4) over H."""
    if field == "H":
        return np.sum(entries**2, axis=-1)
    if field == "C":
        return np.abs(entries) ** 2
    return entries**2


def singular_values(field, entries):
    """Non-increasing singular values of (..., n, n[, 4]) entries by the
    library SVD; over H every other value of the doubled embedded spectrum."""
    if field == "H":
        return np.linalg.svd(_embed(entries), compute_uv=False)[..., 0::2]
    return np.linalg.svd(entries, compute_uv=False)


def schatten_norms(field, entries, p):
    """Schatten p-norms of (..., n, n[, 4]) entries: the lp norm of the
    singular values; p = inf is the largest one (0 for an empty matrix)."""
    sv = singular_values(field, entries)
    if math.isinf(p):
        return np.max(sv, axis=-1, initial=0.0)
    return np.sum(sv**p, axis=-1) ** (1.0 / p)


# ---------------------------------------------------------------------------
# matrix subspace coordinates

def _field_values(field, cols, count):
    """count field elements from real columns (B, beta * count): R the columns,
    C a block of real parts then one of imaginary parts, H (B, count, 4)."""
    if field == "C":
        return cols[:, :count] + 1j * cols[:, count:]
    if field == "H":
        return cols.reshape(len(cols), count, 4)
    return cols


def coords_to_entries(spec, coords):
    """Expand real coordinate rows (B, dim) into (B, n, n) entries, (B, n, n, 4) over H.

    A row holds, positions row by row and field values as in _field_values:
    Full the n*n field values (a view for R and H); SelfAdjoint the real
    diagonal, then the k = n(n-1)/2 field values above it, conjugated below;
    ComplexSymmetric n complex diagonal values, then k complex values above
    it, mirrored; AntiSymHermitian k reals a_ij of i (A - A^T).
    """
    coords = np.atleast_2d(np.asarray(coords, dtype=float))
    bsz, n, field = coords.shape[0], spec.n, spec.field
    if coords.shape[1] != spec.dim:
        raise ValueError(f"expected {spec.dim} coordinates, got {coords.shape[1]}")
    if spec.subspace == "Full":
        vals = _field_values(field, coords, n * n)
        return vals.reshape((bsz, n, n) + vals.shape[2:])
    iu, ju = np.triu_indices(n, k=1)
    if spec.subspace == "AntiSymHermitian":
        out = np.zeros((bsz, n, n))
        out[:, iu, ju] = coords
        out[:, ju, iu] = -coords
        return 1j * out
    idx = np.arange(n)
    n_diag = 2 * n if spec.subspace == "ComplexSymmetric" else n
    upper = _field_values(field, coords[:, n_diag:], len(iu))
    out = np.zeros((bsz, n, n) + upper.shape[2:], dtype=upper.dtype)
    if spec.subspace == "ComplexSymmetric":
        out[:, idx, idx] = _field_values(field, coords[:, :n_diag], n)
        lower = upper
    else:
        real = out[..., 0] if field == "H" else out
        real[:, idx, idx] = coords[:, :n]
        lower = _qconj(upper) if field == "H" else upper.conj()
    out[:, iu, ju] = upper
    out[:, ju, iu] = lower
    return out


def frobenius_sq_batch(spec, coords):
    """||T||_2^2 per coordinate row."""
    return abs_sq(spec.field, coords_to_entries(spec, coords)).sum(axis=(1, 2))


def batch_singular_values(spec, coords):
    """singular_values for each coordinate row."""
    return singular_values(spec.field, coords_to_entries(spec, coords))


# ---------------------------------------------------------------------------
# entry / singular-value identities

@dataclass(frozen=True)
class EntrySums:
    """Per-matrix entry sums of a batch, one array entry per matrix.

    With q_ij = |a_ij|^2: frobenius_sq = sum q_ij, sum_abs4 = sum q_ij^2,
    row_cross = sum_i sum_{j != k} q_ij q_ik, col_cross the same over columns,
    pair_cross = sum over i != l, j != k of q_ij q_lk, and quartic_cross =
    sum over i != l, j != k of scalar(a_ij conj(a_lj) a_lk conj(a_ik)), its
    factors multiplied in this order; quartic_cross_vector is the summed
    magnitude of the discarded (provably vanishing) non-scalar part.
    """

    frobenius_sq: np.ndarray
    sum_abs4: np.ndarray
    row_cross: np.ndarray
    col_cross: np.ndarray
    pair_cross: np.ndarray
    quartic_cross: np.ndarray
    quartic_cross_vector: np.ndarray


def _gram_quartic(field, entries):
    """Scalar part and non-scalar magnitude of gram_il * gram_li, gram = T T^*.

    The double sum over j, k of a_ij conj(a_lj) a_lk conj(a_ik) factorizes as
    gram[i, l] * gram[l, i] with the original factor order.
    """
    if field == "H":
        a, b = _halves(entries)
        # T = A + B j has T T^* = (A A^* + B B^*) + (B A^T - A B^T) j, and
        # (p + q j)(r + s j) = (p r - q conj(s)) + (p s + q conj(r)) j
        at, bt = a.swapaxes(-1, -2), b.swapaxes(-1, -2)
        ga = a @ at.conj() + b @ bt.conj()
        gb = b @ at - a @ bt
        ga_t, gb_t = ga.swapaxes(-1, -2), gb.swapaxes(-1, -2)
        pa = ga * ga_t - gb * gb_t.conj()
        pb = ga * gb_t + gb * ga_t.conj()
        return pa.real, np.sqrt(pa.imag**2 + np.abs(pb) ** 2)
    gram = entries @ entries.conj().swapaxes(-1, -2)
    prod = gram * gram.swapaxes(-1, -2)
    if field == "C":
        return prod.real, np.abs(prod.imag)
    return prod, None


@functools.cache
def _line_selectors(n):
    """The read-only (n*n, 2n + 1) 0/1 matrix whose column i picks row i,
    column n + j column j, and last column every entry of a flattened n x n
    matrix, built once per n."""
    sel = np.zeros((n * n, 2 * n + 1))
    idx = np.arange(n * n)
    sel[idx, idx // n] = 1.0
    sel[idx, n + idx % n] = 1.0
    sel[:, -1] = 1.0
    sel.flags.writeable = False
    return sel


def entry_sums(field, entries):
    """EntrySums of a batch of matrices (B, n, n), or (B, n, n, 4) over H, in
    closed form from the row sums r_i and column sums c_j of q:

    row_cross = sum r_i^2 - sum q^2, col_cross = sum c_j^2 - sum q^2,
    pair_cross = (sum q)^2 - sum r_i^2 - sum c_j^2 + sum q^2, and
    quartic_cross = sum_{i != l} scalar(gram_il gram_li) - (sum c_j^2 - sum q^2),
    the last term being sum_{i != l} sum_j q_ij q_lj.  The row sums, column
    sums and sum q are one product of the flattened squares with
    _line_selectors(n), a vector-matrix product per matrix, so a matrix's
    sums do not depend on the batch it is in; each sum over i != l is the
    full sum minus the trace.
    """
    bsz, n = entries.shape[:2]
    q = abs_sq(field, entries).reshape(bsz, n * n)
    lines = (q[:, None, :] @ _line_selectors(n))[:, 0]
    row_sq = np.einsum("bi,bi->b", lines[:, :n], lines[:, :n])
    col_sq = np.einsum("bj,bj->b", lines[:, n:-1], lines[:, n:-1])
    abs4 = np.einsum("bk,bk->b", q, q)
    total = lines[:, -1]
    scal, vec = _gram_quartic(field, entries)
    return EntrySums(
        frobenius_sq=total,
        sum_abs4=abs4,
        row_cross=row_sq - abs4,
        col_cross=col_sq - abs4,
        pair_cross=total**2 - row_sq - col_sq + abs4,
        quartic_cross=_off_diagonal_sum(scal) - (col_sq - abs4),
        quartic_cross_vector=np.zeros(bsz) if vec is None else _off_diagonal_sum(vec),
    )


def _off_diagonal_sum(mats):
    """Sum over i != l of each (n, n) matrix of a batch: the full sum minus the trace."""
    return mats.sum(axis=(1, 2)) - np.trace(mats, axis1=1, axis2=2)


@dataclass(frozen=True)
class EntryIdentityTerms:
    """Both sides of the quartic entry identities.

    lhs4 = sum s_i^4 and lhs22 = sum_{i != j} s_i^2 s_j^2 come from the SVD;
    the remaining fields are entry sums (see EntrySums), and det_cross
    (R and C only) is twice the summed squared 2 x 2 minors.  Fields are
    floats for one matrix (entry_identity_terms) and per-matrix arrays for a
    batch (entry_identity_batch).
    """

    lhs4: float
    sum_abs4: float
    row_col_cross: float
    quartic_cross: float
    quartic_cross_vector: float
    lhs22: float
    pair_cross: float
    det_cross: float | None

    def rhs4(self):
        return self.sum_abs4 + self.row_col_cross + self.quartic_cross

    def rhs22(self):
        return self.pair_cross - self.quartic_cross


def entry_identity_batch(field, entries):
    """Both sides of the fourth-moment identities for a batch (B, n, n[, 4]),
    with the singular values from the library SVD."""
    sums = entry_sums(field, entries)
    s2 = singular_values(field, entries) ** 2
    lhs4 = np.sum(s2**2, axis=1)
    det_cross = None
    if field != "H":
        n = entries.shape[1]
        outer = np.einsum("bij,blk->biljk", entries, entries)
        minors = outer - outer.transpose(0, 1, 2, 4, 3)
        iu, lu = np.triu_indices(n, k=1)
        sub = minors[:, iu, lu][:, :, iu, lu]
        det_cross = 2.0 * np.sum(np.abs(sub) ** 2, axis=(1, 2))
    return EntryIdentityTerms(
        lhs4=lhs4,
        sum_abs4=sums.sum_abs4,
        row_col_cross=sums.row_cross + sums.col_cross,
        quartic_cross=sums.quartic_cross,
        quartic_cross_vector=sums.quartic_cross_vector,
        lhs22=np.sum(s2, axis=1) ** 2 - lhs4,
        pair_cross=sums.pair_cross,
        det_cross=det_cross,
    )


def entry_identity_terms(sample):
    """Evaluate the fourth-moment identities linking entries and singular values."""
    batch = entry_identity_batch(sample.field, sample.entries[None])
    return EntryIdentityTerms(*(None if v is None else float(v[0]) for v in vars(batch).values()))


# ---------------------------------------------------------------------------
# random matrices for tests and checks

def random_matrix(field, n, rng):
    """Entries (n, n), or (n, n, 4) over H, with independent standard normal
    real components."""
    if field == "R":
        return rng.standard_normal((n, n))
    if field == "C":
        return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if field == "H":
        return rng.standard_normal((n, n, 4))
    raise ValueError(f"unknown field {field!r}")

