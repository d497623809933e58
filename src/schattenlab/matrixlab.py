"""Matrices over R, C and H: singular values, Schatten norms and the exact
fourth-moment identities between entries and singular values.

Every batch routine takes entries as a (..., n, n) real or complex array, or a
(..., n, n, 4) component array over H, with any leading batch axes; this is
the one module that turns such entries into |a_ij|^2, the complex embedding,
singular values and entry sums.  Quaternion matrices are reduced to a 2n x 2n
complex matrix for spectral work; the embedded singular values come in equal
pairs and are returned once each.  `singular_values` uses the library SVD;
the one-sided Jacobi SVD behind `svd` is the single-matrix reference the tests
check it against.
"""

import math
from dataclasses import dataclass

import numpy as np

from .ensembles import Quaternion

__all__ = [
    "MatrixSample",
    "SvdResult",
    "EntryIdentityTerms",
    "EntrySums",
    "JacobiConvergenceError",
    "abs_sq",
    "singular_values",
    "svd",
    "schatten_norm",
    "entry_sums",
    "entry_identity_batch",
    "entry_identity_terms",
    "symmetry_transform",
    "random_matrix",
    "random_antisym_hermitian",
]


class JacobiConvergenceError(RuntimeError):
    """Raised when the one-sided Jacobi iteration hits its sweep cap."""


@dataclass(frozen=True)
class MatrixSample:
    """An n x n matrix over R, C or H (H as an (n, n, 4) component array)."""

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

    @property
    def n(self):
        return self.entries.shape[0]

    def frobenius_sq(self):
        return float(np.sum(abs_sq(self.field, self.entries)))


@dataclass(frozen=True)
class SvdResult:
    """Non-increasing singular values of a MatrixSample."""

    singular_values: np.ndarray


# ---------------------------------------------------------------------------
# quaternion component helpers

def _qmul(p, q):
    """Hamilton product of component arrays (..., 4), broadcasting."""
    pw, px, py, pz = np.moveaxis(p, -1, 0)
    qw, qx, qy, qz = np.moveaxis(q, -1, 0)
    return np.stack(
        [
            pw * qw - px * qx - py * qy - pz * qz,
            pw * qx + px * qw + py * qz - pz * qy,
            pw * qy - px * qz + py * qw + pz * qx,
            pw * qz + px * qy - py * qx + pz * qw,
        ],
        axis=-1,
    )


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


# ---------------------------------------------------------------------------
# one-sided Jacobi SVD

def _jacobi_singular_values(mat, tol=1e-13, max_sweeps=64):
    """Singular values via one-sided Jacobi column orthogonalization."""
    a = np.array(mat, dtype=complex if np.iscomplexobj(mat) else float)
    n = a.shape[1]
    for _ in range(max_sweeps):
        converged = True
        for i in range(n - 1):
            for j in range(i + 1, n):
                ci = a[:, i]
                cj = a[:, j]
                alpha = float(np.real(np.vdot(ci, ci)))
                beta = float(np.real(np.vdot(cj, cj)))
                gamma = np.vdot(ci, cj)
                if abs(gamma) ** 2 <= tol * tol * alpha * beta:
                    continue
                converged = False
                g = abs(gamma)
                cj = cj * (np.conjugate(gamma) / g)  # make the pair inner product real positive
                tau = (beta - alpha) / (2.0 * g)
                t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.hypot(1.0, t)
                s = t * c
                new_i = c * ci - s * cj
                new_j = s * ci + c * cj
                a[:, i] = new_i
                a[:, j] = new_j
        if converged:
            break
    else:
        raise JacobiConvergenceError(f"no convergence in {max_sweeps} sweeps")
    sv = np.sqrt(np.sum(np.abs(a) ** 2, axis=0))
    sv.sort()
    return sv[::-1]


def svd(sample):
    """Singular values of a MatrixSample, non-increasing, by the one-sided
    Jacobi iteration: the single-matrix reference for `singular_values`.

    Quaternion matrices go through the complex adjoint embedding; the doubled
    spectrum is de-duplicated by averaging adjacent pairs.
    """
    if sample.field == "H":
        sv = _jacobi_singular_values(_embed(sample.entries))
        sv = 0.5 * (sv[0::2] + sv[1::2])
    else:
        sv = _jacobi_singular_values(sample.entries)
    return SvdResult(singular_values=sv)


def schatten_norm(sample, p):
    """Schatten p-norm: lp norm of the singular values; p = inf is the largest one."""
    sv = svd(sample).singular_values
    if math.isinf(p):
        return float(sv[0]) if sv.size else 0.0
    return float(np.sum(sv**p) ** (1.0 / p))


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


def entry_sums(field, entries):
    """EntrySums of a batch of matrices (B, n, n), or (B, n, n, 4) over H."""
    n = entries.shape[1]
    q = abs_sq(field, entries)
    q2 = q**2
    row = q.sum(axis=2)
    col = q.sum(axis=1)
    abs4 = q2.sum(axis=(1, 2))
    total = q.sum(axis=(1, 2))
    scal, vec = _gram_quartic(field, entries)
    off = ~np.eye(n, dtype=bool)
    qqt = q @ q.transpose(0, 2, 1)
    return EntrySums(
        frobenius_sq=total,
        sum_abs4=abs4,
        row_cross=(row**2 - q2.sum(axis=2)).sum(axis=1),
        col_cross=(col**2 - q2.sum(axis=1)).sum(axis=1),
        pair_cross=total**2 - (row**2).sum(axis=1) - (col**2).sum(axis=1) + abs4,
        quartic_cross=(scal - qqt)[:, off].sum(axis=1),
        quartic_cross_vector=np.zeros(len(q)) if vec is None else vec[:, off].sum(axis=1),
    )


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
# norm-preserving transforms

def _rotation_matrix(n, i, j, theta):
    u = np.eye(n)
    c, s = math.cos(theta), math.sin(theta)
    u[i, i] = c
    u[i, j] = s
    u[j, i] = -s
    u[j, j] = c
    return u


def _left_real(sample, u):
    if sample.field == "H":
        return MatrixSample("H", np.einsum("ik,kjc->ijc", u, sample.entries))
    return MatrixSample(sample.field, u @ sample.entries)


def _right_real(sample, u):
    if sample.field == "H":
        return MatrixSample("H", np.einsum("ikc,kj->ijc", sample.entries, u))
    return MatrixSample(sample.field, sample.entries @ u)


def _unit_scalar_array(sample, unit):
    if sample.field == "H":
        if isinstance(unit, Quaternion):
            arr = np.array([unit.w, unit.x, unit.y, unit.z])
        else:
            arr = np.array([float(unit), 0.0, 0.0, 0.0])
        if abs(np.sum(arr**2) - 1.0) > 1e-12:
            raise ValueError("scaling needs a unit scalar")
        return arr
    u = complex(unit) if sample.field == "C" else float(unit)
    if abs(abs(u) - 1.0) > 1e-12:
        raise ValueError("scaling needs a unit scalar")
    return u


def symmetry_transform(sample, kind, **kw):
    """Apply a Schatten-norm-preserving transform.

    kinds: permute_rows/permute_cols (perm), rotate_left/rotate_right
    (i, j, theta), conj_transpose, transpose (R and C only), scale_row/
    scale_col (index, unit scalar; rows scale from the left, columns from
    the right).
    """
    n = sample.n
    if kind == "permute_rows":
        return MatrixSample(sample.field, sample.entries[np.asarray(kw["perm"])])
    if kind == "permute_cols":
        return MatrixSample(sample.field, sample.entries[:, np.asarray(kw["perm"])])
    if kind == "rotate_left":
        return _left_real(sample, _rotation_matrix(n, kw["i"], kw["j"], kw["theta"]))
    if kind == "rotate_right":
        return _right_real(sample, _rotation_matrix(n, kw["i"], kw["j"], kw["theta"]))
    if kind == "conj_transpose":
        if sample.field == "H":
            return MatrixSample("H", _qconj(sample.entries).transpose(1, 0, 2))
        return MatrixSample(sample.field, sample.entries.conj().T)
    if kind == "transpose":
        if sample.field == "H":
            # The plain transpose changes singular values over the quaternions
            # (unlike over R and C), so it is not admitted here.
            raise ValueError("transpose is not norm-preserving over H")
        return MatrixSample(sample.field, sample.entries.T)
    if kind in ("scale_row", "scale_col"):
        unit = _unit_scalar_array(sample, kw["unit"])
        out = sample.entries.copy()
        idx = kw["index"]
        if sample.field == "H":
            if kind == "scale_row":
                out[idx] = _qmul(np.broadcast_to(unit, out[idx].shape), out[idx])
            else:
                out[:, idx] = _qmul(out[:, idx], np.broadcast_to(unit, out[:, idx].shape))
        else:
            if kind == "scale_row":
                out[idx] *= unit
            else:
                out[:, idx] *= unit
        return MatrixSample(sample.field, out)
    raise ValueError(f"unknown transform {kind!r}")


# ---------------------------------------------------------------------------
# random matrices for tests and checks

def random_matrix(field, n, rng):
    """Matrix with independent standard normal real components per entry."""
    if field == "R":
        return MatrixSample("R", rng.standard_normal((n, n)))
    if field == "C":
        return MatrixSample("C", rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    if field == "H":
        return MatrixSample("H", rng.standard_normal((n, n, 4)))
    raise ValueError(f"unknown field {field!r}")


def random_antisym_hermitian(n, rng):
    """Random i * (real antisymmetric) matrix with Gaussian entries."""
    a = rng.standard_normal((n, n))
    a = a - a.T
    return MatrixSample("C", 1j * a)
