"""Single-matrix references for the tests: the one-sided Jacobi SVD, the
Schatten-norm-preserving transforms, scalar quaternions and the entry sums
by brute-force loops.

The package takes every singular value from one batched library SVD
(`schattenlab.matrixlab.singular_values`); this module checks it by other
means.  A matrix is an (n, n) array over R and C and an (n, n, 4) component
array over H, as in the package, and no function here calls the package.
"""

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Quaternion:
    """A quaternion w + x*i + y*j + z*k with Hamilton multiplication."""

    w: float = 0.0
    x: float = 0.0
    y: float = 0.0
    z: float = 0.0

    def __add__(self, other):
        return Quaternion(self.w + other.w, self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other):
        return Quaternion(self.w - other.w, self.x - other.x, self.y - other.y, self.z - other.z)

    def __mul__(self, other):
        a, b, c, d = self.w, self.x, self.y, self.z
        e, f, g, h = other.w, other.x, other.y, other.z
        return Quaternion(
            a * e - b * f - c * g - d * h,
            a * f + b * e + c * h - d * g,
            a * g - b * h + c * e + d * f,
            a * h + b * g - c * f + d * e,
        )

    def conjugate(self):
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def norm_sq(self):
        return self.w**2 + self.x**2 + self.y**2 + self.z**2

    def __abs__(self):
        return math.sqrt(self.norm_sq())

    def vector_norm(self):
        """Magnitude of the non-scalar part."""
        return math.sqrt(self.x**2 + self.y**2 + self.z**2)


# ---------------------------------------------------------------------------
# one-sided Jacobi SVD

class JacobiConvergenceError(RuntimeError):
    """Raised when the one-sided Jacobi iteration hits its sweep cap."""


def complex_embedding(entries):
    """T = A + B j, (n, n, 4), maps to the 2n x 2n matrix [[A, B], [-conj(B), conj(A)]]."""
    a = entries[..., 0] + 1j * entries[..., 1]
    b = entries[..., 2] + 1j * entries[..., 3]
    return np.block([[a, b], [-b.conj(), a.conj()]])


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


def svd(field, entries):
    """Non-increasing singular values of one matrix by the one-sided Jacobi
    iteration.

    Quaternion matrices go through the complex adjoint embedding; the doubled
    spectrum is de-duplicated by averaging adjacent pairs.
    """
    if field == "H":
        sv = _jacobi_singular_values(complex_embedding(entries))
        return 0.5 * (sv[0::2] + sv[1::2])
    return _jacobi_singular_values(entries)


# ---------------------------------------------------------------------------
# entry sums by brute force

def _as_quaternions(field, entries):
    """Every entry as a Quaternion: a real r is r, a complex z is
    Re z + Im z i (a subfield, so products agree), H its four components."""
    n = entries.shape[0]
    if field == "H":
        return [[Quaternion(*map(float, entries[i, j])) for j in range(n)] for i in range(n)]
    return [[Quaternion(float(np.real(entries[i, j])), float(np.imag(entries[i, j])))
             for j in range(n)] for i in range(n)]


def entry_sums(field, entries):
    """The entry sums of one matrix, named as the fields of
    schattenlab.matrixlab.EntrySums, by loops over i, l (rows) and j, k
    (columns) with q_ij = |a_ij|^2: frobenius_sq = sum q_ij, sum_abs4 = sum
    q_ij^2, row_cross = sum over i, j != k of q_ij q_ik, col_cross = sum over
    j, i != l of q_ij q_lj, pair_cross = sum over i != l, j != k of q_ij q_lk,
    quartic_cross sums over i != l the scalar part of the quaternion sum over
    j != k of a_ij conj(a_lj) a_lk conj(a_ik), and diag_real_cross = sum over
    i != l of the scalar parts of a_ii and a_ll multiplied.

    One more key, quartic_cross_vector, is no package field: it sums the
    magnitudes of the non-scalar parts of those quaternion sums, which vanish
    because T T^* is Hermitian."""
    a = _as_quaternions(field, entries)
    n = len(a)
    q = [[a[i][j].norm_sq() for j in range(n)] for i in range(n)]
    out = dict.fromkeys(("frobenius_sq", "sum_abs4", "row_cross", "col_cross", "pair_cross",
                         "quartic_cross", "diag_real_cross", "quartic_cross_vector"), 0.0)
    for i in range(n):
        for l in range(n):
            if l != i:
                out["diag_real_cross"] += a[i][i].w * a[l][l].w
        for j in range(n):
            out["frobenius_sq"] += q[i][j]
            out["sum_abs4"] += q[i][j] ** 2
            for k in range(n):
                if k != j:
                    out["row_cross"] += q[i][j] * q[i][k]
            for l in range(n):
                if l != i:
                    out["col_cross"] += q[i][j] * q[l][j]
    for i in range(n):
        for l in range(n):
            if l == i:
                continue
            quartic = Quaternion()
            for j in range(n):
                for k in range(n):
                    if k == j:
                        continue
                    out["pair_cross"] += q[i][j] * q[l][k]
                    quartic = quartic + a[i][j] * a[l][j].conjugate() * a[l][k] * a[i][k].conjugate()
            out["quartic_cross"] += quartic.w
            out["quartic_cross_vector"] += quartic.vector_norm()
    return out


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


def _quaternions(components):
    return [Quaternion(*map(float, q)) for q in components]


def _components(quaternions):
    return np.array([[q.w, q.x, q.y, q.z] for q in quaternions])


def _unit(field, unit):
    if field == "H" and not isinstance(unit, Quaternion):
        unit = Quaternion(float(unit))
    elif field != "H":
        unit = complex(unit) if field == "C" else float(unit)
    if abs(abs(unit) - 1.0) > 1e-12:
        raise ValueError("scaling needs a unit scalar")
    return unit


def symmetry_transform(field, entries, kind, **kw):
    """Apply a Schatten-norm-preserving transform to one matrix; returns its entries.

    kinds: permute_rows/permute_cols (perm), rotate_left/rotate_right
    (i, j, theta), conj_transpose, transpose (R and C only), scale_row/
    scale_col (index, unit scalar; rows scale from the left, columns from
    the right).
    """
    n = entries.shape[0]
    if kind == "permute_rows":
        return entries[np.asarray(kw["perm"])]
    if kind == "permute_cols":
        return entries[:, np.asarray(kw["perm"])]
    if kind == "rotate_left":
        u = _rotation_matrix(n, kw["i"], kw["j"], kw["theta"])
        return np.einsum("ik,kjc->ijc", u, entries) if field == "H" else u @ entries
    if kind == "rotate_right":
        u = _rotation_matrix(n, kw["i"], kw["j"], kw["theta"])
        return np.einsum("ikc,kj->ijc", entries, u) if field == "H" else entries @ u
    if kind == "conj_transpose":
        if field == "H":
            out = entries.transpose(1, 0, 2).copy()
            out[..., 1:] *= -1.0
            return out
        return entries.conj().T
    if kind == "transpose":
        if field == "H":
            # The plain transpose changes singular values over the quaternions
            # (unlike over R and C), so it is not admitted here.
            raise ValueError("transpose is not norm-preserving over H")
        return entries.T
    if kind in ("scale_row", "scale_col"):
        unit = _unit(field, kw["unit"])
        out = entries.copy()
        idx = kw["index"]
        if field == "H":
            if kind == "scale_row":
                out[idx] = _components([unit * q for q in _quaternions(out[idx])])
            else:
                out[:, idx] = _components([q * unit for q in _quaternions(out[:, idx])])
        elif kind == "scale_row":
            out[idx] *= unit
        else:
            out[:, idx] *= unit
        return out
    raise ValueError(f"unknown transform {kind!r}")
