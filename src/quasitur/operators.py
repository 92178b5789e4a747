"""Dense Hermitian operator primitives.

Spectral decompositions with degeneracy merging, matrix logarithms of
positive operators, Hilbert-Schmidt inner products, and the logarithmic-mean
integral super-operator S_G(A) = int_0^1 G^s A G^(1-s) ds that underlies the
entropy-production geometry.

Everything is dense ``numpy``; expected dimensions are at most a few
hundred.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimMismatchError, NotHermitianError, SingularOperatorError
from .util import as_operator, dagger

HERMITICITY_RTOL = 1e-10
#: below this spread in log-eigenvalues the log-mean falls back to the value
EQUAL_EIGENVALUE_TOL = 1e-12


def hermiticity_error(a: np.ndarray) -> float:
    """Frobenius norm of the anti-Hermitian part of ``a``."""
    return float(np.linalg.norm(a - dagger(a)))


def require_hermitian(a: np.ndarray, rtol: float = HERMITICITY_RTOL) -> np.ndarray:
    """Return ``a`` coerced to a matrix, raising if not Hermitian to ``rtol``."""
    mat = as_operator(a)
    norm = float(np.linalg.norm(mat))
    if hermiticity_error(mat) > rtol * max(norm, 1e-300):
        raise NotHermitianError(
            f"operator deviates from Hermiticity by {hermiticity_error(mat):.3e} "
            f"(norm {norm:.3e}, rtol {rtol:.1e})"
        )
    return mat


def hs_inner_product(a: np.ndarray, b: np.ndarray) -> complex:
    """Hilbert-Schmidt inner product tr(A^dag B)."""
    a = as_operator(a)
    b = as_operator(b)
    if a.shape != b.shape:
        raise DimMismatchError(f"shapes {a.shape} and {b.shape} differ")
    return complex(np.sum(a.conj() * b))


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigendecomposition of a Hermitian operator with degeneracy classes.

    Eigenvalues within the merging tolerance are grouped into a single
    class with a combined projector; ``class_values`` holds one
    representative value per class, ascending.

    Attributes
    ----------
    eigenvalues : (d,) float array, ascending
    eigenvectors : (d, d) complex array, orthonormal columns
    class_values : (m,) float array
    class_members : tuple of index arrays into the eigenvector columns
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    class_values: np.ndarray
    class_members: tuple

    @property
    def dim(self) -> int:
        return self.eigenvectors.shape[0]

    @property
    def n_classes(self) -> int:
        return len(self.class_values)

    def projector(self, index: int) -> np.ndarray:
        cols = self.eigenvectors[:, self.class_members[index]]
        return cols @ dagger(cols)

    @property
    def projectors(self) -> np.ndarray:
        """(m, d, d) stack of class projectors."""
        return np.stack([self.projector(i) for i in range(self.n_classes)])

    def reconstruct(self) -> np.ndarray:
        return (self.eigenvectors * self.eigenvalues) @ dagger(self.eigenvectors)


def spectral_decompose(a: np.ndarray, degeneracy_tol: float | None = None) -> SpectralDecomposition:
    """Diagonalize a Hermitian operator, merging near-degenerate eigenvalues.

    Parameters
    ----------
    a : Hermitian matrix
    degeneracy_tol : absolute gap below which neighbouring eigenvalues are
        merged into one class. Defaults to ``1e-9 * max(||a||, 1)``.

    Raises
    ------
    NotHermitianError
        if ``a`` fails the Hermiticity check.
    """
    mat = require_hermitian(a)
    if degeneracy_tol is None:
        degeneracy_tol = 1e-9 * max(float(np.linalg.norm(mat)), 1.0)
    eigenvalues, eigenvectors = np.linalg.eigh(mat)
    members: list[np.ndarray] = []
    start = 0
    for i in range(1, len(eigenvalues) + 1):
        if i == len(eigenvalues) or eigenvalues[i] - eigenvalues[i - 1] > degeneracy_tol:
            members.append(np.arange(start, i))
            start = i
    class_values = np.array([float(np.mean(eigenvalues[m])) for m in members])
    return SpectralDecomposition(
        eigenvalues=eigenvalues,
        eigenvectors=eigenvectors,
        class_values=class_values,
        class_members=tuple(members),
    )


def _positive_eigh(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mat = require_hermitian(g)
    vals, vecs = np.linalg.eigh(mat)
    if vals[0] <= 0:
        raise SingularOperatorError(
            f"operator is not positive definite (min eigenvalue {vals[0]:.3e})"
        )
    return vals, vecs


def matrix_log_psd(g: np.ndarray) -> np.ndarray:
    """Matrix logarithm of a positive-definite Hermitian operator.

    Raises ``SingularOperatorError`` when the smallest eigenvalue is not
    strictly positive.
    """
    vals, vecs = _positive_eigh(g)
    return (vecs * np.log(vals)) @ dagger(vecs)


def logarithmic_mean(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Elementwise log-mean (x - y) / (ln x - ln y), with x on the diagonal."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    logx, logy = np.log(x), np.log(y)
    dlog = logx - logy
    equal = np.abs(dlog) < EQUAL_EIGENVALUE_TOL
    safe = np.where(equal, 1.0, dlog)
    return np.where(equal, x, (x - y) / safe)


def kubo_integral(g: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Apply S_G(A) = int_0^1 G^s A G^(1-s) ds for positive-definite G.

    In the eigenbasis of G with eigenvalues g_i the action is entrywise
    multiplication by the logarithmic mean of (g_i, g_j); coincident
    eigenvalues use the value itself, avoiding 0/0.
    """
    vals, vecs = _positive_eigh(g)
    a = as_operator(a)
    if a.shape != g.shape:
        raise DimMismatchError(f"shapes {g.shape} and {a.shape} differ")
    weights = logarithmic_mean(vals[:, None], vals[None, :])
    a_eig = dagger(vecs) @ a @ vecs
    return vecs @ (weights * a_eig) @ dagger(vecs)
