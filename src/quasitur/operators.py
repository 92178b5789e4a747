"""Dense Hermitian operator primitives.

Observable eigendecompositions with degeneracy classes, matrix logarithms of
positive operators, Hilbert-Schmidt inner products, and the logarithmic-mean
integral super-operator S_G(A) = int_0^1 G^s A G^(1-s) ds that underlies the
entropy-production geometry.

Everything is dense ``numpy``; expected dimensions are at most a few
hundred.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BasisMismatchError, DimMismatchError, NotHermitianError, SingularOperatorError
from .util import as_operator, dagger

HERMITICITY_RTOL = 1e-10


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
class ObservableDecomposition:
    """Observable with its eigenbasis grouped into eigenvalue classes.

    Eigenvalues within the merging tolerance share a class with a combined
    projector; ``class_values`` holds one representative value per class.

    Attributes
    ----------
    observable : (d, d) complex array
    eigenvalues : (d,) float array, one per eigenvector column
    eigenvectors : (d, d) complex array, orthonormal columns
    class_values : (m,) float array
    class_members : tuple of index arrays into the eigenvector columns
    """

    observable: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    class_values: np.ndarray
    class_members: tuple

    @classmethod
    def from_operator(cls, x, degeneracy_tol: float | None = None) -> "ObservableDecomposition":
        """Diagonalize a Hermitian operator, merging near-degenerate eigenvalues.

        ``degeneracy_tol`` is the absolute gap below which neighbouring
        (ascending) eigenvalues share a class; it defaults to
        ``1e-9 * max(||x||, 1)``. Raises ``NotHermitianError`` if ``x`` fails
        the Hermiticity check.
        """
        mat = require_hermitian(x)
        if degeneracy_tol is None:
            degeneracy_tol = 1e-9 * max(float(np.linalg.norm(mat)), 1.0)
        eigenvalues, eigenvectors = np.linalg.eigh(mat)
        members: list[np.ndarray] = []
        start = 0
        for i in range(1, len(eigenvalues) + 1):
            if i == len(eigenvalues) or eigenvalues[i] - eigenvalues[i - 1] > degeneracy_tol:
                members.append(np.arange(start, i))
                start = i
        return cls(observable=mat, eigenvalues=eigenvalues, eigenvectors=eigenvectors,
                   class_values=np.array([float(np.mean(eigenvalues[m])) for m in members]),
                   class_members=tuple(members))

    @classmethod
    def from_groups(cls, groups) -> "ObservableDecomposition":
        """Build from (x_s, vectors) pairs, one class per pair, in the given
        order; each ``vectors`` is a (d, n_s) array spanning the eigenspace.

        The observable is sum_s x_s sum_j |s,j><s,j|. Raises
        ``BasisMismatchError`` unless every group is 2-D and the vectors
        together form a complete orthonormal basis.
        """
        values, blocks = [], []
        for value, vectors in groups:
            vecs = np.asarray(vectors, dtype=complex)
            if vecs.ndim != 2:
                raise BasisMismatchError("group vectors must be a (dim, n_s) array")
            values.append(float(value))
            blocks.append(vecs)
        full = np.hstack(blocks)
        d = full.shape[0]
        if full.shape[1] != d:
            raise BasisMismatchError(
                f"basis has {full.shape[1]} vectors for dimension {d}; must be complete"
            )
        if np.linalg.norm(dagger(full) @ full - np.eye(d)) > 1e-9:
            raise BasisMismatchError("basis vectors are not orthonormal")
        sizes = [vecs.shape[1] for vecs in blocks]
        eigenvalues = np.repeat(values, sizes)
        return cls(observable=(full * eigenvalues) @ dagger(full), eigenvalues=eigenvalues,
                   eigenvectors=full, class_values=np.array(values),
                   class_members=tuple(np.split(np.arange(d), np.cumsum(sizes)[:-1])))

    @classmethod
    def from_eigenbasis(cls, values, vectors) -> "ObservableDecomposition":
        """Build with one class per supplied eigenvector, in the given order.

        Repeated values are kept as distinct classes, which lets tables be
        indexed by state rather than by eigenvalue (used by the classical
        embedding, where several states may carry the same observable value).
        """
        vals = np.asarray(values, dtype=float).reshape(-1)
        vecs = np.asarray(vectors, dtype=complex)
        if vecs.shape != (len(vals), len(vals)):
            raise DimMismatchError("eigenbasis must be square with one value per column")
        return cls.from_groups((v, vecs[:, i:i + 1]) for i, v in enumerate(vals))

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

    def validate_against(self, x: np.ndarray, tol: float = 1e-9) -> None:
        """Check X|s,j> = x_s|s,j> for every class vector."""
        for value, members in zip(self.class_values, self.class_members):
            vecs = self.eigenvectors[:, members]
            residual = float(np.linalg.norm(x @ vecs - value * vecs))
            if residual > tol * max(float(np.linalg.norm(x)), 1.0):
                raise BasisMismatchError(
                    f"vectors of class {float(value)!r} fail the eigenvalue relation ({residual:.3e})"
                )

    def phase_operator(self, lam) -> np.ndarray:
        """exp(i lam (X - c)) from the stored eigenbasis, one per entry of an
        array of (possibly complex) ``lam``. The shift by c, the midpoint of
        X's spectrum, cancels from every generating function and bounds
        |exp(+-i lam (x - c))| by exp(|lam| gap / 2) whatever offset X has."""
        vecs, vals = self.eigenvectors, self.eigenvalues
        phases = np.exp(1j * np.multiply.outer(lam, vals - 0.5 * (vals.max() + vals.min())))
        return (vecs * phases[..., None, :]) @ dagger(vecs)

    @property
    def max_gap(self) -> float:
        """Largest eigenvalue separation, the frequency scale of exp(i lam X).

        Values may be stored in caller order, so take the full spread.
        """
        vals = self.eigenvalues
        return float(vals.max() - vals.min()) if len(vals) > 1 else 0.0


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
    """Elementwise log-mean (x - y) / (ln x - ln y), with x on the diagonal.

    Evaluated as max(x, y) (1 - exp(-a)) / a with a = |ln x - ln y| through
    ``expm1``, which stays accurate to rounding as x and y coincide (the
    quotient of differences loses the digits of the gap; Higham, Functions
    of Matrices, 2008, ch. 11), is exactly symmetric in x and y and cannot
    overflow. Only a = 0 falls back to max(x, y).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    larger = np.maximum(x, y)
    gap = np.abs(np.log(x) - np.log(y))
    equal = gap == 0.0
    safe = np.where(equal, 1.0, gap)
    return np.where(equal, larger, larger * -np.expm1(-safe) / safe)


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
