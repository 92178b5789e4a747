"""Dense Hermitian operator primitives.

The Hermiticity check, observable eigendecompositions with degeneracy
classes, the one check every observable argument passes, and the
elementwise logarithmic mean that weights the entropy-production geometry.

Everything is dense ``numpy``; expected dimensions are at most a few
hundred.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BasisMismatchError, DimMismatchError, NotHermitianError
from .util import (DEGENERACY_TOL, HERMITICITY_TOL, ORTHONORMALITY_TOL, _permutation, as_operator,
                   dagger, exact_dtype)


def require_hermitian(a) -> np.ndarray:
    """Return ``a`` coerced to a matrix, raising ``NotHermitianError`` unless
    ||a - a^dag||_F <= ``HERMITICITY_TOL`` ||a||_F."""
    mat = as_operator(a)
    norm = float(np.linalg.norm(mat))
    # the transposed read goes into a contiguous copy, so the difference is
    # formed in one order
    diff = np.ascontiguousarray(dagger(mat))
    diff -= mat
    error = float(np.linalg.norm(diff))
    if error > HERMITICITY_TOL * max(norm, 1e-300):
        raise NotHermitianError(
            f"operator deviates from Hermiticity by {error:.3e} "
            f"(norm {norm:.3e}, rtol {HERMITICITY_TOL:.1e})"
        )
    return mat


@dataclass(frozen=True)
class ObservableDecomposition:
    """Observable with its eigenbasis grouped into eigenvalue classes.

    Eigenvalues within the merging tolerance share a class with a combined
    projector; ``class_values`` holds one representative value per class.

    Attributes
    ----------
    eigenvalues : (d,) float array, one per eigenvector column
    eigenvectors : (d, d) array, orthonormal columns, float64 when exactly real
    class_values : (m,) float array
    class_members : tuple of index arrays into the eigenvector columns
    observable : (d, d) array, see the property
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    class_values: np.ndarray
    class_members: tuple
    _observable: np.ndarray | None = field(default=None, repr=False, compare=False)

    @classmethod
    def from_operator(cls, x) -> "ObservableDecomposition":
        """Diagonalize a Hermitian operator, merging near-degenerate eigenvalues.

        Neighbouring (ascending) eigenvalues share a class when their gap is
        at most ``DEGENERACY_TOL * max(spread, 1)``, the spread being that of
        the spectrum, so an offset x + a I merges as x does. The ``eigh`` runs
        on x - s I and s is added back, so such an offset costs the
        eigenvectors no digits. s is the integer nearest tr x / d: what it
        leaves of the offset is within the merge's scale max(spread, 1), and
        an x with |tr x / d| < 1/2 is decomposed as given. Raises
        ``NotHermitianError`` if ``x`` fails the Hermiticity check.
        """
        mat = require_hermitian(x)
        shift = float(round(mat.trace().real / len(mat)))
        values, eigenvectors = np.linalg.eigh(mat - shift * np.eye(len(mat)) if shift else mat)
        degeneracy_tol = DEGENERACY_TOL * max(values[-1] - values[0], 1.0)
        members: list[np.ndarray] = []
        start = 0
        for i in range(1, len(values) + 1):
            if i == len(values) or values[i] - values[i - 1] > degeneracy_tol:
                members.append(np.arange(start, i))
                start = i
        return cls(eigenvalues=values + shift, eigenvectors=eigenvectors,
                   class_values=np.array([float(np.mean(values[m])) for m in members]) + shift,
                   class_members=tuple(members), _observable=mat)

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
            vecs = np.asarray(vectors)
            if vecs.ndim != 2:
                raise BasisMismatchError("group vectors must be a (dim, n_s) array")
            values.append(float(value))
            blocks.append(vecs)
        return cls._from_columns(np.hstack(blocks), values, [vecs.shape[1] for vecs in blocks])

    @classmethod
    def _from_columns(cls, vectors, values, sizes) -> "ObservableDecomposition":
        """:meth:`from_groups` of the columns of ``vectors``, the first
        ``sizes[0]`` of them in the class of ``values[0]`` and so on, which
        a caller that has the whole basis in one array passes without a copy.
        The orthonormality check searches the basis for its permutation,
        which the decomposition keeps as ``_perm``."""
        full = exact_dtype(vectors)
        d = full.shape[0]
        if full.shape[1] != d:
            raise BasisMismatchError(
                f"basis has {full.shape[1]} vectors for dimension {d}; must be complete"
            )
        # a permutation matrix (the collective bases) is orthonormal as it is
        perm = _permutation(full)
        if perm is None and np.linalg.norm(dagger(full) @ full - np.eye(d)) > ORTHONORMALITY_TOL:
            raise BasisMismatchError("basis vectors are not orthonormal")
        obs = cls(eigenvalues=np.repeat(values, sizes), eigenvectors=full,
                  class_values=np.array(values, dtype=float),
                  class_members=tuple(np.split(np.arange(d), np.cumsum(sizes)[:-1])))
        object.__setattr__(obs, "_recorded_perm", perm)
        return obs

    @classmethod
    def from_eigenbasis(cls, values, vectors) -> "ObservableDecomposition":
        """Build with one class per supplied eigenvector, in the given order.

        Repeated values are kept as distinct classes, which lets tables be
        indexed by state rather than by eigenvalue (used by the classical
        embedding, where several states may carry the same observable value).
        """
        vals = np.asarray(values, dtype=float).reshape(-1)
        vecs = np.asarray(vectors)
        if vecs.shape != (len(vals), len(vals)):
            raise DimMismatchError("eigenbasis must be square with one value per column")
        return cls.from_groups((v, vecs[:, i:i + 1]) for i, v in enumerate(vals))

    @property
    def observable(self) -> np.ndarray:
        """The operator X: the matrix ``from_operator`` was given, otherwise
        sum_s x_s sum_j |s,j><s,j|, formed on first access and kept."""
        if self._observable is None:
            object.__setattr__(self, "_observable", self.reconstruct())
        return self._observable

    @property
    def _perm(self):
        """:func:`quasitur.util._permutation` of the eigenvectors, which
        :meth:`from_groups` records and anything else searches once."""
        if not hasattr(self, "_recorded_perm"):
            object.__setattr__(self, "_recorded_perm", _permutation(self.eigenvectors))
        return self._recorded_perm

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

    @property
    def center(self) -> float:
        """c, the midpoint of X's spectrum."""
        return 0.5 * (self.eigenvalues.max() + self.eigenvalues.min())

    @property
    def centered(self) -> np.ndarray:
        """X - c I. Every quantity that a shift of X by a multiple of I leaves
        unchanged is evaluated on it, so a large offset costs no digits."""
        return self.observable - self.center * np.eye(self.dim)

    @property
    def max_gap(self) -> float:
        """Largest eigenvalue separation, the largest |y - x| of a change.

        Values may be stored in caller order, so take the full spread.
        """
        return float(self.eigenvalues.max() - self.eigenvalues.min())


def _observable(x, dim: int) -> ObservableDecomposition:
    """The observable argument of every entry point: a decomposition passes
    through, a matrix goes through :meth:`ObservableDecomposition.from_operator`
    (``NotHermitianError``), and a dimension other than ``dim`` raises
    ``DimMismatchError``."""
    obs = x if isinstance(x, ObservableDecomposition) else ObservableDecomposition.from_operator(x)
    _check_observable_dim(obs.dim, dim)
    return obs


def _observable_operator(x, dim: int) -> np.ndarray:
    """The matrix X of an observable argument, checked as by :func:`_observable`
    but not decomposed, for code that needs X alone."""
    mat = x.observable if isinstance(x, ObservableDecomposition) else require_hermitian(x)
    _check_observable_dim(len(mat), dim)
    return mat


def _check_observable_dim(obs_dim: int, dim: int) -> None:
    if obs_dim != dim:
        raise DimMismatchError(f"observable dimension {obs_dim} differs from model dimension {dim}")


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

