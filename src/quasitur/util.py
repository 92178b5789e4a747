"""Small shared helpers: the tolerance table, array coercion, the lag and
real-part checks, hashing, report formatting."""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

from .errors import DimMismatchError, ImaginaryResidueError

# --- tolerance table ---------------------------------------------------------
# Every threshold at which quasitur rejects an input or a result, or flips a
# verdict. "rel." scales by max(that quantity, 1), "purely rel." by it alone.

HERMITICITY_TOL = 1e-10  # ||A - A^dag||_F over ||A||_F itself
IMAG_RESIDUE_TOL = 1e-10  # imaginary part of a real quantity, rel. its modulus
FLUX_COLUMN_SUM_TOL = 1e-10  # flux column sums, rel. the largest flux
DIFFUSIVITY_IDENTITY_TOL = 1e-10  # D_X = m_X / 2 as |J^2/D_X - 2J^2/m_X|, rel. the bound
DENSITY_TOL = 1e-10  # |tr rho - 1| and the most negative eigenvalue of rho
ZERO_CURRENT_TOL = 1e-10  # |J| at most this is zero when m_X vanishes
CLOSED_FORM_TOL = 1e-10  # closed-form collective fluxes against summed ones, rel.
DETAILED_BALANCE_TOL = 1e-8  # ||L_k - exp(s_k/2) L_-k^dag||_F (rel. ||L_k||_F to decompose)
PROPAGATED_PSD_TOL = 1e-8  # most negative eigenvalue of a propagated rho
DEGENERACY_TOL = 1e-9  # eigenvalue gap that merges classes, rel. the spread of X's spectrum
ORTHONORMALITY_TOL = 1e-9  # ||V^dag V - I||_F of a supplied basis
COMMUTATION_TOL = 1e-9  # ||[X, L_k] - w_k L_k||_F, purely rel. spread(X) ||L_k||_F,
#                         but never below 2 d eps ||X||_F ||L_k||_F, the rounding of [X, L_k]
TUR_SLACK_TOL = 1e-9  # most negative TUR slack that passes, rel. sigma
EMBEDDING_TOL = 1e-9  # largest residual of a classical model's diagonal embedding
CLASSICAL_TOL = 1e-12  # classical rates and probabilities: signs, sums (rel. largest rate)
ZERO_ELEMENT_TOL = 1e-12  # smallest jump matrix element that counts as a transition
ZERO_FLUCTUATION_TOL = 1e-14  # m_X at most this vanishes
Q_SLOPE_THRESHOLD = 0.5  # Q1/Q2 hold for a log-log slope above this ...
Q_R2_THRESHOLD = 0.99  # ... with R^2 at least this


def exact_dtype(a) -> np.ndarray:
    """``a`` as float64 if its imaginary part is exactly zero, else as complex128."""
    arr = np.asarray(a)
    if np.iscomplexobj(arr) and arr.imag.any():
        return np.ascontiguousarray(arr, dtype=complex)
    return np.ascontiguousarray(arr.real, dtype=float)


def as_operator(a) -> np.ndarray:
    """Coerce ``a`` to a square matrix with finite entries, typed by :func:`exact_dtype`."""
    mat = exact_dtype(a)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DimMismatchError(f"expected a square matrix, got shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise ValueError("operator contains non-finite entries")
    return mat


def lag(t) -> float:
    """``t`` as a float, raising ``ValueError`` unless 0 <= t < inf."""
    t = float(t)
    if not 0.0 <= t < np.inf:
        raise ValueError(f"lag must be finite and non-negative, got {t!r}")
    return t


def dagger(a: np.ndarray) -> np.ndarray:
    return a.conj().T


def _permutation(v: np.ndarray):
    """perm with V = I[:, perm] when the square V is exactly a real
    permutation matrix (d nonzeros, the maximum of every row and every
    column 1), else None. The test stops at the dtype of a complex V and at
    the nonzero count of a dense one."""
    if (v.dtype.kind == "f" and np.count_nonzero(v) == len(v)
            and (v.max(axis=0) == 1).all() and (v.max(axis=1) == 1).all()):
        return v.argmax(axis=0)
    return None


def _rotation(v: np.ndarray):
    """The map A -> V^dag A V on an operator or a stack, into the columns of
    V, with V^dag formed once. When V is exactly a permutation matrix, as
    the eigenbasis of a diagonal state is, it indexes A instead, which is
    what the products would give bit for bit up to the sign of zeros; when
    V is the identity, as the standard basis of the collective model is, it
    returns A itself, and callers must not write into its result."""
    perm = _permutation(v)
    if perm is None:
        v_dag = dagger(v)
        return lambda a: v_dag @ a @ v
    if np.array_equal(perm, np.arange(len(v))):
        return lambda a: a
    return lambda a: a[..., perm[:, None], perm]


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def real_part(value, what: str):
    """Real part of a scalar (as ``float``) or an array that must be real.

    Raises ``ImaginaryResidueError`` when max|imag| exceeds
    ``IMAG_RESIDUE_TOL * max(max|value|, 1)``, or when the value is not
    finite.
    """
    # numpy's abs also for a scalar: Python's abs(complex) can raise a bare
    # OverflowError on NaN, from an errno an earlier overflow left behind
    value = np.asarray(value)
    residue, scale = np.abs(value.imag).max(initial=0.0), np.abs(value).max(initial=0.0)
    real = float(value.real) if value.ndim == 0 else np.ascontiguousarray(value.real)
    if not math.isfinite(scale):
        raise ImaginaryResidueError(f"{what} is not finite")
    if not residue <= IMAG_RESIDUE_TOL * max(scale, 1.0):
        raise ImaginaryResidueError(
            f"{what} has imaginary residue {residue:.3e}; Hermiticity is broken upstream"
        )
    return real


def per_lambda(lam, values_at):
    """The convention of every generating function in counting field ``lam``.

    ``values_at`` maps a 1-D float or complex array of ``lam`` to one complex
    value per entry. A scalar ``lam`` gives a ``complex``, a 1-D array a
    complex array, both from one call.
    """
    lams = np.asarray(lam, dtype=complex if np.iscomplexobj(lam) else float)
    values = values_at(lams.reshape(-1))
    return complex(values[0]) if lams.ndim == 0 else values


def group_sums(a: np.ndarray, members) -> np.ndarray:
    """out[i, j] = sum of a[p, q] over p in members[i] and q in members[j]."""
    onehot = np.zeros((len(members), a.shape[0]))
    for i, rows in enumerate(members):
        onehot[i, rows] = 1.0
    return onehot @ a @ onehot.T


def moment_order(n, lowest: int = 0) -> int:
    """``n`` as an ``int``; ``ValueError`` unless an integer (numpy's too) >= ``lowest``."""
    if not isinstance(n, (int, np.integer)) or n < lowest:
        raise ValueError(f"moment order must be >= {lowest} and an integer, got {n!r}")
    return int(n)


def change_moment(labels: np.ndarray, values: np.ndarray, n: int) -> float:
    """sum over y, x of (y - x)^n values[y, x], for a table indexed
    [final, initial] with the same ``labels`` on both axes."""
    return float(np.sum(np.subtract.outer(labels, labels)**moment_order(n) * values))


def float_repr(x: float) -> str:
    """Shortest decimal string that round-trips to the same float."""
    return repr(float(x))


def operator_hash(a: np.ndarray) -> str:
    """Stable hex digest identifying a matrix by shape and exact entries."""
    mat = np.ascontiguousarray(np.asarray(a, dtype=complex))
    h = hashlib.sha256()
    h.update(str(mat.shape).encode())
    h.update(mat.tobytes())
    return h.hexdigest()[:16]


def matrix_to_json(a: np.ndarray) -> list:
    """Encode a complex matrix as nested lists of ``[re, im]`` pairs."""
    mat = np.asarray(a, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in mat]


def matrix_from_json(data) -> np.ndarray:
    """Decode the ``[re, im]`` nested-list encoding back to a matrix."""
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise ValueError("matrix entries must be [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


def write_json(path, data) -> None:
    """Write ``data`` as indented JSON with sorted keys and a final newline.
    Raises ``ValueError``, and writes nothing, if ``data`` holds a NaN or an
    infinity, which strict JSON has no literal for."""
    text = json.dumps(data, indent=1, sort_keys=True, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def write_csv(path, header, rows, comment=None) -> None:
    """Write comma-separated ``header`` and ``rows``, after a ``# comment``
    line if one is given. Strings are written as they are, ints with
    ``str`` and floats with :func:`float_repr`."""
    with open(path, "w") as fh:
        if comment is not None:
            fh.write(f"# {comment}\n")
        for cells in [header, *rows]:
            fh.write(",".join(str(c) if isinstance(c, (str, int)) else float_repr(c)
                              for c in cells) + "\n")


def read_json(path):
    with open(path) as fh:
        return json.load(fh)
