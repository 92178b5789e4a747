"""Small shared helpers: array coercion, hashing, report formatting."""

from __future__ import annotations

import hashlib
import json

import numpy as np

from .errors import DimMismatchError, ImaginaryResidueError

#: largest imaginary part, relative to max(|value|, 1), that a real quantity
#: may carry before it is reported as broken Hermiticity
IMAG_RESIDUE_TOL = 1e-10


def as_operator(a) -> np.ndarray:
    """Coerce ``a`` to a square complex matrix with finite entries."""
    mat = np.ascontiguousarray(a, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DimMismatchError(f"expected a square matrix, got shape {mat.shape}")
    if not np.all(np.isfinite(mat.real)) or not np.all(np.isfinite(mat.imag)):
        raise ValueError("operator contains non-finite entries")
    return mat


def dagger(a: np.ndarray) -> np.ndarray:
    return a.conj().T


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def anticommutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b + b @ a


def real_part(value, what: str):
    """Real part of a scalar (as ``float``) or an array that must be real.

    Raises ``ImaginaryResidueError`` when max|imag| exceeds
    ``IMAG_RESIDUE_TOL * max(max|value|, 1)``.
    """
    if np.ndim(value) == 0:
        value = complex(value)
        residue, scale, real = abs(value.imag), abs(value), value.real
    else:
        value = np.asarray(value)
        residue, scale = np.abs(value.imag).max(initial=0.0), np.abs(value).max(initial=0.0)
        real = np.ascontiguousarray(value.real)
    if residue > IMAG_RESIDUE_TOL * max(scale, 1.0):
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


def change_moment(final_labels: np.ndarray, initial_labels: np.ndarray,
                  values: np.ndarray, n: int) -> float:
    """sum over y, x of (y - x)^n values[y, x], for a table indexed
    [final, initial] with labels y (final) and x (initial)."""
    diff = final_labels[:, None] - initial_labels[None, :]
    return float(np.sum(diff**n * values))


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
    """Write ``data`` as indented JSON with sorted keys and a final newline."""
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def read_json(path):
    with open(path) as fh:
        return json.load(fh)
