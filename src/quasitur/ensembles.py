"""Seeded random instances for property suites and validation sweeps.

Models are built with exact local detailed balance: each pair is generated
from a normalized direction operator and two positive rates, so the residual
of the balance condition is zero by construction rather than by tolerance.
"""

from __future__ import annotations

import numpy as np

from .lindblad import JumpPair, LindbladModel, QuantumState
from .util import dagger


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (raw + dagger(raw)) / 2


def random_observable(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Random Hermitian observable rescaled to spectral radius 1.

    Keeping the spectrum in [-1, 1] bounds the frequencies of exp(i l X),
    and with them the contour radius of moment extraction.
    """
    x = random_hermitian(rng, dim)
    radius = float(np.max(np.abs(np.linalg.eigvalsh(x))))
    return x * (1.0 / max(radius, 1e-12))  # not x / radius: seeded pools keep their bits


def random_state(rng: np.random.Generator, dim: int, mix: float = 0.1) -> QuantumState:
    """Full-rank random density matrix, mixed toward the identity.

    ``mix`` > 0 keeps the smallest eigenvalue comfortably positive so that
    logarithms stay well conditioned.
    """
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    wishart = raw @ dagger(raw)
    wishart /= np.trace(wishart).real
    rho = (1.0 - mix) * wishart + mix * np.eye(dim) / dim
    return QuantumState(rho)


def random_jump_pair(rng: np.random.Generator, dim: int, rate_scale: float = 1.0) -> JumpPair:
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    direction = raw / np.linalg.norm(raw)
    gamma_f = rate_scale * float(np.exp(rng.uniform(-1.0, 1.0)))
    gamma_b = rate_scale * float(np.exp(rng.uniform(-1.0, 1.0)))
    return JumpPair(
        forward=np.sqrt(gamma_f) * direction,
        backward=np.sqrt(gamma_b) * dagger(direction),
        entropy_current=float(np.log(gamma_f / gamma_b)),
    )


def random_model(rng: np.random.Generator, dim: int, n_pairs: int,
                 rate_scale: float = 1.0) -> LindbladModel:
    """Random detail-balanced model with the given number of jump pairs."""
    pairs = tuple(random_jump_pair(rng, dim, rate_scale) for _ in range(n_pairs))
    return LindbladModel(
        hamiltonian=random_hermitian(rng, dim),
        jump_pairs=pairs,
    )


def random_instance(rng: np.random.Generator, max_dim: int = 6,
                    max_pairs: int = 3) -> tuple[LindbladModel, QuantumState, np.ndarray]:
    """A (model, full-rank state, observable) triple for TUR-style suites."""
    dim = int(rng.integers(2, max_dim + 1))
    n_pairs = int(rng.integers(1, max_pairs + 1))
    model = random_model(rng, dim, n_pairs)
    state = random_state(rng, dim)
    observable = random_observable(rng, dim)
    return model, state, observable


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(raw)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_reversible_rate_matrix(rng: np.random.Generator, n_states: int,
                                  rate_scale: float = 1.0) -> np.ndarray:
    """Fully connected rate matrix with every edge reversible."""
    r = rate_scale * rng.uniform(0.2, 1.0, size=(n_states, n_states))
    np.fill_diagonal(r, 0.0)
    np.fill_diagonal(r, -r.sum(axis=0))
    return r


def random_probability(rng: np.random.Generator, n_states: int) -> np.ndarray:
    p = rng.uniform(0.1, 1.0, size=n_states)
    return p / p.sum()
