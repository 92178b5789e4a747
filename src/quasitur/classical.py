"""Classical Markov jump processes and their diagonal quantum embedding.

A rate matrix R (non-negative off-diagonal, zero column sums) drives
p' = R p. Joint statistics of a state function f over a lag follow from
[exp(R dt)]_{ji} p_i, with an entrywise-exponential generating function.
Replacing the generator, observable and state by their quantum counterparts
maps every classical quantity onto the quasiprobability machinery, which is
verified here by embedding R as a Hamiltonian-free jump model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DimMismatchError
from .fcs import default_lambda_grid
from .lindblad import JumpPair, LindbladModel, QuantumState
from .quasiprob import ObservableDecomposition, flux_matrix, generating_function, short_time_moment, tmh_table
from .thermo import currents, entropy_production_rate, tur_bound
from .util import change_moment, per_lambda, read_json, write_json


def validate_rate_matrix(r: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    mat = np.asarray(r, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DimMismatchError("rate matrix must be square")
    off = mat - np.diag(np.diag(mat))
    if off.min() < -tol:
        raise ValueError(f"negative off-diagonal rate {off.min():.3e}")
    colsum = np.abs(mat.sum(axis=0)).max()
    if colsum > tol * max(np.abs(mat).max(), 1.0):
        raise ValueError(f"rate matrix columns do not sum to zero (max {colsum:.3e})")
    return mat


def validate_probability(p: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    vec = np.asarray(p, dtype=float).reshape(-1)
    if vec.min() < -tol:
        raise ValueError(f"negative probability {vec.min():.3e}")
    if abs(vec.sum() - 1.0) > tol:
        raise ValueError(f"probabilities sum to {vec.sum()!r}")
    return vec


def classical_propagate(r: np.ndarray, p0: np.ndarray, t: float) -> np.ndarray:
    """p(t) = exp(R t) p0."""
    if t < 0:
        raise ValueError("propagation time must be non-negative")
    r = validate_rate_matrix(r)
    p0 = validate_probability(p0)
    if t == 0.0:
        return p0.copy()
    return scipy.linalg.expm(r * t) @ p0


def classical_joint_moment(r: np.ndarray, p: np.ndarray, f: np.ndarray,
                           n: int, delta_t: float) -> float:
    """sum_{i,j} (f_j - f_i)^n [exp(R dt)]_{ji} p_i."""
    r = validate_rate_matrix(r)
    p = validate_probability(p)
    f = np.asarray(f, dtype=float).reshape(-1)
    prop = scipy.linalg.expm(r * float(delta_t))
    return change_moment(f, f, prop * p[None, :], n)


def classical_generating_function(r: np.ndarray, p: np.ndarray, f: np.ndarray,
                                  lam, delta_t: float):
    """< exp(R^T dt)(e^{ilf}) e^{-ilf} >_p with entrywise exponential/product.

    A scalar ``lam`` gives a complex number. A 1-D array of ``lam`` gives a
    complex array, all of it from one propagator. Phases are of f minus its
    midpoint, which cancels and keeps them bounded at complex ``lam``.
    """
    r = validate_rate_matrix(r)
    p = validate_probability(p)
    f = np.asarray(f, dtype=float).reshape(-1)
    centered = f - 0.5 * (f.max() + f.min())
    # row b of phases @ exp(R dt) is exp(R^T dt) applied to e^{i lam_b f}
    prop = scipy.linalg.expm(r * float(delta_t))

    def values_at(lams):
        return ((np.exp(1j * np.outer(lams, centered)) @ prop)
                * np.exp(-1j * np.outer(lams, centered))) @ p

    return per_lambda(lam, values_at)


def classical_short_time_second_moment(r: np.ndarray, p: np.ndarray, f: np.ndarray,
                                       method: str = "double_sum") -> float:
    """m_f = sum (f_j - f_i)^2 R_ji p_i, or the equivalent generator form
    < R^T(f^2) - 2 R^T(f) f >_p."""
    r = validate_rate_matrix(r)
    p = validate_probability(p)
    f = np.asarray(f, dtype=float).reshape(-1)
    if method == "double_sum":
        return change_moment(f, f, r * p[None, :], 2)
    if method == "operator":
        return float(np.sum((r.T @ f**2 - 2.0 * (r.T @ f) * f) * p))
    raise ValueError("method must be 'double_sum' or 'operator'")


@dataclass(frozen=True)
class ClassicalModel:
    """Rate matrix, initial distribution and state function, as stored in
    classical model files."""

    rate_matrix: np.ndarray
    p0: np.ndarray
    f: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rate_matrix", validate_rate_matrix(self.rate_matrix))
        object.__setattr__(self, "p0", validate_probability(self.p0))
        object.__setattr__(self, "f", np.asarray(self.f, dtype=float).reshape(-1))
        n = self.rate_matrix.shape[0]
        if len(self.p0) != n or len(self.f) != n:
            raise DimMismatchError("p0 and f must match the rate matrix dimension")


def classical_model_to_dict(model: ClassicalModel) -> dict:
    return {
        "rate_matrix": [[float(x) for x in row] for row in model.rate_matrix],
        "p0": [float(x) for x in model.p0],
        "f": [float(x) for x in model.f],
    }


def classical_model_from_dict(data: dict) -> ClassicalModel:
    return ClassicalModel(
        rate_matrix=np.asarray(data["rate_matrix"], dtype=float),
        p0=np.asarray(data["p0"], dtype=float),
        f=np.asarray(data["f"], dtype=float),
    )


def load_classical_model(path) -> ClassicalModel:
    return classical_model_from_dict(read_json(path))


def save_classical_model(model: ClassicalModel, path) -> None:
    write_json(path, classical_model_to_dict(model))


def quantize_rate_matrix(r: np.ndarray) -> tuple[LindbladModel, bool]:
    """Embed R as a Hamiltonian-free jump model, one operator per directed edge.

    Reversible edge pairs (R_ji, R_ij both positive) carry the entropy
    current ln(R_ji / R_ij) and satisfy local detailed balance exactly.
    Irreversible edges (one direction only) are encoded with a vanishing
    backward operator, which reproduces the dynamics but has no meaningful
    entropy current; the second return value reports reversibility.
    """
    r = validate_rate_matrix(r)
    n = r.shape[0]
    pairs = []
    reversible = True
    for i in range(n):
        for j in range(i + 1, n):
            fwd_rate = r[j, i]  # i -> j
            bwd_rate = r[i, j]  # j -> i
            if fwd_rate <= 0.0 and bwd_rate <= 0.0:
                continue
            fwd = np.zeros((n, n), dtype=complex)
            bwd = np.zeros((n, n), dtype=complex)
            if fwd_rate > 0.0:
                fwd[j, i] = np.sqrt(fwd_rate)
            if bwd_rate > 0.0:
                bwd[i, j] = np.sqrt(bwd_rate)
            if fwd_rate > 0.0 and bwd_rate > 0.0:
                s = float(np.log(fwd_rate / bwd_rate))
            else:
                reversible = False
                s = 0.0
            pairs.append(JumpPair(forward=fwd, backward=bwd, entropy_current=s))
    model = LindbladModel(hamiltonian=np.zeros((n, n), dtype=complex), jump_pairs=tuple(pairs))
    return model, reversible


@dataclass(frozen=True)
class EmbeddingComparison:
    """Residuals between classical statistics and the diagonal embedding."""

    reversible: bool
    fluctuation_residual: float
    table_residuals: tuple
    generating_residual: float
    delta_ts: tuple
    epr: float | None
    tur_bound: float | None
    tur_slack: float | None

    @property
    def max_residual(self) -> float:
        return max([self.fluctuation_residual, self.generating_residual, *self.table_residuals])


def quantize_and_compare(r: np.ndarray, p: np.ndarray, f: np.ndarray,
                         delta_ts=(0.01, 0.1), lambda_grid=None) -> EmbeddingComparison:
    """Check that the diagonal embedding reproduces the classical statistics.

    Compares the short-time second moment, the joint tables over the given
    lags (state-indexed, so repeated f values stay distinct), and the
    generating functions over a lambda grid. On reversible rate matrices the
    entropy production rate and uncertainty-relation fields are evaluated
    as well; otherwise they are reported as None.
    """
    r = validate_rate_matrix(r)
    p = validate_probability(p)
    f = np.asarray(f, dtype=float).reshape(-1)
    n = r.shape[0]
    model, reversible = quantize_rate_matrix(r)
    state = QuantumState(np.diag(p.astype(complex)))
    obs = ObservableDecomposition.from_eigenbasis(f, np.eye(n, dtype=complex))

    m_quantum = short_time_moment(flux_matrix(model, state, obs), 2).value
    m_classical = classical_short_time_second_moment(r, p, f)
    m_residual = abs(m_quantum - m_classical)

    table_residuals = []
    for dt in delta_ts:
        table = tmh_table(model, state, obs, dt)
        prop = scipy.linalg.expm(r * float(dt))
        classical_joint = prop * p[None, :]
        table_residuals.append(float(np.max(np.abs(table.values - classical_joint))))

    if lambda_grid is None:
        lambda_grid = default_lambda_grid(obs, 21)
    lams = np.asarray(lambda_grid, dtype=float).reshape(-1)
    gen_residual = 0.0
    for dt in delta_ts:
        g_quantum = generating_function(model, state, obs, lams, dt)
        g_classical = classical_generating_function(r, p, f, lams, dt)
        gen_residual = max(gen_residual, float(np.max(np.abs(g_quantum - g_classical), initial=0.0)))

    epr = bound = slack = None
    if reversible and p.min() > 0:
        epr = entropy_production_rate(model, state)
        bound = tur_bound(currents(model, state, obs).dissipative_part, m_quantum)
        slack = epr - bound
    return EmbeddingComparison(
        reversible=reversible,
        fluctuation_residual=m_residual,
        table_residuals=tuple(table_residuals),
        generating_residual=gen_residual,
        delta_ts=tuple(float(dt) for dt in delta_ts),
        epr=epr,
        tur_bound=bound,
        tur_slack=slack,
    )
