"""Classical Markov jump processes and their diagonal quantum embedding.

A rate matrix R (non-negative off-diagonal, zero column sums) drives
p' = R p. Joint statistics of a state function f over a lag are those of
the joint probability [exp(R dt)]_{ji} p_i, held as a ``QuasiprobTable``
over the states' values of f: its moments are the table's ``moment`` and
its generating function is the table's transform, as for the quantum
table. Replacing the generator, observable and state by their quantum
counterparts maps every classical quantity onto the quasiprobability
machinery, which is verified here by embedding R as a Hamiltonian-free jump
model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DimMismatchError, TracePreservationError
from .fcs import default_lambda_grid
from .lindblad import JumpPair, LindbladModel, QuantumState
from .quasiprob import (ObservableDecomposition, QuasiprobTable, _transform, flux_matrix,
                        short_time_moment, tmh_table)
from .thermo import entropy_production_rate, tur_bound
from .util import CLASSICAL_TOL, DENSITY_TOL, change_moment, lag, read_json, write_json


def validate_rate_matrix(r: np.ndarray) -> np.ndarray:
    mat = np.asarray(r, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DimMismatchError("rate matrix must be square")
    if not np.all(np.isfinite(mat)):
        raise ValueError("rate matrix has non-finite entries")
    off = mat - np.diag(np.diag(mat))
    if off.min() < -CLASSICAL_TOL:
        raise ValueError(f"negative off-diagonal rate {off.min():.3e}")
    colsum = np.abs(mat.sum(axis=0)).max()
    if colsum > CLASSICAL_TOL * max(np.abs(mat).max(), 1.0):
        raise ValueError(f"rate matrix columns do not sum to zero (max {colsum:.3e})")
    return mat


def validate_probability(p: np.ndarray) -> np.ndarray:
    vec = np.asarray(p, dtype=float).reshape(-1)
    if not np.all(np.isfinite(vec)):
        raise ValueError("probabilities have non-finite entries")
    if vec.min() < -CLASSICAL_TOL:
        raise ValueError(f"negative probability {vec.min():.3e}")
    if abs(vec.sum() - 1.0) > CLASSICAL_TOL:
        raise ValueError(f"probabilities sum to {vec.sum()!r}")
    return vec


def _validated(r, p, f) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A rate matrix, a distribution over its states and a state function,
    validated; raises ``DimMismatchError`` unless their lengths match."""
    r, p = validate_rate_matrix(r), validate_probability(p)
    f = np.asarray(f, dtype=float).reshape(-1)
    if not np.all(np.isfinite(f)):
        raise ValueError("state function has non-finite values")
    if len(p) != len(r) or len(f) != len(r):
        raise DimMismatchError(f"{len(p)} probabilities and {len(f)} values for {len(r)} states")
    return r, p, f


def _propagator(r: np.ndarray, t: float) -> np.ndarray:
    """exp(R t) of a validated R and lag; raises ``TracePreservationError``
    when a column sum misses 1 by more than ``DENSITY_TOL`` or is not finite."""
    prop = scipy.linalg.expm(r * t)
    drift = np.max(np.abs(prop.sum(axis=0) - 1.0))
    if not drift <= DENSITY_TOL:
        raise TracePreservationError(f"exp(R t) columns sum to 1 only within {drift:.3e}")
    return prop


def _joint_table(r: np.ndarray, p: np.ndarray, f: np.ndarray, delta_t: float) -> QuasiprobTable:
    """The joint probability [exp(R dt)]_{ji} p_i of state i before the lag
    and state j after it, as a table over the values of f indexed by state,
    like the embedding's ``from_eigenbasis(f, I)`` table."""
    return QuasiprobTable(labels=f, values=_propagator(r, delta_t) * p[None, :], delta_t=delta_t)


def classical_propagate(r: np.ndarray, p0: np.ndarray, t: float) -> np.ndarray:
    """p(t) = exp(R t) p0; raises ``ValueError`` unless 0 <= t < inf and
    ``DimMismatchError`` unless p0 has one entry per state."""
    t = lag(t)
    r, p0 = validate_rate_matrix(r), validate_probability(p0)
    if len(p0) != len(r):
        raise DimMismatchError(f"{len(p0)} probabilities for {len(r)} states")
    if t == 0.0:
        return p0.copy()
    return _propagator(r, t) @ p0


def classical_joint_moment(r: np.ndarray, p: np.ndarray, f: np.ndarray,
                           n: int, delta_t: float) -> float:
    """sum_{i,j} (f_j - f_i)^n [exp(R dt)]_{ji} p_i; raises ``ValueError``
    unless 0 <= dt < inf."""
    delta_t = lag(delta_t)
    return _joint_table(*_validated(r, p, f), delta_t).moment(n)


def classical_generating_function(r: np.ndarray, p: np.ndarray, f: np.ndarray,
                                  lam, delta_t: float):
    """sum_{i,j} e^{il(f_j - f_i)} [exp(R dt)]_{ji} p_i, the transform of the
    joint table, which equals < exp(R^T dt)(e^{ilf}) e^{-ilf} >_p.

    A scalar ``lam`` gives a complex number. A 1-D array of ``lam`` gives a
    complex array, all of it from one propagator. Raises ``ValueError``
    unless 0 <= dt < inf.
    """
    delta_t = lag(delta_t)
    return _transform(_joint_table(*_validated(r, p, f), delta_t), lam)


def classical_short_time_second_moment(r: np.ndarray, p: np.ndarray, f: np.ndarray) -> float:
    """m_f = sum (f_j - f_i)^2 R_ji p_i."""
    r, p, f = _validated(r, p, f)
    return change_moment(f, r * p[None, :], 2)


@dataclass(frozen=True)
class ClassicalModel:
    """Rate matrix, initial distribution and state function, as stored in
    classical model files."""

    rate_matrix: np.ndarray
    p0: np.ndarray
    f: np.ndarray

    def __post_init__(self):
        r, p0, f = _validated(self.rate_matrix, self.p0, self.f)
        object.__setattr__(self, "rate_matrix", r)
        object.__setattr__(self, "p0", p0)
        object.__setattr__(self, "f", f)


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
            fwd = np.zeros((n, n))
            bwd = np.zeros((n, n))
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
    model = LindbladModel(hamiltonian=np.zeros((n, n)), jump_pairs=tuple(pairs))
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
                         delta_ts=(0.01, 0.1)) -> EmbeddingComparison:
    """Check that the diagonal embedding reproduces the classical statistics.

    Compares the short-time second moment, the joint tables over the given
    lags (state-indexed, so repeated f values stay distinct), and the
    generating functions over a lambda grid. On reversible rate matrices the
    entropy production rate and uncertainty-relation fields are evaluated
    as well, J as the first flux moment sum (f_j - f_i) R_ji p_i (H = 0),
    which builds no generator; otherwise they are reported as None.
    """
    r, p, f = _validated(r, p, f)
    n = r.shape[0]
    model, reversible = quantize_rate_matrix(r)
    state = QuantumState(np.diag(p))
    obs = ObservableDecomposition.from_eigenbasis(f, np.eye(n))

    flux = flux_matrix(model, state, obs)
    m_quantum = short_time_moment(flux, 2).value
    m_classical = classical_short_time_second_moment(r, p, f)
    m_residual = abs(m_quantum - m_classical)

    lams = default_lambda_grid(obs, 21)
    # one quantum and one classical table per lag; each generating function
    # is the transform of its table
    table_residuals = []
    gen_residual = 0.0
    for dt in delta_ts:
        quantum, classical = tmh_table(model, state, obs, dt), _joint_table(r, p, f, float(dt))
        table_residuals.append(float(np.max(np.abs(quantum.values - classical.values))))
        gen_gap = np.abs(_transform(quantum, lams) - _transform(classical, lams))
        gen_residual = max(gen_residual, float(np.max(gen_gap, initial=0.0)))

    epr = bound = slack = None
    if reversible and p.min() > 0:
        epr = entropy_production_rate(model, state)
        bound = tur_bound(short_time_moment(flux, 1).value, m_quantum)
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
