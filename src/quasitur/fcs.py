"""Bridge between jump-counting statistics and the quasiprobability rates.

When every jump shifts the observable by a fixed weight, [X, L_k] = w_k L_k,
the counting statistics of the weighted jump current admit the short-time
generating rate

    g^c(l) = sum_k (exp(i l w_k) - 1) tr(L_k^dag L_k rho),

which differs from the quasiprobability rate only through an odd
sine series over the Hamiltonian coherences. Even-order moments therefore
coincide, so the second moment m_X is observable by monitoring jumps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import CommutationViolatedError, DimMismatchError
from .lindblad import LindbladModel, QuantumState, _check_dim, apply_adjoint_liouvillian
from .numdiff import derivative_moment
from .quasiprob import _coerce_observable, _observable_matrix, _phase_generating
from .util import COMMUTATION_TOL, commutator, dagger, float_repr, per_lambda


@dataclass(frozen=True)
class CommutationCheckResult:
    """Outcome of fitting weights w_k with [X, L_k] = w_k L_k."""

    ok: bool
    weights: tuple
    residuals: tuple
    failed_index: int | None


def commutation_check(model: LindbladModel, observable) -> CommutationCheckResult:
    """Fit w_k = tr(L_k^dag [X, L_k]) / tr(L_k^dag L_k) and verify the relation
    to ``COMMUTATION_TOL``.

    Failure is a result, not an exception; the first violating jump index is
    recorded. Only an exactly zero L_k, the missing member of an irreversible
    classical edge, has weight 0.
    """
    x = _observable_matrix(observable, model.dim)
    weights = []
    residuals = []
    failed = None
    for i, op in enumerate(model.jump_operators):
        comm = commutator(x, op)
        w = 0.0
        if op.any():
            # a power of two rescales exactly and keeps tr(L^dag L) of a tiny L_k off zero
            u = op / np.ldexp(1.0, np.frexp(np.abs(op).max())[1] - 1)
            w = float((np.trace(dagger(u) @ commutator(x, u)) / np.trace(dagger(u) @ u).real).real)
        residual = float(np.linalg.norm(comm - w * op))
        weights.append(w)
        residuals.append(residual)
        if failed is None and residual > COMMUTATION_TOL * max(float(np.linalg.norm(op)), 1.0):
            failed = i
    return CommutationCheckResult(
        ok=failed is None,
        weights=tuple(weights),
        residuals=tuple(residuals),
        failed_index=failed,
    )


def fcs_generating_rate(model: LindbladModel, state: QuantumState, weights, lam):
    """Short-time generating rate of the jump-counting current with one
    weight per entry of ``model.jump_operators`` (both pair members).

    A scalar ``lam`` gives a complex number, a 1-D array a complex array.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (len(model.jump_operators),):
        raise DimMismatchError(
            f"{weights.size} weights for {len(model.jump_operators)} jump operators"
        )
    _check_dim(state, model.dim)
    rho = state.rho
    activities = np.array([np.trace(dagger(op) @ op @ rho).real for op in model.jump_operators])
    return per_lambda(lam, lambda lams: (np.exp(1j * np.outer(lams, weights)) - 1.0) @ activities)


def tmh_generating_rate(model: LindbladModel, state: QuantumState, observable, lam):
    """d/d(dt) of the quasiprobability generating function at dt = 0,

    evaluated in closed form as tr({L^dag(e^{ilX}), e^{-ilX}} rho) / 2. A
    scalar ``lam`` gives a complex number, a 1-D array a complex array from
    one generator application to the stacked phase operators.
    """
    obs = _coerce_observable(observable)
    return _phase_generating(partial(apply_adjoint_liouvillian, model), obs, state, lam)


def default_lambda_grid(observable, n_points: int = 41) -> np.ndarray:
    """Uniform grid over [-pi, pi] divided by the largest eigenvalue gap,
    keeping every sine argument within one period."""
    obs = _coerce_observable(observable)
    gap = obs.max_gap
    scale = gap if gap > 0 else 1.0
    return np.linspace(-np.pi, np.pi, n_points) / scale


@dataclass(frozen=True)
class GeneratingRateComparison:
    """Quasiprobability vs counting rates on a grid, with the sine-series
    prediction for their difference and the worst-case residual."""

    lambda_grid: np.ndarray
    tmh_rate: np.ndarray
    fcs_rate: np.ndarray
    predicted_difference: np.ndarray
    residual: float
    even_moment_differences: tuple

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("lambda,tmh_re,tmh_im,fcs_re,fcs_im,predicted_re,predicted_im,residual\n")
            per_point = np.abs((self.tmh_rate - self.fcs_rate) - self.predicted_difference)
            for i, lam in enumerate(self.lambda_grid):
                cells = [
                    float_repr(lam),
                    float_repr(self.tmh_rate[i].real), float_repr(self.tmh_rate[i].imag),
                    float_repr(self.fcs_rate[i].real), float_repr(self.fcs_rate[i].imag),
                    float_repr(self.predicted_difference[i].real),
                    float_repr(self.predicted_difference[i].imag),
                    float_repr(per_point[i]),
                ]
                fh.write(",".join(cells) + "\n")


def predicted_rate_difference(model: LindbladModel, state: QuantumState, observable,
                              lambda_grid) -> np.ndarray:
    """sum_{x,y} H_yx rho_xy sin(l (y - x)) over the observable eigenbasis.

    This sine series equals the quasiprobability rate minus the counting
    rate whenever the commutation condition holds; it vanishes identically
    when H or rho commutes with X.
    """
    obs = _coerce_observable(observable)
    if obs.dim != model.dim:
        raise DimMismatchError("observable dimension differs from model")
    _check_dim(state, model.dim)
    vecs = obs.eigenvectors
    vals = obs.eigenvalues
    h_eig = dagger(vecs) @ model.hamiltonian @ vecs
    rho_eig = dagger(vecs) @ state.rho @ vecs
    weight = h_eig.T * rho_eig  # entry (x, y): H_yx rho_xy
    diffs = vals[None, :] - vals[:, None]  # entry (x, y): y - x
    grid = np.asarray(lambda_grid, dtype=float)
    return np.einsum("xy,bxy->b", weight, np.sin(np.multiply.outer(grid, diffs)))


def compare_rates(model: LindbladModel, state: QuantumState, observable) -> GeneratingRateComparison:
    """Evaluate both generating rates and the sine-series difference formula.

    Raises ``CommutationViolatedError`` when no jump weights exist. The
    residual is the worst absolute deviation of (tmh - fcs) from the
    prediction over the grid; even-moment agreement is probed at orders 2
    and 4 by :func:`quasitur.numdiff.derivative_moment`.
    """
    obs = _coerce_observable(observable)
    check = commutation_check(model, obs)
    if not check.ok:
        raise CommutationViolatedError(
            f"jump {check.failed_index} violates the commutation condition "
            f"(residual {check.residuals[check.failed_index]:.3e})"
        )
    grid = default_lambda_grid(obs)
    tmh = tmh_generating_rate(model, state, obs, grid)
    fcs = fcs_generating_rate(model, state, check.weights, grid)
    predicted = predicted_rate_difference(model, state, obs, grid)
    residual = float(np.max(np.abs((tmh - fcs) - predicted)))
    tmh_at = partial(tmh_generating_rate, model, state, obs)
    fcs_at = partial(fcs_generating_rate, model, state, check.weights)
    gap = obs.max_gap
    even_diffs = tuple(abs(derivative_moment(tmh_at, n, gap) - derivative_moment(fcs_at, n, gap))
                       for n in (2, 4))
    return GeneratingRateComparison(
        lambda_grid=grid,
        tmh_rate=tmh,
        fcs_rate=fcs,
        predicted_difference=predicted,
        residual=residual,
        even_moment_differences=even_diffs,
    )
