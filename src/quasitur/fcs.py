"""Bridge between jump-counting statistics and the quasiprobability rates.

When every jump shifts the observable by a fixed weight, [X, L_k] = w_k L_k,
the counting statistics of the weighted jump current admit the short-time
generating rate

    g^c(l) = sum_k (exp(i l w_k) - 1) tr(L_k^dag L_k rho),

which differs from the quasiprobability rate sum_{y,x} e^{il(y - x)} T_yx,
the transform of the flux matrix, only by the transform of H's own fluxes,
an odd sine series over its coherences. Even-order moments coincide, so the
second moment m_X is observable by monitoring jumps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CommutationViolatedError, DimMismatchError
from .lindblad import LindbladModel, QuantumState, _check_dim
from .operators import ObservableDecomposition, _observable
from .quasiprob import _transform, flux_matrix, short_time_moment
from .util import COMMUTATION_TOL, commutator, dagger, per_lambda, write_csv


@dataclass(frozen=True)
class CommutationCheckResult:
    """Outcome of fitting weights w_k with [X, L_k] = w_k L_k."""

    ok: bool
    weights: tuple
    residuals: tuple
    failed_index: int | None


def commutation_check(model: LindbladModel, observable) -> CommutationCheckResult:
    """Fit w_k = tr(L_k^dag [X_c, L_k]) / tr(L_k^dag L_k) and verify the relation
    to ``COMMUTATION_TOL`` times spread(X) ||L_k||_F, which bounds
    ||[X, L_k]||_F, so rescaling X or L_k leaves the verdict alone. The
    rounding of [X, L_k], 2 d eps ||X||_F ||L_k||_F, floors the threshold:
    a constant X in a rotated basis passes. One commutator per jump, with
    the centered X_c = X - c I, gives w_k and the residual, so an offset of X
    costs them no digits. Failure is a result, not an exception; the first
    violating jump index is recorded. Only an exactly zero L_k, the missing
    member of an irreversible classical edge, has weight 0.
    """
    obs = _observable(observable, model.dim)
    x = obs.centered
    scale = max(COMMUTATION_TOL * obs.max_gap,
                2 * model.dim * np.finfo(float).eps * float(np.linalg.norm(obs.observable)))
    weights = []
    residuals = []
    failed = None
    for i, op in enumerate(model.jump_operators):
        w = residual = 0.0
        if op.any():
            # a power of two rescales exactly and keeps tr(L^dag L) of a tiny L_k off zero
            unit = np.ldexp(1.0, np.frexp(np.abs(op).max())[1] - 1)
            u = op / unit
            comm = commutator(x, u)
            w = float((np.trace(dagger(u) @ comm) / np.trace(dagger(u) @ u).real).real)
            residual = float(np.linalg.norm(comm - w * u)) * unit
        weights.append(w)
        residuals.append(residual)
        if failed is None and residual > scale * float(np.linalg.norm(op)):
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
    if not np.all(np.isfinite(weights)):
        raise ValueError(f"weights have non-finite entries: {weights.tolist()}")
    activities = _activities(model, state)
    return per_lambda(lam, lambda lams: (np.exp(1j * np.outer(lams, weights)) - 1.0) @ activities)


def _activities(model: LindbladModel, state: QuantumState) -> np.ndarray:
    """tr(L_k^dag L_k rho), one per entry of ``model.jump_operators``."""
    _check_dim(state, model.dim)
    rho = state.rho
    return np.array([np.trace(dagger(op) @ op @ rho).real for op in model.jump_operators])


def tmh_generating_rate(model: LindbladModel, state: QuantumState, observable, lam):
    """d/d(dt) of the quasiprobability generating function at dt = 0,

    sum_{y,x} e^{il(y - x)} T_yx over :func:`quasitur.quasiprob.flux_matrix`,
    which equals tr({L^dag(e^{ilX}), e^{-ilX}} rho) / 2. A scalar ``lam``
    gives a complex number, a 1-D array a complex array from one flux matrix.
    """
    return _transform(flux_matrix(model, state, observable), lam)


def default_lambda_grid(obs: ObservableDecomposition, n_points: int = 41) -> np.ndarray:
    """Uniform grid over [-pi, pi] divided by the largest eigenvalue gap,
    keeping every sine argument within one period."""
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
        per_point = np.abs((self.tmh_rate - self.fcs_rate) - self.predicted_difference)
        write_csv(path, ["lambda", "tmh_re", "tmh_im", "fcs_re", "fcs_im", "predicted_re",
                         "predicted_im", "residual"],
                  np.column_stack([self.lambda_grid, self.tmh_rate.real, self.tmh_rate.imag,
                                   self.fcs_rate.real, self.fcs_rate.imag,
                                   self.predicted_difference.real,
                                   self.predicted_difference.imag, per_point]))


def predicted_rate_difference(model: LindbladModel, state: QuantumState, observable,
                              lambda_grid):
    """The transform (:func:`quasitur.util.per_lambda` convention) of the fluxes
    T^H of the model without jumps. As T = T^H + T^D and T^D transforms into
    the counting rate under the commutation condition, this is the
    quasiprobability rate minus the counting rate: the sine series
    sum_{x,y} H_yx rho_xy sin(l (y - x)) over eigenvalue classes (pairs within
    one class weigh e^0). It vanishes when H or rho commutes with X.
    """
    return _transform(flux_matrix(LindbladModel(model.hamiltonian, ()), state, observable),
                      lambda_grid)


def compare_rates(model: LindbladModel, state: QuantumState, observable) -> GeneratingRateComparison:
    """Evaluate both generating rates and their predicted difference over classes.

    Raises ``CommutationViolatedError`` when no jump weights exist. The
    residual is the worst absolute deviation of (tmh - fcs) from the
    prediction over the grid. The even-moment gaps, at orders 2 and 4, are
    |sum (y - x)^n T_yx - sum_k w_k^n tr(L_k^dag L_k rho)|, the moments of
    the two rates in closed form.
    """
    obs = _observable(observable, model.dim)
    check = commutation_check(model, obs)
    if not check.ok:
        raise CommutationViolatedError(
            f"jump {check.failed_index} violates the commutation condition "
            f"(residual {check.residuals[check.failed_index]:.3e})"
        )
    grid = default_lambda_grid(obs)
    flux = flux_matrix(model, state, obs)
    tmh = _transform(flux, grid)
    fcs = fcs_generating_rate(model, state, check.weights, grid)
    predicted = predicted_rate_difference(model, state, obs, grid)
    residual = float(np.max(np.abs((tmh - fcs) - predicted)))
    weights, activities = np.array(check.weights), _activities(model, state)
    even_diffs = tuple(abs(short_time_moment(flux, n).value - float(weights**n @ activities))
                       for n in (2, 4))
    return GeneratingRateComparison(
        lambda_grid=grid,
        tmh_rate=tmh,
        fcs_rate=fcs,
        predicted_difference=predicted,
        residual=residual,
        even_moment_differences=even_diffs,
    )
