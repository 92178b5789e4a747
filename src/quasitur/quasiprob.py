"""Two-time quasiprobability statistics of an observable.

The central objects are the real two-time quasiprobability table

    q(y, t+dt; x, t) = tr({exp(L^dag dt) P_y, P_x} rho) / 2,

its short-time flux matrix T_yx(rho) = tr({L^dag P_y, P_x} rho) / 2, the
moment generating function, and the short-time moments built from them.
Entries reproduce the correct single-time marginals but may be negative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimMismatchError, TracePreservationError
from .lindblad import (
    LindbladModel,
    QuantumState,
    apply_adjoint_dissipator,
    heisenberg_propagator,
    resolved_fluxes,
)
from .numdiff import derivative_moment
from .operators import ObservableDecomposition
from .util import (
    anticommutator,
    as_operator,
    change_moment,
    float_repr,
    group_sums,
    per_lambda,
    real_part,
)

FLUX_SUM = "flux_sum"
OPERATOR_EXPRESSION = "operator_expression"
GENERATING_FUNCTION_CONTOUR = "generating_function_contour"


def _coerce_observable(x) -> ObservableDecomposition:
    if isinstance(x, ObservableDecomposition):
        return x
    return ObservableDecomposition.from_operator(x)


def _observable_matrix(x, dim: int) -> np.ndarray:
    mat = x.observable if isinstance(x, ObservableDecomposition) else as_operator(x)
    if mat.shape[0] != dim:
        raise DimMismatchError("observable dimension differs from model")
    return mat


@dataclass(frozen=True)
class QuasiprobTable:
    """q(y, t+dt; x, t) indexed as values[final, initial]."""

    labels_initial: np.ndarray
    labels_final: np.ndarray
    values: np.ndarray
    delta_t: float

    def marginal_initial(self) -> np.ndarray:
        """sum_y q(y; x), the time-t distribution p(x, t)."""
        return self.values.sum(axis=0)

    def marginal_final(self) -> np.ndarray:
        """sum_x q(y; x), the time-(t+dt) distribution p(y, t+dt)."""
        return self.values.sum(axis=1)

    def moment(self, n: int) -> float:
        """n-th moment of the change, weight (y - x)^n."""
        return change_moment(self.labels_final, self.labels_initial, self.values, n)

    def to_csv(self, path) -> None:
        """Header row of final labels, first column of initial labels."""
        with open(path, "w") as fh:
            fh.write(f"# delta_t={float_repr(self.delta_t)}\n")
            fh.write("initial," + ",".join(float_repr(y) for y in self.labels_final) + "\n")
            for ix, x in enumerate(self.labels_initial):
                row = ",".join(float_repr(v) for v in self.values[:, ix])
                fh.write(f"{float_repr(x)},{row}\n")


@dataclass(frozen=True)
class FluxMatrix:
    """Short-time fluxes T_yx indexed as values[final, initial] (1/time)."""

    labels: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        scale = max(float(np.max(np.abs(self.values))), 1.0)
        colsums = np.abs(self.values.sum(axis=0))
        if colsums.size and float(colsums.max()) > 1e-10 * scale:
            raise TracePreservationError(
                f"flux columns do not sum to zero (max {float(colsums.max()):.3e}); "
                "the generator is not trace preserving"
            )


@dataclass(frozen=True)
class MomentReport:
    order: int
    value: float
    method: str = FLUX_SUM


def tmh_table(model: LindbladModel, state: QuantumState, observable, delta_t: float) -> QuasiprobTable:
    """Two-time quasiprobability table at lag ``delta_t``.

    Marginals reproduce the single-time distributions; entries are checked
    to be real (``util.real_part``) and may be negative.
    """
    obs = _coerce_observable(observable)
    if obs.dim != model.dim:
        raise DimMismatchError("observable dimension differs from model")
    projectors = obs.projectors
    evolved = heisenberg_propagator(model, float(delta_t))(projectors)
    # q_yx = tr(E_y {P_x, rho}) / 2 with E_y = exp(L^dag dt) P_y
    sym = projectors @ state.rho + state.rho @ projectors
    values = real_part(0.5 * np.einsum("yij,xji->yx", evolved, sym), "quasiprobability table")
    return QuasiprobTable(
        labels_initial=obs.class_values.copy(),
        labels_final=obs.class_values.copy(),
        values=values,
        delta_t=float(delta_t),
    )


def flux_matrix(model: LindbladModel, state: QuantumState, observable) -> FluxMatrix:
    """T_yx(rho) = tr({L^dag P_y, P_x} rho) / 2 over eigenvalue classes.

    Sums the rank-one fluxes between eigenvectors, from the O(d^3) closed
    form :func:`quasitur.lindblad.resolved_fluxes`, over classes y and x.
    """
    obs = _coerce_observable(observable)
    if obs.dim != model.dim:
        raise DimMismatchError("observable dimension differs from model")
    resolved = resolved_fluxes(model, state, obs.eigenvectors)
    values = group_sums(resolved, obs.class_members)
    return FluxMatrix(labels=obs.class_values.copy(), values=values)


def _phase_generating(heisenberg, obs: ObservableDecomposition, state: QuantumState, lam):
    """tr({heisenberg(e^{ilX}), e^{-ilX}} rho) / 2 under the convention of
    :func:`quasitur.util.per_lambda`.

    ``heisenberg`` maps a (B, d, d) stack of phase operators to their
    Heisenberg-picture images in one call.
    """
    rho = state.rho

    def values_at(lams):
        # tr({E, V} rho) = tr(E (V rho + rho V)) with V the phase at -lam
        v = obs.phase_operator(-lams)
        return 0.5 * np.einsum("bij,bji->b", heisenberg(obs.phase_operator(lams)),
                               v @ rho + rho @ v)

    return per_lambda(lam, values_at)


def generating_function(model: LindbladModel, state: QuantumState, observable,
                        lam, delta_t: float):
    """Moment generating function tr({exp(L^dag dt) e^{ilX}, e^{-ilX}} rho)/2.

    A scalar ``lam`` gives a complex number. A 1-D array of ``lam`` gives a
    complex array, all of it from one propagator applied to the stacked
    phase operators.
    """
    obs = _coerce_observable(observable)
    return _phase_generating(heisenberg_propagator(model, float(delta_t)), obs, state, lam)


def short_time_moment(flux: FluxMatrix, n: int) -> MomentReport:
    """n-th short-time moment, weight (y - x)^n against the fluxes.

    The weight uses the later label minus the earlier one, matching the
    generating-function derivative convention; even orders are unaffected
    by this choice.
    """
    if n < 1:
        raise ValueError("moment order must be >= 1")
    value = change_moment(flux.labels, flux.labels, flux.values, n)
    return MomentReport(order=n, value=value, method=FLUX_SUM)


def short_time_fluctuation_operator_form(model: LindbladModel, state: QuantumState,
                                         observable) -> MomentReport:
    """m_X = tr(D^dag(X^2) rho) - tr({D^dag(X), X} rho) with D^dag the adjoint dissipator.

    The Hamiltonian part of the adjoint Liouvillian cancels via
    {[H, X], X} = [H, X^2], so it would give the same value.
    """
    x = _observable_matrix(observable, model.dim)
    rho = state.rho
    value = (np.trace(apply_adjoint_dissipator(model, x @ x) @ rho)
             - np.trace(anticommutator(apply_adjoint_dissipator(model, x), x) @ rho))
    return MomentReport(order=2, value=real_part(value, "fluctuation"), method=OPERATOR_EXPRESSION)


def moment_from_generating_function(model: LindbladModel, state: QuantumState, observable,
                                    n: int, delta_t: float) -> MomentReport:
    """Moment of order n from the Taylor coefficients of the generating
    function on a circle (:func:`quasitur.numdiff.derivative_moment`).

    All contour nodes are evaluated in one generating-function call, so
    they share one propagator application.
    """
    obs = _coerce_observable(observable)
    value = derivative_moment(lambda lams: generating_function(model, state, obs, lams, delta_t),
                              n, obs.max_gap)
    return MomentReport(order=n, value=value.real, method=GENERATING_FUNCTION_CONTOUR)


def escape_rate(flux: FluxMatrix) -> float:
    """Average escape rate, minus the sum of diagonal fluxes."""
    return float(-np.trace(flux.values))
