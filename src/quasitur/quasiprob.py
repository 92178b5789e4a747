"""Two-time quasiprobability statistics of an observable.

The central objects are the real two-time quasiprobability table

    q(y, t+dt; x, t) = tr({exp(L^dag dt) P_y, P_x} rho) / 2,

its short-time flux matrix T_yx(rho) = tr({L^dag P_y, P_x} rho) / 2 with
the escape rate and integrated fluxes read from it, and the moments of the
change y - x under either. The moment generating function is the finite
sum G(l) = sum_{y,x} e^{il(y - x)} q_yx over the table, and its short-time
rate the same sum over T_yx; the moments of G have a closed form.
Entries reproduce the correct single-time marginals but may be negative.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

import numpy as np

from .errors import TracePreservationError
from .lindblad import (
    LindbladModel,
    QuantumState,
    _check_dim,
    heisenberg_propagator,
    resolved_fluxes,
)
from .operators import ObservableDecomposition, _observable
from .util import (DENSITY_TOL, FLUX_COLUMN_SUM_TOL, change_moment, commutator, dagger,
                   float_repr, group_sums, moment_order, per_lambda, real_part, write_csv)


@dataclass(frozen=True)
class QuasiprobTable:
    """q(y, t+dt; x, t) indexed as values[final, initial], both over the
    observable's classes ``labels``."""

    labels: np.ndarray
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
        return change_moment(self.labels, self.values, n)

    def to_csv(self, path) -> None:
        """Header row of final labels, first column of initial labels."""
        write_csv(path, ["initial", *self.labels], np.column_stack([self.labels, self.values.T]),
                  comment=f"delta_t={float_repr(self.delta_t)}")


@dataclass(frozen=True)
class FluxMatrix:
    """Short-time fluxes in an observable's eigenbasis (1/time).

    ``resolved[b, a]`` is the rank-one flux tr({L^dag P_b, P_a} rho) / 2
    from eigenvector a to b. ``values`` sums it over the classes
    ``class_members`` into T_yx, indexed [final, initial] like ``labels``.
    """

    labels: np.ndarray
    resolved: np.ndarray
    class_members: tuple
    values: np.ndarray = field(init=False)

    def __post_init__(self):
        values = group_sums(self.resolved, self.class_members)
        scale = max(float(np.max(np.abs(values))), 1.0)
        colsums = np.abs(values.sum(axis=0))
        if colsums.size and float(colsums.max()) > FLUX_COLUMN_SUM_TOL * scale:
            raise TracePreservationError(
                f"flux columns do not sum to zero (max {float(colsums.max()):.3e}); "
                "the generator is not trace preserving"
            )
        object.__setattr__(self, "values", values)

    @property
    def integrated(self) -> np.ndarray:
        """``values`` without the self-terms (s, j) -> (s, j), which depend on
        the basis inside each class; its grand sum is ``escape_rate``."""
        resolved = self.resolved
        return group_sums(resolved - np.diag(np.diag(resolved)), self.class_members)

    @property
    def escape_rate(self) -> float:
        """Average escape rate R = -sum_{s,j} T_{sj,sj}, minus the self-terms."""
        return -float(np.diag(self.resolved).sum())


@dataclass(frozen=True)
class MomentReport:
    order: int
    value: float


def tmh_table(model: LindbladModel, state: QuantumState, observable, delta_t: float) -> QuasiprobTable:
    """Two-time quasiprobability table at lag ``delta_t``.

    Marginals reproduce the single-time distributions; entries are checked
    to be real (``util.real_part``) and may be negative. Raises
    ``TracePreservationError`` when the evolved projectors, which sum to
    E^dag(I), miss I by more than ``DENSITY_TOL`` in an entry, beyond the
    ||sum_y P_y - I||_F that a unital E^dag can carry over from a supplied
    basis.
    """
    obs = _observable(observable, model.dim)
    heisenberg = heisenberg_propagator(model, float(delta_t))
    _check_dim(state, obs.dim)
    projectors = obs.projectors
    evolved = heisenberg(projectors)
    # q_yx = tr(E_y {P_x, rho}) / 2 with E_y = exp(L^dag dt) P_y, as one
    # (m, d^2) x (d^2, m) product
    sym = (projectors @ state.rho + state.rho @ projectors).transpose(0, 2, 1)
    flat = (len(projectors), -1)
    values = real_part(0.5 * (evolved.reshape(flat) @ sym.reshape(flat).T),
                       "quasiprobability table")
    drift = float(np.max(np.abs(evolved.sum(axis=0) - np.eye(obs.dim))))
    if drift > DENSITY_TOL + np.linalg.norm(projectors.sum(axis=0) - np.eye(obs.dim)):
        raise TracePreservationError(f"evolved projectors sum to I only within {drift:.3e}")
    return QuasiprobTable(labels=obs.class_values.copy(), values=values, delta_t=float(delta_t))


def flux_matrix(model: LindbladModel, state: QuantumState, observable) -> FluxMatrix:
    """T_yx(rho) = tr({L^dag P_y, P_x} rho) / 2 over eigenvalue classes.

    Sums the rank-one fluxes between eigenvectors, from the O(d^3) closed
    form :func:`quasitur.lindblad.resolved_fluxes`, over classes y and x.
    """
    obs = _observable(observable, model.dim)
    return FluxMatrix(labels=obs.class_values.copy(),
                      resolved=resolved_fluxes(model, state, obs.eigenvectors),
                      class_members=obs.class_members)


def _transform(table, lam):
    """sum_{y,x} e^{il(y - x)} values[y, x] of a table or a flux matrix,
    under the convention of :func:`quasitur.util.per_lambda`."""
    diffs = np.subtract.outer(table.labels, table.labels)
    return per_lambda(lam, lambda lams: np.sum(np.exp(1j * np.multiply.outer(lams, diffs))
                                               * table.values, axis=(1, 2)))


def generating_function(model: LindbladModel, state: QuantumState, observable,
                        lam, delta_t: float):
    """Moment generating function sum_{y,x} e^{il(y - x)} q_yx of the table
    at lag ``delta_t``, which equals tr({exp(L^dag dt) e^{ilX}, e^{-ilX}} rho)/2.

    A scalar ``lam`` gives a complex number. A 1-D array of ``lam`` gives a
    complex array, all of it from one table.
    """
    return _transform(tmh_table(model, state, observable, delta_t), lam)


def short_time_moment(flux: FluxMatrix, n: int) -> MomentReport:
    """n-th short-time moment, weight (y - x)^n against the fluxes.

    The weight uses the later label minus the earlier one, matching the
    generating-function derivative convention; even orders are unaffected
    by this choice.
    """
    n = moment_order(n, 1)
    value = change_moment(flux.labels, flux.values, n)
    return MomentReport(order=n, value=value)


def short_time_fluctuation_operator_form(model: LindbladModel, state: QuantumState,
                                         observable) -> MomentReport:
    """m_X = sum_k tr(rho [X, L_k]^dag [X, L_k]), a sum of non-negative terms.

    Term for term the operator form tr(D^dag(X^2) rho) - tr({D^dag(X), X} rho),
    D^dag the adjoint dissipator, without its cancellation where X nearly
    commutes with every jump. Evaluated on the centered X - c I, in one stack.
    """
    x = _observable(observable, model.dim).centered
    _check_dim(state, model.dim)
    comm = commutator(x, np.reshape(model.jump_operators, (-1, model.dim, model.dim)))
    return MomentReport(order=2, value=real_part(np.vdot(comm, comm @ state.rho), "fluctuation"))


def moment_from_generating_function(model: LindbladModel, state: QuantumState, observable,
                                    n: int, delta_t: float) -> MomentReport:
    """(-i d/dl)^n G at l = 0, the moment sum_{y,x} (y - x)^n q_yx, in closed form.

    With X_c = X - c I and (y - x)^n expanded in powers of y - c and x - c,
    it is sum_k C(n, k) (-1)^(n-k) tr({E^dag(X_c^k), X_c^(n-k)} rho) / 2,
    where E^dag = exp(L^dag dt) leaves X_c^0 = I as it is. The powers are
    formed from the stored eigenbasis and evolved by one propagator applied
    to the stack (X_c, ..., X_c^n), without the table's projectors.
    """
    n = moment_order(n, 1)
    obs = _observable(observable, model.dim)
    _check_dim(state, obs.dim)
    vecs = obs.eigenvectors
    scaled = np.power.outer(obs.eigenvalues - obs.center, np.arange(1, n + 1)).T
    powers = (vecs * scaled[:, None, :]) @ dagger(vecs)
    identity = np.eye(obs.dim)[None]
    evolved = np.concatenate([identity, heisenberg_propagator(model, float(delta_t))(powers)])
    # entry k pairs E^dag(X_c^k) with X_c^(n-k)
    others = np.concatenate([identity, powers])[::-1]
    traces = np.einsum("kij,kji->k", evolved, others @ state.rho + state.rho @ others)
    coeffs = np.array([comb(n, k) * (-1) ** (n - k) for k in range(n + 1)], dtype=float)
    value = real_part(0.5 * (coeffs @ traces), "generating-function moment")
    return MomentReport(order=n, value=value)
