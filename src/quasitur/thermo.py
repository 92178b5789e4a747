"""Entropy production, currents, diffusivity, and the uncertainty relation.

The central inequality bounds the entropy production rate by the dissipative
current of any observable against its short-time fluctuation,

    sigma >= 2 |J_X^d|^2 / m_X,

with the equivalent diffusivity form sigma >= |tr(X D(rho))|^2 / D_X and
the identity D_X = m_X / 2. The geometric representation rewrites sigma as
a force-current inner product on an enlarged space, from which the bound
follows by Cauchy-Schwarz; it is exposed here for direct verification, in
pair blocks of d x d matrices, so no (2Pd) x (2Pd) matrix is formed.

Both read rho only through the spectrum every ``QuantumState`` carries from
its validation; nothing here decomposes rho, and :func:`floored_state` floors.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

import numpy as np

from .errors import DimMismatchError, SingularStateError, ZeroFluctuationError
from .lindblad import (
    LindbladModel,
    QuantumState,
    _check_dim,
    apply_dissipator,
    decompose_pair,
    model_hash,
)
from .operators import _observable, _observable_operator, logarithmic_mean
from .quasiprob import flux_matrix, short_time_fluctuation_operator_form, short_time_moment
from .util import (DIFFUSIVITY_IDENTITY_TOL, ZERO_CURRENT_TOL, ZERO_FLUCTUATION_TOL, _rotation,
                   commutator, dagger, operator_hash, real_part)

DEFAULT_EIGENVALUE_FLOOR = 1e-12


@dataclass(frozen=True)
class CurrentDecomposition:
    """Hamiltonian and dissipative parts of d<X>/dt."""

    hamiltonian_part: float
    dissipative_part: float

    @property
    def total(self) -> float:
        return self.hamiltonian_part + self.dissipative_part


def currents(model: LindbladModel, state: QuantumState, observable) -> CurrentDecomposition:
    """J_X^H = i tr([H, X] rho) and J_X^d = tr(X D(rho)), both evaluated on
    the centered X - c I, which gives the same values: [H, I] = 0 and
    tr D(rho) = 0."""
    x = _observable(observable, model.dim).centered
    _check_dim(state, model.dim)
    rho = state.rho
    j_ham = real_part(1j * np.trace(commutator(model.hamiltonian, x) @ rho), "Hamiltonian current")
    j_dis = real_part(np.trace(x @ apply_dissipator(model, rho)), "dissipative current")
    return CurrentDecomposition(hamiltonian_part=j_ham, dissipative_part=j_dis)


def floored_state(state: QuantumState,
                  eigenvalue_floor: float | None) -> tuple[QuantumState, bool]:
    """Mix rho with the maximally mixed state when rank deficient.

    Returns ``(state, False)`` unchanged when the smallest eigenvalue is
    already at or above the floor; otherwise returns
    ``((1 - d*eps) rho + eps I, True)`` with ``eps`` the floor, whose
    spectrum is that of rho with each p mapped to ``(1 - d*eps) p + eps``.
    Raises ``SingularStateError`` when the resulting spectrum is not
    strictly positive, which with ``eigenvalue_floor=None`` (no flooring)
    means any rank-deficient state, and ``ValueError`` unless the floor is
    None or lies in [0, 1/d].
    """
    d = state.dim
    if eigenvalue_floor is not None and not 0.0 <= eigenvalue_floor <= 1.0 / d:
        raise ValueError(f"eigenvalue floor {eigenvalue_floor!r} is not in [0, 1/{d}]")
    applied = eigenvalue_floor is not None and bool(state.eigenvalues[0] < eigenvalue_floor)
    if applied:
        eps = float(eigenvalue_floor)
        state = QuantumState._from_spectrum((1.0 - d * eps) * state.rho + eps * np.eye(d),
                                            (1.0 - d * eps) * state.eigenvalues + eps,
                                            state.eigenvectors)
    p_min = state.eigenvalues[0]
    if p_min <= 0.0:
        if eigenvalue_floor is None:
            raise SingularStateError(f"state has eigenvalue {p_min:.3e}; full rank is required")
        raise SingularStateError(
            f"state remains non-positive after flooring at {eigenvalue_floor:.1e}; increase the floor"
        )
    return state, applied


def _pair_sum(forward: np.ndarray, backward: np.ndarray, s: float, p: np.ndarray) -> float:
    """sum_IJ (forward[I, J] p_J - backward[J, I] p_I)(s + ln p_J - ln p_I):
    one pair's flow J -> I times its affinity (Schnakenberg, Rev. Mod. Phys.
    48, 571, 1976), over groups I, J of eigenvectors of equal population p."""
    log_p = np.log(p)
    return float(np.sum((forward * p - backward.T * p[:, None]) * (s + log_p - log_p[:, None])))


def entropy_production_rate(model: LindbladModel, state: QuantumState,
                            eigenvalue_floor: float | None = DEFAULT_EIGENVALUE_FLOOR) -> float:
    """Entropy production rate -tr(L(rho) ln rho) + sum_k s_k tr(L_k^dag L_k rho).

    The first term is the instantaneous d/dt of the von Neumann entropy
    (trace preservation makes the tr(L(rho)) correction vanish); the second
    sums the entropy currents over both members of every pair. Rank-deficient
    states are floored first; pass ``eigenvalue_floor=None`` to disable
    flooring and raise ``SingularStateError`` instead.

    Evaluated in the eigenbasis of rho = sum_j p_j |j><j| (Spohn, J. Math.
    Phys. 19, 1227, 1978) one pair at a time, as :func:`_pair_sum` of the
    weights |<i|L_k|j>|^2 and |<i|L_-k|j>|^2, so s_k sits in the affinity; a
    model with no pairs gives 0.0. The bulk B, a leading run of at least two
    exactly equal smallest p (the floored zeros of a low-rank rho), is one
    more group: with V_M the other m eigenvectors and C = V_M^dag L V_M, the
    jumps into M from B weigh the rows of V_M^dag L - C V_M^dag, those out of
    M into B the columns of L V_M - V_M C, and the rest of ||L||_F^2 stays
    within B. That costs O(m d^2) per jump, two d x d products with no bulk
    and none in a permutation basis, as for a diagonal state, which counts no
    bulk. The Hamiltonian term tr([H, rho] ln rho) vanishes identically.
    """
    _check_dim(state, model.dim)
    state, _ = floored_state(state, eigenvalue_floor)
    p, u = state.eigenvalues, state.eigenvectors
    bulk = int(np.searchsorted(p, p[0], side="right"))
    if bulk < 2 or np.count_nonzero(u) == len(u):  # a permutation up to phases: no bulk
        bulk = 0
    # the bulk's population p[bulk - 1] = p[0] leads the groups
    p, u = p[max(bulk - 1, 0):], u[:, bulk:]
    rotate = _rotation(u)

    def grouped_weights(op):
        rotated = rotate(op)
        weights = np.abs(rotated) ** 2
        if not bulk:
            return weights
        into_m = np.sum(np.abs(dagger(u) @ op - rotated @ dagger(u)) ** 2, axis=1)
        into_bulk = np.sum(np.abs(op @ u - u @ rotated) ** 2, axis=0)
        within_bulk = np.vdot(op, op).real - weights.sum() - into_m.sum() - into_bulk.sum()
        return np.block([[within_bulk, into_bulk], [into_m[:, None], weights]])

    return sum((_pair_sum(grouped_weights(pair.forward), grouped_weights(pair.backward),
                          pair.entropy_current, p) for pair in model.jump_pairs), 0.0)


def quantum_diffusivity(model: LindbladModel, state: QuantumState, observable) -> float:
    """D_X = tr(rho (D^dag(X^2) - {D^dag(X), X})) / 2, half the operator form of
    the short-time fluctuation, read as sum_k tr(rho [X, L_k]^dag [X, L_k]) / 2."""
    return short_time_fluctuation_operator_form(model, state, observable).value / 2


def tur_bound(current: float, fluctuation: float) -> float:
    """The bound 2 J^2 / m on the entropy production rate.

    A vanishing fluctuation (m <= ``ZERO_FLUCTUATION_TOL``) gives 0 when the
    current vanishes too (|J| <= ``ZERO_CURRENT_TOL``) and raises
    ``ZeroFluctuationError`` otherwise.
    """
    if fluctuation <= ZERO_FLUCTUATION_TOL:
        if abs(current) > ZERO_CURRENT_TOL:
            raise ZeroFluctuationError(
                f"fluctuation {fluctuation:.3e} vanishes while current {current:.3e} does not"
            )
        return 0.0
    return 2.0 * current**2 / fluctuation


@dataclass(frozen=True)
class TURReport:
    """Entropy production against the current/fluctuation bound.

    ``slack = epr - bound`` must be non-negative up to numerical noise;
    ``diffusivity`` satisfies D_X = m_X / 2 and ``diffusivity_bound`` is the
    equivalent |J|^2 / D_X form of the same bound.
    """

    epr: float
    current: float
    fluctuation: float
    bound: float
    slack: float
    diffusivity: float
    diffusivity_bound: float
    eigenvalue_floor: float | None
    floor_applied: bool


def tur_check(model: LindbladModel, state: QuantumState, observable,
              eigenvalue_floor: float | None = DEFAULT_EIGENVALUE_FLOOR) -> TURReport:
    """Evaluate the uncertainty relation for one (model, state, observable).

    All quantities are evaluated on the same (floored, if necessary) state
    so the inequality applies to the instance exactly; the floor decision
    and the entropy production rate read the state's stored spectrum. The
    fluctuation is the second flux moment of the model with H zeroed, as
    i[H, X^2] = {i[H, X], X} cancels the Hamiltonian fluxes in every even
    moment; the diffusivity comes from its own operator expression, making
    the reported D_X = m_X / 2 identity a live check. ``eigenvalue_floor=None``
    disables flooring, as for :func:`entropy_production_rate`.
    """
    obs = _observable(observable, model.dim)
    use, applied = floored_state(state, eigenvalue_floor)
    epr = entropy_production_rate(model, use, None)
    j_d = currents(model, use, obs).dissipative_part
    m_x = short_time_moment(flux_matrix(replace(model, hamiltonian=0 * model.hamiltonian),
                                        use, obs), 2).value
    d_x = quantum_diffusivity(model, use, obs)
    bound = tur_bound(j_d, m_x)
    diff_bound = j_d**2 / d_x if bound > 0.0 and d_x > 0 else 0.0
    if abs(diff_bound - bound) > DIFFUSIVITY_IDENTITY_TOL * max(bound, 1.0):
        raise ValueError(
            f"diffusivity bound {diff_bound!r} deviates from fluctuation bound {bound!r}"
        )
    return TURReport(
        epr=epr,
        current=j_d,
        fluctuation=m_x,
        bound=bound,
        slack=epr - bound,
        diffusivity=d_x,
        diffusivity_bound=diff_bound,
        eigenvalue_floor=None if eigenvalue_floor is None else float(eigenvalue_floor),
        floor_applied=applied,
    )


def tur_report_dict(report: TURReport, model: LindbladModel, observable) -> dict:
    """JSON-ready report with model and observable hashes."""
    return {
        **asdict(report),
        "model_hash": model_hash(model),
        "observable_hash": operator_hash(_observable_operator(observable, model.dim)),
    }


def _log_mean_weights(rates: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Entry (c, i, j): the log-mean of (g_(c^1) p_i / 2, g_c p_j / 2), by which
    S_W scales <i|M_c|j> in the eigenbasis of rho."""
    half = rates[:, None, None] / 2
    return logarithmic_mean(half[np.arange(len(rates)) ^ 1] * p[:, None], half * p)


@dataclass(frozen=True)
class GeometricRepresentation:
    """The force/current geometry of sigma in pair blocks.

    On C^(2P) x H the current, force and structure operators only have
    blocks (c ^ 1, c), which swap c with its pair partner (pair k owns 2k
    and 2k + 1), so each is a (2P, d, d) stack of those blocks. With
    (T_c, s_c) = (Lt_k, s_k) for c = 2k and (Lt_k^dag, -s_k) for c = 2k + 1:
    current[c] = (g_c T_c rho - g_(c^1) rho T_c) / 2, force[c] =
    s_c T_c + [T_c, ln rho] and structure[c] = T_c; current and force are
    anti-Hermitian by construction. The weight (+)_c (g_c / 2) rho is
    ``rates`` (g_c) and the full-rank ``state``, whose stored spectrum S_W
    reads (Carlen & Maas, J. Funct. Anal. 273, 2017).
    """

    current: np.ndarray
    force: np.ndarray
    structure: np.ndarray
    rates: np.ndarray
    state: QuantumState
    epr_inner: float
    epr_norm: float

    def _stack(self, m) -> np.ndarray:
        m = np.asarray(m, dtype=complex)
        if m.shape != self.structure.shape:
            raise DimMismatchError(f"stack of shape {m.shape}, expected {self.structure.shape}")
        return m

    def gradient(self, x) -> np.ndarray:
        """[I x X, B], the gradient of an observable: entry c is X B_c - B_c X."""
        x = _observable_operator(x, self.state.dim)
        return x @ self.structure - self.structure @ x

    def divergence(self, m) -> np.ndarray:
        """Adjoint of the gradient, the partial trace of [M, B]:
        sum_c (M_(c^1) B_c - B_(c^1) M_c). Maps the current to D(rho)."""
        m = self._stack(m)
        partner = np.arange(len(m)) ^ 1
        return np.sum(m[partner] @ self.structure - self.structure[partner] @ m, axis=0)

    def weighted_apply(self, m) -> np.ndarray:
        """S_W(M) = U (logmean * U^dag M U) U^dag, entry by entry."""
        u = self.state.eigenvectors
        weights = _log_mean_weights(self.rates, self.state.eigenvalues)
        return u @ (weights * _rotation(u)(self._stack(m))) @ dagger(u)

    def weighted_inner(self, a, b) -> complex:
        return complex(np.sum(self._stack(a).conj() * self.weighted_apply(b)))

    def weighted_norm_sq(self, a) -> float:
        return real_part(self.weighted_inner(a, a), "weighted norm")


def geometric_representation(model: LindbladModel, state: QuantumState) -> GeometricRepresentation:
    """Assemble the force/current geometry of the entropy production rate.

    Requires a full-rank state (no implicit flooring) and decomposable
    pairs. The returned object carries sigma both as the force-current
    inner product and as the weighted squared norm of the force, both from
    the state's stored spectrum in O(P d^3).
    """
    _check_dim(state, model.dim)
    state, _ = floored_state(state, None)
    if not model.jump_pairs:
        raise ValueError("model has no jump pairs")
    split = [decompose_pair(pair) for pair in model.jump_pairs]
    rates = np.array([g for gamma_f, gamma_b, _ in split for g in (gamma_f, gamma_b)])
    structure = np.array([t for *_, lt in split for t in (lt, dagger(lt))])
    p, u = state.eigenvalues, state.eigenvectors
    log_p = np.log(p)
    g = rates[:, None, None]
    # entries (c, i, j) of current and force in rho's eigenbasis are those
    # of T_c times these factors
    flow = (g * p - g[np.arange(len(rates)) ^ 1] * p[:, None]) / 2
    affinity = np.array(model.entropy_currents)[:, None, None] + log_p - log_p[:, None]
    t_eig = _rotation(u)(structure)
    t_sq = np.abs(t_eig) ** 2
    return GeometricRepresentation(
        current=u @ (flow * t_eig) @ dagger(u),
        force=u @ (affinity * t_eig) @ dagger(u),
        structure=structure,
        rates=rates,
        state=state,
        epr_inner=float(np.sum(t_sq * flow * affinity)),
        epr_norm=float(np.sum(t_sq * _log_mean_weights(rates, p) * affinity**2)),
    )
