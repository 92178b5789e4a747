"""Entropy production, currents, diffusivity, and the uncertainty relation.

The central inequality bounds the entropy production rate by the dissipative
current of any observable against its short-time fluctuation,

    sigma >= 2 |J_X^d|^2 / m_X,

with the equivalent diffusivity form sigma >= |tr(X D(rho))|^2 / D_X and
the identity D_X = m_X / 2. The geometric representation rewrites sigma as
a force-current inner product on an enlarged space, from which the bound
follows by Cauchy-Schwarz; it is exposed here for direct verification.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import SingularStateError, ZeroFluctuationError
from .lindblad import (
    LindbladModel,
    QuantumState,
    apply_dissipator,
    decompose_pair,
    model_hash,
)
from .operators import hs_inner_product, kubo_integral
from .quasiprob import (
    _coerce_observable,
    _observable_matrix,
    flux_matrix,
    short_time_fluctuation_operator_form,
    short_time_moment,
)
from .util import as_operator, commutator, dagger, operator_hash, real_part

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
    """J_X^H = i tr([H, X] rho) and J_X^d = tr(X D(rho))."""
    x = _observable_matrix(observable, model.dim)
    rho = state.rho
    j_ham = real_part(1j * np.trace(commutator(model.hamiltonian, x) @ rho), "Hamiltonian current")
    j_dis = real_part(np.trace(x @ apply_dissipator(model, rho)), "dissipative current")
    return CurrentDecomposition(hamiltonian_part=j_ham, dissipative_part=j_dis)


def _floored_eigh(rho: np.ndarray,
                  eigenvalue_floor: float | None) -> tuple[np.ndarray, np.ndarray, bool]:
    """Spectrum and eigenvectors of the floored rho from one ``eigh`` of rho.

    Flooring to ``(1 - d*eps) rho + eps I`` keeps the eigenvectors and maps
    each eigenvalue p to ``(1 - d*eps) p + eps``; it applies when the
    smallest eigenvalue lies below ``eps``. Returns ``(p, U, applied)``.
    Raises ``SingularStateError`` when the resulting spectrum is not
    strictly positive, which with ``eigenvalue_floor=None`` (no flooring)
    means any rank-deficient state.
    """
    p, u = np.linalg.eigh(rho)
    applied = eigenvalue_floor is not None and bool(p[0] < eigenvalue_floor)
    if applied:
        eps = float(eigenvalue_floor)
        p = (1.0 - len(p) * eps) * p + eps
    if p[0] <= 0.0:
        if eigenvalue_floor is None:
            raise SingularStateError(f"state has eigenvalue {p[0]:.3e}; full rank is required")
        raise SingularStateError(
            f"state remains non-positive after flooring at {eigenvalue_floor:.1e}; increase the floor"
        )
    return p, u, applied


def _floored(state: QuantumState, eigenvalue_floor: float):
    """``(p, U, floored state, applied)`` from one ``eigh`` of rho; the floored
    state is ``state`` itself unless the floor applied."""
    p, u, applied = _floored_eigh(state.rho, eigenvalue_floor)
    if applied:
        d = state.dim
        eps = float(eigenvalue_floor)
        state = QuantumState((1.0 - d * eps) * state.rho + eps * np.eye(d))
    return p, u, state, applied


def floored_state(state: QuantumState, eigenvalue_floor: float) -> tuple[QuantumState, bool]:
    """Mix rho with the maximally mixed state when rank deficient.

    Returns ``(state, False)`` unchanged when the smallest eigenvalue is
    already at or above the floor; otherwise returns
    ``((1 - d*eps) rho + eps I, True)`` with ``eps`` the floor.
    """
    _, _, floored, applied = _floored(state, eigenvalue_floor)
    return floored, applied


def _spohn_rate(model: LindbladModel, p: np.ndarray, u: np.ndarray) -> float:
    """sigma = sum_k sum_ij |<i|L_k|j>|^2 p_j (s_k + ln p_j - ln p_i) for
    rho = U diag(p) U^dag; see :func:`entropy_production_rate`."""
    log_p = np.log(p)
    # entry (i, j): p_j (ln p_j - ln p_i), the weight of a jump |j> -> |i>
    entropy_change = p * (log_p - log_p[:, None])
    sigma = 0.0
    for op, s in zip(model.jump_operators, model.entropy_currents):
        weights = np.abs(dagger(u) @ op @ u) ** 2
        sigma += float(np.sum(weights * entropy_change)) + s * float(weights.sum(axis=0) @ p)
    return sigma


def entropy_production_rate(model: LindbladModel, state: QuantumState,
                            eigenvalue_floor: float | None = DEFAULT_EIGENVALUE_FLOOR) -> float:
    """Entropy production rate -tr(L(rho) ln rho) + sum_k s_k tr(L_k^dag L_k rho).

    The first term is the instantaneous d/dt of the von Neumann entropy
    (trace preservation makes the tr(L(rho)) correction vanish); the second
    sums the entropy currents over both members of every pair. Rank-deficient
    states are floored first; pass ``eigenvalue_floor=None`` to disable
    flooring and raise ``SingularStateError`` instead.

    Evaluated in the eigenbasis of rho = sum_j p_j |j><j| (Spohn, J. Math.
    Phys. 19, 1227, 1978):

        sigma = sum_k sum_ij |<i|L_k|j>|^2 p_j (s_k + ln p_j - ln p_i),

    from one ``eigh`` of rho and two d x d products per jump. The
    Hamiltonian term tr([H, rho] ln rho) vanishes identically.
    """
    p, u, _ = _floored_eigh(state.rho, eigenvalue_floor)
    return _spohn_rate(model, p, u)


def quantum_diffusivity(model: LindbladModel, state: QuantumState, observable) -> float:
    """D_X = tr(rho (D^dag(X^2) - {D^dag(X), X})) / 2, half the operator form
    of the short-time fluctuation."""
    return short_time_fluctuation_operator_form(model, state, observable).value / 2


def tur_bound(current: float, fluctuation: float) -> float:
    """The bound 2 J^2 / m on the entropy production rate.

    A vanishing fluctuation (m <= 1e-14) gives 0 when the current vanishes
    too (|J| <= 1e-10) and raises ``ZeroFluctuationError`` otherwise.
    """
    if fluctuation <= 1e-14:
        if abs(current) > 1e-10:
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
    eigenvalue_floor: float
    floor_applied: bool


def tur_check(model: LindbladModel, state: QuantumState, observable,
              eigenvalue_floor: float = DEFAULT_EIGENVALUE_FLOOR) -> TURReport:
    """Evaluate the uncertainty relation for one (model, state, observable).

    All quantities are evaluated on the same (floored, if necessary) state
    so the inequality applies to the instance exactly; rho is decomposed
    once, for the floor decision and the entropy production rate. The
    fluctuation is computed from the flux sum; the diffusivity from its own
    operator expression, making the reported D_X = m_X / 2 identity a live
    check.
    """
    obs = _coerce_observable(observable)
    p, u, use, applied = _floored(state, eigenvalue_floor)
    epr = _spohn_rate(model, p, u)
    j_d = currents(model, use, obs).dissipative_part
    m_x = short_time_moment(flux_matrix(model, use, obs), 2).value
    d_x = quantum_diffusivity(model, use, obs)
    bound = tur_bound(j_d, m_x)
    diff_bound = j_d**2 / d_x if bound > 0.0 and d_x > 0 else 0.0
    if abs(diff_bound - bound) > 1e-10 * max(bound, 1.0):
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
        eigenvalue_floor=float(eigenvalue_floor),
        floor_applied=applied,
    )


def tur_report_dict(report: TURReport, model: LindbladModel, observable) -> dict:
    """JSON-ready report with model and observable hashes."""
    return {
        **asdict(report),
        "model_hash": model_hash(model),
        "observable_hash": operator_hash(_observable_matrix(observable, model.dim)),
    }


@dataclass(frozen=True)
class GeometricRepresentation:
    """Force/current operators on the pair-indexed enlarged space.

    For each pair the current block holds J_k = (g_k Lt rho - g_-k rho Lt)/2
    and the force block F_k = s_k Lt + [Lt, ln rho]; both assemble into
    anti-Hermitian operators on C^(2P) x H. The weight is the positive
    block operator Gamma x rho and the structure operator collects the
    normalized jump directions.
    """

    current_operator: np.ndarray
    force_operator: np.ndarray
    weight: np.ndarray
    structure_operator: np.ndarray
    dim: int
    n_pairs: int
    epr_inner: float
    epr_norm: float

    def expand(self, x) -> np.ndarray:
        """I_B otimes X on the enlarged space (2P copies of X)."""
        return np.kron(np.eye(2 * self.n_pairs), as_operator(x))

    def gradient(self, x) -> np.ndarray:
        """[I otimes X, B], the gradient of an observable."""
        return commutator(self.expand(x), self.structure_operator)

    def divergence(self, m: np.ndarray) -> np.ndarray:
        """Adjoint of the gradient: partial trace of [M, B] over pair blocks.

        Maps the current operator back to the dissipator.
        """
        c = commutator(np.asarray(m, dtype=complex), self.structure_operator)
        n, d = 2 * self.n_pairs, self.dim
        return np.einsum("aiaj->ij", c.reshape(n, d, n, d))

    def weighted_apply(self, a: np.ndarray) -> np.ndarray:
        return kubo_integral(self.weight, a)

    def weighted_inner(self, a: np.ndarray, b: np.ndarray) -> complex:
        return hs_inner_product(a, self.weighted_apply(b))

    def weighted_norm_sq(self, a: np.ndarray) -> float:
        return real_part(self.weighted_inner(a, a), "weighted norm")


def geometric_representation(model: LindbladModel, state: QuantumState) -> GeometricRepresentation:
    """Assemble the force/current geometry of the entropy production rate.

    Requires a full-rank state (no implicit flooring) and decomposable
    pairs. The returned object carries sigma both as the force-current
    inner product and as the weighted squared norm of the force.
    """
    rho = state.rho
    p, u, _ = _floored_eigh(rho, None)
    if not model.jump_pairs:
        raise ValueError("model has no jump pairs")
    log_rho = (u * np.log(p)) @ dagger(u)
    d = model.dim
    n = 2 * len(model.jump_pairs)
    # blocks[o, a, :, b] is the d x d block (a, b) of operator o: the current,
    # force, weight and structure operators; pair k owns blocks 2k and 2k + 1
    blocks = np.zeros((4, n, d, n, d), dtype=complex)
    for k, pair in enumerate(model.jump_pairs):
        gamma_f, gamma_b, lt = decompose_pair(pair)
        s = pair.entropy_current
        lt_d = dagger(lt)
        a, b = 2 * k, 2 * k + 1
        blocks[0, b, :, a] = 0.5 * (gamma_f * lt @ rho - gamma_b * rho @ lt)
        blocks[0, a, :, b] = 0.5 * (gamma_b * lt_d @ rho - gamma_f * rho @ lt_d)
        blocks[1, b, :, a] = s * lt + commutator(lt, log_rho)
        blocks[1, a, :, b] = -s * lt_d + commutator(lt_d, log_rho)
        blocks[2, a, :, a] = gamma_f / 2 * rho
        blocks[2, b, :, b] = gamma_b / 2 * rho
        blocks[3, b, :, a] = lt
        blocks[3, a, :, b] = lt_d
    current, force, weight, strc = blocks.reshape(4, n * d, n * d)
    for name, op in (("current", current), ("force", force)):
        norm = max(float(np.linalg.norm(op)), 1e-300)
        if float(np.linalg.norm(op + dagger(op))) > 1e-10 * norm:
            raise ValueError(f"{name} operator is not anti-Hermitian; inputs are inconsistent")
    epr_inner = real_part(hs_inner_product(current, force), "entropy production")
    epr_norm = real_part(hs_inner_product(force, kubo_integral(weight, force)), "entropy production")
    return GeometricRepresentation(
        current_operator=current,
        force_operator=force,
        weight=weight,
        structure_operator=strc,
        dim=d,
        n_pairs=len(model.jump_pairs),
        epr_inner=epr_inner,
        epr_norm=epr_norm,
    )
