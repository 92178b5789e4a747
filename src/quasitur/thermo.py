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

from dataclasses import dataclass

import numpy as np

from .errors import SingularStateError, ZeroFluctuationError
from .lindblad import (
    LindbladModel,
    QuantumState,
    apply_dissipator,
    apply_liouvillian,
    decompose_pair,
    model_hash,
)
from .operators import hs_inner_product, kubo_integral, matrix_log_psd
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


def floored_state(state: QuantumState, eigenvalue_floor: float) -> tuple[QuantumState, bool]:
    """Mix rho with the maximally mixed state when rank deficient.

    Returns ``(state, False)`` unchanged when the smallest eigenvalue is
    already at or above the floor; otherwise returns
    ``((1 - d*eps) rho + eps I, True)`` with ``eps`` the floor.
    """
    rho = state.rho
    d = rho.shape[0]
    min_eig = float(np.linalg.eigvalsh(rho)[0])
    if min_eig >= eigenvalue_floor:
        return state, False
    eps = float(eigenvalue_floor)
    mixed = (1.0 - d * eps) * rho + eps * np.eye(d)
    if float(np.linalg.eigvalsh(mixed)[0]) <= 0.0:
        raise SingularStateError(
            f"state remains non-positive after flooring at {eps:.1e}; increase the floor"
        )
    return QuantumState(mixed), True


def entropy_production_rate(model: LindbladModel, state: QuantumState,
                            eigenvalue_floor: float | None = DEFAULT_EIGENVALUE_FLOOR) -> float:
    """Entropy production rate -tr(L(rho) ln rho) + sum_k s_k tr(L_k^dag L_k rho).

    The first term is the instantaneous d/dt of the von Neumann entropy
    (trace preservation makes the tr(L(rho)) correction vanish); the second
    sums the entropy currents over both members of every pair. Rank-deficient
    states are floored first; pass ``eigenvalue_floor=None`` to disable
    flooring and raise ``SingularStateError`` instead.
    """
    if eigenvalue_floor is None:
        min_eig = float(np.linalg.eigvalsh(state.rho)[0])
        if min_eig <= 0.0:
            raise SingularStateError(
                f"state has eigenvalue {min_eig:.3e}; flooring disabled"
            )
        use = state
    else:
        use, _ = floored_state(state, eigenvalue_floor)
    rho = use.rho
    log_rho = matrix_log_psd(rho)
    ds_dt = -np.trace(apply_liouvillian(model, rho) @ log_rho)
    flow = 0.0
    for op, s in zip(model.jump_operators, model.entropy_currents):
        flow += s * np.trace(dagger(op) @ op @ rho).real
    return float(real_part(ds_dt, "entropy rate") + flow)


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
    so the inequality applies to the instance exactly. The fluctuation is
    computed from the flux sum; the diffusivity from its own operator
    expression, making the reported D_X = m_X / 2 identity a live check.
    """
    obs = _coerce_observable(observable)
    use, applied = floored_state(state, eigenvalue_floor)
    # the floored state is strictly positive, so no further flooring happens
    epr = entropy_production_rate(model, use, eigenvalue_floor=None)
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
        "epr": report.epr,
        "current": report.current,
        "fluctuation": report.fluctuation,
        "bound": report.bound,
        "slack": report.slack,
        "diffusivity": report.diffusivity,
        "diffusivity_bound": report.diffusivity_bound,
        "eigenvalue_floor": report.eigenvalue_floor,
        "floor_applied": report.floor_applied,
        "model_hash": model_hash(model),
        "observable_hash": operator_hash(_observable_matrix(observable, model.dim)),
    }


def _block(top_right: np.ndarray, bottom_left: np.ndarray) -> np.ndarray:
    d = top_right.shape[0]
    out = np.zeros((2 * d, 2 * d), dtype=complex)
    out[:d, d:] = top_right
    out[d:, :d] = bottom_left
    return out


def _block_diag(blocks: list[np.ndarray]) -> np.ndarray:
    total = sum(b.shape[0] for b in blocks)
    out = np.zeros((total, total), dtype=complex)
    at = 0
    for b in blocks:
        n = b.shape[0]
        out[at:at + n, at:at + n] = b
        at += n
    return out


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
        mat = as_operator(x)
        return _block_diag([mat] * (2 * self.n_pairs))

    def gradient(self, x) -> np.ndarray:
        """[I otimes X, B], the gradient of an observable."""
        return commutator(self.expand(x), self.structure_operator)

    def divergence(self, m: np.ndarray) -> np.ndarray:
        """Adjoint of the gradient: partial trace of [M, B] over pair blocks.

        Maps the current operator back to the dissipator.
        """
        c = commutator(np.asarray(m, dtype=complex), self.structure_operator)
        d = self.dim
        out = np.zeros((d, d), dtype=complex)
        for k in range(2 * self.n_pairs):
            out += c[k * d:(k + 1) * d, k * d:(k + 1) * d]
        return out

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
    if float(np.linalg.eigvalsh(rho)[0]) <= 0.0:
        raise SingularStateError("geometric representation requires a full-rank state")
    if not model.jump_pairs:
        raise ValueError("model has no jump pairs")
    log_rho = matrix_log_psd(rho)
    d = model.dim
    cur_blocks, force_blocks, weight_blocks, strc_blocks = [], [], [], []
    for pair in model.jump_pairs:
        gamma_f, gamma_b, lt = decompose_pair(pair)
        s = pair.entropy_current
        lt_d = dagger(lt)
        j_fwd = 0.5 * (gamma_f * lt @ rho - gamma_b * rho @ lt)
        j_bwd = 0.5 * (gamma_b * lt_d @ rho - gamma_f * rho @ lt_d)
        f_fwd = s * lt + commutator(lt, log_rho)
        f_bwd = -s * lt_d + commutator(lt_d, log_rho)
        cur_blocks.append(_block(j_bwd, j_fwd))
        force_blocks.append(_block(f_bwd, f_fwd))
        weight_blocks.append(_block_diag([gamma_f / 2 * rho, gamma_b / 2 * rho]))
        strc_blocks.append(_block(lt_d, lt))
    current = _block_diag(cur_blocks)
    force = _block_diag(force_blocks)
    weight = _block_diag(weight_blocks)
    strc = _block_diag(strc_blocks)
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
