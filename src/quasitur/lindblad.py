"""Markovian open-system models with paired jump operators.

A model is a Hamiltonian plus jump pairs (L_k, L_-k, s_k) postulated to obey
local detailed balance L_k = exp(s_k/2) L_-k^dag, with s_k the entropy
current per jump (k_B = 1). The module applies the generator

    L(rho) = -i[H, rho] + D(rho),
    D(rho) = sum_k L_k rho L_k^dag - {L_k^dag L_k, rho} / 2,

its adjoint, and the corresponding finite-time propagators. Propagators
never form the d^2 x d^2 generator: ``scipy.sparse.linalg.expm_multiply``
(Al-Mohy & Higham, SIAM J. Sci. Comput. 33(2), 2011) applies its
exponential to a whole stack of operators at once, through batched d x d
matrix products.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.sparse.linalg import LinearOperator, expm_multiply

from .errors import (
    DegeneratePairError,
    DimMismatchError,
    NonConvergenceError,
    NotHermitianError,
)
from .operators import hermiticity_error
from .util import (
    anticommutator,
    as_operator,
    commutator,
    dagger,
    matrix_from_json,
    matrix_to_json,
    operator_hash,
)

#: tolerances of the opt-in ``method="ivp"`` Runge-Kutta cross-check
IVP_RTOL = 1e-10
IVP_ATOL = 1e-12


@dataclass(frozen=True)
class JumpPair:
    """Forward/backward jump operators with their entropy current.

    The backward member implicitly carries entropy current ``-entropy_current``.
    Local detailed balance is validated by
    :func:`validate_local_detailed_balance`, not assumed at construction.
    """

    forward: np.ndarray
    backward: np.ndarray
    entropy_current: float

    def __post_init__(self):
        object.__setattr__(self, "forward", as_operator(self.forward))
        object.__setattr__(self, "backward", as_operator(self.backward))
        object.__setattr__(self, "entropy_current", float(self.entropy_current))
        if self.forward.shape != self.backward.shape:
            raise DimMismatchError("forward and backward operators differ in shape")

    @property
    def dim(self) -> int:
        return self.forward.shape[0]

    def operators(self) -> list[np.ndarray]:
        """Both members, forward first."""
        return [self.forward, self.backward]

    def currents(self) -> list[float]:
        return [self.entropy_current, -self.entropy_current]

    def detailed_balance_residual(self) -> float:
        """|| L_k - exp(s_k/2) L_-k^dag ||."""
        return float(
            np.linalg.norm(self.forward - np.exp(self.entropy_current / 2) * dagger(self.backward))
        )


@dataclass(frozen=True)
class LindbladModel:
    """Hamiltonian plus jump pairs defining the generator."""

    hamiltonian: np.ndarray
    jump_pairs: tuple[JumpPair, ...]

    def __post_init__(self):
        ham = as_operator(self.hamiltonian)
        if hermiticity_error(ham) > 1e-10 * max(float(np.linalg.norm(ham)), 1e-300):
            raise NotHermitianError("hamiltonian is not Hermitian to 1e-10")
        object.__setattr__(self, "hamiltonian", ham)
        object.__setattr__(self, "jump_pairs", tuple(self.jump_pairs))
        for pair in self.jump_pairs:
            if pair.dim != ham.shape[0]:
                raise DimMismatchError("jump pair dimension differs from hamiltonian")

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]

    @property
    def jump_operators(self) -> list[np.ndarray]:
        """All jump operators, pairwise ordered (forward, backward, ...)."""
        ops: list[np.ndarray] = []
        for pair in self.jump_pairs:
            ops.extend(pair.operators())
        return ops

    @property
    def entropy_currents(self) -> list[float]:
        vals: list[float] = []
        for pair in self.jump_pairs:
            vals.extend(pair.currents())
        return vals


class QuantumState:
    """Density matrix with Hermiticity, positivity and trace invariants."""

    __slots__ = ("rho",)

    def __init__(self, rho, *, hermitian_tol=1e-10, psd_tol=1e-10, trace_tol=1e-10):
        mat = as_operator(rho)
        norm = max(float(np.linalg.norm(mat)), 1e-300)
        if hermiticity_error(mat) > hermitian_tol * norm:
            raise NotHermitianError("density matrix is not Hermitian within tolerance")
        mat = (mat + dagger(mat)) / 2
        eigs = np.linalg.eigvalsh(mat)
        if eigs[0] < -psd_tol:
            raise ValueError(f"density matrix has eigenvalue {eigs[0]:.3e} < -{psd_tol:.1e}")
        trace = float(np.trace(mat).real)
        if abs(trace - 1.0) > trace_tol:
            raise ValueError(f"density matrix trace {trace!r} differs from 1")
        self.rho = mat

    @property
    def dim(self) -> int:
        return self.rho.shape[0]

    @classmethod
    def pure(cls, vector) -> "QuantumState":
        v = np.asarray(vector, dtype=complex).reshape(-1)
        v = v / np.linalg.norm(v)
        return cls(np.outer(v, v.conj()))

    def __repr__(self):
        return f"QuantumState(dim={self.dim})"


def _state_matrix(state) -> np.ndarray:
    return state.rho if isinstance(state, QuantumState) else as_operator(state)


@dataclass(frozen=True)
class DetailedBalanceReport:
    residuals: tuple[float, ...]
    tolerance: float

    @property
    def passed(self) -> bool:
        return all(r <= self.tolerance for r in self.residuals)

    @property
    def max_residual(self) -> float:
        return max(self.residuals) if self.residuals else 0.0


def validate_local_detailed_balance(model: LindbladModel, tol: float = 1e-8) -> DetailedBalanceReport:
    """Report || L_k - exp(s_k/2) L_-k^dag || per pair; passes iff all <= tol."""
    residuals = tuple(pair.detailed_balance_residual() for pair in model.jump_pairs)
    return DetailedBalanceReport(residuals=residuals, tolerance=float(tol))


def decompose_pair(pair: JumpPair) -> tuple[float, float, np.ndarray]:
    """Split a pair as L_k = sqrt(g_k) Lt, L_-k = sqrt(g_-k) Lt^dag.

    The split is fixed by normalizing ||Lt||_HS = 1, so g_k = ||L_k||_HS^2.
    Requires the pair to satisfy local detailed balance (residual <= 1e-8
    relative), which guarantees g_k / g_-k = exp(s_k).
    """
    norm_f = float(np.linalg.norm(pair.forward))
    norm_b = float(np.linalg.norm(pair.backward))
    if norm_f == 0.0 or norm_b == 0.0:
        raise DegeneratePairError("jump pair contains a zero operator")
    if pair.detailed_balance_residual() > 1e-8 * max(norm_f, 1.0):
        raise ValueError("pair violates local detailed balance; cannot decompose")
    gamma_f = norm_f**2
    gamma_b = norm_b**2
    ltilde = pair.forward / norm_f
    return gamma_f, gamma_b, ltilde


def apply_dissipator(model: LindbladModel, state) -> np.ndarray:
    """D(rho) summed over both members of every pair."""
    rho = _state_matrix(state)
    if rho.shape[0] != model.dim:
        raise DimMismatchError("state dimension differs from model")
    out = np.zeros_like(rho)
    for op in model.jump_operators:
        ldl = dagger(op) @ op
        out += op @ rho @ dagger(op) - 0.5 * anticommutator(ldl, rho)
    return out


def apply_adjoint_dissipator(model: LindbladModel, a) -> np.ndarray:
    """Heisenberg-picture dissipator D^dag(A)."""
    mat = as_operator(a)
    if mat.shape[0] != model.dim:
        raise DimMismatchError("operator dimension differs from model")
    out = np.zeros_like(mat)
    for op in model.jump_operators:
        ldl = dagger(op) @ op
        out += dagger(op) @ mat @ op - 0.5 * anticommutator(ldl, mat)
    return out


def apply_liouvillian(model: LindbladModel, state) -> np.ndarray:
    """L(rho) = -i[H, rho] + D(rho)."""
    rho = _state_matrix(state)
    return -1j * commutator(model.hamiltonian, rho) + apply_dissipator(model, rho)


def apply_adjoint_liouvillian(model: LindbladModel, a) -> np.ndarray:
    """L^dag(A) = +i[H, A] + D^dag(A)."""
    mat = as_operator(a)
    return 1j * commutator(model.hamiltonian, mat) + apply_adjoint_dissipator(model, mat)


class _Generator(LinearOperator):
    """A Lindblad generator acting on row-major vectorized d x d operators.

    A block of B operators is a (d*d, B) array whose columns are the
    flattened operators. ``matmat`` applies

        A -> G A + A G^dag + sum_k outer_k A inner_k

    to all of them with batched matrix products. The adjoint swaps the
    roles (G -> G^dag, outer <-> inner), which ``onenormest`` inside
    ``expm_multiply`` needs. ``trace`` is the exact trace of the d^2 x d^2
    matrix, so ``expm_multiply`` does not estimate it.
    """

    def __init__(self, g: np.ndarray, outer: np.ndarray, inner: np.ndarray, trace: float):
        d = g.shape[0]
        super().__init__(complex, (d * d, d * d))
        self.g = g
        self.g_dag = g.conj().T
        self.outer = outer
        self.inner = inner
        self.trace = trace

    def _matmat(self, x):
        d = self.g.shape[0]
        ops = x.T.reshape(-1, d, d)
        out = self.g @ ops + ops @ self.g_dag
        for a, b in zip(self.outer, self.inner):
            out += a @ ops @ b
        return out.reshape(len(ops), d * d).T

    def _adjoint(self):
        return _Generator(self.g_dag, self.inner, self.outer, self.trace)


def _generator(model: LindbladModel, t: float, heisenberg: bool) -> _Generator:
    """t L^dag (Heisenberg picture) or t L (Schrodinger picture).

    With G = i t H - K / 2 and K = t sum_k L_k^dag L_k, the adjoint generator
    is A -> G A + A G^dag + t sum_k L_k^dag A L_k; the forward generator is
    its Hilbert-Schmidt adjoint. The trace of either d^2 x d^2 matrix is
    t sum_k |tr L_k|^2 - d tr K.
    """
    d = model.dim
    jumps = np.array(model.jump_operators, dtype=complex).reshape(-1, d, d) * np.sqrt(t)
    jumps_dag = jumps.conj().swapaxes(-1, -2)
    k = np.sum(jumps_dag @ jumps, axis=0)
    g = 1j * t * model.hamiltonian - 0.5 * k
    trace = float(np.sum(np.abs(np.trace(jumps, axis1=1, axis2=2)) ** 2) - d * np.trace(k).real)
    gen = _Generator(g, jumps_dag, jumps, trace)
    return gen if heisenberg else gen.H


@contextmanager
def _pinned_legacy_rng():
    """Seed numpy's legacy global generator for the duration, then restore it.

    ``onenormest`` inside ``expm_multiply`` draws its probe vectors from
    that generator. Pinning it makes every propagation reproducible to the
    last bit and leaves the caller's random stream untouched.
    """
    saved = np.random.get_state()
    np.random.seed(0)
    try:
        yield
    finally:
        np.random.set_state(saved)


def _as_stack(a, d: int) -> tuple[np.ndarray, bool]:
    """A (d, d) operator or a (B, d, d) stack as a complex stack, plus
    whether a single operator was given."""
    stack = np.ascontiguousarray(a, dtype=complex)
    single = stack.ndim == 2
    if single:
        stack = stack[None]
    if stack.ndim != 3 or stack.shape[1:] != (d, d):
        raise DimMismatchError(f"expected ({d}, {d}) operators, got shape {np.shape(a)}")
    if not np.all(np.isfinite(stack)):
        raise ValueError("operator contains non-finite entries")
    return stack, single


def _propagator(model: LindbladModel, t: float, heisenberg: bool, method: str):
    """Callable applying exp(L^dag t) or exp(L t) to an operator or a stack."""
    d = model.dim
    if method in ("auto", "expm"):
        gen = _generator(model, t, heisenberg)

        def evolve(stack):
            with _pinned_legacy_rng():
                out = expm_multiply(gen, stack.reshape(len(stack), d * d).T, traceA=gen.trace)
            return out.T.reshape(stack.shape)
    elif method == "ivp":
        generator = apply_adjoint_liouvillian if heisenberg else apply_liouvillian

        def rhs(_t, y):
            return generator(model, y.reshape(d, d)).reshape(-1)

        def evolve(stack):
            return np.array([_integrate(rhs, a.reshape(-1), t).reshape(d, d) for a in stack])
    else:
        raise ValueError(f"unknown propagation method {method!r}")

    def apply(a):
        stack, single = _as_stack(a, d)
        out = evolve(stack) if t > 0.0 and len(stack) else stack.copy()
        return out[0] if single else out

    return apply


def _integrate(rhs, y0: np.ndarray, t: float) -> np.ndarray:
    sol = solve_ivp(rhs, (0.0, t), y0, method="RK45", rtol=IVP_RTOL, atol=IVP_ATOL)
    if not sol.success:
        raise NonConvergenceError(f"integrator failed: {sol.message}")
    return sol.y[:, -1]


def propagate(model: LindbladModel, state: QuantumState, t: float, method: str = "auto") -> QuantumState:
    """Evolve a state to exp(L t) rho_0.

    ``method`` ``"auto"`` and ``"expm"`` both take the matrix-free
    ``expm_multiply`` route; ``"ivp"`` integrates the master equation with
    adaptive Runge-Kutta instead, as an independent cross-check. The result
    is re-symmetrized and trace-renormalized to suppress drift.
    """
    if t < 0:
        raise ValueError("propagation time must be non-negative")
    if t == 0.0:
        return state
    rho = _propagator(model, float(t), heisenberg=False, method=method)(state.rho)
    rho = (rho + dagger(rho)) / 2
    rho = rho / float(np.trace(rho).real)
    return QuantumState(rho, hermitian_tol=1e-9, psd_tol=1e-8, trace_tol=1e-9)


def heisenberg_propagate(model: LindbladModel, x, dt: float, method: str = "auto") -> np.ndarray:
    """Evolve an observable to exp(L^dag dt) X."""
    return heisenberg_propagator(model, dt, method)(x)


def heisenberg_propagator(model: LindbladModel, dt: float, method: str = "auto"):
    """Callable applying exp(L^dag dt) to one (d, d) operator or a (B, d, d) stack.

    The generator pieces are built once; each call propagates its whole
    stack in one ``expm_multiply``, so the cost grows with
    B x d^3 x the number of Taylor steps, which grows with ||L||_1 dt.
    ``method`` is as for :func:`propagate`.
    """
    if dt < 0:
        raise ValueError("propagation time must be non-negative")
    return _propagator(model, float(dt), heisenberg=True, method=method)


# --- model and state files -------------------------------------------------
#
# Complex entries are encoded as [re, im] pairs:
# { "dim": d, "hamiltonian": [[[re, im], ...], ...],
#   "jump_pairs": [ { "forward": matrix, "backward": matrix,
#                     "entropy_current": s }, ... ] }


def model_to_dict(model: LindbladModel) -> dict:
    return {
        "dim": model.dim,
        "hamiltonian": matrix_to_json(model.hamiltonian),
        "jump_pairs": [
            {
                "forward": matrix_to_json(pair.forward),
                "backward": matrix_to_json(pair.backward),
                "entropy_current": pair.entropy_current,
            }
            for pair in model.jump_pairs
        ],
    }


def model_from_dict(data: dict) -> LindbladModel:
    ham = matrix_from_json(data["hamiltonian"])
    dim = int(data["dim"])
    if ham.shape != (dim, dim):
        raise DimMismatchError("hamiltonian shape differs from declared dim")
    pairs = tuple(
        JumpPair(
            forward=matrix_from_json(p["forward"]),
            backward=matrix_from_json(p["backward"]),
            entropy_current=float(p["entropy_current"]),
        )
        for p in data.get("jump_pairs", [])
    )
    return LindbladModel(hamiltonian=ham, jump_pairs=pairs)


def save_model(model: LindbladModel, path) -> None:
    with open(path, "w") as fh:
        json.dump(model_to_dict(model), fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_model(path) -> LindbladModel:
    with open(path) as fh:
        return model_from_dict(json.load(fh))


def state_to_dict(state: QuantumState) -> dict:
    return {"rho": matrix_to_json(state.rho)}


def state_from_dict(data: dict, **tolerances) -> QuantumState:
    return QuantumState(matrix_from_json(data["rho"]), **tolerances)


def save_state(state: QuantumState, path) -> None:
    with open(path, "w") as fh:
        json.dump(state_to_dict(state), fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_state(path, **tolerances) -> QuantumState:
    with open(path) as fh:
        return state_from_dict(json.load(fh), **tolerances)


def model_hash(model: LindbladModel) -> str:
    """Digest over the Hamiltonian and all pair data."""
    parts = [operator_hash(model.hamiltonian)]
    for pair in model.jump_pairs:
        parts.append(operator_hash(pair.forward))
        parts.append(operator_hash(pair.backward))
        parts.append(repr(pair.entropy_current))
    return hashlib.sha256("|".join(parts).encode()).hexdigest()[:16]
