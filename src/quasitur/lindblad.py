"""Markovian open-system models with paired jump operators.

A model is a Hamiltonian plus jump pairs (L_k, L_-k, s_k) postulated to obey
local detailed balance L_k = exp(s_k/2) L_-k^dag, with s_k the entropy
current per jump (k_B = 1). The module applies the generator

    L(rho) = -i[H, rho] + D(rho),
    D(rho) = sum_k L_k rho L_k^dag - {L_k^dag L_k, rho} / 2,

its adjoint, and the corresponding finite-time propagators. The four
``apply_*`` functions take a state, one operator or a (B, d, d) stack.
Propagators never form the d^2 x d^2 generator:
``scipy.sparse.linalg.expm_multiply`` (Al-Mohy & Higham, SIAM J. Sci.
Comput. 33(2), 2011) applies its exponential to a whole stack of operators
at once, through batched d x d matrix products.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.sparse.linalg import LinearOperator, expm_multiply

from .errors import DegeneratePairError, DimMismatchError, NonConvergenceError
from .operators import require_hermitian
from .util import (
    as_operator,
    dagger,
    matrix_from_json,
    matrix_to_json,
    operator_hash,
    read_json,
    write_json,
)

#: tolerances of the opt-in ``method="ivp"`` Runge-Kutta cross-check
IVP_RTOL = 1e-10
IVP_ATOL = 1e-12
#: below this bound on ||t L||_1, ||exp(t L) X - X|| < 1e-292 ||X||: the
#: propagator returns X, and expm_multiply never sees subnormal entries
NEGLIGIBLE_GENERATOR_NORM = np.finfo(float).tiny / np.finfo(float).eps


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
        ham = require_hermitian(self.hamiltonian)
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
        mat = require_hermitian(rho, hermitian_tol)
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


def _sandwich(a: np.ndarray, g: np.ndarray, g_dag: np.ndarray, outer, inner) -> np.ndarray:
    """A -> G A + A G^dag + sum_k outer_k A inner_k on one operator or a stack.

    The one place the generator is written out. L^dag has G = iH - K/2
    (K = sum_k L_k^dag L_k), outer_k = L_k^dag and inner_k = L_k; L swaps
    G <-> G^dag and outer <-> inner. ``outer`` and ``inner`` may be lazy.
    """
    out = g @ a + a @ g_dag
    for left, right in zip(outer, inner):
        out += left @ a @ right
    return out


def _apply_generator(model: LindbladModel, a, hamiltonian: bool, heisenberg: bool) -> np.ndarray:
    """L^dag(A) or L(rho), the Hamiltonian part only if ``hamiltonian``, on a
    state, an operator or a (B, d, d) stack. Jumps are visited one at a time
    and their adjoints built on the fly."""
    mat = _operands(a, model.dim)
    jumps = model.jump_operators
    g = 1j * model.hamiltonian if hamiltonian else np.zeros((model.dim, model.dim), dtype=complex)
    for op in jumps:
        g -= 0.5 * (dagger(op) @ op)
    adjoints = map(dagger, jumps)
    if heisenberg:
        return _sandwich(mat, g, dagger(g), adjoints, jumps)
    return _sandwich(mat, dagger(g), g, jumps, adjoints)


def apply_dissipator(model: LindbladModel, state) -> np.ndarray:
    """D(rho) summed over both members of every pair."""
    return _apply_generator(model, state, hamiltonian=False, heisenberg=False)


def apply_adjoint_dissipator(model: LindbladModel, a) -> np.ndarray:
    """Heisenberg-picture dissipator D^dag(A)."""
    return _apply_generator(model, a, hamiltonian=False, heisenberg=True)


def apply_liouvillian(model: LindbladModel, state) -> np.ndarray:
    """L(rho) = -i[H, rho] + D(rho)."""
    return _apply_generator(model, state, hamiltonian=True, heisenberg=False)


def apply_adjoint_liouvillian(model: LindbladModel, a) -> np.ndarray:
    """L^dag(A) = +i[H, A] + D^dag(A)."""
    return _apply_generator(model, a, hamiltonian=True, heisenberg=True)


def resolved_fluxes(model: LindbladModel, state, basis: np.ndarray) -> np.ndarray:
    """resolved[b, a] = Re <v_a| L^dag(|v_b><v_b|) rho |v_a>, the flux
    tr({L^dag P_b, P_a} rho) / 2 between the rank-one projectors of the
    orthonormal, complete columns v of ``basis``.

    Closed form in that basis, with R = V^dag rho V, G' = V^dag G V and
    L'_k = V^dag L_k V (G as in :func:`_sandwich`), o the entrywise product:

        Re[G'^T o R + diag(sum_c conj(G'_ca) R_ca) + sum_k conj(L'_k) o (L'_k R)].

    O(d^3) per jump, with no loop over basis columns.
    """
    v = np.asarray(basis, dtype=complex)
    v_dag = dagger(v)
    r = v_dag @ _operands(state, model.dim) @ v
    g = 1j * (v_dag @ model.hamiltonian @ v)
    out = np.zeros_like(r)
    for op in model.jump_operators:
        jump = v_dag @ op @ v
        g -= 0.5 * (dagger(jump) @ jump)
        out += jump.conj() * (jump @ r)
    out += g.T * r
    out[np.diag_indices_from(out)] += np.sum(g.conj() * r, axis=0)
    return np.ascontiguousarray(out.real)


class _Generator(LinearOperator):
    """A Lindblad generator acting on row-major vectorized d x d operators.

    A block of B operators is a (d*d, B) array whose columns are the
    flattened operators; ``matmat`` applies :func:`_sandwich` to all of
    them with batched matrix products. The adjoint swaps the roles
    (G -> G^dag, outer <-> inner), which ``onenormest`` inside
    ``expm_multiply`` needs. ``trace`` is the exact trace of the
    d^2 x d^2 matrix, so ``expm_multiply`` does not estimate it;
    ``norm_bound`` bounds its 1-norm and that of its adjoint.
    """

    def __init__(self, g: np.ndarray, outer: np.ndarray, inner: np.ndarray, trace: float,
                 norm_bound: float):
        d = g.shape[0]
        super().__init__(complex, (d * d, d * d))
        self.g = g
        self.g_dag = g.conj().T
        self.outer = outer
        self.inner = inner
        self.trace = trace
        self.norm_bound = norm_bound

    def _matmat(self, x):
        d = self.g.shape[0]
        ops = x.T.reshape(-1, d, d)
        out = _sandwich(ops, self.g, self.g_dag, self.outer, self.inner)
        return out.reshape(len(ops), d * d).T

    def _adjoint(self):
        return _Generator(self.g_dag, self.inner, self.outer, self.trace, self.norm_bound)


def _generator(model: LindbladModel, t: float, heisenberg: bool) -> _Generator:
    """t L^dag (Heisenberg picture) or t L (Schrodinger picture).

    With G = i t H - K / 2 and K = t sum_k L_k^dag L_k, the adjoint generator
    is A -> G A + A G^dag + t sum_k L_k^dag A L_k; the forward generator is
    its Hilbert-Schmidt adjoint. The trace of either d^2 x d^2 matrix is
    t sum_k |tr L_k|^2 - d tr K. Since vec(A X B) = (A kron B^T) vec(X) and
    ||A kron B||_1 = ||A||_1 ||B||_1, the 1-norm of either is at most
    2 n(G) + t sum_k n(L_k)^2, with n the larger of the 1- and inf-norms.
    """
    d = model.dim
    jumps = np.array(model.jump_operators, dtype=complex).reshape(-1, d, d) * np.sqrt(t)
    jumps_dag = jumps.conj().swapaxes(-1, -2)
    k = np.sum(jumps_dag @ jumps, axis=0)
    g = 1j * t * model.hamiltonian - 0.5 * k
    trace = float(np.sum(np.abs(np.trace(jumps, axis1=1, axis2=2)) ** 2) - d * np.trace(k).real)
    mags = np.abs(np.concatenate([g[None], jumps]))
    norms = np.maximum(mags.sum(axis=1).max(axis=1), mags.sum(axis=2).max(axis=1))
    gen = _Generator(g, jumps_dag, jumps, trace, float(2 * norms[0] + np.sum(norms[1:] ** 2)))
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


def _operands(a, d: int) -> np.ndarray:
    """The rho of a state, a (d, d) operator or a (B, d, d) stack as a
    complex array, checked for shape and finite entries."""
    ops = np.ascontiguousarray(a.rho if isinstance(a, QuantumState) else a, dtype=complex)
    if ops.ndim not in (2, 3) or ops.shape[-2:] != (d, d):
        raise DimMismatchError(f"expected ({d}, {d}) operators, got shape {np.shape(a)}")
    if not np.all(np.isfinite(ops)):
        raise ValueError("operator contains non-finite entries")
    return ops


def _propagator(model: LindbladModel, t: float, heisenberg: bool, method: str):
    """Callable applying exp(L^dag t) or exp(L t) to an operator or a stack."""
    d = model.dim
    gen = _generator(model, t, heisenberg)
    if method in ("auto", "expm"):

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
        ops = _operands(a, d)
        stack = ops.reshape(-1, d, d)
        negligible = gen.norm_bound < NEGLIGIBLE_GENERATOR_NORM
        out = stack.copy() if negligible or not len(stack) else evolve(stack)
        return out.reshape(ops.shape)

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
    write_json(path, model_to_dict(model))


def load_model(path) -> LindbladModel:
    return model_from_dict(read_json(path))


def state_to_dict(state: QuantumState) -> dict:
    return {"rho": matrix_to_json(state.rho)}


def state_from_dict(data: dict) -> QuantumState:
    return QuantumState(matrix_from_json(data["rho"]))


def save_state(state: QuantumState, path) -> None:
    write_json(path, state_to_dict(state))


def load_state(path) -> QuantumState:
    return state_from_dict(read_json(path))


def model_hash(model: LindbladModel) -> str:
    """Digest over the Hamiltonian and all pair data."""
    parts = [operator_hash(model.hamiltonian)]
    for pair in model.jump_pairs:
        parts.append(operator_hash(pair.forward))
        parts.append(operator_hash(pair.backward))
        parts.append(repr(pair.entropy_current))
    return hashlib.sha256("|".join(parts).encode()).hexdigest()[:16]
