"""Markovian open-system models with paired jump operators.

A model is a Hamiltonian plus jump pairs (L_k, L_-k, s_k) postulated to obey
local detailed balance L_k = exp(s_k/2) L_-k^dag, with s_k the entropy
current per jump (k_B = 1). The module applies the generator

    L(rho) = -i[H, rho] + D(rho),
    D(rho) = sum_k L_k rho L_k^dag - {L_k^dag L_k, rho} / 2,

its adjoint, and the corresponding finite-time propagators. The four
``apply_*`` functions take a state, one operator or a (B, d, d) stack.
Propagators apply exp(tL) to a whole stack at once, in the first of three
exact ways that applies:

- dense: ``scipy.linalg.expm`` of the d^2 x d^2 generator, formed column by
  column through the generator kernel, when :func:`_dense_is_cheaper` finds
  it cheaper than acting on the stack (small or stiff generators; never for
  d^2 > ``DENSE_MAX_SIZE``);
- one Taylor segment of tL - mu I through batched d x d matrix products,
  when a bound on its 1-norm is at most ``TAYLOR_SEGMENT_NORM`` (short lags);
- ``scipy.sparse.linalg.expm_multiply`` otherwise, which estimates norms of
  powers of tL to split the lag into as many segments as it needs.

The last two follow Al-Mohy & Higham (SIAM J. Sci. Comput. 33(2), 2011).
README "Cost of propagation" gives the cost of each route.
"""

from __future__ import annotations

import functools
import hashlib
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.integrate import solve_ivp
from scipy.sparse.linalg import LinearOperator, expm_multiply

from .errors import DegeneratePairError, DimMismatchError, NonConvergenceError, TracePreservationError
from .operators import require_hermitian
from .util import (DENSITY_TOL, DETAILED_BALANCE_TOL, PROPAGATED_PSD_TOL, as_operator, dagger,
                   exact_dtype, lag, matrix_from_json, matrix_to_json, operator_hash, read_json,
                   write_json)

#: tolerances of the opt-in ``method="ivp"`` Runge-Kutta cross-check
IVP_RTOL = 1e-10
IVP_ATOL = 1e-12
#: below this bound on ||t L||_1, ||exp(t L) X - X|| < 1e-292 ||X||: the
#: propagator returns X, and expm_multiply never sees subnormal entries
NEGLIGIBLE_GENERATOR_NORM = np.finfo(float).tiny / np.finfo(float).eps
#: largest d^2 whose d^2 x d^2 generator the dense route exponentiates
#: (16 MiB per complex work array at the cap); larger d always take the
#: action route
DENSE_MAX_SIZE = 1024
#: theta_55 of Al-Mohy & Higham (2011, table 3.1): when ||tL - mu I||_1 is at
#: most this, one Taylor segment of at most ``TAYLOR_MAX_TERMS`` terms of
#: tL - mu I (mu = tr(tL) / d^2) reaches double-precision unit roundoff
TAYLOR_SEGMENT_NORM = 9.9
TAYLOR_MAX_TERMS = 55
#: constants of the route cost estimate in :func:`_dense_is_cheaper`, fitted
#: to best-of-k timings of both routes at d = 2..32, ||tL||_1 = 1..1e4 and
#: B in {1, 9, d} on a 2-core Xeon
DENSE_SQUARING_OFFSET = 8.0
ACTION_STEP_WEIGHT = 120.0
ACTION_OVERHEAD = 4e6


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
    """Density matrix with Hermiticity, positivity and trace invariants.

    ``eigenvalues`` (ascending) and ``eigenvectors`` are the spectrum of
    ``rho`` from the one ``eigh`` that checks its positivity; whatever needs
    ln rho or the eigenbasis of rho reads them instead of decomposing again.
    """

    __slots__ = ("rho", "eigenvalues", "eigenvectors")

    def __init__(self, rho, *, psd_tol=DENSITY_TOL):
        mat = require_hermitian(rho)
        mat = (mat + dagger(mat)) / 2
        self._assign(mat, *np.linalg.eigh(mat), psd_tol)

    @classmethod
    def _from_spectrum(cls, rho, eigenvalues, eigenvectors) -> "QuantumState":
        """The state with exactly Hermitian ``rho`` = U diag(p) U^dag, checked
        as the constructor checks it, without decomposing rho."""
        state = cls.__new__(cls)
        state._assign(rho, eigenvalues, eigenvectors, DENSITY_TOL)
        return state

    def _assign(self, rho, eigenvalues, eigenvectors, psd_tol):
        if eigenvalues[0] < -psd_tol:
            raise ValueError(f"density matrix has eigenvalue {eigenvalues[0]:.3e} < -{psd_tol:.1e}")
        trace = float(np.trace(rho).real)
        if abs(trace - 1.0) > DENSITY_TOL:
            raise ValueError(f"density matrix trace {trace!r} differs from 1")
        self.rho, self.eigenvalues, self.eigenvectors = rho, eigenvalues, eigenvectors

    @property
    def dim(self) -> int:
        return self.rho.shape[0]

    @classmethod
    def pure(cls, vector) -> "QuantumState":
        v = np.asarray(vector, dtype=complex).reshape(-1)
        if not v.any():
            raise ValueError("pure state vector is zero; it has no direction to normalise")
        v = v / np.linalg.norm(v)
        return cls(np.outer(v, v.conj()))

    def __repr__(self):
        return f"QuantumState(dim={self.dim})"


def _check_dim(state: QuantumState, d: int) -> None:
    """Raise ``DimMismatchError`` unless ``state`` has dimension ``d``."""
    if state.dim != d:
        raise DimMismatchError(f"state of dimension {state.dim} for dimension {d}")


@dataclass(frozen=True)
class DetailedBalanceReport:
    residuals: tuple[float, ...]

    @property
    def passed(self) -> bool:
        return all(r <= DETAILED_BALANCE_TOL for r in self.residuals)

    @property
    def max_residual(self) -> float:
        return max(self.residuals) if self.residuals else 0.0


def validate_local_detailed_balance(model: LindbladModel) -> DetailedBalanceReport:
    """|| L_k - exp(s_k/2) L_-k^dag || per pair; passes iff all <= ``DETAILED_BALANCE_TOL``."""
    residuals = tuple(pair.detailed_balance_residual() for pair in model.jump_pairs)
    return DetailedBalanceReport(residuals)


def decompose_pair(pair: JumpPair) -> tuple[float, float, np.ndarray]:
    """Split a pair as L_k = sqrt(g_k) Lt, L_-k = sqrt(g_-k) Lt^dag.

    The split is fixed by normalizing ||Lt||_HS = 1, so g_k = ||L_k||_HS^2.
    Requires the pair to satisfy local detailed balance (residual at most
    ``DETAILED_BALANCE_TOL`` relative), which guarantees g_k / g_-k = exp(s_k).
    """
    norm_f = float(np.linalg.norm(pair.forward))
    norm_b = float(np.linalg.norm(pair.backward))
    if norm_f == 0.0 or norm_b == 0.0:
        raise DegeneratePairError("jump pair contains a zero operator")
    if pair.detailed_balance_residual() > DETAILED_BALANCE_TOL * max(norm_f, 1.0):
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


def resolved_fluxes(model: LindbladModel, state: QuantumState, basis: np.ndarray) -> np.ndarray:
    """resolved[b, a] = Re <v_a| L^dag(|v_b><v_b|) rho |v_a>, the flux
    tr({L^dag P_b, P_a} rho) / 2 between the rank-one projectors of the
    orthonormal, complete columns v of ``basis``.

    Closed form in that basis, with R = V^dag rho V, G' = V^dag G V and
    L'_k = V^dag L_k V (G as in :func:`_sandwich`), o the entrywise product:

        Re[G'^T o R] + diag(row sums of Re[G'^T o R]) + sum_k Re[conj(L'_k) o (L'_k R)],

    the row sums from R = R^dag. O(d^3) per jump, no loop over columns. With
    G' = iH' - K'/2 taken apart, Re[G'^T o R] = -Im(H'^T o R) - Re(K'^T o R) / 2,
    so real inputs give real products.
    """
    _check_dim(state, model.dim)
    v = exact_dtype(basis)
    v_dag = dagger(v)
    r = v_dag @ state.rho @ v
    out, k = np.zeros(r.shape), np.zeros_like(r)
    for op in model.jump_operators:
        jump = v_dag @ op @ v
        k = k + dagger(jump) @ jump
        out += (jump.conj() * (jump @ r)).real
    loss = ((v_dag @ model.hamiltonian @ v).T * r).imag + 0.5 * (k.T * r).real  # -Re[G'^T o R]
    out -= loss
    out[np.diag_indices_from(out)] -= loss.sum(axis=1)
    return out


class _Generator(LinearOperator):
    """A Lindblad generator acting on row-major vectorized d x d operators.

    A block of B operators is a (d*d, B) array whose columns are the
    flattened operators; ``matmat`` applies :func:`_sandwich` to all of
    them with batched matrix products, and the adjoint swaps G -> G^dag and
    outer <-> inner. ``trace`` is the exact trace of the d^2 x d^2 matrix
    and ``norm_bound`` bounds its 1-norm and that of its adjoint; both
    pick the route of the module docstring.
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
        raise DimMismatchError(f"expected ({d}, {d}) operators, got shape {ops.shape}")
    if not np.all(np.isfinite(ops)):
        raise ValueError("operator contains non-finite entries")
    return ops


def _dense_is_cheaper(d: int, norm_bound: float, batch: int) -> bool:
    """Whether exp(tL) is cheaper formed densely than applied by action.

    Scaling and squaring of the d^2 x d^2 matrix costs about
    d^6 (log2 ||tL||_1 + c) (Higham, SIAM J. Matrix Anal. Appl. 26(4), 2005);
    the action route costs about B d^3 ||tL||_1 in Taylor steps on a block
    of B operators, plus a fixed overhead of norm estimates and Python calls.
    ``norm_bound`` stands in for ||tL||_1.
    """
    if d * d > DENSE_MAX_SIZE:
        return False
    norm = max(norm_bound, 1.0)
    dense = d**6 * (np.log2(norm) + DENSE_SQUARING_OFFSET)
    return dense < ACTION_STEP_WEIGHT * batch * d**3 * norm + ACTION_OVERHEAD


def _taylor_segment(gen: _Generator, stack: np.ndarray, mu: float) -> np.ndarray:
    """exp(tL) on a (B, d, d) stack as e^mu times one truncated Taylor series
    of tL - mu I.

    This is the core loop of ``expm_multiply`` (Al-Mohy & Higham, 2011,
    algorithm 3.2) with one segment (s = 1) and at most
    ``TAYLOR_MAX_TERMS`` terms, in scipy's order of operations: the series
    stops once two successive terms are below unit roundoff relative to the
    sum, in the inf-norm of the (d^2, B) block.
    """
    def inf_norm(ops):
        return np.abs(ops).reshape(len(ops), -1).sum(axis=0).max()

    out = term = stack
    c1 = inf_norm(term)
    for j in range(TAYLOR_MAX_TERMS):
        term = 1.0 / (j + 1) * (_sandwich(term, gen.g, gen.g_dag, gen.outer, gen.inner)
                                + (-mu) * term)
        c2 = inf_norm(term)
        out = out + term
        if c1 + c2 <= 2.0**-53 * inf_norm(out):
            break
        c1 = c2
    return np.exp(mu) * out


def _propagator(model: LindbladModel, t: float, heisenberg: bool, method: str):
    """Callable applying exp(L^dag t) or exp(L t) to an operator or a stack.

    For ``"auto"`` each call takes the first route of the module docstring
    that applies to its block; the dense exponential is formed on first use
    and kept by the callable.
    """
    d = model.dim
    gen = _generator(model, t, heisenberg)
    if method == "auto":
        mu = gen.trace / (d * d)

        @functools.cache
        def dense_transpose():
            return scipy.linalg.expm(gen.matmat(np.eye(d * d))).T

        def evolve(stack):
            flat = stack.reshape(len(stack), d * d)
            if _dense_is_cheaper(d, gen.norm_bound, len(stack)):
                return (flat @ dense_transpose()).reshape(stack.shape)
            if gen.norm_bound + abs(mu) <= TAYLOR_SEGMENT_NORM:
                return _taylor_segment(gen, stack, mu)
            with _pinned_legacy_rng():
                out = expm_multiply(gen, flat.T, traceA=gen.trace)
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

    ``method="auto"`` picks a route per call, as the module docstring
    describes; ``"ivp"`` integrates the master equation with adaptive
    Runge-Kutta instead, as an independent cross-check. The result is
    re-symmetrized and its rounding-level trace drift divided out. Raises
    ``TracePreservationError`` when the drift exceeds ``DENSITY_TOL``, and
    ``ValueError`` unless 0 <= t < inf.
    """
    t = lag(t)
    if t == 0.0:
        return state
    rho = _propagator(model, t, heisenberg=False, method=method)(state.rho)
    rho = (rho + dagger(rho)) / 2
    trace = float(np.trace(rho).real)
    if abs(trace - 1.0) > DENSITY_TOL:
        raise TracePreservationError(f"propagated trace {trace!r} differs from 1")
    rho = rho / trace
    return QuantumState(rho, psd_tol=PROPAGATED_PSD_TOL)


def heisenberg_propagator(model: LindbladModel, dt: float, method: str = "auto"):
    """Callable applying exp(L^dag dt) to one (d, d) operator or a (B, d, d) stack.

    The generator pieces are built once. Each call propagates its whole
    stack by the routes of the module docstring. ``method`` and the lag
    check are as for :func:`propagate`.
    """
    return _propagator(model, lag(dt), heisenberg=True, method=method)


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
