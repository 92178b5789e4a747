"""Markovian open-system models with paired jump operators.

A model is a Hamiltonian plus jump pairs (L_k, L_-k, s_k) postulated to obey
local detailed balance L_k = exp(s_k/2) L_-k^dag, with s_k the entropy
current per jump (k_B = 1). The module applies the generator

    L(rho) = -i[H, rho] + D(rho),
    D(rho) = sum_k L_k rho L_k^dag - {L_k^dag L_k, rho} / 2,

its adjoint, and the corresponding finite-time propagators, all through the
one generator that :func:`_generator` builds in either picture. The four
``apply_*`` functions apply it to a state, one operator or a (B, d, d) stack.
Propagators apply exp(tL) to a whole stack at once, scaling the generator by
t themselves, in the first of three exact ways that applies:

- dense: ``scipy.linalg.expm`` of the d^2 x d^2 generator, formed column by
  column through the generator, when :func:`_dense_is_cheaper` finds it
  cheaper than acting on the stack (small or stiff generators; never for
  d^2 > ``DENSE_MAX_SIZE``);
- one Taylor segment of t(L - mu I) on the stack laid out as (d, B, d),
  where each term is 3 + K products for K jumps (:class:`_Generator`), when
  a bound on its 1-norm is at most ``TAYLOR_SEGMENT_NORM`` (short lags);
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
from .util import (DENSITY_TOL, DETAILED_BALANCE_TOL, PROPAGATED_PSD_TOL, _rotation, as_operator,
                   dagger, exact_dtype, lag, matrix_from_json, matrix_to_json, operator_hash,
                   read_json, write_json)

#: tolerances of :func:`_integrated`, the Runge-Kutta reference of the tests
IVP_RTOL = 1e-10
IVP_ATOL = 1e-12
#: below this bound on ||t L||_1, ||exp(t L) X - X|| < 1e-292 ||X||: the
#: propagator returns X, and expm_multiply never sees subnormal entries
NEGLIGIBLE_GENERATOR_NORM = np.finfo(float).tiny / np.finfo(float).eps
#: largest d^2 whose d^2 x d^2 generator the dense route exponentiates
#: (16 MiB per complex work array at the cap); larger d always take the
#: action route. :meth:`_Generator.block` keeps its stacked jump product
#: within one such array, DENSE_MAX_SIZE^2 entries
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
#: smallest d at which :func:`resolved_fluxes` takes each jump on its support
#: box instead of all jumps as one stack. The routes tie near d = 44 for dense
#: jumps and d = 64 for collective ones (best-of-k timings, 2-core Xeon); at 32
#: the stack is at most 1.6x faster, and the d^2 x d^2 Kronecker oracle of the
#: tests still reaches both sides of the switch
FLUX_BOX_MIN_DIM = 32


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
        if not np.isfinite(self.entropy_current):
            raise ValueError(f"entropy current {self.entropy_current!r} is non-finite")
        if self.forward.shape != self.backward.shape:
            raise DimMismatchError("forward and backward operators differ in shape")

    @property
    def dim(self) -> int:
        return self.forward.shape[0]

    def detailed_balance_residual(self) -> float:
        """|| L_k - exp(s_k/2) L_-k^dag ||, not finite where exp(s_k/2) overflows."""
        with np.errstate(over="ignore", invalid="ignore"):
            scaled = np.exp(self.entropy_current / 2) * dagger(self.backward)
            return float(np.linalg.norm(self.forward - scaled))


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
        return [op for pair in self.jump_pairs for op in (pair.forward, pair.backward)]

    @property
    def entropy_currents(self) -> list[float]:
        """Their entropy currents, in the same order: s_k, then -s_k."""
        return [s for pair in self.jump_pairs for s in (pair.entropy_current, -pair.entropy_current)]


class QuantumState:
    """Density matrix with Hermiticity, positivity and trace invariants.

    ``eigenvalues`` (ascending) and ``eigenvectors`` are the spectrum of
    ``rho``, from the one ``eigh`` that checks its positivity, or from a
    builder that knows it and passes it to :meth:`_from_spectrum`; whatever
    needs ln rho or the eigenbasis of rho reads them instead of decomposing
    again.
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
        """The largest residual, NaN if any is NaN, 0.0 for a model without pairs."""
        return float(np.max(self.residuals, initial=0.0))


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
    if not pair.detailed_balance_residual() <= DETAILED_BALANCE_TOL * max(norm_f, 1.0):
        raise ValueError("pair violates local detailed balance; cannot decompose")
    gamma_f = norm_f**2
    gamma_b = norm_b**2
    ltilde = pair.forward / norm_f
    return gamma_f, gamma_b, ltilde


class _Generator:
    """A -> G A + A G^dag + sum_k outer_k A inner_k on one operator or a
    (B, d, d) stack: L^dag or L as :func:`_generator` builds it.

    :meth:`block` is the one kernel. It acts on a block of B operators laid
    out as (d, B, d), entry [i, b, j] = A_b[i, j], where X A for the whole
    block is one (d, d) x (d, B d) product and A Y one (d B, d) x (d, d)
    product, both on copy-free reshapes. ``outer`` and ``inner`` hold the
    K jump factors as (K, d, d) arrays in the jumps' common dtype, so all K
    products outer_k A are one (K d, d) x (d, B d) product, whose (d B, d)
    slabs each take their ``inner_k``: 3 + K products per application,
    whatever B is. Only when K blocks would exceed DENSE_MAX_SIZE^2 entries
    (the dense build of a many-jump classical embedding) does that product
    go in as many slices of jumps as keep it within. G stays out of the
    stack: it is complex, and would make the real jumps of a classical
    embedding complex. A call on a stack transposes it into that layout and
    back; a lone (d, d) operator already has it, as (d, 1, d).

    ``trace`` is the exact trace of its d^2 x d^2 matrix. Since
    vec(A X B) = (A kron B^T) vec(X) and ||A kron B||_1 = ||A||_1 ||B||_1,
    ``norm_bound`` = 2 n(G) + sum_k n(outer_k) n(inner_k), n the larger of the
    1- and inf-norms, bounds the 1-norm of that matrix and of its adjoint.
    Both pick the route of the module docstring and are computed on first read.
    """

    def __init__(self, g: np.ndarray, outer: np.ndarray, inner: np.ndarray):
        self.g, self.g_dag, self.outer, self.inner = g, dagger(g), outer, inner

    def __call__(self, a: np.ndarray) -> np.ndarray:
        d = len(self.g)
        cols = np.ascontiguousarray(a.reshape(-1, d, d).transpose(1, 0, 2))
        return self.block(cols).transpose(1, 0, 2).reshape(a.shape)

    def block(self, cols: np.ndarray) -> np.ndarray:
        """The generator on a C-contiguous (d, B, d) block, as a new one."""
        d = len(self.g)
        wide, rows = cols.reshape(d, -1), cols.reshape(-1, d)
        out = (self.g @ wide).reshape(rows.shape)
        out += rows @ self.g_dag
        step = max(1, DENSE_MAX_SIZE**2 // cols.size)
        for k in range(0, len(self.inner), step):
            lefts = (self.outer[k:k + step].reshape(-1, d) @ wide).reshape(-1, *rows.shape)
            for left, right in zip(lefts, self.inner[k:k + step]):
                out += left @ right
        return out.reshape(cols.shape)

    @functools.cached_property
    def trace(self) -> float:
        outer, inner = (np.trace(jumps, axis1=1, axis2=2) for jumps in (self.outer, self.inner))
        return float(2 * len(self.g) * np.trace(self.g).real + np.real(outer @ inner))

    @functools.cached_property
    def norm_bound(self) -> float:
        def n(ops):
            mags = np.abs(ops)
            return np.maximum(mags.sum(axis=-2).max(axis=-1), mags.sum(axis=-1).max(axis=-1))

        return float(2 * n(self.g) + n(self.outer) @ n(self.inner))


def _generator(model: LindbladModel, heisenberg: bool, hamiltonian: bool = True) -> _Generator:
    """L^dag (Heisenberg picture) or L (Schrodinger picture), the Hamiltonian
    part only if ``hamiltonian``: the one place G = iH - K/2 is formed, with
    K = sum_k L_k^dag L_k subtracted jump by jump. L^dag has outer_k = L_k^dag
    and inner_k = L_k; its adjoint L swaps G <-> G^dag and outer <-> inner.
    The jumps and their adjoints are stacked once here, as (K, d, d) arrays.
    """
    jumps = np.array(model.jump_operators).reshape(-1, model.dim, model.dim)
    adjoints = np.ascontiguousarray(jumps.conj().transpose(0, 2, 1))
    g = 1j * model.hamiltonian if hamiltonian else np.zeros((model.dim, model.dim), dtype=complex)
    for op, op_dag in zip(jumps, adjoints):
        g -= 0.5 * (op_dag @ op)
    if heisenberg:
        return _Generator(g, adjoints, jumps)
    return _Generator(dagger(g), jumps, adjoints)


def apply_dissipator(model: LindbladModel, state) -> np.ndarray:
    """D(rho) summed over both members of every pair."""
    return _generator(model, heisenberg=False, hamiltonian=False)(_operands(state, model.dim))


def apply_adjoint_dissipator(model: LindbladModel, a) -> np.ndarray:
    """Heisenberg-picture dissipator D^dag(A)."""
    return _generator(model, heisenberg=True, hamiltonian=False)(_operands(a, model.dim))


def apply_liouvillian(model: LindbladModel, state) -> np.ndarray:
    """L(rho) = -i[H, rho] + D(rho)."""
    return _generator(model, heisenberg=False)(_operands(state, model.dim))


def apply_adjoint_liouvillian(model: LindbladModel, a) -> np.ndarray:
    """L^dag(A) = +i[H, A] + D^dag(A)."""
    return _generator(model, heisenberg=True)(_operands(a, model.dim))


def _support_box(jump: np.ndarray) -> tuple[slice, slice]:
    """The rows and the columns of ``jump`` from its first nonzero to its
    last, as two slices: empty for a zero jump, the whole matrix for a
    dense one."""
    nonzero = jump != 0
    rows, cols = np.flatnonzero(nonzero.any(axis=1)), np.flatnonzero(nonzero.any(axis=0))
    if not len(rows):
        return slice(0, 0), slice(0, 0)
    return slice(int(rows[0]), int(rows[-1]) + 1), slice(int(cols[0]), int(cols[-1]) + 1)


def resolved_fluxes(model: LindbladModel, state: QuantumState, basis: np.ndarray) -> np.ndarray:
    """resolved[b, a] = Re <v_a| L^dag(|v_b><v_b|) rho |v_a>, the flux
    tr({L^dag P_b, P_a} rho) / 2 between the rank-one projectors of the
    orthonormal, complete columns v of ``basis``.

    Closed form in that basis, with R = V^dag rho V, G' = V^dag G V and
    L'_k = V^dag L_k V (G as in :func:`_generator`), o the entrywise product:

        Re[G'^T o R] + diag(row sums of Re[G'^T o R]) + sum_k Re[conj(L'_k) o (L'_k R)],

    the row sums from R = R^dag. No loop over columns. It forms H' and K'
    itself instead of rotating the complex G of :func:`_generator`, and reads
    G'^T through Hermiticity: Re[G'^T o R] = -Im(conj(H') o R) -
    Re(conj(K') o R) / 2, so exactly real inputs stay in real arithmetic,
    and no complex d x d G, transpose or list of jump adjoints adds to the
    peak memory of a large collective sweep. The rotations go through
    :func:`quasitur.util._rotation`, so the standard basis (that of the
    collective model) costs no rotation at all.

    The jumps take one of two routes, chosen by d alone. Below
    ``FLUX_BOX_MIN_DIM`` all K of them go as one (K d, d) stack, so K' and
    the jump terms are two products and no loop over jumps. From it on,
    each rotated jump L' acts on its support box (:func:`_support_box`),
    rows a:b by columns c:e: L'^dag L' can be nonzero only in K'[c:e, c:e]
    and conj(L') o (L' R) only in [a:b, c:e], so a jump costs two products
    of O((b - a)(e - c)^2). Those are N x N for each collective jump, which
    lives in one quadrant of the d = 2N space, and d x d for a dense jump.
    """
    _check_dim(state, model.dim)
    v = exact_dtype(basis)
    rotate = _rotation(v)
    r = rotate(state.rho)
    d = len(r)
    if d < FLUX_BOX_MIN_DIM:
        flat = rotate(np.reshape(model.jump_operators, (-1, d, d))).reshape(-1, d)
        k = dagger(flat) @ flat
        out = (flat.conj() * (flat @ r)).real.reshape(-1, d, d).sum(axis=0)
    else:
        k, out = np.zeros(r.shape, np.result_type(v, *model.jump_operators)), np.zeros(r.shape)
        for op in model.jump_operators:
            jump = rotate(op)
            rows, cols = _support_box(jump)
            box = jump[rows, cols]
            k[cols, cols] += dagger(box) @ box
            out[rows, cols] += (box.conj() * (box @ r[cols, cols])).real
    # -Re[G'^T o R], with H'^T = conj(H') and K'^T = conj(K')
    loss = 0.5 * (k.conj() * r).real
    h = rotate(model.hamiltonian)
    if np.iscomplexobj(h) or np.iscomplexobj(r):
        loss += (h.conj() * r).imag
    out -= loss
    out[np.diag_indices_from(out)] -= loss.sum(axis=1)
    return out


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


def _taylor_segment(gen: _Generator, stack: np.ndarray, t: float, mu: float) -> np.ndarray:
    """exp(tL) on a (B, d, d) stack as e^(t mu) times one truncated Taylor
    series of t(L - mu I).

    This is the core loop of ``expm_multiply`` (Al-Mohy & Higham, 2011,
    algorithm 3.2) with one segment (s = 1) and at most
    ``TAYLOR_MAX_TERMS`` terms, in scipy's order of operations with the lag
    folded into the factor t / (j + 1): the series stops once two successive
    terms are below unit roundoff relative to the sum, in the inf-norm of
    the (d^2, B) block. The terms live in the (d, B, d) layout of
    :meth:`_Generator.block`, so each costs 3 + K products for K jumps; the
    stack is transposed into it once and out of it once.
    """
    def inf_norm(cols):
        return np.abs(cols).sum(axis=1).max()

    out = term = np.ascontiguousarray(stack.transpose(1, 0, 2))
    c1 = inf_norm(term)
    for j in range(TAYLOR_MAX_TERMS):
        term = t / (j + 1) * (gen.block(term) + (-mu) * term)
        c2 = inf_norm(term)
        out = out + term
        if c1 + c2 <= 2.0**-53 * inf_norm(out):
            break
        c1 = c2
    return (np.exp(t * mu) * out).transpose(1, 0, 2)


def _propagator(model: LindbladModel, t: float, heisenberg: bool):
    """Callable applying exp(L^dag t) or exp(L t) to an operator or a stack.

    Each call takes the first route of the module docstring that applies to
    its block; the dense exponential is formed on first use and kept by the
    callable. Every route applies the one generator of :func:`_generator`
    and scales by t itself.
    """
    d = model.dim
    gen = _generator(model, heisenberg)

    @functools.cache
    def dense_transpose():
        rows = gen(np.eye(d * d).reshape(-1, d, d)).reshape(d * d, d * d)
        return scipy.linalg.expm(t * rows.T).T

    def evolve(stack):
        flat = stack.reshape(len(stack), d * d)
        mu = gen.trace / (d * d)
        if _dense_is_cheaper(d, t * gen.norm_bound, len(stack)):
            return (flat @ dense_transpose()).reshape(stack.shape)
        if t * (gen.norm_bound + abs(mu)) <= TAYLOR_SEGMENT_NORM:
            return _taylor_segment(gen, stack, t, mu)

        def action(of):
            return lambda x: t * of(x.T.reshape(-1, d, d)).reshape(-1, d * d).T

        forward = action(gen)
        op = LinearOperator((d * d, d * d), matvec=forward, matmat=forward, dtype=complex,
                            rmatmat=action(_generator(model, not heisenberg)))
        with _pinned_legacy_rng():
            out = expm_multiply(op, flat.T, traceA=t * gen.trace)
        return out.T.reshape(stack.shape)

    def apply(a):
        ops = _operands(a, d)
        stack = ops.reshape(-1, d, d)
        negligible = t * gen.norm_bound < NEGLIGIBLE_GENERATOR_NORM
        out = stack.copy() if negligible or not len(stack) else evolve(stack)
        return out.reshape(ops.shape)

    return apply


def _integrated(model: LindbladModel, a, t: float, heisenberg: bool) -> np.ndarray:
    """exp(L^dag t) or exp(L t) applied to a state, an operator or a stack by
    adaptive Runge-Kutta (RK45) integration: the independent reference the
    tests hold :func:`_propagator` against. Raises ``NonConvergenceError``
    when the integrator fails."""
    ops = _operands(a, model.dim)
    gen = _generator(model, heisenberg)
    sol = solve_ivp(lambda _t, y: gen(y.reshape(ops.shape)).ravel(), (0.0, t), ops.ravel(),
                    method="RK45", rtol=IVP_RTOL, atol=IVP_ATOL)
    if not sol.success:
        raise NonConvergenceError(f"integrator failed: {sol.message}")
    return sol.y[:, -1].reshape(ops.shape)


def propagate(model: LindbladModel, state: QuantumState, t: float) -> QuantumState:
    """Evolve a state to exp(L t) rho_0.

    Each call picks a route, as the module docstring describes. The result
    is re-symmetrized and its rounding-level trace drift divided out. Raises
    ``TracePreservationError`` when the drift exceeds ``DENSITY_TOL``, and
    ``ValueError`` unless 0 <= t < inf.
    """
    t = lag(t)
    if t == 0.0:
        return state
    rho = _propagator(model, t, heisenberg=False)(state.rho)
    rho = (rho + dagger(rho)) / 2
    trace = float(np.trace(rho).real)
    if abs(trace - 1.0) > DENSITY_TOL:
        raise TracePreservationError(f"propagated trace {trace!r} differs from 1")
    rho = rho / trace
    return QuantumState(rho, psd_tol=PROPAGATED_PSD_TOL)


def heisenberg_propagator(model: LindbladModel, dt: float):
    """Callable applying exp(L^dag dt) to one (d, d) operator or a (B, d, d) stack.

    The generator pieces are built once. Each call propagates its whole
    stack by the routes of the module docstring. The lag is checked as for
    :func:`propagate`.
    """
    return _propagator(model, lag(dt), heisenberg=True)


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
