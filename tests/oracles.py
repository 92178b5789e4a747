"""Shared model builders and independent oracles for the test suite."""

from math import factorial

import mpmath
import numpy as np
import scipy.linalg
from scipy.integrate import solve_ivp
from scipy.sparse.linalg import expm_multiply

from quasitur.ensembles import random_hermitian, random_state, random_unitary
from quasitur.lindblad import JumpPair, LindbladModel, QuantumState
from quasitur.operators import logarithmic_mean
from quasitur.thermo import DEFAULT_EIGENVALUE_FLOOR, floored_state
from quasitur.util import _rotation

SIGMA_PLUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)   # |e><g|, basis (g, e)
SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # |g><e|
SIGMA_Z = np.diag([-1.0, 1.0]).astype(complex)                   # g: -1, e: +1
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def thermal_qubit(gamma_plus=0.5, gamma_minus=1.0, omega=1.0) -> LindbladModel:
    """Qubit with raising/lowering pair satisfying detailed balance exactly."""
    pair = JumpPair(
        forward=np.sqrt(gamma_plus) * SIGMA_PLUS,
        backward=np.sqrt(gamma_minus) * SIGMA_MINUS,
        entropy_current=float(np.log(gamma_plus / gamma_minus)),
    )
    hamiltonian = np.diag([0.0, omega]).astype(complex)
    return LindbladModel(hamiltonian, (pair,))


def gibbs_state(gamma_plus=0.5, gamma_minus=1.0) -> QuantumState:
    """Stationary state of the thermal qubit: p_e / p_g = gamma_+ / gamma_-."""
    p_e = gamma_plus / (gamma_plus + gamma_minus)
    return QuantumState(np.diag([1.0 - p_e, p_e]).astype(complex))


def decay_qubit(gamma_minus=1.0, omega=0.0) -> LindbladModel:
    """Pure decay: only the lowering operator acts (dynamics-only model;
    the vanishing backward member breaks detailed balance by construction)."""
    pair = JumpPair(
        forward=np.sqrt(gamma_minus) * SIGMA_MINUS,
        backward=np.zeros((2, 2), dtype=complex),
        entropy_current=0.0,
    )
    hamiltonian = np.diag([0.0, omega]).astype(complex)
    return LindbladModel(hamiltonian, (pair,))


def excited_state() -> QuantumState:
    return QuantumState(np.diag([0.0, 1.0]).astype(complex))


def ladder_model(with_hamiltonian_coherence=True) -> LindbladModel:
    """Three-level ladder whose jumps shift X = diag(0, 1, 2) by one unit.

    Every jump satisfies [X, L] = w L with w = +/-1; the optional Hamiltonian
    couples adjacent levels, producing a nonzero quasiprobability/counting
    rate difference.
    """
    up10 = np.zeros((3, 3), complex); up10[1, 0] = np.sqrt(0.8)
    dn01 = np.zeros((3, 3), complex); dn01[0, 1] = np.sqrt(0.5)
    up21 = np.zeros((3, 3), complex); up21[2, 1] = np.sqrt(0.7)
    dn12 = np.zeros((3, 3), complex); dn12[1, 2] = np.sqrt(0.3)
    pairs = (
        JumpPair(up10, dn01, float(np.log(0.8 / 0.5))),
        JumpPair(up21, dn12, float(np.log(0.7 / 0.3))),
    )
    if with_hamiltonian_coherence:
        ham = np.array([[0.5, 0.2 + 0.1j, 0.0],
                        [0.2 - 0.1j, 1.0, -0.3j],
                        [0.0, 0.3j, 1.7]], dtype=complex)
    else:
        ham = np.diag([0.0, 1.0, 2.0]).astype(complex)
    return LindbladModel(ham, pairs)


def ladder_state() -> QuantumState:
    raw = np.array([[0.5, 0.1 + 0.2j, 0.05j],
                    [0.1 - 0.2j, 0.3, 0.1],
                    [-0.05j, 0.1, 0.2]], dtype=complex)
    rho = (raw + raw.conj().T) / 2 + 0.3 * np.eye(3)
    return QuantumState(rho / np.trace(rho).real)


def von_neumann_entropy(state: QuantumState) -> float:
    eigs = np.linalg.eigvalsh(state.rho)
    eigs = eigs[eigs > 1e-300]
    return float(-np.sum(eigs * np.log(eigs)))


def kubo_integral(g: np.ndarray, a: np.ndarray) -> np.ndarray:
    """S_G(A) = int_0^1 G^s A G^(1-s) ds for positive-definite G.

    In the eigenbasis of G with eigenvalues g_i the action is entrywise
    multiplication by the logarithmic mean of (g_i, g_j). It shares
    ``logarithmic_mean`` with the pair-block weighting of
    ``GeometricRepresentation`` but decomposes the whole dense weight, so it
    checks the block structure and the stored spectrum that weighting reads.
    """
    vals, vecs = np.linalg.eigh(np.ascontiguousarray(g, dtype=complex))
    if vals[0] <= 0:
        raise ValueError(f"G is not positive definite (min eigenvalue {vals[0]:.3e})")
    weights = logarithmic_mean(vals[:, None], vals[None, :])
    a_eig = vecs.conj().T @ np.ascontiguousarray(a, dtype=complex) @ vecs
    return vecs @ (weights * a_eig) @ vecs.conj().T


def kubo_quadrature(g: np.ndarray, a: np.ndarray, n_nodes: int = 64) -> np.ndarray:
    """Gauss-Legendre quadrature of int_0^1 G^s A G^(1-s) ds.

    Matrix powers are taken through the eigendecomposition; the quadrature
    itself is independent of the closed-form log-mean weights.
    """
    vals, vecs = np.linalg.eigh(g)
    nodes, weights = np.polynomial.legendre.leggauss(n_nodes)
    nodes = 0.5 * (nodes + 1.0)
    weights = 0.5 * weights
    out = np.zeros_like(np.asarray(a, dtype=complex))
    for s, w in zip(nodes, weights):
        g_s = (vecs * vals**s) @ vecs.conj().T
        g_1ms = (vecs * vals**(1.0 - s)) @ vecs.conj().T
        out += w * (g_s @ a @ g_1ms)
    return out


def superoperator(model: LindbladModel, adjoint: bool) -> np.ndarray:
    """Kronecker matrix of L (or L^dag) acting on row-major vectorized operators.

    Built term by term from vec(A X B) = (A kron B^T) vec(X), independently
    of the library's matrix-free generator.
    """
    d = model.dim
    eye = np.eye(d, dtype=complex)
    ham = model.hamiltonian
    sign = 1j if adjoint else -1j
    sup = sign * (np.kron(ham, eye) - np.kron(eye, ham.T))
    for op in model.jump_operators:
        ldl = op.conj().T @ op
        if adjoint:
            sup += np.kron(op.conj().T, op.T)
        else:
            sup += np.kron(op, op.conj())
        sup -= 0.5 * (np.kron(ldl, eye) + np.kron(eye, ldl.T))
    return sup


def dense_propagate(model: LindbladModel, ops: np.ndarray, t: float, adjoint: bool) -> np.ndarray:
    """exp(L^dag t) (or exp(L t)) applied to a (B, d, d) stack through the
    dense exponential of the d^2 x d^2 Kronecker matrix."""
    prop = scipy.linalg.expm(superoperator(model, adjoint) * t)
    d = model.dim
    return (ops.reshape(len(ops), d * d) @ prop.T).reshape(ops.shape)


def action_propagate(model: LindbladModel, ops: np.ndarray, t: float, adjoint: bool) -> np.ndarray:
    """As :func:`dense_propagate`, through ``scipy.sparse.linalg.expm_multiply``
    on the Kronecker matrix: a truncated Taylor action that forms no
    exponential, so it shares no algorithm with ``scipy.linalg.expm``."""
    d = model.dim
    out = expm_multiply(superoperator(model, adjoint) * t, ops.reshape(len(ops), d * d).T)
    return out.T.reshape(ops.shape)


def integrated(model: LindbladModel, a, t: float, heisenberg: bool) -> np.ndarray:
    """exp(L^dag t) or exp(L t) applied to a state, an operator or a stack by
    adaptive Runge-Kutta (RK45) integration of the Kronecker matrix, so it
    shares neither the library's generator nor any exponential algorithm."""
    ops = np.asarray(a.rho if isinstance(a, QuantumState) else a, dtype=complex)
    d = model.dim
    sup = superoperator(model, heisenberg)
    sol = solve_ivp(lambda _t, y: (y.reshape(-1, d * d) @ sup.T).ravel(), (0.0, t), ops.ravel(),
                    method="RK45", rtol=1e-10, atol=1e-12)
    if not sol.success:
        raise RuntimeError(f"integrator failed: {sol.message}")
    return sol.y[:, -1].reshape(ops.shape)


def mpmath_propagate(model: LindbladModel, ops: np.ndarray, t: float, adjoint: bool,
                     dps: int = 40) -> np.ndarray:
    """As :func:`dense_propagate`, with the exponential of the same float
    Kronecker matrix taken by ``mpmath.expm`` at ``dps`` digits."""
    with mpmath.workdps(dps):
        prop = mpmath.expm(mpmath.matrix(superoperator(model, adjoint) * t))
        prop = np.array(prop.tolist(), dtype=complex)
    d = model.dim
    return (ops.reshape(len(ops), d * d) @ prop.T).reshape(ops.shape)


def flux_reference(model: LindbladModel, rho: np.ndarray, projectors: np.ndarray) -> np.ndarray:
    """T_yx = tr({L^dag P_y, P_x} rho) / 2 over a (m, d, d) projector stack,
    with L^dag P_y from the Kronecker superoperator."""
    d = model.dim
    generated = (projectors.reshape(len(projectors), d * d)
                 @ superoperator(model, adjoint=True).T).reshape(projectors.shape)
    return np.array([[0.5 * np.trace((g @ p + p @ g) @ rho).real for p in projectors]
                     for g in generated])


def phase_generating(heisenberg, obs, state: QuantumState, lams) -> np.ndarray:
    """tr({heisenberg(e^{il X_c}), e^{-il X_c}} rho) / 2 for each entry of a
    1-D array of (possibly complex) ``lams``, with X_c = X - c I and c the
    midpoint of X's spectrum.

    The phase operators are formed from the stored eigenbasis and
    ``heisenberg`` maps their (B, d, d) stack to its Heisenberg-picture
    image: a propagator gives the generating function, the adjoint generator
    its short-time rate. The shift by c cancels, and bounds the phases by
    exp(|Im l| gap / 2). The library reads both from the table or the flux
    matrix instead.
    """
    vecs, x_c = obs.eigenvectors, obs.eigenvalues - obs.center
    rho = state.rho

    def phase(ls):
        return (vecs * np.exp(1j * np.multiply.outer(ls, x_c))[..., None, :]) @ vecs.conj().T

    lams = np.asarray(lams)
    v = phase(-lams)
    return 0.5 * np.einsum("bij,bji->b", heisenberg(phase(lams)), v @ rho + rho @ v)


def classical_generating(prop: np.ndarray, p: np.ndarray, f: np.ndarray, lams) -> np.ndarray:
    """< exp(R^T dt)(e^{ilf}) e^{-ilf} >_p with entrywise exponential and
    product, for ``prop`` = exp(R dt) and each entry of a 1-D array of
    (possibly complex) ``lams``.

    Phases are of f minus its midpoint, which cancels and bounds them by
    exp(|Im l| spread / 2). The library reads the same sum as the transform
    of the joint table instead.
    """
    centered = f - 0.5 * (f.max() + f.min())
    # row b of phases @ prop is exp(R^T dt) applied to e^{i lam_b f}
    return ((np.exp(1j * np.outer(lams, centered)) @ prop)
            * np.exp(-1j * np.outer(lams, centered))) @ p


def sine_series(hamiltonian: np.ndarray, rho: np.ndarray, eigenvalues, eigenvectors,
                lams) -> np.ndarray:
    """sum_{x,y} H_yx rho_xy sin(l (y - x)) over the given eigenvectors of X,
    with their eigenvalues y and x, for each entry of a 1-D array of
    (possibly complex) ``lams``.

    The quasiprobability rate minus the counting rate when the commutation
    condition holds, summed term by term over eigenvectors. The library
    reads it as the transform of the Hamiltonian's fluxes over eigenvalue
    classes instead.
    """
    v = np.asarray(eigenvectors)
    weight = (v.conj().T @ hamiltonian @ v).T * (v.conj().T @ rho @ v)  # (x, y): H_yx rho_xy
    diffs = np.subtract.outer(eigenvalues, eigenvalues).T  # (x, y): y - x
    return np.einsum("xy,bxy->b", weight, np.sin(np.multiply.outer(np.asarray(lams), diffs)))


#: trapezoidal nodes on the circle |l| = 1/scale
CONTOUR_NODES = 16


def derivative_moment(fn, order: int, scale: float) -> complex:
    """(-i d/dl)^n of ``fn`` at 0, the moment of order ``n``.

    Each generating function is a finite sum of q e^{il(y - x)} with real q,
    so it is entire in l, and the trapezoidal rule on a circle gives its
    Taylor coefficients with geometric convergence and no cancellation
    (Trefethen & Weideman, SIAM Review 56(3), 2014). ``scale`` should bound
    the frequencies in ``fn`` (the largest eigenvalue gap). Real weights give
    fn(-conj(l)) = conj(fn(l)), so ``fn`` is called once, on the 1-D complex
    array of the nodes with Re l >= 0, and returns one value per node; the
    other nodes are their mirrors.
    """
    if not 0 <= order < CONTOUR_NODES // 2:
        raise ValueError(f"unsupported derivative order {order}")
    r = 1.0 / max(scale, 1e-6)
    k = np.arange(-(CONTOUR_NODES // 4), CONTOUR_NODES // 4 + 1)
    right = fn(r * np.exp(2j * np.pi * k / CONTOUR_NODES))
    values = np.empty(CONTOUR_NODES, dtype=complex)
    values[k] = right
    values[CONTOUR_NODES // 2 - k[1:-1]] = np.conj(right[1:-1])  # -conj(l_k) = l_{N/2-k}
    coeff = np.fft.fft(values)[order] / (CONTOUR_NODES * r**order)
    return complex((-1j) ** order * factorial(order) * coeff)


def epr_reference(model: LindbladModel, rho: np.ndarray, log_rho=None) -> float:
    """sigma = -tr(L(rho) ln rho) + sum_k s_k tr(L_k^dag L_k rho) for a
    full-rank rho, with L(rho) from the master equation term by term, in
    d x d products at any d, and ln rho from the eigendecomposition of rho
    unless ``log_rho`` gives it."""
    if log_rho is None:
        vals, vecs = np.linalg.eigh(rho)
        log_rho = (vecs * np.log(vals)) @ vecs.conj().T
    ham = model.hamiltonian
    generated = -1j * (ham @ rho - rho @ ham)
    for op in model.jump_operators:
        ldl = op.conj().T @ op
        generated = generated + op @ rho @ op.conj().T - 0.5 * (ldl @ rho + rho @ ldl)
    flow = sum(s * np.trace(op.conj().T @ op @ rho).real
               for op, s in zip(model.jump_operators, model.entropy_currents))
    return float(-np.trace(generated @ log_rho).real + flow)


def epr_full_rotation(model: LindbladModel, state: QuantumState,
                      eigenvalue_floor=DEFAULT_EIGENVALUE_FLOOR) -> float:
    """Spohn's sum over every pair of eigenvectors of the (floored) rho, one
    jump at a time, each rotated into the whole eigenbasis, with the entropy
    current summed apart from the entropy change. The library sums flow times
    affinity pair by pair instead, and reads a bulk of repeated smallest
    eigenvalues as one group."""
    state, _ = floored_state(state, eigenvalue_floor)
    p, u = state.eigenvalues, state.eigenvectors
    log_p = np.log(p)
    # entry (i, j): p_j (ln p_j - ln p_i), the weight of a jump |j> -> |i>
    entropy_change = p * (log_p - log_p[:, None])
    sigma = 0.0
    rotate = _rotation(u)
    for op, s in zip(model.jump_operators, model.entropy_currents):
        weights = np.abs(rotate(op)) ** 2
        sigma += float(np.sum(weights * entropy_change)) + s * float(weights.sum(axis=0) @ p)
    return sigma


def gibbs_network(rng, dim: int) -> tuple[LindbladModel, np.ndarray]:
    """A classical network at beta = 1 and its Gibbs populations p ~ e^(-E).

    Levels E ~ U(0, 2); one pair per i < j, the jump |j> -> |i> at rate
    g e^(s/2) against its reverse at g e^(-s/2), with g ~ U(0.5, 2) and
    s = E_j - E_i, so every pair satisfies local detailed balance and the
    Gibbs state balances every pair.
    """
    energy = rng.uniform(0.0, 2.0, size=dim)
    pairs = []
    for i in range(dim):
        for j in range(i + 1, dim):
            g, s = rng.uniform(0.5, 2.0), energy[j] - energy[i]
            forward, backward = np.zeros((dim, dim)), np.zeros((dim, dim))
            forward[i, j], backward[j, i] = np.sqrt(g * np.exp(s / 2)), np.sqrt(g * np.exp(-s / 2))
            pairs.append(JumpPair(forward, backward, s))
    p = np.exp(-energy)
    return LindbladModel(np.diag(energy), tuple(pairs)), p / p.sum()


def schnakenberg_reference(model: LindbladModel, state: QuantumState, dps: int = 60):
    """sum_k sum_ij (|<i|L_k|j>|^2 p_j - |<j|L_-k|i>|^2 p_i)(s_k + ln p_j - ln p_i)
    at ``dps`` digits (Schnakenberg, Rev. Mod. Phys. 48, 571, 1976), on the
    float spectrum of the unfloored state and its jumps rotated into the
    eigenbasis in floats, which rounds nothing for a basis of signed unit
    vectors, as a diagonal rho has."""
    p, u = state.eigenvalues, state.eigenvectors
    with mpmath.workdps(dps):
        p_mp = [mpmath.mpf(x) for x in p]
        log_p = [mpmath.log(x) for x in p_mp]
        sigma = mpmath.mpf(0)
        for pair in model.jump_pairs:
            forward, backward = (u.conj().T @ op @ u for op in (pair.forward, pair.backward))
            for i, j in np.argwhere((forward != 0) | (backward.T != 0)):
                flow = (abs(mpmath.mpc(forward[i, j])) ** 2 * p_mp[j]
                        - abs(mpmath.mpc(backward[j, i])) ** 2 * p_mp[i])
                sigma += flow * (pair.entropy_current + log_p[j] - log_p[i])
        return sigma


def pair_blocks(stack: np.ndarray) -> np.ndarray:
    """The dense (2Pd) x (2Pd) operator whose block (c ^ 1, c) is stack[c]
    and whose other blocks vanish."""
    n, d = stack.shape[:2]
    dense = np.zeros((n, d, n, d), dtype=complex)
    for c in range(n):
        dense[c ^ 1, :, c] = stack[c]
    return dense.reshape(n * d, n * d)


def enlarged(geo) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Dense current, force, structure and weight operators on C^(2P) x H,
    assembled from the pair-block stacks of a ``GeometricRepresentation``.
    The weight is block diagonal, with block c equal to (g_c / 2) rho."""
    weight = scipy.linalg.block_diag(*(g / 2 * geo.state.rho for g in geo.rates))
    return pair_blocks(geo.current), pair_blocks(geo.force), pair_blocks(geo.structure), weight


def near_conserved_instance(seed: int, eta: float):
    """(model, state, X) with X = X_0 + eta Y near an observable X_0 that
    commutes with every jump, drawn from ``default_rng(seed)`` independently
    of ``eta``.

    X_0 = U diag(0, 1, 2, 3.5) U^dag at d = 4. Each of two pairs takes
    f = U diag(z) U^dag, z complex standard normal, and rates
    (g_f, g_b) = exp(U(-1, 1)), with the forward jump sqrt(g_f) f, the
    backward one sqrt(g_b) f^dag and s = ln(g_f / g_b), so both satisfy
    local detailed balance and [X_0, L_k] = 0. H and Y are random Hermitian
    and the state full rank. J ~ eta and m_X ~ eta^2, so the bound
    2 J^2 / m_X stays O(1) as eta -> 0.
    """
    rng = np.random.default_rng(seed)
    u = random_unitary(rng, 4)
    pairs = []
    for _ in range(2):
        f = (u * (rng.normal(size=4) + 1j * rng.normal(size=4))) @ u.conj().T
        gamma_f, gamma_b = np.exp(rng.uniform(-1.0, 1.0, 2))
        pairs.append(JumpPair(np.sqrt(gamma_f) * f, np.sqrt(gamma_b) * f.conj().T,
                              float(np.log(gamma_f / gamma_b))))
    model = LindbladModel(random_hermitian(rng, 4), tuple(pairs))
    state = random_state(rng, 4)
    x = (u * [0.0, 1.0, 2.0, 3.5]) @ u.conj().T + eta * random_hermitian(rng, 4)
    return model, state, x


def tur_reference(model: LindbladModel, state: QuantumState, x, dps: int = 50):
    """(m_X, J_X^d, 2 J^2 / m_X) as ``mpmath`` numbers at ``dps`` digits on
    the float inputs as given: m_X = sum_k tr(rho [X, L_k]^dag [X, L_k]) and
    J_X^d = tr(X D(rho)), D(rho) = sum_k L_k rho L_k^dag - {L_k^dag L_k, rho} / 2,
    with X itself, not centered, in every product."""
    with mpmath.workdps(dps):
        def mat(a):
            return mpmath.matrix(np.asarray(a, dtype=complex).tolist())

        def trace(a):
            return mpmath.fsum(a[i, i] for i in range(a.rows))

        rho, xm = mat(state.rho), mat(x)
        m_x = j_d = mpmath.mpf(0)
        for op in model.jump_operators:
            jump = mat(op)
            comm = xm * jump - jump * xm
            m_x += mpmath.re(trace(rho * comm.H * comm))
            loss = jump.H * jump
            j_d += mpmath.re(trace(xm * (jump * rho * jump.H - (loss * rho + rho * loss) / 2)))
        return m_x, j_d, 2 * j_d**2 / m_x


def _traceless_hermitian_basis(d: int) -> np.ndarray:
    """(d^2 - 1, d, d) basis of the traceless Hermitian matrices: E_ii - E_dd
    and, for i < j, E_ij + E_ji and i(E_ij - E_ji)."""
    basis = []
    for i in range(d):
        for j in range(i, d):
            if i == j and i < d - 1:
                b = np.zeros((d, d), complex)
                b[i, i], b[-1, -1] = 1.0, -1.0
                basis.append(b)
            elif i < j:
                for phase in (1.0, 1j):
                    b = np.zeros((d, d), complex)
                    b[i, j], b[j, i] = phase, np.conj(phase)
                    basis.append(b)
    return np.array(basis)


def optimal_bound(model: LindbladModel, state: QuantumState) -> tuple[float, np.ndarray]:
    """sup_X 2 J_X^2 / m_X = 2 j^T M^+ j and the observable X* = sum_a (M^+ j)_a B_a
    that attains it, for d <= 6 (Manikandan, Gupta & Krishnamurthy, PRL 124,
    120603, 2020).

    J_X = tr(X D(rho)) is linear and m_X = sum_k tr(rho [X, L_k]^dag [X, L_k])
    quadratic in the real coordinates of X over the traceless Hermitian
    basis B_a, with j_a = tr(B_a D(rho)) and M_ab = Re sum_k
    tr(rho [B_a, L_k]^dag [B_b, L_k]). Both come from Kronecker matrices on
    row-major vectors, vec(A Y B) = (A kron B^T) vec(Y), independently of the
    library: vec([Y, L]) = (I kron L^T - L kron I) vec(Y), and
    tr(C^dag C rho) = vec(C)^H (I kron rho^T) vec(C). Dropping I, which
    commutes with every jump and carries no current, leaves M invertible
    whenever nothing else commutes with every jump, so M^+ = M^-1.
    """
    d = model.dim
    if d > 6:
        raise ValueError(f"optimal_bound builds a (d^2 - 1)^2 Gram matrix; d = {d} > 6")
    eye = np.eye(d)
    basis = _traceless_hermitian_basis(d)
    vecs = basis.reshape(len(basis), -1).T
    weight = np.kron(eye, state.rho.T)
    gram = np.zeros((len(basis), len(basis)))
    for op in model.jump_operators:
        comms = (np.kron(eye, op.T) - np.kron(op, eye)) @ vecs
        gram += (comms.conj().T @ weight @ comms).real
    dissipator = superoperator(LindbladModel(np.zeros((d, d)), model.jump_pairs), adjoint=False)
    j = (vecs.conj().T @ (dissipator @ state.rho.reshape(-1))).real
    coords = np.linalg.solve(gram, j)
    return float(2.0 * j @ coords), np.tensordot(coords, basis, axes=1)


def permutation_reference(v) -> np.ndarray | None:
    """perm with V = I[:, perm], read off column by column from the
    definition, or None unless V is a real square array whose every column
    is a distinct standard basis vector, with entries exactly 0 and 1."""
    v = np.asarray(v)
    if v.dtype.kind != "f" or v.ndim != 2 or v.shape[0] != v.shape[1]:
        return None
    perm = []
    for column in v.T:
        rows = [i for i, x in enumerate(column) if x != 0]
        if len(rows) != 1 or column[rows[0]] != 1.0:
            return None
        perm.append(rows[0])
    return np.array(perm) if sorted(perm) == list(range(len(v))) else None


# The collective builders as they stood before they came to write each array
# once: d x d outer products summed for rho, the eigenvectors assembled in
# band order and copied into ascending order by fancy indexing, the basis
# hstacked from two slices of an identity.

def collective_model_reference(params):
    """(H, L_+, L_-) of ``build_collective_model``."""
    n, d = params.n_levels, params.dim
    ham = np.zeros((d, d))
    ham[n:, n:] = params.omega * np.eye(n)
    l_plus = np.zeros((d, d))
    l_plus[n:, :n] = np.sqrt(params.gamma_plus)
    l_minus = np.zeros((d, d))
    l_minus[:n, n:] = np.sqrt(params.gamma_minus)
    return ham, l_plus, l_minus


def collective_basis_reference(params) -> np.ndarray:
    """The eigenvectors of ``collective_basis``."""
    eye = np.eye(params.dim)
    return np.hstack([eye[:, :params.n_levels], eye[:, params.n_levels:]])


def _band_vector_reference(params, band: int, sign: str) -> np.ndarray:
    n = params.n_levels
    vec = np.zeros(params.dim)
    vec[band * n:(band + 1) * n] = (1.0 if sign == "+" else -1.0) ** np.arange(1, n + 1) / np.sqrt(n)
    return vec


def plus_minus_state_reference(params, sign: str):
    """(rho, eigenvalues, eigenvectors) of ``build_plus_minus_state``."""
    n = params.n_levels
    vg, ve = _band_vector_reference(params, 0, sign), _band_vector_reference(params, 1, sign)
    rho = params.p_g * np.outer(vg, vg) + params.p_e * np.outer(ve, ve)
    w = vg[:n].copy()
    w[0] -= 1.0
    reflector = np.eye(n)
    if w.any():
        reflector -= np.outer(w, (2.0 / (w @ w)) * w)
    vectors = np.zeros((params.dim, params.dim))
    vectors[:n, :n] = vectors[n:, n:] = reflector
    values = np.zeros(params.dim)
    values[[0, n]] = params.p_g, params.p_e
    order = np.argsort(values, kind="stable")
    return rho, values[order], vectors[:, order]


def diagonal_state_reference(params):
    """(rho, eigenvalues, eigenvectors) of ``build_diagonal_state``."""
    n = params.n_levels
    diag = np.concatenate([np.full(n, params.p_g / n), np.full(n, params.p_e / n)])
    order = np.argsort(diag, kind="stable")
    return np.diag(diag), diag[order], np.eye(params.dim)[:, order]
