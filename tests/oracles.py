"""Shared model builders and independent oracles for the test suite."""

import numpy as np
import scipy.linalg

from quasitur.lindblad import JumpPair, LindbladModel, QuantumState

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


def flux_reference(model: LindbladModel, rho: np.ndarray, projectors: np.ndarray) -> np.ndarray:
    """T_yx = tr({L^dag P_y, P_x} rho) / 2 over a (m, d, d) projector stack,
    with L^dag P_y from the Kronecker superoperator."""
    d = model.dim
    generated = (projectors.reshape(len(projectors), d * d)
                 @ superoperator(model, adjoint=True).T).reshape(projectors.shape)
    return np.array([[0.5 * np.trace((g @ p + p @ g) @ rho).real for p in projectors]
                     for g in generated])

