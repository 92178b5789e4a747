import json
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from scipy.sparse.linalg import LinearOperator, expm_multiply

from quasitur import lindblad
from quasitur.classical import quantize_rate_matrix
from quasitur.degeneracy import CollectiveModelParams, build_collective_model
from quasitur.ensembles import (
    random_hermitian,
    random_instance,
    random_model,
    random_observable,
    random_reversible_rate_matrix,
    random_state,
)
from quasitur.errors import (DegeneratePairError, DimMismatchError, NotHermitianError,
                             TracePreservationError)
from quasitur.lindblad import (
    JumpPair,
    LindbladModel,
    QuantumState,
    apply_adjoint_dissipator,
    apply_adjoint_liouvillian,
    apply_dissipator,
    apply_liouvillian,
    decompose_pair,
    heisenberg_propagator,
    load_model,
    model_from_dict,
    model_to_dict,
    propagate,
    save_model,
    validate_local_detailed_balance,
)
from quasitur.quasiprob import ObservableDecomposition, generating_function

from oracles import (
    SIGMA_MINUS,
    SIGMA_PLUS,
    action_propagate,
    decay_qubit,
    dense_propagate,
    excited_state,
    gibbs_state,
    integrated,
    mpmath_propagate,
    phase_generating,
    superoperator,
    thermal_qubit,
)


class TestDetailedBalance:
    def test_thermal_pair_residual_zero(self):
        report = validate_local_detailed_balance(thermal_qubit(0.8, 0.3))
        assert report.max_residual <= 1e-12
        assert report.passed

    def test_hermitian_self_pair(self):
        rng = np.random.default_rng(1)
        l_op = random_hermitian(rng, 3)
        pair = JumpPair(forward=l_op, backward=l_op, entropy_current=0.0)
        model = LindbladModel(np.zeros((3, 3), complex), (pair,))
        assert validate_local_detailed_balance(model).max_residual <= 1e-12

    def test_perturbed_entropy_current_fails(self):
        gp, gm = 0.8, 0.3
        s_wrong = np.log(gp / gm) + 0.1
        pair = JumpPair(np.sqrt(gp) * SIGMA_PLUS, np.sqrt(gm) * SIGMA_MINUS, s_wrong)
        model = LindbladModel(np.zeros((2, 2), complex), (pair,))
        report = validate_local_detailed_balance(model)
        # direct evaluation: || sqrt(gp) s+ - e^{s/2} sqrt(gm) s+ || = sqrt(gp) |e^{0.05} - 1|
        expected = np.sqrt(gp) * abs(np.exp(0.05) - 1.0)
        assert report.residuals[0] == pytest.approx(expected, rel=1e-12)
        assert not report.passed


class TestDecomposePair:
    def test_read_off_normalization(self):
        pair = JumpPair(np.sqrt(2.0) * SIGMA_PLUS, SIGMA_MINUS, np.log(2.0))
        gamma_f, gamma_b, direction = decompose_pair(pair)
        assert gamma_f == pytest.approx(2.0)
        assert gamma_b == pytest.approx(1.0)
        np.testing.assert_allclose(direction, SIGMA_PLUS, atol=1e-12)

    def test_symmetric_split(self):
        rng = np.random.default_rng(2)
        l_op = random_hermitian(rng, 3)
        pair = JumpPair(l_op, l_op, 0.0)
        gamma_f, gamma_b, _ = decompose_pair(pair)
        norm_sq = np.linalg.norm(l_op) ** 2
        assert gamma_f == pytest.approx(norm_sq)
        assert gamma_b == pytest.approx(norm_sq)

    def test_scaling_homogeneity(self):
        pair = JumpPair(np.sqrt(2.0) * SIGMA_PLUS, SIGMA_MINUS, np.log(2.0))
        scaled = JumpPair(3.0 * pair.forward, 3.0 * pair.backward, pair.entropy_current)
        gf0, gb0, dir0 = decompose_pair(pair)
        gf1, gb1, dir1 = decompose_pair(scaled)
        assert gf1 == pytest.approx(9.0 * gf0)
        assert gb1 == pytest.approx(9.0 * gb0)
        np.testing.assert_allclose(dir0, dir1, atol=1e-12)

    def test_zero_operator(self):
        pair = JumpPair(np.zeros((2, 2)), np.zeros((2, 2)), 0.0)
        with pytest.raises(DegeneratePairError):
            decompose_pair(pair)

    def test_ratio_matches_entropy_current(self):
        rng = np.random.default_rng(3)
        model = random_model(rng, 4, 2)
        for pair in model.jump_pairs:
            gamma_f, gamma_b, _ = decompose_pair(pair)
            assert np.log(gamma_f / gamma_b) == pytest.approx(pair.entropy_current, abs=1e-10)


class TestGeneratorApplication:
    def test_dissipator_zero_at_steady_state(self):
        model = thermal_qubit(0.4, 1.1)
        out = apply_dissipator(model, gibbs_state(0.4, 1.1))
        assert np.linalg.norm(out) <= 1e-12

    def test_no_jumps(self):
        model = LindbladModel(np.diag([0.0, 1.0]).astype(complex), ())
        state = random_state(np.random.default_rng(4), 2)
        assert np.linalg.norm(apply_dissipator(model, state)) == 0.0

    def test_decay_from_excited(self):
        gamma = 0.7
        model = decay_qubit(gamma)
        out = apply_dissipator(model, excited_state())
        expected = gamma * np.diag([1.0, -1.0])
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_adjoint_unital(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            model = random_model(rng, int(rng.integers(2, 6)), 2)
            out = apply_adjoint_liouvillian(model, np.eye(model.dim, dtype=complex))
            assert np.linalg.norm(out) <= 1e-12

    def test_trace_preservation(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            model, state, _ = random_instance(rng)
            assert abs(np.trace(apply_liouvillian(model, state))) <= 1e-12

    def test_hamiltonian_commutes_with_itself(self):
        ham = np.diag([0.0, 1.0, 2.5]).astype(complex)
        model = LindbladModel(ham, ())
        assert np.linalg.norm(apply_adjoint_liouvillian(model, ham)) == 0.0

    def test_adjointness(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            model, state, _ = random_instance(rng)
            a = random_hermitian(rng, model.dim) + 1j * random_hermitian(rng, model.dim)
            lhs = np.vdot(a, apply_liouvillian(model, state))
            rhs = np.vdot(apply_adjoint_liouvillian(model, a), state.rho)
            scale = np.linalg.norm(a) * np.linalg.norm(state.rho)
            assert abs(lhs - rhs) <= 1e-10 * scale

    @pytest.mark.parametrize("apply", [apply_dissipator, apply_adjoint_dissipator,
                                       apply_liouvillian, apply_adjoint_liouvillian])
    def test_stack_matches_one_at_a_time(self, apply):
        rng = np.random.default_rng(8)
        model = random_model(rng, 5, 2)
        stack = np.array([random_hermitian(rng, 5) + 1j * random_hermitian(rng, 5) for _ in range(3)])
        together = apply(model, stack)
        assert together.shape == stack.shape
        for a, out in zip(stack, together):
            single = apply(model, a)
            assert np.linalg.norm(out - single) <= 1e-14 * np.linalg.norm(single)
        state = random_state(rng, 5)
        np.testing.assert_array_equal(apply(model, state), apply(model, state.rho))
        with pytest.raises(DimMismatchError):
            apply(model, np.zeros((3, 4, 4), dtype=complex))
        with pytest.raises(DimMismatchError):
            apply(model, random_state(rng, 4))


def oracle_models():
    """Complex models at d = 2..8, the exactly real collective model at
    N = 2..4 and the embedding of a reversible rate matrix."""
    rng = np.random.default_rng(60)
    models = [pytest.param(random_model(rng, d, 2), id=f"complex-d{d}") for d in range(2, 9)]
    models += [pytest.param(build_collective_model(CollectiveModelParams(n, gamma_plus=0.7,
                                                                         gamma_minus=1.3)),
                            id=f"collective-N{n}") for n in (2, 3, 4)]
    embedding, _ = quantize_rate_matrix(random_reversible_rate_matrix(rng, 4))
    return models + [pytest.param(embedding, id="embedding-n4")]


class TestGeneratorOracle:
    """The one generator, through every ``apply_*`` and the ``trace`` and
    ``norm_bound`` that pick the propagation route, against the Kronecker
    matrix of ``oracles.superoperator``."""

    APPLY = {(True, True): apply_adjoint_liouvillian, (True, False): apply_adjoint_dissipator,
             (False, True): apply_liouvillian, (False, False): apply_dissipator}

    @pytest.mark.parametrize("hamiltonian", [True, False])
    @pytest.mark.parametrize("heisenberg", [True, False])
    @pytest.mark.parametrize("model", oracle_models())
    def test_matches_kronecker_matrix(self, model, heisenberg, hamiltonian):
        d = model.dim
        # the dissipator is the generator of the same jumps with H = 0
        reference = model if hamiltonian else LindbladModel(np.zeros((d, d)), model.jump_pairs)
        sup = superoperator(reference, adjoint=heisenberg)
        rng = np.random.default_rng(d)
        ops = rng.normal(size=(3, d, d)) + 1j * rng.normal(size=(3, d, d))
        gen = lindblad._generator(model, heisenberg, hamiltonian)
        # every block shape the kernel serves: a stack, a lone operator (its
        # own (d, 1, d) layout) and the real d^2 basis block that the dense
        # route passes to the generator itself
        basis = np.eye(d * d).reshape(-1, d, d)
        for block, got in ((ops, self.APPLY[heisenberg, hamiltonian](model, ops)),
                           (ops[0], self.APPLY[heisenberg, hamiltonian](model, ops[0])),
                           (basis, gen(basis))):
            expected = (block.reshape(-1, d * d) @ sup.T).reshape(block.shape)
            assert got.shape == block.shape
            assert np.linalg.norm(got - expected) <= 1e-13 * np.linalg.norm(expected)
        assert abs(gen.trace - np.trace(sup)) <= 1e-13 * abs(np.trace(sup))
        assert gen.norm_bound >= max(np.linalg.norm(sup, 1), np.linalg.norm(sup, np.inf))


def kernel_models():
    """Complex models at d = 3, 8 and 32, the 240 real single-entry jumps of
    a 16-state classical embedding, a 5-state one with a complex pair added,
    and a model without jumps."""
    rng = np.random.default_rng(61)
    models = [pytest.param(random_model(rng, d, 2), id=f"complex-d{d}") for d in (3, 8, 32)]
    embedding, _ = quantize_rate_matrix(random_reversible_rate_matrix(rng, 16))
    small, _ = quantize_rate_matrix(random_reversible_rate_matrix(rng, 5))
    mixed = LindbladModel(random_hermitian(rng, 5),
                          small.jump_pairs + random_model(rng, 5, 1).jump_pairs)
    no_jumps = LindbladModel(random_hermitian(rng, 4), ())
    return models + [pytest.param(embedding, id="embedding-n16"),
                     pytest.param(mixed, id="mixed-d5"), pytest.param(no_jumps, id="no-jumps-d4")]


class TestGeneratorKernel:
    """``_Generator.block`` on the (d, B, d) layout and ``__call__`` on a
    (B, d, d) stack, against the d^2 x d^2 Kronecker matrix of
    ``oracles.superoperator``, for the block sizes the routes pass: one
    operator, two, the d projectors of a table and the real d^2 basis of the
    dense build. The dense builds of the 16-state embedding (16 of its 240
    jumps a slice) and of the d = 32 models (one jump a slice) are the
    blocks whose stacked product goes in slices."""

    @pytest.mark.parametrize("heisenberg", [True, False])
    @pytest.mark.parametrize("model", kernel_models())
    def test_matches_kronecker_matrix(self, model, heisenberg):
        d = model.dim
        sup = superoperator(model, adjoint=heisenberg)
        gen = lindblad._generator(model, heisenberg)
        rng = np.random.default_rng(d)
        stacks = [rng.normal(size=(b, d, d)) + 1j * rng.normal(size=(b, d, d)) for b in (1, 2, d)]
        for stack in [*stacks, np.eye(d * d).reshape(-1, d, d)]:
            expected = (stack.reshape(-1, d * d) @ sup.T).reshape(stack.shape)
            cols = np.ascontiguousarray(stack.transpose(1, 0, 2))
            for got in (gen(stack), gen.block(cols).transpose(1, 0, 2)):
                assert got.shape == stack.shape
                assert np.linalg.norm(got - expected) <= 1e-14 * np.linalg.norm(expected)
        lone = stacks[0][0]
        expected = (sup @ lone.ravel()).reshape(d, d)
        assert np.linalg.norm(gen(lone) - expected) <= 1e-14 * np.linalg.norm(expected)

    @pytest.mark.parametrize("heisenberg", [True, False])
    def test_stack_keeps_the_jumps_dtype(self, heisenberg):
        # real jumps stay real, so the real basis block of the dense build
        # takes real products; one complex jump makes the whole stack complex
        embedding, mixed, no_jumps = (p.values[0] for p in kernel_models()[3:])
        gen = lindblad._generator(embedding, heisenberg)
        assert gen.outer.shape == gen.inner.shape == (240, 16, 16)
        assert gen.outer.dtype == gen.inner.dtype == np.float64
        gen = lindblad._generator(mixed, heisenberg)
        assert gen.outer.dtype == gen.inner.dtype == np.complex128
        gen = lindblad._generator(no_jumps, heisenberg)
        assert gen.outer.shape == gen.inner.shape == (0, 4, 4)

    def test_many_jumps_stay_within_one_dense_work_array(self):
        # in one piece, the stacked product of the embedding's dense build
        # (K = 240, B = 256) would take 120 MiB; a slice takes at most one
        # work array, and the output block the rest of the allowance
        gen = lindblad._generator(kernel_models()[3].values[0], heisenberg=True)
        basis = np.ascontiguousarray(np.eye(256).reshape(-1, 16, 16).transpose(1, 0, 2))
        tracemalloc.start()
        try:
            gen.block(basis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 16 * lindblad.DENSE_MAX_SIZE**2


class TestPropagation:
    def test_zero_time_identity(self):
        model = thermal_qubit()
        state = excited_state()
        assert propagate(model, state, 0.0) is state

    def test_analytic_decay(self):
        gamma = 0.6
        model = decay_qubit(gamma)
        for t in (0.1, 0.5, 2.0):
            final = propagate(model, excited_state(), t)
            assert final.rho[1, 1].real == pytest.approx(np.exp(-gamma * t), abs=1e-8)

    def test_positivity(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            model, state, _ = random_instance(rng)
            final = propagate(model, state, float(rng.uniform(0, 2)))
            assert np.linalg.eigvalsh(final.rho)[0] >= -1e-8

    def test_semigroup(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            model, state, _ = random_instance(rng)
            one_shot = propagate(model, state, 0.9)
            two_step = propagate(model, propagate(model, state, 0.4), 0.5)
            assert np.linalg.norm(one_shot.rho - two_step.rho) <= 1e-8

    def test_integrator_matches_exponential(self):
        rng = np.random.default_rng(10)
        model, state, _ = random_instance(rng)
        via_expm = propagate(model, state, 0.7)
        via_ivp = integrated(model, state, 0.7, heisenberg=False)
        assert np.linalg.norm(via_expm.rho - via_ivp) <= 1e-8

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            propagate(thermal_qubit(), excited_state(), -0.1)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_trace_drift_beyond_tolerance_raises(self, seed):
        # |tr - 1| before renormalisation grows about linearly with t:
        # 0.4-2.2e-11 at t = 1e5 and 0.8-1.8e-8 at t = 1e8 on these models
        rng = np.random.default_rng(seed)
        model = random_model(rng, 4 + seed % 3, 2)
        state = random_state(rng, model.dim)
        propagate(model, state, 1e5)
        with pytest.raises(TracePreservationError, match="trace"):
            propagate(model, state, 1e8)

    def test_bulk_invariants(self):
        # 1000 random models and full-rank states: trace preservation,
        # Hermiticity of L(rho), and valid propagated states
        rng = np.random.default_rng(11)
        for _ in range(1000):
            model, state, _ = random_instance(rng, max_dim=6, max_pairs=3)
            drho = apply_liouvillian(model, state)
            assert abs(np.trace(drho)) <= 1e-11
            assert np.linalg.norm(drho - drho.conj().T) <= 1e-11 * max(np.linalg.norm(drho), 1.0)
            final = propagate(model, state, float(rng.uniform(0.0, 1.0)))
            assert abs(np.trace(final.rho).real - 1.0) <= 1e-9
            assert np.linalg.norm(final.rho - final.rho.conj().T) <= 1e-9
            assert np.linalg.eigvalsh(final.rho)[0] >= -1e-8


class TestLargeDimensionPath:
    def test_integrator_takes_over_beyond_exponential_limit(self):
        # dimension 70 runs on the same matrix-free route as every other
        # dimension; there is no dimension limit
        from quasitur.degeneracy import (
            CollectiveModelParams,
            build_collective_model,
            build_plus_minus_state,
        )
        params = CollectiveModelParams(n_levels=35)
        model = build_collective_model(params)
        state = build_plus_minus_state(params, "+")
        evolved = propagate(model, state, 0.05)
        assert abs(np.trace(evolved.rho).real - 1.0) <= 1e-9
        assert np.linalg.eigvalsh(evolved.rho)[0] >= -1e-8
        x = np.diag(np.linspace(-1.0, 1.0, model.dim)).astype(complex)
        lhs = np.trace(heisenberg_propagator(model, 0.05)(x) @ state.rho)
        rhs = np.trace(x @ evolved.rho)
        assert abs(lhs - rhs) <= 1e-9


class TestHeisenbergPropagation:
    def test_identity_fixed_point(self):
        model = thermal_qubit()
        for dt in (0.0, 0.3, 1.7):
            out = heisenberg_propagator(model, dt)(np.eye(2, dtype=complex))
            np.testing.assert_allclose(out, np.eye(2), atol=1e-10)

    def test_zero_time(self):
        model = thermal_qubit()
        x = random_hermitian(np.random.default_rng(12), 2)
        np.testing.assert_allclose(heisenberg_propagator(model, 0.0)(x), x, atol=1e-14)

    def test_subnormal_lag_returns_input(self):
        rng = np.random.default_rng(14)
        model, _, _ = random_instance(rng)
        stack = np.array([random_hermitian(rng, model.dim) for _ in range(3)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = heisenberg_propagator(model, 1e-310)(stack)
        assert np.array_equal(out, stack) and out is not stack

    def test_tiny_normal_lag_returns_input(self):
        # lags just above the subnormal range: onenormest would divide by
        # subnormal entries of t L X, with or without jumps
        tiny = np.finfo(float).tiny
        for seed in range(1, 9):
            rng = np.random.default_rng(seed)
            model, _, _ = random_instance(rng)
            stack = np.array([random_hermitian(rng, model.dim) for _ in range(3)])
            for m in (model, LindbladModel(model.hamiltonian, ())):
                for lag in (tiny, 2.3e-308, 1e-307, 1e-306):
                    with warnings.catch_warnings():
                        warnings.simplefilter("error")
                        out = heisenberg_propagator(m, lag)(stack)
                    assert np.array_equal(out, stack)

    def test_duality(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            model, state, _ = random_instance(rng)
            x = random_hermitian(rng, model.dim)
            dt = float(rng.uniform(0, 1))
            lhs = np.trace(heisenberg_propagator(model, dt)(x) @ state.rho)
            rhs = np.trace(x @ propagate(model, state, dt).rho)
            assert abs(lhs - rhs) <= 1e-9


class TestMatrixFreeRoute:
    """Propagation, by whichever route the cost estimate picks, against the
    dense exponential of the Kronecker superoperator, the reference oracle."""

    @pytest.mark.parametrize("dim", [2, 6, 16, 32])
    def test_propagate_matches_dense_expm(self, dim):
        rng = np.random.default_rng(200 + dim)
        model = random_model(rng, dim, 3)
        state = random_state(rng, dim)
        expected = dense_propagate(model, state.rho[None], 0.3, adjoint=False)[0]
        got = propagate(model, state, 0.3).rho
        assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)

    @pytest.mark.parametrize("dim", [2, 6, 16, 32])
    def test_heisenberg_stack_and_lambda_grid_match_dense_expm(self, dim):
        rng = np.random.default_rng(300 + dim)
        model = random_model(rng, dim, 3)
        state = random_state(rng, dim)
        obs = ObservableDecomposition.from_operator(random_observable(rng, dim))
        stack = np.array([random_hermitian(rng, dim) for _ in range(4)] + list(obs.projectors))
        expected = dense_propagate(model, stack, 0.3, adjoint=True)
        got = heisenberg_propagator(model, 0.3)(stack)
        errors = np.linalg.norm(got - expected, axis=(1, 2))
        assert np.all(errors <= 1e-12 * np.linalg.norm(expected, axis=(1, 2)))

        lams = np.linspace(-2.0, 2.0, 9)
        reference = phase_generating(lambda ops: dense_propagate(model, ops, 0.3, adjoint=True),
                                     obs, state, lams)
        values = generating_function(model, state, obs, lams, 0.3)
        assert values.shape == lams.shape
        assert np.max(np.abs(values - reference)) <= 1e-12 * np.max(np.abs(reference))
        assert generating_function(model, state, obs, lams[2], 0.3) == pytest.approx(values[2], abs=1e-14)

    def test_model_without_jump_pairs(self):
        rng = np.random.default_rng(41)
        ham = random_hermitian(rng, 6)
        model = LindbladModel(ham, ())
        state = random_state(rng, 6)
        x = random_hermitian(rng, 6)
        unitary = scipy.linalg.expm(-1j * ham * 0.8)
        closed_rho = unitary @ state.rho @ unitary.conj().T
        closed_x = unitary.conj().T @ x @ unitary
        for got, closed, oracle in (
                (propagate(model, state, 0.8).rho, closed_rho,
                 dense_propagate(model, state.rho[None], 0.8, adjoint=False)[0]),
                (heisenberg_propagator(model, 0.8)(x), closed_x,
                 dense_propagate(model, x[None], 0.8, adjoint=True)[0])):
            assert np.linalg.norm(got - oracle) <= 1e-12 * np.linalg.norm(oracle)
            assert np.linalg.norm(got - closed) <= 1e-12 * np.linalg.norm(closed)

    def test_zero_time_on_a_stack(self):
        rng = np.random.default_rng(42)
        model = random_model(rng, 4, 2)
        stack = np.array([random_hermitian(rng, 4) for _ in range(3)])
        out = heisenberg_propagator(model, 0.0)(stack)
        np.testing.assert_array_equal(out, stack)
        assert out is not stack

    def test_stack_matches_one_at_a_time(self):
        rng = np.random.default_rng(43)
        model = random_model(rng, 5, 2)
        stack = np.array([random_hermitian(rng, 5) for _ in range(3)])
        for apply in (heisenberg_propagator(model, 0.4),
                      lambda a: integrated(model, a, 0.4, heisenberg=True)):
            together = apply(stack)
            for x, out in zip(stack, together):
                np.testing.assert_allclose(out, apply(x), atol=1e-9)

    def test_rejects_wrong_shape(self):
        apply = heisenberg_propagator(thermal_qubit(), 0.1)
        with pytest.raises(DimMismatchError):
            apply(np.eye(3, dtype=complex))
        with pytest.raises(DimMismatchError):
            apply(np.zeros((2, 2, 2, 2), dtype=complex))

    def test_reproducible_and_leaves_global_rng_alone(self, lindblad_expm, lindblad_expm_multiply):
        # the norm estimator inside expm_multiply draws from numpy's legacy
        # global generator; results must not depend on its state. The d <= 6
        # instance takes the dense route, the d = 16 one expm_multiply, as
        # its generator is too large for one Taylor segment.
        rng = np.random.default_rng(44)
        small = random_instance(rng, max_dim=6, max_pairs=3)[:2]
        large = (random_model(rng, 16, 2), random_state(rng, 16))
        assert taylor_bound(large[0], 0.9) > lindblad.TAYLOR_SEGMENT_NORM
        for model, state in (small, large):
            saved = np.random.get_state()
            try:
                np.random.seed(1)
                expected_draw = np.random.random()
                np.random.seed(1)
                first = propagate(model, state, 0.9).rho
                assert np.random.random() == expected_draw
                np.random.seed(2)
                second = propagate(model, state, 0.9).rho
            finally:
                np.random.set_state(saved)
            np.testing.assert_array_equal(first, second)
        # two dense exponentials, both of the small instance's generator
        assert lindblad_expm == [(small[0].dim ** 2,) * 2] * 2
        assert lindblad_expm_multiply == [(256, 1)] * 2


def d32_projector_block():
    """A random d = 32 model with 3 pairs and the 32 projectors of a random
    observable."""
    rng = np.random.default_rng(32)
    model = random_model(rng, 32, 3)
    return model, ObservableDecomposition.from_operator(random_observable(rng, 32)).projectors


def taylor_bound(model: LindbladModel, dt: float) -> float:
    """The bound on ||dt L - mu I||_1 that decides whether one Taylor
    segment suffices."""
    gen = lindblad._generator(model, heisenberg=True)
    return dt * (gen.norm_bound + abs(gen.trace) / model.dim**2)


def stiff_instance(dim: int, scale: float):
    """A random model with its first pair's rates multiplied by ``scale``, a
    state, and the projectors of a random observable."""
    rng = np.random.default_rng(500 + dim)
    model = random_model(rng, dim, 3)
    first, *rest = model.jump_pairs
    root = np.sqrt(scale)
    stiff = JumpPair(root * first.forward, root * first.backward, first.entropy_current)
    obs = ObservableDecomposition.from_operator(random_observable(rng, dim))
    return LindbladModel(model.hamiltonian, (stiff, *rest)), random_state(rng, dim), obs.projectors


def stiff_tolerance(scale: float, dt: float) -> float:
    """Absolute tolerance on operators of norm <= 1; at rates x 1e6 over
    dt = 1 both routes lose digits to the 2^20-fold scaling and squaring."""
    return 1e-9 if (scale, dt) == (1e6, 1.0) else 1e-12


class TestStiffGenerators:
    """Both propagators with one pair's rates multiplied by 1e4 and 1e6,
    against oracles that share no exponential algorithm with the dense route.

    Rates x 1e6 over dt = 1 is held against mpmath at d = 3 only: the action
    oracle needs millions of Taylor steps there, and a 40-digit exponential
    of the 36 x 36 generator takes seconds.
    """

    @pytest.mark.parametrize("scale, dt", [(1e4, 0.01), (1e4, 1.0), (1e6, 0.01)])
    @pytest.mark.parametrize("dim", [3, 6, 8])
    def test_matches_action_oracle(self, dim, scale, dt):
        model, state, projectors = stiff_instance(dim, scale)
        tol = stiff_tolerance(scale, dt)
        got = heisenberg_propagator(model, dt)(projectors)
        assert np.max(np.abs(got - action_propagate(model, projectors, dt, adjoint=True))) <= tol
        rho = propagate(model, state, dt).rho
        expected = action_propagate(model, state.rho[None], dt, adjoint=False)[0]
        assert np.max(np.abs(rho - expected)) <= tol

    @pytest.mark.parametrize("dt", [0.01, 1.0])
    @pytest.mark.parametrize("scale", [1e4, 1e6])
    def test_matches_mpmath_at_d3(self, scale, dt):
        model, state, projectors = stiff_instance(3, scale)
        tol = stiff_tolerance(scale, dt)
        ops = np.concatenate([projectors, state.rho[None]])
        for adjoint in (True, False):
            expected = mpmath_propagate(model, ops, dt, adjoint)
            got = lindblad._propagator(model, dt, heisenberg=adjoint)(ops)
            assert np.max(np.abs(got - expected)) <= tol


class TestRouteChoice:
    """Which route a propagator takes, seen from the dense exponentials and
    the ``expm_multiply`` calls ``quasitur.lindblad`` makes."""

    def test_projector_block_at_d32_takes_action_route(self, lindblad_expm, lindblad_expm_multiply):
        # at dt = 0.05 one Taylor segment suffices: no dense exponential and
        # no expm_multiply, with expm_multiply's result to rounding
        model, projectors = d32_projector_block()
        assert len(projectors) == 32
        got = heisenberg_propagator(model, 0.05)(projectors)
        assert lindblad_expm == []
        assert lindblad_expm_multiply == []
        assert np.max(np.abs(got - action_propagate(model, projectors, 0.05, adjoint=True))) <= 1e-13
        gen = lindblad._generator(model, heisenberg=True)

        def action(of):
            return lambda x: 0.05 * of(x.T.reshape(-1, 32, 32)).reshape(-1, 1024).T

        op = LinearOperator((1024, 1024), matvec=action(gen), matmat=action(gen),
                            rmatmat=action(lindblad._generator(model, heisenberg=False)),
                            dtype=complex)
        with lindblad._pinned_legacy_rng():
            scipy_action = expm_multiply(op, projectors.reshape(32, -1).T, traceA=0.05 * gen.trace)
        scipy_action = scipy_action.T.reshape(projectors.shape)
        assert np.linalg.norm(got - scipy_action) <= 1e-15 * np.linalg.norm(scipy_action)

    def test_taylor_stop_takes_pinned_terms(self, monkeypatch):
        # the stop test is the inf-norm of the (d^2, B) block; the counts are
        # those of the stack-by-stack kernel it replaced, so a norm over the
        # wrong axis of the (d, B, d) layout shows here
        blocks = []
        block = lindblad._Generator.block
        monkeypatch.setattr(lindblad._Generator, "block",
                            lambda gen, cols: blocks.append(cols) or block(gen, cols))
        model, projectors = d32_projector_block()
        heisenberg_propagator(model, 0.05)(projectors)
        assert [cols.shape for cols in blocks] == [(32, 32, 32)] * 19
        blocks.clear()
        state = random_state(np.random.default_rng(33), 32)
        propagate(model, state, 0.05)
        assert [cols.shape for cols in blocks] == [(32, 1, 32)] * 18
        # a lone operator is its own (d, 1, d) block: neither route copies it
        assert np.shares_memory(blocks[0], state.rho)
        lindblad._generator(model, heisenberg=False)(state.rho)
        assert np.shares_memory(blocks[-1], state.rho)

    @pytest.mark.parametrize("dt, one_segment", [(0.1, True), (0.2, False)])
    def test_lags_either_side_of_one_segment(self, lindblad_expm_multiply, dt, one_segment):
        model, projectors = d32_projector_block()
        assert (taylor_bound(model, dt) <= lindblad.TAYLOR_SEGMENT_NORM) == one_segment
        got = heisenberg_propagator(model, dt)(projectors)
        assert lindblad_expm_multiply == ([] if one_segment else [(1024, 32)])
        assert np.max(np.abs(got - action_propagate(model, projectors, dt, adjoint=True))) <= 1e-12

    def test_d64_takes_action_route(self, lindblad_expm):
        assert not lindblad._dense_is_cheaper(64, 1e12, 10**6)
        rng = np.random.default_rng(64)
        model = random_model(rng, 64, 1)
        state = random_state(rng, 64)
        propagate(model, state, 0.01)
        assert lindblad_expm == []

    def test_stiff_generator_takes_dense_route(self, lindblad_expm):
        # every rate x 1e4 at d = 6: the action route took 68,000 generator
        # column applications over dt = 1
        rng = np.random.default_rng(46)
        model = random_model(rng, 6, 3)
        stiff = LindbladModel(model.hamiltonian, tuple(
            JumpPair(1e2 * p.forward, 1e2 * p.backward, p.entropy_current)
            for p in model.jump_pairs))
        propagate(stiff, random_state(rng, 6), 1.0)
        assert lindblad_expm == [(36, 36)]

    def test_dense_exponential_formed_once_per_propagator(self, lindblad_expm):
        rng = np.random.default_rng(45)
        model = random_model(rng, 4, 2)
        stack = np.array([random_hermitian(rng, 4) for _ in range(3)])
        apply = heisenberg_propagator(model, 0.1)
        assert lindblad_expm == []
        first = apply(stack)
        np.testing.assert_array_equal(apply(stack), first)
        assert lindblad_expm == [(16, 16)]


class TestStateValidation:
    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            QuantumState(np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError):
            QuantumState(np.diag([1.2, -0.2]).astype(complex))

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            QuantumState(np.diag([0.7, 0.7]).astype(complex))

    def test_pure_state(self):
        state = QuantumState.pure([1.0, 1.0])
        np.testing.assert_allclose(state.rho, 0.5 * np.ones((2, 2)), atol=1e-12)

    def test_pure_zero_vector_rejected(self):
        # used to divide by the zero norm and report non-finite entries
        with pytest.raises(ValueError, match="vector is zero"):
            QuantumState.pure(np.zeros(3))

    def test_spectrum_reconstructs_rho(self, eigendecompositions):
        rho = random_state(np.random.default_rng(9), 5).rho
        eigendecompositions.clear()
        state = QuantumState(rho)
        assert eigendecompositions == [(5, 5)]
        p, u = state.eigenvalues, state.eigenvectors
        assert np.all(np.diff(p) >= 0)
        np.testing.assert_allclose((u * p) @ u.conj().T, state.rho, rtol=0, atol=1e-12)


class TestModelFiles:
    def test_round_trip(self, tmp_path):
        model = thermal_qubit(0.8, 0.3, omega=2.0)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        np.testing.assert_allclose(loaded.hamiltonian, model.hamiltonian, atol=0)
        assert len(loaded.jump_pairs) == 1
        np.testing.assert_allclose(loaded.jump_pairs[0].forward, model.jump_pairs[0].forward, atol=0)
        assert loaded.jump_pairs[0].entropy_current == model.jump_pairs[0].entropy_current

    def test_schema_shape(self):
        data = model_to_dict(thermal_qubit())
        assert set(data) == {"dim", "hamiltonian", "jump_pairs"}
        assert data["dim"] == 2
        entry = data["hamiltonian"][0][0]
        assert isinstance(entry, list) and len(entry) == 2
        pair = data["jump_pairs"][0]
        assert set(pair) == {"forward", "backward", "entropy_current"}
        # valid JSON end to end
        rebuilt = model_from_dict(json.loads(json.dumps(data)))
        np.testing.assert_allclose(rebuilt.hamiltonian, thermal_qubit().hamiltonian)

    def test_dim_mismatch_rejected(self):
        data = model_to_dict(thermal_qubit())
        data["dim"] = 3
        with pytest.raises(DimMismatchError):
            model_from_dict(data)
