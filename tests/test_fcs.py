from functools import partial

import numpy as np
import pytest
import scipy.linalg

from quasitur.ensembles import random_instance, random_model, random_state, random_unitary
from quasitur.errors import CommutationViolatedError, DimMismatchError
from quasitur.fcs import (
    commutation_check,
    compare_rates,
    default_lambda_grid,
    fcs_generating_rate,
    predicted_rate_difference,
    tmh_generating_rate,
)
from quasitur.lindblad import JumpPair, LindbladModel, QuantumState, apply_adjoint_liouvillian
from quasitur.quasiprob import (
    ObservableDecomposition,
    flux_matrix,
    generating_function,
    short_time_moment,
)

from oracles import (
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_X,
    SIGMA_Z,
    decay_qubit,
    derivative_moment,
    excited_state,
    ladder_model,
    ladder_state,
    phase_generating,
    sine_series,
    thermal_qubit,
)


class TestCommutationCheck:
    def test_lowering_operator_weight(self):
        # [sigma_z, sigma_-] = -2 sigma_-
        model = thermal_qubit(0.5, 1.0)
        result = commutation_check(model, SIGMA_Z)
        assert result.ok
        # jump order: raising first, then lowering
        assert result.weights[0] == pytest.approx(2.0, abs=1e-12)
        assert result.weights[1] == pytest.approx(-2.0, abs=1e-12)

    def test_identity_observable(self):
        model = thermal_qubit()
        result = commutation_check(model, np.eye(2, dtype=complex))
        assert result.ok
        assert result.weights == (0.0, 0.0)

    @pytest.mark.parametrize("scale", [1.0, 1e-16, 1e-100, 1e-300])
    def test_weights_do_not_depend_on_the_scale_of_the_jumps(self, scale):
        # [diag(0, 1), sigma_+] = sigma_+ and [diag(0, 1), sigma_-] = -sigma_-; only an
        # exactly zero member, as of an irreversible classical edge, has weight 0
        pairs = (JumpPair(scale * SIGMA_PLUS, scale * SIGMA_MINUS, 0.0),
                 JumpPair(SIGMA_PLUS, np.zeros((2, 2)), 0.0))
        result = commutation_check(LindbladModel(np.zeros((2, 2)), pairs), np.diag([0.0, 1.0]))
        assert result.ok
        assert result.weights == pytest.approx((1.0, -1.0, 1.0, 0.0), abs=1e-12)

    def test_verdict_does_not_depend_on_the_scale_of_jumps_or_observable(self):
        # [diag(0, 1), sigma_+-] = +-sigma_+- at every scale; [sigma_x, sigma_-] is not
        # proportional to sigma_- at any scale
        for jump_scale in (1.0, 1e-4, 1e-8, 1e-12, 1e-100):
            pair = JumpPair(jump_scale * SIGMA_PLUS, jump_scale * SIGMA_MINUS, 0.0)
            model = LindbladModel(np.zeros((2, 2)), (pair,))
            for x_scale in (1.0, 1e-8, 1e-12):
                assert commutation_check(model, x_scale * np.diag([0.0, 1.0])).ok
                assert not commutation_check(model, x_scale * SIGMA_X).ok

    def test_rounding_of_a_rotated_basis_does_not_decide_the_verdict(self):
        # in a rotated basis X carries rounding of order eps ||X||, which the spread of a
        # constant X (or of one shifted by 1e8) does not exceed; the relation still holds
        u = random_unitary(np.random.default_rng(0), 2)

        def rotated(a):
            return u @ a @ u.conj().T

        def observable(x):
            x = rotated(x)
            return (x + x.conj().T) / 2

        pair = JumpPair(rotated(SIGMA_PLUS), rotated(SIGMA_MINUS), 0.0)
        model = LindbladModel(np.zeros((2, 2)), (pair,))
        for scale in (1.0, 1e-12, 1e8):
            assert commutation_check(model, observable(scale * np.eye(2))).ok
        assert commutation_check(model, observable(np.diag([1e8, 1e8 + 1.0]))).ok
        assert not commutation_check(model, observable(SIGMA_X + 1e8 * np.eye(2))).ok

    @pytest.mark.parametrize("offset", [1e4, 1e6, 1e8])
    def test_an_offset_of_the_observable_costs_no_digits(self, offset):
        # the weights come from [X_c, L_k] with X_c = X - c I, so X + a I gives the weights,
        # residuals, rate residual and even-moment gaps of X; [X, L_k] would cost them eps a
        model, state = ladder_model(), ladder_state()
        x = np.diag([0.0, 1.0, 2.0])
        base, shifted = commutation_check(model, x), commutation_check(model, x + offset * np.eye(3))
        assert shifted.ok
        np.testing.assert_allclose(shifted.weights, base.weights, rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(shifted.residuals, base.residuals, rtol=0.0, atol=1e-15)
        base, shifted = compare_rates(model, state, x), compare_rates(model, state, x + offset * np.eye(3))
        assert shifted.residual == pytest.approx(base.residual, rel=0.0, abs=1e-15)
        np.testing.assert_allclose(shifted.even_moment_differences, base.even_moment_differences,
                                   rtol=0.0, atol=1e-15)

    def test_transverse_observable_fails(self):
        # [sigma_x, sigma_-] is proportional to sigma_z, not sigma_-
        model = thermal_qubit()
        result = commutation_check(model, SIGMA_X)
        assert not result.ok
        assert result.failed_index == 0

    def test_consequence_identities(self):
        model = ladder_model()
        x = np.diag([0.0, 1.0, 2.0]).astype(complex)
        result = commutation_check(model, x)
        assert result.ok
        grid = default_lambda_grid(ObservableDecomposition.from_operator(x))
        for w, op in zip(result.weights, model.jump_operators):
            op_d = op.conj().T
            assert np.linalg.norm(x @ op_d - op_d @ x + w * op_d) <= 1e-10
            ldl = op_d @ op
            assert np.linalg.norm(x @ ldl - ldl @ x) <= 1e-10
            for lam in grid:
                phase = scipy.linalg.expm(1j * lam * x)
                conj = phase @ op @ phase.conj().T
                assert np.linalg.norm(np.exp(1j * lam * w) * op - conj) <= 1e-9


class TestGeneratingRates:
    def test_fcs_rate_zero_frequency(self):
        model = thermal_qubit()
        state = random_state(np.random.default_rng(0), 2)
        weights = commutation_check(model, SIGMA_Z).weights
        assert fcs_generating_rate(model, state, weights, 0.0) == pytest.approx(0.0, abs=1e-14)

    def test_fcs_rate_zero_weights(self):
        model = thermal_qubit()
        state = random_state(np.random.default_rng(1), 2)
        for lam in (-2.0, 0.7):
            assert fcs_generating_rate(model, state, (0.0, 0.0), lam) == \
                pytest.approx(0.0, abs=1e-14)

    def test_fcs_rate_single_jump(self):
        gamma = 0.8
        model = decay_qubit(gamma)
        for lam in (0.3, 1.1):
            expected = (np.exp(-2j * lam) - 1.0) * gamma
            assert fcs_generating_rate(model, excited_state(), (-2.0, 0.0), lam) == \
                pytest.approx(expected, abs=1e-12)

    def test_weight_count_enforced(self):
        model = thermal_qubit()
        with pytest.raises(DimMismatchError):
            fcs_generating_rate(model, excited_state(), (1.0,), 0.5)

    def test_tmh_rate_at_zero(self):
        model = ladder_model()
        assert tmh_generating_rate(model, ladder_state(), np.diag([0.0, 1.0, 2.0]).astype(complex),
                                   0.0) == pytest.approx(0.0, abs=1e-13)

    def test_tmh_rate_matches_lag_derivative(self):
        # second-order one-sided difference of the generating function in the lag
        model = ladder_model()
        state = ladder_state()
        obs = ObservableDecomposition.from_operator(np.diag([0.0, 1.0, 2.0]).astype(complex))
        h = 1e-5
        for lam in (0.4, -1.2):
            g0 = generating_function(model, state, obs, lam, 0.0)
            g1 = generating_function(model, state, obs, lam, h)
            g2 = generating_function(model, state, obs, lam, 2 * h)
            fd = (-3.0 * g0 + 4.0 * g1 - g2) / (2 * h)
            assert tmh_generating_rate(model, state, obs, lam) == pytest.approx(fd, abs=1e-6)

    def test_tmh_second_moment(self):
        model = ladder_model()
        state = ladder_state()
        obs = ObservableDecomposition.from_operator(np.diag([0.0, 1.0, 2.0]).astype(complex))
        m_flux = short_time_moment(flux_matrix(model, state, obs), 2).value
        # the phase-operator rate, independent of the flux matrix
        rate = partial(phase_generating, partial(apply_adjoint_liouvillian, model), obs, state)
        m_fd = derivative_moment(rate, 2, obs.max_gap).real
        assert m_fd == pytest.approx(m_flux, abs=1e-6)

    def test_rates_equal_without_hamiltonian(self):
        model = ladder_model(with_hamiltonian_coherence=False)
        # diagonal H commutes with X: difference must vanish even for coherent rho
        state = ladder_state()
        obs = ObservableDecomposition.from_operator(np.diag([0.0, 1.0, 2.0]).astype(complex))
        result = commutation_check(model, obs)
        assert result.ok
        for lam in default_lambda_grid(obs, 11):
            g = tmh_generating_rate(model, state, obs, lam)
            gf = fcs_generating_rate(model, state, result.weights, lam)
            assert g == pytest.approx(gf, abs=1e-12)


class TestCompareRates:
    def test_diagonal_hamiltonian_zero_difference(self):
        model = thermal_qubit(0.5, 1.0)
        raw = np.array([[0.6, 0.2 + 0.1j], [0.2 - 0.1j, 0.4]], dtype=complex)
        state = QuantumState(raw / np.trace(raw).real)
        comparison = compare_rates(model, state, SIGMA_Z)
        np.testing.assert_allclose(comparison.predicted_difference, 0.0, atol=1e-12)
        np.testing.assert_allclose(comparison.tmh_rate, comparison.fcs_rate, atol=1e-10)
        assert comparison.residual <= 1e-10

    def test_ladder_with_coherence(self):
        model = ladder_model()
        state = ladder_state()
        obs = ObservableDecomposition.from_operator(np.diag([0.0, 1.0, 2.0]).astype(complex))
        comparison = compare_rates(model, state, obs)
        # odd-order difference present, sine formula exact, even moments agree
        assert np.max(np.abs(comparison.predicted_difference)) > 1e-3
        assert comparison.residual <= 1e-8
        assert all(gap <= 1e-6 for gap in comparison.even_moment_differences)

    def test_commutation_violation_raises(self):
        model = thermal_qubit()
        state = random_state(np.random.default_rng(2), 2)
        with pytest.raises(CommutationViolatedError, match="jump 0 violates the commutation"):
            compare_rates(model, state, SIGMA_X)

    def test_difference_is_odd_and_imaginary(self):
        model = ladder_model()
        state = ladder_state()
        obs = ObservableDecomposition.from_operator(np.diag([0.0, 1.0, 2.0]).astype(complex))
        grid = default_lambda_grid(obs)
        pred = predicted_rate_difference(model, state, obs, grid)
        np.testing.assert_allclose(pred.real, 0.0, atol=1e-12)
        np.testing.assert_allclose(pred, -pred[::-1], atol=1e-12)

    def test_csv(self, tmp_path):
        model = ladder_model()
        comparison = compare_rates(model, ladder_state(), np.diag([0.0, 1.0, 2.0]).astype(complex))
        path = tmp_path / "rates.csv"
        comparison.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("lambda,tmh_re,tmh_im")
        assert len(lines) == 1 + len(comparison.lambda_grid)
        cells = lines[1].split(",")
        assert float(cells[0]) == pytest.approx(comparison.lambda_grid[0])


# the transform of H's fluxes against the per-eigenvector sine series, rel. max(|series|, 1):
# at most 7.06e-16 on random_instance seeds 0-199
SINE_SERIES_TOL = 7.1e-16


def _sine_series(model, state, obs, lams):
    return sine_series(model.hamiltonian, state.rho, obs.eigenvalues, obs.eigenvectors, lams)


class TestPredictedDifference:
    def test_is_the_sine_series(self):
        for seed in range(200):
            model, state, x = random_instance(np.random.default_rng(seed))
            obs = ObservableDecomposition.from_operator(x)
            grid = default_lambda_grid(obs)
            series = _sine_series(model, state, obs, grid)
            got = predicted_rate_difference(model, state, obs, grid)
            assert np.max(np.abs(got - series)) <= SINE_SERIES_TOL * max(np.max(np.abs(series)), 1.0)

    def test_lambda_convention(self):
        # util.per_lambda, as for every rate: a scalar gives a complex, a complex lambda is taken
        model, state, x = random_instance(np.random.default_rng(5))
        obs = ObservableDecomposition.from_operator(x)
        scalar = predicted_rate_difference(model, state, obs, 0.4)
        assert type(scalar) is complex
        assert scalar == predicted_rate_difference(model, state, obs, np.array([0.4]))[0]
        lams = np.array([0.4 + 0.3j, -1.1 - 0.2j])
        series = _sine_series(model, state, obs, lams)
        got = predicted_rate_difference(model, state, obs, lams)
        assert np.max(np.abs(got - series)) <= SINE_SERIES_TOL * max(np.max(np.abs(series)), 1.0)
        assert predicted_rate_difference(model, state, obs, 0.4 + 0.3j) == got[0]

    def test_within_a_merged_class_the_terms_weigh_one(self):
        # eigenvalues 1 and 1 + 5e-10 merge into one class; the difference reads classes, as
        # the quasiprobability rate does, so the pairs within it weigh e^0 and add nothing,
        # while the per-eigenvector series keeps their sin(l 5e-10) terms
        rng = np.random.default_rng(3)
        u = random_unitary(rng, 4)
        x = u @ np.diag([0.0, 1.0, 1.0 + 5e-10, 2.5]) @ u.conj().T
        obs = ObservableDecomposition.from_operator((x + x.conj().T) / 2)
        assert [len(m) for m in obs.class_members] == [1, 2, 1]
        model, state = random_model(rng, 4, 2), random_state(rng, 4)
        grid = default_lambda_grid(obs)
        got = predicted_rate_difference(model, state, obs, grid)
        class_values = np.repeat(obs.class_values, [len(m) for m in obs.class_members])
        series = sine_series(model.hamiltonian, state.rho, class_values, obs.eigenvectors, grid)
        assert np.max(np.abs(got - series)) <= SINE_SERIES_TOL * max(np.max(np.abs(series)), 1.0)
        assert np.max(np.abs(got - _sine_series(model, state, obs, grid))) > 1e-12

    def test_builds_no_generator(self, generator_builds):
        obs = ObservableDecomposition.from_operator(np.diag([0.0, 1.0, 2.0]))
        predicted_rate_difference(ladder_model(), ladder_state(), obs, default_lambda_grid(obs))
        assert generator_builds == []


class TestLambdaGrid:
    def test_scaled_by_largest_gap(self):
        obs = ObservableDecomposition.from_operator(np.diag([0.0, 3.0]).astype(complex))
        grid = default_lambda_grid(obs)
        assert len(grid) == 41
        assert grid[0] == pytest.approx(-np.pi / 3.0)
        assert grid[-1] == pytest.approx(np.pi / 3.0)

    def test_constant_observable(self):
        obs = ObservableDecomposition.from_operator(np.eye(2, dtype=complex))
        grid = default_lambda_grid(obs)
        assert grid[-1] == pytest.approx(np.pi)
