import sys

import numpy as np
import pytest
import scipy.linalg

import quasitur.lindblad
import quasitur.quasiprob
from quasitur.classical import (
    ClassicalModel,
    classical_generating_function,
    classical_joint_moment,
    classical_model_from_dict,
    classical_model_to_dict,
    classical_propagate,
    classical_short_time_second_moment,
    load_classical_model,
    quantize_and_compare,
    quantize_rate_matrix,
    save_classical_model,
    validate_rate_matrix,
)
from quasitur.ensembles import random_probability, random_reversible_rate_matrix
from quasitur.lindblad import validate_local_detailed_balance
from quasitur.numdiff import derivative_moment

TWO_STATE = np.array([[-1.0, 2.0], [1.0, -2.0]])


class TestClassicalPropagate:
    def test_zero_time(self):
        p0 = np.array([0.6, 0.4])
        np.testing.assert_allclose(classical_propagate(TWO_STATE, p0, 0.0), p0, atol=0)

    def test_long_time_stationary(self):
        # null-space oracle: stationary distribution of [[-1,2],[1,-2]] is (2/3, 1/3)
        p_inf = classical_propagate(TWO_STATE, np.array([1.0, 0.0]), 50.0)
        np.testing.assert_allclose(p_inf, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)

    def test_doubly_stochastic_keeps_uniform(self):
        r = np.array([[-1.0, 0.5, 0.5], [0.5, -1.0, 0.5], [0.5, 0.5, -1.0]])
        uniform = np.full(3, 1.0 / 3.0)
        for t in (0.1, 1.0, 10.0):
            np.testing.assert_allclose(classical_propagate(r, uniform, t), uniform, atol=1e-12)

    def test_invalid_rate_matrix(self):
        with pytest.raises(ValueError):
            validate_rate_matrix(np.array([[-1.0, -0.5], [1.0, 0.5]]))
        with pytest.raises(ValueError):
            validate_rate_matrix(np.array([[-1.0, 0.0], [2.0, 0.0]]))


class TestJointMoments:
    def test_zero_lag(self):
        p = np.array([0.5, 0.5])
        f = np.array([0.0, 1.0])
        for n in (1, 2, 3):
            assert classical_joint_moment(TWO_STATE, p, f, n, 0.0) == pytest.approx(0.0, abs=1e-14)

    def test_constant_function(self):
        p = np.array([0.3, 0.7])
        f = np.array([2.0, 2.0])
        assert classical_joint_moment(TWO_STATE, p, f, 2, 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_short_lag_rate(self):
        # from state 1 with f = (0, 1): moment/dt -> R_21 = 1
        p = np.array([1.0, 0.0])
        f = np.array([0.0, 1.0])
        dt = 1e-6
        value = classical_joint_moment(TWO_STATE, p, f, 2, dt) / dt
        assert value == pytest.approx(1.0, abs=1e-5)

    def test_first_moment_short_lag_is_mean_rate(self):
        rng = np.random.default_rng(7)
        r = random_reversible_rate_matrix(rng, 3)
        p = random_probability(rng, 3)
        f = rng.normal(size=3)
        dt = 1e-6
        value = classical_joint_moment(r, p, f, 1, dt) / dt
        assert value == pytest.approx(float(f @ (r @ p)), abs=1e-5)


class TestClassicalGeneratingFunction:
    def test_normalization(self):
        p = np.array([0.25, 0.75])
        f = np.array([0.0, 2.0])
        assert classical_generating_function(TWO_STATE, p, f, 0.0, 0.7) == pytest.approx(1.0, abs=1e-14)
        assert classical_generating_function(TWO_STATE, p, f, 1.3, 0.0) == pytest.approx(1.0, abs=1e-14)

    def test_fd_moments_match_double_sum(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            r = random_reversible_rate_matrix(rng, 4)
            p = random_probability(rng, 4)
            f = rng.normal(size=4)
            scale = float(f.max() - f.min())
            dt = 0.2
            for n in (1, 2, 3, 4):
                fd = derivative_moment(
                    lambda lam: classical_generating_function(r, p, f, lam, dt), n, scale).real
                exact = classical_joint_moment(r, p, f, n, dt)
                assert fd == pytest.approx(exact, abs=1e-6)

    def test_moments_ignore_an_offset(self):
        # dyadic values, so that adding the offset is exact in floating point
        rng = np.random.default_rng(1)
        for _ in range(10):
            r = random_reversible_rate_matrix(rng, 4)
            p = random_probability(rng, 4)
            f = rng.integers(-8, 9, size=4) / 4
            scale = max(float(f.max() - f.min()), 1e-6)
            for n in (1, 2, 3, 4):
                m, m_shifted = (derivative_moment(
                    lambda lam: classical_generating_function(r, p, g, lam, 0.2), n, scale).real
                    for g in (f, f + 1e4))
                assert abs(m_shifted - m) <= 1e-12 * max(abs(m), 1.0)


class TestShortTimeSecondMoment:
    def test_constant_function(self):
        p = np.array([0.5, 0.5])
        assert classical_short_time_second_moment(TWO_STATE, p, np.array([3.0, 3.0])) == \
            pytest.approx(0.0, abs=1e-14)

    def test_two_state_hand_value(self):
        value = classical_short_time_second_moment(TWO_STATE, np.array([1.0, 0.0]),
                                                   np.array([0.0, 1.0]))
        assert value == pytest.approx(1.0, abs=1e-14)

    def test_forms_agree(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            r = random_reversible_rate_matrix(rng, n)
            p = random_probability(rng, n)
            f = rng.normal(size=n)
            double_sum = classical_short_time_second_moment(r, p, f, method="double_sum")
            operator = classical_short_time_second_moment(r, p, f, method="operator")
            assert double_sum == pytest.approx(operator, abs=1e-12)
            assert double_sum >= 0.0


class TestQuantization:
    def test_two_state_embedding(self):
        report = quantize_and_compare(TWO_STATE, np.array([0.6, 0.4]), np.array([0.0, 1.0]))
        assert report.reversible
        assert report.max_residual <= 1e-10
        assert report.tur_slack is not None and report.tur_slack >= -1e-9

    def test_embedded_model_detailed_balance(self):
        model, reversible = quantize_rate_matrix(TWO_STATE)
        assert reversible
        assert validate_local_detailed_balance(model).max_residual <= 1e-14

    def test_random_reversible_chains(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(3, 6))
            r = random_reversible_rate_matrix(rng, n)
            p = random_probability(rng, n)
            f = rng.normal(size=n)
            report = quantize_and_compare(r, p, f)
            assert report.max_residual <= 1e-9
            assert report.tur_slack >= -1e-9

    def test_constant_observable_zero_residuals(self):
        rng = np.random.default_rng(11)
        r = random_reversible_rate_matrix(rng, 3)
        p = random_probability(rng, 3)
        report = quantize_and_compare(r, p, np.full(3, 1.7))
        assert report.fluctuation_residual <= 1e-12
        assert report.tur_bound == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_observable_values(self):
        # repeated f values: states stay distinct labels
        rng = np.random.default_rng(3)
        r = random_reversible_rate_matrix(rng, 4)
        p = random_probability(rng, 4)
        f = np.array([1.0, 0.0, 1.0, 2.0])
        report = quantize_and_compare(r, p, f)
        assert report.max_residual <= 1e-9

    def test_irreversible_edge_flagged(self):
        # one-way cycle 1 -> 2 -> 3 -> 1
        r = np.array([
            [-1.0, 0.0, 2.0],
            [1.0, -3.0, 0.0],
            [0.0, 3.0, -2.0],
        ])
        validate_rate_matrix(r)
        p = np.array([0.5, 0.3, 0.2])
        f = np.array([0.0, 1.0, 2.0])
        report = quantize_and_compare(r, p, f)
        assert not report.reversible
        assert report.epr is None and report.tur_bound is None
        # statistics still reproduced
        assert report.max_residual <= 1e-9


    @pytest.mark.parametrize("delta_ts", [(0.01, 0.1), (0.05,), (0.01, 0.1, 0.5)])
    def test_one_propagator_per_table_and_lambda_grid(self, monkeypatch, delta_ts):
        builds = []
        original = quasitur.lindblad.heisenberg_propagator

        def counting(*args, **kwargs):
            builds.append(args)
            return original(*args, **kwargs)

        expm_calls = []
        lindblad_expm_calls = []
        dense_expm = scipy.linalg.expm

        def watched_expm(*args, **kwargs):
            expm_calls.append(args)
            frame = sys._getframe(1)
            while frame is not None:
                if frame.f_globals.get("__name__") == "quasitur.lindblad":
                    lindblad_expm_calls.append(args)
                frame = frame.f_back
            return dense_expm(*args, **kwargs)

        monkeypatch.setattr(quasitur.quasiprob, "heisenberg_propagator", counting)
        monkeypatch.setattr(quasitur.lindblad, "heisenberg_propagator", counting)
        monkeypatch.setattr(scipy.linalg, "expm", watched_expm)
        rng = np.random.default_rng(61)
        r = random_reversible_rate_matrix(rng, 4)
        report = quantize_and_compare(r, random_probability(rng, 4), rng.normal(size=4),
                                      delta_ts=delta_ts)
        assert report.max_residual <= 1e-9
        assert len(builds) == 2 * len(delta_ts)
        assert lindblad_expm_calls == []
        # the classical side: one exp(R dt) for the table and one for the lambda grid, per lag
        assert len(expm_calls) == 2 * len(delta_ts)


class TestClassicalModelFiles:
    def test_round_trip(self, tmp_path):
        model = ClassicalModel(rate_matrix=TWO_STATE, p0=np.array([0.6, 0.4]),
                               f=np.array([0.0, 1.0]))
        path = tmp_path / "classical.json"
        save_classical_model(model, path)
        loaded = load_classical_model(path)
        np.testing.assert_allclose(loaded.rate_matrix, model.rate_matrix, atol=0)
        np.testing.assert_allclose(loaded.p0, model.p0, atol=0)
        np.testing.assert_allclose(loaded.f, model.f, atol=0)

    def test_schema(self):
        model = ClassicalModel(rate_matrix=TWO_STATE, p0=np.array([0.6, 0.4]),
                               f=np.array([0.0, 1.0]))
        data = classical_model_to_dict(model)
        assert set(data) == {"rate_matrix", "p0", "f"}
        rebuilt = classical_model_from_dict(data)
        np.testing.assert_allclose(rebuilt.rate_matrix, TWO_STATE, atol=0)
