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
from quasitur.errors import DimMismatchError, TracePreservationError
from quasitur.fcs import commutation_check
from quasitur.lindblad import validate_local_detailed_balance
from quasitur.util import EMBEDDING_TOL

from oracles import classical_generating, derivative_moment

TWO_STATE = np.array([[-1.0, 2.0], [1.0, -2.0]])
# one-way cycle 1 -> 2 -> 3 -> 1
ONE_WAY_CYCLE = np.array([
    [-1.0, 0.0, 2.0],
    [1.0, -3.0, 0.0],
    [0.0, 3.0, -2.0],
])
# the classical bridge's bound against 2 J^2 / m, rel. 4 |J| S / m: at most 2.17e-16 on
# n = 3-8, seeds 0-49 (1.89e-16 with J through the dissipator), 5.2e-14 rel. the bound
CURRENT_TOL = 2.2e-16
CHAIN = np.array([[-1.0, 2.0, 0.0], [1.0, -3.0, 1.0], [0.0, 1.0, -1.0]])
LENGTH_MISMATCHES = {
    "classical_joint_moment": lambda p, f: classical_joint_moment(CHAIN, p, f, 2, 0.1),
    "classical_generating_function": lambda p, f: classical_generating_function(CHAIN, p, f, 0.3, 0.1),
    "classical_short_time_second_moment": lambda p, f: classical_short_time_second_moment(CHAIN, p, f),
    "quantize_and_compare": lambda p, f: quantize_and_compare(CHAIN, p, f),
    "ClassicalModel": lambda p, f: ClassicalModel(rate_matrix=CHAIN, p0=p, f=f),
    # takes no f; at t = 0 it used to return p unchecked
    "classical_propagate t=0": lambda p, f: classical_propagate(CHAIN, p, 0.0),
    "classical_propagate t=0.1": lambda p, f: classical_propagate(CHAIN, p, 0.1),
}
LENGTH_CASES = [
    ("short p", [1.0], [0.0, 1.0, 3.0]),  # one probability broadcast over every state
    ("one f", [0.2, 0.3, 0.5], [1.0]),
    ("short f", [0.2, 0.3, 0.5], [0.0, 1.0]),
    ("long p", [0.2, 0.3, 0.5, 0.0], [0.0, 1.0, 3.0]),
]


@pytest.mark.parametrize("entry, p, f", [
    pytest.param(entry, p, f, id=f"{case}-{entry}")
    for case, p, f in LENGTH_CASES for entry in sorted(LENGTH_MISMATCHES)
    if case.endswith(" p") or not entry.startswith("classical_propagate")
])
def test_length_mismatch_raises(entry, p, f):
    with pytest.raises(DimMismatchError, match="for 3 states"):
        LENGTH_MISMATCHES[entry](np.array(p), np.array(f))


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


LAG_ENTRY_POINTS = {
    "classical_propagate": lambda t: classical_propagate(TWO_STATE, np.array([0.6, 0.4]), t),
    "classical_joint_moment": lambda t: classical_joint_moment(
        TWO_STATE, np.array([0.6, 0.4]), np.array([0.0, 1.0]), 2, t),
    "classical_generating_function": lambda t: classical_generating_function(
        TWO_STATE, np.array([0.6, 0.4]), np.array([0.0, 1.0]), 0.3, t),
}


@pytest.mark.parametrize("entry", sorted(LAG_ENTRY_POINTS))
@pytest.mark.parametrize("t", [1e10, 1e50])
def test_lost_probability_raises(entry, t):
    # exp(R t) columns sum to 1 only within 8e-7 at t = 1e10 and are NaN at
    # t = 1e50; both used to be returned, as [0.6666672, 0.3333336] and NaN
    with pytest.raises(TracePreservationError, match="columns sum to 1 only within"):
        LAG_ENTRY_POINTS[entry](t)


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


@pytest.mark.parametrize("offset", [0.0, 1e4])
def test_generating_function_matches_entrywise_phases(offset):
    # the transform of the joint table against < exp(R^T dt)(e^{ilf}) e^{-ilf} >_p
    # from midpoint-centered phases; Re l spans the bridge's grid [-pi, pi] / spread
    rng = np.random.default_rng(23)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        r = random_reversible_rate_matrix(rng, n)
        p = random_probability(rng, n)
        f = rng.normal(size=n)
        dt = float(rng.uniform(0.0, 2.0))
        lams = rng.uniform(-np.pi, np.pi, 8) / float(f.max() - f.min())
        prop = scipy.linalg.expm(r * dt)
        for lam in (lams, lams + 1j * rng.uniform(-3.0, 3.0, 8)):
            g = classical_generating_function(r, p, f + offset, lam, dt)
            reference = classical_generating(prop, p, f + offset, lam)
            assert np.all(np.abs(g - reference) <= 1e-14 * np.maximum(np.abs(reference), 1.0))


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
            double_sum = classical_short_time_second_moment(r, p, f)
            # the generator form < R^T(f^2) - 2 R^T(f) f >_p
            operator = float(np.sum((r.T @ f**2 - 2.0 * (r.T @ f) * f) * p))
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
        r = ONE_WAY_CYCLE
        validate_rate_matrix(r)
        p = np.array([0.5, 0.3, 0.2])
        f = np.array([0.0, 1.0, 2.0])
        report = quantize_and_compare(r, p, f)
        assert not report.reversible
        assert report.epr is None and report.tur_bound is None
        # statistics still reproduced
        assert report.max_residual <= 1e-9

    def test_irreversible_embedding_has_zero_weight_operators(self):
        # each one-way edge leaves a vanishing partner, which commutes with
        # any X at weight 0; a jump |j><i| has weight f_j - f_i
        model, reversible = quantize_rate_matrix(ONE_WAY_CYCLE)
        assert not reversible
        check = commutation_check(model, np.diag([0.0, 1.0, 2.0]).astype(complex))
        assert check.ok
        assert [i for i, op in enumerate(model.jump_operators) if not op.any()] == [1, 2, 5]
        assert [check.weights[i] for i in (1, 2, 5)] == [0.0, 0.0, 0.0]
        np.testing.assert_allclose([check.weights[i] for i in (0, 3, 4)], [1.0, -2.0, 1.0], atol=1e-14)

    def test_nearest_neighbour_chain_skips_absent_edges(self):
        r = np.array([
            [-1.0, 0.5, 0.0, 0.0],
            [1.0, -2.5, 1.5, 0.0],
            [0.0, 2.0, -3.5, 3.0],
            [0.0, 0.0, 2.0, -3.0],
        ])
        model, reversible = quantize_rate_matrix(r)
        assert reversible and len(model.jump_pairs) == 3
        report = quantize_and_compare(r, np.array([0.1, 0.2, 0.3, 0.4]), np.array([0.0, 1.0, 3.0, 2.0]))
        assert report.reversible
        assert report.max_residual <= EMBEDDING_TOL
        assert report.tur_slack >= 0.0


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
                    break
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
        # one propagator per lag: the table, whose transform is the lambda grid
        assert len(builds) == len(delta_ts)
        # n = 4 takes the dense route: one exp(tL) of the n^2 x n^2 generator per build
        assert len(lindblad_expm_calls) == len(builds)
        assert all(args[0].shape == (16, 16) for args in lindblad_expm_calls)
        # the classical side: one exp(R dt) per lag, likewise shared
        assert len(expm_calls) - len(lindblad_expm_calls) == len(delta_ts)


    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_bridge_lags_take_dense_route(self, lindblad_expm, n):
        rng = np.random.default_rng(70 + n)
        r = random_reversible_rate_matrix(rng, n)
        report = quantize_and_compare(r, random_probability(rng, n), rng.normal(size=n))
        assert report.max_residual <= 1e-9
        # one propagator per lag, one dense exponential each
        assert lindblad_expm == [(n * n, n * n)] * len(report.delta_ts)

    def test_builds_one_generator_per_lag_and_none_for_the_current(self, generator_builds):
        rng = np.random.default_rng(8)
        r = random_reversible_rate_matrix(rng, 4)
        report = quantize_and_compare(r, random_probability(rng, 4), rng.normal(size=4))
        assert report.reversible and report.tur_bound > 0.0
        # one Heisenberg generator per table; the current is a moment of the flux matrix
        assert generator_builds == [(True, True)] * len(report.delta_ts)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_bound_is_that_of_the_classical_current(self, n):
        # 2 J^2 / m with J = sum_ij (f_j - f_i) R_ji p_i and m the classical second moment;
        # J can cancel far below the sum S of its terms' magnitudes, so the error is held
        # against 4 |J| S / m, by how much rounding J at the scale S moves the bound
        for seed in range(50):
            rng = np.random.default_rng(seed)
            r = random_reversible_rate_matrix(rng, n)
            p, f = random_probability(rng, n), rng.normal(size=n)
            terms = np.subtract.outer(f, f) * r * p[None, :]
            current, scale = float(terms.sum()), float(np.abs(terms).sum())
            m = classical_short_time_second_moment(r, p, f)
            bound = quantize_and_compare(r, p, f).tur_bound
            assert abs(bound - 2.0 * current**2 / m) <= CURRENT_TOL * 4.0 * abs(current) * scale / m


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
