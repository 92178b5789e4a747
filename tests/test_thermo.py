import json

import numpy as np
import pytest

from quasitur.ensembles import random_hermitian, random_instance, random_state
from quasitur.errors import SingularStateError, ZeroFluctuationError
from quasitur.lindblad import (
    LindbladModel,
    QuantumState,
    apply_dissipator,
    propagate,
)
from quasitur.operators import kubo_integral
from quasitur.thermo import (
    currents,
    entropy_production_rate,
    floored_state,
    geometric_representation,
    quantum_diffusivity,
    tur_bound,
    tur_check,
    tur_report_dict,
)

from oracles import (
    SIGMA_Z,
    decay_qubit,
    excited_state,
    gibbs_state,
    thermal_qubit,
    von_neumann_entropy,
)


class TestCurrents:
    def test_identity_observable(self):
        rng = np.random.default_rng(0)
        model, state, _ = random_instance(rng)
        cur = currents(model, state, np.eye(model.dim, dtype=complex))
        assert cur.hamiltonian_part == pytest.approx(0.0, abs=1e-12)
        assert cur.dissipative_part == pytest.approx(0.0, abs=1e-12)

    def test_stationary_energy_current(self):
        model = thermal_qubit(0.5, 1.0)
        cur = currents(model, gibbs_state(0.5, 1.0), model.hamiltonian)
        assert cur.hamiltonian_part == pytest.approx(0.0, abs=1e-12)
        assert cur.dissipative_part == pytest.approx(0.0, abs=1e-12)

    def test_decay_hand_values(self):
        gamma = 0.7
        cur = currents(decay_qubit(gamma), excited_state(), SIGMA_Z)
        assert cur.dissipative_part == pytest.approx(-2 * gamma, abs=1e-12)
        assert cur.hamiltonian_part == pytest.approx(0.0, abs=1e-12)

    def test_total_matches_adjoint_generator(self):
        rng = np.random.default_rng(1)
        from quasitur.lindblad import apply_adjoint_liouvillian
        for _ in range(20):
            model, state, x = random_instance(rng)
            cur = currents(model, state, x)
            total = np.trace(apply_adjoint_liouvillian(model, x) @ state.rho).real
            assert cur.total == pytest.approx(total, abs=1e-10)

    def test_dissipative_part_adjoint_route(self):
        rng = np.random.default_rng(2)
        from quasitur.lindblad import apply_adjoint_dissipator
        for _ in range(20):
            model, state, x = random_instance(rng)
            via_state = np.trace(x @ apply_dissipator(model, state.rho)).real
            via_observable = np.trace(apply_adjoint_dissipator(model, x) @ state.rho).real
            assert via_state == pytest.approx(via_observable, abs=1e-10)


class TestEntropyProductionRate:
    def test_equilibrium(self):
        model = thermal_qubit(0.5, 1.0)
        assert entropy_production_rate(model, gibbs_state(0.5, 1.0)) == pytest.approx(0.0, abs=1e-9)

    def test_finite_difference_oracle(self):
        # sigma at t0 equals d/dt S(t) + entropy flow, with dS/dt from central
        # differences of the exactly propagated entropy
        model = thermal_qubit(0.5, 1.0)
        rho0 = QuantumState(np.diag([0.75, 0.25]).astype(complex))
        t0, h = 0.1, 1e-4
        state_t0 = propagate(model, rho0, t0)
        sigma = entropy_production_rate(model, state_t0)
        s_plus = von_neumann_entropy(propagate(model, rho0, t0 + h))
        s_minus = von_neumann_entropy(propagate(model, rho0, t0 - h))
        ds_dt = (s_plus - s_minus) / (2 * h)
        flow = sum(
            s * np.trace(op.conj().T @ op @ state_t0.rho).real
            for op, s in zip(model.jump_operators, model.entropy_currents)
        )
        assert sigma > 0
        assert sigma == pytest.approx(ds_dt + flow, abs=1e-6)

    def test_unitary_only(self):
        rng = np.random.default_rng(3)
        model = LindbladModel(random_hermitian(rng, 3), ())
        state = random_state(rng, 3)
        assert entropy_production_rate(model, state) == pytest.approx(0.0, abs=1e-12)

    def test_non_negative_on_balanced_models(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            model, state, _ = random_instance(rng)
            assert entropy_production_rate(model, state) >= -1e-9

    def test_singular_state_without_floor(self):
        model = thermal_qubit()
        with pytest.raises(SingularStateError):
            entropy_production_rate(model, excited_state(), eigenvalue_floor=None)

    def test_flooring_applies(self):
        state, applied = floored_state(excited_state(), 1e-12)
        assert applied
        assert np.linalg.eigvalsh(state.rho)[0] > 0
        full_rank = random_state(np.random.default_rng(5), 3)
        same, applied = floored_state(full_rank, 1e-12)
        assert not applied
        assert same is full_rank


class TestDiffusivity:
    def test_no_jumps(self):
        rng = np.random.default_rng(6)
        model = LindbladModel(random_hermitian(rng, 3), ())
        state = random_state(rng, 3)
        x = random_hermitian(rng, 3)
        assert quantum_diffusivity(model, state, x) == pytest.approx(0.0, abs=1e-12)

    def test_decay_hand_value(self):
        gamma = 0.7
        value = quantum_diffusivity(decay_qubit(gamma), excited_state(), SIGMA_Z)
        assert value == pytest.approx(2 * gamma, abs=1e-12)

    def test_half_fluctuation_identity(self):
        from quasitur.quasiprob import ObservableDecomposition, flux_matrix, short_time_moment
        rng = np.random.default_rng(7)
        for _ in range(50):
            model, state, x = random_instance(rng)
            d_x = quantum_diffusivity(model, state, x)
            m_x = short_time_moment(
                flux_matrix(model, state, ObservableDecomposition.from_operator(x)), 2
            ).value
            assert abs(2 * d_x - m_x) <= 1e-10 * max(abs(m_x), 1.0)


class TestTURBound:
    def test_regular(self):
        assert tur_bound(0.3, 0.2) == pytest.approx(2 * 0.3**2 / 0.2, rel=1e-15)
        assert tur_bound(-0.3, 0.2) == tur_bound(0.3, 0.2)

    def test_vanishing_fluctuation_and_current(self):
        assert tur_bound(1e-11, 1e-15) == 0.0
        assert tur_bound(0.0, 0.0) == 0.0

    def test_vanishing_fluctuation_with_current_raises(self):
        with pytest.raises(ZeroFluctuationError):
            tur_bound(1e-6, 1e-15)


class TestTURCheck:
    def test_stationary_qubit(self):
        model = thermal_qubit(0.5, 1.0)
        report = tur_check(model, gibbs_state(0.5, 1.0), model.hamiltonian)
        assert report.bound == pytest.approx(0.0, abs=1e-12)
        assert report.epr == pytest.approx(0.0, abs=1e-9)
        assert report.slack == pytest.approx(0.0, abs=1e-9)

    def test_random_ensemble_never_violates(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            model, state, x = random_instance(rng)
            report = tur_check(model, state, x)
            assert report.slack >= -1e-9 * max(report.epr, 1.0)
            assert report.diffusivity_bound == pytest.approx(report.bound, abs=1e-10 * max(report.bound, 1.0))

    def test_constant_observable_zero_bound(self):
        rng = np.random.default_rng(9)
        model, state, _ = random_instance(rng)
        report = tur_check(model, state, np.eye(model.dim, dtype=complex))
        assert report.bound == 0.0
        assert report.fluctuation == pytest.approx(0.0, abs=1e-12)

    def test_rank_deficient_state_floored(self):
        model = thermal_qubit(0.5, 1.0)
        report = tur_check(model, excited_state(), model.hamiltonian)
        assert report.floor_applied
        assert np.isfinite(report.epr)
        assert report.slack >= -1e-9 * max(report.epr, 1.0)

    def test_report_dict(self):
        model = thermal_qubit(0.5, 1.0)
        state = QuantumState(np.diag([0.7, 0.3]).astype(complex))
        report = tur_check(model, state, model.hamiltonian)
        payload = tur_report_dict(report, model, model.hamiltonian)
        expected_keys = {
            "epr", "current", "fluctuation", "bound", "slack", "diffusivity",
            "diffusivity_bound", "eigenvalue_floor", "floor_applied",
            "model_hash", "observable_hash",
        }
        assert set(payload) == expected_keys
        json.dumps(payload)  # serializable
        assert payload["epr"] == report.epr


class TestGeometricRepresentation:
    def test_zero_force_at_equilibrium(self):
        model = thermal_qubit(0.5, 1.0)
        geo = geometric_representation(model, gibbs_state(0.5, 1.0))
        assert np.linalg.norm(geo.force_operator) <= 1e-10
        assert geo.epr_inner == pytest.approx(0.0, abs=1e-10)

    def test_matches_entropy_production(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            model, state, _ = random_instance(rng)
            sigma = entropy_production_rate(model, state)
            geo = geometric_representation(model, state)
            tol = 1e-8 * max(abs(sigma), 1.0)
            assert abs(geo.epr_inner - sigma) <= tol
            assert abs(geo.epr_norm - sigma) <= tol

    def test_anti_hermitian_blocks(self):
        rng = np.random.default_rng(11)
        model, state, _ = random_instance(rng)
        geo = geometric_representation(model, state)
        for op in (geo.current_operator, geo.force_operator):
            assert np.linalg.norm(op + op.conj().T) <= 1e-10 * max(np.linalg.norm(op), 1e-30)

    def test_weighted_force_gives_current(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            model, state, _ = random_instance(rng)
            geo = geometric_representation(model, state)
            mapped = kubo_integral(geo.weight, geo.force_operator)
            scale = max(np.linalg.norm(geo.current_operator), 1.0)
            assert np.linalg.norm(mapped - geo.current_operator) <= 1e-8 * scale

    def test_divergence_of_current_is_dissipator(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            model, state, _ = random_instance(rng)
            geo = geometric_representation(model, state)
            div = geo.divergence(geo.current_operator)
            target = apply_dissipator(model, state.rho)
            assert np.linalg.norm(div - target) <= 1e-9 * max(np.linalg.norm(target), 1.0)

    def test_cauchy_schwarz_chain(self):
        rng = np.random.default_rng(14)
        for _ in range(30):
            model, state, x = random_instance(rng)
            sigma = entropy_production_rate(model, state)
            geo = geometric_representation(model, state)
            grad_norm_sq = geo.weighted_norm_sq(geo.gradient(x))
            d_x = quantum_diffusivity(model, state, x)
            j_d = currents(model, state, x).dissipative_part
            assert grad_norm_sq <= d_x + 1e-9
            assert sigma * grad_norm_sq >= j_d**2 - 1e-9

    def test_requires_full_rank(self):
        model = thermal_qubit()
        with pytest.raises(SingularStateError):
            geometric_representation(model, excited_state())

    def test_requires_jump_pairs(self):
        model = LindbladModel(np.diag([0.0, 1.0]).astype(complex), ())
        with pytest.raises(ValueError):
            geometric_representation(model, random_state(np.random.default_rng(15), 2))
