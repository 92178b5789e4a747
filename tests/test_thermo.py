import json
from dataclasses import asdict

import mpmath
import numpy as np
import pytest

from quasitur.degeneracy import (
    CollectiveModelParams,
    balanced_p_g,
    build_collective_model,
    build_diagonal_state,
    build_plus_minus_state,
)
from quasitur.ensembles import (random_hermitian, random_instance, random_model, random_state,
                                random_unitary)
from quasitur.errors import (DimMismatchError, NotHermitianError, SingularStateError,
                             ZeroFluctuationError)
from quasitur.lindblad import (
    JumpPair,
    LindbladModel,
    QuantumState,
    apply_adjoint_dissipator,
    apply_dissipator,
    propagate,
)
from quasitur.quasiprob import ObservableDecomposition, short_time_fluctuation_operator_form
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
from quasitur.util import operator_hash

from oracles import (
    SIGMA_Z,
    decay_qubit,
    enlarged,
    epr_full_rotation,
    epr_reference,
    excited_state,
    gibbs_network,
    gibbs_state,
    kubo_integral,
    ladder_model,
    ladder_state,
    pair_blocks,
    schnakenberg_reference,
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

    def test_flooring_failure_raises(self):
        # -1e-11 passes the density check; a 1e-12 floor leaves it negative
        state = QuantumState(np.diag([0.5 + 1e-11, 0.5, -1e-11]).astype(complex))
        rng = np.random.default_rng(6)
        model, x = random_model(rng, 3, 2), random_hermitian(rng, 3)
        with pytest.raises(SingularStateError, match="after flooring"):
            entropy_production_rate(model, state, 1e-12)
        with pytest.raises(SingularStateError, match="after flooring"):
            tur_check(model, state, x, 1e-12)

    def test_flooring_applies(self):
        state, applied = floored_state(excited_state(), 1e-12)
        assert applied
        assert np.linalg.eigvalsh(state.rho)[0] > 0
        full_rank = random_state(np.random.default_rng(5), 3)
        same, applied = floored_state(full_rank, 1e-12)
        assert not applied
        assert same is full_rank


def _rank_deficient_state(rng, dim: int, rank: int) -> QuantumState:
    """Random populations on ``rank`` of the basis states, exact zeros elsewhere.

    A diagonal state keeps its zero eigenvalues exact. In a rotated basis
    they would carry rounding of order 1e-17, which moves the floored
    eigenvalues eps = 1e-12 by 1e-5 relative and sigma by about 1e-6
    relative on any route.
    """
    p = np.zeros(dim)
    p[rng.choice(dim, size=rank, replace=False)] = rng.uniform(0.1, 1.0, size=rank)
    return QuantumState(np.diag(p / p.sum()).astype(complex))


class TestEntropyProductionOracles:
    @pytest.mark.parametrize("n", [64, 128, 256])
    def test_collective_plus_closed_form(self, n):
        # In the eigenbasis of the floored |+> state only <e,+|L_+|g,+> = N
        # and its reverse survive, so with gamma_+ = gamma_- = 1 (s = 0)
        # sigma = N^2 (p_g' - p_e') (ln p_g' - ln p_e'), p' = (1 - d eps) p + eps.
        eps = 1e-12
        template = CollectiveModelParams(n_levels=n)
        params = CollectiveModelParams(n_levels=n, p_g=balanced_p_g(template, n, 0.5))
        model = build_collective_model(params)
        sigma = entropy_production_rate(model, build_plus_minus_state(params, "+"), eps)
        with mpmath.workdps(50):
            scale = 1 - 2 * n * mpmath.mpf(eps)
            p_g = scale * mpmath.mpf(params.p_g) + eps
            p_e = scale * (1 - mpmath.mpf(params.p_g)) + eps
            exact = n**2 * (p_g - p_e) * (mpmath.log(p_g) - mpmath.log(p_e))
            assert abs((sigma - exact) / exact) <= 1e-13

    # The relative error of the full rotation (oracles.epr_full_rotation) on
    # each input of the closed form below, rounded up at the second digit:
    # (gamma_+, N) -> tolerance at p_g = 1/2 + 1/(4N), 0 and 1.
    PLUS_CLOSED_FORM_TOL = {
        (2.0, 16): (1.1e-15, 1.3e-16, 5.2e-16),
        (2.0, 64): (7.0e-15, 1.3e-16, 3.4e-15),
        (2.0, 256): (2.9e-14, 2.7e-16, 1.5e-14),
        (1e3, 16): (8.8e-16, 2.1e-16, 8.6e-16),
        (1e3, 64): (4.5e-15, 1.5e-16, 4.6e-15),
        (1e3, 256): (8.8e-15, 2.5e-16, 8.9e-15),
    }

    @pytest.mark.parametrize("n", [16, 64, 256])
    @pytest.mark.parametrize("gamma_plus", [2.0, 1e3])
    def test_collective_plus_closed_form_with_entropy_current(self, gamma_plus, n):
        # As above with s = ln gamma_+ (gamma_- = 1): the jump out of |g,+>
        # weighs gamma_+ N^2 p_g' (s + ln p_g' - ln p_e'), its reverse
        # gamma_- N^2 p_e' (-s + ln p_e' - ln p_g'). At p_g in {0, 1} the empty
        # band vector joins the bulk, and the surviving jump is one out of or
        # into it.
        eps = 1e-12
        p_g_values = (balanced_p_g(CollectiveModelParams(n_levels=n), n, 0.5), 0.0, 1.0)
        for p_g, tol in zip(p_g_values, self.PLUS_CLOSED_FORM_TOL[gamma_plus, n]):
            params = CollectiveModelParams(n_levels=n, gamma_plus=gamma_plus, p_g=p_g)
            sigma = entropy_production_rate(build_collective_model(params),
                                            build_plus_minus_state(params, "+"), eps)
            with mpmath.workdps(50):
                scale = 1 - 2 * n * mpmath.mpf(eps)
                p_g, p_e = scale * mpmath.mpf(p_g) + eps, scale * (1 - mpmath.mpf(p_g)) + eps
                s = mpmath.log(gamma_plus)
                exact = n**2 * (gamma_plus * p_g * (s + mpmath.log(p_g) - mpmath.log(p_e))
                                + p_e * (-s + mpmath.log(p_e) - mpmath.log(p_g)))
                assert abs((sigma - exact) / exact) <= tol

    def test_maximally_mixed_state_is_all_bulk(self):
        # rho = I/d in a rotated basis: the bulk is everything (m = 0), every
        # jump changes no entropy, and sigma = sum_k s_k ||L_k||_F^2 / d
        rng = np.random.default_rng(23)
        for dim in (2, 5, 8):
            model = random_model(rng, dim, 2)
            state = QuantumState._from_spectrum(np.eye(dim) / dim, np.full(dim, 1.0 / dim),
                                                random_unitary(rng, dim))
            exact = sum(s * np.linalg.norm(op) ** 2 / dim
                        for op, s in zip(model.jump_operators, model.entropy_currents))
            sigma = entropy_production_rate(model, state)
            assert sigma == pytest.approx(exact, rel=1e-12, abs=1e-14)
            assert sigma == pytest.approx(epr_full_rotation(model, state), rel=1e-12, abs=1e-14)

    def test_rank_one_state_has_bulk_of_all_but_one(self):
        # |psi><psi| from its spectrum: after the floor the bulk is d - 1, and
        # ln rho' = ln(1 - (d - 1) eps) |psi><psi| + ln(eps) (I - |psi><psi|)
        rng = np.random.default_rng(24)
        eps = 1e-12
        for dim in (2, 3, 6, 9):
            model = random_model(rng, dim, 2)
            basis = random_unitary(rng, dim)
            psi = basis[:, -1:]
            projector = psi @ psi.conj().T
            state = QuantumState._from_spectrum(projector, np.eye(dim)[-1], basis)
            rest = np.eye(dim) - projector
            log_rho = np.log(1 - (dim - 1) * eps) * projector + np.log(eps) * rest
            reference = epr_reference(model, (1 - (dim - 1) * eps) * projector + eps * rest, log_rho)
            sigma = entropy_production_rate(model, state, eps)
            assert sigma == pytest.approx(reference, rel=1e-12)
            assert sigma == pytest.approx(epr_full_rotation(model, state, eps), rel=1e-12)

    def test_weak_leak_out_of_the_bulk(self):
        # L swaps psi_1 and psi_2 (equal populations, so no entropy change)
        # and leaks a weak amplitude from a bulk vector b into psi_1; L^T
        # returns it. sigma = leak^2 (p_1 - p_b)(ln p_1 - ln p_b) is then
        # carried by the cross weights alone, which a difference of norms
        # (||row of V_M^T L||^2 - sum |C|^2) loses to 1e-8 against
        # ||L||^2 ~ 100, while the projected residuals keep it to 2e-12
        # (the full rotation: 5.8e-12 at d = 4)
        rng = np.random.default_rng(27)
        big, leak = 10.0, 1e-3
        for dim in (4, 6, 9):
            basis = np.linalg.qr(rng.normal(size=(dim, dim)))[0]
            p = np.full(dim, 0.1)
            p[-2:] = (1 - 0.1 * (dim - 2)) / 2
            psi_1, psi_2, b = basis[:, -1], basis[:, -2], basis[:, 0]
            jump = (big * (np.outer(psi_1, psi_2) + np.outer(psi_2, psi_1))
                    + leak * np.outer(psi_1, b))
            model = LindbladModel(np.zeros((dim, dim)), (JumpPair(jump, jump.T.copy(), 0.0),))
            rho = (basis * p) @ basis.T
            state = QuantumState._from_spectrum((rho + rho.T) / 2, p, basis)
            exact = leak**2 * (p[-1] - p[0]) * (np.log(p[-1]) - np.log(p[0]))
            assert entropy_production_rate(model, state) == pytest.approx(exact, rel=2e-12, abs=0)

    def test_bulk_free_states_match_the_full_rotation(self):
        # no repeated smallest eigenvalue, or a permutation basis: the same
        # weights as the full rotation, summed pair by pair (4.2e-16 apart)
        rng = np.random.default_rng(16)
        for _ in range(100):
            model, state, _ = random_instance(rng, max_dim=8)
            assert entropy_production_rate(model, state) == pytest.approx(
                epr_full_rotation(model, state), rel=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 16, 64, 256])
    def test_diagonal_state_closed_form(self, n):
        # populations p_g / N and p_e / N, and every jump |e,i><g,j| weighs
        # gamma_+: sigma = N (gamma_+ p_g - gamma_- p_e)(s + ln p_g - ln p_e).
        # Measured at most 3.8e-15 (epr_full_rotation, one jump at a time: 1.4e-14)
        params = CollectiveModelParams(n_levels=n, gamma_plus=0.8, gamma_minus=0.4, p_g=0.3)
        sigma = entropy_production_rate(build_collective_model(params),
                                        build_diagonal_state(params))
        with mpmath.workdps(50):
            gamma_plus, gamma_minus = mpmath.mpf(0.8), mpmath.mpf(0.4)
            p_g, p_e = mpmath.mpf(0.3), 1 - mpmath.mpf(0.3)
            exact = n * (gamma_plus * p_g - gamma_minus * p_e) * (
                mpmath.log(gamma_plus / gamma_minus) + mpmath.log(p_g) - mpmath.log(p_e))
            assert abs((sigma - exact) / exact) <= 3.8e-15

    # (gamma_+, N) -> the relative error measured at the balance, rounded up
    # at the second digit; beside it, that of the per-jump sum with the bulk
    # as one group, which the pair sum replaced
    BALANCED_CLOSED_FORM_TOL = {
        (2.0, 16): 1.6e-14,     # 5.8e-14
        (2.0, 64): 1.6e-13,     # 2.5e-13
        (2.0, 256): 3.1e-12,    # 7.0e-12
        (1e3, 16): 1.8e-14,     # 2.8e-13
        (1e3, 64): 3.1e-13,     # 2.4e-11
        (1e3, 256): 3.7e-12,    # 1.75e-10
    }

    @pytest.mark.parametrize("n", [16, 64, 256])
    @pytest.mark.parametrize("gamma_plus", [2.0, 1e3])
    def test_collective_plus_closed_form_at_the_balance(self, gamma_plus, n):
        # p_g from balanced_p_g at this gamma_+, so gamma_+ p_g - p_e = 1/(2N):
        # sigma = N^2 (gamma_+ p_g' - p_e')(s + ln p_g' - ln p_e') is a product
        # of two O(1/N) factors, while each jump alone gives O(N^2) terms
        eps = 1e-12
        params = CollectiveModelParams(n_levels=n, gamma_plus=gamma_plus)
        params = CollectiveModelParams(n_levels=n, gamma_plus=gamma_plus,
                                       p_g=balanced_p_g(params, n, 0.5))
        sigma = entropy_production_rate(build_collective_model(params),
                                        build_plus_minus_state(params, "+"), eps)
        with mpmath.workdps(50):
            scale = 1 - 2 * n * mpmath.mpf(eps)
            p_g = scale * mpmath.mpf(params.p_g) + eps
            p_e = scale * (1 - mpmath.mpf(params.p_g)) + eps
            exact = n**2 * (gamma_plus * p_g - p_e) * (
                mpmath.log(gamma_plus) + mpmath.log(p_g) - mpmath.log(p_e))
            assert abs((sigma - exact) / exact) <= self.BALANCED_CLOSED_FORM_TOL[gamma_plus, n]

    # delta -> the relative error measured, rounded up at the second digit;
    # beside it, that of epr_full_rotation, one jump at a time. sigma ~ 450 delta^2
    NEAR_EQUILIBRIUM_TOL = {
        1e-2: 1.4e-16,     # 1.6e-15
        1e-4: 2.8e-14,     # 6.2e-12
        1e-6: 2.5e-12,     # 1.3e-7
        1e-8: 7.2e-10,     # 2.9e-3
    }

    @pytest.mark.parametrize("delta", [1e-2, 1e-4, 1e-6, 1e-8])
    def test_near_equilibrium_schnakenberg_sum(self, delta):
        # rho = diag(p_eq + delta v) on a d = 6 Gibbs network: every flow and
        # affinity is O(delta). Summed one jump at a time, O(1) terms cancel
        # to O(delta^2) and lose eps / delta^2; flow times affinity loses
        # eps / delta, from the rounding of w p and of ln p
        rng = np.random.default_rng(0)
        model, p_eq = gibbs_network(rng, 6)
        v = rng.normal(size=6)
        state = QuantumState(np.diag(p_eq + delta * (v - v.mean())).astype(complex))
        sigma = entropy_production_rate(model, state)
        reference = schnakenberg_reference(model, state)
        assert abs((sigma - reference) / reference) <= self.NEAR_EQUILIBRIUM_TOL[delta]

    def test_bulk_states_match_the_full_rotation(self):
        # a repeated smallest eigenvalue, from the floor or from the spectrum
        # itself, in rotated real and complex bases
        rng = np.random.default_rng(25)
        states = []
        for n in (2, 3, 16, 64):
            for p_g in (0.0, 0.3, 1.0):
                params = CollectiveModelParams(n_levels=n, gamma_plus=0.8, gamma_minus=0.4, p_g=p_g)
                model = build_collective_model(params)
                states += [(model, build_plus_minus_state(params, sign)) for sign in ("+", "-")]
        for _ in range(40):
            dim = int(rng.integers(3, 9))
            bulk = int(rng.integers(2, dim))
            p = np.sort(np.concatenate([np.full(bulk, rng.choice([0.0, rng.uniform(0.01, 0.1)])),
                                        rng.uniform(0.2, 1.0, size=dim - bulk)]))
            p /= p.sum()
            basis = random_unitary(rng, dim)
            if rng.integers(2):
                basis = np.linalg.qr(rng.normal(size=(dim, dim)))[0]
            rho = (basis * p) @ basis.conj().T
            state = QuantumState._from_spectrum((rho + rho.conj().T) / 2, p, basis)
            states.append((random_model(rng, dim, int(rng.integers(1, 4))), state))
        for model, state in states:
            assert entropy_production_rate(model, state) == pytest.approx(
                epr_full_rotation(model, state), rel=1e-12, abs=1e-12)

    def test_matches_reference_route(self):
        rng = np.random.default_rng(16)
        for _ in range(100):
            model, state, _ = random_instance(rng, max_dim=8)
            sigma = entropy_production_rate(model, state)
            assert sigma == pytest.approx(epr_reference(model, state.rho), rel=1e-12)
            assert entropy_production_rate(model, state, eigenvalue_floor=None) == sigma

    def test_matches_reference_route_on_floored_states(self):
        rng = np.random.default_rng(17)
        eps = 1e-12
        for _ in range(100):
            dim = int(rng.integers(2, 9))
            model = random_model(rng, dim, int(rng.integers(1, 4)))
            state = _rank_deficient_state(rng, dim, int(rng.integers(1, dim)))
            floored = (1.0 - dim * eps) * state.rho + eps * np.eye(dim)
            sigma = entropy_production_rate(model, state, eps)
            assert sigma == pytest.approx(epr_reference(model, floored), rel=1e-12)

    @pytest.mark.parametrize("n", [16, 256])
    @pytest.mark.parametrize("sign", ["+", "-"])
    def test_plus_minus_states_make_no_full_rotation(self, thermo_rotations, n, sign):
        # rank 2: the floored zeros are the bulk, and only the two band
        # vectors are rotated into
        params = CollectiveModelParams(n_levels=n, gamma_plus=0.8, gamma_minus=0.4, p_g=0.3)
        state = build_plus_minus_state(params, sign)
        entropy_production_rate(build_collective_model(params), state)
        assert [basis.shape for basis in thermo_rotations] == [(2 * n, 2)]

    def test_bulk_free_states_rotate_as_before(self, thermo_rotations):
        rng = np.random.default_rng(26)
        model, state, _ = random_instance(rng, max_dim=8)
        entropy_production_rate(model, state)
        params = CollectiveModelParams(n_levels=16, gamma_plus=0.8, gamma_minus=0.4, p_g=0.3)
        diagonal = build_diagonal_state(params)
        entropy_production_rate(build_collective_model(params), diagonal)
        # the diagonal state repeats its smallest population, but its
        # permutation basis is indexed rather than read as a bulk
        assert len(thermo_rotations) == 2
        for basis, expected in zip(thermo_rotations, (state.eigenvectors, diagonal.eigenvectors)):
            assert np.array_equal(basis, expected)

    def test_entropy_production_rate_does_not_decompose_rho(self, eigendecompositions):
        # sigma and the floor read the spectrum the state was validated with
        rng = np.random.default_rng(18)
        model = random_model(rng, 5, 2)
        full_rank = random_state(rng, 5)
        rank_deficient = _rank_deficient_state(rng, 5, 2)
        for state, floor in ((full_rank, 1e-12), (full_rank, None), (rank_deficient, 1e-12)):
            eigendecompositions.clear()
            entropy_production_rate(model, state, floor)
            floored_state(state, floor)
            assert eigendecompositions == []

    def test_geometric_representation_does_not_decompose_rho(self, eigendecompositions):
        # the weight reads the state's stored spectrum: nothing is decomposed
        rng = np.random.default_rng(19)
        model = random_model(rng, 4, 2)
        state = random_state(rng, 4)
        eigendecompositions.clear()
        geo = geometric_representation(model, state)
        geo.weighted_norm_sq(geo.gradient(model.hamiltonian))
        assert eigendecompositions == []

    def test_tur_check_does_not_decompose_rho(self, eigendecompositions):
        rng = np.random.default_rng(20)
        model = random_model(rng, 5, 2)
        full_rank = random_state(rng, 5)
        rank_deficient = _rank_deficient_state(rng, 5, 2)
        x = random_hermitian(rng, 5)
        obs = ObservableDecomposition.from_operator(x)
        eigendecompositions.clear()
        assert not tur_check(model, full_rank, obs).floor_applied
        assert eigendecompositions == []
        # a raw matrix adds the observable's own decomposition
        tur_check(model, full_rank, x)
        assert eigendecompositions == [(5, 5)]
        # the floored state takes its spectrum from the unfloored one
        eigendecompositions.clear()
        assert tur_check(model, rank_deficient, obs).floor_applied
        assert eigendecompositions == []

    def test_tur_check_epr_matches_entropy_production_rate(self):
        # full-rank and floored states: both take sigma from the same floored spectrum
        rng = np.random.default_rng(21)
        for _ in range(20):
            model, state, x = random_instance(rng)
            rank_deficient = _rank_deficient_state(rng, model.dim, 1)
            for rho in (state, rank_deficient):
                assert tur_check(model, rho, x).epr == entropy_production_rate(model, rho)

    def test_tur_check_without_floor(self):
        # eigenvalue_floor=None: no flooring, as in entropy_production_rate
        rng = np.random.default_rng(22)
        model, state, x = random_instance(rng)
        floored, unfloored = tur_check(model, state, x), tur_check(model, state, x, None)
        assert (unfloored.epr, unfloored.bound) == (floored.epr, floored.bound)
        assert unfloored.eigenvalue_floor is None and not unfloored.floor_applied
        with pytest.raises(SingularStateError):
            tur_check(model, _rank_deficient_state(rng, model.dim, 1), x, eigenvalue_floor=None)

    @pytest.mark.parametrize("floor", [np.nan, np.inf, -1e-12, 0.6])
    def test_invalid_floor_rejected(self, floor):
        # d = 2 here, so a floor above 1/2 would give negative weight to rho
        model = thermal_qubit(0.5, 1.0)
        x = np.diag([0.0, 1.0]).astype(complex)
        with pytest.raises(ValueError, match="eigenvalue floor"):
            tur_check(model, excited_state(), x, eigenvalue_floor=floor)
        with pytest.raises(ValueError, match="eigenvalue floor"):
            entropy_production_rate(model, excited_state(), floor)

    def test_floor_at_one_over_d_is_maximally_mixed(self):
        state, applied = floored_state(excited_state(), 0.5)
        assert applied
        np.testing.assert_allclose(state.rho, np.eye(2) / 2, atol=1e-15)


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

    def test_operator_form_builds_no_generator(self, generator_builds):
        # the commutator Gram sum applies no dissipator
        model, state, x = random_instance(np.random.default_rng(8))
        short_time_fluctuation_operator_form(model, state, x)
        quantum_diffusivity(model, state, x)
        assert generator_builds == []

    def test_operator_form_is_the_commutator_gram_sum(self):
        # tr(D^dag(X^2) rho) - tr({D^dag(X), X} rho), with D^dag applied
        # through the library, equals the Gram sum term for term
        rng = np.random.default_rng(9)
        for _ in range(20):
            model, state, x = random_instance(rng)
            of_square, of_x = apply_adjoint_dissipator(model, np.stack([x @ x, x]))
            operator_form = np.trace(of_square @ state.rho - (of_x @ x + x @ of_x) @ state.rho)
            assert short_time_fluctuation_operator_form(model, state, x).value == pytest.approx(
                operator_form.real, rel=1e-12, abs=1e-12)


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

    @pytest.mark.parametrize("offset", [-3.0, 1e4, 1e6, 1e8, 1e9, 1e10])
    def test_covariant_under_an_offset(self, offset):
        # X + a I has the currents and fluctuation of X: [H, I] = 0,
        # tr D(rho) = 0 and D^dag(I) = 0
        model, state, x = ladder_model(), ladder_state(), np.diag([0.0, 1.0, 2.0])
        base = asdict(tur_check(model, state, x))
        shifted = tur_check(model, state, x + offset * np.eye(3))
        for name, value in asdict(shifted).items():
            assert value == pytest.approx(base[name], rel=1e-12, abs=0.0), name
        payload = tur_report_dict(shifted, model, x + offset * np.eye(3))
        assert payload["observable_hash"] == operator_hash(x + offset * np.eye(3))

    @pytest.mark.parametrize("offset", [1e4, 1e6, 1e8])
    def test_covariant_under_an_offset_of_a_rotated_observable(self, offset):
        # X = U diag(0, 1, 2) U^dag rounds to the spacing of a once shifted,
        # so the unshifted reference is (X + a I) - a I, which is exact. The
        # operator forms keep 1e-12. The flux route reads class values near
        # a, whose differences are good to a few spacings of a only, which
        # moves m_X, the bound and the slack by that much relative to them.
        model, state = ladder_model(), ladder_state()
        u = random_unitary(np.random.default_rng(0), 3)
        shifted_x = (u * [0.0, 1.0, 2.0]) @ u.conj().T + offset * np.eye(3)
        base = asdict(tur_check(model, state, shifted_x - offset * np.eye(3)))
        shifted = asdict(tur_check(model, state, shifted_x))
        label_rounding = 4 * np.spacing(offset)
        flux_route = {"fluctuation": base["fluctuation"], "bound": base["bound"],
                      "slack": base["bound"]}
        for name, value in shifted.items():
            atol = label_rounding * abs(flux_route.get(name, 0.0))
            assert value == pytest.approx(base[name], rel=1e-12, abs=atol), name

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

    def test_report_dict_hashes_the_matrix_without_decomposing(self, eigendecompositions):
        model, state = ladder_model(), ladder_state()
        x = random_hermitian(np.random.default_rng(3), 3)
        obs = ObservableDecomposition.from_operator(x)
        report = tur_check(model, state, obs)
        eigendecompositions.clear()
        hashes = {tur_report_dict(report, model, arg)["observable_hash"] for arg in (x, obs)}
        assert eigendecompositions == []
        assert hashes == {operator_hash(obs.observable)}

    def test_builds_one_generator(self, generator_builds):
        # the dissipator for the current; m_X and D_X come from closed forms
        model, state, x = random_instance(np.random.default_rng(10))
        tur_check(model, state, x)
        assert generator_builds == [(False, False)]


class TestGeometricRepresentation:
    def test_zero_force_at_equilibrium(self):
        model = thermal_qubit(0.5, 1.0)
        geo = geometric_representation(model, gibbs_state(0.5, 1.0))
        assert np.linalg.norm(geo.force) <= 1e-10
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
        current, force, _, _ = enlarged(geometric_representation(model, state))
        for op in (current, force):
            assert np.linalg.norm(op + op.conj().T) <= 1e-10 * max(np.linalg.norm(op), 1e-30)

    def test_weighted_force_gives_current(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            model, state, _ = random_instance(rng)
            current, force, _, weight = enlarged(geometric_representation(model, state))
            mapped = kubo_integral(weight, force)
            scale = max(np.linalg.norm(current), 1.0)
            assert np.linalg.norm(mapped - current) <= 1e-8 * scale

    def test_divergence_of_current_is_dissipator(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            model, state, _ = random_instance(rng)
            geo = geometric_representation(model, state)
            div = geo.divergence(geo.current)
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

    def test_block_methods_match_dense(self):
        def assert_close(got, want):
            assert np.linalg.norm(got - want) <= 1e-12 * max(np.linalg.norm(want), 1.0)

        rng = np.random.default_rng(16)
        for _ in range(10):
            model, state, x = random_instance(rng)
            geo = geometric_representation(model, state)
            current, _, structure, weight = enlarged(geo)
            n, d = len(geo.rates), model.dim
            grad = geo.gradient(x)
            dense_grad = np.kron(np.eye(n), x) @ structure - structure @ np.kron(np.eye(n), x)
            assert_close(pair_blocks(grad), dense_grad)
            for stack, dense in ((geo.current, current), (grad, dense_grad)):
                commuted = (dense @ structure - structure @ dense).reshape(n, d, n, d)
                assert_close(geo.divergence(stack), np.einsum("aiaj->ij", commuted))
                mapped = kubo_integral(weight, dense)
                assert_close(pair_blocks(geo.weighted_apply(stack)), mapped)
                assert_close(geo.weighted_norm_sq(stack), np.vdot(dense, mapped).real)

    def test_equal_rates_at_maximally_mixed_state(self):
        # gamma_f = gamma_b and rho = I/d make every log-mean pair coincide
        jump = random_hermitian(np.random.default_rng(17), 4)
        model = LindbladModel(np.zeros((4, 4), complex), (JumpPair(jump, jump, 0.0),))
        state = QuantumState(np.eye(4, dtype=complex) / 4)
        geo = geometric_representation(model, state)
        assert np.linalg.norm(geo.force) <= 1e-15
        for sigma in (geo.epr_inner, geo.epr_norm, entropy_production_rate(model, state)):
            assert sigma == pytest.approx(0.0, abs=1e-15)
        *_, structure, weight = enlarged(geo)
        mapped = kubo_integral(weight, structure)
        got = pair_blocks(geo.weighted_apply(geo.structure))
        assert np.linalg.norm(got - mapped) <= 1e-14 * np.linalg.norm(mapped)

    @pytest.mark.parametrize("dim", [64, 256])
    def test_large_dimension_matches_entropy_production(self, dim):
        rng = np.random.default_rng(dim)
        model, state = random_model(rng, dim, 3), random_state(rng, dim)
        sigma = entropy_production_rate(model, state)
        geo = geometric_representation(model, state)
        assert abs(geo.epr_inner - sigma) <= 1e-12 * abs(sigma)
        assert abs(geo.epr_norm - sigma) <= 1e-12 * abs(sigma)

    def test_wrong_dimension_raises(self):
        model, state, _ = random_instance(np.random.default_rng(18), max_dim=3)
        geo = geometric_representation(model, state)
        with pytest.raises(DimMismatchError):
            geo.gradient(np.eye(model.dim + 1))
        for method in (geo.divergence, geo.weighted_apply, geo.weighted_norm_sq):
            with pytest.raises(DimMismatchError):
                method(geo.current[0])

    def test_observable_is_checked_like_every_observable_argument(self):
        model, state, _ = random_instance(np.random.default_rng(18), max_dim=3)
        geo = geometric_representation(model, state)
        with pytest.raises(NotHermitianError):
            geo.gradient(np.triu(np.ones((model.dim, model.dim))))
        obs = ObservableDecomposition.from_operator(np.diag(np.arange(model.dim, dtype=float)))
        np.testing.assert_array_equal(geo.gradient(obs), geo.gradient(obs.observable))

    def test_requires_full_rank(self):
        model = thermal_qubit()
        with pytest.raises(SingularStateError):
            geometric_representation(model, excited_state())

    def test_requires_jump_pairs(self):
        model = LindbladModel(np.diag([0.0, 1.0]).astype(complex), ())
        with pytest.raises(ValueError):
            geometric_representation(model, random_state(np.random.default_rng(15), 2))
