import numpy as np
import pytest
import scipy.linalg

from quasitur.ensembles import (
    random_hermitian,
    random_instance,
    random_model,
    random_observable,
    random_state,
    random_unitary,
)
from quasitur.errors import ImaginaryResidueError, QuasiturError, TracePreservationError
from quasitur import lindblad
from quasitur.classical import quantize_rate_matrix
from quasitur.degeneracy import (CollectiveModelParams, build_collective_model,
                                 build_diagonal_state, build_plus_minus_state,
                                 closed_form_reference, collective_basis, superposition_basis)
from quasitur.lindblad import (FLUX_BOX_MIN_DIM, JumpPair, LindbladModel, QuantumState,
                               apply_adjoint_liouvillian, propagate, resolved_fluxes)
from quasitur.quasiprob import (
    FluxMatrix,
    ObservableDecomposition,
    flux_matrix,
    generating_function,
    moment_from_generating_function,
    short_time_fluctuation_operator_form,
    short_time_moment,
    tmh_table,
)
from quasitur.thermo import currents
from quasitur.util import CLOSED_FORM_TOL, DENSITY_TOL, _rotation, real_part

from oracles import SIGMA_Z, decay_qubit, excited_state, flux_reference, gibbs_state, thermal_qubit


def observable_z():
    return ObservableDecomposition.from_operator(SIGMA_Z)


class TestTMHTable:
    def test_zero_lag_is_diagonal(self):
        rng = np.random.default_rng(0)
        model, state, x = random_instance(rng)
        obs = ObservableDecomposition.from_operator(x)
        table = tmh_table(model, state, obs, 0.0)
        populations = np.array([np.trace(p @ state.rho).real for p in obs.projectors])
        np.testing.assert_allclose(table.values, np.diag(populations), atol=1e-12)

    def test_commuting_case_matches_classical_joint(self):
        # diagonal rho, basis-aligned jumps: entries equal [exp(R dt)]_{yx} p_x
        rates = {(1, 0): 0.8, (0, 1): 0.5, (2, 1): 0.7, (1, 2): 0.3}
        r = np.zeros((3, 3))
        for (j, i), val in rates.items():
            r[j, i] = val
        np.fill_diagonal(r, -r.sum(axis=0))
        pairs = []
        for (j, i), val in rates.items():
            if j < i:
                continue
            fwd = np.zeros((3, 3), complex)
            fwd[j, i] = np.sqrt(val)
            bwd = np.zeros((3, 3), complex)
            bwd[i, j] = np.sqrt(rates[(i, j)])
            pairs.append(JumpPair(fwd, bwd, np.log(val / rates[(i, j)])))
        model = LindbladModel(np.diag([0.0, 1.0, 2.0]).astype(complex), tuple(pairs))
        p = np.array([0.5, 0.3, 0.2])
        state = QuantumState(np.diag(p).astype(complex))
        obs = ObservableDecomposition.from_operator(np.diag([0.0, 1.0, 2.0]).astype(complex))
        dt = 0.4
        table = tmh_table(model, state, obs, dt)
        joint = scipy.linalg.expm(r * dt) * p[None, :]
        np.testing.assert_allclose(table.values, joint, atol=1e-10)
        assert table.values.min() >= -1e-12

    def test_negative_entry_exists(self):
        # brute-force search over random qubit instances for a negative flux,
        # then confirm the short-lag table entry is negative as well
        rng = np.random.default_rng(0)
        found = False
        for _ in range(500):
            model = random_model(rng, 2, 1)
            state = random_state(rng, 2, mix=0.05)
            obs = ObservableDecomposition.from_operator(random_observable(rng, 2))
            if obs.n_classes < 2:
                continue
            flux = flux_matrix(model, state, obs)
            off = flux.values.copy()
            np.fill_diagonal(off, 0.0)
            if off.min() < -0.05:
                table = tmh_table(model, state, obs, 0.01)
                off_q = table.values.copy()
                np.fill_diagonal(off_q, np.inf)
                assert off_q.min() < 0.0
                found = True
                break
        assert found, "no negative flux found in the search budget"

    def test_marginals(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            model, state, x = random_instance(rng)
            obs = ObservableDecomposition.from_operator(x)
            dt = float(rng.uniform(0.0, 1.0))
            table = tmh_table(model, state, obs, dt)
            p0 = np.array([np.trace(p @ state.rho).real for p in obs.projectors])
            rho_t = propagate(model, state, dt).rho
            pt = np.array([np.trace(p @ rho_t).real for p in obs.projectors])
            np.testing.assert_allclose(table.marginal_initial(), p0, atol=1e-9)
            np.testing.assert_allclose(table.marginal_final(), pt, atol=1e-9)

    def test_first_order_expansion_ratio(self):
        rng = np.random.default_rng(2)
        model, state, x = random_instance(rng)
        obs = ObservableDecomposition.from_operator(x)
        flux = flux_matrix(model, state, obs)
        p0 = np.diag([np.trace(p @ state.rho).real for p in obs.projectors])
        scale = max(1.0, flux.escape_rate, float(np.linalg.norm(model.hamiltonian)))
        dt = 0.02 / scale

        def remainder(d):
            table = tmh_table(model, state, obs, d)
            return np.max(np.abs(table.values - p0 - flux.values * d))

        ratio = remainder(dt) / remainder(dt / 2)
        assert 3.2 <= ratio <= 4.8

    def test_csv_round_trip(self, tmp_path):
        model, state, x = random_instance(np.random.default_rng(3))
        obs = ObservableDecomposition.from_operator(x)
        table = tmh_table(model, state, obs, 0.25)
        path = tmp_path / "table.csv"
        table.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "# delta_t=0.25"
        header = lines[1].split(",")
        assert header[0] == "initial"
        np.testing.assert_allclose([float(v) for v in header[1:]], table.labels)
        for ix, line in enumerate(lines[2:]):
            cells = line.split(",")
            assert float(cells[0]) == pytest.approx(table.labels[ix])
            np.testing.assert_allclose([float(v) for v in cells[1:]], table.values[:, ix], atol=0)


class TestFluxMatrix:
    def test_decay_hand_values(self):
        gamma = 0.7
        model = decay_qubit(gamma)
        flux = flux_matrix(model, excited_state(), observable_z())
        # labels ascending: (-1 ground, +1 excited)
        expected = np.array([[0.0, gamma], [0.0, -gamma]])
        np.testing.assert_allclose(flux.values, expected, atol=1e-12)

    def test_no_jumps_commuting_hamiltonian(self):
        ham = np.diag([0.0, 1.0]).astype(complex)
        model = LindbladModel(ham, ())
        state = random_state(np.random.default_rng(4), 2)
        flux = flux_matrix(model, state, ObservableDecomposition.from_operator(ham))
        np.testing.assert_allclose(flux.values, 0.0, atol=1e-12)

    def test_gibbs_detailed_balance(self):
        gp, gm = 0.5, 1.0
        model = thermal_qubit(gp, gm)
        state = gibbs_state(gp, gm)
        flux = flux_matrix(model, state, ObservableDecomposition.from_operator(model.hamiltonian))
        p_e = gp / (gp + gm)
        assert flux.values[1, 0] == pytest.approx(gp * (1 - p_e), abs=1e-12)
        assert flux.values[0, 1] == pytest.approx(gm * p_e, abs=1e-12)
        assert flux.values[1, 0] == pytest.approx(flux.values[0, 1], abs=1e-12)

    def test_column_sums_vanish(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            model, state, x = random_instance(rng)
            flux = flux_matrix(model, state, ObservableDecomposition.from_operator(x))
            np.testing.assert_allclose(flux.values.sum(axis=0), 0.0, atol=1e-10)

    def test_commuting_nondegenerate_rates(self):
        # T_yx = R_yx p_x with R_yx = sum_k |<y|L_k|x>|^2 for y != x
        rng = np.random.default_rng(6)
        model = thermal_qubit(0.8, 0.4)
        p = np.array([0.65, 0.35])
        state = QuantumState(np.diag(p).astype(complex))
        obs = ObservableDecomposition.from_operator(model.hamiltonian)
        flux = flux_matrix(model, state, obs)
        basis = np.eye(2)
        for iy in range(2):
            for ix in range(2):
                if iy == ix:
                    continue
                rate = sum(abs(basis[iy] @ op @ basis[ix]) ** 2 for op in model.jump_operators)
                assert flux.values[iy, ix] == pytest.approx(rate * p[ix], abs=1e-12)


def rank_one_projectors(u):
    return np.einsum("ia,ja->aij", u, u.conj())


def assert_matches_reference(got, reference):
    assert got.shape == reference.shape
    assert np.max(np.abs(got - reference)) <= 1e-12 * max(np.max(np.abs(reference)), 1e-300)


class TestFluxKernelOracle:
    """``flux_matrix(...).values`` and ``.resolved`` against
    tr({L^dag P_y, P_x} rho) / 2 built on the Kronecker superoperator."""

    @pytest.mark.parametrize("dim", [2, 6, 16, 32])
    def test_random_unitary_basis(self, dim):
        rng = np.random.default_rng(400 + dim)
        model = random_model(rng, dim, 3)
        state = random_state(rng, dim)
        u = random_unitary(rng, dim)
        reference = flux_reference(model, state.rho, rank_one_projectors(u))
        obs = ObservableDecomposition.from_eigenbasis(np.arange(dim, dtype=float), u)
        assert_matches_reference(flux_matrix(model, state, obs).values, reference)
        half = dim // 2
        basis = ObservableDecomposition.from_groups(((0.0, u[:, :half]), (1.0, u[:, half:])))
        assert_matches_reference(flux_matrix(model, state, basis).resolved, reference)

    def test_degenerate_observable_classes(self):
        rng = np.random.default_rng(410)
        model = random_model(rng, 7, 2)
        state = random_state(rng, 7)
        u = random_unitary(rng, 7)
        x = (u * np.array([-1.0, -1.0, 0.5, 0.5, 0.5, 2.0, 3.0])) @ u.conj().T
        obs = ObservableDecomposition.from_operator(x)
        assert [len(m) for m in obs.class_members] == [2, 3, 1, 1]
        reference = flux_reference(model, state.rho, obs.projectors)
        assert_matches_reference(flux_matrix(model, state, obs).values, reference)

    def test_eigenbasis_with_repeated_values(self):
        rng = np.random.default_rng(411)
        model = random_model(rng, 5, 2)
        state = random_state(rng, 5)
        u = random_unitary(rng, 5)
        obs = ObservableDecomposition.from_eigenbasis([0.0, 1.0, 1.0, 2.0, 0.0], u)
        reference = flux_reference(model, state.rho, rank_one_projectors(u))
        assert_matches_reference(flux_matrix(model, state, obs).values, reference)

    @pytest.mark.parametrize("kind", ["real", "complex", "collective"])
    def test_standard_basis_costs_no_rotation(self, kind):
        # the standard basis is not rotated into; -I is, exactly, so both
        # must agree bit for bit
        rng = np.random.default_rng(413)
        if kind == "collective":
            params = CollectiveModelParams(n_levels=4, gamma_plus=0.8, gamma_minus=0.4, p_g=0.3)
            model, state = build_collective_model(params), build_plus_minus_state(params, "+")
        else:
            model, state = random_model(rng, 6, 2), random_state(rng, 6)
        if kind == "real":
            pairs = tuple(JumpPair(p.forward.real, p.backward.real, p.entropy_current)
                          for p in model.jump_pairs)
            model = LindbladModel(model.hamiltonian.real, pairs)
            state = QuantumState(state.rho.real)
        eye = np.eye(model.dim)
        assert _rotation(eye)(state.rho) is state.rho
        fluxes = resolved_fluxes(model, state, eye)
        assert np.array_equal(fluxes, resolved_fluxes(model, state, -eye))
        assert_matches_reference(fluxes, flux_reference(model, state.rho, rank_one_projectors(eye)))
        # a permuted standard basis is indexed into, -1 times it rotated into
        permuted = eye[:, np.roll(np.arange(model.dim), 1)]
        fluxes = resolved_fluxes(model, state, permuted)
        assert np.array_equal(fluxes, resolved_fluxes(model, state, -permuted))
        assert_matches_reference(fluxes,
                                 flux_reference(model, state.rho, rank_one_projectors(permuted)))

    def test_model_without_jumps(self):
        rng = np.random.default_rng(412)
        model = LindbladModel(random_hermitian(rng, 6), ())
        state = random_state(rng, 6)
        u = random_unitary(rng, 6)
        reference = flux_reference(model, state.rho, rank_one_projectors(u))
        obs = ObservableDecomposition.from_eigenbasis(np.arange(6.0), u)
        assert_matches_reference(flux_matrix(model, state, obs).values, reference)
        basis = ObservableDecomposition.from_groups(((0.0, u[:, :4]), (1.0, u[:, 4:])))
        assert_matches_reference(flux_matrix(model, state, basis).resolved, reference)


def assert_both_routes_match_reference(monkeypatch, model, state, basis):
    """Both routes of ``resolved_fluxes`` against the Kronecker oracle, whatever
    d is, to 1e-12 relative to the largest flux, or absolute where none exceeds
    1: the - state at even N carries no flux in its own basis, so the oracle's
    rounding is all there is to compare."""
    reference = flux_reference(model, state.rho, rank_one_projectors(basis))
    tol = 1e-12 * max(np.max(np.abs(reference), initial=0.0), 1.0)
    for min_dim in (np.inf, 0):  # every d on the stack, then every d on its boxes
        monkeypatch.setattr(lindblad, "FLUX_BOX_MIN_DIM", min_dim)
        assert np.max(np.abs(resolved_fluxes(model, state, basis) - reference)) <= tol


class TestFluxRoutes:
    """The stacked and the support-box routes of ``resolved_fluxes`` against
    the Kronecker oracle, and the route each input takes."""

    @pytest.mark.parametrize("kind", ["+", "-", "diagonal"])
    @pytest.mark.parametrize("basis_kind", ["standard", "permuted", "superposition"])
    @pytest.mark.parametrize("n", [1, 2, 3, 16])
    def test_collective(self, monkeypatch, n, basis_kind, kind):
        params = CollectiveModelParams(n_levels=n, omega=1.3, gamma_plus=0.8, gamma_minus=0.45,
                                       p_g=0.3)
        model = build_collective_model(params)
        state = build_diagonal_state(params) if kind == "diagonal" else \
            build_plus_minus_state(params, kind)
        eye = np.eye(params.dim)
        if basis_kind == "standard":
            basis = eye
        elif basis_kind == "permuted":
            basis = eye[:, np.random.default_rng(n).permutation(params.dim)]
        else:
            basis = superposition_basis(params, "-" if kind == "-" else "+").eigenvectors
        assert_both_routes_match_reference(monkeypatch, model, state, basis)

    @pytest.mark.parametrize("n", [3, 5])
    def test_single_entry_jumps(self, monkeypatch, n):
        # the edge 0 -> n-1 is irreversible: its backward jump is zero, an empty box
        rng = np.random.default_rng(420 + n)
        rates = rng.uniform(0.2, 1.5, (n, n))
        rates[0, n - 1] = 0.0
        np.fill_diagonal(rates, 0.0)
        np.fill_diagonal(rates, -rates.sum(axis=0))
        model, reversible = quantize_rate_matrix(rates)
        assert not reversible
        assert_both_routes_match_reference(monkeypatch, model, random_state(rng, n), np.eye(n))

    def test_box_strictly_inside(self, monkeypatch):
        rng = np.random.default_rng(421)
        d = FLUX_BOX_MIN_DIM
        jump = np.zeros((d, d), complex)
        jump[5:12, 20:29] = rng.normal(size=(7, 9)) + 1j * rng.normal(size=(7, 9))
        pair = JumpPair(jump, 0.5 * jump.conj().T, np.log(4.0))
        model = LindbladModel(random_hermitian(rng, d), (pair,))
        assert_both_routes_match_reference(monkeypatch, model, random_state(rng, d), np.eye(d))

    def test_zero_jump(self, monkeypatch):
        rng = np.random.default_rng(422)
        d = FLUX_BOX_MIN_DIM
        model = random_model(rng, d, 1)
        pair = model.jump_pairs[0]
        model = LindbladModel(model.hamiltonian, (JumpPair(pair.forward, np.zeros((d, d)), 0.0),))
        assert_both_routes_match_reference(monkeypatch, model, random_state(rng, d),
                                           random_unitary(rng, d))

    @pytest.mark.parametrize("dim", [6, FLUX_BOX_MIN_DIM])
    def test_model_without_jumps(self, monkeypatch, dim):
        rng = np.random.default_rng(423)
        model = LindbladModel(random_hermitian(rng, dim), ())
        assert_both_routes_match_reference(monkeypatch, model, random_state(rng, dim),
                                           random_unitary(rng, dim))

    @pytest.mark.parametrize("dim", [FLUX_BOX_MIN_DIM - 1, FLUX_BOX_MIN_DIM])
    def test_either_side_of_the_switch(self, dim):
        rng = np.random.default_rng(424)
        model, state = random_model(rng, dim, 3), random_state(rng, dim)
        u = random_unitary(rng, dim)
        assert_matches_reference(resolved_fluxes(model, state, u),
                                 flux_reference(model, state.rho, rank_one_projectors(u)))

    @pytest.mark.parametrize("sign", ["+", "-"])
    def test_collective_closed_form_at_n_256(self, sign):
        params = CollectiveModelParams(n_levels=256, omega=1.3, gamma_plus=0.8, gamma_minus=0.45,
                                       p_g=0.3)
        flux = flux_matrix(build_collective_model(params), build_plus_minus_state(params, sign),
                           collective_basis(params))
        ref = closed_form_reference(params, sign)
        got = {"t_eg": flux.integrated[1, 0], "t_gg": flux.integrated[0, 0],
               "t_ge": flux.integrated[0, 1], "t_ee": flux.integrated[1, 1],
               "escape_rate": flux.escape_rate, "m_h": short_time_moment(flux, 2).value}
        for name, value in got.items():
            expected = getattr(ref, name)
            assert abs(value - expected) <= CLOSED_FORM_TOL * max(abs(expected), 1.0), name

    def test_collective_jumps_take_their_quadrants(self, flux_boxes):
        n = 64
        params = CollectiveModelParams(n_levels=n, gamma_plus=0.8, gamma_minus=0.45, p_g=0.3)
        flux_matrix(build_collective_model(params), build_plus_minus_state(params, "+"),
                    collective_basis(params))
        assert flux_boxes == [(slice(n, 2 * n), slice(0, n)), (slice(0, n), slice(n, 2 * n))]

    @pytest.mark.parametrize("dim", [FLUX_BOX_MIN_DIM - 1, FLUX_BOX_MIN_DIM])
    def test_dense_jumps_take_the_stack_or_the_whole_matrix(self, flux_boxes, dim):
        rng = np.random.default_rng(425)
        model = random_model(rng, dim, 2)
        resolved_fluxes(model, random_state(rng, dim), random_unitary(rng, dim))
        whole = (slice(0, dim), slice(0, dim))
        assert flux_boxes == ([] if dim < FLUX_BOX_MIN_DIM else [whole] * 4)


class TestGeneratingFunction:
    def test_normalization_at_zero(self):
        rng = np.random.default_rng(7)
        model, state, x = random_instance(rng)
        obs = ObservableDecomposition.from_operator(x)
        assert generating_function(model, state, obs, 0.0, 0.5) == pytest.approx(1.0, abs=1e-12)

    def test_zero_lag(self):
        rng = np.random.default_rng(8)
        model, state, x = random_instance(rng)
        obs = ObservableDecomposition.from_operator(x)
        for lam in (-1.3, 0.2, 2.0):
            assert generating_function(model, state, obs, lam, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_fd_second_derivative_matches_table(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            model, state, x = random_instance(rng)
            obs = ObservableDecomposition.from_operator(x)
            dt = 0.2
            table = tmh_table(model, state, obs, dt)
            report = moment_from_generating_function(model, state, obs, 2, dt)
            assert report.value == pytest.approx(table.moment(2), abs=1e-6)

    def test_fd_moments_orders_one_to_four(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            model, state, x = random_instance(rng)
            obs = ObservableDecomposition.from_operator(x)
            dt = 0.15
            table = tmh_table(model, state, obs, dt)
            for n in (1, 2, 3, 4):
                fd = moment_from_generating_function(model, state, obs, n, dt).value
                assert fd == pytest.approx(table.moment(n), abs=1e-6)

    @pytest.mark.parametrize("dim", [6, 32])
    def test_closed_form_moment_matches_table(self, dim):
        # powers of X against projectors: two routes through the propagator.
        # Dyadic eigenvalues plus an offset, exact in floating point, come last.
        rng = np.random.default_rng(12 + dim)
        model, state = random_model(rng, dim, 2), random_state(rng, dim)
        vecs = random_unitary(rng, dim)
        observables = [ObservableDecomposition.from_operator(random_observable(rng, dim)),
                       ObservableDecomposition.from_eigenbasis(
                           rng.integers(-8, 9, size=dim) / 4 + 1e4, vecs)]
        for obs in observables:
            table = tmh_table(model, state, obs, 0.15)
            for n in (1, 2, 3, 4):
                m = moment_from_generating_function(model, state, obs, n, 0.15).value
                assert abs(m - table.moment(n)) <= 1e-12 * max(abs(m), 1.0), n

    def test_moments_ignore_an_offset(self):
        # dyadic eigenvalues, so that adding the offset is exact in floating point
        rng = np.random.default_rng(11)
        for _ in range(5):
            model, state, _ = random_instance(rng)
            vecs = random_unitary(rng, model.dim)
            vals = rng.integers(-8, 9, size=model.dim) / 4
            obs = ObservableDecomposition.from_eigenbasis(vals, vecs)
            shifted = ObservableDecomposition.from_eigenbasis(vals + 1e4, vecs)
            for n in (1, 2, 3, 4):
                m = moment_from_generating_function(model, state, obs, n, 0.15).value
                m_shifted = moment_from_generating_function(model, state, shifted, n, 0.15).value
                assert abs(m_shifted - m) <= 1e-12 * max(abs(m), 1.0)


class TestMoments:
    def test_constant_observable(self):
        rng = np.random.default_rng(11)
        model, state, _ = random_instance(rng)
        obs = ObservableDecomposition.from_operator(2.5 * np.eye(model.dim, dtype=complex))
        flux = flux_matrix(model, state, obs)
        for n in (1, 2, 3):
            assert short_time_moment(flux, n).value == pytest.approx(0.0, abs=1e-12)

    def test_decay_second_moment(self):
        gamma = 0.7
        flux = flux_matrix(decay_qubit(gamma), excited_state(), observable_z())
        assert short_time_moment(flux, 2).value == pytest.approx(4 * gamma, abs=1e-12)

    def test_first_moment_equals_total_current(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            model, state, x = random_instance(rng)
            obs = ObservableDecomposition.from_operator(x)
            m1 = short_time_moment(flux_matrix(model, state, obs), 1).value
            cur = currents(model, state, obs)
            assert m1 == pytest.approx(cur.hamiltonian_part + cur.dissipative_part, abs=1e-10)

    def test_operator_form_pure_hamiltonian(self):
        model = LindbladModel(random_hermitian(np.random.default_rng(13), 3), ())
        state = random_state(np.random.default_rng(14), 3)
        x = random_hermitian(np.random.default_rng(15), 3)
        assert short_time_fluctuation_operator_form(model, state, x).value == pytest.approx(0.0, abs=1e-12)

    def test_operator_form_matches_flux_sum(self):
        rng = np.random.default_rng(16)
        for _ in range(25):
            model, state, x = random_instance(rng)
            obs = ObservableDecomposition.from_operator(x)
            m_flux = short_time_moment(flux_matrix(model, state, obs), 2).value
            m_op = short_time_fluctuation_operator_form(model, state, obs).value
            # the same form with the adjoint Liouvillian; its Hamiltonian part cancels
            x = obs.observable
            gen_x = apply_adjoint_liouvillian(model, x)
            m_liou = np.trace((apply_adjoint_liouvillian(model, x @ x) - gen_x @ x - x @ gen_x)
                              @ state.rho).real
            assert abs(m_op - m_flux) <= 1e-10 * max(abs(m_flux), 1.0)
            assert abs(m_liou - m_op) <= 1e-10 * max(abs(m_op), 1.0)

    def test_decay_operator_form(self):
        gamma = 0.7
        value = short_time_fluctuation_operator_form(decay_qubit(gamma), excited_state(), SIGMA_Z).value
        assert value == pytest.approx(4 * gamma, abs=1e-12)

    def test_invalid_order(self):
        flux = flux_matrix(decay_qubit(), excited_state(), observable_z())
        with pytest.raises(ValueError):
            short_time_moment(flux, 0)


class TestEscapeRate:
    def test_no_jumps(self):
        model = LindbladModel(np.diag([0.0, 1.0]).astype(complex), ())
        state = random_state(np.random.default_rng(17), 2)
        flux = flux_matrix(model, state, ObservableDecomposition.from_operator(model.hamiltonian))
        assert flux.escape_rate == pytest.approx(0.0, abs=1e-12)

    def test_decay(self):
        gamma = 0.7
        flux = flux_matrix(decay_qubit(gamma), excited_state(), observable_z())
        assert flux.escape_rate == pytest.approx(gamma, abs=1e-12)

    def test_one_class_per_eigenvector(self):
        # one vector per class: each class diagonal is exactly its self-term
        rng = np.random.default_rng(24)
        model = random_model(rng, 5, 2)
        state = random_state(rng, 5)
        obs = ObservableDecomposition.from_eigenbasis([0.0, 1.0, 1.0, 2.0, 0.0],
                                                      random_unitary(rng, 5))
        flux = flux_matrix(model, state, obs)
        np.testing.assert_array_equal(np.diag(flux.integrated), 0.0)
        assert flux.escape_rate == pytest.approx(-np.trace(flux.values), abs=1e-12)
        assert flux.integrated.sum() == pytest.approx(flux.escape_rate, abs=1e-12)


class TestFluxMatrixInvariants:
    def test_non_trace_preserving_columns_raise(self):
        values = np.array([[-1.0, 0.2], [0.5, -0.2]])  # first column sums to -0.5
        with pytest.raises(TracePreservationError) as info:
            FluxMatrix(labels=np.array([0.0, 1.0]), resolved=values, class_members=([0], [1]))
        assert isinstance(info.value, QuasiturError)

    def test_moment_sums_agree_bitwise(self):
        # the table, the flux and the integrated-flux moments share one sum
        from quasitur.quasiprob import QuasiprobTable
        rng = np.random.default_rng(23)
        model, state, x = random_instance(rng)
        flux = flux_matrix(model, state, ObservableDecomposition.from_operator(x))
        diff = flux.labels[:, None] - flux.labels[None, :]
        table = QuasiprobTable(flux.labels, flux.values, 0.1)
        for n in (1, 2, 3):
            expected = float(np.sum(diff**n * flux.values))
            assert short_time_moment(flux, n).value == expected
            assert table.moment(n) == expected
        assert float(np.sum(diff**2 * flux.integrated)) == float(np.sum(diff**2 * flux.values))


class TestObservableDecomposition:
    def test_dimension_mismatch_rejected(self):
        from quasitur.errors import DimMismatchError
        model = decay_qubit()
        state = excited_state()
        wrong = ObservableDecomposition.from_operator(np.diag([0.0, 1.0, 2.0]).astype(complex))
        with pytest.raises(DimMismatchError):
            tmh_table(model, state, wrong, 0.1)
        with pytest.raises(DimMismatchError):
            flux_matrix(model, state, wrong)
        with pytest.raises(DimMismatchError):
            short_time_fluctuation_operator_form(model, state, np.eye(3, dtype=complex))

    def test_unsorted_eigenbasis_gap(self):
        obs = ObservableDecomposition.from_eigenbasis(
            np.array([2.0, 0.0, 1.0]), np.eye(3, dtype=complex))
        assert obs.max_gap == pytest.approx(2.0)

    def test_unsorted_eigenbasis_fd_moment(self):
        # classical-style observable in state order: the moment step must
        # still key off the true spectral spread
        rates = np.array([[-1.0, 0.5], [1.0, -0.5]])
        up = np.zeros((2, 2), complex); up[1, 0] = 1.0
        down = np.zeros((2, 2), complex); down[0, 1] = np.sqrt(0.5)
        model = LindbladModel(np.zeros((2, 2), complex),
                              (JumpPair(up, down, np.log(1.0 / 0.5)),))
        state = QuantumState(np.diag([0.4, 0.6]).astype(complex))
        obs = ObservableDecomposition.from_eigenbasis(
            np.array([1.5, -0.5]), np.eye(2, dtype=complex))
        table = tmh_table(model, state, obs, 0.2)
        fd = moment_from_generating_function(model, state, obs, 2, 0.2).value
        assert fd == pytest.approx(table.moment(2), abs=1e-6)

    def test_non_orthonormal_rejected(self):
        with pytest.raises(ValueError):
            ObservableDecomposition.from_eigenbasis(
                np.array([0.0, 1.0]), np.ones((2, 2), dtype=complex))


class TestDiagnostics:
    def test_imaginary_residue_guard(self):
        with pytest.raises(ImaginaryResidueError):
            real_part(np.array([[1.0 + 1e-5j]]), "test table")

    def test_accepts_tiny_residue(self):
        out = real_part(np.array([[1.0 + 1e-12j]]), "test table")
        assert out.dtype == float

    def test_residue_relative_above_one(self):
        assert real_part(1e4 + 1e-7j, "test value") == 1e4
        assert isinstance(real_part(1e4 + 1e-7j, "test value"), float)
        with pytest.raises(ImaginaryResidueError):
            real_part(1e4 + 1e-5j, "test value")

    @pytest.mark.parametrize("value", [complex(np.nan, 0.0), complex(0.0, np.nan),
                                       complex(np.inf, 0.0)])
    def test_non_finite_scalar_rejected(self, value):
        with pytest.raises(ImaginaryResidueError, match="not finite"):
            real_part(value, "test value")

    def test_non_finite_array_rejected(self):
        with pytest.raises(ImaginaryResidueError, match="not finite"):
            real_part(np.array([[1.0, np.nan], [0.5, 0.5]]), "test table")

    @pytest.mark.parametrize("lag", [1e50, 1e150])
    def test_overflowed_table_rejected(self, lag):
        # the propagated projectors overflow to NaN without a warning
        model, state, x = random_instance(np.random.default_rng(1))
        with pytest.raises(ImaginaryResidueError, match="not finite"):
            tmh_table(model, state, x, lag)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_unitality_drift_beyond_tolerance_raises(self, seed):
        # max |sum_y E^dag(P_y) - I| grows with the lag: 1-19e-12 at 1e5 and
        # 1.6-2.6e-9 at 1e7 on these models, while the imaginary residue of
        # the table stays below 2e-11 at 1e7. At 1e8 the drift reaches
        # 0.5-1.4e-8, and the residue check rejects two of the three first.
        rng = np.random.default_rng(seed)
        model = random_model(rng, 4 + seed % 3, 2)
        state, x = random_state(rng, model.dim), random_observable(rng, model.dim)
        tmh_table(model, state, x, 1e5)
        with pytest.raises(TracePreservationError, match="sum to I"):
            tmh_table(model, state, x, 1e7)
        with pytest.raises(QuasiturError):
            tmh_table(model, state, x, 1e8)

    def test_unitality_check_allows_a_basis_within_its_tolerance(self):
        # ||V^dag V - I||_F = 8e-10 passes from_groups (ORTHONORMALITY_TOL 1e-9),
        # and its projectors miss I by 2.8e-10, more than DENSITY_TOL
        rng = np.random.default_rng(7)
        model, state = random_model(rng, 4, 2), random_state(rng, 4)
        v = random_unitary(rng, 4) @ (np.eye(4) + 2e-10 * np.diag([1.0, -1.0, 1.0, -1.0]))
        obs = ObservableDecomposition.from_groups([(float(i), v[:, i:i + 1]) for i in range(4)])
        assert np.max(np.abs(obs.projectors.sum(axis=0) - np.eye(4))) > DENSITY_TOL
        table = tmh_table(model, state, obs, 0.1)
        assert abs(table.values.sum() - 1.0) <= 1e-9

    @pytest.mark.parametrize("lag", [1e50, 1e150])
    def test_overflowed_moment_rejected(self, lag):
        # the propagated powers of X overflow to NaN, like the projectors above
        model, state, x = random_instance(np.random.default_rng(1))
        with pytest.raises(ImaginaryResidueError, match="not finite"):
            moment_from_generating_function(model, state, x, 2, lag)
