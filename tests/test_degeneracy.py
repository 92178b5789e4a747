import numpy as np
import pytest

from quasitur.degeneracy import (
    STATE_KINDS,
    _sweep_point,
    CollectiveModelParams,
    balanced_p_g,
    build_collective_model,
    build_diagonal_state,
    build_plus_minus_state,
    classify_basis_classicality,
    closed_form_reference,
    collective_basis,
    fit_loglog,
    l1_coherence,
    parity,
    q1_q2_diagnostics,
    scaling_sweep,
    superposition_basis,
    sweep_summary,
    sweep_to_csv,
)
from quasitur.ensembles import random_model, random_state, random_unitary
from quasitur.errors import BasisMismatchError, DimMismatchError, InsufficientPointsError
from quasitur.lindblad import LindbladModel, validate_local_detailed_balance
from quasitur.quasiprob import ObservableDecomposition, flux_matrix, short_time_moment
from quasitur.thermo import DEFAULT_EIGENVALUE_FLOOR, entropy_production_rate
from quasitur.util import group_sums

from oracles import (
    collective_basis_reference,
    collective_model_reference,
    diagonal_state_reference,
    epr_reference,
    permutation_reference,
    plus_minus_state_reference,
    thermal_qubit,
)

STANDARD = dict(omega=1.0, gamma_plus=1.0, gamma_minus=1.0, p_g=0.5)
P_G_VALUES = (0.0, 0.3, 0.5, 1.0)


def collective_state(params, kind):
    if kind == "diagonal":
        return build_diagonal_state(params)
    return build_plus_minus_state(params, kind)


def nonzero_spectrum(params, kind):
    """Orthonormal eigenvectors of a collective state that carry all of its
    weight, built here from their definition, and their eigenvalues: the two
    band vectors for + and -, the whole standard basis for the diagonal state."""
    n, d = params.n_levels, params.dim
    if kind == "diagonal":
        return np.eye(d), np.repeat([params.p_g / n, params.p_e / n], n)
    vecs = np.zeros((d, 2))
    vecs[:n, 0] = vecs[n:, 1] = (1.0 if kind == "+" else -1.0) ** np.arange(1, n + 1) / np.sqrt(n)
    return vecs, np.array([params.p_g, params.p_e])


def gram_deviation(u):
    """max |U^T U - I| of a real U with entries in [-1, 1], without the
    rounding of the product itself, which at d = 512 reaches 1e-14 when a
    column repeats one small entry.

    The part a of U on the grid 2^-22 has an exact Gram matrix: its terms are
    multiples of 2^-44, and by Cauchy-Schwarz every partial sum stays below
    2^9, so all of them fit in 53 bits. The rest b = U - a is below 2^-23,
    so the rounding of the terms that contain it is below 1e-20.
    """
    a = np.round(u * 2.0**22) / 2.0**22
    b = u - a
    return np.abs((a.T @ a - np.eye(len(u))) + (a.T @ b + b.T @ a + b.T @ b)).max()


def random_degenerate_setup(rng, dim=6, sizes=(3, 2, 1)):
    """Random model plus a random orthonormal basis grouped into eigenspaces."""
    model = random_model(rng, dim, 2)
    state = random_state(rng, dim)
    u = random_unitary(rng, dim)
    values = np.sort(rng.normal(size=len(sizes)))
    groups = []
    at = 0
    for value, size in zip(values, sizes):
        groups.append((value, u[:, at:at + size]))
        at += size
    return model, state, ObservableDecomposition.from_groups(groups)


class TestIntegratedFluxes:
    @pytest.mark.parametrize("kind", STATE_KINDS)
    @pytest.mark.parametrize("p_g", [0.0, 0.3, 0.5, 1.0])
    def test_is_the_group_sum_without_the_diagonal(self, kind, p_g):
        # the earlier formula, with two d x d temporaries, bit for bit
        params = CollectiveModelParams(n_levels=64, omega=1.3, gamma_plus=0.8, gamma_minus=0.45,
                                       p_g=p_g)
        flux = flux_matrix(build_collective_model(params), collective_state(params, kind),
                           collective_basis(params))
        resolved = flux.resolved
        expected = group_sums(resolved - np.diag(np.diag(resolved)), flux.class_members)
        assert np.array_equal(flux.integrated, expected)

    def test_collective_plus_reference_value(self):
        params = CollectiveModelParams(n_levels=4, **STANDARD)
        flux = flux_matrix(
            build_collective_model(params),
            build_plus_minus_state(params, "+"),
            collective_basis(params),
        )
        # p_g gamma_+ N^2 = 0.5 * 16 = 8
        assert flux.integrated[1, 0] == pytest.approx(8.0, abs=1e-10)

    def test_collective_minus_even_vanishes(self):
        params = CollectiveModelParams(n_levels=4, **STANDARD)
        flux = flux_matrix(
            build_collective_model(params),
            build_plus_minus_state(params, "-"),
            collective_basis(params),
        )
        assert flux.integrated[1, 0] == pytest.approx(0.0, abs=1e-12)

    def test_no_jumps(self):
        params = CollectiveModelParams(n_levels=3, **STANDARD)
        model = LindbladModel(build_collective_model(params).hamiltonian, ())
        flux = flux_matrix(model, build_plus_minus_state(params, "+"), collective_basis(params))
        np.testing.assert_allclose(flux.integrated, 0.0, atol=1e-12)
        assert flux.escape_rate == pytest.approx(0.0, abs=1e-12)

    def test_sum_equals_escape_rate(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            model, state, basis = random_degenerate_setup(rng)
            flux = flux_matrix(model, state, basis)
            assert flux.integrated.sum() == pytest.approx(flux.escape_rate, abs=1e-9)

    def test_off_diagonal_rotation_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            model, state, basis = random_degenerate_setup(rng)
            rotated = flux_matrix(model, state, ObservableDecomposition.from_groups(
                (value, basis.eigenvectors[:, m] @ random_unitary(rng, len(m)))
                for value, m in zip(basis.class_values, basis.class_members))).integrated
            original = flux_matrix(model, state, basis).integrated
            for i in range(basis.n_classes):
                for j in range(basis.n_classes):
                    if i != j:
                        assert rotated[i, j] == pytest.approx(original[i, j], abs=1e-9)

    def test_second_moment_matches_class_fluxes(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            model, state, basis = random_degenerate_setup(rng)
            m_classes = short_time_moment(flux_matrix(model, state, basis), 2).value
            obs = ObservableDecomposition.from_eigenbasis(
                basis.eigenvalues, basis.eigenvectors)
            # regroup the per-state flux matrix into classes by value
            m_resolved = short_time_moment(flux_matrix(model, state, obs), 2).value
            assert m_classes == pytest.approx(
                m_resolved, abs=1e-9 * max(abs(m_resolved), 1.0))

    def test_degenerate_operator_matches_groups(self):
        rng = np.random.default_rng(3)
        model, state, basis = random_degenerate_setup(rng)
        from_x = ObservableDecomposition.from_operator(basis.observable)
        assert [len(m) for m in from_x.class_members] == [3, 2, 1]
        regrouped = ObservableDecomposition.from_groups(
            (value, from_x.eigenvectors[:, m])
            for value, m in zip(basis.class_values, from_x.class_members))
        a = flux_matrix(model, state, from_x)
        b = flux_matrix(model, state, regrouped)
        np.testing.assert_allclose(a.labels, b.labels, rtol=1e-12)
        np.testing.assert_array_equal(a.integrated, b.integrated)
        assert a.escape_rate == b.escape_rate

    @pytest.mark.parametrize("sign, expected", [("+", 10.0), ("-", 2.0)])
    def test_escape_rate_matches_closed_form(self, sign, expected):
        # R sums the self-terms (s, j) -> (s, j), not the class diagonal of values
        params = CollectiveModelParams(n_levels=4, **STANDARD)
        flux = flux_matrix(build_collective_model(params), build_plus_minus_state(params, sign),
                           collective_basis(params))
        assert closed_form_reference(params, sign).escape_rate == pytest.approx(expected)
        assert flux.escape_rate == pytest.approx(expected, abs=1e-12)

    def test_dimension_mismatch(self):
        params = CollectiveModelParams(n_levels=3, **STANDARD)
        other = CollectiveModelParams(n_levels=4, **STANDARD)
        with pytest.raises(DimMismatchError):
            flux_matrix(
                build_collective_model(params),
                build_plus_minus_state(params, "+"),
                collective_basis(other),
            )


class TestDegenerateBasis:
    def test_incomplete_basis_rejected(self):
        eye = np.eye(4, dtype=complex)
        with pytest.raises(BasisMismatchError):
            ObservableDecomposition.from_groups(((0.0, eye[:, :2]), (1.0, eye[:, 2:3])))

    def test_non_orthonormal_rejected(self):
        vecs = np.ones((2, 2), dtype=complex)
        with pytest.raises(BasisMismatchError):
            ObservableDecomposition.from_groups(((0.0, vecs[:, :1]), (1.0, vecs[:, 1:])))

    def test_observable_reconstruction(self):
        params = CollectiveModelParams(n_levels=2, omega=0.9, gamma_plus=1.0,
                                       gamma_minus=1.0, p_g=0.5)
        basis = collective_basis(params)
        np.testing.assert_allclose(basis.observable,
                                   build_collective_model(params).hamiltonian, atol=1e-12)


class TestBasisClassicality:
    def test_product_basis_classical(self):
        params = CollectiveModelParams(n_levels=6, omega=1.0, gamma_plus=2.0,
                                       gamma_minus=1.0, p_g=0.5)
        model = build_collective_model(params)
        report = classify_basis_classicality(model, collective_basis(params),
                                             magnitude_bound=2.0, count_bound=2)
        assert report.classical
        assert report.worst_magnitude == pytest.approx(np.sqrt(2.0), abs=1e-12)
        assert report.worst_count == 1

    def test_superposition_basis_not_classical(self):
        params = CollectiveModelParams(n_levels=6, **STANDARD)
        model = build_collective_model(params)
        report = classify_basis_classicality(model, superposition_basis(params, "+"),
                                             magnitude_bound=2.0, count_bound=2)
        assert not report.classical
        assert report.worst_magnitude == pytest.approx(
            np.sqrt(params.gamma_plus) * params.n_levels, abs=1e-9)

    def test_no_jumps_trivially_classical(self):
        params = CollectiveModelParams(n_levels=3, **STANDARD)
        model = LindbladModel(build_collective_model(params).hamiltonian, ())
        report = classify_basis_classicality(model, collective_basis(params), 1.0, 1)
        assert report.classical
        assert report.worst_magnitude == 0.0


class TestL1Coherence:
    def test_diagonal_state(self):
        params = CollectiveModelParams(n_levels=4, **STANDARD)
        assert l1_coherence(build_diagonal_state(params), collective_basis(params)) == \
            pytest.approx(0.0, abs=1e-12)

    def test_plus_state_linear_in_degeneracy(self):
        for n in (2, 5, 9):
            params = CollectiveModelParams(n_levels=n, **STANDARD)
            value = l1_coherence(build_plus_minus_state(params, "+"), collective_basis(params))
            assert value == pytest.approx(n - 1, abs=1e-9)

    def test_minus_state_same_coherence(self):
        params = CollectiveModelParams(n_levels=6, **STANDARD)
        basis = collective_basis(params)
        plus = l1_coherence(build_plus_minus_state(params, "+"), basis)
        minus = l1_coherence(build_plus_minus_state(params, "-"), basis)
        assert minus == pytest.approx(plus, abs=1e-10)


class TestCollectiveBuilders:
    def test_single_level_reduces_to_thermal_qubit(self):
        params = CollectiveModelParams(n_levels=1, omega=1.0, gamma_plus=0.5,
                                       gamma_minus=1.0, p_g=0.5)
        model = build_collective_model(params)
        reference = thermal_qubit(0.5, 1.0, omega=1.0)
        np.testing.assert_allclose(model.hamiltonian, reference.hamiltonian, atol=0)
        np.testing.assert_allclose(model.jump_pairs[0].forward,
                                   reference.jump_pairs[0].forward, atol=0)
        state = build_plus_minus_state(params, "+")
        np.testing.assert_allclose(state.rho, np.diag([0.5, 0.5]), atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_local_detailed_balance_holds(self, n):
        params = CollectiveModelParams(n_levels=n, omega=1.0, gamma_plus=0.7,
                                       gamma_minus=0.2, p_g=0.4)
        assert validate_local_detailed_balance(build_collective_model(params)).max_residual <= 1e-14

    def test_hamiltonian_spectrum(self):
        params = CollectiveModelParams(n_levels=3, **STANDARD)
        eigs = np.linalg.eigvalsh(build_collective_model(params).hamiltonian)
        np.testing.assert_allclose(eigs, [0, 0, 0, 1, 1, 1], atol=1e-12)

    @pytest.mark.parametrize("sign,expected", [("+", 1.0), ("-", -1.0)])
    def test_state_matrix_elements(self, sign, expected):
        params = CollectiveModelParams(n_levels=4, **STANDARD)
        rho = build_plus_minus_state(params, sign).rho
        n = params.n_levels
        for j in range(n):
            for k in range(n):
                phase = expected ** (abs(j - k))
                assert rho[j, k] == pytest.approx(phase * params.p_g / n, abs=1e-12)
                assert rho[n + j, n + k] == pytest.approx(phase * params.p_e / n, abs=1e-12)

    def test_state_rank(self):
        params = CollectiveModelParams(n_levels=5, **STANDARD)
        eigs = np.linalg.eigvalsh(build_plus_minus_state(params, "+").rho)
        assert np.sum(eigs > 1e-12) == 2
        pure = CollectiveModelParams(n_levels=5, omega=1.0, gamma_plus=1.0,
                                     gamma_minus=1.0, p_g=1.0)
        eigs = np.linalg.eigvalsh(build_plus_minus_state(pure, "+").rho)
        assert np.sum(eigs > 1e-12) == 1

    @pytest.mark.parametrize("n", [1, 2, 3, 16, 256])
    @pytest.mark.parametrize("kind", STATE_KINDS)
    def test_states_carry_their_spectrum(self, n, kind, eigendecompositions):
        for p_g in P_G_VALUES:
            params = CollectiveModelParams(n_levels=n, gamma_plus=0.8, gamma_minus=0.4, p_g=p_g)
            state = collective_state(params, kind)
            assert eigendecompositions == []
            p, u = state.eigenvalues, state.eigenvectors
            assert np.all(np.diff(p) >= 0)
            assert np.abs(p - np.linalg.eigvalsh(state.rho)).max() <= 1e-15
            assert gram_deviation(u) <= 1e-14
            assert np.abs((u * p) @ u.T - state.rho).max() <= 1e-15
            eigendecompositions.clear()

    @pytest.mark.parametrize("n", [1, 2, 3, 16, 256])
    @pytest.mark.parametrize("kind", STATE_KINDS)
    def test_state_entropy_production_matches_reference(self, n, kind):
        # ln rho' of the floored state rho' = (1 - d eps) rho + eps I from the
        # band vectors alone: eps on the rest of the space, so no eigh rounds
        # the zero eigenvalues of rho into eps, and no basis of that rest is needed
        for p_g in P_G_VALUES:
            params = CollectiveModelParams(n_levels=n, gamma_plus=0.8, gamma_minus=0.4, p_g=p_g)
            model, state, d = build_collective_model(params), collective_state(params, kind), params.dim
            vecs, probs = nonzero_spectrum(params, kind)
            rank_deficient = vecs.shape[1] < d or probs.min() < DEFAULT_EIGENVALUE_FLOOR
            eps = DEFAULT_EIGENVALUE_FLOOR if rank_deficient else 0.0
            log_rho = (vecs * np.log((1 - d * eps) * probs + eps)) @ vecs.T
            if vecs.shape[1] < d:
                log_rho += np.log(eps) * (np.eye(d) - vecs @ vecs.T)
            reference = epr_reference(model, (1 - d * eps) * state.rho + eps * np.eye(d), log_rho)
            assert entropy_production_rate(model, state) == pytest.approx(reference, rel=1e-12,
                                                                          abs=1e-12)


class TestBuildersMatchTheirDefinition:
    """Each collective builder against its earlier construction in
    ``tests/oracles.py``, entry for entry: ``array_equal`` tells -0.0 from
    nothing else. At p_g = 0 or 1 a band vector's population ties with the
    zeros, where the stable order is easiest to get wrong."""

    @pytest.mark.parametrize("n", [1, 2, 3, 16, 64])
    def test_model_and_basis(self, n):
        params = CollectiveModelParams(n_levels=n, omega=1.3, gamma_plus=0.8, gamma_minus=0.45)
        model = build_collective_model(params)
        ham, l_plus, l_minus = collective_model_reference(params)
        assert np.array_equal(model.hamiltonian, ham)
        assert np.array_equal(model.jump_pairs[0].forward, l_plus)
        assert np.array_equal(model.jump_pairs[0].backward, l_minus)
        basis = collective_basis(params)
        assert np.array_equal(basis.eigenvectors, collective_basis_reference(params))
        assert np.array_equal(basis._perm, permutation_reference(basis.eigenvectors))

    @pytest.mark.parametrize("n", [1, 2, 3, 16, 64])
    @pytest.mark.parametrize("kind", STATE_KINDS)
    @pytest.mark.parametrize("p_g", [0.0, 0.3, 0.5, 0.7, 1.0])
    def test_states(self, n, kind, p_g):
        params = CollectiveModelParams(n_levels=n, gamma_plus=0.8, gamma_minus=0.45, p_g=p_g)
        state = collective_state(params, kind)
        if kind == "diagonal":
            rho, values, vectors = diagonal_state_reference(params)
        else:
            rho, values, vectors = plus_minus_state_reference(params, kind)
        assert np.array_equal(state.rho, rho)
        assert np.array_equal(state.eigenvalues, values)
        assert np.array_equal(state.eigenvectors, vectors)
        # the permutation the builder recorded is the one a search would find
        expected = permutation_reference(vectors)
        if expected is None:
            assert state._perm is None
        else:
            assert np.array_equal(state._perm, expected)


class TestPermutationSearches:
    """The cost pin: a sweep point searches each basis it builds for its
    permutation at most once, where it is built, and the fluxes and the
    entropy production read what was recorded."""

    @pytest.mark.parametrize("n", [1, 2, 16, 256])
    @pytest.mark.parametrize("kind", STATE_KINDS)
    def test_sweep_point_searches_its_basis_once(self, permutation_searches, n, kind):
        params = CollectiveModelParams(n_levels=n, gamma_plus=0.8, gamma_minus=0.45, p_g=0.3)
        _sweep_point(params, kind, DEFAULT_EIGENVALUE_FLOOR)
        # the basis, in its orthonormality check; the states record theirs
        assert permutation_searches == [(2 * n, 2 * n)]

    @pytest.mark.parametrize("kind", STATE_KINDS)
    def test_fluxes_and_entropy_production_search_nothing(self, permutation_searches, kind):
        params = CollectiveModelParams(n_levels=16, gamma_plus=0.8, gamma_minus=0.45, p_g=0.3)
        model, state = build_collective_model(params), collective_state(params, kind)
        basis = collective_basis(params)
        permutation_searches.clear()
        flux_matrix(model, state, basis)
        entropy_production_rate(model, state)
        assert permutation_searches == []

    def test_an_unrecorded_basis_is_searched_once_where_first_used(self, permutation_searches):
        rng = np.random.default_rng(31)
        model, state = random_model(rng, 5, 2), random_state(rng, 5)
        obs = ObservableDecomposition.from_operator(random_model(rng, 5, 1).hamiltonian)
        for _ in range(2):
            flux_matrix(model, state, obs)
            entropy_production_rate(model, state)
        assert permutation_searches == [(5, 5), (5, 5)]


class TestClosedForms:
    def test_plus_reference_point(self):
        params = CollectiveModelParams(n_levels=4, **STANDARD)
        ref = closed_form_reference(params, "+")
        assert ref.m_h == pytest.approx(16.0)
        assert ref.escape_rate == pytest.approx(10.0)
        assert ref.t_eg == pytest.approx(8.0)

    def test_minus_even(self):
        params = CollectiveModelParams(n_levels=4, **STANDARD)
        ref = closed_form_reference(params, "-")
        assert ref.m_h == pytest.approx(0.0)
        assert ref.escape_rate == pytest.approx(2.0)
        assert ref.t_eg == pytest.approx(0.0)

    def test_minus_odd(self):
        params = CollectiveModelParams(n_levels=5, **STANDARD)
        ref = closed_form_reference(params, "-")
        assert ref.m_h == pytest.approx(1.0)
        assert ref.t_eg == pytest.approx(0.5)

    @pytest.mark.parametrize("sign", ["+", "-"])
    @pytest.mark.parametrize("n", [2, 3, 5, 7, 8])
    def test_brute_force_agreement(self, sign, n):
        params = CollectiveModelParams(n_levels=n, omega=1.3, gamma_plus=0.8,
                                       gamma_minus=0.45, p_g=0.3)
        flux = flux_matrix(
            build_collective_model(params),
            build_plus_minus_state(params, sign),
            collective_basis(params),
        )
        ref = closed_form_reference(params, sign)
        integrated = flux.integrated
        pairs = [
            (integrated[1, 0], ref.t_eg),
            (integrated[0, 0], ref.t_gg),
            (integrated[0, 1], ref.t_ge),
            (integrated[1, 1], ref.t_ee),
            (flux.escape_rate, ref.escape_rate),
            (short_time_moment(flux, 2).value, ref.m_h),
        ]
        for got, expected in pairs:
            assert abs(got - expected) <= 1e-10 * max(abs(expected), 1.0)

    def test_parity(self):
        assert parity(4) == 0
        assert parity(5) == 1


class TestScalingSweep:
    def test_plus_state_exponents(self):
        params = CollectiveModelParams(n_levels=4, **STANDARD)
        sweep = scaling_sweep(params, [4, 8, 16, 32], "+")
        assert sweep.exponents["m_x"].slope == pytest.approx(2.0, abs=0.05)
        assert sweep.exponents["current"].slope == pytest.approx(1.0, abs=0.05)
        assert sweep.exponents["m_x"].r_squared >= 0.99

    def test_minus_even_fluctuation_vanishes(self):
        params = CollectiveModelParams(n_levels=4, **STANDARD)
        sweep = scaling_sweep(params, [4, 8, 16], "-")
        assert max(abs(m) for m in sweep.m_x) <= 1e-10

    def test_diagonal_state_linear(self):
        params = CollectiveModelParams(n_levels=4, **STANDARD)
        sweep = scaling_sweep(params, [4, 8, 16, 32], "diagonal")
        assert sweep.exponents["m_x"].slope == pytest.approx(1.0, abs=0.05)

    def test_fixed_population_mode(self):
        params = CollectiveModelParams(n_levels=4, omega=1.0, gamma_plus=1.0,
                                       gamma_minus=1.0, p_g=0.7)
        sweep = scaling_sweep(params, [4, 8], "+", balance_scale=None)
        # unbalanced: J = omega N^2 (g+ p_g - g- p_e) grows quadratically
        assert sweep.currents[1] / sweep.currents[0] == pytest.approx(4.0, rel=1e-10)

    @pytest.mark.parametrize("kind", STATE_KINDS)
    def test_sweep_decomposes_no_state(self, kind, eigendecompositions):
        n_list = [4, 8, 16, 32, 64]
        scaling_sweep(CollectiveModelParams(n_levels=4, **STANDARD), n_list, kind)
        assert not {(2 * n, 2 * n) for n in n_list} & set(eigendecompositions)

    def test_workers_do_not_change_results(self):
        params = CollectiveModelParams(n_levels=4, **STANDARD)
        serial = scaling_sweep(params, [4, 8, 16], "+", workers=1)
        parallel = scaling_sweep(params, [4, 8, 16], "+", workers=3)
        assert serial.m_x == parallel.m_x
        assert serial.bounds == parallel.bounds

    def test_too_few_points(self):
        params = CollectiveModelParams(n_levels=4, **STANDARD)
        with pytest.raises(InsufficientPointsError):
            scaling_sweep(params, [4], "+")

    def test_unsorted_rejected(self):
        params = CollectiveModelParams(n_levels=4, **STANDARD)
        with pytest.raises(ValueError):
            scaling_sweep(params, [8, 4], "+")

    def test_repeated_n_rejected(self):
        # a repeated point would weigh twice in every exponent fit
        params = CollectiveModelParams(n_levels=4, **STANDARD)
        with pytest.raises(ValueError, match="strictly ascending"):
            scaling_sweep(params, [4, 8, 8, 16], "+")

    @pytest.mark.parametrize("state_kind", ["+", "-", "diagonal"])
    def test_dissipative_current_closed_form(self, state_kind):
        # with g+ p_g - g- p_e = kappa / N, J_d = omega kappa times N, chi / N or 1
        omega, kappa = 1.3, 0.6
        params = CollectiveModelParams(n_levels=4, omega=omega, gamma_plus=0.8,
                                       gamma_minus=0.4, p_g=0.5)
        n_list = [15, 16, 256]
        sweep = scaling_sweep(params, n_list, state_kind, balance_scale=kappa)
        for n, j_d in zip(n_list, sweep.currents):
            factor = {"+": n, "-": parity(n) / n, "diagonal": 1.0}[state_kind]
            expected = omega * kappa * factor
            assert abs(j_d - expected) <= 1e-11 * max(abs(expected), omega * kappa)

    def test_balanced_population_formula(self):
        params = CollectiveModelParams(n_levels=4, omega=1.0, gamma_plus=0.8,
                                       gamma_minus=0.4, p_g=0.5)
        for n in (4, 16):
            p_g = balanced_p_g(params, n, 0.5)
            assert params.gamma_plus * p_g - params.gamma_minus * (1 - p_g) == \
                pytest.approx(0.5 / n, abs=1e-12)


class TestQConditions:
    def test_plus_state_satisfies_both(self):
        params = CollectiveModelParams(n_levels=4, **STANDARD)
        sweep = scaling_sweep(params, [4, 8, 16, 32, 64], "+")
        report = q1_q2_diagnostics(sweep)
        assert report.q1.satisfied
        assert report.q2.satisfied

    def test_minus_state_satisfies_neither(self):
        params = CollectiveModelParams(n_levels=4, **STANDARD)
        sweep = scaling_sweep(params, [4, 8, 16, 32, 64], "-")
        report = q1_q2_diagnostics(sweep)
        assert not report.q1.satisfied
        assert not report.q2.satisfied
        # positive fluxes leave the negativity series at the clip: slope -1
        assert report.q1.exponent == pytest.approx(-1.0, abs=1e-6)
        assert report.q2.exponent == pytest.approx(0.0, abs=1e-6)

    def test_requires_four_points(self):
        params = CollectiveModelParams(n_levels=4, **STANDARD)
        sweep = scaling_sweep(params, [4, 8, 16], "+")
        with pytest.raises(InsufficientPointsError):
            q1_q2_diagnostics(sweep)

    @pytest.mark.parametrize("state_kind", ["-", "diagonal"])
    def test_no_anomalous_scaling_without_either_condition(self, state_kind):
        # whenever neither condition holds, the fluctuation stays linear at most
        params = CollectiveModelParams(n_levels=4, **STANDARD)
        sweep = scaling_sweep(params, [4, 8, 16, 32, 64], state_kind)
        report = q1_q2_diagnostics(sweep)
        assert not report.q1.satisfied and not report.q2.satisfied
        assert sweep.exponents["m_x"].slope <= 1.05


class TestFitAndReports:
    def test_fit_loglog_exact_power(self):
        n = np.array([2, 4, 8, 16])
        fit = fit_loglog(n, 3.0 * n**2.0)
        assert fit.slope == pytest.approx(2.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0)

    def test_fit_loglog_zero_series(self):
        fit = fit_loglog([2, 4, 8], [0.0, 0.0, 0.0])
        assert fit.slope == pytest.approx(0.0, abs=1e-12)
        assert fit.r_squared == 1.0

    def test_csv_and_summary(self, tmp_path):
        params = CollectiveModelParams(n_levels=4, **STANDARD)
        sweep = scaling_sweep(params, [4, 8, 16, 32], "+")
        path = tmp_path / "sweep.csv"
        sweep_to_csv(sweep, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "N,m_X,escape_rate,min_T,J_d,epr,bound"
        assert len(lines) == 5
        first = lines[1].split(",")
        assert int(first[0]) == 4
        assert float(first[1]) == pytest.approx(sweep.m_x[0])
        summary = sweep_summary(sweep, q1_q2_diagnostics(sweep))
        assert "exponents" in summary and "conditions" in summary
        import json
        json.dumps(summary)
