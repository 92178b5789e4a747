"""Exactly-real inputs are stored as float64 and take the real kernels.

Two checks: the dtype rule itself (with hashes and JSON unchanged by it),
and a phase-gauge oracle. A diagonal unitary D = diag(exp(i phi_j)) applied
to H, every L_k, rho and the basis turns a real instance into an equivalent
complex one, which takes the complex kernels; every gauge-invariant result
must agree between the two.
"""

import numpy as np
import pytest

from quasitur.degeneracy import (
    CollectiveModelParams,
    build_collective_model,
    build_diagonal_state,
    build_plus_minus_state,
    collective_basis,
)
from quasitur.ensembles import random_model, random_observable, random_state
from quasitur.lindblad import JumpPair, LindbladModel, QuantumState, model_hash
from quasitur.operators import ObservableDecomposition
from quasitur.quasiprob import flux_matrix, short_time_moment
from quasitur.thermo import (
    DEFAULT_EIGENVALUE_FLOOR,
    currents,
    entropy_production_rate,
    floored_state,
    geometric_representation,
    tur_bound,
    tur_check,
)
from quasitur.util import matrix_to_json, operator_hash

GAUGE_RTOL = 1e-12
FLOOR = DEFAULT_EIGENVALUE_FLOOR


def _real_symmetric_pair():
    rng = np.random.default_rng(5)
    x = random_observable(rng, 4).real
    return x, x.astype(complex)


class TestDtypeRule:
    def test_state_is_real(self):
        rho = random_state(np.random.default_rng(1), 4).rho.real
        for given in (rho, rho.astype(complex)):
            state = QuantumState(given)
            assert state.rho.dtype == np.float64
            assert state.eigenvectors.dtype == np.float64

    def test_one_imaginary_entry_keeps_complex(self):
        rho = np.diag([0.5, 0.3, 0.2]).astype(complex)
        rho[0, 1], rho[1, 0] = 0.01j, -0.01j
        state = QuantumState(rho)
        assert state.rho.dtype == np.complex128
        assert state.eigenvectors.dtype == np.complex128
        x = np.diag([1.0, 2.0, 3.0]).astype(complex)
        x[2, 0], x[0, 2] = 1e-300j, -1e-300j
        assert ObservableDecomposition.from_operator(x).eigenvectors.dtype == np.complex128

    def test_model_is_real(self):
        model = random_model(np.random.default_rng(2), 4, 2)
        for cast in (np.real, lambda a: a.real.astype(complex)):
            pairs = tuple(JumpPair(cast(p.forward), cast(p.backward), p.entropy_current)
                          for p in model.jump_pairs)
            real = LindbladModel(cast(model.hamiltonian), pairs)
            assert real.hamiltonian.dtype == np.float64
            for pair in real.jump_pairs:
                assert pair.forward.dtype == pair.backward.dtype == np.float64

    def test_observable_eigenvectors_are_real(self):
        x, x_complex = _real_symmetric_pair()
        vecs = np.linalg.eigh(x)[1]
        built = [
            ObservableDecomposition.from_operator(x_complex),
            ObservableDecomposition.from_groups([(0.0, vecs[:, :2].astype(complex)),
                                                 (1.0, vecs[:, 2:])]),
            ObservableDecomposition.from_eigenbasis(np.arange(4.0), vecs.astype(complex)),
        ]
        for obs in built:
            assert obs.eigenvectors.dtype == np.float64

    def test_hashes_and_json_ignore_the_dtype(self):
        x, x_complex = _real_symmetric_pair()
        assert operator_hash(x) == operator_hash(x_complex)
        assert matrix_to_json(x) == matrix_to_json(x_complex)
        # the digests the collective model and basis had when stored as complex128
        params = CollectiveModelParams(n_levels=3)
        model = build_collective_model(params)
        assert model.hamiltonian.dtype == np.float64
        assert model_hash(model) == "51095f2236ccf1f7"
        assert operator_hash(collective_basis(params).observable) == "675cf09e37420aa4"


# --- phase-gauge oracle -------------------------------------------------------


def _gauge(a, phases):
    """D a D^dag with D = diag(phases), on an operator or a stack."""
    return phases[:, None] * a * phases.conj()


def _gauged(model, state, basis, phases):
    """The instance with every operator sent to D A D^dag and the basis to D V."""
    pairs = tuple(JumpPair(_gauge(p.forward, phases), _gauge(p.backward, phases),
                           p.entropy_current) for p in model.jump_pairs)
    groups = [(value, phases[:, None] * basis.eigenvectors[:, members])
              for value, members in zip(basis.class_values, basis.class_members)]
    return (LindbladModel(_gauge(model.hamiltonian, phases), pairs),
            QuantumState(_gauge(state.rho, phases)), ObservableDecomposition.from_groups(groups))


def _assert_close(real, gauged, what, atol=0.0):
    real, gauged = np.asarray(real), np.asarray(gauged)
    err = float(np.max(np.abs(real - gauged), initial=0.0))
    scale = float(np.max(np.abs(real), initial=0.0))
    assert err <= max(GAUGE_RTOL * scale, atol), f"{what}: {err:.3e} against scale {scale:.3e}"


def _floor_sensitivity(model, state, g_state, structure):
    """First-order bounds on how far the floored EPR and force move between
    two copies of a rank-deficient state whose null eigenvalues carry
    different rounding noise.

    The floor lifts every eigenvalue below eps to about eps, so noise delta
    there moves ln rho by at most delta / eps, and only on the span P of the
    null eigenvectors. -tr(L(rho) ln rho) then moves by at most that times
    the flux into P, tr(P sum_k L_k rho L_k^dag), and the force
    s_c T_c + [T_c, ln rho] by at most that times ||T_c P|| + ||P T_c||.
    Both bounds are zero when no jump reaches P.
    """
    shift = sum(np.abs(s.eigenvalues[s.eigenvalues < FLOOR]).max(initial=0.0)
                for s in (state, g_state)) / FLOOR
    null = state.eigenvectors[:, state.eigenvalues < FLOOR]
    proj = null @ null.T
    inflow = sum(np.trace(proj @ op @ state.rho @ op.T) for op in model.jump_operators)
    force = max(np.linalg.norm(t @ proj, 2) + np.linalg.norm(proj @ t, 2) for t in structure)
    return shift * inflow, shift * force


def _compare(model, state, basis, floored_epr_is_zero=False):
    phases = np.exp(1j * np.random.default_rng(model.dim).uniform(0.0, 2 * np.pi, model.dim))
    g_model, g_state, g_basis = _gauged(model, state, basis, phases)
    # the gauge must actually send the jump operators and the basis to complex
    assert model.jump_pairs[0].forward.dtype == np.float64
    assert g_model.jump_pairs[0].forward.dtype == np.complex128
    assert g_basis.eigenvectors.dtype == np.complex128

    _assert_close(state.eigenvalues, g_state.eigenvalues, "rho spectrum")
    flux, g_flux = flux_matrix(model, state, basis), flux_matrix(g_model, g_state, g_basis)
    _assert_close(flux.escape_rate, g_flux.escape_rate, "escape rate")
    # noise-level zeros (T_yx, m_X, J and the current of the "-" state at
    # even N) compare against the escape rate, the scale of every flux
    atol = GAUGE_RTOL * abs(flux.escape_rate)
    _assert_close(flux.values, g_flux.values, "flux values", atol)
    _assert_close(flux.integrated, g_flux.integrated, "integrated fluxes", atol)
    m_x, g_m_x = (short_time_moment(f, 2).value for f in (flux, g_flux))
    j_d = currents(model, state, basis).dissipative_part
    g_j_d = currents(g_model, g_state, g_basis).dissipative_part
    _assert_close(m_x, g_m_x, "m_X", atol)
    _assert_close(j_d, g_j_d, "J", atol)
    _assert_close(tur_bound(j_d, m_x), tur_bound(g_j_d, g_m_x), "bound", atol)

    full, g_full = floored_state(state, FLOOR)[0], floored_state(g_state, FLOOR)[0]
    geo, g_geo = geometric_representation(model, full), geometric_representation(g_model, g_full)
    epr_shift, force_shift = _floor_sensitivity(model, state, g_state, geo.structure)
    # the floored "-" EPR is an exact zero at even N
    epr_atol = max(GAUGE_RTOL if floored_epr_is_zero else 0.0, epr_shift)

    report, g_report = tur_check(model, state, basis), tur_check(g_model, g_state, g_basis)
    _assert_close(report.epr, g_report.epr, "tur_check epr", epr_atol)
    for name in ("current", "fluctuation", "bound", "diffusivity", "diffusivity_bound"):
        _assert_close(getattr(report, name), getattr(g_report, name), f"tur_check {name}", atol)
    _assert_close(report.slack, g_report.slack, "tur_check slack", max(epr_atol, atol))
    assert report.floor_applied == g_report.floor_applied

    _assert_close(geo.rates, g_geo.rates, "rates")
    _assert_close(geo.epr_inner, g_geo.epr_inner, "epr_inner", epr_atol)
    _assert_close(geo.epr_norm, g_geo.epr_norm, "epr_norm", epr_atol)
    _assert_close(geo.epr_inner, entropy_production_rate(model, full, None), "epr", epr_atol)
    for name, name_atol in (("current", atol), ("force", force_shift), ("structure", 0.0)):
        _assert_close(getattr(geo, name), _gauge(getattr(g_geo, name), phases.conj()), name,
                      name_atol)


@pytest.mark.parametrize("n", [4, 7, 16])
@pytest.mark.parametrize("kind", ["+", "-", "diagonal"])
def test_gauge_oracle_collective(n, kind):
    params = CollectiveModelParams(n_levels=n, gamma_plus=0.8, gamma_minus=0.4, p_g=0.45)
    state = (build_diagonal_state(params) if kind == "diagonal"
             else build_plus_minus_state(params, kind))
    assert state.rho.dtype == np.float64
    _compare(build_collective_model(params), state, collective_basis(params),
             floored_epr_is_zero=kind == "-")


def test_gauge_oracle_random_real_instance():
    rng = np.random.default_rng(17)
    complex_model = random_model(rng, 6, 2)
    pairs = tuple(JumpPair(p.forward.real, p.backward.real, p.entropy_current)
                  for p in complex_model.jump_pairs)
    model = LindbladModel(complex_model.hamiltonian.real, pairs)
    state = QuantumState(random_state(rng, 6).rho.real)
    basis = ObservableDecomposition.from_operator(random_observable(rng, 6).real)
    assert basis.eigenvectors.dtype == model.hamiltonian.dtype == np.float64
    _compare(model, state, basis)
