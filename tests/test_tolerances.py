"""Thresholds of the tolerance table in ``quasitur.util`` that no other test
pins, each by one input just inside and one just outside, the lag check,
the state-dimension check, and the malformed-input rejections no other test
reaches."""

from contextlib import nullcontext

import numpy as np
import pytest

from quasitur.cli import run
from quasitur.classical import (
    classical_generating_function,
    classical_joint_moment,
    classical_propagate,
    validate_probability,
    validate_rate_matrix,
)
from quasitur.degeneracy import (
    ScalingSweepReport,
    l1_coherence,
    q1_q2_diagnostics,
    sweep_summary,
)
from quasitur.errors import DimMismatchError, TracePreservationError
from quasitur.fcs import (
    compare_rates,
    fcs_generating_rate,
    predicted_rate_difference,
    tmh_generating_rate,
)
from quasitur.lindblad import (
    JumpPair,
    LindbladModel,
    QuantumState,
    apply_liouvillian,
    decompose_pair,
    heisenberg_propagator,
    propagate,
    save_model,
    validate_local_detailed_balance,
)
from quasitur.operators import ObservableDecomposition
from quasitur.quasiprob import (
    FluxMatrix,
    flux_matrix,
    generating_function,
    moment_from_generating_function,
    short_time_fluctuation_operator_form,
    tmh_table,
)
from quasitur.thermo import (
    currents,
    entropy_production_rate,
    geometric_representation,
    quantum_diffusivity,
    tur_check,
)
from quasitur.util import as_operator, matrix_from_json

from oracles import (
    SIGMA_MINUS,
    SIGMA_PLUS,
    excited_state,
    ladder_model,
    ladder_state,
    thermal_qubit,
)

RATES = np.array([[-1.0, 2.0], [1.0, -2.0]])
P = np.array([0.6, 0.4])
F = np.array([0.0, 1.0])
ENTRY_POINTS = {
    "propagate": lambda t: propagate(thermal_qubit(), excited_state(), t),
    "heisenberg_propagator": lambda t: heisenberg_propagator(thermal_qubit(), t),
    "classical_propagate": lambda t: classical_propagate(RATES, P, t),
    "classical_joint_moment": lambda t: classical_joint_moment(RATES, P, F, 2, t),
    "classical_generating_function": lambda t: classical_generating_function(RATES, P, F, 0.3, t),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("t", [np.nan, np.inf, -0.1])
def test_lag_must_be_finite_and_non_negative(entry, t):
    # warnings are errors in this suite, so a warning before the check fails too
    with pytest.raises(ValueError, match="lag must be finite and non-negative"):
        ENTRY_POINTS[entry](t)


NAN_OPERATOR = np.array([[1.0, np.nan], [0.0, 0.0]])
INF_OPERATOR = np.array([[1.0, 0.0], [1j * np.inf, 0.0]])
REJECTIONS = {
    "as_operator nan": (lambda: as_operator(NAN_OPERATOR), ValueError, "non-finite"),
    "as_operator inf": (lambda: as_operator(INF_OPERATOR), ValueError, "non-finite"),
    "generator operand": (lambda: apply_liouvillian(thermal_qubit(), NAN_OPERATOR),
                          ValueError, "non-finite"),
    "propagator operand": (lambda: heisenberg_propagator(thermal_qubit(), 0.1)(INF_OPERATOR[None]),
                           ValueError, "non-finite"),
    "json scalar entries": (lambda: matrix_from_json([[1.0, 0.0], [0.0, 1.0]]), ValueError, "pairs"),
    "json triples": (lambda: matrix_from_json([[[1.0, 0.0, 0.0]]]), ValueError, "pairs"),
    "from_eigenbasis non-square": (
        lambda: ObservableDecomposition.from_eigenbasis([0.0, 1.0], np.eye(3)[:, :2]),
        DimMismatchError, "square"),
}


@pytest.mark.parametrize("case", sorted(REJECTIONS))
def test_malformed_input_rejected(case):
    call, error, match = REJECTIONS[case]
    with pytest.raises(error, match=match):
        call()


# each entry point called as (model, state, observable)
DIMENSION_MISMATCHES = {
    "tmh_table": lambda m, s, x: tmh_table(m, s, x, 0.1),
    "entropy_production_rate": lambda m, s, x: entropy_production_rate(m, s),
    "geometric_representation": lambda m, s, x: geometric_representation(m, s),
    "tur_check": tur_check,
    "generating_function": lambda m, s, x: generating_function(m, s, x, 0.3, 0.1),
    "moment_from_generating_function": lambda m, s, x: moment_from_generating_function(
        m, s, x, 2, 0.1),
    "tmh_generating_rate": lambda m, s, x: tmh_generating_rate(m, s, x, 0.3),
    "fcs_generating_rate": lambda m, s, x: fcs_generating_rate(m, s, (1.0, -1.0, 1.0, -1.0), 0.3),
    "predicted_rate_difference": lambda m, s, x: predicted_rate_difference(m, s, x, [0.3]),
    "compare_rates": compare_rates,
    "currents": currents,
    "short_time_fluctuation_operator_form": short_time_fluctuation_operator_form,
    "quantum_diffusivity": quantum_diffusivity,
    "flux_matrix": flux_matrix,
    "propagate": lambda m, s, x: propagate(m, s, 0.1),
    "l1_coherence": lambda m, s, x: l1_coherence(s, ObservableDecomposition.from_operator(x)),
}


@pytest.mark.parametrize("entry", sorted(DIMENSION_MISMATCHES))
def test_state_dimension_mismatch_raises(entry):
    # a d = 4 state on the d = 3 ladder used to reach numpy's matmul
    state = QuantumState(np.eye(4, dtype=complex) / 4)
    with pytest.raises(DimMismatchError, match=r"dimension 4 |shape \(4, 4\)"):
        DIMENSION_MISMATCHES[entry](ladder_model(), state, np.diag([0.0, 1.0, 2.0]))


def test_observable_dimension_mismatch_raises():
    with pytest.raises(DimMismatchError, match="observable dimension"):
        predicted_rate_difference(ladder_model(), ladder_state(), np.eye(4, dtype=complex), [0.3])


# inputs at 0.9 (inside) and 1.1 (outside) times a threshold
INSIDE, OUTSIDE = 0.9, 1.1


def _outcome(factor, error=ValueError, match=None):
    """Accepted inside the threshold, ``error`` outside it."""
    return nullcontext() if factor == INSIDE else pytest.raises(error, match=match)


@pytest.mark.parametrize("factor, n_classes", [(INSIDE, 2), (OUTSIDE, 3)])
def test_degeneracy_gap_scales_with_the_norm(factor, n_classes):
    # ||X||_F = 10, so the merging gap is 1e-9 * 10
    gap = factor * 1e-8
    x = np.diag([0.0, gap, np.sqrt(100.0 - gap**2)]).astype(complex)
    assert ObservableDecomposition.from_operator(x).n_classes == n_classes


@pytest.mark.parametrize("factor", [INSIDE, OUTSIDE])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_density_matrix_trace(factor, sign):
    rho = np.diag([0.5 + sign * factor * 1e-10, 0.5]).astype(complex)
    with _outcome(factor, match="trace"):
        QuantumState(rho)


@pytest.mark.parametrize("factor", [INSIDE, OUTSIDE])
def test_density_matrix_eigenvalue(factor):
    e = factor * 1e-10
    rho = np.diag([1.0 + e, -e]).astype(complex)
    with _outcome(factor, match="eigenvalue"):
        QuantumState(rho)


@pytest.mark.parametrize("factor", [INSIDE, OUTSIDE])
def test_probability_sum(factor):
    p = np.array([0.5 + factor * 1e-12, 0.5])
    with _outcome(factor, match="sum"):
        validate_probability(p)


@pytest.mark.parametrize("factor", [INSIDE, OUTSIDE])
def test_rate_matrix_column_sum(factor):
    # largest rate 4: the column-sum threshold is 1e-12 * 4
    r = np.array([[-4.0, 4.0], [4.0 + factor * 4e-12, -4.0]])
    with _outcome(factor, match="columns"):
        validate_rate_matrix(r)


@pytest.mark.parametrize("factor", [INSIDE, OUTSIDE])
def test_flux_column_sum(factor):
    # largest flux 5: the column-sum threshold is 1e-10 * 5
    values = np.array([[-5.0, 5.0], [5.0 + factor * 5e-10, -5.0]])
    with _outcome(factor, TracePreservationError):
        FluxMatrix(labels=np.array([0.0, 1.0]), resolved=values, class_members=([0], [1]))


@pytest.mark.parametrize("factor", [INSIDE, OUTSIDE])
def test_decompose_pair_residual(factor):
    # ||L_k||_F = 2 and exp(s/2) L_-k^dag = 2 sigma_+: the threshold is 1e-8 * 2
    offset = np.array([[1.0, 0.0], [0.0, 0.0]]) * factor * 2e-8
    pair = JumpPair(2.0 * SIGMA_PLUS + offset, SIGMA_MINUS, 2.0 * np.log(2.0))
    with _outcome(factor, match="detailed balance"):
        decompose_pair(pair)


@pytest.mark.parametrize("factor", [INSIDE, OUTSIDE])
def test_detailed_balance_verdict(factor, tmp_path):
    # ||L_k||_F = 4, but the verdict's threshold is 1e-8 absolute, not relative
    offset = np.array([[1.0, 0.0], [0.0, 0.0]]) * factor * 1e-8
    pair = JumpPair(4.0 * SIGMA_PLUS + offset, 2.0 * SIGMA_MINUS, 2.0 * np.log(2.0))
    model = LindbladModel(np.zeros((2, 2)), (pair,))
    assert validate_local_detailed_balance(model).passed is (factor == INSIDE)
    save_model(model, tmp_path / "model.json")
    assert run(["validate", "--model", str(tmp_path / "model.json")]) == (factor == OUTSIDE)


@pytest.mark.parametrize("slope, satisfied", [(0.5 - 1e-3, False), (0.5 + 1e-3, True)])
def test_q1_slope_threshold(slope, satisfied):
    # exact power laws: -min flux / N = N^slope, R^2 = 1
    n = (4, 8, 16, 32)
    flux = tuple(-float(k) ** (1.0 + slope) for k in n)
    sweep = ScalingSweepReport(n_values=n, state_kind="+", m_x=n, escape_rates=n,
                               min_integrated_flux=flux, currents=n, eprs=n, bounds=n,
                               exponents={}, eigenvalue_floor=1e-12, balance_scale=None)
    summary = sweep_summary(sweep, q1_q2_diagnostics(sweep))
    assert summary["conditions"]["q1"]["satisfied"] is satisfied
