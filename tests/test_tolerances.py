"""Thresholds of the tolerance table in ``quasitur.util`` that no other test
pins, each by one input just inside and one just outside, the lag check,
the state-dimension check, the check of every observable argument, and the
malformed-input rejections no other test reaches."""

from contextlib import nullcontext

import numpy as np
import pytest

from quasitur import thermo
from quasitur.cli import run
from quasitur.classical import (
    classical_generating_function,
    classical_joint_moment,
    classical_propagate,
    validate_probability,
    validate_rate_matrix,
)
from quasitur.degeneracy import (
    CollectiveModelParams,
    ScalingSweepReport,
    balanced_p_g,
    build_plus_minus_state,
    classify_basis_classicality,
    closed_form_reference,
    fit_loglog,
    l1_coherence,
    q1_q2_diagnostics,
    scaling_sweep,
    sweep_summary,
)
from quasitur.errors import (DimMismatchError, InsufficientPointsError, NotHermitianError,
                             TracePreservationError)
from quasitur.fcs import (
    commutation_check,
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
    short_time_moment,
    tmh_table,
)
from quasitur.thermo import (
    currents,
    entropy_production_rate,
    geometric_representation,
    quantum_diffusivity,
    tur_check,
    tur_report_dict,
)
from quasitur.util import as_operator, matrix_from_json

from oracles import (
    SIGMA_MINUS,
    SIGMA_PLUS,
    derivative_moment,
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
    "rate matrix non-square": (lambda: validate_rate_matrix(np.zeros((2, 3))),
                               DimMismatchError, "square"),
    "negative probability": (lambda: validate_probability([1.5, -0.5]),
                             ValueError, "negative probability"),
    # NaN fails every comparison, so each of these used to pass its checks
    "rate matrix nan": (lambda: validate_rate_matrix(np.array([[np.nan, 2.0], [1.0, -2.0]])),
                        ValueError, "non-finite"),
    "probability nan": (lambda: validate_probability([np.nan, 1.0]), ValueError, "non-finite"),
    "state function inf": (lambda: classical_joint_moment(RATES, P, [0.0, np.inf], 2, 0.1),
                           ValueError, "non-finite"),
    "as_operator non-square": (lambda: as_operator(np.zeros((2, 3))), DimMismatchError, "square"),
    "jump pair shapes": (lambda: JumpPair(SIGMA_PLUS, np.zeros((3, 3)), 0.0),
                         DimMismatchError, "differ in shape"),
    "jump pair dimension": (
        lambda: LindbladModel(np.zeros((3, 3)), (JumpPair(SIGMA_PLUS, SIGMA_MINUS, 0.0),)),
        DimMismatchError, "jump pair dimension"),
    # a NaN current made the balance residual NaN, which passed
    # decompose_pair's check and left sigma and the TUR slack NaN
    "entropy current nan": (lambda: JumpPair(SIGMA_MINUS, SIGMA_MINUS.T, np.nan),
                            ValueError, "non-finite"),
    "entropy current inf": (lambda: JumpPair(SIGMA_MINUS, SIGMA_MINUS.T, np.inf),
                            ValueError, "non-finite"),
    # exp(s / 2) overflows: the residual is not finite and fails the check
    "entropy current 2000": (lambda: decompose_pair(JumpPair(SIGMA_MINUS, SIGMA_MINUS.T, 2000.0)),
                             ValueError, "local detailed balance"),
    # each used to give nan+nanj with only a RuntimeWarning
    "fcs weights nan": (lambda: fcs_generating_rate(thermal_qubit(), excited_state(),
                                                    [np.nan, 1.0], 0.3), ValueError, "non-finite"),
    "fcs weights inf": (lambda: fcs_generating_rate(thermal_qubit(), excited_state(),
                                                    [1.0, np.inf], 0.3), ValueError, "non-finite"),
    "collective n_levels": (lambda: CollectiveModelParams(0), ValueError, "n_levels"),
    "collective rates": (lambda: CollectiveModelParams(2, gamma_minus=0.0), ValueError, "positive"),
    "collective omega nan": (lambda: CollectiveModelParams(2, omega=np.nan), ValueError, "positive"),
    "collective rate inf": (lambda: CollectiveModelParams(2, gamma_plus=np.inf),
                            ValueError, "positive"),
    "collective p_g": (lambda: CollectiveModelParams(2, p_g=1.5), ValueError, "p_g"),
    "plus-minus state sign": (lambda: build_plus_minus_state(CollectiveModelParams(2), "diagonal"),
                              ValueError, "sign"),
    "closed form sign": (lambda: closed_form_reference(CollectiveModelParams(2), "diagonal"),
                         ValueError, "sign"),
    "fit one point": (lambda: fit_loglog([4], [1.0]), InsufficientPointsError, "two points"),
    # each used to give a NaN slope or a RuntimeWarning, and a silent verdict
    "fit zero N": (lambda: fit_loglog([0, 1, 2], [1.0, 2.0, 3.0]), ValueError, "positive"),
    "fit negative N": (lambda: fit_loglog([-2, 4], [1.0, 2.0]), ValueError, "positive"),
    "fit nan series": (lambda: fit_loglog([1, 2], [np.nan, 1.0]), ValueError, "non-finite"),
    "fit inf series": (lambda: fit_loglog([1, 2, 4], [1.0, np.inf, 3.0]), ValueError, "non-finite"),
    # p_g = (1 + 10 / 2) / 2 = 3
    "balanced p_g out of range": (lambda: balanced_p_g(CollectiveModelParams(2), 2, 10.0),
                                  ValueError, "drives p_g"),
    "sweep state kind": (
        lambda: scaling_sweep(CollectiveModelParams(2), [2, 4], state_kind="mixed"),
        ValueError, "state_kind"),
    # the test oracle's contour rule
    "derivative order 8": (lambda: derivative_moment(np.exp, 8, 1.0),
                           ValueError, "unsupported derivative order"),
    # the stack (X_c, ..., X_c^n) would be empty
    "moment order 0": (lambda: moment_from_generating_function(
        ladder_model(), ladder_state(), np.diag([0.0, 1.0, 2.0]), 0, 0.1),
        ValueError, "moment order must be >= 1"),
    # each used to give inf or NaN with only a RuntimeWarning, or a TypeError
    "flux moment order 2.5": (lambda: short_time_moment(
        flux_matrix(ladder_model(), ladder_state(), np.diag([0.0, 1.0, 2.0])), 2.5),
        ValueError, "moment order"),
    "table moment order -1": (lambda: tmh_table(
        ladder_model(), ladder_state(), np.diag([0.0, 1.0, 2.0]), 0.1).moment(-1),
        ValueError, "moment order"),
    "classical moment order -1": (lambda: classical_joint_moment(RATES, P, F, -1, 0.1),
                                  ValueError, "moment order"),
    "generating-function moment order 2.5": (lambda: moment_from_generating_function(
        ladder_model(), ladder_state(), np.diag([0.0, 1.0, 2.0]), 2.5, 0.1),
        ValueError, "moment order"),
    # argparse rejects the option and exits with status 2
    "three gammas": (lambda: run(["example", "--n", "2", "--gammas", "1,2,3",
                                  "--output", "unused.csv"]), SystemExit, "^2$"),
}


@pytest.mark.parametrize("case", sorted(REJECTIONS))
def test_malformed_input_rejected(case):
    call, error, match = REJECTIONS[case]
    with pytest.raises(error, match=match):
        call()


def test_moment_order_takes_numpy_integers():
    model, state, x = ladder_model(), ladder_state(), np.diag([0.0, 1.0, 2.0])
    table, flux = tmh_table(model, state, x, 0.1), flux_matrix(model, state, x)
    for n in (2, np.int64(2), np.uint8(2)):
        assert table.moment(n) == table.moment(2)
        assert short_time_moment(flux, n).order == 2
        assert (classical_joint_moment(RATES, P, F, n, 0.1)
                == classical_joint_moment(RATES, P, F, 2, 0.1))
        assert moment_from_generating_function(model, state, x, n, 0.1).value == pytest.approx(
            table.moment(2), rel=1e-12)
    assert table.moment(0) == pytest.approx(1.0, rel=1e-12)


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


# every entry point that takes an observable, called as (model, state, observable)
OBSERVABLE_ENTRY_POINTS = {
    "tmh_table": lambda m, s, x: tmh_table(m, s, x, 0.1),
    "flux_matrix": flux_matrix,
    "generating_function": lambda m, s, x: generating_function(m, s, x, 0.3, 0.1),
    "moment_from_generating_function": lambda m, s, x: moment_from_generating_function(
        m, s, x, 2, 0.1),
    "short_time_fluctuation_operator_form": short_time_fluctuation_operator_form,
    "currents": currents,
    "quantum_diffusivity": quantum_diffusivity,
    "tur_check": tur_check,
    "tur_report_dict": lambda m, s, x: tur_report_dict(
        tur_check(m, s, np.diag([0.0, 1.0, 2.0])), m, x),
    "commutation_check": lambda m, s, x: commutation_check(m, x),
    "tmh_generating_rate": lambda m, s, x: tmh_generating_rate(m, s, x, 0.3),
    "predicted_rate_difference": lambda m, s, x: predicted_rate_difference(m, s, x, [0.3]),
    "compare_rates": compare_rates,
    "classify_basis_classicality": lambda m, s, x: classify_basis_classicality(m, x, 1.0, 1),
}


@pytest.mark.parametrize("entry", sorted(OBSERVABLE_ENTRY_POINTS))
def test_observable_dimension_mismatch_raises(entry):
    # a d = 4 observable on the d = 3 ladder, whose state is correct
    with pytest.raises(DimMismatchError,
                       match="observable dimension 4 differs from model dimension 3"):
        OBSERVABLE_ENTRY_POINTS[entry](ladder_model(), ladder_state(), np.eye(4, dtype=complex))


@pytest.mark.parametrize("entry", sorted(OBSERVABLE_ENTRY_POINTS))
def test_non_hermitian_observable_raises(entry):
    # the input is at fault, not a residue downstream
    with pytest.raises(NotHermitianError):
        OBSERVABLE_ENTRY_POINTS[entry](ladder_model(), ladder_state(), np.triu(np.ones((3, 3))))


# inputs at 0.9 (inside) and 1.1 (outside) times a threshold
INSIDE, OUTSIDE = 0.9, 1.1


def _outcome(factor, error=ValueError, match=None):
    """Accepted inside the threshold, ``error`` outside it."""
    return nullcontext() if factor == INSIDE else pytest.raises(error, match=match)


@pytest.mark.parametrize("factor, n_classes", [(INSIDE, 2), (OUTSIDE, 3)])
def test_degeneracy_gap_scales_with_the_norm(factor, n_classes):
    # the spread of X is ||X||_F = 10 to rounding, so the merging gap is 1e-9 * 10
    gap = factor * 1e-8
    x = np.diag([0.0, gap, np.sqrt(100.0 - gap**2)]).astype(complex)
    assert ObservableDecomposition.from_operator(x).n_classes == n_classes


@pytest.mark.parametrize("factor, n_classes", [(INSIDE, 2), (OUTSIDE, 3)])
def test_degeneracy_gap_scales_with_the_spread(factor, n_classes):
    # spread 10 under an offset of 1e3: the merging gap is 1e-9 * 10, not 1e-9 * ||X||_F
    gap = factor * 1e-8
    x = np.diag([1e3, 1e3 + gap, 1e3 + 10.0])
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
def test_diffusivity_identity(factor, monkeypatch):
    # the ladder's bound is 0.26 < 1, so the threshold is 1e-10 absolute; D_X
    # scaled by 1 + e / bound moves J^2 / D_X off the bound by e to first order
    model, state, x = ladder_model(), ladder_state(), np.diag([0.0, 1.0, 2.0])
    bound = tur_check(model, state, x).bound
    diffusivity = thermo.quantum_diffusivity
    monkeypatch.setattr(thermo, "quantum_diffusivity",
                        lambda *args: diffusivity(*args) * (1.0 + factor * 1e-10 / bound))
    with _outcome(factor, match="diffusivity bound .* deviates"):
        tur_check(model, state, x)


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


# exp(s / 2) overflows at s = 2000, so that pair's residual is NaN: the
# verdict fails, and the largest residual shows the NaN wherever it stands
BALANCED_PAIR = JumpPair(SIGMA_MINUS, SIGMA_MINUS.T, 0.0)
OVERFLOWING_PAIR = JumpPair(SIGMA_MINUS, SIGMA_MINUS.T, 2000.0)


@pytest.mark.parametrize("pairs", [(BALANCED_PAIR, OVERFLOWING_PAIR),
                                   (OVERFLOWING_PAIR, BALANCED_PAIR)], ids=["last", "first"])
def test_nan_residual_shows_in_the_verdict(pairs, tmp_path, capsys):
    model = LindbladModel(np.zeros((2, 2)), pairs)
    report = validate_local_detailed_balance(model)
    assert not report.passed and np.isnan(report.max_residual)
    save_model(model, tmp_path / "model.json")
    assert run(["validate", "--model", str(tmp_path / "model.json")]) == 1
    assert "FAIL (max residual nan," in capsys.readouterr().out


@pytest.mark.parametrize("factor", [INSIDE, OUTSIDE])
def test_commutation_verdict(factor):
    # X = diag(0, 4) and L = s (sigma_+ + eps P_g): ||[X, L] - w L||_F = 4 s eps / sqrt(1 + eps^2)
    # against 1e-9 * spread(X) * ||L||_F = 1e-9 * 4 * s sqrt(1 + eps^2); s < 1 pins it as relative
    scale, eps = 1e-3, factor * 1e-9
    jump = scale * (SIGMA_PLUS + np.diag([eps, 0.0]))
    model = LindbladModel(np.zeros((2, 2)), (JumpPair(jump, np.zeros((2, 2)), 0.0),))
    assert commutation_check(model, np.diag([0.0, 4.0])).ok is (factor == INSIDE)


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
