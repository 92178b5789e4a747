"""Acceptance suite: every headline identity, inequality, and closed form
at its stated tolerance, one printed verdict per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

import time
from functools import partial

import numpy as np
import pytest

from quasitur.classical import (
    classical_generating_function,
    classical_joint_moment,
    quantize_and_compare,
)
from quasitur.degeneracy import (
    CollectiveModelParams,
    build_collective_model,
    build_plus_minus_state,
    closed_form_reference,
    collective_basis,
    parity,
    q1_q2_diagnostics,
    scaling_sweep,
)
from quasitur.ensembles import (
    random_instance,
    random_probability,
    random_reversible_rate_matrix,
    random_state,
)
from quasitur.fcs import commutation_check, compare_rates
from quasitur.lindblad import apply_adjoint_liouvillian, propagate
from quasitur.quasiprob import (
    ObservableDecomposition,
    flux_matrix,
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
)

from oracles import (
    derivative_moment,
    enlarged,
    kubo_integral,
    ladder_model,
    ladder_state,
    phase_generating,
    thermal_qubit,
)


def verdict(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def tur_ensemble():
    """1000 seeded instances shared by criteria 1 and 2."""
    rng = np.random.default_rng(20250809)
    start = time.perf_counter()
    reports = [tur_check(*random_instance(rng, max_dim=6, max_pairs=3)) for _ in range(1000)]
    elapsed = time.perf_counter() - start
    return reports, elapsed


def test_criterion_01_tur_never_violated(tur_ensemble):
    reports, elapsed = tur_ensemble
    worst = min(r.slack / max(r.epr, 1.0) for r in reports)
    ok = all(r.slack >= -1e-9 * max(r.epr, 1.0) for r in reports) and elapsed <= 60.0
    verdict(1, ok, f"min relative slack {worst:.3e} over 1000 instances in {elapsed:.1f}s")


def test_criterion_02_diffusivity_identity(tur_ensemble):
    reports, _ = tur_ensemble
    worst = max(abs(2.0 * r.diffusivity - r.fluctuation) / max(r.fluctuation, 1.0)
                for r in reports)
    verdict(2, worst <= 1e-10, f"max |2 D_X - m_X| / max(m_X, 1) = {worst:.3e}")


@pytest.fixture(scope="module")
def moment_route_gap():
    """Criterion 3's worst pairwise gap, shared with its precision check.

    The third route is the contour moment of the phase-operator rate of
    ``oracles``, which shares no code with the flux matrix."""
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(100):
        model, state, x = random_instance(rng)
        obs = ObservableDecomposition.from_operator(x)
        m_flux = short_time_moment(flux_matrix(model, state, obs), 2).value
        m_operator = short_time_fluctuation_operator_form(model, state, obs).value
        rate = partial(phase_generating, partial(apply_adjoint_liouvillian, model), obs, state)
        m_rate_fd = derivative_moment(rate, 2, max(obs.max_gap, 1e-6)).real
        worst = max(worst, abs(m_flux - m_operator), abs(m_flux - m_rate_fd),
                    abs(m_operator - m_rate_fd))
    return worst


def test_criterion_03_moment_route_consistency(moment_route_gap):
    worst = moment_route_gap
    verdict(3, worst <= 1e-6, f"max pairwise moment-route gap {worst:.3e} on 100 instances")


def test_criterion_03_gap_is_rounding(moment_route_gap):
    assert moment_route_gap <= 1e-12


def test_criterion_04_table_marginals_and_expansion():
    rng = np.random.default_rng(404)
    worst_marginal = 0.0
    worst_ratio_dev = 0.0
    for _ in range(100):
        model, state, x = random_instance(rng)
        obs = ObservableDecomposition.from_operator(x)
        flux = flux_matrix(model, state, obs)
        populations = np.array([np.trace(p @ state.rho).real for p in obs.projectors])
        scale = max(1.0, flux.escape_rate, float(np.linalg.norm(model.hamiltonian)))
        dt = 0.02 / scale

        def remainder(lag):
            table = tmh_table(model, state, obs, lag)
            evolved = propagate(model, state, lag).rho
            pt = np.array([np.trace(p @ evolved).real for p in obs.projectors])
            marg = max(np.max(np.abs(table.marginal_initial() - populations)),
                       np.max(np.abs(table.marginal_final() - pt)))
            return np.max(np.abs(table.values - np.diag(populations) - flux.values * lag)), marg

        r_full, m_full = remainder(dt)
        r_half, m_half = remainder(dt / 2)
        worst_marginal = max(worst_marginal, m_full, m_half)
        worst_ratio_dev = max(worst_ratio_dev, abs(r_full / r_half - 4.0))
    ok = worst_marginal <= 1e-9 and worst_ratio_dev <= 0.8
    verdict(4, ok, f"marginal residual {worst_marginal:.3e}, "
                   f"halving-ratio deviation from 4 at most {worst_ratio_dev:.2f}")


def test_criterion_05_collective_closed_forms():
    worst = 0.0
    for n in range(2, 17):
        for sign in ("+", "-"):
            params = CollectiveModelParams(n_levels=n, omega=1.0, gamma_plus=1.0,
                                           gamma_minus=1.0, p_g=0.5)
            flux = flux_matrix(
                build_collective_model(params),
                build_plus_minus_state(params, sign),
                collective_basis(params),
            )
            ref = closed_form_reference(params, sign)
            checks = [
                (flux.integrated[1, 0], ref.t_eg),
                (flux.integrated[0, 0], ref.t_gg),
                (flux.escape_rate, ref.escape_rate),
                (short_time_moment(flux, 2).value, ref.m_h),
            ]
            for got, expected in checks:
                worst = max(worst, abs(got - expected) / max(abs(expected), 1.0))
            if sign == "+":
                assert ref.m_h == pytest.approx(float(n**2))
            else:
                assert ref.m_h == pytest.approx(float(parity(n)))
    verdict(5, worst <= 1e-10, f"worst closed-form relative residual {worst:.3e} "
                               f"for N in 2..16, both signs")


def test_criterion_06_anomalous_scaling_sweep():
    start = time.perf_counter()
    params = CollectiveModelParams(n_levels=4, omega=1.0, gamma_plus=1.0,
                                   gamma_minus=1.0, p_g=0.5)
    n_list = [4, 8, 16, 32, 64]
    sweep = scaling_sweep(params, n_list, "+")
    m_slope = sweep.exponents["m_x"].slope
    j_slope = sweep.exponents["current"].slope
    bounds = np.asarray(sweep.bounds)
    bound_spread = float(np.max(np.abs(bounds / bounds.mean() - 1.0)))
    sweep_minus = scaling_sweep(params, n_list, "-")
    m_minus = max(abs(m) for m in sweep_minus.m_x)
    elapsed = time.perf_counter() - start
    ok = (abs(m_slope - 2.0) <= 0.05 and abs(j_slope - 1.0) <= 0.05
          and bound_spread <= 0.10 and m_minus <= 1e-10 and elapsed <= 120.0)
    verdict(6, ok, f"m_H exponent {m_slope:.3f}, |J| exponent {j_slope:.3f}, "
                   f"bound spread {bound_spread:.2%}, minus-state m_H {m_minus:.1e}, "
                   f"{elapsed:.1f}s")


def test_criterion_07_q_condition_verdicts():
    params = CollectiveModelParams(n_levels=4, omega=1.0, gamma_plus=1.0,
                                   gamma_minus=1.0, p_g=0.5)
    n_list = [4, 8, 16, 32, 64]
    plus = q1_q2_diagnostics(scaling_sweep(params, n_list, "+"))
    minus = q1_q2_diagnostics(scaling_sweep(params, n_list, "-"))
    diagonal = scaling_sweep(params, n_list, "diagonal")
    diag_slope = diagonal.exponents["m_x"].slope
    ok = (plus.q1.satisfied and plus.q2.satisfied
          and not minus.q1.satisfied and not minus.q2.satisfied
          and diag_slope <= 1.05)
    verdict(7, ok, f"plus (Q1,Q2)=({plus.q1.satisfied},{plus.q2.satisfied}), "
                   f"minus ({minus.q1.satisfied},{minus.q2.satisfied}), "
                   f"diagonal m_H exponent {diag_slope:.3f}")


@pytest.fixture(scope="module")
def counting_bridge():
    """Criterion 8's worst sine-formula residual and even-moment gap."""
    cases = []
    model = ladder_model()
    cases.append((model, ladder_state(),
                  ObservableDecomposition.from_operator(np.diag([0.0, 1.0, 2.0]).astype(complex))))
    qubit = thermal_qubit(0.5, 1.0)
    cases.append((qubit, random_state(np.random.default_rng(808), 2),
                  ObservableDecomposition.from_operator(qubit.hamiltonian)))
    worst_residual = 0.0
    worst_even = 0.0
    for model, state, obs in cases:
        assert commutation_check(model, obs).ok
        comparison = compare_rates(model, state, obs)
        scale = max(1.0, float(np.max(np.abs(comparison.tmh_rate))))
        worst_residual = max(worst_residual, comparison.residual / scale)
        worst_even = max(worst_even, max(comparison.even_moment_differences))
    return worst_residual, worst_even


def test_criterion_08_counting_statistics_bridge(counting_bridge):
    worst_residual, worst_even = counting_bridge
    ok = worst_residual <= 1e-8 and worst_even <= 1e-6
    verdict(8, ok, f"sine-formula residual {worst_residual:.3e}, "
                   f"even-moment gap (orders 2 and 4) {worst_even:.3e}")


def test_criterion_08_even_moment_gap_is_rounding(counting_bridge):
    assert counting_bridge[1] <= 1e-12


@pytest.fixture(scope="module")
def classical_bridge():
    """Criterion 9's worst embedding residual and moment gap."""
    rng = np.random.default_rng(909)
    worst_embed = 0.0
    worst_fd = 0.0
    for _ in range(100):
        n = int(rng.integers(3, 6))
        r = random_reversible_rate_matrix(rng, n)
        p = random_probability(rng, n)
        f = rng.normal(size=n)
        # bounded spread keeps the fourth moment O(1), where the absolute
        # 1e-6 finite-difference tolerance is meaningful
        f = 2.0 * f / max(float(f.max() - f.min()), 1e-12)
        report = quantize_and_compare(r, p, f)
        worst_embed = max(worst_embed, report.max_residual)
        scale = max(float(f.max() - f.min()), 1e-6)
        for order in (1, 2, 3, 4):
            fd = derivative_moment(
                lambda lam: classical_generating_function(r, p, f, lam, 0.2),
                order, scale).real
            exact = classical_joint_moment(r, p, f, order, 0.2)
            worst_fd = max(worst_fd, abs(fd - exact))
    return worst_embed, worst_fd


def test_criterion_09_classical_bridge(classical_bridge):
    worst_embed, worst_fd = classical_bridge
    ok = worst_embed <= 1e-9 and worst_fd <= 1e-6
    verdict(9, ok, f"embedding residual {worst_embed:.3e}, "
                   f"generating-function moment gap {worst_fd:.3e} on 100 chains")


def test_criterion_09_moment_gap_is_rounding(classical_bridge):
    assert classical_bridge[1] <= 1e-12


def test_criterion_10_geometric_representation():
    rng = np.random.default_rng(1010)
    worst_identity = 0.0
    worst_chain = 0.0
    for _ in range(100):
        model, state, x = random_instance(rng)
        sigma = entropy_production_rate(model, state)
        geo = geometric_representation(model, state)
        scale = max(abs(sigma), 1.0)
        worst_identity = max(worst_identity,
                             abs(geo.epr_inner - sigma) / scale,
                             abs(geo.epr_norm - sigma) / scale,
                             abs(geo.epr_inner - geo.epr_norm) / scale)
        grad_sq = geo.weighted_norm_sq(geo.gradient(x))
        d_x = quantum_diffusivity(model, state, x)
        j_d = currents(model, state, x).dissipative_part
        worst_chain = max(worst_chain, grad_sq - d_x, j_d**2 - sigma * grad_sq)
        current, force, _, weight = enlarged(geo)
        mapped = kubo_integral(weight, force)
        worst_identity = max(worst_identity, float(np.linalg.norm(mapped - current)) / scale)
    ok = worst_identity <= 1e-8 and worst_chain <= 1e-9
    verdict(10, ok, f"identity residual {worst_identity:.3e}, "
                    f"Cauchy-Schwarz chain slack violation {max(worst_chain, 0.0):.3e}")
