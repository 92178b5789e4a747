#!/usr/bin/env python3
"""Anomalous fluctuation scaling in the collective two-band model.

Two N-fold degenerate energy bands are coupled by collective all-to-all
jumps. The uniform superposition state amplifies the inter-band fluxes to
N^2, so the energy fluctuation m_H scales quadratically and the
uncertainty-relation bound stays finite while the current grows linearly:
a dissipationless current. The alternating superposition carries exactly
as much coherence yet shows none of this; its fluxes collapse to the
parity of N.

The run sweeps N, fits the growth exponents, evaluates the two
non-classicality conditions (flux negativity beyond N, escape rate beyond
N), and checks the closed forms against summed fluxes.
"""

import numpy as np

from quasitur import (
    CollectiveModelParams,
    build_collective_model,
    build_plus_minus_state,
    classify_basis_classicality,
    closed_form_reference,
    collective_basis,
    flux_matrix,
    l1_coherence,
    q1_q2_diagnostics,
    scaling_sweep,
    short_time_moment,
    superposition_basis,
)

params = CollectiveModelParams(n_levels=8, omega=1.0, gamma_plus=1.0,
                               gamma_minus=1.0, p_g=0.5)
basis = collective_basis(params)
model = build_collective_model(params)

print(f"N = {params.n_levels}: closed forms vs summed fluxes")
for sign in ("+", "-"):
    state = build_plus_minus_state(params, sign)
    flux = flux_matrix(model, state, basis)
    ref = closed_form_reference(params, sign)
    print(f"  sign {sign}: T_eg = {flux.integrated[1, 0]:.6f} (closed {ref.t_eg:.6f}), "
          f"m_H = {short_time_moment(flux, 2).value:.6f} (closed {ref.m_h:.6f}), "
          f"coherence = {l1_coherence(state, basis):.3f}")

print("\nbasis classicality (magnitude bound 2, count bound 2):")
for name, b in (("product", basis), ("superposition", superposition_basis(params, "+"))):
    rep = classify_basis_classicality(model, b, magnitude_bound=2.0, count_bound=2)
    print(f"  {name}: classical = {rep.classical}, "
          f"largest jump element = {rep.worst_magnitude:.3f}")

print("\nscaling sweep, uniform superposition:")
n_list = [4, 8, 16, 32, 64]
sweep = scaling_sweep(params, n_list, "+")
for i, n in enumerate(sweep.n_values):
    print(f"  N={n:3d}: m_H={sweep.m_x[i]:10.3f}  |J|={abs(sweep.currents[i]):8.4f}  "
          f"bound={sweep.bounds[i]:.4f}  sigma={sweep.eprs[i]:.4f}")
print(f"fitted exponents: m_H {sweep.exponents['m_x'].slope:.3f}, "
      f"|J| {sweep.exponents['current'].slope:.3f}")
cond = q1_q2_diagnostics(sweep)
print(f"flux-negativity condition satisfied: {cond.q1.satisfied} "
      f"(exponent {cond.q1.exponent:.2f})")
print(f"escape-rate condition satisfied: {cond.q2.satisfied} "
      f"(exponent {cond.q2.exponent:.2f})")

print("\nsame sweep with the alternating superposition:")
sweep_minus = scaling_sweep(params, n_list, "-")
print("  m_H per N:", [f"{m:.2e}" for m in sweep_minus.m_x])
cond_minus = q1_q2_diagnostics(sweep_minus)
print(f"  conditions: ({cond_minus.q1.satisfied}, {cond_minus.q2.satisfied}) "
      "- no anomalous scaling despite equal coherence")
