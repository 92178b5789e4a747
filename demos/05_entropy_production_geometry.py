#!/usr/bin/env python3
"""The force/current geometry behind the uncertainty relation.

Entropy production admits an exact inner-product form on an enlarged space
with one two-by-two block per jump pair: sigma = <J, F> where J collects
the pair currents and F the thermodynamic forces s_k Lt + [Lt, ln rho].
Only the off-diagonal block of each pair is nonzero, so the library keeps
J, F and the gradients as stacks of d x d blocks. A logarithmic-mean
weighting, applied block by block in the eigenbasis of rho, turns the
force into the current, making sigma a squared norm; Cauchy-Schwarz
against the gradient of an observable then yields the bound. Every link
of that chain is evaluated here on a random detail-balanced model.
"""

import numpy as np

from quasitur import (
    currents,
    entropy_production_rate,
    geometric_representation,
    quantum_diffusivity,
)
from quasitur.ensembles import random_instance
from quasitur.lindblad import apply_dissipator

rng = np.random.default_rng(5)
model, state, x = random_instance(rng, max_dim=4, max_pairs=2)
print(f"random model: dimension {model.dim}, {len(model.jump_pairs)} jump pair(s)")

sigma = entropy_production_rate(model, state)
geo = geometric_representation(model, state)
print(f"sigma directly:              {sigma:.10f}")
print(f"sigma as <J, F>:             {geo.epr_inner:.10f}")
print(f"sigma as the weighted norm:  {geo.epr_norm:.10f}")

# the weighting maps force to current exactly
print(f"J and F: {geo.current.shape[0]} blocks of {model.dim} x {model.dim}")
mapped = geo.weighted_apply(geo.force)
print(f"|S_W(F) - J| = {np.linalg.norm(mapped - geo.current):.2e}")

# the divergence of the current is the dissipator
div = geo.divergence(geo.current)
target = apply_dissipator(model, state.rho)
print(f"|div J - D(rho)| = {np.linalg.norm(div - target):.2e}")

# Cauchy-Schwarz chain down to the uncertainty relation
grad = geo.gradient(x)
grad_norm_sq = geo.weighted_norm_sq(grad)
d_x = quantum_diffusivity(model, state, x)
j_d = currents(model, state, x).dissipative_part
print(f"\nchain for a random observable:")
print(f"  sigma * D_X          = {sigma * d_x:.8f}")
print(f"  sigma * |grad X|^2_W = {sigma * grad_norm_sq:.8f}")
print(f"  |tr(X D(rho))|^2     = {j_d**2:.8f}")
assert sigma * d_x >= sigma * grad_norm_sq >= j_d**2 - 1e-12
print("each line bounds the next: the uncertainty relation follows")
