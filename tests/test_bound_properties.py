"""Property tests of the uncertainty relation and the identities behind it,
on random instances with d in [2, 16] and one to three jump pairs: the TUR
slack is non-negative, D_X = m_X / 2, and the quasiprobability table
reproduces the populations at both times. States may be rank deficient,
which ``tur_check`` floors, and observables may carry an eigenvalue gap
just above the degeneracy merging threshold.

Two families reach further. Observables near a conserved one have an O(1)
bound built from J ~ eta and m_X ~ eta^2, checked against 50-digit
references. The observable that maximises the bound checks ``tur_check``
against the closed-form supremum 2 j^T M^+ j, which lies much closer to
sigma than the bound of a random observable does."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quasitur.ensembles import (
    random_model,
    random_observable,
    random_probability,
    random_state,
    random_unitary,
)
from quasitur.ensembles import random_instance
from quasitur.lindblad import QuantumState, propagate
from quasitur.quasiprob import (ObservableDecomposition, short_time_fluctuation_operator_form,
                                tmh_table)
from quasitur.thermo import currents, tur_check
from quasitur.util import DEGENERACY_TOL, DIFFUSIVITY_IDENTITY_TOL, TUR_SLACK_TOL

from oracles import near_conserved_instance, optimal_bound, tur_reference

# derandomized: every run checks the same examples, so a failure reproduces
PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)
# the marginals hold to rounding (below 1e-15 on these instances)
MARGINAL_TOL = 1e-12

instances = st.fixed_dictionaries({
    "seed": st.integers(0, 2**32 - 1),
    "dim": st.sampled_from(range(2, 17)),
    "n_pairs": st.sampled_from(range(1, 4)),
    # a rank at or above dim gives a full-rank state
    "rank": st.sampled_from(range(1, 17)),
    "near_degenerate": st.booleans(),
})
# the largest instance, rank deficient, with the near-degenerate pair
LARGEST = {"seed": 16, "dim": 16, "n_pairs": 3, "rank": 5, "near_degenerate": True}


def _instance(seed, dim, n_pairs, rank, near_degenerate):
    """(model, state, observable) with ``min(rank, dim)`` the state's rank.

    With ``near_degenerate`` and d >= 3 the two lowest eigenvalues of the
    observable are 1.5 merging thresholds apart, so they stay separate
    classes, while the rest of the spectrum keeps its width of order 1. (At
    d = 2 the pair would be the whole spectrum: an observable 1e-9 wide,
    whose m_X falls below ``tur_bound``'s absolute zero threshold while its
    current does not, which raises ``ZeroFluctuationError``.)
    """
    rng = np.random.default_rng(seed)
    model = random_model(rng, dim, n_pairs)
    if rank >= dim:
        state = random_state(rng, dim)
    else:
        vecs = random_unitary(rng, dim)[:, :rank]
        state = QuantumState((vecs * random_probability(rng, rank)) @ vecs.conj().T)
    x = random_observable(rng, dim)
    if near_degenerate and dim >= 3:
        vals, vecs = np.linalg.eigh(x)
        vals[1] = vals[0]
        vals[1] += 1.5 * DEGENERACY_TOL * max(float(np.linalg.norm(vals)), 1.0)
        x = (vecs * vals) @ vecs.conj().T
    obs = ObservableDecomposition.from_operator(x)
    assert obs.n_classes == dim
    return model, state, obs


@PROPERTY_SETTINGS
@given(instance=instances)
@example(instance=LARGEST)
def test_tur_slack_and_diffusivity_identity(instance):
    model, state, obs = _instance(**instance)
    report = tur_check(model, state, obs)
    assert report.floor_applied is (instance["rank"] < instance["dim"])
    assert report.slack >= -TUR_SLACK_TOL * max(report.epr, 1.0)
    m_x = report.fluctuation
    assert abs(2.0 * report.diffusivity - m_x) <= DIFFUSIVITY_IDENTITY_TOL * max(m_x, 1.0)


@PROPERTY_SETTINGS
@given(instance=instances, delta_t=st.floats(0.0, 1.0))
@example(instance=LARGEST, delta_t=1.0)
def test_table_marginals_are_populations(instance, delta_t):
    model, state, obs = _instance(**instance)
    table = tmh_table(model, state, obs, delta_t)
    evolved = propagate(model, state, delta_t).rho
    for marginal, rho in ((table.marginal_initial(), state.rho), (table.marginal_final(), evolved)):
        populations = np.einsum("xij,ji->x", obs.projectors, rho).real
        assert np.max(np.abs(marginal - populations)) <= MARGINAL_TOL


# Relative errors against ``tur_reference`` over seeds 0-9: the largest
# measured one rounded up at the second digit, with the error before the
# commutator Gram sum and the flux moment without H in the comments.
# Operator-form m_X and J, also under an offset of X by 1e4 I:
NEAR_CONSERVED_OPERATOR_FORM = {
    # eta: (m_X, J)
    1e-2: (4.1e-15, 3.1e-14),  # m_X was 2.6e-12
    1e-3: (7.8e-14, 5.5e-13),  # m_X was 2.5e-10
    1e-4: (4.1e-13, 4.0e-12),  # m_X was 4.6e-8
    1e-6: (8.6e-11, 4.9e-10),  # m_X was 5.4e-4
}
# tur_check, which returns on every seed at these eta (before: on 10, 9
# and 0 of 10, raising that the diffusivity bound deviates):
NEAR_CONSERVED_TUR_CHECK = {
    # eta: (flux-route m_X, bound)
    1e-2: (3.3e-13, 3.0e-13),  # were 2.3e-13 and 2.4e-13
    1e-3: (9.9e-13, 1.4e-12),  # were 1.1e-11 and 1.1e-11 on 9 seeds
    1e-4: (4.7e-12, 8.5e-12),  # raised on every seed
}


def _relative_error(value, reference):
    return abs(float((value - reference) / reference))


@pytest.mark.parametrize("offset", [0.0, 1e4])
@pytest.mark.parametrize("eta", sorted(NEAR_CONSERVED_OPERATOR_FORM))
def test_near_conserved_operator_form_and_current(eta, offset):
    m_tol, j_tol = NEAR_CONSERVED_OPERATOR_FORM[eta]
    for seed in range(10):
        model, state, x = near_conserved_instance(seed, eta)
        x = x + offset * np.eye(4)
        m_ref, j_ref, _ = tur_reference(model, state, x)
        m_x = short_time_fluctuation_operator_form(model, state, x).value
        assert _relative_error(m_x, m_ref) <= m_tol, seed
        assert _relative_error(currents(model, state, x).dissipative_part, j_ref) <= j_tol, seed


@pytest.mark.parametrize("eta", sorted(NEAR_CONSERVED_TUR_CHECK))
def test_near_conserved_tur_check(eta):
    m_tol, bound_tol = NEAR_CONSERVED_TUR_CHECK[eta]
    for seed in range(10):
        model, state, x = near_conserved_instance(seed, eta)
        m_ref, _, bound_ref = tur_reference(model, state, x)
        report = tur_check(model, state, x)
        assert _relative_error(report.fluctuation, m_ref) <= m_tol, seed
        assert _relative_error(report.bound, bound_ref) <= bound_tol, seed
        assert report.slack >= 0.0, seed


# tur_check at X* against 2 j^T M^+ j: at most 2.99e-15 relative on these seeds
OPTIMAL_BOUND_TOL = 3.0e-15


def test_optimal_observable_attains_the_supremum():
    # the supremum over X lies at 0.41-0.95 sigma on these seeds (median 0.60),
    # so a bound inflated by 6% already exceeds sigma somewhere
    for seed in range(40):
        model, state, _ = random_instance(np.random.default_rng(seed))
        supremum, optimal = optimal_bound(model, state)
        report = tur_check(model, state, optimal)
        assert abs(report.bound - supremum) <= OPTIMAL_BOUND_TOL * supremum, seed
        assert report.slack >= 0.0, seed
        rng = np.random.default_rng(1000 + seed)
        for _ in range(10):
            sampled = tur_check(model, state, random_observable(rng, model.dim)).bound
            assert sampled <= supremum * (1.0 + OPTIMAL_BOUND_TOL), seed
