"""Property tests of the uncertainty relation and the identities behind it,
on random instances with d in [2, 16] and one to three jump pairs: the TUR
slack is non-negative, D_X = m_X / 2, and the quasiprobability table
reproduces the populations at both times. States may be rank deficient,
which ``tur_check`` floors, and observables may carry an eigenvalue gap
just above the degeneracy merging threshold."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quasitur.ensembles import (
    random_model,
    random_observable,
    random_probability,
    random_state,
    random_unitary,
)
from quasitur.lindblad import QuantumState, propagate
from quasitur.quasiprob import ObservableDecomposition, tmh_table
from quasitur.thermo import tur_check
from quasitur.util import DEGENERACY_TOL, DIFFUSIVITY_IDENTITY_TOL, TUR_SLACK_TOL

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
