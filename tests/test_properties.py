"""Property tests of the counting-field convention shared by every
generating function: a scalar lambda gives a complex number, a 1-D array
gives the same values from one evaluation, and those values match the
closed forms evaluated one lambda at a time. Complex lambda, which the
contour moments use, obey the same convention and G(-conj l) = conj G(l)."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from quasitur.classical import classical_generating_function
from quasitur.ensembles import random_instance, random_probability, random_reversible_rate_matrix
from quasitur.fcs import CurrentObservableSpec, fcs_generating_rate, tmh_generating_rate
from quasitur.lindblad import apply_adjoint_liouvillian
from quasitur.quasiprob import ObservableDecomposition, generating_function

# derandomized: every run checks the same examples, so a failure reproduces
PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)

seeds = st.integers(0, 2**32 - 1)
lambda_arrays = st.lists(st.floats(-4.0, 4.0, allow_nan=False), min_size=1, max_size=8).map(np.array)
complex_lambda_arrays = st.lists(st.complex_numbers(max_magnitude=3.0, allow_nan=False,
                                                   allow_infinity=False),
                                 min_size=1, max_size=8).map(lambda lams: np.array(lams, dtype=complex))
lags = st.floats(0.0, 1.0)


def _quantum_instance(seed):
    rng = np.random.default_rng(seed)
    model, state, x = random_instance(rng)
    spec = CurrentObservableSpec(weights=rng.normal(size=len(model.jump_operators)))
    return model, state, ObservableDecomposition.from_operator(x), spec


def _classical_instance(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    return random_reversible_rate_matrix(rng, n), random_probability(rng, n), rng.normal(size=n)


def _generating_functions(seed, delta_t):
    """Every generating function and rate of one instance, as lam -> value."""
    model, state, obs, spec = _quantum_instance(seed)
    r, p, f = _classical_instance(seed)
    return {
        "generating_function": lambda lam: generating_function(model, state, obs, lam, delta_t),
        "classical_generating_function": lambda lam: classical_generating_function(r, p, f, lam, delta_t),
        "tmh_generating_rate": lambda lam: tmh_generating_rate(model, state, obs, lam),
        "fcs_generating_rate": lambda lam: fcs_generating_rate(model, state, spec, lam),
    }


def _assert_array_matches_scalar_calls(seed, lams, delta_t, scalar_type):
    for name, fn in _generating_functions(seed, delta_t).items():
        values = fn(lams)
        assert isinstance(values, np.ndarray) and values.shape == lams.shape, name
        for lam, value in zip(lams, values):
            scalar = fn(scalar_type(lam))
            assert type(scalar) is complex, name
            assert abs(scalar - value) <= 1e-14 * max(abs(value), 1.0), name


@PROPERTY_SETTINGS
@given(seed=seeds, lams=lambda_arrays, delta_t=lags)
def test_array_matches_scalar_calls(seed, lams, delta_t):
    _assert_array_matches_scalar_calls(seed, lams, delta_t, float)


@PROPERTY_SETTINGS
@given(seed=seeds, lams=complex_lambda_arrays, delta_t=lags)
def test_complex_array_matches_scalar_calls(seed, lams, delta_t):
    _assert_array_matches_scalar_calls(seed, lams, delta_t, complex)


@PROPERTY_SETTINGS
@given(seed=seeds, lams=complex_lambda_arrays, delta_t=lags)
def test_conjugate_symmetry(seed, lams, delta_t):
    for name, fn in _generating_functions(seed, delta_t).items():
        values = fn(lams)
        mirrored = fn(-lams.conj())
        assert np.all(np.abs(mirrored - values.conj()) <= 1e-14 * np.maximum(np.abs(values), 1.0)), name


def _loop_references(seed, delta_t):
    """One-lambda-at-a-time evaluations of the closed forms, as lam -> value."""
    model, state, obs, spec = _quantum_instance(seed)
    r, p, f = _classical_instance(seed)
    rho = state.rho

    def tmh(lam):
        u = obs.phase_operator(lam)
        evolved = apply_adjoint_liouvillian(model, u)
        return 0.5 * np.trace((evolved @ u.conj().T + u.conj().T @ evolved) @ rho)

    def fcs(lam):
        return sum((np.exp(1j * lam * w) - 1.0) * np.trace(op.conj().T @ op @ rho).real
                   for w, op in zip(spec.weights, model.jump_operators))

    def classical(lam):
        heisenberg = scipy.linalg.expm(r.T * delta_t) @ np.exp(1j * lam * f)
        return np.sum(heisenberg * np.exp(-1j * lam * f) * p)

    return {"tmh_generating_rate": tmh, "fcs_generating_rate": fcs,
            "classical_generating_function": classical}


@PROPERTY_SETTINGS
@given(seed=seeds, lams=lambda_arrays, delta_t=lags)
def test_array_matches_loop_reference(seed, lams, delta_t):
    functions = _generating_functions(seed, delta_t)
    for name, reference in _loop_references(seed, delta_t).items():
        values = functions[name](lams)
        for lam, value in zip(lams, values):
            expected = reference(float(lam))
            assert abs(value - expected) <= 1e-12 * max(abs(expected), 1.0), name


@PROPERTY_SETTINGS
@given(seed=seeds, delta_t=lags)
def test_value_at_zero(seed, delta_t):
    functions = _generating_functions(seed, delta_t)
    for name in ("generating_function", "classical_generating_function"):
        assert functions[name](0.0) == pytest.approx(1.0, abs=1e-12), name
    for name in ("tmh_generating_rate", "fcs_generating_rate"):
        assert functions[name](0.0) == pytest.approx(0.0, abs=1e-12), name
