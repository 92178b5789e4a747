"""Importing quasitur loads no scipy module: each propagation route imports
the one it calls when it first runs.

The checks run in a fresh interpreter, because the test session itself has
long since imported scipy.
"""

import os
import subprocess
import sys
from pathlib import Path

import quasitur

SRC = Path(quasitur.__file__).resolve().parents[1]

PROBE = """
import sys

import numpy as np

import quasitur
import quasitur.cli
from quasitur.degeneracy import CollectiveModelParams, scaling_sweep
from quasitur.ensembles import random_instance, random_model, random_observable, random_state
from quasitur.lindblad import propagate
from quasitur.quasiprob import flux_matrix, tmh_table
from quasitur.thermo import geometric_representation, tur_check


def scipy_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")


assert not scipy_modules(), f"import loads {scipy_modules()}"

rng = np.random.default_rng(0)
model, state, x = random_instance(rng)
tur_check(model, state, x)
geometric_representation(model, state)
flux_matrix(model, state, x)
scaling_sweep(CollectiveModelParams(n_levels=4), [4, 8, 16, 32])
tmh_table(random_model(rng, 32, 2), random_state(rng, 32), random_observable(rng, 32), 0.05)
assert not scipy_modules(), f"routes without an exponential load {scipy_modules()}"

propagate(random_model(rng, 4, 2), random_state(rng, 4), 0.5)
loaded = scipy_modules()
assert "scipy.linalg" in loaded, loaded
assert not [name for name in loaded
            if name.startswith(("scipy.sparse", "scipy.integrate"))], loaded
"""


def test_scipy_loads_only_with_the_route_that_calls_it():
    proc = subprocess.run([sys.executable, "-c", PROBE], env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
