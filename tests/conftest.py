import sys

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

from quasitur import lindblad, operators, thermo, util


@pytest.fixture
def lindblad_expm(monkeypatch):
    """Shapes of the ``scipy.linalg.expm`` calls made from ``quasitur.lindblad``."""
    shapes = []
    dense_expm = scipy.linalg.expm

    def watched_expm(a, *args, **kwargs):
        if sys._getframe(1).f_globals.get("__name__") == "quasitur.lindblad":
            shapes.append(a.shape)
        return dense_expm(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "expm", watched_expm)
    return shapes


@pytest.fixture
def eigendecompositions(monkeypatch):
    """Shapes of the ``numpy.linalg.eigh`` and ``eigvalsh`` calls, in order."""
    shapes = []
    for name in ("eigh", "eigvalsh"):
        decompose = getattr(np.linalg, name)

        def watched(a, *args, _decompose=decompose, **kwargs):
            shapes.append(np.shape(a))
            return _decompose(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, watched)
    return shapes


@pytest.fixture
def lindblad_expm_multiply(monkeypatch):
    """Block shapes of the ``scipy.sparse.linalg.expm_multiply`` calls made
    from ``quasitur.lindblad``."""
    shapes = []
    action = scipy.sparse.linalg.expm_multiply

    def watched_expm_multiply(a, b, *args, **kwargs):
        if sys._getframe(1).f_globals.get("__name__") == "quasitur.lindblad":
            shapes.append(b.shape)
        return action(a, b, *args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "expm_multiply", watched_expm_multiply)
    return shapes


@pytest.fixture
def thermo_rotations(monkeypatch):
    """The bases ``quasitur.thermo`` rotates into through ``_rotation``, in order."""
    bases = []
    rotation = thermo._rotation

    def watched_rotation(v, *perm):
        bases.append(v)
        return rotation(v, *perm)

    monkeypatch.setattr(thermo, "_rotation", watched_rotation)
    return bases


@pytest.fixture
def permutation_searches(monkeypatch):
    """The shapes of the bases ``quasitur.util._permutation`` searches, in order,
    from every module that calls it."""
    shapes = []
    search = util._permutation

    def watched_search(v):
        shapes.append(v.shape)
        return search(v)

    for module in (util, operators, lindblad):
        monkeypatch.setattr(module, "_permutation", watched_search)
    return shapes


@pytest.fixture
def flux_boxes(monkeypatch):
    """The support boxes ``quasitur.lindblad.resolved_fluxes`` finds, in order."""
    boxes = []
    support_box = lindblad._support_box

    def watched_support_box(jump):
        boxes.append(support_box(jump))
        return boxes[-1]

    monkeypatch.setattr(lindblad, "_support_box", watched_support_box)
    return boxes


@pytest.fixture
def generator_builds(monkeypatch):
    """(heisenberg, hamiltonian) of each generator ``quasitur.lindblad._generator``
    builds, in order."""
    builds = []
    generator = lindblad._generator

    def watched_generator(model, heisenberg, hamiltonian=True):
        builds.append((heisenberg, hamiltonian))
        return generator(model, heisenberg, hamiltonian)

    monkeypatch.setattr(lindblad, "_generator", watched_generator)
    return builds
