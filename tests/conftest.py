import sys

import pytest
import scipy.linalg


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
