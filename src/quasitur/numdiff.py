"""Moments from a generating function, independently of the flux closed forms.

Each generating function is a finite sum of q e^{il(y - x)} with real q, so
it is entire in l. The trapezoidal rule on a circle gives its Taylor
coefficients with geometric convergence and no cancellation (Trefethen &
Weideman, SIAM Review 56(3), 2014).
"""

from __future__ import annotations

from math import factorial
from typing import Callable

import numpy as np

#: trapezoidal nodes on the circle |l| = 1/scale
CONTOUR_NODES = 16


def derivative_moment(fn: Callable[[np.ndarray], np.ndarray], order: int, scale: float) -> complex:
    """(-i d/dl)^n of ``fn`` at 0, the moment of order ``n``.

    ``scale`` should bound the frequencies in ``fn`` (the largest eigenvalue
    gap). Real weights give fn(-conj(l)) = conj(fn(l)), so ``fn`` is called
    once, on the 1-D complex array of the nodes with Re l >= 0, and returns
    one value per node; the other nodes are their mirrors.
    """
    if not 0 <= order < CONTOUR_NODES // 2:
        raise ValueError(f"unsupported derivative order {order}")
    r = 1.0 / max(scale, 1e-6)
    k = np.arange(-(CONTOUR_NODES // 4), CONTOUR_NODES // 4 + 1)
    right = fn(r * np.exp(2j * np.pi * k / CONTOUR_NODES))
    values = np.empty(CONTOUR_NODES, dtype=complex)
    values[k] = right
    values[CONTOUR_NODES // 2 - k[1:-1]] = np.conj(right[1:-1])  # -conj(l_k) = l_{N/2-k}
    coeff = np.fft.fft(values)[order] / (CONTOUR_NODES * r**order)
    return complex((-1j) ** order * factorial(order) * coeff)
