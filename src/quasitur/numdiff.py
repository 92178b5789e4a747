"""Moments from central finite differences of a generating function at 0.

Used to extract moments from generating functions without relying on the
closed-form flux expressions, so the two routes stay independent.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

# offsets j and coefficients c_j for f^(n)(0) ~ sum_j c_j f(j*h) / h^n, all O(h^4)
_STENCILS: dict[int, tuple[tuple[int, ...], tuple[float, ...]]] = {
    1: ((-2, -1, 1, 2), (1 / 12, -2 / 3, 2 / 3, -1 / 12)),
    2: ((-2, -1, 0, 1, 2), (-1 / 12, 4 / 3, -5 / 2, 4 / 3, -1 / 12)),
    3: ((-3, -2, -1, 1, 2, 3), (1 / 8, -1, 13 / 8, -13 / 8, 1, -1 / 8)),
    4: ((-3, -2, -1, 0, 1, 2, 3), (-1 / 6, 2, -13 / 2, 28 / 3, -13 / 2, 2, -1 / 6)),
}


def derivative_moment(fn: Callable[[np.ndarray], np.ndarray], order: int, scale: float) -> complex:
    """(-i d/dl)^n of ``fn`` at 0, the moment of order ``n``, from an O(h^4)
    central stencil. ``fn`` is called once, on the 1-D array of stencil
    points, and returns one value per point.

    ``scale`` should bound the frequencies appearing in ``fn`` (the largest
    eigenvalue gap); the step shrinks with it, and higher orders use a
    larger step to keep roundoff amplification under control.
    """
    if order not in _STENCILS:
        raise ValueError(f"unsupported derivative order {order}")
    offsets, coeffs = _STENCILS[order]
    h = (0.01 if order <= 2 else 0.02) / max(scale, 1e-6)
    values = fn(np.multiply(offsets, h))
    # the built-in sum adds the points in stencil order, whatever numpy's reduction order
    return complex((-1j) ** order * (sum(np.multiply(coeffs, values)) / h**order))
