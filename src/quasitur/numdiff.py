"""Central finite-difference stencils for derivatives at a point.

Used to extract moments from generating functions without relying on the
closed-form flux expressions, so the two routes stay independent.
"""

from __future__ import annotations

from typing import Callable

# offsets j and coefficients c_j for f^(n)(0) ~ sum_j c_j f(j*h) / h^n, all O(h^4)
_STENCILS: dict[int, tuple[tuple[int, ...], tuple[float, ...]]] = {
    1: ((-2, -1, 1, 2), (1 / 12, -2 / 3, 2 / 3, -1 / 12)),
    2: ((-2, -1, 0, 1, 2), (-1 / 12, 4 / 3, -5 / 2, 4 / 3, -1 / 12)),
    3: ((-3, -2, -1, 1, 2, 3), (1 / 8, -1, 13 / 8, -13 / 8, 1, -1 / 8)),
    4: ((-3, -2, -1, 0, 1, 2, 3), (-1 / 6, 2, -13 / 2, 28 / 3, -13 / 2, 2, -1 / 6)),
}


def stencil(order: int) -> tuple[tuple[int, ...], tuple[float, ...]]:
    """Offsets j and coefficients c_j of the O(h^4) central stencil,
    f^(n)(0) ~ sum_j c_j f(j h) / h^n."""
    if order not in _STENCILS:
        raise ValueError(f"unsupported derivative order {order}")
    return _STENCILS[order]


def central_derivative(fn: Callable[[float], complex], order: int, h: float) -> complex:
    """n-th derivative of ``fn`` at 0 from an O(h^4) central stencil."""
    offsets, coeffs = stencil(order)
    if h <= 0:
        raise ValueError("step size must be positive")
    return sum((c * fn(j * h) for j, c in zip(offsets, coeffs)), 0j) / h**order


def moment_step(scale: float, order: int) -> float:
    """Step size for moment extraction, shrunk with the argument scale.

    ``scale`` should bound the frequencies appearing in the generating
    function (the largest eigenvalue gap); higher orders use a larger step
    to keep roundoff amplification under control.
    """
    base = 0.01 if order <= 2 else 0.02
    return base / max(scale, 1e-6)


def derivative_moment(fn: Callable[[float], complex], order: int, scale: float) -> complex:
    """(-i d/dl)^n of ``fn`` at 0, the moment of order ``n``."""
    h = moment_step(scale, order)
    return (-1j) ** order * central_derivative(fn, order, h)
