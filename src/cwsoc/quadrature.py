"""Adaptive Gauss-Legendre panel quadrature.

No library module calls it: it is the reference that tests compare the
closed forms against.

Panels are split recursively until a panel's 12-node Gauss-Legendre estimate
and the sum of its two halves' agree to within the requested tolerance, or
their difference is not finite.
Integrands must accept numpy arrays (they are evaluated on whole node batches).
"""
from __future__ import annotations

import numpy as np

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(12)
_MAX_DEPTH = 40  # bisections after which a panel is accepted as it is


def _panel(f, a: float, b: float):
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    vals = np.asarray(f(mid + half * _NODES))
    if vals.ndim == 1:
        return half * np.sum(_WEIGHTS * vals)
    # vector-valued integrand: nodes along axis 0
    return half * np.tensordot(_WEIGHTS, vals, axes=(0, 0))


def adaptive_gauss_legendre(
    f,
    a: float,
    b: float,
    tol: float = 1e-12,
    initial_panels: int = 1,
):
    """Integrate ``f`` over ``[a, b]`` to absolute tolerance ``tol``.

    ``initial_panels`` pre-splits the interval, which is essential for
    oscillatory integrands whose low-order panel estimates agree by accident.
    Returns the integral (complex if ``f`` is complex-valued).
    """
    if b < a:
        raise ValueError("empty interval: b < a")
    if b == a:
        return 0.0
    edges = np.linspace(a, b, initial_panels + 1)
    total = 0.0
    # stack entries: (a, b, coarse estimate, depth)
    stack = [(edges[i], edges[i + 1], _panel(f, edges[i], edges[i + 1]), 0)
             for i in range(initial_panels)]
    panel_tol = tol / max(initial_panels, 1)
    while stack:
        lo, hi, coarse, depth = stack.pop()
        mid = 0.5 * (lo + hi)
        left = _panel(f, lo, mid)
        right = _panel(f, mid, hi)
        fine = left + right
        err = np.max(np.abs(fine - coarse))
        # a non-finite estimate does not improve by bisection: accept it,
        # and let the caller's finiteness checks refuse the result
        if err <= panel_tol or not np.isfinite(err) or depth >= _MAX_DEPTH:
            total = total + fine
        else:
            stack.append((lo, mid, left, depth + 1))
            stack.append((mid, hi, right, depth + 1))
    return total

