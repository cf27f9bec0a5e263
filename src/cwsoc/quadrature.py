"""The library's Gauss-Legendre rules: every node set it integrates by.

``_rule`` is the one fixed rule behind both density kinds' tilted moments
(``measure``), on pieces that the kinds cut their supports into; its error
bound is stated in its docstring.  ``limitlaw`` integrates the quartic law's
CDF panels on ``_rule``'s nodes ``_NODES`` and weights ``_WEIGHTS``, and
``kernel`` integrates each half of the kernel box by the 6-node rule
``_HALF_BOX_NODES``, ``_HALF_BOX_WEIGHTS``.
"""
from __future__ import annotations

from functools import cache

import numpy as np

# The fixed rule of both density kinds' tilted_moments, as _rule describes;
# _BLOCK bounds its node arrays and the table's (tilt, interval) pairs
_WINDOW, _PANELS, _GL_NODES, _BLOCK = 46.0, 6, 16, 1024
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(_GL_NODES)
_TAU = ((np.arange(_PANELS)[:, None] + 0.5 + 0.5 * _NODES) / _PANELS).ravel()
_OMEGA = np.tile(_WEIGHTS / (2 * _PANELS), _PANELS)  # with _TAU, on [0, 1]

# kernel._phi_tilted: the rule on each side of the kernel's kink at 0
_HALF_BOX_NODES, _HALF_BOX_WEIGHTS = np.polynomial.legendre.leggauss(6)


def _powers(x: np.ndarray, kmax: int, scale=1.0) -> np.ndarray:
    """``scale x^k``, ``k = 0..kmax`` along a new last axis, by products."""
    out = np.empty(np.shape(x) + (kmax + 1,))
    out[..., 0] = scale
    for k in range(1, kmax + 1):
        out[..., k] = out[..., k - 1] * x
    return out


@cache
def _rule_nodes(kmax: int) -> tuple:
    """The rule's nodes from ``t = 1`` inward, so that its sums add their
    smallest terms first: ``(1, t, t^2)`` by rows, and the weights of ``t^k
    (1 - t)`` and of ``t^{k+1}`` by columns, ``k = 0..kmax``."""
    t = _TAU[::-1]
    tk = _powers(t, kmax + 1, _OMEGA[::-1])
    return (_powers(t, 2).T.copy(),
            np.hstack([tk[:, :-1] * (1 - t)[:, None], tk[:, 1:]]))


def _rule(z0, e, lam, g, v, fa, fb, kmax: int, mirror=False) -> np.ndarray:
    """``m[i, k] = integral of z^k e^{d (g_i + v_i d)} f_i(z) dz`` over the
    piece ``z = z0_i + lam_i t``, ``t`` in ``[0, 1]``, for ``k = 0..kmax``:
    ``d = e_i + lam_i t`` is the offset from the exponent's maximum ``z_c``
    (``g_i`` is the exponent's slope there), and ``f_i`` is linear from
    ``fa_i`` at ``z0_i`` to ``fb_i`` at the piece's other end.  A piece
    with ``mirror_i`` set adds its mirror image about ``z0_i``, ``z = z0_i -
    lam_i t``, from the same sums, so the caller sets it only where the
    image has the same exponent and ``f`` in ``t`` (``e_i = g_i = 0``,
    ``fa_i = fb_i``).  Every
    argument but ``kmax`` is a 1-D array over the pieces or a scalar.

    The one fixed Gauss-Legendre rule of both density kinds: ``_PANELS``
    equal panels of ``_GL_NODES`` nodes each.  On a piece where ``f`` is
    linear, the exponent monotone and within ``K`` (``_WINDOW``) of its
    maximum, it errs by at most 4e-11 of the piece's ``m_0``
    (notes/decisions.md).  The exponent is a quadratic in ``t``, so the sums
    of ``t^k e^{...} f`` take one ``exp`` and one product per block of
    ``_BLOCK`` pieces; powers of ``lam`` make them moments of ``lam t``, and
    Pascal's rule shifts those to moments of ``z``.
    """
    nodes, weights = _rule_nodes(kmax)
    coef = np.stack([e * (g + v * e), lam * (g + 2 * v * e), v * lam * lam], 1)
    sums = np.empty((2 * kmax + 2, len(coef)))
    for b in range(0, len(coef), _BLOCK):
        x = coef[b:b + _BLOCK] @ nodes  # the exponents at the nodes
        sums[:, b:b + _BLOCK] = (np.exp(x, out=x) @ weights).T
    # moments of lam t, and of its mirror image -lam t (twice the even ones,
    # none of the odd ones), shifted to z by Pascal's rule (pass j adds z0
    # m_{k-1} to m_k, k >= j)
    m = _powers(lam, kmax, np.abs(lam)).T * (fa * sums[:kmax + 1]
                                             + fb * sums[kmax + 1:])
    m *= 1 + (-1.0) ** np.arange(kmax + 1)[:, None] * mirror
    for j in range(1, kmax + 1):
        m[j:] += z0 * m[j - 1:-1]
    return m.T
