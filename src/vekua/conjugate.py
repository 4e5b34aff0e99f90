"""Metaharmonic conjugate construction via gradient-reconstruction integrals.

A real field in the kernel of one scalar Hamiltonian determines (up to one
real gauge constant times the zero mode) the partner field that completes it
to a solution of the main Vekua equation.  The construction is a dressed
antigradient: differentiate, weight with exponentials of the superpotential,
integrate back along L-paths (:func:`vekua.grid.lpath_field`).  Kernel
membership of the input implies the compatibility of the integrand, so only
:func:`abar_op`, the entry for outside input, checks compatibility.  The
gauge is fixed by a zero value at the origin node; comparisons against
references should fit the constant first (:func:`fit_gauge`).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import CompatibilityError
from .grid import Grid2D, d_x, d_y, d_zbar, interior_max, lpath_field
from .operators import h0, h2, require_kernel, vekua_v
from .superpotential import Superpotential

__all__ = [
    "ConjugateResult",
    "abar_op",
    "conjugate_from_w1",
    "conjugate_from_w2",
    "fit_gauge",
]

COMPAT_WARN = 100.0  # in units of h^2 * scale
COMPAT_ERROR = 1000.0


@dataclass(eq=False)
class ConjugateResult:
    partner: np.ndarray
    gauge_constant: float
    vekua_residual: float


def _compat_defect(grid: Grid2D, phi):
    """Max interior defect of d2(Re phi) - d1(Im phi) and its node."""
    defect = d_y(grid, np.real(phi)) - d_x(grid, np.imag(phi))
    inner = np.abs(defect[1:-1, 1:-1])
    i, j = np.unravel_index(int(np.argmax(inner)), inner.shape)
    return float(inner[i, j]), (int(i) + 1, int(j) + 1)


def abar_op(grid: Grid2D, phi):
    """Antigradient for the conjugate Wirtinger derivative.

    Returns the real field vanishing at the centre node whose d_zbar is
    (approximately) ``phi``; requires d2(Re phi) = d1(Im phi), warning above
    :data:`COMPAT_WARN` and raising above :data:`COMPAT_ERROR` * h^2 * scale.
    """
    phi = grid.check(np.asarray(phi, dtype=complex))
    h2_unit = grid.hmax**2
    scale = max(1.0, float(np.max(np.abs(phi))))
    defect, node = _compat_defect(grid, phi)
    if defect > COMPAT_ERROR * h2_unit * scale:
        raise CompatibilityError(
            f"abar_op: compatibility defect {defect:.3e} at node {node} exceeds "
            f"{COMPAT_ERROR:g}*h^2*scale = {COMPAT_ERROR * h2_unit * scale:.3e}"
        )
    if defect > COMPAT_WARN * h2_unit * scale:
        warnings.warn(
            f"abar_op: compatibility defect {defect:.3e} at node {node} above "
            f"{COMPAT_WARN:g}*h^2*scale",
            stacklevel=2,
        )
    return lpath_field(grid, np.real(phi), np.imag(phi))


def conjugate_from_w1(sp: Superpotential, w1) -> ConjugateResult:
    """Partner in ker(h0) of a real field w1 in ker(h2).

    w2 = exp(-chi) * Abar[i exp(2 chi) d_zbar(exp(-chi) w1)], gauge-fixed by
    w2 = 0 at the origin node; w1 + i w2 then solves the main Vekua equation.
    """
    grid = sp.grid
    w1 = grid.check(np.asarray(w1, dtype=float))
    require_kernel(sp, h2, w1, "conjugate_from_w1")
    integrand = 1j * sp.exp_chi(2.0) * d_zbar(grid, sp.exp_chi(-1.0) * w1)
    w2 = sp.exp_chi(-1.0) * lpath_field(grid, np.real(integrand), np.imag(integrand))
    residual = interior_max(vekua_v(sp, w1 + 1j * w2), margin=2)
    return ConjugateResult(partner=w2, gauge_constant=0.0, vekua_residual=residual)


def conjugate_from_w2(sp: Superpotential, w2) -> ConjugateResult:
    """Partner in ker(h2) of a real field w2 in ker(h0).

    w1 = -exp(chi) * Abar[i exp(-2 chi) d_zbar(exp(chi) w2)], gauge freedom
    c * exp(chi).
    """
    grid = sp.grid
    w2 = grid.check(np.asarray(w2, dtype=float))
    require_kernel(sp, h0, w2, "conjugate_from_w2")
    integrand = 1j * sp.exp_chi(-2.0) * d_zbar(grid, sp.exp_chi(1.0) * w2)
    w1 = -sp.exp_chi(1.0) * lpath_field(grid, np.real(integrand), np.imag(integrand))
    residual = interior_max(vekua_v(sp, w1 + 1j * w2), margin=2)
    return ConjugateResult(partner=w1, gauge_constant=0.0, vekua_residual=residual)


def fit_gauge(sp: Superpotential, candidate, reference, kernel: int):
    """Least-squares gauge constant c such that candidate + c * mode ~ reference.

    ``kernel=0`` fits along exp(-chi) (partners living in ker h0),
    ``kernel=2`` along exp(chi).  Returns (c, max interior residual after
    the shift).
    """
    if kernel == 0:
        mode = sp.exp_chi(-1.0)
    elif kernel == 2:
        mode = sp.exp_chi(1.0)
    else:
        raise ValueError("kernel must be 0 or 2")
    diff = np.asarray(reference, dtype=float) - np.asarray(candidate, dtype=float)
    c = float(np.sum(mode * diff) / np.sum(mode * mode))
    resid = interior_max(diff - c * mode, margin=1)
    return c, resid
