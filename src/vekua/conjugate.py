"""Metaharmonic conjugate construction via gradient-reconstruction integrals.

A real field in the kernel of one scalar Hamiltonian determines (up to one
real gauge constant times the zero mode) the partner field that completes it
to a solution of the main Vekua equation.  The construction is a dressed
antigradient: differentiate, weight with exponentials of the superpotential,
integrate back along L-paths.  Abar[phi] below is that integral,
:func:`vekua.grid.lpath_field` of (Re phi, Im phi): the real field vanishing
at the origin node whose d_zbar is phi.  Both entries require the input to
be a kernel member, which implies the compatibility d2(Re phi) = d1(Im phi)
of the integrand, so the integrand is not checked again.  The gauge is fixed
by a zero value at the origin node; comparisons against references should
fit the constant first (:func:`fit_gauge`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import d_zbar, interior_max, lpath_field
from .operators import h0, h2, require_kernel, vekua_v
from .superpotential import Superpotential

__all__ = [
    "ConjugateResult",
    "conjugate_from_w1",
    "conjugate_from_w2",
    "fit_gauge",
]


@dataclass(eq=False)
class ConjugateResult:
    partner: np.ndarray
    gauge_constant: float
    vekua_residual: float


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
