"""Metaharmonic conjugate construction via gradient-reconstruction integrals.

A real field in the kernel of one scalar Hamiltonian determines (up to one
real gauge constant times the zero mode) the partner field that completes it
to a solution of the main Vekua equation.  The construction is a dressed
antigradient: differentiate, weight with exponentials of the superpotential,
integrate back along L-paths.  Abar[phi] = 2 Re lpath_complex(conj phi) =
2 (int Re phi dx + int Im phi dy) is that integral (:func:`vekua.grid.lpath_complex`):
the real field vanishing at the origin node whose d_zbar is phi.  The two
directions, ker h2 -> ker h0 and back, are one construction under
chi -> -chi (:func:`_partner`).  Each requires its input to be a kernel
member, which implies the compatibility d2(Re phi) = d1(Im phi) of the
integrand, so the integrand is not checked again.  The gauge is fixed by a
zero partner at the origin node; comparisons against references should fit
the constant first (:func:`fit_gauge`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import d_zbar, interior_max, lpath_complex
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
    vekua_residual: float


def conjugate_from_w1(sp: Superpotential, w1) -> ConjugateResult:
    """Partner w2 in ker(h0) of a real w1 in ker(h2); w1 + i w2 solves the main Vekua equation."""
    return _partner(sp, w1, 1.0)


def conjugate_from_w2(sp: Superpotential, w2) -> ConjugateResult:
    """Partner w1 in ker(h2) of a real w2 in ker(h0); gauge freedom c * exp(chi)."""
    return _partner(sp, w2, -1.0)


def _partner(sp: Superpotential, f, s: float) -> ConjugateResult:
    """s * exp(-s chi) * Abar[i exp(2 s chi) d_zbar(exp(-s chi) f)] for f in ker(h2)
    (s = +1) or ker(h0) (s = -1), and the Vekua residual of w1 + i w2 on ``sp``."""
    grid = sp.grid
    f = grid.check(np.asarray(f, dtype=float))
    op, label = (h2, "conjugate_from_w1") if s > 0 else (h0, "conjugate_from_w2")
    require_kernel(sp, op, f, label)
    integrand = 1j * sp.exp_chi(2.0 * s) * d_zbar(grid, sp.exp_chi(-s) * f)
    abar = 2.0 * np.real(lpath_complex(grid, np.conj(integrand)))
    partner = (s * sp.exp_chi(-s)) * abar
    w = f + 1j * partner if s > 0 else partner + 1j * f
    return ConjugateResult(partner=partner, vekua_residual=interior_max(vekua_v(sp, w), margin=2))


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
