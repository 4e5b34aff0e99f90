"""Grid realizations of the first- and second-order operator algebra.

Scalar supercharges q_i^(+-) = -(+-) d_i + (d_i chi), their epsilon-contracted
partners p_i^(+-), the three Hamiltonian components, the complex first-order
operators tied to the main Vekua equation, and the 2x2 Darboux /
pseudo-Darboux transformation matrices.  Everything acts on sampled fields
through the second-order stencils of :mod:`vekua.grid`; vector fields are
plain pairs ``(c1, c2)`` of arrays sharing one grid.
"""

from __future__ import annotations

import numpy as np

from .grid import Grid2D, d_x, d_y, d_z, d_zbar, laplacian
from .superpotential import Superpotential

__all__ = [
    "q_op",
    "p_op",
    "h0",
    "h2",
    "h1",
    "h_diag",
    "vekua_v",
    "vekua_vbar",
    "vekua_v1",
    "vekua_v1bar",
    "bers_derivative_seq",
    "project",
    "darboux",
    "darboux_adjoint",
    "pseudo_darboux",
    "pseudo_darboux_adjoint",
]


def _d_i(grid: Grid2D, i: int, f):
    if i == 1:
        return d_x(grid, f)
    if i == 2:
        return d_y(grid, f)
    raise ValueError(f"axis index must be 1 or 2, got {i}")


def q_op(sp: Superpotential, i: int, sign: int, f) -> np.ndarray:
    """Supercharge component: -sign * d_i f + (d_i chi) f."""
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    return -sign * _d_i(sp.grid, i, f) + sp.grad_component(i) * np.asarray(f)


def p_op(sp: Superpotential, i: int, sign: int, f) -> np.ndarray:
    """Partner charge p_i^sign = sum_k eps_ik q_k^(-sign)."""
    if i == 1:
        return q_op(sp, 2, -sign, f)
    if i == 2:
        return -q_op(sp, 1, -sign, f)
    raise ValueError(f"axis index must be 1 or 2, got {i}")


def h0(sp: Superpotential, f) -> np.ndarray:
    """First scalar Hamiltonian: -lap f + U0 f (zero mode exp(-chi))."""
    return -laplacian(sp.grid, f) + sp.u0() * np.asarray(f)


def h2(sp: Superpotential, f) -> np.ndarray:
    """Second scalar Hamiltonian: -lap f + U2 f (zero mode exp(chi))."""
    return -laplacian(sp.grid, f) + sp.u2() * np.asarray(f)


def h1(sp: Superpotential, v):
    """Matrix Hamiltonian acting on a vector field (c1, c2).

    The matrix potential is diagonal for separable chi, so H1 acts
    component-wise and equals its variant with the off-diagonal signs
    flipped, which the pseudo-Darboux factorization produces.
    """
    p11, p22 = sp.matrix_potential()
    c1, c2 = v
    g1 = -laplacian(sp.grid, c1) + p11 * c1
    g2 = -laplacian(sp.grid, c2) + p22 * c2
    return g1, g2


def h1_element(sp: Superpotential, i: int, f) -> np.ndarray:
    """Diagonal element (i, i) of the matrix Hamiltonian applied to a scalar."""
    return sp.matrix_potential()[i - 1] * np.asarray(f) - laplacian(sp.grid, f)


def h_diag(sp: Superpotential, v):
    """Block-diagonal Hamiltonian diag(h0, h2) on (psi0, psi2)."""
    return h0(sp, v[0]), h2(sp, v[1])


# -- complex first-order operators ---------------------------------------

def vekua_v(sp: Superpotential, w) -> np.ndarray:
    """Main Vekua operator: d_zbar w - (d_zbar chi) conj(w)."""
    return d_zbar(sp.grid, w) - sp.dzbar_chi() * np.conj(w)


def vekua_vbar(sp: Superpotential, w) -> np.ndarray:
    """d_z w - (d_z chi) conj(w); the derivative operator of the main pair."""
    return d_z(sp.grid, w) - sp.dz_chi() * np.conj(w)


def vekua_v1(sp: Superpotential, w) -> np.ndarray:
    """Successor Vekua operator: d_zbar w + (d_z chi) conj(w)."""
    return d_zbar(sp.grid, w) + sp.dz_chi() * np.conj(w)


def vekua_v1bar(sp: Superpotential, w) -> np.ndarray:
    """d_z w + (d_zbar chi) conj(w); the derivative operator of the successor pair."""
    return d_z(sp.grid, w) + sp.dzbar_chi() * np.conj(w)


def bers_derivative_seq(sp: Superpotential, m: int, w) -> np.ndarray:
    """Derivative taken with respect to the m-th pair of the period-two sequence."""
    return vekua_vbar(sp, w) if m % 2 == 0 else vekua_v1bar(sp, w)


# -- projections ----------------------------------------------------------

def project(w):
    """Complex field to the vector (Im w, Re w)."""
    return np.imag(w), np.real(w)


# -- 2x2 first-order transformations --------------------------------------

def darboux(sp: Superpotential, v):
    """Darboux transformation [[q1-, p1-], [q2-, p2-]] on (c1, c2)."""
    c1, c2 = v
    return (
        q_op(sp, 1, -1, c1) + p_op(sp, 1, -1, c2),
        q_op(sp, 2, -1, c1) + p_op(sp, 2, -1, c2),
    )


def darboux_adjoint(sp: Superpotential, v):
    """Adjoint Darboux transformation [[q1+, q2+], [p1+, p2+]]."""
    c1, c2 = v
    return (
        q_op(sp, 1, +1, c1) + q_op(sp, 2, +1, c2),
        p_op(sp, 1, +1, c1) + p_op(sp, 2, +1, c2),
    )


def pseudo_darboux(sp: Superpotential, v):
    """Pseudo-Darboux transformation [[p2-, p1-], [q2-, q1-]]."""
    c1, c2 = v
    return (
        p_op(sp, 2, -1, c1) + p_op(sp, 1, -1, c2),
        q_op(sp, 2, -1, c1) + q_op(sp, 1, -1, c2),
    )


def pseudo_darboux_adjoint(sp: Superpotential, v):
    """Adjoint pseudo-Darboux transformation [[p2+, q2+], [p1+, q1+]]."""
    c1, c2 = v
    return (
        p_op(sp, 2, +1, c1) + q_op(sp, 2, +1, c2),
        p_op(sp, 1, +1, c1) + q_op(sp, 1, +1, c2),
    )
