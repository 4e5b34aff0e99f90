"""Grid realizations of the first- and second-order operator algebra.

Scalar supercharges q_i^(+-) = -(+-) d_i + (d_i chi), their epsilon-contracted
partners p_i^(+-), the three Hamiltonian components, the complex first-order
operators tied to the main Vekua equation, and the 2x2 Darboux /
pseudo-Darboux transformation matrices.  Everything acts on sampled fields
through the second-order stencils of :mod:`vekua.grid`; vector fields are
plain pairs ``(c1, c2)`` of arrays sharing one grid.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import KernelMembershipError
from .grid import Grid2D, _second_derivative, d_x, d_y, d_z, d_zbar, interior_max, laplacian
from .superpotential import Superpotential

__all__ = [
    "q_op",
    "p_op",
    "h0",
    "h2",
    "h1",
    "h_diag",
    "require_kernel",
    "vekua_v",
    "vekua_vbar",
    "vekua_v1",
    "vekua_v1bar",
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
    c1, c2 = v
    return h1_element(sp, 1, c1), h1_element(sp, 2, c2)


def h1_element(sp: Superpotential, i: int, f) -> np.ndarray:
    """Diagonal element (i, i) of the matrix Hamiltonian applied to a scalar."""
    return sp.matrix_potential()[i - 1] * np.asarray(f) - laplacian(sp.grid, f)


def h_diag(sp: Superpotential, v):
    """Block-diagonal Hamiltonian diag(h0, h2) on (psi0, psi2)."""
    return h0(sp, v[0]), h2(sp, v[1])


# A kernel member's five-point residual is its truncation error
# (h^2/12)(f_xxxx + f_yyyy), so the cap scales with the terms that cancel in
# h f = -f_xx - f_yy + U f: KERNEL_CAP * h^2 * T, T = max(1, |f_xx|, |f_yy|,
# |U f|) on the margin-2 interior.  Measured member envelope (Re and Im of
# Z^k(1), Z^k(i), k <= 6; zero, linear and quadratic with (+-1, -1) and
# (+-1, 0.5)): at most 13.3 h^2 T at n = 21 (Im Z^6(1), linear (-1, -1)),
# 18.2 at n = 11, 10.5 at n = 61, 9.7 at n = 201, falling towards the
# truncation limit.  The warning sits at 1.5 times the n = 21 envelope, so
# members from n = 11 up stay silent; exp(xy) with chi = 0 reads 200 h^2 T at
# n = 21 and is rejected.
KERNEL_CAP = 50.0
KERNEL_WARN = 20.0


def require_kernel(sp: Superpotential, op, f, label: str) -> None:
    """Raise :class:`KernelMembershipError` unless ``op`` (h0 or h2) annihilates
    ``f`` up to :data:`KERNEL_CAP` * h^2 * T; warn above :data:`KERNEL_WARN`
    * h^2 * T.  The residual ``op(sp, f)`` is summed from the terms that give T.
    A field with a non-finite value, on the margin or inside it, is no member."""
    grid = sp.grid
    if not np.isfinite(f).all():
        raise KernelMembershipError(f"{label}: field has non-finite values")
    fxx = _second_derivative(f, grid.gx.h, axis=0)
    fyy = _second_derivative(f, grid.gy.h, axis=1)
    uf = (sp.u0() if op is h0 else sp.u2()) * f
    scale = max(1.0, *(interior_max(t, margin=2) for t in (fxx, fyy, uf)))
    cap = KERNEL_CAP * grid.hmax**2 * scale
    residual = interior_max(-(fxx + fyy) + uf, margin=2)
    if not residual <= cap:  # a NaN residual fails too
        raise KernelMembershipError(
            f"{label}: field is not in ker {op.__name__}: residual {residual:.3e} "
            f"exceeds {KERNEL_CAP:g}*h^2*T = {cap:.3e}"
        )
    if residual > KERNEL_WARN * grid.hmax**2 * scale:
        warnings.warn(f"{label}: kernel residual {residual:.3e} is large", stacklevel=3)


# -- complex first-order operators ---------------------------------------
# The memoized coefficient stays the left operand of an explicit
# np.multiply: in ``coef * np.conj(w)`` numpy would reuse the temporary
# conj(w) as the output and swap the operands of the complex product, which
# moves the last bit of some products.

def vekua_v(sp: Superpotential, w) -> np.ndarray:
    """Main Vekua operator: d_zbar w - (d_zbar chi) conj(w)."""
    return d_zbar(sp.grid, w) - np.multiply(sp.dzbar_chi(), np.conj(w))


def vekua_vbar(sp: Superpotential, w) -> np.ndarray:
    """d_z w - (d_z chi) conj(w); the derivative operator of the main pair."""
    return d_z(sp.grid, w) - np.multiply(sp.dz_chi(), np.conj(w))


def vekua_v1(sp: Superpotential, w) -> np.ndarray:
    """Successor Vekua operator: d_zbar w + (d_z chi) conj(w)."""
    return d_zbar(sp.grid, w) + np.multiply(sp.dz_chi(), np.conj(w))


def vekua_v1bar(sp: Superpotential, w) -> np.ndarray:
    """d_z w + (d_zbar chi) conj(w); the derivative operator of the successor pair."""
    return d_z(sp.grid, w) + np.multiply(sp.dzbar_chi(), np.conj(w))


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
