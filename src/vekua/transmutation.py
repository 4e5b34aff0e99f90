"""Transmutation operators built from Goursat-problem kernels.

For each axis the 1-D potential q = chi'' + (chi')^2 defines a kernel
K(x, t) on the triangle |t| <= |x| through a Goursat problem.  In the
characteristic variables u = (x+t)/2, v = (x-t)/2 the problem collapses to
K_uv = q(u+v) K with data K(u, 0) = (1/2) int_0^u q and K(0, v) = 0, which is
solved by Picard iteration on the equivalent double-integral equation; the
iteration converges unconditionally for continuous q.  The characteristic
grid spacing is half the axis spacing so that every pair of axis nodes
(x, t) lands exactly on a characteristic node.

The dressed kernel adds the boundary-slope parameter h = chi'(0) and turns
into a Volterra operator T with T[x^k] equal to the k-th element of the
dressed power system of :mod:`vekua.formal_powers`.  The companion operator
acting on the opposite exponential dressing is the same construction run on
the flipped profile (-chi), which swaps the potential to (chi')^2 - chi''
and the parameter to -h; at build time it is cross-validated against its
antiderivative representation and the build fails on disagreement.

The 2-D operators apply the four 1-D operators axis-by-axis to the real and
imaginary parts and map complex polynomials in z onto the formal powers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import cumulative_trapezoid

from .errors import NonConvergenceError
from .grid import Grid1D, Grid2D, _first_derivative, cumulative_integral
from .superpotential import AxisProfile, Superpotential

__all__ = [
    "GoursatKernel",
    "TransmuteOp",
    "Transmute2D",
    "solve_goursat",
    "build_kernel_with_h",
    "build_transmute",
    "build_transmute_tilde",
    "ttilde_antiderivative_form",
    "build_transmute_2d",
]

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 60
TILDE_CHECK_CAP = 50.0  # units of h^2 * scale


@dataclass(eq=False)
class GoursatKernel:
    """Solved kernel for one axis.

    ``char_values`` is the table on the characteristic square (spacing h/2),
    ``axis_values`` the same kernel re-indexed to axis-node pairs (x_k, t_l);
    entries with |t| > |x| are outside the triangle and must not be used.
    """

    axis_grid: Grid1D
    h_param: float
    char_values: np.ndarray
    axis_values: np.ndarray
    diag_data: np.ndarray  # (1/2) int_0^x q at the axis nodes (Goursat data)
    iterations: int
    defects: list[float] = field(default_factory=list)


def _char_grid(grid: Grid1D) -> Grid1D:
    # spacing h/2 on the same interval; odd count is preserved
    return Grid1D(grid.half_width, 2 * grid.n - 1)


def solve_goursat(
    profile: AxisProfile,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> GoursatKernel:
    """Picard iteration for the kernel of one axis.

    Iterates K <- G(u) + int_0^u int_0^v q(a+b) K(a,b) db da on the
    characteristic square until the successive max-difference drops below
    ``tol``; raises with the defect history if the budget is exhausted.
    """
    grid = profile.grid
    cgrid = _char_grid(grid)
    u = cgrid.nodes
    a = grid.half_width
    # q is only defined on [-a, a]; u+v leaves it outside the physical
    # triangle only, so clamping cannot affect valid kernel entries.
    q_u = profile.q_at(np.clip(u, -a, a))
    g_u = 0.5 * cumulative_integral(cgrid, q_u, cgrid.center)
    q_uv = profile.q_at(np.clip(u[:, None] + u[None, :], -a, a))

    k_cur = np.broadcast_to(g_u[:, None], (cgrid.n, cgrid.n)).copy()
    defects: list[float] = []
    for iteration in range(1, max_iter + 1):
        inner = cumulative_integral(cgrid, q_uv * k_cur, cgrid.center, axis=1)
        k_next = g_u[:, None] + cumulative_integral(cgrid, inner, cgrid.center, axis=0)
        defect = float(np.max(np.abs(k_next - k_cur)))
        defects.append(defect)
        k_cur = k_next
        if defect <= tol:
            break
    else:
        raise NonConvergenceError(
            f"Goursat iteration did not reach {tol:g} in {max_iter} steps "
            f"(last defect {defects[-1]:.3e})",
            defects=defects,
        )

    n = grid.n
    kk, ll = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    axis_values = k_cur[kk + ll, kk - ll + n - 1]
    diag_data = 0.5 * cumulative_integral(grid, profile.q_at(grid.nodes), grid.center)
    return GoursatKernel(
        axis_grid=grid,
        h_param=profile.h_param,
        char_values=k_cur,
        axis_values=axis_values,
        diag_data=diag_data,
        iterations=iteration,
        defects=defects,
    )


def build_kernel_with_h(gk: GoursatKernel) -> np.ndarray:
    """Dress the Goursat kernel with the boundary-slope parameter.

    Returns the full Volterra kernel h/2 + K(x,t) + (h/2) * int_t^x
    [K(x,s) - K(x,-s)] ds on axis-node pairs; reduces to K when h = 0.
    """
    k_axis = gk.axis_values
    if gk.h_param == 0.0:
        return k_axis.copy()
    n = gk.axis_grid.n
    odd_part = k_axis - k_axis[:, ::-1]  # K(x, s) - K(x, -s) along s
    anti = cumulative_trapezoid(odd_part, dx=gk.axis_grid.h, axis=1, initial=0.0)
    # int_t^x = C(x) - C(t), rows indexed by x
    upper = anti[np.arange(n), np.arange(n)]
    correction = upper[:, None] - anti
    return 0.5 * gk.h_param + k_axis + 0.5 * gk.h_param * correction


def _volterra_matrix(grid: Grid1D, kernel: np.ndarray) -> np.ndarray:
    """Identity plus the trapezoid discretization of int_{-x}^{x} K(x,t) . dt."""
    n = grid.n
    c = grid.center
    mat = np.eye(n)
    h = grid.h
    for k in range(n):
        lo, hi = min(k, n - 1 - k), max(k, n - 1 - k)
        if lo == hi:
            continue  # x = 0: empty integration interval
        w = np.full(hi - lo + 1, h)
        w[0] = w[-1] = 0.5 * h
        sign = 1.0 if k > c else -1.0  # oriented limits for negative x
        mat[k, lo : hi + 1] += sign * w * kernel[k, lo : hi + 1]
    return mat


@dataclass(eq=False)
class TransmuteOp:
    """1-D transmutation operator in dense matrix form."""

    grid: Grid1D
    matrix: np.ndarray
    kernel: GoursatKernel
    variant: str  # "plain" or "tilde"

    def along_x(self, f) -> np.ndarray:
        """Apply along the first axis of a 1-D or 2-D field."""
        return self.matrix @ self.grid.check(np.asarray(f))

    def along_y(self, field2d) -> np.ndarray:
        return np.asarray(field2d) @ self.matrix.T


def build_transmute(
    profile: AxisProfile,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> TransmuteOp:
    """Transmutation operator mapping plain powers onto the dressed system."""
    gk = solve_goursat(profile, tol=tol, max_iter=max_iter)
    kernel = build_kernel_with_h(gk)
    return TransmuteOp(profile.grid, _volterra_matrix(profile.grid, kernel), gk, "plain")


def ttilde_antiderivative_form(t_op: TransmuteOp, profile: AxisProfile, f, df=None):
    """Companion operator through its antiderivative representation.

    exp(-chi) * (int_0^x exp(chi(s)) T[f'](s) ds + f(0)); the derivative is
    taken by finite differences unless supplied.
    """
    grid = profile.grid
    f = grid.check(np.asarray(f, dtype=float))
    if df is None:
        df = _first_derivative(f, grid.h, axis=0)
    weighted = np.exp(profile.chi) * t_op.along_x(df)
    acc = cumulative_integral(grid, weighted, grid.center)
    return np.exp(-profile.chi) * (acc + f[grid.center])


def build_transmute_tilde(
    profile: AxisProfile,
    t_op: TransmuteOp | None = None,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    check: bool = True,
) -> TransmuteOp:
    """Companion transmutation operator (opposite exponential dressing).

    Built as the plain construction on the flipped profile, whose potential
    is (chi')^2 - chi'' and whose slope parameter is -h.  When ``check`` is
    on, the operator is compared on low powers against the antiderivative
    representation through ``t_op`` (built here if not supplied); any
    disagreement above 50 h^2 per unit scale fails the build.
    """
    flip = profile.flipped()
    gk = solve_goursat(flip, tol=tol, max_iter=max_iter)
    kernel = build_kernel_with_h(gk)
    op = TransmuteOp(profile.grid, _volterra_matrix(profile.grid, kernel), gk, "tilde")
    if check:
        if t_op is None:
            t_op = build_transmute(profile, tol=tol, max_iter=max_iter)
        grid = profile.grid
        x = grid.nodes
        h2_unit = grid.h**2
        for k in (1, 2, 3):
            f = x**k
            df = k * x ** (k - 1) if k > 1 else np.ones_like(x)
            via_kernel = op.along_x(f)
            via_anti = ttilde_antiderivative_form(t_op, profile, f, df)
            scale = max(1.0, float(np.max(np.abs(via_anti))))
            gap = float(np.max(np.abs(via_kernel - via_anti)))
            if gap > TILDE_CHECK_CAP * h2_unit * scale:
                raise NonConvergenceError(
                    f"companion-transmutation cross-check failed on x^{k}: "
                    f"gap {gap:.3e} > {TILDE_CHECK_CAP * h2_unit * scale:.3e}",
                    defects=gk.defects,
                )
    return op


@dataclass(eq=False)
class Transmute2D:
    """Axis-separable 2-D transmutations acting on complex fields.

    ``t0`` maps z^n onto the main formal powers, ``t1`` onto the successor
    ones: the real part goes through the plain/plain (resp. tilde/plain)
    axis operators and the imaginary part through the complementary pair.
    """

    sp: Superpotential
    tx: TransmuteOp
    ty: TransmuteOp
    tx_tilde: TransmuteOp
    ty_tilde: TransmuteOp

    def t0(self, w) -> np.ndarray:
        w = self.sp.grid.check(np.asarray(w, dtype=complex))
        re = self.tx.along_x(self.ty.along_y(w.real))
        im = self.tx_tilde.along_x(self.ty_tilde.along_y(w.imag))
        return re + 1j * im

    def t1(self, w) -> np.ndarray:
        w = self.sp.grid.check(np.asarray(w, dtype=complex))
        re = self.tx_tilde.along_x(self.ty.along_y(w.real))
        im = self.tx.along_x(self.ty_tilde.along_y(w.imag))
        return re + 1j * im


def build_transmute_2d(
    sp: Superpotential,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    check: bool = True,
) -> Transmute2D:
    tx = build_transmute(sp.ax, tol=tol, max_iter=max_iter)
    ty = build_transmute(sp.ay, tol=tol, max_iter=max_iter)
    txt = build_transmute_tilde(sp.ax, t_op=tx, tol=tol, max_iter=max_iter, check=check)
    tyt = build_transmute_tilde(sp.ay, t_op=ty, tol=tol, max_iter=max_iter, check=check)
    return Transmute2D(sp, tx, ty, txt, tyt)
