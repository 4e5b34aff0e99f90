"""Separable superpotentials and the data derived from them.

A superpotential here is chi(x, y) = chi1(x) + chi2(y) with chi1(0) =
chi2(0) = 0.  It generates the Schroedinger potentials of both scalar
Hamiltonians, the matrix potential of the 2x2 component, and the generating
pairs (exp(chi), i exp(-chi)) and (exp(-chi1+chi2), i exp(chi1-chi2)) that
drive the whole formal-power machinery.

Catalog families carry analytic derivative callbacks so that potential
evaluation is exact to machine precision; only tabulated input falls back to
finite differences.  That separation keeps quadrature error and stencil
error distinguishable in the verification suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DegeneratePairError
from .grid import Grid1D, Grid2D, _first_derivative, d_z, d_zbar

__all__ = [
    "AxisProfile",
    "Superpotential",
    "make_superpotential",
    "catalog_names",
    "generating_pair",
    "characteristic_coefficients",
    "riccati_residual",
]

_ORIGIN_TOL = 1e-10


@dataclass(eq=False)
class AxisProfile:
    """One axis of a separable superpotential: chi_j with two derivatives.

    ``fn``/``dfn``/``d2fn`` are optional analytic callbacks; when absent
    (tabulated input) off-node evaluation falls back to linear interpolation
    of the samples, which keeps the overall O(h^2) order.
    """

    grid: Grid1D
    chi: np.ndarray
    dchi: np.ndarray
    d2chi: np.ndarray
    fn: Callable | None = None
    dfn: Callable | None = None
    d2fn: Callable | None = None

    def __post_init__(self):
        self.chi = self.grid.check(np.asarray(self.chi, dtype=float))
        self.dchi = self.grid.check(np.asarray(self.dchi, dtype=float))
        self.d2chi = self.grid.check(np.asarray(self.d2chi, dtype=float))
        c0 = abs(self.chi[self.grid.center])
        if c0 > _ORIGIN_TOL:
            raise ValueError(f"superpotential must vanish at the origin, found {c0:.3e}")
        self._consistency_check()

    def _consistency_check(self):
        # Supplied derivatives must agree with finite differences of the values.
        h2 = self.grid.h**2
        scale = max(1.0, np.max(np.abs(self.chi)), np.max(np.abs(self.dchi)))
        fd1 = _first_derivative(self.chi, self.grid.h, axis=0)
        if np.max(np.abs(fd1 - self.dchi)) > 10.0 * h2 * scale:
            raise ValueError("first-derivative samples inconsistent with chi samples")
        fd2 = _first_derivative(self.dchi, self.grid.h, axis=0)
        scale2 = max(scale, np.max(np.abs(self.d2chi)))
        if np.max(np.abs(fd2 - self.d2chi)) > 10.0 * h2 * scale2:
            raise ValueError("second-derivative samples inconsistent with chi' samples")

    @property
    def q(self) -> np.ndarray:
        """Schroedinger potential chi'' + (chi')^2 on the axis nodes."""
        return self.d2chi + self.dchi**2

    @property
    def h_param(self) -> float:
        """chi'(0); equals the derivative of exp(chi) at 0 since chi(0) = 0."""
        if self.dfn is not None:
            return float(self.dfn(0.0))
        return float(self.dchi[self.grid.center])

    def chi_at(self, s):
        if self.fn is not None:
            return self.fn(np.asarray(s, dtype=float))
        return np.interp(s, self.grid.nodes, self.chi)

    def q_at(self, s):
        s = np.asarray(s, dtype=float)
        if self.dfn is not None and self.d2fn is not None:
            return self.d2fn(s) + self.dfn(s) ** 2
        return np.interp(s, self.grid.nodes, self.q)

    def flipped(self) -> "AxisProfile":
        """The profile for -chi_j (partner potential (chi')^2 - chi'')."""
        fn = (lambda s, f=self.fn: -f(s)) if self.fn is not None else None
        dfn = (lambda s, f=self.dfn: -f(s)) if self.dfn is not None else None
        d2fn = (lambda s, f=self.d2fn: -f(s)) if self.d2fn is not None else None
        return AxisProfile(self.grid, -self.chi, -self.dchi, -self.d2chi, fn, dfn, d2fn)


@dataclass(eq=False)
class Superpotential:
    """chi = chi1(x) + chi2(y) sampled on a 2-D grid, with derivatives."""

    name: str
    params: tuple[float, ...]
    grid: Grid2D
    ax: AxisProfile
    ay: AxisProfile

    # -- broadcast helpers ------------------------------------------------
    def chi2d(self) -> np.ndarray:
        return self.ax.chi[:, None] + self.ay.chi[None, :]

    def exp_chi(self, s1: float = 1.0, s2: float | None = None) -> np.ndarray:
        """exp(s1*chi1 + s2*chi2) as a 2-D field (s2 defaults to s1)."""
        if s2 is None:
            s2 = s1
        return np.exp(s1 * self.ax.chi)[:, None] * np.exp(s2 * self.ay.chi)[None, :]

    def dz_chi(self) -> np.ndarray:
        """Wirtinger derivative of chi: (chi1'(x) - i chi2'(y)) / 2."""
        return 0.5 * (self.ax.dchi[:, None] - 1j * self.ay.dchi[None, :]) * np.ones(
            self.grid.shape
        )

    def dzbar_chi(self) -> np.ndarray:
        return 0.5 * (self.ax.dchi[:, None] + 1j * self.ay.dchi[None, :]) * np.ones(
            self.grid.shape
        )

    def grad_component(self, i: int) -> np.ndarray:
        """d chi / d x_i as a 2-D field, i in {1, 2}."""
        if i == 1:
            return np.broadcast_to(self.ax.dchi[:, None], self.grid.shape)
        if i == 2:
            return np.broadcast_to(self.ay.dchi[None, :], self.grid.shape)
        raise ValueError(f"axis index must be 1 or 2, got {i}")

    # -- potentials --------------------------------------------------------
    def u0(self) -> np.ndarray:
        """Scalar potential of the first Hamiltonian: |grad chi|^2 - lap chi."""
        return (self.ax.dchi**2 - self.ax.d2chi)[:, None] + (
            self.ay.dchi**2 - self.ay.d2chi
        )[None, :]

    def u2(self) -> np.ndarray:
        """Scalar potential of the second Hamiltonian: |grad chi|^2 + lap chi."""
        return (self.ax.dchi**2 + self.ax.d2chi)[:, None] + (
            self.ay.dchi**2 + self.ay.d2chi
        )[None, :]

    def matrix_potential(self):
        """Diagonal (P11, P22) of the matrix potential delta_ij U0 + 2 d_i d_j chi.

        For separable chi the mixed derivative 2 d_x d_y chi vanishes
        identically, so the off-diagonal entries are zero and not returned.
        """
        u0 = self.u0()
        p11 = u0 + 2.0 * self.ax.d2chi[:, None] * np.ones(self.grid.shape)
        p22 = u0 + 2.0 * self.ay.d2chi[None, :] * np.ones(self.grid.shape)
        return p11, p22


def _constant(value: float) -> Callable:
    def f(s):
        return value * np.ones_like(np.asarray(s, dtype=float))

    return f


def _axis_zero(grid: Grid1D) -> AxisProfile:
    z = np.zeros(grid.n)
    return AxisProfile(grid, z, z.copy(), z.copy(), _constant(0.0), _constant(0.0), _constant(0.0))


def _axis_linear(grid: Grid1D, slope: float) -> AxisProfile:
    x = grid.nodes
    return AxisProfile(
        grid,
        slope * x,
        slope * np.ones(grid.n),
        np.zeros(grid.n),
        lambda s: slope * np.asarray(s, dtype=float),
        _constant(slope),
        _constant(0.0),
    )


def _axis_quadratic(grid: Grid1D, curvature: float) -> AxisProfile:
    x = grid.nodes
    return AxisProfile(
        grid,
        0.5 * curvature * x**2,
        curvature * x,
        curvature * np.ones(grid.n),
        lambda s: 0.5 * curvature * np.asarray(s, dtype=float) ** 2,
        lambda s: curvature * np.asarray(s, dtype=float),
        _constant(curvature),
    )


def _axis_tabulated(grid: Grid1D, samples) -> AxisProfile:
    chi = grid.check(np.asarray(samples, dtype=float))
    if abs(chi[grid.center]) > _ORIGIN_TOL:
        raise ValueError(
            f"tabulated superpotential must vanish at 0, found {chi[grid.center]:.3e}"
        )
    dchi = _first_derivative(chi, grid.h, axis=0)
    d2chi = _first_derivative(dchi, grid.h, axis=0)
    return AxisProfile(grid, chi, dchi, d2chi)


def catalog_names() -> tuple[str, ...]:
    return ("zero", "linear", "quadratic", "tabulated")


def make_superpotential(
    name: str,
    params,
    grid: Grid2D,
    chi1_table=None,
    chi2_table=None,
) -> Superpotential:
    """Build a catalog superpotential on the given grid.

    Families: ``zero`` (chi = 0, no parameters), ``linear`` (alpha*x +
    beta*y), ``quadratic`` (alpha*x^2/2 + beta*y^2/2), ``tabulated``
    (samples on the exact grid nodes, derivatives by finite differences).
    """
    params = tuple(float(p) for p in params)
    if name == "zero":
        if params:
            raise ValueError("family 'zero' takes no parameters")
        ax, ay = _axis_zero(grid.gx), _axis_zero(grid.gy)
    elif name == "linear":
        if len(params) != 2:
            raise ValueError("family 'linear' takes parameters (alpha, beta)")
        ax, ay = _axis_linear(grid.gx, params[0]), _axis_linear(grid.gy, params[1])
    elif name == "quadratic":
        if len(params) != 2:
            raise ValueError("family 'quadratic' takes parameters (alpha, beta)")
        ax, ay = _axis_quadratic(grid.gx, params[0]), _axis_quadratic(grid.gy, params[1])
    elif name == "tabulated":
        if chi1_table is None or chi2_table is None:
            raise ValueError("family 'tabulated' needs chi1_table and chi2_table samples")
        ax, ay = _axis_tabulated(grid.gx, chi1_table), _axis_tabulated(grid.gy, chi2_table)
    else:
        raise ValueError(f"unknown superpotential family {name!r}; know {catalog_names()}")
    return Superpotential(name, params, grid, ax, ay)


def generating_pair(sp: Superpotential, m: int = 0):
    """Pair (F_m, G_m) of the period-two generating sequence.

    Even m: (exp(chi1+chi2), i exp(-(chi1+chi2))); odd m:
    (exp(-chi1+chi2), i exp(chi1-chi2)).  When chi1 = 0 the two coincide and
    the sequence degenerates to period one through the same code path.
    """
    if m % 2 == 0:
        return sp.exp_chi(1.0, 1.0), 1j * sp.exp_chi(-1.0, -1.0)
    return sp.exp_chi(-1.0, 1.0), 1j * sp.exp_chi(1.0, -1.0)


def characteristic_coefficients(grid: Grid2D, f_gen, g_gen):
    """Coefficient fields (a, b, A, B) determined by a generating pair.

    The four quotient formulas are evaluated nodewise with finite-difference
    Wirtinger derivatives.  A vanishing Im(conj(F) G) anywhere makes the
    pair degenerate and raises, naming the offending node.
    """
    f_gen = grid.check(np.asarray(f_gen, dtype=complex))
    g_gen = grid.check(np.asarray(g_gen, dtype=complex))
    im = np.imag(np.conj(f_gen) * g_gen)
    floor = 1e-14 * max(1.0, float(np.max(np.abs(f_gen) * np.abs(g_gen))))
    bad = np.abs(im) <= floor
    if np.any(bad):
        i, j = np.unravel_index(int(np.argmin(np.abs(im))), im.shape)
        raise DegeneratePairError(
            f"Im(conj(F)G) vanishes at node ({i}, {j}) = "
            f"({grid.gx.nodes[i]:.6g}, {grid.gy.nodes[j]:.6g})"
        )
    denom = f_gen * np.conj(g_gen) - np.conj(f_gen) * g_gen  # = -2i Im(conj(F)G)
    fz, fzb = d_z(grid, f_gen), d_zbar(grid, f_gen)
    gz, gzb = d_z(grid, g_gen), d_zbar(grid, g_gen)
    a = -(np.conj(f_gen) * gzb - np.conj(g_gen) * fzb) / denom
    b = (f_gen * gzb - g_gen * fzb) / denom
    big_a = -(np.conj(f_gen) * gz - np.conj(g_gen) * fz) / denom
    big_b = (f_gen * gz - g_gen * fz) / denom
    return a, b, big_a, big_b


def riccati_residual(sp: Superpotential, which: int) -> np.ndarray:
    """Residual of the complex Riccati equation tied to U0 (which=0) or U2 (which=2).

    Returns d_zbar(R) + |R|^2 - U/4 with R = -dz(chi) for the first
    potential and R = +dz(chi) for the second; analytically zero, so the
    field measures pure stencil error.
    """
    if which == 0:
        r = -sp.dz_chi()
        u = sp.u0()
    elif which == 2:
        r = sp.dz_chi()
        u = sp.u2()
    else:
        raise ValueError("which must be 0 or 2")
    return d_zbar(sp.grid, r) + np.abs(r) ** 2 - 0.25 * u
