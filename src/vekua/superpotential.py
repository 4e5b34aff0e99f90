"""Separable superpotentials and the data derived from them.

A superpotential here is chi(x, y) = chi1(x) + chi2(y) with chi1(0) =
chi2(0) = 0.  It generates the Schroedinger potentials of both scalar
Hamiltonians, the matrix potential of the 2x2 component, and the generating
pairs (exp(chi), i exp(-chi)) and (exp(-chi1+chi2), i exp(chi1-chi2)) that
drive the whole formal-power machinery.

The catalog is one table, :data:`_CATALOG`: each family names its parameter
count and, per axis, the coefficients (c1, c2) of the polynomial
chi_j(s) = c1*s + c2*s^2/2.  A profile keeps those coefficients, so its
potential is evaluated exactly off the nodes, and flipping chi_j -> -chi_j
(the companion dressing) negates them.  Only tabulated input falls back to
finite differences and interpolation.  That separation keeps quadrature
error and stencil error distinguishable in the verification suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import wraps

import numpy as np

from .grid import Grid1D, Grid2D, _first_derivative

__all__ = [
    "AxisProfile",
    "Superpotential",
    "make_superpotential",
    "catalog_names",
    "generating_pair",
]

_ORIGIN_TOL = 1e-10


@dataclass(eq=False)
class AxisProfile:
    """One axis of a separable superpotential: chi_j with two derivatives.

    ``poly`` holds the coefficients (c1, c2) of a catalog profile
    chi_j = c1*s + c2*s^2/2, which give the potential exactly off the nodes;
    when absent (tabulated input) off-node evaluation falls back to linear
    interpolation of the samples, which keeps the overall O(h^2) order.
    """

    grid: Grid1D
    chi: np.ndarray
    dchi: np.ndarray
    d2chi: np.ndarray
    poly: tuple[float, float] | None = None

    def __post_init__(self):
        self.chi = self.grid.check(np.asarray(self.chi, dtype=float))
        self.dchi = self.grid.check(np.asarray(self.dchi, dtype=float))
        self.d2chi = self.grid.check(np.asarray(self.d2chi, dtype=float))
        if not all(np.isfinite(a).all() for a in (self.chi, self.dchi, self.d2chi)):
            raise ValueError("superpotential samples must be finite")
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
        return float(self.dchi[self.grid.center])

    def q_at(self, s):
        s = np.asarray(s, dtype=float)
        if self.poly is not None:
            c1, c2 = self.poly
            return c2 + (c1 + c2 * s) ** 2
        return np.interp(s, self.grid.nodes, self.q)

    def flipped(self) -> "AxisProfile":
        """The profile for -chi_j (partner potential (chi')^2 - chi'')."""
        poly = None if self.poly is None else (-self.poly[0], -self.poly[1])
        return AxisProfile(self.grid, -self.chi, -self.dchi, -self.d2chi, poly)


def _built_once(method):
    """Build a derived field on the first call, then return it read-only."""
    key = method.__name__

    @wraps(method)
    def derived(self):
        if key not in self._derived:
            value = method(self)
            for array in value if isinstance(value, tuple) else (value,):
                array.flags.writeable = False
            self._derived[key] = value
        return self._derived[key]

    return derived


@dataclass(eq=False)
class Superpotential:
    """chi = chi1(x) + chi2(y) sampled on a 2-D grid, with derivatives.

    The derived full-grid fields (:meth:`dz_chi`, :meth:`dzbar_chi`,
    :meth:`u0`, :meth:`u2`, :meth:`matrix_potential`) depend on the profiles
    alone: each is built on its first call and returned read-only afterwards.
    :meth:`exp_chi` depends on its exponents and is built on every call.
    """

    name: str
    params: tuple[float, ...]
    grid: Grid2D
    ax: AxisProfile
    ay: AxisProfile
    _derived: dict = field(default_factory=dict, init=False, repr=False)

    # -- broadcast helpers ------------------------------------------------
    def exp_chi(self, s1: float = 1.0, s2: float | None = None) -> np.ndarray:
        """exp(s1*chi1 + s2*chi2) as a 2-D field (s2 defaults to s1)."""
        if s2 is None:
            s2 = s1
        return np.exp(s1 * self.ax.chi)[:, None] * np.exp(s2 * self.ay.chi)[None, :]

    @_built_once
    def dz_chi(self) -> np.ndarray:
        """Wirtinger derivative of chi: (chi1'(x) - i chi2'(y)) / 2."""
        return 0.5 * (self.ax.dchi[:, None] - 1j * self.ay.dchi[None, :])

    @_built_once
    def dzbar_chi(self) -> np.ndarray:
        """Conjugate Wirtinger derivative of chi: (chi1'(x) + i chi2'(y)) / 2."""
        return 0.5 * (self.ax.dchi[:, None] + 1j * self.ay.dchi[None, :])

    def grad_component(self, i: int) -> np.ndarray:
        """d chi / d x_i as a 2-D field, i in {1, 2}."""
        if i == 1:
            return np.broadcast_to(self.ax.dchi[:, None], self.grid.shape)
        if i == 2:
            return np.broadcast_to(self.ay.dchi[None, :], self.grid.shape)
        raise ValueError(f"axis index must be 1 or 2, got {i}")

    # -- potentials --------------------------------------------------------
    @_built_once
    def u0(self) -> np.ndarray:
        """Scalar potential of the first Hamiltonian: |grad chi|^2 - lap chi."""
        return (self.ax.dchi**2 - self.ax.d2chi)[:, None] + (
            self.ay.dchi**2 - self.ay.d2chi
        )[None, :]

    @_built_once
    def u2(self) -> np.ndarray:
        """Scalar potential of the second Hamiltonian: |grad chi|^2 + lap chi."""
        return (self.ax.dchi**2 + self.ax.d2chi)[:, None] + (
            self.ay.dchi**2 + self.ay.d2chi
        )[None, :]

    @_built_once
    def matrix_potential(self):
        """Diagonal (P11, P22) of the matrix potential delta_ij U0 + 2 d_i d_j chi.

        For separable chi the mixed derivative 2 d_x d_y chi vanishes
        identically, so the off-diagonal entries are zero and not returned.
        """
        u0 = self.u0()
        p11 = u0 + 2.0 * self.ax.d2chi[:, None]
        p22 = u0 + 2.0 * self.ay.d2chi[None, :]
        return p11, p22


# family -> (parameter count, per-axis coefficients (c1, c2) of
# chi_j(s) = c1*s + c2*s^2/2, as a function of the parameters)
_CATALOG = {
    "zero": (0, lambda: ((0.0, 0.0), (0.0, 0.0))),
    "linear": (2, lambda alpha, beta: ((alpha, 0.0), (beta, 0.0))),
    "quadratic": (2, lambda alpha, beta: ((0.0, alpha), (0.0, beta))),
}


def _axis_poly(grid: Grid1D, c1: float, c2: float) -> AxisProfile:
    x = grid.nodes
    return AxisProfile(
        grid, c1 * x + 0.5 * c2 * x**2, c1 + c2 * x, c2 * np.ones(grid.n), (c1, c2)
    )


def _axis_tabulated(grid: Grid1D, samples) -> AxisProfile:
    chi = grid.check(np.asarray(samples, dtype=float))
    dchi = _first_derivative(chi, grid.h, axis=0)
    d2chi = _first_derivative(dchi, grid.h, axis=0)
    return AxisProfile(grid, chi, dchi, d2chi)


def catalog_names() -> tuple[str, ...]:
    return (*_CATALOG, "tabulated")


def make_superpotential(
    name: str,
    params,
    grid: Grid2D,
    chi1_table=None,
    chi2_table=None,
) -> Superpotential:
    """Build a superpotential on the given grid.

    The polynomial families and their parameters are those of
    :data:`_CATALOG`; ``tabulated`` takes no parameters, only samples on the
    exact grid nodes, and differentiates them by finite differences.
    Raises ``ValueError`` for an unknown family, a wrong parameter count, or
    a parameter or sample that is not finite.
    """
    params = tuple(float(p) for p in params)
    if name not in catalog_names():
        raise ValueError(f"unknown superpotential family {name!r}; know {catalog_names()}")
    arity, coefficients = _CATALOG.get(name, (0, None))
    if len(params) != arity:
        raise ValueError(f"family {name!r} takes {arity} parameters, got {len(params)}")
    if not np.isfinite(params).all():
        raise ValueError(f"superpotential parameters must be finite, got {params}")
    if name == "tabulated":
        if chi1_table is None or chi2_table is None:
            raise ValueError("family 'tabulated' needs chi1_table and chi2_table samples")
        ax, ay = _axis_tabulated(grid.gx, chi1_table), _axis_tabulated(grid.gy, chi2_table)
    else:
        cx, cy = coefficients(*params)
        ax, ay = _axis_poly(grid.gx, *cx), _axis_poly(grid.gy, *cy)
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

