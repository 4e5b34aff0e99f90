"""Separable superpotentials and the data derived from them.

A superpotential here is chi(x, y) = chi1(x) + chi2(y) with chi1(0) =
chi2(0) = 0.  It fixes the Schroedinger potentials of both scalar
Hamiltonians, the matrix potential of the 2x2 component, the generating
pair (exp(chi), i exp(-chi)) that drives the whole formal-power machinery,
and each axis's Goursat potential.  The second pair of the period-two
sequence is the first pair of the successor -chi1 + chi2.

Each axis stores only what defines it.  The catalog is one table,
:data:`_CATALOG`: each family names its parameter count and, per axis, the
coefficients (c1, c2) of chi_j(s) = c1*s + c2*s^2/2, which give the samples,
both derivatives and the potential off the nodes exactly; flipping chi_j ->
-chi_j (the companion dressing) negates them.  Only tabulated input, defined
by its samples, falls back to finite differences and interpolation, so the
suite can tell quadrature error from stencil error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import wraps

import numpy as np

from .grid import Grid1D, Grid2D, _first_derivative, _second_derivative

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
    """One axis of a separable superpotential, defined by ``poly`` or ``chi``.

    ``poly`` = (c1, c2) defines chi_j = c1*s + c2*s^2/2: ``chi``, ``dchi``,
    ``d2chi`` and the potential off the nodes are exact.  Samples ``chi``
    alone define a tabulated profile: ``dchi`` and ``d2chi`` are the first- and
    second-derivative stencils of the samples, both O(h^2) at every node, the
    ends included, and off the nodes the potential is interpolated linearly,
    which keeps the overall O(h^2) order.  Passing
    both definitions or neither raises ``ValueError``.  Transmutation kernels
    are shared by the potential's definition: by equal :attr:`potential_key`.
    """

    grid: Grid1D
    chi: np.ndarray | None = None
    poly: tuple[float, float] | None = None
    dchi: np.ndarray = field(init=False, repr=False)
    d2chi: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if (self.chi is None) == (self.poly is None):
            raise ValueError("an axis profile takes exactly one of chi and poly")
        if self.poly is None:
            self.chi = self.grid.check(np.asarray(self.chi, dtype=float))
            self.dchi = _first_derivative(self.chi, self.grid.h, axis=0)
            self.d2chi = _second_derivative(self.chi, self.grid.h, axis=0)
        else:
            c1, c2 = self.poly
            x = self.grid.nodes
            self.chi = c1 * x + 0.5 * c2 * x**2
            self.dchi = c1 + c2 * x
            self.d2chi = c2 * np.ones(self.grid.n)
        # derived samples too: a stencil of huge finite samples can overflow
        if not all(np.isfinite(a).all() for a in (self.chi, self.dchi, self.d2chi)):
            raise ValueError("superpotential samples must be finite")
        c0 = abs(self.chi[self.grid.center])
        if c0 > _ORIGIN_TOL:
            raise ValueError(f"superpotential must vanish at the origin, found {c0:.3e}")

    @property
    def q(self) -> np.ndarray:
        """Schroedinger potential chi'' + (chi')^2 on the axis nodes."""
        return self.d2chi + self.dchi**2

    @property
    def h_param(self) -> float:
        """chi'(0); equals the derivative of exp(chi) at 0 since chi(0) = 0."""
        return float(self.dchi[self.grid.center])

    @property
    def potential_key(self) -> tuple:
        """(half-width, n, q's definition): equal keys give bit-equal ``q_at``.

        For ``poly`` = (c1, c2) that is (c2, |c1|) if c2 = +-0, since then
        q_at = c2 + (c1 + c2 s)^2 is c1^2 for every finite s, else (c2, c1);
        tabulated, the bytes of the samples of q that ``q_at`` interpolates.
        """
        if self.poly is None:
            return (self.grid.half_width, self.grid.n, self.q.tobytes())
        c1, c2 = self.poly
        return (self.grid.half_width, self.grid.n, c2 + 0.0, abs(c1) if c2 == 0 else c1)

    def q_at(self, s):
        s = np.asarray(s, dtype=float)
        if self.poly is not None:
            c1, c2 = self.poly
            return c2 + (c1 + c2 * s) ** 2
        return np.interp(s, self.grid.nodes, self.q)

    def flipped(self) -> "AxisProfile":
        """The profile for -chi_j (partner potential (chi')^2 - chi''), by its definition."""
        if self.poly is None:
            return AxisProfile(self.grid, chi=-self.chi)
        return AxisProfile(self.grid, poly=(-self.poly[0], -self.poly[1]))


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
    """chi = chi1(x) + chi2(y), defined by its two axis profiles.

    ``grid`` is the product of the profiles' grids.  The derived full-grid
    fields (:meth:`dz_chi`, :meth:`dzbar_chi`, :meth:`u0`, :meth:`u2`,
    :meth:`matrix_potential`) depend on the profiles alone: each is built on
    its first call and returned read-only afterwards.  :meth:`exp_chi`
    depends on its exponents and is built on every call.
    """

    ax: AxisProfile
    ay: AxisProfile
    grid: Grid2D = field(init=False, repr=False)
    _derived: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        self.grid = Grid2D(self.ax.grid, self.ay.grid)

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

    def successor(self) -> "Superpotential":
        """-chi1(x) + chi2(y): its main Vekua operator is the successor one of chi."""
        return Superpotential(self.ax.flipped(), self.ay)


# family -> (parameter count, per-axis coefficients (c1, c2) of
# chi_j(s) = c1*s + c2*s^2/2, as a function of the parameters)
_CATALOG = {
    "zero": (0, lambda: ((0.0, 0.0), (0.0, 0.0))),
    "linear": (2, lambda alpha, beta: ((alpha, 0.0), (beta, 0.0))),
    "quadratic": (2, lambda alpha, beta: ((0.0, alpha), (0.0, beta))),
}


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
        ax, ay = AxisProfile(grid.gx, chi=chi1_table), AxisProfile(grid.gy, chi=chi2_table)
    else:
        cx, cy = coefficients(*params)
        ax, ay = AxisProfile(grid.gx, poly=cx), AxisProfile(grid.gy, poly=cy)
    return Superpotential(ax, ay)


def generating_pair(sp: Superpotential):
    """(exp(chi), i exp(-chi)); that of :meth:`Superpotential.successor` is the
    second pair of the period-two sequence, the same pair when chi1 = 0."""
    return sp.exp_chi(1.0, 1.0), 1j * sp.exp_chi(-1.0, -1.0)
