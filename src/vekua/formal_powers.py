"""Explicit construction of formal powers.

For a separable superpotential the pseudoanalytic analogues of a*(z-z0)^n
admit a closed construction: one dressed 1-D power system per axis profile,
built from cumulative integrals with alternating exponential weights, and a
binomial recombination.  Each axis needs the system of its profile and that
of the flipped profile (-chi_j); the tilde system is that same construction
on :meth:`AxisProfile.flipped`, with no rule of its own.  That explicit
assembly is the only construction here.  The pair integral
:func:`fg_integral`, the step of the generic recursive construction by
pair-alternating integration, serves the battery's ``diagram_integral`` row,
where it must commute with the transmutation operators.

All tables are built at the origin node z0 = 0, where the normalization
chi1(0) = chi2(0) = 0 makes the degree-zero coefficients trivially solvable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

import numpy as np

from .grid import Grid2D, cumulative_integral, interior, lpath_complex
from .superpotential import AxisProfile, Superpotential, generating_pair

__all__ = [
    "AuxSystem",
    "FormalPowerTable",
    "build_aux_system",
    "assemble_formal_powers",
    "fg_integral",
]


@dataclass(eq=False)
class AuxSystem:
    """Per-axis power systems backing the explicit formal powers.

    ``phi`` is the dressed 1-D power system of the x profile and ``phi_t``
    that of its flip (-chi1, :meth:`AxisProfile.flipped`); ``psi`` and
    ``psi_t`` are the same on the y axis.  Row k is degree k, on the axis
    nodes.
    """

    phi: np.ndarray
    phi_t: np.ndarray
    psi: np.ndarray
    psi_t: np.ndarray


def _weighted_integrals(grid, chi, n_max):
    """X_0 = 1 and X_n = n int_0^x X_{n-1} exp((-1)^n 2 chi), from the origin node."""
    out = np.empty((n_max + 1, grid.n))
    out[0] = 1.0
    weights = (np.exp(2.0 * chi), np.exp(-2.0 * chi))  # by the parity of n
    for n in range(1, n_max + 1):
        out[n] = n * cumulative_integral(grid, out[n - 1] * weights[n % 2], grid.center)
    return out


def _power_system(profile: AxisProfile, n_max: int) -> np.ndarray:
    """phi_k = e^chi X_k(chi) for odd k and e^chi X_k(-chi) for even k."""
    powers = _weighted_integrals(profile.grid, profile.chi, n_max)
    powers[::2] = _weighted_integrals(profile.grid, -profile.chi, n_max)[::2]
    return np.exp(profile.chi) * powers


def build_aux_system(sp: Superpotential, n_max: int) -> AuxSystem:
    """Build the 1-D systems up to degree ``n_max`` (inclusive)."""
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    profiles = (sp.ax, sp.ax.flipped(), sp.ay, sp.ay.flipped())
    return AuxSystem(*(_power_system(p, n_max) for p in profiles))


def _basis_part(basis_kind: str, field_c) -> np.ndarray:
    """Imaginary (``ker_h0``) or real (``ker_h2``) part of a complex field."""
    if basis_kind == "ker_h0":
        return np.imag(field_c)
    if basis_kind == "ker_h2":
        return np.real(field_c)
    raise ValueError("basis_kind must be 'ker_h0' or 'ker_h2'")


@dataclass(eq=False)
class FormalPowerTable:
    """Sampled formal powers of both sequence members for n = 0..n_max.

    ``z_one[n]``/``z_i[n]`` solve the main Vekua equation, ``z1_one[n]`` /
    ``z1_i[n]`` the successor one.  General coefficients come from the
    real-linear rule a = a1 + i*a2 -> a1 * Z(1) + a2 * Z(i).

    The four power stacks are read-only once the table exists, so the fit
    designs that :meth:`design` memoizes per ``(basis_kind, degree)`` can
    never go stale.
    """

    sp: Superpotential
    z_one: np.ndarray
    z_i: np.ndarray
    z1_one: np.ndarray
    z1_i: np.ndarray
    aux: AuxSystem | None = None
    _designs: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        for stack in (self.z_one, self.z_i, self.z1_one, self.z1_i):
            stack.flags.writeable = False

    @property
    def n_max(self) -> int:
        """Highest degree in the table."""
        return len(self.z_one) - 1

    def power(self, n: int, a: complex) -> np.ndarray:
        """Formal power of the main sequence with coefficient ``a``."""
        self._check(n)
        a = complex(a)
        return a.real * self.z_one[n] + a.imag * self.z_i[n]

    def power_succ(self, n: int, a: complex) -> np.ndarray:
        """Formal power of the successor sequence with coefficient ``a``."""
        self._check(n)
        a = complex(a)
        return a.real * self.z1_one[n] + a.imag * self.z1_i[n]

    def design(self, basis_kind: str, degree: int) -> np.ndarray:
        """Read-only collocation matrix of the fit in ``basis_kind``.

        One column per slot (n, 1), (n, i), n = 0..degree, in that order: the
        imaginary (``ker_h0``) or real (``ker_h2``) part of Z^n(1) and Z^n(i)
        on the margin-2 interior, raveled.  Built on the first request for a
        ``(basis_kind, degree)`` pair and returned as is afterwards.
        """
        key = (basis_kind, degree)
        if key not in self._designs:
            self._check(degree)
            columns = []
            for n in range(degree + 1):
                columns.append(interior(_basis_part(basis_kind, self.z_one[n]), margin=2).ravel())
                columns.append(interior(_basis_part(basis_kind, self.z_i[n]), margin=2).ravel())
            design = np.column_stack(columns)
            design.flags.writeable = False
            self._designs[key] = design
        return self._designs[key]

    def _check(self, n: int):
        if not 0 <= n <= self.n_max:
            raise ValueError(f"exponent {n} outside the built range 0..{self.n_max}")


def _binomial_sum(n, even_pair, odd_pair, extra_i=False):
    """sum_j C(n,j) i^j (or i^(j+1)) * pair_j, pair chosen by parity of j."""
    fx_even, fy_even = even_pair
    fx_odd, fy_odd = odd_pair
    total = np.zeros((fx_even.shape[1], fy_even.shape[1]), dtype=complex)
    for j in range(n + 1):
        unit = 1j ** (j + 1) if extra_i else 1j**j
        if j % 2 == 0:
            term = np.outer(fx_even[n - j], fy_even[j])
        else:
            term = np.outer(fx_odd[n - j], fy_odd[j])
        total += comb(n, j) * unit * term
    return total


def assemble_formal_powers(sp: Superpotential, n_max: int):
    """Explicit binomial assembly of all four power families up to ``n_max``.

    Raises ``OverflowError`` before the 2-D assembly if a 1-D system holds a
    non-finite value: its row k meets a row 0 of the other axis in a term of
    the degree-k sums, and that product stays non-finite (inf times 0 is NaN),
    so some power would be non-finite too.
    """
    aux = build_aux_system(sp, n_max)
    if not all(np.isfinite(s).all() for s in (aux.phi, aux.phi_t, aux.psi, aux.psi_t)):
        raise OverflowError(f"the 1-D power systems up to degree {n_max} overflow to a "
                            "non-finite value")
    shape = (n_max + 1,) + sp.grid.shape
    z_one = np.empty(shape, dtype=complex)
    z_i = np.empty(shape, dtype=complex)
    z1_one = np.empty(shape, dtype=complex)
    z1_i = np.empty(shape, dtype=complex)
    phi, phi_t, psi, psi_t = aux.phi, aux.phi_t, aux.psi, aux.psi_t
    for n in range(n_max + 1):
        z_one[n] = _binomial_sum(n, (phi, psi), (phi_t, psi_t))
        z_i[n] = _binomial_sum(n, (phi_t, psi_t), (phi, psi), extra_i=True)
        # successor family: swap phi <-> phi_t, psi systems invariant
        z1_one[n] = _binomial_sum(n, (phi_t, psi), (phi, psi_t))
        z1_i[n] = _binomial_sum(n, (phi, psi_t), (phi_t, psi), extra_i=True)
    return FormalPowerTable(sp, z_one, z_i, z1_one, z1_i, aux)


def _adjoint_pair(sp: Superpotential, m: int = 0):
    """Adjoint generating pair (F*, G*) of the m-th pair."""
    f_gen, g_gen = generating_pair(sp, m)
    denom = f_gen * np.conj(g_gen) - np.conj(f_gen) * g_gen
    return -2.0 * np.conj(f_gen) / denom, 2.0 * np.conj(g_gen) / denom


def fg_integral(sp: Superpotential, m: int, w) -> np.ndarray:
    """Pair integral of ``w`` from the origin node to every node.

    Realizes F(z) Re int(G* w dz) + G(z) Re int(F* w dz) with the line
    integrals taken along axis-parallel L-paths, using the m-th pair of the
    period-two sequence.  Applied to the derivative of a pair-regular
    function it reproduces the function up to its value-at-origin term.
    """
    grid: Grid2D = sp.grid
    w = grid.check(np.asarray(w, dtype=complex))
    f_gen, g_gen = generating_pair(sp, m)
    f_star, g_star = _adjoint_pair(sp, m)
    int_g = lpath_complex(grid, g_star * w)
    int_f = lpath_complex(grid, f_star * w)
    return f_gen * np.real(int_g) + g_gen * np.real(int_f)

