"""Explicit and recursive construction of formal powers.

For a separable superpotential the pseudoanalytic analogues of a*(z-z0)^n
admit a closed construction: two families of one-dimensional cumulative
integrals per axis (with alternating exponential weights), two derived
function systems per axis, and a binomial recombination.  That explicit
assembly is the primary path here.  The generic recursive construction by
pair-alternating integration is retained as an independent oracle: it
exercises the adjoint-pair integral instead of the 1-D systems, so agreement
of the two tables is a strong cross-check of both.

All tables are built at the origin node z0 = 0, where the normalization
chi1(0) = chi2(0) = 0 makes the degree-zero coefficients trivially solvable.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .grid import Grid2D, cumulative_integral, lpath_complex
from .superpotential import Superpotential, generating_pair

__all__ = [
    "AuxSystem",
    "FormalPowerTable",
    "build_aux_system",
    "assemble_formal_powers",
    "fg_integral",
    "recursive_formal_powers",
]


@dataclass(eq=False)
class AuxSystem:
    """Per-axis integral systems backing the explicit formal powers.

    ``x_pow[n]``/``x_pow_t[n]`` are the n-th cumulative integrals on the x
    axis with weights exp(-2*chi1) alternating with exp(+2*chi1) (and the
    swapped alternation for the tilde family); ``y_pow``/``y_pow_t`` are the
    same on the y axis.  ``phi``/``phi_t`` and ``psi``/``psi_t`` are the
    exponential-dressed systems mixed by parity.
    """

    sp: Superpotential
    n_max: int
    x_pow: np.ndarray
    x_pow_t: np.ndarray
    y_pow: np.ndarray
    y_pow_t: np.ndarray
    phi: np.ndarray
    phi_t: np.ndarray
    psi: np.ndarray
    psi_t: np.ndarray


def _axis_system(grid, chi, n_max):
    """Iterated weighted integrals from the origin node, both alternations."""
    plain = np.empty((n_max + 1, grid.n))
    tilde = np.empty((n_max + 1, grid.n))
    plain[0] = 1.0
    tilde[0] = 1.0
    w_minus = np.exp(-2.0 * chi)
    w_plus = np.exp(2.0 * chi)
    for n in range(1, n_max + 1):
        # weight exp[(-1)^n * 2 chi] for the plain family, opposite for tilde
        wp = w_plus if n % 2 == 0 else w_minus
        wt = w_minus if n % 2 == 0 else w_plus
        plain[n] = n * cumulative_integral(grid, plain[n - 1] * wp, grid.center)
        tilde[n] = n * cumulative_integral(grid, tilde[n - 1] * wt, grid.center)
    return plain, tilde


def _dressed(chi, plain, tilde):
    """phi_k = e^chi * (X if k odd else Xt); phi_t has e^-chi and swapped parity."""
    up = np.exp(chi)
    down = np.exp(-chi)
    n_max = plain.shape[0] - 1
    phi = np.empty_like(plain)
    phi_t = np.empty_like(plain)
    for k in range(n_max + 1):
        if k % 2 == 1:
            phi[k] = up * plain[k]
            phi_t[k] = down * tilde[k]
        else:
            phi[k] = up * tilde[k]
            phi_t[k] = down * plain[k]
    return phi, phi_t


def build_aux_system(sp: Superpotential, n_max: int) -> AuxSystem:
    """Build the 1-D systems up to degree ``n_max`` (inclusive)."""
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    x_pow, x_pow_t = _axis_system(sp.grid.gx, sp.ax.chi, n_max)
    y_pow, y_pow_t = _axis_system(sp.grid.gy, sp.ay.chi, n_max)
    phi, phi_t = _dressed(sp.ax.chi, x_pow, x_pow_t)
    psi, psi_t = _dressed(sp.ay.chi, y_pow, y_pow_t)
    return AuxSystem(sp, n_max, x_pow, x_pow_t, y_pow, y_pow_t, phi, phi_t, psi, psi_t)


@dataclass(eq=False)
class FormalPowerTable:
    """Sampled formal powers of both sequence members for n = 0..n_max.

    ``z_one[n]``/``z_i[n]`` solve the main Vekua equation, ``z1_one[n]`` /
    ``z1_i[n]`` the successor one.  General coefficients come from the
    real-linear rule a = a1 + i*a2 -> a1 * Z(1) + a2 * Z(i).
    """

    sp: Superpotential
    n_max: int
    z_one: np.ndarray
    z_i: np.ndarray
    z1_one: np.ndarray
    z1_i: np.ndarray
    aux: AuxSystem | None = None

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


def assemble_formal_powers(sp: Superpotential, n_max: int, aux: AuxSystem | None = None):
    """Explicit binomial assembly of all four power families up to ``n_max``."""
    if aux is None:
        aux = build_aux_system(sp, n_max)
    if aux.n_max < n_max:
        raise ValueError("auxiliary system built to a lower degree than requested")
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
    return FormalPowerTable(sp, n_max, z_one, z_i, z1_one, z1_i, aux)


def _adjoint_pair(sp: Superpotential, m: int = 0):
    """Adjoint generating pair (F*, G*) of the m-th pair."""
    f_gen, g_gen = generating_pair(sp, m)
    denom = f_gen * np.conj(g_gen) - np.conj(f_gen) * g_gen
    return -2.0 * np.conj(f_gen) / denom, 2.0 * np.conj(g_gen) / denom


def fg_integral(sp: Superpotential, m: int, w, origin=None) -> np.ndarray:
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
    int_g = lpath_complex(grid, g_star * w, origin)
    int_f = lpath_complex(grid, f_star * w, origin)
    return f_gen * np.real(int_g) + g_gen * np.real(int_f)


def recursive_formal_powers(sp: Superpotential, n_max: int) -> FormalPowerTable:
    """Independent construction of the same table by recursive integration.

    Degree zero starts from the generating pairs themselves; each next degree
    integrates the opposite family with the alternating pair integral.  Path
    integration error compounds with the degree, so this is the oracle, not
    the production path.
    """
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    shape = (n_max + 1,) + sp.grid.shape
    z_one = np.empty(shape, dtype=complex)
    z_i = np.empty(shape, dtype=complex)
    z1_one = np.empty(shape, dtype=complex)
    z1_i = np.empty(shape, dtype=complex)
    f0, g0 = generating_pair(sp, 0)
    f1, g1 = generating_pair(sp, 1)
    z_one[0], z_i[0] = f0, g0
    z1_one[0], z1_i[0] = f1, g1
    for n in range(n_max):
        z_one[n + 1] = (n + 1) * fg_integral(sp, 0, z1_one[n])
        z_i[n + 1] = (n + 1) * fg_integral(sp, 0, z1_i[n])
        z1_one[n + 1] = (n + 1) * fg_integral(sp, 1, z_one[n])
        z1_i[n + 1] = (n + 1) * fg_integral(sp, 1, z_i[n])
    return FormalPowerTable(sp, n_max, z_one, z_i, z1_one, z1_i, None)
