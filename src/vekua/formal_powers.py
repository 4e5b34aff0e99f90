"""Explicit construction of formal powers.

For a separable superpotential the pseudoanalytic analogues of a*(z-z0)^n
admit a closed construction: one dressed 1-D power system per axis profile,
built from cumulative integrals with alternating exponential weights, and a
binomial recombination.  Each axis needs the system of its profile and that
of the flipped profile (-chi_j); the tilde system is that same construction
on :meth:`AxisProfile.flipped`, with no rule of its own.  That explicit
assembly is the only construction here, and it runs on request: a
:class:`FormalPowerTable` keeps the 1-D systems, O(n_max) values per axis
node, and assembles a sampled power from them when it is read; the
successor sequence is the table of :meth:`Superpotential.successor`.  The
pair integral :func:`fg_integral`, the step of the recursive construction
by pair-alternating integration, serves the battery's ``diagram_integral``
row, where it must commute with the transmutation operators.

All tables are built at the origin node z0 = 0, where the normalization
chi1(0) = chi2(0) = 0 makes the degree-zero coefficients trivially solvable.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from math import comb

import numpy as np

from .grid import Grid2D, cumulative_integral, interior, lpath_complex
from .superpotential import AxisProfile, Superpotential, generating_pair

__all__ = [
    "AuxSystem",
    "DesignFactors",
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


class _PowerStack:
    """Z^n of one family, n = 0..n_max: a read-only sequence over the degrees.

    Indexing it at degree n assembles Z^n from the axis factors
    (:func:`_binomial_sum`) into a new read-only array that belongs to its
    reader: the stack keeps no power, so reading a degree again assembles the
    same bits again.
    """

    def __init__(self, even_pair, odd_pair, extra_i: bool):
        self._pairs = (even_pair, odd_pair)
        self._extra_i = extra_i

    def __len__(self) -> int:
        return len(self._pairs[0][0])

    def __getitem__(self, n) -> np.ndarray:
        n = range(len(self))[operator.index(n)]  # IndexError outside the degrees
        power = _binomial_sum(n, *self._pairs, self._extra_i)
        power.flags.writeable = False
        return power


@dataclass(frozen=True, eq=False)
class DesignFactors:
    """Thin SVD of a fit design, cut where ``np.linalg.lstsq`` cuts its rank.

    A singular value is kept when it exceeds eps * max(m, k) * s[0], numpy's
    default ``rcond`` rule for an m x k design, so ``rank`` and the
    minimum-norm solution mean what they mean for ``lstsq``.  ``ut`` holds the
    left singular vectors of the kept values as rows (rank x m), ``s`` every
    singular value in descending order, ``vt`` the right singular vectors of
    the kept values as rows (rank x k); all three are read-only.

    Each row of ``ut`` is contiguous, so ``ut @ rhs`` takes m-term dot
    products, which BLAS sums in several partial sums.  Stored as columns
    (``u``, m x rank), ``u.T @ rhs`` would add m scaled rows of ``u`` one
    after another, whose rounding moves the battery's self-fit coefficients
    several times further from ``lstsq``'s.
    """

    ut: np.ndarray
    s: np.ndarray
    vt: np.ndarray

    @property
    def rank(self) -> int:
        return len(self.ut)


@dataclass(eq=False)
class FormalPowerTable:
    """Formal powers of the main Vekua equation for n = 0..n_max, assembled on request.

    The table holds four things, nothing else: its 1-D systems ``aux``; the
    fit designs that :meth:`design` memoizes per ``(basis_kind, degree)``;
    their factors, the thin SVD that :meth:`design_factors` memoizes per key
    on the first fit (one m x rank array and two small ones); and the table of
    the successor powers Z1^n(a), :meth:`successor`.  Its two read-only stacks
    (:class:`_PowerStack`) ``z_one[n]`` = Z^n(1) and ``z_i[n]`` = Z^n(i)
    assemble each power on request into an array that belongs to the reader.
    General coefficients come from the real-linear rule
    a = a1 + i*a2 -> a1 * Z(1) + a2 * Z(i); for finite powers ``power(n, 1.0)``
    and ``power(n, 1j)`` equal ``z_one[n]`` and ``z_i[n]`` bit for bit, as a
    stack holds no -0.

    Every power is read-only and assembled the same way each time, so a
    memoized design, and the factors of it, can never go stale.
    """

    sp: Superpotential
    aux: AuxSystem
    z_one: _PowerStack = field(init=False, repr=False)
    z_i: _PowerStack = field(init=False, repr=False)
    _designs: dict = field(default_factory=dict, init=False, repr=False)
    _factors: dict = field(default_factory=dict, init=False, repr=False)
    _successor: "FormalPowerTable | None" = field(default=None, init=False, repr=False)

    def __post_init__(self):
        phi, phi_t, psi, psi_t = self.aux.phi, self.aux.phi_t, self.aux.psi, self.aux.psi_t
        self.z_one = _PowerStack((phi, psi), (phi_t, psi_t), False)
        self.z_i = _PowerStack((phi_t, psi_t), (phi, psi), True)

    @property
    def n_max(self) -> int:
        """Highest degree in the table."""
        return len(self.aux.phi) - 1

    def power(self, n: int, a: complex) -> np.ndarray:
        """Formal power of the main sequence with coefficient ``a``."""
        self._check(n)
        a = complex(a)
        return a.real * self.z_one[n] + a.imag * self.z_i[n]

    def successor(self) -> "FormalPowerTable":
        """The table of ``sp.successor()`` to the same degree, built on the first
        request and returned as is afterwards."""
        if self._successor is None:
            self._successor = assemble_formal_powers(self.sp.successor(), self.n_max)
        return self._successor

    def power_succ(self, n: int, a: complex) -> np.ndarray:
        return self.successor().power(n, a)

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

    def design_factors(self, basis_kind: str, degree: int) -> DesignFactors:
        """Thin SVD of :meth:`design` for the same key, factorized on the first
        request and returned as is afterwards, so that each fit after the first
        on a key takes two matrix-vector products instead of a factorization."""
        key = (basis_kind, degree)
        if key not in self._factors:
            design = self.design(basis_kind, degree)
            u, s, vt = np.linalg.svd(design, full_matrices=False)
            rank = int(np.count_nonzero(s > np.finfo(float).eps * max(design.shape) * s[0]))
            ut = np.ascontiguousarray(u[:, :rank].T)
            vt = vt[:rank]
            for a in (ut, s, vt):
                a.flags.writeable = False
            self._factors[key] = DesignFactors(ut, s, vt)
        return self._factors[key]

    def _check(self, n: int):
        if not 0 <= n <= self.n_max:
            raise ValueError(f"exponent {n} outside the built range 0..{self.n_max}")


def _binomial_sum(n, even_pair, odd_pair, extra_i):
    """sum_j C(n,j) i^j (or i^(j+1)) * pair_j, pair chosen by parity of j.

    pair_j is the outer product of row n-j of its x system and row j of its y
    system.  The unit i^j is real for even j and imaginary for odd j (the
    other way round with ``extra_i``), so the terms of each parity are summed
    in increasing j in one real accumulator, which is then copied into its
    part of the result.  For finite factors and n < 100 (where ``1j**j`` is
    exact) this equals, bit for bit, the complex sum of the complex terms
    started from zero: each product with a zero component that the complex
    sum adds is +0 or -0, and the copy adds 0.0, which turns a -0 into the +0
    of a zero-started sum.  Each call allocates its own accumulator and term
    buffer, and returns a new array.
    """
    fx_even, fy_even = even_pair
    acc, term = np.empty((2, fx_even.shape[1], fy_even.shape[1]))
    total = np.empty(acc.shape, dtype=complex)
    for parity, (fx, fy) in enumerate((even_pair, odd_pair)):
        part = total.imag if (parity + extra_i) % 2 else total.real
        if n < parity:  # no term of this parity: the zero-started sum
            part.fill(0.0)
            continue
        for j in range(parity, n + 1, 2):
            out = acc if j == parity else term
            np.einsum("i,j->ij", fx[n - j], fy[j], out=out)  # np.outer, about twice as fast
            negative = (j + extra_i) % 4 >= 2  # the unit is -1 or -i
            c = float(comb(n, j))
            if c != 1.0:
                np.multiply(out, -c if negative else c, out=out)
            if out is term:
                (np.subtract if negative and c == 1.0 else np.add)(acc, term, out=acc)
            elif negative and c == 1.0:
                np.negative(acc, out=acc)
        np.add(acc, 0.0, out=part)
    return total


def assemble_formal_powers(sp: Superpotential, n_max: int):
    """The formal-power table of ``sp`` up to ``n_max``: its 1-D systems, from
    which each power is assembled when it is read.

    Raises ``OverflowError`` if a 1-D system holds a non-finite value: its row
    k meets a row 0 of the other axis in a term of the degree-k sums, and that
    product stays non-finite (inf times 0 is NaN), so some power would be
    non-finite too.  A power can still overflow with finite 1-D systems (a
    product of two large rows); only reading it shows that.
    """
    aux = build_aux_system(sp, n_max)
    if not all(np.isfinite(s).all() for s in (aux.phi, aux.phi_t, aux.psi, aux.psi_t)):
        raise OverflowError(f"the 1-D power systems up to degree {n_max} overflow to a "
                            "non-finite value")
    return FormalPowerTable(sp, aux)


def fg_integral(sp: Superpotential, w) -> np.ndarray:
    """Pair integral of ``w`` from the origin node to every node.

    Realizes F(z) Re int(G* w dz) + G(z) Re int(F* w dz) with the line
    integrals taken along axis-parallel L-paths, using the generating pair
    (F, G) of ``sp``, whose adjoint pair is
    F* = -2 conj(F) / d and G* = 2 conj(G) / d, d = F conj(G) - conj(F) G.
    Applied to the derivative of a pair-regular function it reproduces the
    function up to its value-at-origin term.  The pair is built once, and
    its adjoint one half at a time: G* is dropped once its line integral is
    weighted, before F* is built, and each line integral is dropped once its
    real part is weighted, so at most one half of the adjoint pair and one
    complex integral are alive at a time.
    """
    grid: Grid2D = sp.grid
    w = grid.check(np.asarray(w, dtype=complex))
    f_gen, g_gen = generating_pair(sp)
    denom = f_gen * np.conj(g_gen) - np.conj(f_gen) * g_gen
    g_star = 2.0 * np.conj(g_gen) / denom
    # F is real, so is its term; added into the complex G term, it gives the
    # bits of F term + G term
    f_term = f_gen * np.real(lpath_complex(grid, g_star * w))
    del g_star
    f_star = -2.0 * np.conj(f_gen) / denom
    del denom
    result = g_gen * np.real(lpath_complex(grid, f_star * w))
    result += f_term
    return result
