"""Transmutation operators built from Goursat-problem kernels.

For each axis the 1-D potential q = chi'' + (chi')^2 defines a kernel
K(x, t) on the triangle |t| <= |x| through a Goursat problem.  In the
characteristic variables u = (x+t)/2, v = (x-t)/2 the problem collapses to
K_uv = q(u+v) K with data K(u, 0) = (1/2) int_0^u q and K(0, v) = 0, which is
solved by Picard iteration on the equivalent double-integral equation; the
iteration converges unconditionally for continuous q.  The characteristic
grid spacing is half the axis spacing so that every pair of axis nodes
(x, t) lands exactly on a characteristic node.

The kernel K depends on q alone.  Dressing it with the boundary-slope
parameter h = chi'(0) turns it into a Volterra operator T with T[x^k] equal
to the k-th element of the dressed power system of
:mod:`vekua.formal_powers`.  There is one construction,
:func:`build_transmute`.  The companion operator acting on the opposite
exponential dressing is that construction run on the flipped profile (-chi,
:meth:`AxisProfile.flipped`), which swaps the potential to (chi')^2 - chi''
and the parameter to -h; it is then cross-validated against its
antiderivative representation and the build fails on disagreement.

The 2-D operators apply the four 1-D operators axis-by-axis to the real and
imaginary parts and map complex polynomials in z onto the formal powers.
Every builder solves one Goursat problem per distinct potential among its
profiles, named by its definition (:attr:`AxisProfile.potential_key`), not
by its samples: a linear chi_j has the same q = c1^2 as its flip, and two
axes with equal definitions on equal grids share one solve.  A builder
drops each kernel once every profile that shares it is dressed, and an
operator keeps its Volterra matrix and the solve's defect history, not the
kernel; whoever needs the kernel itself (``vekua transmute --dump-kernel``)
solves it again from the operator's profile, the flipped one for a
companion, and gets the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonConvergenceError
from .grid import Grid1D, _cumulative_trapezoid, cumulative_integral
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

TOL = 1e-12  # Picard stops once the max change of an iterate is below this,
# or once that change stops falling within its rounding floor
# _ROUNDING_FLOOR * eps * max|K| * max(1, max|q| a^2), a the axis half-width.
# The stall depends on q and a through q a^2 alone (linear c1 = 5 on a = 2
# stalls where c1 = 10 on a = 1 does, at the same n).  Measured envelope,
# linear c1 = 5..12 on a = 1 at n = 21, 61, 101, 201, 401: at most 15.4
# (c1 = 12, n = 21; 5.3 at n = 61, 1.9 at n = 201); the floor keeps a margin
# of about 4 over it
_ROUNDING_FLOOR = 64.0
MAX_ITER = 60
TILDE_CHECK_CAP = 50.0  # units of h^2 * scale
# Rounding of the companion cross-check, in units of eps * (n - 1) * M; its
# error model and measured envelope are in _check_tilde.
TILDE_ROUNDING = 2.0


@dataclass(eq=False)
class GoursatKernel:
    """Solved kernel for one axis; it depends on the potential q alone.

    ``axis_values`` holds K on the axis-node pairs (x_k, t_l); entries with
    |t| > |x| are outside the triangle and must not be used.  The table on
    the characteristic square that the solve iterates is not kept.
    """

    axis_grid: Grid1D
    axis_values: np.ndarray
    defects: list[float]

    @property
    def iterations(self) -> int:
        """Picard sweeps the solve took; ``defects`` holds each one's max change."""
        return len(self.defects)


def solve_goursat(profile: AxisProfile) -> GoursatKernel:
    """Picard iteration for the kernel of one axis.

    Iterates K <- G(u) + int_0^u int_0^v q(a+b) K(a,b) db da on the
    characteristic square in three preallocated tables.  Each sweep's defect
    is the max change of the iterate.  The solve stops once the defect is
    below :data:`TOL`, or once it stops falling, past the rise of the first
    sweeps, within the rounding floor 64 eps max|K| max(1, max|q| a^2), with
    a the axis half-width.  Error model: each sweep sums O(n) products into
    every entry, which rounds K to a few eps max|K|, and the sweep's double
    integral of q K amplifies what it rounds by up to about max|q| a^2, so a
    defect that no longer falls there is rounding; TOL alone is out of reach
    once max|K| exceeds TOL / eps, about 4.5e3.  The stall falls as the grid
    is refined; the floor's constant is set on the coarsest measured grid,
    n = 21.  The solve raises with the defect history if :data:`MAX_ITER`
    sweeps do neither.  The three other sweep tables are freed before the
    axis-node table is gathered from the iterate; only that table is kept.
    """
    grid = profile.grid
    cgrid = grid.refined()  # spacing h/2 on the same interval
    c, a, u = cgrid.center, grid.half_width, cgrid.nodes
    # q(u + v): q is only defined on [-a, a]; u+v leaves it outside the
    # physical triangle only, so clamping cannot affect valid kernel entries
    q_uv = profile.q_at(np.clip(u[:, None] + u[None, :], -a, a))
    q_u = q_uv[:, c]  # v = 0 (u + 0.0 is u: no node is -0)
    g_u = 0.5 * cumulative_integral(cgrid, q_u, c)
    floor = (_ROUNDING_FLOOR * np.finfo(float).eps
             * max(1.0, float(np.max(np.abs(q_u))) * a**2))

    k_cur = np.broadcast_to(g_u[:, None], (cgrid.n, cgrid.n)).copy()
    inner = np.empty_like(k_cur)
    work = np.empty_like(k_cur)
    defects: list[float] = []
    for _ in range(MAX_ITER):
        np.multiply(q_uv, k_cur, out=work)
        _cumulative_trapezoid(work, cgrid.h, c, 1, inner)
        _cumulative_trapezoid(inner, cgrid.h, c, 0, work)
        work += g_u[:, None]
        np.subtract(work, k_cur, out=inner)
        defect = float(np.max(np.abs(inner, out=inner)))
        defects.append(defect)
        k_cur, work = work, k_cur
        if defect <= TOL:
            break
        # stopped falling, and below the first sweep's defect, so past the rise
        if (len(defects) > 1 and defects[-2] <= defect and defects[-2] < defects[0]
                and defect <= floor * float(np.max(np.abs(k_cur, out=inner)))):
            break
    else:
        raise NonConvergenceError(
            f"Goursat iteration did not reach {TOL:g} in {MAX_ITER} steps "
            f"(last defect {defects[-1]:.3e})",
            defects=defects,
        )

    del q_uv, q_u, inner, work  # only k_cur is read from here on
    k = np.arange(grid.n)  # axis pair (x_k, t_l) is characteristic node (k + l, k - l + n - 1)
    return GoursatKernel(grid, k_cur[k[:, None] + k, (k + grid.n - 1)[:, None] - k], defects)


def build_kernel_with_h(gk: GoursatKernel, h_param: float) -> np.ndarray:
    """Dress the Goursat kernel with the boundary-slope parameter h.

    Returns the full Volterra kernel h/2 + K(x,t) + (h/2) * int_t^x
    [K(x,s) - K(x,-s)] ds on axis-node pairs; reduces to K when h = 0, but
    for the sign of a zero entry, which :func:`_volterra_matrix` drops.
    """
    k_axis = gk.axis_values
    odd_part = k_axis - k_axis[:, ::-1]  # K(x, s) - K(x, -s) along s
    anti = cumulative_integral(gk.axis_grid, odd_part, 0, axis=1)
    # int_t^x = C(x) - C(t), rows indexed by x
    correction = np.diagonal(anti)[:, None] - anti
    return 0.5 * h_param + k_axis + 0.5 * h_param * correction


def _volterra_matrix(grid: Grid1D, kernel: np.ndarray) -> np.ndarray:
    """Identity plus the trapezoid discretization of int_{-x}^{x} K(x,t) . dt.

    Row k weighs the columns |t_l| <= |x_k| (the bowtie) by h, the two ends
    t = +-x_k by h/2, with the sign of x_k (oriented limits for negative x);
    the row x = 0 has an empty interval.  Entries outside the bowtie are
    never read, so a kernel value there cannot reach the matrix.  The
    weights and their products share the one n x n array returned; a second
    one costs the n=201 battery about 8 MB of peak RSS.
    """
    n, c, h = grid.n, grid.center, grid.h
    r = np.abs(np.arange(n) - c)  # |x_k| / h
    bowtie = r[None, :] <= r[:, None]
    bowtie[c] = False  # x = 0: empty integration interval
    mat = np.where(r[None, :] == r[:, None], 0.5 * h, h)
    mat *= np.where(np.arange(n) > c, 1.0, -1.0)[:, None]
    np.multiply(mat, kernel, out=mat, where=bowtie)
    # identity plus products: 0 + p is p, except +0 for p = -0; then the 1s
    np.add(mat, 0.0, out=mat, where=bowtie)
    mat[~bowtie] = 0.0
    mat[np.diag_indices(n)] += 1.0
    return mat


@dataclass(eq=False)
class TransmuteOp:
    """1-D transmutation operator in dense matrix form.

    It keeps its Volterra matrix and the Picard defect history of the Goursat
    solve behind it, not the solved kernel: the build releases that n x n
    table once the matrix exists.  :func:`solve_goursat` on the operator's
    profile gives the kernel again, bit for bit.
    """

    grid: Grid1D
    matrix: np.ndarray
    defects: list[float]

    def along_x(self, f) -> np.ndarray:
        """Apply along the first axis of a 1-D or 2-D field."""
        return self.matrix @ self.grid.check(np.asarray(f))

    def along_y(self, field2d) -> np.ndarray:
        return np.asarray(field2d) @ self.matrix.T


def _operators(*profiles: AxisProfile) -> list[TransmuteOp]:
    """One operator per profile, from one Goursat solve per distinct potential.

    Profiles share a kernel when their :attr:`AxisProfile.potential_key` is
    equal; each operator is dressed with its own slope parameter.  A kernel
    is dropped once the last profile that shares it is dressed, so profiles
    of distinct potentials hold one kernel at a time: an operator keeps its
    matrix and defects only.
    """
    last = {profile.potential_key: i for i, profile in enumerate(profiles)}
    kernels: dict[tuple, GoursatKernel] = {}
    ops = []
    for i, profile in enumerate(profiles):
        key = profile.potential_key
        if key not in kernels:
            kernels[key] = solve_goursat(profile)
        gk = kernels.pop(key) if last[key] == i else kernels[key]
        ops.append(TransmuteOp(profile.grid, _volterra_matrix(
            profile.grid, build_kernel_with_h(gk, profile.h_param)), gk.defects))
        del gk  # before the next solve
    return ops


def build_transmute(profile: AxisProfile) -> TransmuteOp:
    """Transmutation operator mapping plain powers onto the dressed system."""
    return _operators(profile)[0]


def ttilde_antiderivative_form(t_op: TransmuteOp, profile: AxisProfile, f, df):
    """Companion operator through its antiderivative representation.

    exp(-chi) * (int_0^x exp(chi(s)) T[f'](s) ds + f(0)), with ``df`` the
    samples of f'.
    """
    grid = profile.grid
    f = grid.check(np.asarray(f, dtype=float))
    weighted = np.exp(profile.chi) * t_op.along_x(df)
    acc = cumulative_integral(grid, weighted, grid.center)
    return np.exp(-profile.chi) * (acc + f[grid.center])


def build_transmute_tilde(profile: AxisProfile) -> TransmuteOp:
    """Companion transmutation operator (opposite exponential dressing).

    Equal to :func:`build_transmute` on the flipped profile, whose potential
    is (chi')^2 - chi'' and whose slope parameter is -h.  The operator is
    then compared on low powers against the antiderivative representation
    through the plain operator; any disagreement above 50 h^2 per unit scale,
    plus its rounding, fails the build (:func:`_check_tilde`).  The two share
    one Goursat solve when the flip keeps the potential's definition
    (chi'' = 0 for ``poly``).
    """
    t_op, op = _operators(profile, profile.flipped())
    _check_tilde(profile, op, t_op)
    return op


def _check_tilde(profile: AxisProfile, op: TransmuteOp, t_op: TransmuteOp) -> None:
    """Raise unless the companion ``op`` matches its antiderivative form on x, x^2, x^3.

    The cap is :data:`TILDE_CHECK_CAP` * h^2 * max(1, M) + R, with M the
    largest magnitude of the antiderivative form.  The h^2 term is the
    truncation of the two second-order constructions; R =
    :data:`TILDE_ROUNDING` * eps * (n - 1) * M is their rounding, which the
    h^2 term alone no longer covers once h^2 nears eps (half-width 1e-20 on
    21 nodes: a gap of 1.5e-36 against 5e-41).  With u = eps/2: the running
    trapezoid sum adds n - 1 increments from the left end, with partial sums
    up to 2M, so it carries up to 2 (n - 1) u M; the Volterra product adds up
    to n terms per row, with partial sums near M where R matters (there
    a max|K| is small, a the half-width), (n - 1) u M more; the subtraction
    of the origin value, the f(0) term and the exponential factors add a few
    u M.  That is 1.5 (n - 1) eps M and a few u M, below C = 2.  Measured on
    x^1 (half-widths 1e-20 to 1e-8, n = 21 to 401; zero, linear and
    quadratic): at most 0.18 of the unit eps (n - 1) M, and in units of
    eps M rising with n as the model says, 2.7 at n = 21 and 72 at n = 401.
    """
    x = profile.grid.nodes
    h2_unit = profile.grid.h**2
    rounding_unit = TILDE_ROUNDING * np.finfo(float).eps * (profile.grid.n - 1)
    for k in (1, 2, 3):
        f = x**k
        df = k * x ** (k - 1) if k > 1 else np.ones_like(x)
        via_kernel = op.along_x(f)
        via_anti = ttilde_antiderivative_form(t_op, profile, f, df)
        magnitude = float(np.max(np.abs(via_anti)))
        cap = TILDE_CHECK_CAP * h2_unit * max(1.0, magnitude) + rounding_unit * magnitude
        gap = float(np.max(np.abs(via_kernel - via_anti)))
        if gap > cap:
            raise NonConvergenceError(
                f"companion-transmutation cross-check failed on x^{k}: "
                f"gap {gap:.3e} > {cap:.3e}",
                defects=op.defects,
            )


@dataclass(eq=False)
class Transmute2D:
    """Axis-separable 2-D transmutations acting on complex fields.

    ``t0`` maps z^n onto the main formal powers, ``t1`` onto the successor
    ones: the real part goes through the plain/plain (resp. tilde/plain)
    axis operators and the imaginary part through the complementary pair.
    All three entry points are one construction, :meth:`_images`: ``t0`` and
    ``t1`` take four products each, ``t0_t1`` six, as the two images share
    their y-passes.
    """

    sp: Superpotential
    tx: TransmuteOp
    ty: TransmuteOp
    tx_tilde: TransmuteOp
    ty_tilde: TransmuteOp

    def _images(self, w, x_pairs) -> list[np.ndarray]:
        """One image per ``(re_x, im_x)`` of ``x_pairs``: the real part of ``w``
        through (re_x, ty), its imaginary part through (im_x, ty_tilde).

        Each image is written part by part into one complex output.  That
        equals ``re + 1j * im`` bit for bit except for the sign of an exact
        zero, which the products do not give here.
        """
        w = self.sp.grid.check(np.asarray(w, dtype=complex))
        re_y = self.ty.along_y(w.real)
        im_y = self.ty_tilde.along_y(w.imag)
        images = []
        for re_x, im_x in x_pairs:
            image = np.empty(w.shape, dtype=complex)
            image.real = re_x.along_x(re_y)
            image.imag = im_x.along_x(im_y)
            images.append(image)
        return images

    def t0(self, w) -> np.ndarray:
        return self._images(w, ((self.tx, self.tx_tilde),))[0]

    def t1(self, w) -> np.ndarray:
        return self._images(w, ((self.tx_tilde, self.tx),))[0]

    def t0_t1(self, w) -> tuple[np.ndarray, np.ndarray]:
        """``(t0(w), t1(w))``, sharing the two y-passes: six products, not eight."""
        t0, t1 = self._images(w, ((self.tx, self.tx_tilde), (self.tx_tilde, self.tx)))
        return t0, t1


def build_transmute_2d(sp: Superpotential) -> Transmute2D:
    """The four axis operators, one Goursat solve per distinct potential.

    The companions are cross-checked as in :func:`build_transmute_tilde`.
    """
    tx, ty, txt, tyt = _operators(sp.ax, sp.ay, sp.ax.flipped(), sp.ay.flipped())
    _check_tilde(sp.ax, txt, tx)
    _check_tilde(sp.ay, tyt, ty)
    return Transmute2D(sp, tx, ty, txt, tyt)
