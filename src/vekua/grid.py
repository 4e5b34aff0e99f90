"""Uniform symmetric grids with finite-difference and quadrature primitives.

Everything downstream lives on a tensor-product grid over the rectangle
``[-a1, a1] x [-a2, a2]``.  Node counts are odd so that the origin is a grid
node; it is the default base point of every cumulative integral, and every
L-path integral starts at that centre node.  All derivative stencils are
second order: central differences on interior nodes and one-sided
three/four-point formulas on the boundary.
Quadrature is the composite trapezoid rule throughout, so antiderivatives
exist at every node and share the O(h^2) order of the stencils.  It is
plain numpy with the floating-point operations of
``scipy.integrate.cumulative_trapezoid``, so its values equal scipy's bit for
bit.  Its running sum over a multi-dimensional array is one vector add per
row along the integration axis (row k plus row k-1 into row k): the additions
``np.cumsum`` makes, in the same order, but each call adds a whole row of
independent sums, over row views built once per call.  On the 801^2 Picard
table this takes about a fifth (axis 0) and two fifths (axis 1, strided rows)
of the time of ``np.cumsum``; 1-D samples go through ``np.cumsum``.  The
stencils and the quadrature write into their output array instead of
building full-size temporaries; the stencils take the interior nodes of
either axis as one contiguous slice of the flattened field.

Every division by the step (the 2h and h^2 of the stencils) goes through
:func:`_divide`; the trapezoid's halving is the product with 0.5, which is
the same value as the division for every double.  A real array is divided, as
IEEE division rounds once and the battery's rounding-level rows pin those
bits.  A complex array is multiplied by the reciprocal: numpy divides a
complex array by a real scalar ``d`` as by ``d + 0j`` with Smith's quotient,
one scalar loop whose every element computes ``(re + im*0) * (1/d)``, and
the vectorized product with ``1/d`` gives the same values (only the sign of
an exact zero can differ, for ``-0`` input) six to eight times faster.

Fields are plain ``numpy`` arrays of shape ``(gx.n, gy.n)`` indexed as
``f[ix, iy]``.  Residual norms are meant to be taken on interior nodes only
(boundary values of second-derivative quantities are best-effort one-sided
values); use :func:`interior_max` with an appropriate margin.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GridShapeError

__all__ = [
    "Grid1D",
    "Grid2D",
    "cumulative_integral",
    "d_x",
    "d_y",
    "d_z",
    "d_zbar",
    "laplacian",
    "lpath_field",
    "lpath_complex",
    "interior",
    "interior_max",
]


@dataclass(eq=False)
class Grid1D:
    """Uniform grid with an odd number of nodes on ``[-half_width, half_width]``.

    The node count must be an odd integer (and at least 3) so that 0 is a
    node: the normalization chi(0) = 0 and every origin-based integral depend
    on it.  The spacing ``h`` must be positive and finite in floating point.
    """

    half_width: float
    n: int
    nodes: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not (np.isfinite(self.half_width) and self.half_width > 0):
            raise ValueError(f"half_width must be positive and finite, got {self.half_width}")
        if isinstance(self.n, bool) or not isinstance(self.n, (int, np.integer)):
            raise ValueError(f"node count must be an integer, got {self.n!r}")
        if self.n < 3 or self.n % 2 == 0:
            raise ValueError(f"node count must be odd and >= 3, got {self.n}")
        if not (np.isfinite(self.h) and self.h > 0):  # 2 * half_width overflows, or h underflows
            raise ValueError(f"half_width {self.half_width} with {self.n} nodes gives spacing "
                             f"h = {self.h}; it must be positive and finite")
        # index arithmetic keeps the nodes exactly antisymmetric about 0
        self.nodes = (np.arange(self.n) - (self.n - 1) // 2) * self.h

    @property
    def h(self) -> float:
        return 2.0 * self.half_width / (self.n - 1)

    @property
    def center(self) -> int:
        """Index of the node at 0."""
        return (self.n - 1) // 2

    def check(self, samples) -> np.ndarray:
        samples = np.asarray(samples)
        if samples.shape[0] != self.n:
            raise GridShapeError(
                f"expected {self.n} samples along the grid, got shape {samples.shape}"
            )
        return samples

    def refined(self) -> "Grid1D":
        """Same interval with the spacing halved (2n - 1 nodes)."""
        return Grid1D(self.half_width, 2 * self.n - 1)

    def __repr__(self):  # keep ndarray out of the repr
        return f"Grid1D(half_width={self.half_width}, n={self.n})"


@dataclass(eq=False)
class Grid2D:
    """Tensor product of two symmetric 1-D grids; domain ``[-a1,a1] x [-a2,a2]``."""

    gx: Grid1D
    gy: Grid1D

    @classmethod
    def square(cls, half_width: float, n: int) -> "Grid2D":
        return cls(Grid1D(half_width, n), Grid1D(half_width, n))

    @property
    def shape(self) -> tuple[int, int]:
        return (self.gx.n, self.gy.n)

    @property
    def center(self) -> tuple[int, int]:
        return (self.gx.center, self.gy.center)

    @property
    def hmax(self) -> float:
        return max(self.gx.h, self.gy.h)

    def meshes(self) -> tuple[np.ndarray, np.ndarray]:
        """Coordinate arrays ``X``, ``Y`` of shape ``(gx.n, gy.n)``."""
        return np.meshgrid(self.gx.nodes, self.gy.nodes, indexing="ij")

    def zmesh(self) -> np.ndarray:
        x, y = self.meshes()
        return x + 1j * y

    def check(self, f) -> np.ndarray:
        f = np.asarray(f)
        if f.shape != self.shape:
            raise GridShapeError(f"expected field of shape {self.shape}, got {f.shape}")
        return f

    def refined(self) -> "Grid2D":
        return Grid2D(self.gx.refined(), self.gy.refined())


def cumulative_integral(grid: Grid1D, samples, origin_index: int | None = None, axis: int = 0):
    """Cumulative trapezoid antiderivative vanishing at ``origin_index``.

    Works on real or complex samples and on multi-dimensional arrays
    (integrated along ``axis``).  Exact for constant and affine integrands.
    """
    y = np.asarray(samples)
    if y.shape[axis] != grid.n:
        raise GridShapeError(
            f"expected {grid.n} samples along axis {axis}, got shape {y.shape}"
        )
    if origin_index is None:
        origin_index = grid.center
    if not 0 <= origin_index < grid.n:
        raise ValueError(f"origin index {origin_index} out of range [0, {grid.n})")
    out = np.empty(y.shape, dtype=np.result_type(y.dtype, np.float64))
    return _cumulative_trapezoid(y, grid.h, origin_index, axis, out)


def _cumulative_trapezoid(y: np.ndarray, h: float, origin_index: int, axis: int, out: np.ndarray):
    """Write the trapezoid antiderivative of ``y`` along ``axis`` into ``out``.

    Same operations in the same order as scipy's
    ``cumulative_trapezoid(y, dx=h, initial=0)`` (neighbour sum, times h,
    halved, running sum), then the value at ``origin_index`` is subtracted.
    ``out`` must not overlap ``y``; it may hold anything on entry, and no
    entry of it is scaled before it is written.

    Order contract: every entry is ``(y[k+1] + y[k]) * h * 0.5`` and the
    running sum adds these in index order, starting at the first of them (the
    leading 0 is not added, so a -0 stays -0), one row of independent sums
    per step: exactly the additions of ``np.cumsum``.  The
    halving is a product: for every double, x * 0.5 and x / 2 are the same
    value, as both round the exact x/2 once (subnormal or not).

    A 2-D C-contiguous ``y`` and ``out`` integrated along axis 1 take the
    neighbour sums and the scaling over the flattened arrays, in memory
    order: the sum across each row seam lands in the first-column slot,
    which is set to 0 before the scaling.  That path is taken only when every
    seam sum is finite, so it raises no floating-point warning the row-wise
    path would not.
    """
    om = out.swapaxes(0, axis)
    if y.ndim == 2 and axis == 1 and y.flags.c_contiguous and out.flags.c_contiguous \
            and _finite_seams(y):
        flat, yf = out.reshape(-1), y.reshape(-1)
        np.add(yf[1:], yf[:-1], out=flat[1:])
        om[0] = 0.0
        flat *= h
        flat *= 0.5
    else:
        ym = y.swapaxes(0, axis)
        om[0] = 0.0
        body = om[1:]
        np.add(ym[1:], ym[:-1], out=body)
        body *= h
        body *= 0.5
    if om.ndim == 1:
        np.cumsum(om[1:], out=om[1:])
    else:
        rows = list(om[1:])
        for prev, row in zip(rows, rows[1:]):
            np.add(prev, row, row)
    om -= om[origin_index].copy()
    return out


def _finite_seams(y: np.ndarray) -> bool:
    """Whether the sums across the row seams of a 2-D ``y`` (last entry of
    one row plus first of the next) are finite; computed without a warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        return bool(np.isfinite(y[1:, 0] + y[:-1, -1]).all())


def _divide(a, d: float):
    """Divide ``a`` in place by a positive real scalar ``d``; returns ``a``
    (a numpy scalar ``a`` is returned divided).

    Real ``a`` keeps IEEE division.  Complex ``a`` is multiplied by
    ``1.0 / d``: for the divisor ``d + 0j`` numpy's Smith quotient takes the
    ratio 0 and the scale ``1/d`` and returns ``(re + im*0) * (1/d)``, which
    is this product except for the sign of an exact zero, and it runs as a
    scalar loop six to eight times slower than the product.
    """
    if np.iscomplexobj(a):
        a *= 1.0 / d
    else:
        a /= d
    return a


def _first_derivative(f: np.ndarray, h: float, axis: int) -> np.ndarray:
    f = np.asarray(f)
    if f.shape[axis] < 3:
        raise GridShapeError("need at least 3 nodes to differentiate")
    out = np.empty(f.shape, dtype=np.result_type(f.dtype, np.float64))
    # flattened, the neighbours along ``axis`` are ``step`` apart, so one slice
    # holds every interior node (for step 1 also the ends of each row, which
    # the boundary stencils overwrite)
    step = int(np.prod(f.shape[axis + 1:]))
    ff, mid = f.reshape(-1), out.reshape(-1)[step:f.size - step]
    # (f[k+1] - f[k-1]) / 2h, evaluated in place
    np.subtract(ff[2 * step:], ff[:f.size - 2 * step], out=mid)
    _divide(mid, 2.0 * h)
    fm = f.swapaxes(0, axis)
    om = out.swapaxes(0, axis)
    om[0] = _divide(-3.0 * fm[0] + 4.0 * fm[1] - fm[2], 2.0 * h)
    om[-1] = _divide(3.0 * fm[-1] - 4.0 * fm[-2] + fm[-3], 2.0 * h)
    return out


def _second_derivative(f: np.ndarray, h: float, axis: int) -> np.ndarray:
    f = np.asarray(f)
    if f.shape[axis] < 3:
        raise GridShapeError("need at least 3 nodes for a second derivative")
    out = np.empty(f.shape, dtype=np.result_type(f.dtype, np.float64))
    # the flattened interior slice of _first_derivative
    step = int(np.prod(f.shape[axis + 1:]))
    ff, mid = f.reshape(-1), out.reshape(-1)[step:f.size - step]
    h2 = h * h
    # (f[k+1] - 2 f[k] + f[k-1]) / h^2, evaluated in place in that order
    np.multiply(ff[step:f.size - step], 2.0, out=mid)
    np.subtract(ff[2 * step:], mid, out=mid)
    mid += ff[:f.size - 2 * step]
    _divide(mid, h2)
    fm = f.swapaxes(0, axis)
    om = out.swapaxes(0, axis)
    if f.shape[axis] >= 4:
        om[0] = _divide(2.0 * fm[0] - 5.0 * fm[1] + 4.0 * fm[2] - fm[3], h2)
        om[-1] = _divide(2.0 * fm[-1] - 5.0 * fm[-2] + 4.0 * fm[-3] - fm[-4], h2)
    else:
        # 3-node grid: only the central value exists; replicate it.
        om[0] = om[1]
        om[-1] = om[1]
    return out


def d_x(grid: Grid2D, f) -> np.ndarray:
    """First derivative along x, second order everywhere."""
    return _first_derivative(grid.check(f), grid.gx.h, axis=0)


def d_y(grid: Grid2D, f) -> np.ndarray:
    """First derivative along y, second order everywhere."""
    return _first_derivative(grid.check(f), grid.gy.h, axis=1)


def d_z(grid: Grid2D, f) -> np.ndarray:
    """Wirtinger derivative (d/dx - i d/dy)/2."""
    return 0.5 * (d_x(grid, f) - 1j * d_y(grid, f))


def d_zbar(grid: Grid2D, f) -> np.ndarray:
    """Conjugate Wirtinger derivative (d/dx + i d/dy)/2."""
    return 0.5 * (d_x(grid, f) + 1j * d_y(grid, f))


def laplacian(grid: Grid2D, f) -> np.ndarray:
    """Five-point Laplacian on interior nodes.

    Boundary values are filled with one-sided second-derivative stencils so
    that compositions never see NaNs, but they are not part of this module's
    accuracy contract: exclude them from norms (see :func:`interior_max`).
    """
    f = grid.check(f)
    lap = _second_derivative(f, grid.gx.h, axis=0)
    lap += _second_derivative(f, grid.gy.h, axis=1)
    return lap


def interior(f: np.ndarray, margin: int = 1) -> np.ndarray:
    """View of ``f`` with ``margin`` rows/columns stripped from every side."""
    if margin < 0:
        raise ValueError("margin must be non-negative")
    if margin == 0:
        return np.asarray(f)
    f = np.asarray(f)
    if min(f.shape[:2]) <= 2 * margin:
        raise GridShapeError(f"field of shape {f.shape} has no interior at margin {margin}")
    return f[margin:-margin, margin:-margin]


def interior_max(f: np.ndarray, margin: int = 1) -> float:
    """Max absolute value over interior nodes."""
    return float(np.max(np.abs(interior(f, margin))))


def lpath_field(grid: Grid2D, f1, f2) -> np.ndarray:
    """``2 * (int f1 dx + int f2 dy)`` along L-paths to every node.

    The path runs from the centre node first along x at fixed y, then along
    y at fixed x.  This is the gradient-reconstruction integral for the
    conjugate Wirtinger derivative of a real field.
    """
    f1 = grid.check(f1)
    f2 = grid.check(f2)
    i0, j0 = grid.center
    leg_x = cumulative_integral(grid.gx, f1[:, j0], i0)
    leg_y = cumulative_integral(grid.gy, f2, j0, axis=1)
    return 2.0 * (leg_x[:, None] + leg_y)


def lpath_complex(grid: Grid2D, w) -> np.ndarray:
    """Complex line integral ``int w dzeta`` along the same L-paths."""
    w = grid.check(w)
    i0, j0 = grid.center
    leg_x = cumulative_integral(grid.gx, w[:, j0], i0)
    leg_y = cumulative_integral(grid.gy, w, j0, axis=1)
    return leg_x[:, None] + 1j * leg_y
