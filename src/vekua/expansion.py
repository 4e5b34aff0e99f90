"""Taylor coefficients in formal powers and formal-polynomial fitting.

Two approximation routes.  The collocation fit is the workhorse: linear
least squares over the real span of the imaginary (or real) parts of the
sampled formal powers, which are complete for the respective kernels.  Its
design matrix depends only on the table, the basis and the degree, so the
table builds it once per ``(basis, degree)`` and factorizes it once (a thin
SVD), and every fit reuses both: a fit after the first on a design takes two
matrix-vector products and the residual's product.  The
Taylor route evaluates successive pair derivatives at the origin, on the
centred window that the origin values and the noise model read; repeated
numerical differentiation is ill-conditioned, so it is capped at degree 6
and every coefficient carries an explicit uncertainty estimate derived from
the stencil model.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

from .errors import GridShapeError
from .grid import _first_derivative, interior, interior_max
from .formal_powers import FormalPowerTable, _basis_part
from .operators import h0, h2, require_kernel
from .superpotential import Superpotential

__all__ = [
    "TaylorCoefficients",
    "FitResult",
    "taylor_coefficients",
    "evaluate_series",
    "fit_formal_polynomial",
    "evaluate_fit",
]

MAX_TAYLOR_DEGREE = 6
# Safety factor on the propagated stencil-noise model; calibrated once
# against round trips of sampled formal powers.
NOISE_SAFETY = 5.0


@dataclass(eq=False)
class TaylorCoefficients:
    """Coefficients a_n = (n-th pair derivative at origin) / n! with noise bars."""

    values: np.ndarray  # complex, length degree+1
    uncertainty: np.ndarray  # real, same length

    @property
    def degree(self) -> int:
        return len(self.values) - 1


def taylor_coefficients(sp: Superpotential, w, degree: int) -> TaylorCoefficients:
    """Origin-centered coefficients of a field in the formal-power basis.

    Applies the alternating pair derivatives of the period-two sequence
    (:func:`~vekua.operators.vekua_vbar` at even levels,
    :func:`~vekua.operators.vekua_v1bar` at odd ones) and reads off the
    origin value at each level.  Raises ``ValueError`` for a field with
    non-finite values, and :class:`~vekua.errors.GridShapeError` (a
    ``ValueError``) when the propagated stencil-noise estimate drowns out
    every computed coefficient, which is the signal that the grid is too
    coarse for the requested degree.

    Every level lives on one centred window ``[lo, n - lo)`` per axis, with
    ``lo = max(0, margin - degree - 2)`` and ``margin`` the noise model's
    margin.  The window's one-sided edge stencils spoil one more node per
    derivative, so level m is exact (bit for bit the full-grid value) from
    m nodes inside the window edge, and its third derivatives from m + 3.
    For m < degree that covers the margin interior the noise model reads,
    and the origin is deeper still.  Each level's d_x and d_y serve both the
    noise model and the pair derivative.
    """
    if degree > MAX_TAYLOR_DEGREE:
        raise ValueError(f"degree {degree} exceeds the supported maximum {MAX_TAYLOR_DEGREE}")
    if degree < 0:
        raise ValueError("degree must be non-negative")
    grid = sp.grid
    w = grid.check(np.asarray(w, dtype=complex))
    if not np.isfinite(w).all():
        raise ValueError("taylor_coefficients: field has non-finite values")
    i0, j0 = grid.center
    h = grid.hmax
    hx, hy = grid.gx.h, grid.gy.h
    n1, n2 = grid.shape
    # the noise model samples a centered window: one-sided boundary stencils
    # leave kinks in iterated derivative fields that would otherwise dominate
    # the estimate
    margin = max(2, min(n1, n2) // 4)
    lo = max(0, margin - degree - 2)
    window = (slice(lo, n1 - lo), slice(lo, n2 - lo))
    dz_chi = sp.dz_chi()
    # coefficients of the conjugate terms of the two pairs, on the window;
    # contiguous, so that each product runs the loop of the full-grid one
    conj_coef = tuple(np.ascontiguousarray(c[window]) for c in (dz_chi, sp.dzbar_chi()))

    values = np.empty(degree + 1, dtype=complex)
    noise = np.empty(degree + 1)
    cur = np.ascontiguousarray(w[window])
    level_noise = 1e-14 * max(1.0, interior_max(w, margin=1))
    values[0] = w[i0, j0]
    noise[0] = level_noise
    # per-level model: new truncation (h^2/6) * |third derivatives|, while
    # noise already present is re-scaled by the conjugate-term weight; the
    # safety factor absorbs the smooth growth of differentiated error fields
    carry = 1.0 + float(np.max(np.abs(dz_chi)))
    for m in range(degree):
        dx = _first_derivative(cur, hx, 0)
        dy = _first_derivative(cur, hy, 1)
        dx3 = _first_derivative(_first_derivative(dx, hx, 0), hx, 0)
        dy3 = _first_derivative(_first_derivative(dy, hy, 1), hy, 1)
        scale = interior_max(dx3, margin=margin - lo) + interior_max(dy3, margin=margin - lo)
        trunc = (h**2 / 6.0) * scale
        level_noise = NOISE_SAFETY * trunc + carry * level_noise
        # d_z cur -+ coefficient * conj(cur).  The coefficient stays the left
        # operand, as in operators.vekua_vbar / vekua_v1bar: swapping the
        # operands of a complex product can move the last bit of its
        # imaginary part.
        prod = np.multiply(conj_coef[m % 2], np.conj(cur))
        cur = 0.5 * (dx - 1j * dy)
        if m % 2 == 0:
            cur -= prod
        else:
            cur += prod
        values[m + 1] = cur[i0 - lo, j0 - lo] / factorial(m + 1)
        noise[m + 1] = level_noise / factorial(m + 1)

    biggest = float(np.max(np.abs(values)))
    if noise[degree] > max(biggest, 1e-12):
        raise GridShapeError(
            f"stencil noise {noise[degree]:.3e} exceeds every coefficient "
            f"({biggest:.3e}); use a finer grid for degree {degree}"
        )
    return TaylorCoefficients(values=values, uncertainty=noise)


def evaluate_series(coeffs: TaylorCoefficients, table: FormalPowerTable) -> np.ndarray:
    """Sum of formal powers with the given coefficients."""
    if coeffs.degree > table.n_max:
        raise ValueError("coefficient degree exceeds the table range")
    total = np.zeros(table.sp.grid.shape, dtype=complex)
    for n, a in enumerate(coeffs.values):
        total += table.power(n, a)
    return total


@dataclass(eq=False)
class FitResult:
    """Least-squares expansion over formal-power parts."""

    basis_kind: str
    degree: int
    coefficients: np.ndarray  # real, length 2*(degree+1): slots (n,1), (n,i)
    residual_max: float
    residual_rms: float
    singular_values: np.ndarray
    rank: int

    def coefficient(self, n: int, which: str) -> float:
        """Coefficient of slot (n, 1) (``which="one"``) or (n, i) (``"i"``)."""
        if which not in ("one", "i"):
            raise ValueError(f"which must be 'one' or 'i', got {which!r}")
        if not 0 <= n <= self.degree:
            raise ValueError(f"exponent {n} outside the fitted range 0..{self.degree}")
        idx = 2 * n + (0 if which == "one" else 1)
        return float(self.coefficients[idx])


def fit_formal_polynomial(
    sp: Superpotential,
    target,
    table: FormalPowerTable,
    basis_kind: str,
    degree: int,
) -> FitResult:
    """Collocation fit of a kernel element in the degree-capped basis.

    The basis spans the imaginary (``ker_h0``) or real (``ker_h2``) parts of
    the formal powers with coefficients 1 and i, n = 0..degree.  Membership
    of the target in the corresponding kernel is checked first; rank
    deficiency is tolerated (one column is structurally zero) and reported
    through the singular values.  ``degree`` must be an integer in
    0..``table.n_max``.  The design matrix is the table's memoized
    :meth:`~vekua.formal_powers.FormalPowerTable.design`, and the solve reuses
    its thin SVD, which the table factorizes once per design
    (:meth:`~vekua.formal_powers.FormalPowerTable.design_factors`): the
    minimum-norm least-squares solution V diag(1/s) U^T rhs over the singular
    values that ``np.linalg.lstsq`` would keep, so ``rank`` and
    ``singular_values`` are what it reports, and the coefficients agree with
    it to rounding.
    """
    grid = sp.grid
    target = grid.check(np.asarray(target, dtype=float))
    if (
        isinstance(degree, bool)
        or not isinstance(degree, (int, np.integer))
        or not 0 <= degree <= table.n_max
    ):
        raise ValueError(f"degree must be an integer in 0..{table.n_max}, got {degree!r}")
    op = h0 if basis_kind == "ker_h0" else h2 if basis_kind == "ker_h2" else None
    if op is None:
        raise ValueError("basis_kind must be 'ker_h0' or 'ker_h2'")
    require_kernel(sp, op, target, "fit_formal_polynomial")

    design = table.design(basis_kind, degree)
    factors = table.design_factors(basis_kind, degree)
    rhs = interior(target, margin=2).ravel()
    proj = factors.ut @ rhs
    coef = factors.vt.T @ (proj / factors.s[: factors.rank])
    resid = design @ coef - rhs
    return FitResult(
        basis_kind=basis_kind,
        degree=degree,
        coefficients=coef,
        residual_max=float(np.max(np.abs(resid))),
        residual_rms=float(np.sqrt(np.mean(resid**2))),
        singular_values=factors.s,
        rank=factors.rank,
    )


def evaluate_fit(fit: FitResult, table: FormalPowerTable) -> np.ndarray:
    """Reconstruct the fitted field on the full grid."""
    total = np.zeros(table.sp.grid.shape)
    for n in range(fit.degree + 1):
        total += fit.coefficients[2 * n] * _basis_part(fit.basis_kind, table.z_one[n])
        total += fit.coefficients[2 * n + 1] * _basis_part(fit.basis_kind, table.z_i[n])
    return total
