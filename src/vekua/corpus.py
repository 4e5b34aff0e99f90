"""Deterministic smooth test fields for operator-identity checks.

Products of low-degree polynomials with a centered Gaussian: smooth enough
for the O(h^2) convergence story, rich enough in mixed derivatives that no
identity holds for a degenerate reason.  No randomness anywhere; the
verification reports must be reproducible byte for byte.

The fields are made one at a time, from the axis nodes broadcast against
each other (x as a column, y as a row).  That is the elementwise arithmetic
of the two full coordinate meshes, value for value, so each field has the
same bits, while a power of a coordinate is taken on its n axis values
instead of n1 x n2 mesh values, and no mesh is built.
"""

from __future__ import annotations

import numpy as np

from .grid import Grid2D, d_x, d_y, interior_max, laplacian

__all__ = ["smooth_corpus", "corpus_scale"]


def smooth_corpus(grid: Grid2D):
    """Yield the named complex test fields on the grid, one at a time.

    Between two fields the generator holds the axis nodes alone, so a caller
    that drops each field before asking for the next holds one field at a
    time."""
    x, y = grid.gx.nodes[:, None], grid.gy.nodes[None, :]
    for name, make in (("poly_bump", _poly_bump), ("cubic_mix", _cubic_mix),
                       ("gauss_shift", _gauss_shift)):
        yield name, make(x, y)


def _bump(x, y):
    return np.exp(-(x**2 + y**2))


def _poly_bump(x, y):
    bump = _bump(x, y)
    return (1.0 + x + 0.5 * x * y) * bump + 1j * (x**2 - y + 0.5) * bump


def _cubic_mix(x, y):
    return (x**3 - 3.0 * x * y**2) + 1j * (3.0 * x**2 * y - y**3 + x)


def _gauss_shift(x, y):
    bump = _bump(x, y)
    return (x - 0.3 * y**2) * bump + 1j * (y + 0.25 * x**2 - x * y) * bump


def corpus_scale(grid: Grid2D, w, margin: int = 2) -> float:
    """Scale of a test field: sup of the field and its first two derivatives."""
    w = np.asarray(w)
    return max(
        1.0,
        interior_max(w, margin),
        interior_max(d_x(grid, w), margin),
        interior_max(d_y(grid, w), margin),
        interior_max(laplacian(grid, w), margin),
    )
