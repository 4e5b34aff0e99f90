"""Seeded inputs for the benchmark workloads.

Every generator takes a ``numpy.random.Generator`` built from the ``--seed``
argument, so one seed always yields the same inputs; ``vekua`` itself only
ever sees the generated arrays, files and parameters.
"""

from __future__ import annotations

import numpy as np

# Family parameters for ``verify-201`` are drawn from this lattice: each of
# alpha and beta is one of these values, so the recorded battery reference
# (reference/battery_n201.json) covers every parameter pair a seed can draw.
PARAM_LATTICE = (-1.0, -0.5, 0.5, 1.0)
# Degrees of the formal-power combinations handed to conjugate, fit and Taylor.
CONJUGATE_DEGREE = 3
FIT_DEGREE = 4
TAYLOR_DEGREE = 4


def lattice_params(rng: np.random.Generator) -> tuple[float, float]:
    """(alpha, beta) drawn from :data:`PARAM_LATTICE`."""
    return tuple(float(v) for v in rng.choice(PARAM_LATTICE, size=2))


def uniform_params(rng: np.random.Generator) -> tuple[float, float]:
    """(alpha, beta) uniform in [-1, 1], rounded to three decimals."""
    return tuple(float(v) for v in np.round(rng.uniform(-1.0, 1.0, size=2), 3))


# Exponents (a, b) of the monomials x^a y^b of a smooth field.
SMOOTH_MONOMIALS = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))


def smooth_coefficients(rng: np.random.Generator) -> np.ndarray:
    """Complex coefficients of a smooth field, real and imaginary parts in [-1, 1]."""
    c = rng.uniform(-1.0, 1.0, size=(2, len(SMOOTH_MONOMIALS)))
    return c[0] + 1j * c[1]


def axis_basis(s: np.ndarray, a: int) -> np.ndarray:
    """s^a exp(-s^2): one axis factor of a smooth-field term."""
    return s**a * np.exp(-s * s)


def smooth_field(coefficients, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sum_k c_k x^a y^b exp(-x^2) exp(-y^2) over :data:`SMOOTH_MONOMIALS`.

    Every term is a product of one factor per axis, so an axis-separable
    operator maps the field to a combination of its 1-D outputs on
    :func:`axis_basis`.
    """
    return sum(c * axis_basis(x, a) * axis_basis(y, b)
               for c, (a, b) in zip(coefficients, SMOOTH_MONOMIALS))


def unit_coefficient(rng: np.random.Generator) -> complex:
    """exp(i theta) with theta uniform: the battery tests a in {1, i}, also of modulus 1."""
    return complex(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))


def power_coefficients(rng: np.random.Generator, degree: int) -> np.ndarray:
    """Complex coefficients a_0..a_degree with real and imaginary parts in [-1, 1]."""
    c = rng.uniform(-1.0, 1.0, size=(degree + 1, 2))
    return c[:, 0] + 1j * c[:, 1]


def power_combination(table, coefficients) -> np.ndarray:
    """sum_n Z^n(a_n): solves the main Vekua equation, so Re is in ker h2, Im in ker h0."""
    return sum(table.power(n, a) for n, a in enumerate(coefficients))


def write_field_csv(path, x: np.ndarray, y: np.ndarray, values: np.ndarray) -> None:
    """Field CSV in the ``x,y,re,im`` layout the CLI reads, 17 significant digits."""
    rows = np.column_stack([x.ravel(), y.ravel(), values.real.ravel(), values.imag.ravel()])
    with open(path, "w") as fh:
        fh.write("x,y,re,im\n")
        np.savetxt(fh, rows, fmt="%.17g", delimiter=",")


def read_field_values(path, shape: tuple[int, int]) -> np.ndarray:
    """Complex values of a field CSV written by the CLI (rows x-major)."""
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if rows.shape != (shape[0] * shape[1], 4):
        raise ValueError(f"{path}: expected {shape[0] * shape[1]} rows of 4, got {rows.shape}")
    return (rows[:, 2] + 1j * rows[:, 3]).reshape(shape)
