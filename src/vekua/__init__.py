"""Numerical toolkit for the main Vekua equation with separable superpotentials.

Builds formal powers explicitly, realizes the 2-D SUSY QM operator algebra
(supercharges, Hamiltonian components, Darboux transforms, Vekua-type
first-order operators, transmutation operators) on sampled fields,
constructs metaharmonic conjugates, and verifies every operator identity
with quantified residuals and convergence ratios.
"""

from .grid import (
    Grid1D,
    Grid2D,
    cumulative_integral,
    d_x,
    d_y,
    d_z,
    d_zbar,
    interior,
    interior_max,
    laplacian,
    lpath_complex,
    lpath_field,
)
from .superpotential import (
    AxisProfile,
    Superpotential,
    generating_pair,
    make_superpotential,
)
from .formal_powers import (
    AuxSystem,
    FormalPowerTable,
    assemble_formal_powers,
    build_aux_system,
    fg_integral,
)
from .conjugate import (
    ConjugateResult,
    conjugate_from_w1,
    conjugate_from_w2,
    fit_gauge,
)
from .transmutation import (
    GoursatKernel,
    Transmute2D,
    TransmuteOp,
    build_kernel_with_h,
    build_transmute,
    build_transmute_2d,
    build_transmute_tilde,
    solve_goursat,
    ttilde_antiderivative_form,
)
from .expansion import (
    FitResult,
    TaylorCoefficients,
    evaluate_fit,
    evaluate_series,
    fit_formal_polynomial,
    taylor_coefficients,
)
from .verification import RunConfig, run_battery

__version__ = "0.1.0"
