"""Numerical toolkit for the main Vekua equation with separable superpotentials.

Builds formal powers explicitly, realizes the 2-D SUSY QM operator algebra
(supercharges, Hamiltonian components, Darboux transforms, Vekua-type
first-order operators, transmutation operators) on sampled fields,
constructs metaharmonic conjugates, and verifies every operator identity
with quantified residuals and convergence ratios.

Each public name is imported from the module that defines it, e.g.
``from vekua.verification import RunConfig, run_battery``.  The package
re-exports nothing, so importing it loads none of its modules.
"""

__version__ = "0.1.0"
