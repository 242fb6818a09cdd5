"""Numerical workbench for a relativistic two-state dipole field theory.

Layers: covariant model core (dipole tensor, contractions, power
counting), Jaynes-Cummings cavity dynamics, non-relativistic 4x4
reduction with a decoupling similarity transform, cutoff-regularized
one-loop integrals with quadrature oracles, and the renormalization
bookkeeping built on them. The `dipole-loop` console script exposes the
batch commands. Import from the modules: `from dipole_loop import renorm`.
"""

__version__ = "0.1.0"
