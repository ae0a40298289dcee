"""Deterministic solver for stiff collisional kinetic equations.

Nonlinear BGK and fast-spectral Boltzmann collision operators, WENO finite-
difference transport, and projective / telescopic projective time integrators
with a spectrum-informed step-size planner. Each name is imported from its
module, e.g. ``from kinproj.integrators import telescopic_step``.
"""

__version__ = "0.1.0"
