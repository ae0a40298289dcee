"""Deterministic solver for stiff collisional kinetic equations.

Nonlinear BGK and fast-spectral Boltzmann collision operators, WENO finite-
difference transport, and projective / telescopic projective time integrators
with a geometric step-size planner (h0 = epsilon; planning from the collision
spectrum is ROADMAP.md item 3). Each name is imported from its module, e.g.
``from kinproj.integrators import telescopic_step``.
"""

__version__ = "0.1.0"
