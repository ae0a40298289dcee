"""Nonlinear BGK relaxation (nu/eps) * (M_f - f).

The local Maxwellian is rebuilt from the discrete moments of f each
evaluation; no conservation-enforcing correction is applied. The term
"bgk" has collision frequency nu = 1, and "bgk-rho" the local density.
"""

import numpy as np

from .errors import ConfigurationError
from .phase_space import local_maxwellian, moments

BGK_TERMS = ("bgk", "bgk-rho")


def bgk_rhs(field, term, epsilon):
    """(nu/eps)(maxwellian(moments(f)) - f) for the named term; vacuum cells
    contribute zero."""
    if term not in BGK_TERMS:
        raise ConfigurationError(f"BGK term must be one of {BGK_TERMS}, got {term!r}")
    if not 0 < epsilon < np.inf:
        raise ConfigurationError(f"epsilon must be positive and finite, got {epsilon}")
    vg = field.vgrid
    f = field.values
    mom = moments(vg, f)
    out = local_maxwellian(vg, mom)
    out -= f
    if term == "bgk":
        out *= 1.0 / epsilon
    else:
        out *= mom.rho.reshape(mom.rho.shape + (1,) * vg.dv) / epsilon
    if mom.degenerate.any():
        out[mom.degenerate] = 0.0
    return out
