"""Nonlinear BGK relaxation (nu/eps) * (M_f - f).

The local Maxwellian is rebuilt from the discrete moments of f each
evaluation; no conservation-enforcing correction is applied. The collision
frequency nu is 1, or the local density.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .phase_space import local_maxwellian, moments

log = logging.getLogger(__name__)

FREQUENCY_MODES = ("constant", "proportional")


@dataclass
class BgkConfig:
    frequency_mode: str
    epsilon: float

    def __post_init__(self):
        if self.frequency_mode not in FREQUENCY_MODES:
            raise ConfigurationError(
                f"frequency_mode must be one of {FREQUENCY_MODES}, got {self.frequency_mode!r}"
            )
        if not 0 < self.epsilon < np.inf:
            raise ConfigurationError(f"epsilon must be positive and finite, got {self.epsilon}")


def bgk_rhs(field, cfg):
    """(nu/eps)(maxwellian(moments(f)) - f); vacuum cells contribute zero."""
    vg = field.vgrid
    f = field.values
    mom = moments(vg, f)
    out = local_maxwellian(vg, mom)
    out -= f
    if cfg.frequency_mode == "constant":
        out *= 1.0 / cfg.epsilon
    else:
        out *= mom.rho.reshape(mom.rho.shape + (1,) * vg.dv) / cfg.epsilon
    n_deg = int(np.count_nonzero(mom.degenerate))
    if n_deg:
        out[mom.degenerate] = 0.0
        log.debug("bgk_rhs: %d vacuum cell(s) skipped", n_deg)
    return out
