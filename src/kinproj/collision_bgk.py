"""Nonlinear BGK relaxation (nu/eps) * (M_f - f).

The local Maxwellian is rebuilt from the discrete moments of f each
evaluation; no conservation-enforcing correction is applied. Collision
frequency is either a constant nu0 or the local density.
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
    frequency_mode: str = "constant"
    nu0: float = 1.0
    epsilon: float = 1.0

    def __post_init__(self):
        if self.frequency_mode not in FREQUENCY_MODES:
            raise ConfigurationError(
                f"frequency_mode must be one of {FREQUENCY_MODES}, got {self.frequency_mode!r}"
            )
        if not self.nu0 > 0:
            raise ConfigurationError(f"nu0 must be positive, got {self.nu0}")
        if not self.epsilon > 0:  # math.inf is a valid collisionless sentinel
            raise ConfigurationError(f"epsilon must be positive, got {self.epsilon}")


def collision_frequency(cfg, core):
    """nu per cell: the constant nu0, or the local density."""
    if cfg.frequency_mode == "constant":
        return cfg.nu0
    return core.rho


def bgk_rhs(field, cfg):
    """(nu/eps)(maxwellian(moments(f)) - f); vacuum cells contribute zero."""
    vg = field.vgrid
    f = field.values
    mom = moments(vg, f)
    M = local_maxwellian(vg, mom)
    nu = collision_frequency(cfg, mom)
    pad = (1,) * vg.dv
    if np.ndim(nu) > 0:
        nu = np.asarray(nu).reshape(mom.rho.shape + pad)
    out = M
    out -= f
    out *= nu / cfg.epsilon
    n_deg = int(np.count_nonzero(mom.degenerate))
    if n_deg:
        out[mom.degenerate] = 0.0
        log.debug("bgk_rhs: %d vacuum cell(s) skipped", n_deg)
    return out
