"""Step-size ladders for projective and telescopic projective integration.

`ladder` builds every run's `IntegratorPlan`. An integrator is an outer
tableau and a level count: 0 for plain steps of h0, 1 for projective steps,
which need K >= 2, or planned for telescopic ones. A level count or factor
list M that is given must agree with it. Without M, every level takes the
one geometric factor that reaches the target outer step from the inner
step h0 (`adapt_M`), over `plan_levels` levels of growth `_LEVEL_FACTOR`
unless a count is given. No spectrum is read; planning from the collision
spectrum is ROADMAP.md item 3.
"""

import math

from .errors import ConfigurationError, InfeasiblePlanError
from .integrators import CLASSIC_RK4, FORWARD_EULER, IntegratorPlan

# name -> (outer tableau, level count); None means the levels are planned
INTEGRATORS = {"fe": (FORWARD_EULER, 0), "rk4": (CLASSIC_RK4, 0),
               "pfe": (FORWARD_EULER, 1), "prk4": (CLASSIC_RK4, 1),
               "tpfe": (FORWARD_EULER, None), "tprk4": (CLASSIC_RK4, None)}

# default level-to-level growth when the level count is not given
_LEVEL_FACTOR = 20.0


def ladder(integrator, h0, h_target, K, levels=None, M=None):
    """The integrator's ladder from h0 with K inner steps per level: the
    factors M if given, else geometric factors reaching h_target."""
    tableau, fixed = INTEGRATORS[integrator]
    if len({n for n in (fixed, levels, None if M is None else len(M)) if n is not None}) > 1:
        raise ConfigurationError(
            f"integrator {integrator}, levels {levels} and M {M} disagree on the level count")
    if M is None:
        if fixed == 1 and K < 2:
            raise ConfigurationError(f"projective planning requires K >= 2, got {K}")
        L = levels if fixed is None else fixed
        if L is None:
            # at least one level, so that adapt_M names an infeasible target
            L = max(1, plan_levels(h0, h_target, _LEVEL_FACTOR))
        M = adapt_M(h0, h_target, K, L) if fixed != 0 else ()
    return IntegratorPlan(h0, (K,) * len(M), M, tableau)


def plan_levels(h0, h_target, factor):
    """Levels so factor^L spans h_target/h0: rounded half up and at least 1,
    or 0 when h_target <= h0."""
    if not (0 < h0 < math.inf and 0 < h_target < math.inf):
        raise ConfigurationError("step sizes must be positive and finite")
    if not factor > 1:
        raise ConfigurationError(f"representative factor must exceed 1, got {factor}")
    if h_target <= h0:
        return 0
    raw = math.log(h_target / h0) / math.log(factor)
    return max(1, math.floor(raw + 0.5))


def adapt_M(h0, h_target, K, levels):
    """One extrapolation factor phi - (K+1) for every level, phi = (h_target/h0)^(1/L),
    so the product of the L level ratios spans h_target/h0 to roundoff."""
    if levels != int(levels) or levels < 1:
        raise ConfigurationError(f"levels must be a positive integer, got {levels}")
    levels = int(levels)
    if K != int(K) or K < 0:
        raise ConfigurationError(f"K must be a nonnegative integer, got {K}")
    K = int(K)
    if not (h0 > 0 and h_target > 0):
        raise ConfigurationError("step sizes must be positive")
    ratio = h_target / h0
    if ratio < 1.0:
        raise InfeasiblePlanError(f"target step {h_target} is below the inner step {h0}")
    phi = ratio ** (1.0 / levels)
    if phi < (K + 1) * (1.0 - 1e-12):
        raise InfeasiblePlanError(
            f"uniform factor {phi} is below K+1 = {K + 1}; no nonnegative extrapolation exists"
        )
    return (max(0.0, phi - (K + 1)),) * levels


def speedup(plan):
    """Work ratio vs plain inner stepping: prod (M_l + K_l + 1) / (K_l + 1)."""
    s = 1.0
    for l in range(plan.levels):
        s *= (plan.M[l] + plan.K[l] + 1.0) / (plan.K[l] + 1.0)
    return s
