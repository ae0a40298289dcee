"""Projective and telescopic projective explicit time integrators.

A projective step damps the stiff transient with K+1 inner forward-Euler
steps of size h0, then extrapolates the chord of the last inner pair across
the remaining outer interval. The telescopic variant nests that construction:
a level-l step is K+1 level-(l-1) steps plus a chord extrapolation, with
forward Euler at level 0. The outermost level may carry an explicit
Runge-Kutta tableau whose stage slopes are chords of damped inner sweeps.
"""

import numpy as np

from .collision_bgk import BgkConfig, bgk_rhs
from .collision_boltzmann import boltzmann_rhs
from .errors import ConfigurationError, StepRejectionError
from .phase_space import DistributionField
from .transport_weno import IDEAL_WEIGHTS, transport_rhs


class RKTableau:
    """Explicit Runge-Kutta tableau (a strictly lower triangular)."""

    def __init__(self, a, b, c):
        self.a = np.asarray(a, dtype=float)
        self.b = np.asarray(b, dtype=float)
        self.c = np.asarray(c, dtype=float)
        s = self.b.size
        if self.a.shape != (s, s) or self.c.shape != (s,):
            raise ConfigurationError("tableau arrays have inconsistent shapes")
        if np.any(np.triu(self.a) != 0.0):
            raise ConfigurationError("tableau must be explicit (strictly lower triangular)")
        if abs(self.b.sum() - 1.0) > 1e-12:
            raise ConfigurationError("tableau weights b must sum to 1")
        if np.abs(self.a.sum(axis=1) - self.c).max() > 1e-12:
            raise ConfigurationError("tableau row sums must equal the nodes c")
        if self.c[0] != 0.0:
            raise ConfigurationError("the first stage must sit at c = 0")
        if np.any(self.c[1:] == 0.0):
            # projective stage seeding divides by c_s
            raise ConfigurationError("stages with c = 0 beyond the first are not supported")
        if np.any(self.c < 0.0) or np.any(self.c > 1.0) or np.any(self.b < 0.0):
            raise ConfigurationError("tableau nodes and weights must lie in [0, 1]")
        self.stages = s


FORWARD_EULER = RKTableau([[0.0]], [1.0], [0.0])
CLASSIC_RK4 = RKTableau(
    [
        [0.0, 0.0, 0.0, 0.0],
        [0.5, 0.0, 0.0, 0.0],
        [0.0, 0.5, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0],
    ],
    [1.0 / 6.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0],
    [0.0, 0.5, 0.5, 1.0],
)


def _ensure_finite(values):
    arr = np.asarray(values)
    if np.isfinite(arr.sum()):
        return
    bad = np.argwhere(~np.isfinite(arr))
    if bad.size:
        idx = tuple(int(i) for i in bad[0])
        raise StepRejectionError(f"non-finite right-hand side at state index {idx}", index=idx)
    raise StepRejectionError("non-finite reduction over right-hand side")


def _rk(slope, state, h, lead, tableau):
    """One explicit Runge-Kutta step of size h: the one stage loop.

    slope(y) returns (end, k), the state its evaluation reached and the slope
    there; base is the first stage's end. Stage s starts at
    base + (c_s*h - lead) * sum_l (a_{s,l}/c_s) k_l and the step ends at
    base + (h - lead) * sum_s b_s k_s, adding one term at a time. A plain step
    has lead = 0, end = y and k = rhs(y); a projective stage takes k as the
    chord of a damped sweep of length lead.
    """
    base, k = slope(state)
    slopes = [k]
    for s in range(1, tableau.stages):
        c = tableau.c[s]
        terms = [(w / c) * kl for w, kl in zip(tableau.a[s], slopes) if w != 0.0]
        # y stays bound during the sweep: passed as a temporary, it doubles the
        # minor page faults of the bubble2d_bgk benchmark (the heap shrinks and regrows)
        y = base + (c * h - lead) * sum(terms[1:], terms[0])
        slopes.append(slope(y)[1])
    out = base
    for w, k in zip(tableau.b, slopes):
        if w != 0.0:
            out = out + ((h - lead) * w) * k
    return out


def rk_step(rhs, state, h, tableau):
    """One explicit Runge-Kutta step of size h with the given tableau."""
    if not h > 0:
        raise ConfigurationError(f"step size must be positive, got {h}")

    def slope(y):
        k = rhs(y)
        _ensure_finite(k)
        return y, k

    return _rk(slope, state, h, 0.0, tableau)


class IntegratorPlan:
    """Nested step-size layout h[l+1] = (M[l] + K[l] + 1) * h[l].

    h has one entry per level plus the innermost step; K[l] counts the inner
    steps (minus the seed step) and M[l] the chord extrapolation factor used
    to jump the rest of a level-(l+1) step. M is real-valued. levels = 0
    degenerates to plain tableau stepping with h[0].
    """

    def __init__(self, h, K, M, outer_tableau=FORWARD_EULER):
        self.h = tuple(float(x) for x in h)
        if not self.h:
            raise ConfigurationError("plan needs at least one step size")
        self.levels = len(self.h) - 1
        if any(k != int(k) for k in K):
            raise ConfigurationError(f"inner-step counts must be integers, got {K}")
        self.K = tuple(int(k) for k in K)
        self.M = tuple(float(m) for m in M)
        if len(self.K) != self.levels or len(self.M) != self.levels:
            raise ConfigurationError("K and M must have one entry per level")
        if any(not 0 < x < np.inf for x in self.h):
            raise ConfigurationError(f"step sizes must be positive and finite, got {self.h}")
        if any(k < 0 for k in self.K):
            raise ConfigurationError(f"inner-step counts must be >= 0, got {self.K}")
        if any(m < 0 for m in self.M):
            raise ConfigurationError(f"extrapolation factors must be >= 0, got {self.M}")
        for l in range(self.levels):
            target = (self.M[l] + self.K[l] + 1.0) * self.h[l]
            if abs(target - self.h[l + 1]) > 1e-12 * abs(self.h[l + 1]):
                raise ConfigurationError(
                    f"layout identity violated at level {l}: "
                    f"(M+K+1)*h[{l}] = {target!r} but h[{l + 1}] = {self.h[l + 1]!r}"
                )
        self.outer_tableau = outer_tableau


def _damped_sweep(rhs, state, plan, level, counts):
    """K[level]+1 steps at `level`; returns (last state, last chord slope)."""
    prev = state
    cur = state
    for _ in range(plan.K[level] + 1):
        prev = cur
        cur = _level_step(rhs, cur, plan, level, counts)
    return cur, (cur - prev) / plan.h[level]


def _level_step(rhs, state, plan, level, counts):
    """One step of size plan.h[level]; inner levels extrapolate the chord."""
    counts[level] += 1
    if level == 0:
        return rk_step(rhs, state, plan.h[0], FORWARD_EULER)
    cur, chord = _damped_sweep(rhs, state, plan, level - 1, counts)
    return cur + (plan.M[level - 1] * plan.h[level - 1]) * chord


def telescopic_step(rhs, state, plan, counts=None):
    """One outermost step of size plan.h[-1], applying the plan's tableau.

    Each stage runs a damped sweep of K+1 steps one level down and takes its
    chord as the stage slope; `_rk` combines them with lead = (K+1)*h_in, so
    the extrapolation covers the rest of the outer step (projective
    Runge-Kutta, Lafitte, Lejon and Samaey 2016).

    counts, if given, is a list indexed by level (innermost first) that gains
    one for every step started at that level, so a rejected step is counted.
    """
    L = plan.levels
    tb = plan.outer_tableau
    if counts is None:
        counts = [0] * (L + 1)
    counts[L] += 1
    if L == 0:
        return rk_step(rhs, state, plan.h[0], tb)
    lead = (plan.K[L - 1] + 1) * plan.h[L - 1]
    return _rk(lambda y: _damped_sweep(rhs, y, plan, L - 1, counts),
               state, plan.h[L], lead, tb)


def rhs_total(field, weno_k, collision, work):
    """Semidiscrete right-hand side: -v . grad_x f plus the collision term.

    weno_k is the WENO order index, or None for no transport. collision is a
    BgkConfig or a (SpectralPlan, epsilon) pair. work is the dict of
    transport work buffers (see transport_weno).
    """
    if weno_k is None:
        out = np.zeros_like(field.values)
    else:
        out = transport_rhs(field, weno_k, work)
    if isinstance(collision, BgkConfig):
        out += bgk_rhs(field, collision)
    else:
        plan, epsilon = collision
        out += boltzmann_rhs(field, plan, epsilon)
    return out


def make_rhs(sgrid, vgrid, weno_k, collision):
    """Bind grids and operators into an array -> array RHS (see rhs_total).

    The closure owns the transport work buffers and reuses them on every
    call, so use one closure per thread; each call returns a new array.
    """
    if weno_k is not None and weno_k not in IDEAL_WEIGHTS:
        raise ConfigurationError(f"unsupported reconstruction order k={weno_k}")
    work = {}

    def rhs(values):
        return rhs_total(DistributionField(values, sgrid, vgrid), weno_k, collision, work)

    return rhs
