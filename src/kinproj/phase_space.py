"""Phase-space grids, Maxwellians, and velocity moments.

Velocity space is a uniform cell-centered tensor grid on [-V, V]^dv with
midpoint quadrature (weight = product of spacings); position space is a
uniform cell-centered grid with periodic or outflow boundary tags.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, StepRejectionError

# Density floor below which a cell is treated as vacuum: moments fall back to
# (u, T) = (0, 1) and the cell is flagged so collision terms can skip it.
RHO_FLOOR = 1e-14


def _as_counts(counts, dims):
    if np.isscalar(counts):
        counts = (counts,) * dims
    counts = tuple(int(c) for c in counts)
    if len(counts) != dims or any(c < 1 for c in counts):
        raise ConfigurationError(f"need {dims} positive counts, got {counts!r}")
    return counts


class VelocityGrid:
    """Cell-centered velocity nodes on [-V, V]^dv, midpoint quadrature."""

    def __init__(self, dv, half_width, counts):
        if dv not in (1, 2):
            raise ConfigurationError(f"velocity dimension must be 1 or 2, got {dv}")
        if not (np.isfinite(half_width) and half_width > 0):
            raise ConfigurationError(f"half_width must be positive, got {half_width}")
        self.dv = int(dv)
        self.half_width = float(half_width)
        self.counts = _as_counts(counts, self.dv)
        self.spacings = tuple(2.0 * self.half_width / j for j in self.counts)
        self.axes = [
            -self.half_width + (np.arange(j) + 0.5) * d
            for j, d in zip(self.counts, self.spacings)
        ]
        self.weight = math.prod(self.spacings)
        mesh = np.meshgrid(*self.axes, indexing="ij")
        # flat (n_nodes, dv) coordinates and |v|^2, used by the moment kernels
        self.nodes = np.stack([m.ravel() for m in mesh], axis=-1)
        self.speed2 = np.sum(self.nodes**2, axis=-1)

    @property
    def n_nodes(self):
        return math.prod(self.counts)

    def node_component(self, d):
        """Velocity component d shaped to broadcast over the dv node axes."""
        shape = [1] * self.dv
        shape[d] = self.counts[d]
        return self.axes[d].reshape(shape)


BOUNDARIES = ("periodic", "outflow")


class SpatialGrid:
    """Cell-centered position nodes with per-axis boundary tags."""

    def __init__(self, lower, upper, counts, boundaries):
        lower = tuple(float(x) for x in np.atleast_1d(lower))
        upper = tuple(float(x) for x in np.atleast_1d(upper))
        self.dx_dims = len(lower)
        if self.dx_dims not in (1, 2) or len(upper) != self.dx_dims:
            raise ConfigurationError("position grid must be 1D or 2D with matching bounds")
        if any(u <= l for l, u in zip(lower, upper)):
            raise ConfigurationError("upper bounds must exceed lower bounds")
        self.lower, self.upper = lower, upper
        self.counts = _as_counts(counts, self.dx_dims)
        if isinstance(boundaries, str):
            boundaries = (boundaries,) * self.dx_dims
        self.boundaries = tuple(boundaries)
        if len(self.boundaries) != self.dx_dims or any(
            b not in BOUNDARIES for b in self.boundaries
        ):
            raise ConfigurationError(f"boundaries must be per-axis from {BOUNDARIES}")
        self.spacings = tuple(
            (u - l) / c for l, u, c in zip(lower, upper, self.counts)
        )
        self.centers = [
            l + (np.arange(c) + 0.5) * d
            for l, c, d in zip(lower, self.counts, self.spacings)
        ]


@dataclass
class DistributionField:
    """Distribution values on the tensor grid, shape (*space counts, *velocity counts)."""

    values: np.ndarray
    sgrid: SpatialGrid
    vgrid: VelocityGrid

    def __post_init__(self):
        expect = self.sgrid.counts + self.vgrid.counts
        if self.values.shape != expect:
            raise ConfigurationError(
                f"field shape {self.values.shape} != grid shape {expect}"
            )


@dataclass
class MomentSet:
    """Density, bulk velocity, temperature per cell, plus a vacuum-cell flag."""

    rho: np.ndarray
    u: np.ndarray  # shape (*cells, dv)
    T: np.ndarray
    degenerate: np.ndarray  # bool mask of floored cells


def maxwellian(vgrid, rho, u, T):
    """Maxwellian slice(s) rho/(2 pi T)^(dv/2) * exp(-|v-u|^2 / (2T)).

    rho and T may be scalars or arrays over leading cell axes; u adds a
    trailing component axis of length dv. Output shape is cells + counts.
    """
    rho = np.asarray(rho, dtype=float)
    T = np.asarray(T, dtype=float)
    u = np.asarray(u, dtype=float)
    if u.shape[-1:] != (vgrid.dv,):
        u = u.reshape(rho.shape + (vgrid.dv,))
    if not (np.all(np.isfinite(rho)) and np.all(np.isfinite(u)) and np.all(np.isfinite(T))):
        raise ValueError("non-finite Maxwellian parameters")
    if np.any(rho < 0):
        raise ValueError("negative density")
    if np.any(T <= 0):
        raise ValueError("non-positive temperature")
    cells = rho.shape
    pad = (1,) * vgrid.dv
    # |v - u|^2 from per-axis squares (small broadcast arrays), then the
    # full-size exponent and exponential in place
    q = None
    for d in range(vgrid.dv):
        vd = vgrid.node_component(d).reshape((1,) * len(cells) + vgrid.node_component(d).shape)
        ud = u[..., d].reshape(cells + pad)
        sq = (vd - ud) ** 2
        q = sq if q is None else q + sq
    Tb = T.reshape(cells + pad)
    rb = rho.reshape(cells + pad)
    q /= -2.0 * Tb
    np.exp(q, out=q)
    q *= rb / (2.0 * np.pi * Tb) ** (vgrid.dv / 2.0)
    return q


def local_maxwellian(vgrid, mom):
    """Maxwellian rebuilt from discrete moments; vacuum cells get a zero slice.

    A non-vacuum cell whose temperature is not positive (or not finite) is a
    non-physical state: StepRejectionError names the first such cell by its
    spatial index tuple.
    """
    bad = ~mom.degenerate & ~(mom.T > 0)
    if np.any(bad):
        idx = tuple(int(i) for i in np.unravel_index(np.argmax(bad), bad.shape))
        raise StepRejectionError(
            f"non-positive temperature in cell {idx}", index=idx
        )
    rho = np.where(mom.degenerate, 0.0, mom.rho)
    return maxwellian(vgrid, rho, mom.u, mom.T)


def moments(vgrid, values):
    """Midpoint-quadrature (rho, u, T) of distribution values.

    Leading axes of ``values`` are cells; the trailing dv axes must match
    vgrid.counts. Cells with rho <= RHO_FLOOR get (u, T) = (0, 1) and are
    flagged degenerate.
    """
    cells = values.shape[: values.ndim - vgrid.dv]
    flat = values.reshape(cells + (vgrid.n_nodes,))
    w = vgrid.weight
    rho = w * flat.sum(axis=-1)
    m1 = w * (flat @ vgrid.nodes)  # (*cells, dv)
    m2 = w * (flat @ vgrid.speed2)
    degenerate = rho <= RHO_FLOOR
    safe_rho = np.where(degenerate, 1.0, rho)
    u = m1 / safe_rho[..., None]
    T = (m2 / safe_rho - np.sum(u**2, axis=-1)) / vgrid.dv
    if np.any(degenerate):
        u = np.where(degenerate[..., None], 0.0, u)
        T = np.where(degenerate, 1.0, T)
    return MomentSet(rho=rho, u=u, T=T, degenerate=degenerate)


def heat_flux(vgrid, values, mom=None):
    """Heat flux q_d = 1/2 * sum_j w |v_j-u|^2 (v_j-u)_d f_j per cell."""
    if mom is None:
        mom = moments(vgrid, values)
    cells = values.shape[: values.ndim - vgrid.dv]
    pad = (1,) * vgrid.dv
    c2 = np.zeros(cells + vgrid.counts)
    comps = []
    for d in range(vgrid.dv):
        vd = vgrid.node_component(d).reshape((1,) * len(cells) + vgrid.node_component(d).shape)
        cd = vd - mom.u[..., d].reshape(cells + pad)
        comps.append(cd)
        c2 += cd * cd
    q = np.empty(cells + (vgrid.dv,))
    for d in range(vgrid.dv):
        q[..., d] = 0.5 * vgrid.weight * np.sum(c2 * comps[d] * values, axis=tuple(range(len(cells), len(cells) + vgrid.dv)))
    return q


def derived(mom):
    """Pressure, energy density, and Mach number (P, E, Ma) from core moments."""
    P = mom.rho * mom.T
    speed2 = np.sum(mom.u**2, axis=-1)
    E = 0.5 * mom.rho * speed2 + P
    Ma = np.sqrt(speed2) / np.sqrt(mom.T)
    return P, E, Ma
