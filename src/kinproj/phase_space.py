"""Phase-space grids, Maxwellians, and velocity moments.

Velocity space is a uniform cell-centered tensor grid on [-V, V]^dv with
midpoint quadrature (weight = product of spacings); position space is a
uniform cell-centered grid with periodic or outflow boundary tags.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, StepRejectionError


def _as_counts(counts, dims):
    if np.isscalar(counts):
        counts = (counts,) * dims
    counts = tuple(counts)
    if len(counts) != dims or any(not (c >= 1 and c % 1 == 0) for c in counts):
        raise ConfigurationError(f"need {dims} positive counts, got {counts!r}")
    return tuple(int(c) for c in counts)


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
        # flat (n_nodes, dv) coordinates and |v|^2
        self.nodes = np.stack([m.ravel() for m in mesh], axis=-1)
        self.speed2 = np.sum(self.nodes**2, axis=-1)
        # weighted (n_nodes, dv + 2) columns [1, v, |v|^2]: one product with
        # the flattened slices gives every moment `moments` needs
        self.moment_matrix = self.weight * np.column_stack(
            [np.ones(self.n_nodes), self.nodes, self.speed2]
        )

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
    """Density, bulk velocity and temperature per cell."""

    rho: np.ndarray
    u: np.ndarray  # shape (*cells, dv)
    T: np.ndarray


def maxwellian(vgrid, rho, u, T):
    """Maxwellian slice(s) rho/(2 pi T)^(dv/2) * exp(-|v-u|^2 / (2T)).

    rho and T may be scalars or arrays over leading cell axes; u has the
    same cell axes and ends in a component axis of length dv. Output shape
    is cells + counts.

    The exponential is taken per axis, exp(-|v-u|^2/2T) = prod_d
    exp(-(v_d-u_d)^2/2T), on (*cells, J_d) factors; the first factor carries
    the prefactor, and the product of the factors is written into the
    output. In 1V the one factor is formed in the output itself.
    """
    rho = np.asarray(rho, dtype=float)
    T = np.asarray(T, dtype=float)
    u = np.asarray(u, dtype=float)
    # one scan per bound; a NaN fails every comparison
    if not (rho.min() >= 0 and rho.max() < np.inf and T.min() > 0 and T.max() < np.inf
            and np.isfinite(u).all()):
        raise ValueError("Maxwellian parameters must be finite, with rho >= 0 and T > 0")
    cells = rho.shape
    out = np.empty(cells + vgrid.counts)
    col = cells + (1,)
    Tc = T.reshape(col)
    factors = []
    for d in range(vgrid.dv):
        e = out if vgrid.dv == 1 else np.empty(cells + (vgrid.counts[d],))
        # v_d - u_d with one broadcast operand: numpy allocates a buffer
        # for each
        e[...] = vgrid.axes[d]
        np.subtract(e, u[..., d : d + 1], out=e)
        np.square(e, out=e)
        np.divide(e, -2.0 * Tc, out=e)
        np.exp(e, out=e)
        factors.append(e)
    factors[0] *= rho.reshape(col) / (2.0 * np.pi * Tc) ** (vgrid.dv / 2.0)
    if vgrid.dv == 2:
        # the outer product of each cell's factors: one product per value,
        # as np.multiply would form it, without a broadcast iteration
        np.einsum("...i,...j->...ij", factors[0], factors[1], out=out)
    return out


def check_state(mom):
    """Reject a non-physical state.

    A cell whose temperature or density is not positive or not finite is
    one, a cell without mass (T = 0/0) included: StepRejectionError names
    the first such cell by its spatial index tuple, temperature first.
    """
    # one combined test for the all-good case; a NaN fails every comparison
    if ((mom.rho > 0) & (mom.rho < np.inf) & (mom.T > 0) & (mom.T < np.inf)).all():
        return
    for name, q in (("temperature", mom.T), ("density", mom.rho)):
        bad = ~((q > 0) & (q < np.inf))
        if bad.any():
            idx = tuple(int(i) for i in np.unravel_index(np.argmax(bad), bad.shape))
            kind = "non-positive" if q[idx] <= 0 else "non-finite"
            raise StepRejectionError(f"{kind} {name} in cell {idx}", index=idx)


def local_maxwellian(vgrid, mom):
    """Maxwellian rebuilt from discrete moments, after check_state has
    rejected a non-physical state."""
    check_state(mom)
    return maxwellian(vgrid, mom.rho, mom.u, mom.T)


def moments(vgrid, values):
    """Midpoint-quadrature (rho, u, T) of distribution values.

    Leading axes of ``values`` are cells; the trailing dv axes must match
    vgrid.counts. A cell without mass gets non-finite (u, T), which
    check_state rejects, and no warning.
    """
    dv = vgrid.dv
    cells = values.shape[: values.ndim - dv]
    # batched over the leading cell axis: one product over every cell of a
    # 2D grid is large enough for OpenBLAS to hand to its threads, which
    # doubled the CPU time of the bubble2d_bgk benchmark
    m = values.reshape(cells + (vgrid.n_nodes,)) @ vgrid.moment_matrix
    rho = m[..., 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        r = m / rho[..., None]  # per unit mass: [1, u, mean |v|^2]
        u = r[..., 1 : dv + 1]
        T = (r[..., dv + 1] - (u * u).sum(axis=-1)) / dv
    return MomentSet(rho=rho, u=u, T=T)


def heat_flux(vgrid, values, mom):
    """Heat flux q_d = 1/2 * sum_j w |v_j-u|^2 (v_j-u)_d f_j per cell, given
    the moments of the same values."""
    cells = values.shape[: values.ndim - vgrid.dv]
    pad = (1,) * vgrid.dv
    c2 = np.zeros(cells + vgrid.counts)
    comps = []
    for d in range(vgrid.dv):
        cd = vgrid.node_component(d) - mom.u[..., d].reshape(cells + pad)
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
