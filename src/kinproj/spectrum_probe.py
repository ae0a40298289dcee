"""Spectral diagnostics for linearized collision and transport operators.

Builds the dense central-difference Jacobian of a right-hand side at one
state, takes its spectrum, and reports the fast/slow eigenvalue clusters and
the gap between them. `probe_run` applies this one probe to a resolved run:
it takes the densest, most rarefied, hottest and coldest cells of a field,
each once, and probes each cell's state under the run's own collision term
on a one-cell closure of the run's velocity grid, for every collision model.
The planner does not read these yet (ROADMAP.md item 3).
"""

import numpy as np

from .errors import ConfigurationError, DiagnosticError
from .integrators import make_rhs
from .phase_space import MomentSet, SpatialGrid, check_state, moments

# Dense-eigensolve ceiling; the probe is a diagnostic, not a production path.
MAX_DENSE_DIMENSION = 4096

# Magnitudes below this fraction of the spectral radius count as one class
# when locating the cluster gap: conserved modes sit at exact zero next to
# small diffusive modes, and that boundary would otherwise always win.
SPLIT_FLOOR = 1e-4


def jacobian_probe(rhs, state, eta=None):
    """Dense central-difference Jacobian of rhs around the given state.

    Column i is (rhs(state + eta e_i) - rhs(state - eta e_i)) / (2 eta) over
    the flattened state: 2n RHS calls for n state entries.
    """
    state = np.asarray(state, dtype=float)
    if not np.all(np.isfinite(state)):
        raise ConfigurationError("probe state must be finite")
    n = state.size
    if n > MAX_DENSE_DIMENSION:
        raise ConfigurationError(
            f"dimension {n} above the dense-probe limit {MAX_DENSE_DIMENSION}"
        )
    # the default's roundoff floor is ~1e-9 relative at any state scale; a larger eta goes below it
    if eta is None:
        eta = 1e-7 * np.linalg.norm(state.ravel())
        if eta == 0.0:
            eta = 1e-7
    if not (np.isfinite(eta) and eta > 0):
        raise ConfigurationError(f"probe increment must be positive, got {eta!r}")
    mat = np.empty((n, n))
    bump = np.zeros(state.shape)
    flat = bump.reshape(-1)
    for i in range(n):
        flat[i] = eta
        diff = (rhs(state + bump) - rhs(state - bump)) / (2.0 * eta)
        if not np.all(np.isfinite(diff)):
            raise DiagnosticError("non-finite probe response")
        mat[:, i] = diff.ravel()
        flat[i] = 0.0
    return mat


class SpectrumReport:
    """Eigenvalues sorted by magnitude with a two-cluster slow/fast split."""

    def __init__(self, eigenvalues, split, gap_ratio):
        self.eigenvalues = eigenvalues
        self.split = split
        self.gap_ratio = gap_ratio

    @property
    def slow(self):
        return self.eigenvalues[: self.split]

    @property
    def fast(self):
        return self.eigenvalues[self.split :]


def spectrum(matrix):
    """Dense spectrum of a small square matrix, split at the largest relative gap."""
    eig = np.linalg.eigvals(matrix)
    eig = eig[np.argsort(np.abs(eig), kind="stable")]
    mags = np.abs(eig)
    if eig.size == 1 or mags[-1] == 0.0:
        return SpectrumReport(eig, eig.size, 1.0)
    ratios = mags[1:] / np.maximum(mags[:-1], SPLIT_FLOOR * mags[-1])
    split = int(np.argmax(ratios)) + 1
    low = mags[split - 1]
    ratio = float(mags[split] / low) if low > 0.0 else np.inf
    return SpectrumReport(eig, split, ratio)


def probe_run(run, f):
    """(cell, its moments, SpectrumReport) for the densest, most rarefied,
    hottest and coldest cells of the field f on the run's grids, in that
    order, each cell once."""
    mom = moments(run.vgrid, f)
    check_state(mom)  # names the field's own cell; a one-cell probe would say (0,)
    cells = dict.fromkeys(tuple(int(i) for i in np.unravel_index(a(m), m.shape))
                          for m in (mom.rho, mom.T) for a in (np.argmax, np.argmin))
    rhs = make_rhs(SpatialGrid(0.0, 1.0, 1, "periodic"), run.vgrid, None, run.collision)
    return [(c, MomentSet(mom.rho[c], mom.u[c], mom.T[c]),
             spectrum(jacobian_probe(rhs, f[c][None]))) for c in cells]


def write_spectrum_csv(path, report):
    """Dump (Re, Im) eigenvalue pairs as CSV for external plotting."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("re,im\n")
        for lam in report.eigenvalues:
            fh.write(f"{lam.real:.17g},{lam.imag:.17g}\n")
