"""Spectral diagnostics for linearized collision and transport operators.

Builds dense linearizations on small phase-space grids, takes their
spectra, and reports the fast/slow eigenvalue clusters and the gap between
them. The planner does not read these yet; planning from the spectrum is
ROADMAP.md item 3.
"""

import numpy as np

from .errors import ConfigurationError, DiagnosticError

# Dense-eigensolve ceiling; the probe is a diagnostic, not a production path.
MAX_DENSE_DIMENSION = 4096

# Orthonormality tolerance for the collision-invariant basis under the grid
# quadrature; beyond this the projector is too distorted to diagnose with.
GRAM_TOLERANCE = 0.01

# Magnitudes below this fraction of the spectral radius count as one class
# when locating the cluster gap: conserved modes sit at exact zero next to
# small diffusive modes, and that boundary would otherwise always win.
SPLIT_FLOOR = 1e-4


def collision_invariant_basis(vgrid):
    """Orthonormalized collision invariants and their weighted quadrature.

    Returns (psi, weight): psi has one row per basis function {1, v_d,
    (|v|^2 - dv)/sqrt(2 dv)} sampled on the flat nodes, and weight is the
    Gaussian-weighted midpoint quadrature so that <a, b> = sum(a * weight * b).
    """
    dv = vgrid.dv
    psi = np.empty((dv + 2, vgrid.n_nodes))
    psi[0] = 1.0
    for d in range(dv):
        psi[1 + d] = vgrid.nodes[:, d]
    psi[dv + 1] = (vgrid.speed2 - dv) / np.sqrt(2.0 * dv)
    weight = (
        (2.0 * np.pi) ** (-0.5 * dv) * np.exp(-0.5 * vgrid.speed2) * vgrid.weight
    )
    return psi, weight


def gram_deviation(vgrid):
    """Max absolute entry of (Gram matrix - identity) for the invariant basis."""
    psi, weight = collision_invariant_basis(vgrid)
    gram = (psi * weight) @ psi.T
    return float(np.max(np.abs(gram - np.eye(psi.shape[0]))))


def build_linearized_bgk(vgrid, epsilon):
    """Linearized BGK relaxation -(1/eps)(I - Pi) on one velocity grid.

    Pi is the orthogonal projection onto the collision invariants under the
    standard-normal-weighted inner product, discretized by the grid quadrature.
    """
    if not 0 < epsilon < np.inf:
        raise ConfigurationError(f"epsilon must be positive and finite, got {epsilon!r}")
    n = vgrid.n_nodes
    if n > MAX_DENSE_DIMENSION:
        raise ConfigurationError(
            f"grid has {n} nodes, above the dense-probe limit {MAX_DENSE_DIMENSION}"
        )
    dev = gram_deviation(vgrid)
    if dev > GRAM_TOLERANCE:
        raise DiagnosticError(
            f"collision invariants lose orthonormality on this grid "
            f"(Gram deviation {dev:.3g} > {GRAM_TOLERANCE})"
        )
    psi, weight = collision_invariant_basis(vgrid)
    return -(1.0 / epsilon) * (np.eye(n) - psi.T @ (psi * weight))


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


def write_spectrum_csv(path, report):
    """Dump (Re, Im) eigenvalue pairs as CSV for external plotting."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("re,im\n")
        for lam in report.eigenvalues:
            fh.write(f"{lam.real:.17g},{lam.imag:.17g}\n")
