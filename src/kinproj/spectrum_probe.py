"""Spectral diagnostics for linearized collision and transport operators.

Assembles matrix-free linearizations on small phase-space grids, takes dense
spectra, and reports the fast/slow eigenvalue clusters whose gap the time
integration planner relies on.
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


class LinearizedOperator:
    """Matrix-free linear map on flat real vectors of fixed dimension."""

    def __init__(self, action, dimension):
        dimension = int(dimension)
        if dimension < 1:
            raise ConfigurationError(f"operator dimension must be positive, got {dimension}")
        self.action = action
        self.dimension = dimension

    def __call__(self, vec):
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (self.dimension,):
            raise ConfigurationError(
                f"operator expects shape ({self.dimension},), got {vec.shape}"
            )
        return np.asarray(self.action(vec), dtype=float)


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


def build_linearized_bgk(vgrid, nu, epsilon):
    """Linearized BGK relaxation -(nu/eps)(I - Pi) on one velocity grid.

    Pi is the orthogonal projection onto the collision invariants under the
    standard-normal-weighted inner product, discretized by the grid quadrature.
    """
    if not (np.isscalar(nu) and np.isfinite(nu) and nu > 0):
        raise ConfigurationError(f"nu must be a positive scalar, got {nu!r}")
    if not (np.isfinite(epsilon) and epsilon > 0):
        raise ConfigurationError(f"epsilon must be positive, got {epsilon!r}")
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
    rate = nu / epsilon
    wpsi = psi * weight

    def action(g):
        return -rate * (g - psi.T @ (wpsi @ g))

    return LinearizedOperator(action, n)


def jacobian_probe(rhs, state, eta=None):
    """Central-difference Jacobian action of rhs around the given state."""
    state = np.asarray(state, dtype=float)
    if not np.all(np.isfinite(state)):
        raise ConfigurationError("probe state must be finite")
    if eta is None:
        eta = 1e-7 * np.linalg.norm(state.ravel())
        if eta == 0.0:
            eta = 1e-7
    if not (np.isfinite(eta) and eta > 0):
        raise ConfigurationError(f"probe increment must be positive, got {eta!r}")

    def action(u):
        bump = eta * u.reshape(state.shape)
        diff = (rhs(state + bump) - rhs(state - bump)) / (2.0 * eta)
        if not np.all(np.isfinite(diff)):
            raise DiagnosticError("non-finite probe response")
        return diff.ravel()

    return LinearizedOperator(action, state.size)


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


def _assemble(op):
    mat = np.empty((op.dimension, op.dimension))
    basis = np.zeros(op.dimension)
    for i in range(op.dimension):
        basis[i] = 1.0
        mat[:, i] = op(basis)
        basis[i] = 0.0
    return mat


def spectrum(op):
    """Dense spectrum of a small operator, split at the largest relative gap."""
    if op.dimension > MAX_DENSE_DIMENSION:
        raise ConfigurationError(
            f"dimension {op.dimension} above the dense-probe limit {MAX_DENSE_DIMENSION}"
        )
    eig = np.linalg.eigvals(_assemble(op))
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
