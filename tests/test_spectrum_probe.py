import numpy as np
import pytest

from kinproj.errors import ConfigurationError, DiagnosticError
from kinproj.integrators import make_rhs
from kinproj.phase_space import DistributionField, SpatialGrid, VelocityGrid, maxwellian, moments
from kinproj.scenarios_cli import resolve_run
from kinproj.spectrum_probe import (
    MAX_DENSE_DIMENSION,
    jacobian_probe,
    probe_run,
    spectrum,
    write_spectrum_csv,
)
from kinproj.transport_weno import bind, transport_rhs

# The analytic linearization of the nu = 1 BGK term at the standard
# Maxwellian: the reference the probe is checked against, here and in the
# acceptance tests.

# Orthonormality tolerance for the collision-invariant basis under the grid
# quadrature; beyond this the projector is too distorted to diagnose with.
GRAM_TOLERANCE = 0.01


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


def check_linearity(op, dimension, rtol=1e-8, seed=0, trials=3):
    """Superposition test on random vectors; raises DiagnosticError on failure."""
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        u = rng.standard_normal(dimension)
        w = rng.standard_normal(dimension)
        a, b = rng.uniform(-2.0, 2.0, size=2)
        lhs = op(a * u + b * w)
        au, bw = a * op(u), b * op(w)
        scale = max(np.linalg.norm(au) + np.linalg.norm(bw), 1e-300)
        err = np.linalg.norm(lhs - (au + bw)) / scale
        if not err <= rtol:
            raise DiagnosticError(
                f"superposition violated by {err:.3g} (> {rtol:.1g})"
            )


def test_basis_orthonormality():
    # measured Gram deviations: 1.5e-12 at J=32^2, 3.8e-6 at J=16^2
    assert gram_deviation(VelocityGrid(2, 8.0, (32, 32))) <= 1e-3
    assert gram_deviation(VelocityGrid(2, 8.0, (16, 16))) <= 1e-4
    assert gram_deviation(VelocityGrid(1, 8.0, (16,))) <= 1e-4


def test_coarse_grid_rejected():
    # J=8 in 1D already has Gram deviation 0.43
    with pytest.raises(DiagnosticError):
        build_linearized_bgk(VelocityGrid(1, 8.0, (8,)), 1e-3)
    with pytest.raises(DiagnosticError):
        build_linearized_bgk(VelocityGrid(2, 8.0, (4, 4)), 1e-3)


def test_build_validation():
    vg = VelocityGrid(1, 8.0, (16,))
    with pytest.raises(ConfigurationError):
        build_linearized_bgk(vg, 0.0)
    with pytest.raises(ConfigurationError):
        build_linearized_bgk(VelocityGrid(1, 8.0, (5000,)), 1e-3)


def test_invariants_in_kernel():
    vg = VelocityGrid(2, 8.0, (16, 16))
    op = build_linearized_bgk(vg, 1e-3)
    ones = np.ones(vg.n_nodes)
    # residual tied to the Gram deviation (3.8e-6); measured 5.1e-6 * (1/eps)
    assert np.linalg.norm(op @ ones) <= 1e-4 * 1e3 * np.linalg.norm(ones)


def test_orthogonal_cubic_is_eigenvector():
    vg = VelocityGrid(2, 8.0, (16, 16))
    op = build_linearized_bgk(vg, 1e-3)
    psi, w = collision_invariant_basis(vg)
    p = vg.nodes[:, 0] ** 3
    for k in range(psi.shape[0]):
        p = p - psi[k] * np.sum(psi[k] * w * p)
    # orthogonal complement relaxes at exactly -1/eps; measured 1.6e-8
    resid = np.linalg.norm(op @ p + 1e3 * p) / (1e3 * np.linalg.norm(p))
    assert resid <= 1e-6


def test_projector_idempotence():
    vg = VelocityGrid(2, 8.0, (32, 32))
    op = build_linearized_bgk(vg, 1e-3)
    g = np.random.default_rng(5).standard_normal(vg.n_nodes)
    once = op @ g
    twice = op @ once / (-1e3)
    assert np.linalg.norm(twice - once) <= 1e-8 * np.linalg.norm(once)


def test_collision_spectrum_two_point():
    vg = VelocityGrid(2, 8.0, (16, 16))
    rep = spectrum(build_linearized_bgk(vg, 1e-3))
    lam = rep.eigenvalues
    dist = np.minimum(np.abs(lam), np.abs(lam + 1e3))
    assert dist.max() <= 1e-3 * 1e3  # measured 3.8e-3
    assert int(np.sum(np.abs(lam) <= 1e-3 * 1e3)) == 4  # kernel multiplicity
    assert rep.split == 4
    assert rep.gap_ratio >= 100.0  # measured 2.7e5
    assert np.abs(lam.imag).max() <= 1e-9 * 1e3
    assert rep.slow.size + rep.fast.size == lam.size


def test_operator_linearity():
    vg = VelocityGrid(1, 8.0, (16,))
    op = build_linearized_bgk(vg, 1e-3)
    check_linearity(lambda v: op @ v, vg.n_nodes)
    with pytest.raises(DiagnosticError):
        check_linearity(lambda v: v**2, 4)


def test_probe_exact_on_linear_rhs():
    rng = np.random.default_rng(11)
    A = rng.standard_normal((8, 8))
    f0 = np.random.default_rng(1).standard_normal(8)
    probe = jacobian_probe(lambda x: A @ x, f0, eta=1e-3)
    for u in rng.standard_normal((10, 8)):
        assert np.linalg.norm(probe @ u - A @ u) <= 1e-9 * np.linalg.norm(A @ u)
    check_linearity(lambda v: probe @ v, 8)


def test_probe_validation():
    with pytest.raises(ConfigurationError):
        jacobian_probe(lambda x: x, np.array([1.0, np.nan]))
    with pytest.raises(ConfigurationError):
        jacobian_probe(lambda x: x, np.ones(3), eta=-1.0)
    with pytest.raises(DiagnosticError):
        jacobian_probe(lambda x: np.full_like(x, np.nan), np.ones(3))


def test_probe_matches_built_linearization():
    # Jacobian of the nonlinear BGK term at a Maxwellian equals the built
    # operator conjugated by the Maxwellian weight; measured 3.6e-7 relative.
    vg = VelocityGrid(2, 8.0, (16, 16))
    sg = SpatialGrid(0.0, 1.0, (1,), "periodic")
    f0 = maxwellian(vg, np.ones(1), np.zeros((1, 2)), np.ones(1))
    rhs = make_rhs(sg, vg, None, ("bgk", 1e-3))
    probe = jacobian_probe(rhs, f0)
    op = build_linearized_bgk(vg, 1e-3)
    D = f0.ravel()
    rng = np.random.default_rng(3)
    for _ in range(5):
        u = rng.standard_normal(vg.n_nodes)
        want = D * (op @ (u / D))
        assert np.linalg.norm(probe @ u - want) <= 1e-4 * np.linalg.norm(want)


def test_transport_probe_near_imaginary_axis():
    vg = VelocityGrid(1, 8.0, (8,))
    sg = SpatialGrid(0.0, 1.0, (16,), "periodic")
    f = np.broadcast_to(maxwellian(vg, 1.0, np.zeros(1), 1.0), (16, 8)).copy()
    transport = bind(sg, vg, 2)
    rhs = lambda v: transport_rhs(DistributionField(v, sg, vg), transport, np.zeros(v.shape))
    lam = spectrum(jacobian_probe(rhs, f)).eigenvalues
    assert lam.real.max() <= 1e-8  # measured 1.8e-14
    assert lam.real.min() <= -1.0  # upwind dissipation
    assert np.abs(lam.imag).max() >= 1.0 / (1.0 / 16)  # advective content


def test_two_cluster_gap_with_transport():
    vg = VelocityGrid(1, 8.0, (16,))
    sg = SpatialGrid(0.0, 1.0, (8,), "periodic")
    f = np.broadcast_to(maxwellian(vg, 1.0, np.zeros(1), 1.0), (8, 16)).copy()

    def ratio(eps):
        rhs = make_rhs(sg, vg, 2, ("bgk", eps))
        return spectrum(jacobian_probe(rhs, f)).gap_ratio

    assert ratio(1e-3) >= 10.0  # measured 42.2, split at 3 fields x 8 cells
    assert ratio(1e-4) >= 100.0  # measured 420


def test_proportional_frequency_spreads_fast_cluster():
    vg = VelocityGrid(1, 8.0, (16,))
    sg = SpatialGrid(0.0, 1.0, (2,), "periodic")
    f = maxwellian(vg, np.array([0.125, 1.0]), np.zeros((2, 1)), np.ones(2))
    rhs = make_rhs(sg, vg, None, ("bgk-rho", 1e-3))
    rep = spectrum(jacobian_probe(rhs, f))
    assert rep.split == 6  # three invariants per cell stay slow
    fast = np.abs(rep.fast)
    assert fast.min() == pytest.approx(0.125 / 1e-3, rel=1e-6)
    assert fast.max() == pytest.approx(1.0 / 1e-3, rel=1e-6)


def test_probe_run_cells_and_reports():
    # the densest cell (1,) is also the hottest: it is probed once
    run = resolve_run("sod_1d1d", collision="bgk-rho", nx=(6,), nv=(12,))
    rho = np.array([1.0, 3.0, 0.5, 2.0, 1.0, 1.0])
    T = np.array([1.0, 2.0, 1.0, 0.5, 1.0, 1.0])
    f = maxwellian(run.vgrid, rho, np.zeros((6, 1)), T)
    probed = probe_run(run, f)
    assert [cell for cell, _, _ in probed] == [(1,), (2,), (3,)]
    mom = moments(run.vgrid, f)
    rhs = make_rhs(SpatialGrid(0.0, 1.0, 1, "periodic"), run.vgrid, None, run.collision)
    for cell, cell_mom, report in probed:
        assert cell_mom.rho == mom.rho[cell] and cell_mom.T == mom.T[cell]
        ref = spectrum(jacobian_probe(rhs, f[cell][None]))
        assert np.array_equal(report.eigenvalues, ref.eigenvalues)
        assert (report.split, report.gap_ratio) == (ref.split, ref.gap_ratio)


def test_spectrum_zero_operator():
    rep = spectrum(np.zeros((6, 6)))
    assert rep.split == 6
    assert rep.fast.size == 0
    assert rep.gap_ratio == 1.0


def test_spectrum_dimension_cap():
    # the cap is checked before the probe's first RHS call
    def rhs(v):
        raise AssertionError("called")

    with pytest.raises(ConfigurationError):
        jacobian_probe(rhs, np.ones(5000))


def test_spectrum_csv_roundtrip(tmp_path):
    diag = np.array([-1.0, -2.5, 3.0])
    rep = spectrum(np.diag(diag))
    path = tmp_path / "spec.csv"
    write_spectrum_csv(path, rep)
    text = path.read_text(encoding="utf-8")
    assert text.splitlines()[0] == "re,im"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(data[:, 0] + 1j * data[:, 1], rep.eigenvalues)
