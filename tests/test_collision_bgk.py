import math

import numpy as np
import pytest

from kinproj.collision_bgk import bgk_rhs
from kinproj.errors import ConfigurationError
from kinproj.phase_space import (
    DistributionField,
    SpatialGrid,
    VelocityGrid,
    local_maxwellian,
    maxwellian,
    moments,
)


def one_cell_field(vg, slice_values):
    sg = SpatialGrid((0.0,), (1.0,), 1, "periodic")
    return DistributionField(slice_values[None, ...], sg, vg)


def test_collision_frequency_modes():
    # nu = 1, or literally the local density of the quadrature moments
    vg = VelocityGrid(2, 8.0, 16)
    for rho in (0.125, 2.0):
        s = maxwellian(vg, rho, [0.5, 0.0], 1.0) + maxwellian(vg, rho, [-0.5, 0.0], 0.5)
        f = one_cell_field(vg, s)
        mom = moments(vg, f.values)
        gap = local_maxwellian(vg, mom) - f.values
        assert np.array_equal(bgk_rhs(f, "bgk", 0.5), gap * (1.0 / 0.5))
        nu = mom.rho.reshape(1, 1, 1)
        assert np.array_equal(bgk_rhs(f, "bgk-rho", 0.5), gap * (nu / 0.5))
        assert mom.rho[0] == pytest.approx(2 * rho, rel=1e-6)  # up to J=16 quadrature


def test_config_validation():
    f = one_cell_field(VelocityGrid(1, 8.0, 16), np.ones(16))
    for term, epsilon in (("quadratic", 1.0), ("constant", 1.0), ("bgk", -1.0),
                          ("bgk-rho", 0.0), ("bgk", math.inf), ("bgk-rho", math.nan)):
        with pytest.raises(ConfigurationError):
            bgk_rhs(f, term, epsilon)


def test_maxwellian_near_annihilation():
    vg = VelocityGrid(2, 8.0, 64)
    eps = 1e-3
    f = one_cell_field(vg, maxwellian(vg, 1.0, [0.0, 0.0], 1.0))
    r = bgk_rhs(f, "bgk", eps)
    assert np.max(np.abs(r)) <= 1e-6 * (1.0 / eps)


def test_scaling_closure():
    # 2*M(1,0,1) has moments (2,0,1); the relaxation target reproduces it
    vg = VelocityGrid(2, 8.0, 64)
    f = one_cell_field(vg, 2.0 * maxwellian(vg, 1.0, [0.0, 0.0], 1.0))
    r = bgk_rhs(f, "bgk", 1.0)
    assert np.max(np.abs(r)) <= 1e-6


def test_zero_field_gives_zero_rhs():
    vg = VelocityGrid(2, 8.0, 16)
    f = one_cell_field(vg, np.zeros(vg.counts))
    r = bgk_rhs(f, "bgk-rho", 1e-2)
    assert np.all(r == 0.0)


def test_vacuum_cells_skipped_and_flagged():
    vg = VelocityGrid(1, 8.0, 32)
    sg = SpatialGrid((0.0,), (1.0,), 3, "outflow")
    vals = np.zeros(sg.counts + vg.counts)
    vals[1] = maxwellian(vg, 1.0, [0.5], 0.5)
    fld = DistributionField(vals, sg, vg)
    r = bgk_rhs(fld, "bgk", 1e-2)
    assert np.all(r[0] == 0.0) and np.all(r[2] == 0.0)
    assert np.any(r[1] != 0.0)
    assert np.all(np.isfinite(r))


def test_collision_invariants_bimodal():
    # far-from-equilibrium bimodal state: moments of the RHS still vanish
    vg = VelocityGrid(2, 8.0, 64)
    s = maxwellian(vg, 0.7, [1.5, 0.0], 0.5) + maxwellian(vg, 0.6, [-1.2, 0.8], 0.7)
    f = one_cell_field(vg, s)
    r = bgk_rhs(f, "bgk", 1.0)[0]
    w = vg.weight
    for psi, name in (
        (np.ones(vg.n_nodes), "mass"),
        (vg.nodes[:, 0], "px"),
        (vg.nodes[:, 1], "py"),
        (vg.speed2, "energy"),
    ):
        num = abs(w * np.sum(r.ravel() * psi))
        den = w * np.sum(np.abs(r.ravel() * psi)) + 1e-300
        assert num / den <= 1e-6, name


def test_sign_structure():
    vg = VelocityGrid(1, 8.0, 64)
    s = maxwellian(vg, 1.0, [1.0], 0.4) + maxwellian(vg, 1.0, [-1.0], 0.4)
    f = one_cell_field(vg, s)
    mom = moments(vg, f.values)
    M = maxwellian(vg, mom.rho, mom.u, mom.T)
    r = bgk_rhs(f, "bgk", 0.5)
    diff = M - f.values
    assert np.all(np.sign(r[np.abs(diff) > 1e-13]) == np.sign(diff[np.abs(diff) > 1e-13]))


def test_epsilon_scaling_exact():
    vg = VelocityGrid(2, 8.0, 16)
    s = maxwellian(vg, 1.0, [0.9, -0.3], 0.8) + maxwellian(vg, 0.4, [-1.0, 0.0], 0.6)
    f = one_cell_field(vg, s)
    # power-of-two epsilon ratio: the 1/eps prefactor rescales bit-exactly
    r1 = bgk_rhs(f, "bgk", 0.5)
    r2 = bgk_rhs(f, "bgk", 0.5 / 16)
    np.testing.assert_array_equal(r2, 16.0 * r1)
    # decade ratio holds as an exact-arithmetic identity, i.e. to the ulp
    r3 = bgk_rhs(f, "bgk", 1e-2)
    r4 = bgk_rhs(f, "bgk", 1e-3)
    np.testing.assert_allclose(r4, 10.0 * r3, rtol=5e-16)


def test_proportional_mode_scales_with_density():
    vg = VelocityGrid(1, 8.0, 48)
    sg = SpatialGrid((0.0,), (1.0,), 2, "outflow")
    vals = np.stack(
        [maxwellian(vg, 1.0, [0.3], 1.0), maxwellian(vg, 0.125, [0.3], 1.0)]
    )
    # perturb both cells identically relative to their mass
    vals = vals * (1.0 + 0.05 * np.sin(vg.axes[0]))[None, :]
    fld = DistributionField(vals, sg, vg)
    r = bgk_rhs(fld, "bgk-rho", 1.0)
    # deviation from equilibrium scales with rho and nu = rho adds another
    # factor, so the RHS ratio is the density ratio squared
    np.testing.assert_allclose(r[1], 0.125**2 * r[0], rtol=1e-6, atol=1e-18)