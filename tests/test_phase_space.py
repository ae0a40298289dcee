import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kinproj.collision_bgk import bgk_rhs
from kinproj.collision_boltzmann import SpectralPlan, boltzmann_rhs
from kinproj.errors import ConfigurationError, StepRejectionError
from kinproj.phase_space import (
    DistributionField,
    MomentSet,
    SpatialGrid,
    VelocityGrid,
    derived,
    heat_flux,
    local_maxwellian,
    maxwellian,
    moments,
)
from kinproj.scenarios_cli import write_snapshot


def direct_moments_1d(v, w, f):
    # loop-free but literal centered sums, independent of the library path
    rho = w * np.sum(f)
    u = w * np.sum(v * f) / rho
    T = w * np.sum((v - u) ** 2 * f) / rho
    return rho, u, T


def test_maxwellian_center_value_2d():
    # odd J puts a node exactly at the origin
    g = VelocityGrid(2, 8.0, 25)
    M = maxwellian(g, 1.0, [0.0, 0.0], 1.0)
    assert M[12, 12] == 1.0 / (2.0 * np.pi)


def test_maxwellian_center_value_1d():
    g = VelocityGrid(1, 8.0, 25)
    M = maxwellian(g, 1.0, [0.0], 1.0)
    assert M[12] == pytest.approx(1.0 / np.sqrt(2.0 * np.pi), rel=1e-15)


def test_maxwellian_rejects_bad_inputs():
    g = VelocityGrid(2, 8.0, 16)
    with pytest.raises(ValueError):
        maxwellian(g, -1.0, [0.0, 0.0], 1.0)
    with pytest.raises(ValueError):
        maxwellian(g, 1.0, [0.0, 0.0], 0.0)
    with pytest.raises(ValueError):
        maxwellian(g, 1.0, [np.nan, 0.0], 1.0)
    with pytest.raises(ValueError):
        maxwellian(g, 1.0, [0.0, 0.0], -2.0)


def test_maxwellian_rejects_bad_cell_arrays():
    # per-cell parameters with one bad cell
    g = VelocityGrid(1, 8.0, 16)
    for name, value in (("rho", np.inf), ("rho", -0.1), ("u", np.nan),
                        ("T", np.nan), ("T", 0.0), ("T", -1.0)):
        params = {"rho": np.ones(3), "u": np.zeros((3, 1)), "T": np.ones(3)}
        params[name][1] = value
        with pytest.raises(ValueError):
            maxwellian(g, **params)


def direct_maxwellian(g, rho, u, T):
    """rho/(2 pi T)^(dv/2) exp(-|v-u|^2 / 2T), the exponent summed over the
    components before one exp, per cell of the leading axes."""
    pad = (1,) * g.dv
    Tb = T.reshape(T.shape + pad)
    q = sum((g.node_component(d) - u[..., d].reshape(T.shape + pad)) ** 2
            for d in range(g.dv))
    return rho.reshape(T.shape + pad) / (2 * np.pi * Tb) ** (g.dv / 2) * np.exp(-q / (2 * Tb))


@pytest.mark.parametrize("dv, counts", [(1, 80), (2, (16, 12))])
def test_maxwellian_matches_direct_formula(dv, counts):
    # the per-axis factors agree with one exp of the whole exponent to
    # roundoff, relative to each slice's peak: in the tails an exponent x
    # carries an absolute rounding of |x| ulp, so exp(x) a relative one
    g = VelocityGrid(dv, 8.0, counts)
    rng = np.random.default_rng(5)
    rho = rng.uniform(0.1, 2.0, size=(3, 2))
    rho[1, 0] = 0.0  # a zero slice
    u = rng.uniform(-1.0, 1.0, size=(3, 2, dv))
    T = rng.uniform(0.5, 1.5, size=(3, 2))
    ref = direct_maxwellian(g, rho, u, T)
    got = maxwellian(g, rho, u, T)
    assert got.shape == ref.shape == (3, 2) + g.counts
    vel = tuple(range(2, 2 + dv))
    peak = ref.max(axis=vel)
    assert np.all(np.abs(got - ref).max(axis=vel) <= 1e-14 * peak)
    assert np.all(got[1, 0] == 0.0)


def test_maxwellian_zero_density_is_zero_slice():
    g = VelocityGrid(2, 8.0, 16)
    assert np.all(maxwellian(g, 0.0, [0.3, -0.2], 0.5) == 0.0)


def test_moment_roundtrip_reference_state():
    g = VelocityGrid(2, 8.0, 32)
    M = maxwellian(g, 1.0, [0.0, 0.0], 1.0)
    mom = moments(g, M)
    assert abs(mom.rho - 1.0) <= 1e-8
    assert np.max(np.abs(mom.u)) <= 1e-8
    assert abs(mom.T - 1.0) <= 1e-8


def test_moment_roundtrip_cold_state():
    g = VelocityGrid(1, 8.0, 80)
    M = maxwellian(g, 0.125, [0.0], 0.25)
    mom = moments(g, M)
    assert abs(mom.rho - 0.125) <= 1e-8
    assert abs(mom.u[0]) <= 1e-8
    assert abs(mom.T - 0.25) <= 1e-8


def test_moments_match_direct_sums():
    g = VelocityGrid(2, 8.0, 16)
    rng = np.random.default_rng(3)
    f = rng.uniform(0.01, 1.0, size=g.counts)
    mom = moments(g, f)
    w = g.weight
    rho = w * f.sum()
    u = np.array(
        [w * np.sum(g.node_component(d) * f) / rho for d in range(2)]
    )
    vx = g.node_component(0)
    vy = g.node_component(1)
    T = w * np.sum(((vx - u[0]) ** 2 + (vy - u[1]) ** 2) * f) / (2 * rho)
    assert mom.rho == pytest.approx(rho, rel=1e-13)
    assert np.allclose(mom.u, u, rtol=1e-12, atol=1e-14)
    assert mom.T == pytest.approx(T, rel=1e-12)


def test_moments_vectorize_over_cells():
    g = VelocityGrid(1, 8.0, 40)
    rng = np.random.default_rng(11)
    f = rng.uniform(0.0, 1.0, size=(3, 2) + g.counts)
    mom = moments(g, f)
    assert mom.rho.shape == (3, 2) and mom.u.shape == (3, 2, 1)
    # batched and per-cell BLAS paths may differ in the last ulp
    for i in range(3):
        for j in range(2):
            single = moments(g, f[i, j])
            assert mom.rho[i, j] == pytest.approx(single.rho, rel=1e-14)
            assert mom.T[i, j] == pytest.approx(single.T, rel=1e-13)
            np.testing.assert_allclose(mom.u[i, j], single.u, rtol=1e-13)


@pytest.mark.parametrize("dv, counts", [(1, 40), (2, (16, 12))])
def test_moments_match_direct_sums_per_cell(dv, counts):
    # one matrix product against the plain weighted sums, per cell, with
    # the temperature from the centered second moment
    g = VelocityGrid(dv, 8.0, counts)
    rng = np.random.default_rng(7)
    f = rng.uniform(0.01, 1.0, size=(4,) + g.counts)
    f[:, ::3] *= 0.1  # uneven slices give a nonzero bulk velocity
    mom = moments(g, f)
    w = g.weight
    v = [g.node_component(d) for d in range(dv)]
    for i in range(4):
        rho = w * np.sum(f[i])
        u = np.array([w * np.sum(v[d] * f[i]) / rho for d in range(dv)])
        c2 = sum((v[d] - u[d]) ** 2 for d in range(dv))
        T = w * np.sum(c2 * f[i]) / (dv * rho)
        assert mom.rho[i] == pytest.approx(rho, rel=1e-14)
        np.testing.assert_allclose(mom.u[i], u, rtol=1e-14, atol=1e-14 * np.sqrt(T))
        assert mom.T[i] == pytest.approx(T, rel=1e-14)


def test_heat_flux_direct_sum_oracle():
    g = VelocityGrid(1, 8.0, 80)
    v = g.axes[0]
    f = maxwellian(g, 1.0, [0.0], 1.0) * (1.0 + 0.1 * v**3)
    q = heat_flux(g, f, moments(g, f))
    rho, u, T = direct_moments_1d(v, g.weight, f)
    q_direct = 0.5 * g.weight * np.sum((v - u) ** 2 * (v - u) * f)
    assert abs(q[0] - q_direct) <= 1e-12
    # closed form for this perturbation: q = (E[v^3(v-u)^3]/10 - 3u - u^3)/2 = 0.327
    assert q[0] == pytest.approx(0.327, abs=1e-9)


def test_heat_flux_vanishes_at_equilibrium():
    g = VelocityGrid(2, 8.0, 32)
    M = maxwellian(g, 1.3, [0.4, -0.2], 0.8)
    q = heat_flux(g, M, moments(g, M))
    assert np.max(np.abs(q)) <= 1e-12


def test_derived_quantities():
    from kinproj.phase_space import MomentSet

    mom = MomentSet(
        rho=np.array(16.0 / 7.0),
        u=np.array([np.sqrt(5.0 / 3.0) * 7.0 / 16.0, 0.0]),
        T=np.array(133.0 / 64.0),
    )
    P, E, Ma = derived(mom)
    assert P == 4.75
    assert E == pytest.approx(0.5 * (16 / 7) * (5 / 3) * (7 / 16) ** 2 + 4.75, rel=1e-15)
    mom2 = MomentSet(
        rho=np.array(2.0), u=np.array([-0.5, 0.0]), T=np.array(1.0)
    )
    P2, E2, Ma2 = derived(mom2)
    assert P2 == 2.0 and E2 == 2.25 and Ma2 == 0.5


def test_zero_mass_cell_has_non_finite_temperature():
    # a cell's moments are its quadrature: no mass gives T = 0/0, which
    # check_state rejects; the division warns nothing (warnings are errors)
    g = VelocityGrid(2, 8.0, 16)
    f = np.zeros((2,) + g.counts)
    f[1] = maxwellian(g, 1.0, [0.0, 0.0], 1.0)
    mom = moments(g, f)
    assert mom.rho[0] == 0.0 and not np.isfinite(mom.T[0])
    assert np.isfinite(mom.T[1]) and np.isfinite(mom.u[1]).all()


def test_negative_density_is_rejected_not_vacuum(tmp_path):
    # a cell holding -0.5 M has u = 0 and T = 1 from its own moments; the
    # collision terms and the snapshot writer reject its density
    sg = SpatialGrid((0.0,), (1.0,), 3, "outflow")
    for vg, collide in ((VelocityGrid(1, 8.0, 32), lambda f: bgk_rhs(f, "bgk", 1.0)),
                        (VelocityGrid(2, 8.0, 16), lambda f: boltzmann_rhs(f, SpectralPlan(VelocityGrid(2, 8.0, 16)), 1.0))):
        m = maxwellian(vg, 1.0, np.zeros(vg.dv), 1.0)
        f = np.stack([m, -0.5 * m, m])
        mom = moments(vg, f)
        assert mom.rho[1] == pytest.approx(-0.5)
        with pytest.raises(StepRejectionError, match=r"non-positive density in cell \(1,\)") as exc:
            collide(DistributionField(f, sg, vg))
        assert exc.value.index == (1,)
        path = tmp_path / f"snap_{vg.dv}v.csv"
        with pytest.raises(StepRejectionError, match=r"non-positive density in cell \(1,\)"):
            write_snapshot(path, 0.0, "demo", sg, vg, f)
        assert not path.exists()


def test_non_finite_moments_are_rejected():
    # an infinite or NaN temperature or density in any cell is a
    # rejected step naming the cell, not a ValueError from maxwellian
    vg = VelocityGrid(1, 8.0, 16)
    for name, q, value, kind in (("T", "temperature", np.inf, "non-finite"),
                                 ("T", "temperature", np.nan, "non-finite"),
                                 ("rho", "density", np.inf, "non-finite"),
                                 ("T", "temperature", -np.inf, "non-positive")):
        mom = MomentSet(rho=np.ones(3), u=np.zeros((3, 1)), T=np.ones(3))
        getattr(mom, name)[2] = value
        with pytest.raises(StepRejectionError, match=rf"{kind} {q} in cell \(2,\)") as exc:
            local_maxwellian(vg, mom)
        assert exc.value.index == (2,)


def test_quadrature_weights_sum_to_box_volume():
    g2 = VelocityGrid(2, 8.0, (32, 16))
    assert g2.weight * g2.n_nodes == pytest.approx(16.0**2, rel=1e-14)
    g1 = VelocityGrid(1, 6.0, 48)
    assert g1.weight * g1.n_nodes == pytest.approx(12.0, rel=1e-14)


def test_grid_and_field_validation():
    with pytest.raises(ConfigurationError):
        VelocityGrid(3, 8.0, 16)
    with pytest.raises(ConfigurationError):
        VelocityGrid(2, -1.0, 16)
    with pytest.raises(ConfigurationError):
        SpatialGrid((0.0,), (1.0,), 10, "reflecting")
    with pytest.raises(ConfigurationError):
        SpatialGrid((0.0,), (-1.0,), 10, "periodic")
    with pytest.raises(ConfigurationError, match="1D or 2D"):
        SpatialGrid((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), 10, "periodic")
    with pytest.raises(ConfigurationError, match="matching bounds"):
        SpatialGrid((0.0, 0.0), (1.0,), 10, "periodic")
    s = SpatialGrid((0.0,), (1.0,), 10, "outflow")
    v = VelocityGrid(1, 8.0, 16)
    with pytest.raises(ConfigurationError):
        DistributionField(np.zeros((10, 15)), s, v)
    DistributionField(np.zeros((10, 16)), s, v)


def test_spatial_grid_centers():
    s = SpatialGrid((0.0,), (1.0,), 100, "outflow")
    assert s.spacings[0] == 0.01
    assert s.centers[0][0] == pytest.approx(0.005)
    assert s.centers[0][-1] == pytest.approx(0.995)
    s2 = SpatialGrid((-2.0, -1.0), (3.0, 1.0), (200, 25), ("outflow", "periodic"))
    assert s2.spacings == (0.025, 0.08)


@settings(max_examples=40, deadline=None)
@given(
    rho=st.floats(0.1, 2.0),
    ux=st.floats(-1.4, 1.4),
    uy=st.floats(-1.4, 1.4),
    T=st.floats(0.1, 1.2),
)
def test_moment_roundtrip_property(rho, ux, uy, T):
    # tails of these Maxwellians stay inside the [-8, 8]^2 box, so the
    # midpoint quadrature round-trips well below the stated 1e-6
    g = VelocityGrid(2, 8.0, 64)
    mom = moments(g, maxwellian(g, rho, [ux, uy], T))
    assert abs(mom.rho - rho) <= 1e-6
    assert np.max(np.abs(mom.u - [ux, uy])) <= 1e-6
    assert abs(mom.T - T) <= 1e-6
