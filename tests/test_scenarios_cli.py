import inspect
import json
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kinproj.collision_boltzmann import SpectralPlan
from kinproj.errors import ConfigurationError, StepRejectionError
from kinproj.integrators import FORWARD_EULER, make_rhs, rk_step
from kinproj.phase_space import SpatialGrid, VelocityGrid, maxwellian, moments
from kinproj.planner import INTEGRATORS
from kinproj.scenarios_cli import (
    _RUN_OPTIONS,
    COLLISIONS,
    _advance,
    build_parser,
    catalogue,
    describe,
    get_scenario,
    initial_field,
    load_config,
    main,
    resolve_run,
    run_simulation,
    write_snapshot,
)


def test_catalogue_contents():
    names = [s.name for s in catalogue()]
    assert names == ["sod_1d1d", "sod_1d2v", "shock_bubble",
                     "kelvin_helmholtz", "double_sod_2d"]
    sod = get_scenario("sod_1d1d")
    rho, u, T = sod.initial(np.array([0.75]))
    assert rho[0] == 0.125 and T[0] == 0.25 and u[0, 0] == 0.0
    bubble = get_scenario("shock_bubble")
    rho, u, T = bubble.initial(np.array([[0.5]]), np.array([[0.0]]))
    assert rho[0, 0] == 2.5
    rho, u, T = bubble.initial(np.array([[-1.5]]), np.array([[0.0]]))
    assert u[0, 0, 0] == pytest.approx(np.sqrt(5.0 / 3.0) * 7.0 / 16.0, rel=1e-15)
    assert T[0, 0] == 133.0 / 64.0
    ds = get_scenario("double_sod_2d")
    assert ds.initial(np.array([[0.25]]), np.array([[-0.25]]))[0][0, 0] == 0.1
    kh = get_scenario("kelvin_helmholtz")
    rho, u, T = kh.initial(np.array([[0.125]]), np.array([[-0.2]]))
    assert rho[0, 0] == 2.0 and u[0, 0, 0] == -0.5
    assert u[0, 0, 1] == pytest.approx(0.01 * np.sin(0.5 * np.pi), rel=1e-15)
    with pytest.raises(ConfigurationError):
        get_scenario("nope")


def test_initial_field_matches_states():
    run = resolve_run("sod_1d1d", nx=(50,), nv=(32,))
    f = initial_field(run)
    mom = moments(run.vgrid, f)
    rho, u, T = run.scenario.initial(run.sgrid.centers[0])
    assert np.max(np.abs(mom.rho - rho)) <= 1e-8
    assert np.max(np.abs(mom.T - T)) <= 1e-6


def test_snapshot_writer_roundtrip(tmp_path):
    vg = VelocityGrid(1, 8.0, (16,))
    sg = SpatialGrid(0.0, 1.0, (5,), "outflow")
    f = maxwellian(vg, np.linspace(0.5, 1.2, 5), 0.3 * np.ones((5, 1)), np.ones(5))
    path = tmp_path / "snap.csv"
    write_snapshot(path, 0.125, "demo", sg, vg, f)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "# t=0.125 scenario=demo"
    assert lines[1] == "x,rho,ux,T,qx,P,E,Ma"
    assert len(lines) == 2 + 5
    data = np.loadtxt(path, delimiter=",", skiprows=2)
    mom = moments(vg, f)
    assert np.array_equal(data[:, 1], mom.rho)  # 17 digits round-trip exactly
    assert np.array_equal(data[:, 2], mom.u[:, 0])
    assert np.array_equal(data[:, 0], sg.centers[0])


def test_snapshot_header_2d(tmp_path):
    vg = VelocityGrid(2, 8.0, (8, 8))
    sg = SpatialGrid((0.0, 0.0), (1.0, 1.0), (3, 4), "periodic")
    f = maxwellian(vg, np.ones((3, 4)), np.zeros((3, 4, 2)), np.ones((3, 4)))
    path = tmp_path / "snap2.csv"
    write_snapshot(path, 0.0, "demo2", sg, vg, f)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[1] == "x,y,rho,ux,uy,T,qx,qy,P,E,Ma"
    assert len(lines) == 2 + 12  # one row per cell, row-major


def test_rk4_step_count(tmp_path):
    # delta t = 0.1 dx resolves epsilon = 0.1; 150 steps reach t = 0.15
    code = main(["run", "--scenario", "sod_1d1d", "--integrator", "rk4",
                 "--epsilon", "0.1", "--cfl", "0.1", "--snapshots", "2",
                 "--out", str(tmp_path)])
    assert code == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["status"] == "completed"
    assert manifest["steps_per_level"] == [150]
    assert manifest["speedup"] == 1.0
    assert [s["t"] for s in manifest["snapshots"]] == [0.0, 0.15]


def test_manifest_records_peak_rss(tmp_path):
    assert main(["run", "--scenario", "sod_1d1d", "--t-end", "0",
                 "--nx", "20", "--nv", "16", "--out", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    # the process's peak so far, in MiB, never above the peak read afterwards
    after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    after /= 2**20 if sys.platform == "darwin" else 2**10
    assert 0 < manifest["peak_rss_mib"] <= after


def test_zero_end_time(tmp_path):
    code = main(["run", "--scenario", "sod_1d1d", "--t-end", "0",
                 "--nx", "20", "--nv", "16", "--out", str(tmp_path)])
    assert code == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["snapshot_times"] == [0.0]
    assert (tmp_path / "snapshot_000.csv").exists()
    assert not (tmp_path / "snapshot_001.csv").exists()


def test_run_determinism(tmp_path):
    args = ["run", "--scenario", "sod_1d1d", "--nx", "50", "--nv", "32"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    for i in range(5):
        name = f"snapshot_{i:03d}.csv"
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_manifest_plan_bookkeeping(tmp_path):
    assert main(["run", "--scenario", "sod_1d1d", "--nx", "50", "--nv", "32",
                 "--out", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    # dx = 0.02, outer step 0.008, h0 = 1e-5 -> M = 797, speedup = 800/3
    assert manifest["plan"]["M"] == [797.0]
    assert manifest["speedup"] == pytest.approx(800.0 / 3.0, rel=1e-12)
    # 4 intervals of 0.0375: 4 full outer steps + 1 remainder landing each
    assert manifest["steps_per_level"] == [240, 20]
    assert manifest["integrator"] == "prk4"
    assert manifest["snapshot_times"] == list(np.linspace(0.0, 0.15, 5))


def _work_bound(run):
    """The bound resolve_run checks: (t_end / h_top + intervals) * stages * prod(K + 1)."""
    plan = run.plan
    return ((run.t_end / plan.h[-1] + len(run.snapshot_times) - 1)
            * plan.outer_tableau.stages * np.prod([k + 1 for k in plan.K]))


class _CountingRhs:
    """RHS wrapper that counts calls and can return NaN at one of them."""

    def __init__(self, rhs, nan_at=None):
        self.rhs = rhs
        self.nan_at = nan_at
        self.calls = 0

    def __call__(self, values):
        self.calls += 1
        out = self.rhs(values)
        if self.calls == self.nan_at:
            out[0] = np.nan
        return out


@pytest.mark.parametrize("overrides, counts", [
    # h = (1e-5, 2.124e-4, 1.9116e-3): the leftover 4.42e-4 is shorter than
    # the top damping sweep of 7 * 2.124e-4, so it lands on the run's own
    # ladder one level down (two whole level-1 steps), and its 1.72e-5 below
    # the 7e-5 level-1 sweep at level 0 (one forward-Euler step of h0 and
    # one rk_step of 7.2e-6)
    (dict(integrator="tprk4", collision="bgk-rho", K=6, M=(14.24, 2.0),
          nx=(30,), nv=(16,), t_end=0.01), [996, 142, 5]),
    # leftover 2e-5 below the (K+1)*h0 = 3e-5 sweep: two whole level-0
    # forward-Euler steps of h0 (at the default cfl 0.4 the top step of 0.02
    # leaves negative densities in cells 10-19, and the landing rejects them)
    (dict(integrator="pfe", nx=(20,), nv=(16,), cfl=0.05, t_end=0.0025 + 2e-5), [5, 1]),
    # h = (1e-5, 5e-5, 2.5e-4): the leftover 6.5e-5 takes one whole level-1
    # step, its 1.5e-5 one whole level-0 step, and the last 5e-6 one rk_step
    (dict(integrator="tpfe", K=2, M=(2.0, 2.0), nx=(20,), nv=(16,),
          t_end=1e-3 + 6.5e-5), [41, 13, 4]),
    # the same ladder with a leftover of 9e-5: one whole level-1 step, then
    # a level-1 step with its factor truncated to 4e-5 / 1e-5 - 3 = 1
    (dict(integrator="tpfe", K=2, M=(2.0, 2.0), nx=(20,), nv=(16,),
          t_end=1e-3 + 9e-5), [42, 14, 4]),
], ids=["tuned_ladder", "level_zero_steps", "two_levels_down", "truncated_one_level_down"])
def test_remainder_landing_counts(tmp_path, overrides, counts):
    run = resolve_run("sod_1d1d", snapshots=2, **overrides)
    rhs = run.rhs = _CountingRhs(run.rhs)
    manifest = run_simulation(run, tmp_path)
    assert manifest["status"] == "completed"
    assert manifest["snapshots"][-1]["t"] == overrides["t_end"]
    assert manifest["steps_per_level"] == counts
    assert rhs.calls == counts[0] <= _work_bound(run)


def test_landing_keeps_heat_flux_accuracy(tmp_path):
    # the tuned_ladder landing above against a resolved RK4 reference;
    # a leftover re-planned on a fresh geometric ladder gave 8.1e-2 here
    run_simulation(resolve_run("sod_1d1d", integrator="tprk4", collision="bgk-rho",
                               K=6, M=(14.24, 2.0), nx=(30,), nv=(16,),
                               t_end=0.01, snapshots=2), tmp_path / "tpi")
    run_simulation(resolve_run("sod_1d1d", integrator="rk4", collision="bgk-rho",
                               cfl=2e-4, nx=(30,), nv=(16,), t_end=0.01,
                               snapshots=2), tmp_path / "ref")
    a, b = (np.loadtxt(tmp_path / tag / "snapshot_001.csv", delimiter=",", skiprows=2)
            for tag in ("tpi", "ref"))
    dq = np.sum(np.abs(a[:, 4] - b[:, 4])) / np.sum(np.abs(b[:, 4]))
    assert dq <= 5e-2  # measured 2.5e-2


def test_plain_steps_follow_epsilon(tmp_path):
    # without --cfl, plain fe takes the inner step epsilon, not 0.1 dx = 5e-3
    run = resolve_run("sod_1d1d", preset="desk", integrator="fe", nx=(20,),
                      nv=(16,), t_end=0.02, snapshots=2)
    assert run.plan.h[0] == 1e-5
    manifest = run_simulation(run, tmp_path)
    assert manifest["status"] == "completed"
    data = np.loadtxt(tmp_path / "snapshot_001.csv", delimiter=",", skiprows=2)
    assert data[:, 1].min() > 0 and data[:, 3].min() > 0


def test_nonphysical_snapshot_is_rejected(tmp_path):
    # the run above at cfl 0.1 (step 5e-3): its one step leaves negative
    # densities and temperatures in cells 10-19, which no later RHS call
    # sees; the snapshot check rejects them
    code = main(["run", "--scenario", "sod_1d1d", "--preset", "desk",
                 "--integrator", "fe", "--nx", "20", "--nv", "16",
                 "--t-end", "0.005", "--snapshots", "2", "--cfl", "0.1",
                 "--out", str(tmp_path)])
    assert code == 3
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["status"] == "rejected"
    assert "non-positive temperature in cell (10,)" in manifest["error"]
    assert manifest["steps_per_level"] == [1]
    assert [s["file"] for s in manifest["snapshots"]] == ["snapshot_000.csv"]
    assert not (tmp_path / "snapshot_001.csv").exists()


def test_rejected_run_counts_partial_work(tmp_path):
    # the run of test_manifest_plan_bookkeeping, poisoned at RHS call 5:
    # the fifth inner step of the first outer step is started and rejected
    run = resolve_run("sod_1d1d", nx=(50,), nv=(32,))
    run.rhs = _CountingRhs(run.rhs, nan_at=5)
    with pytest.raises(StepRejectionError, match=r"state index \(0, 0\)") as exc:
        run_simulation(run, tmp_path)
    assert exc.value.index == (0, 0)  # the step's own rejection, re-raised
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["status"] == "rejected"
    assert manifest["steps_per_level"] == [5, 1]


def test_exit_codes(tmp_path):
    assert main(["run", "--scenario", "nope", "--out", str(tmp_path)]) == 2
    # epsilon = 0.1 is not stiff enough for the default projective plan
    assert main(["run", "--scenario", "sod_1d1d", "--epsilon", "0.1",
                 "--out", str(tmp_path)]) == 2
    # under-resolved cold state blows up and is rejected, not silently kept
    code = main(["run", "--scenario", "sod_1d1d", "--nx", "20", "--nv", "16",
                 "--snapshots", "2", "--out", str(tmp_path / "rej")])
    assert code == 3
    manifest = json.loads((tmp_path / "rej" / "manifest.json").read_text())
    assert manifest["status"] == "rejected"
    assert "error" in manifest
    assert (tmp_path / "rej" / "snapshot_000.csv").exists()


@pytest.mark.parametrize("extra", [
    ["--t-end", "nan"],
    ["--t-end", "inf"],
    ["--cfl", "inf"],
    ["--M", "inf"],
    ["--integrator", "fe", "--h0", "nan"],
    ["--integrator", "fe", "--epsilon", "inf"],
])
def test_non_finite_inputs_exit_2(extra, capsys):
    assert main(["plan", "--scenario", "sod_1d1d"] + extra) == 2
    assert "finite" in capsys.readouterr().err


def test_infeasible_ladder_names_its_cause(capsys):
    # cfl * dx = 0.004 is below the inner step epsilon = 0.1; no --levels given
    assert main(["plan", "--scenario", "sod_1d1d", "--integrator", "tprk4",
                 "--epsilon", "0.1"]) == 2
    err = capsys.readouterr().err
    assert "target step 0.004 is below the inner step 0.1" in err
    assert "levels" not in err


def test_config_file_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# comment line\n"
        "scenario = sod_1d1d\n"
        "integrator = rk4\n"
        "epsilon = 0.05\n"
        "cfl = 0.1\n"
        "nx = 20\n"
        "nv = 16\n"
        "t_end = 0.01\n"
        "snapshots = 2\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--epsilon", "0.1",
                 "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["epsilon"] == 0.1  # CLI wins over the file
    assert manifest["spatial"]["counts"] == [20]  # file wins over defaults
    assert manifest["integrator"] == "rk4"
    # list-valued keys, the key k with its own dest, and an underscored key
    cfg.write_text(
        "scenario = sod_1d1d\n"
        "integrator = tpfe\n"
        "K = 2\n"
        "M = 2.0, 2.0\n"
        "k = 2\n"
        "nx = 20\n"
        "nv = 16\n"
        "half_width = 6.0\n"
        "t_end = 1e-3\n"
        "snapshots = 2\n",
        encoding="utf-8",
    )
    assert main(["run", "--config", str(cfg), "--nv", "12", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["weno_k"] == 2  # the scenario's own is 3
    assert manifest["plan"]["M"] == [2.0, 2.0]
    assert manifest["plan"]["K"] == [2, 2]
    assert manifest["spatial"]["counts"] == [20]
    assert manifest["velocity"]["half_width"] == 6.0
    assert manifest["velocity"]["counts"] == [12]


def test_grid_below_stencil_width_exits_2_before_writing(tmp_path, capsys):
    # sod_1d1d transports with k = 3, whose stencil needs 5 cells per axis
    out = tmp_path / "d"
    assert main(["plan", "--scenario", "sod_1d1d", "--nx", "4"]) == 2
    assert main(["run", "--scenario", "sod_1d1d", "--nx", "4", "--out", str(out)]) == 2
    assert capsys.readouterr().err.count("axis 0: 4 cells < stencil width 5") == 2
    assert not out.exists()


def test_run_work_bound(tmp_path, capsys):
    # sod_1d1d to t = 0.15 in plain RK4 steps of cfl * dx = 0.01 cfl, 4 stages
    # each, plus one landing per interval: 4 * (250,000 + 4) evaluations fit
    # under 2**20, 4 * (300,000 + 4) do not
    assert resolve_run("sod_1d1d", integrator="rk4", cfl=6e-5).plan.levels == 0
    with pytest.raises(ConfigurationError, match=r"^the run would take about 1\.2e\+06 "
                       r"right-hand-side evaluations, above 2\*\*20$"):
        resolve_run("sod_1d1d", integrator="rk4", cfl=5e-5)
    # the default prk4 ladder, 12 evaluations a top step or landing:
    # (37.5 + 86,999) * 12 fit under 2**20, (37.5 + 100,000) * 12 do not
    assert len(resolve_run("sod_1d1d", snapshots=87000).snapshot_times) == 87000
    with pytest.raises(ConfigurationError, match="right-hand-side evaluations"):
        resolve_run("sod_1d1d", snapshots=100001)
    # refused before a linspace of 10**9 times is built, and a count beyond
    # float range before it is converted to a float
    for snapshots in (10**9, 10**400):
        with pytest.raises(ConfigurationError, match=r"^the run would take more than 2\*\*20 "
                           r"right-hand-side evaluations, at least one per snapshot interval$"):
            resolve_run("sod_1d1d", snapshots=snapshots)
    # 229 levels of K = 2 take no step to t = 0, and far too many to t = 0.15
    assert resolve_run("sod_1d1d", integrator="tprk4", h0=1e-300, t_end=0.0).plan.levels == 229
    with pytest.raises(ConfigurationError, match="right-hand-side evaluations"):
        resolve_run("sod_1d1d", integrator="tprk4", h0=1e-300)
    out = tmp_path / "d"
    assert main(["run", "--scenario", "sod_1d1d", "--t-end", "1e300", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: the run would take about 3e+303 ")
    assert not out.exists()


@pytest.mark.parametrize("overrides", [
    # the runs of test_plan_predicts_the_run that test_remainder_landing_counts lacks
    dict(nx=(50,), nv=(32,)),
    dict(integrator="rk4", epsilon=0.1, cfl=0.1, nx=(20,), nv=(16,)),
    # a landing in each of many short intervals
    dict(integrator="tprk4", snapshots=1000),
], ids=["bookkeeping_run", "plain_rk4", "many_snapshots"])
def test_work_bound_covers_the_stepping(overrides):
    # the run's own stepping, dry-run on a scalar no-op RHS as `plan` does
    run = resolve_run("sod_1d1d", **overrides)
    times = run.snapshot_times
    rhs = _CountingRhs(lambda y: 0.0)
    for t0, t1 in zip(times, times[1:]):
        for _ in _advance(rhs, 0.0, t1 - t0, run.plan, [0] * (run.plan.levels + 1)):
            pass
    assert 0 < rhs.calls <= _work_bound(run)


def test_config_file_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("mystery = 1\n", encoding="utf-8")
    with pytest.raises(ConfigurationError):
        load_config(bad)
    bad.write_text("epsilon ten\n", encoding="utf-8")
    with pytest.raises(ConfigurationError):
        load_config(bad)
    bad.write_text("epsilon = ten\n", encoding="utf-8")
    with pytest.raises(ConfigurationError):
        load_config(bad)
    assert main(["run", "--config", str(bad), "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("argv,config,message", [
    (["run", "--scenario", "sod_1d1d"], None, "no output directory given"),
    (["plan"], "epsilon = 0.1\n", "no scenario given"),
    (["run", "--out", "out"], "scenario = sod_1d1d\ncollision = bogus\n", "collision must be"),
    (["plan"], "scenario = sod_1d1d\nintegrator = bogus\n", "integrator must be"),
    # an empty value is not the default, and a value's case is its own
    (["plan"], "scenario = sod_1d1d\ncollision =\n", "expected key=value"),
    (["plan"], "scenario = sod_1d1d\nintegrator = PRK4\n", "integrator must be"),
])
def test_missing_or_unknown_settings_exit_2(tmp_path, monkeypatch, capsys, argv, config, message):
    # argparse's choices guard the flags, not a config file's values
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    if config is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config, encoding="utf-8")
        argv = argv + ["--config", str(cfg)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and message in captured.err
    assert captured.out == "" and list(cwd.iterdir()) == []


@pytest.mark.parametrize("kind", ["missing", "directory", "not_utf8"])
def test_unreadable_config_file_exits_2(tmp_path, capsys, kind):
    cfg = tmp_path / "run.cfg"
    if kind == "directory":
        cfg.mkdir()
    elif kind == "not_utf8":
        cfg.write_bytes(b"scenario = sod_1d1d\n# \xff\xfe\n")
    assert main(["plan", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {cfg}: ")


@pytest.mark.parametrize("command", ["run", "spectrum"])
@pytest.mark.parametrize("below", ["", "sub"])
def test_out_naming_a_regular_file_exits_2(tmp_path, capsys, command, below):
    # --out is the file itself, or a directory to be made under it
    taken = tmp_path / "taken"
    taken.write_text("keep\n", encoding="utf-8")
    assert main([command, "--scenario", "sod_1d1d", "--out", str(taken / below)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""
    assert taken.read_text(encoding="utf-8") == "keep\n"
    assert list(tmp_path.iterdir()) == [taken]


def test_plan_command(capsys):
    assert main(["plan", "--scenario", "sod_1d1d"]) == 0
    planned = json.loads(capsys.readouterr().out)
    assert planned["speedup"] == pytest.approx(400.0 / 3.0, rel=1e-12)
    assert planned["plan"]["M"] == [397.0]
    # five snapshots: 4 intervals of 0.0375, each 37 steps of 1e-3 and one
    # landing step; with two snapshots, the 150 steps of test_rk4_step_count
    assert main(["plan", "--scenario", "sod_1d1d", "--integrator", "rk4",
                 "--epsilon", "0.1", "--cfl", "0.1"]) == 0
    planned = json.loads(capsys.readouterr().out)
    assert planned["steps_per_level"] == [152]
    assert planned["t_end"] == 0.15
    assert main(["plan", "--scenario", "sod_1d1d", "--integrator", "rk4",
                 "--epsilon", "0.1", "--cfl", "0.1", "--snapshots", "2"]) == 0
    planned = json.loads(capsys.readouterr().out)
    assert planned["steps_per_level"] == [150]
    assert planned["t_end"] == 0.15
    # every integrator's ladder is one record: h per level, K and M per level above 0
    for integrator in INTEGRATORS:
        assert main(["plan", "--scenario", "sod_1d1d", "--nx", "20", "--nv", "16",
                     "--integrator", integrator]) == 0
        planned = json.loads(capsys.readouterr().out)
        ladder = planned["plan"]
        assert ladder.keys() == {"h", "K", "M"}
        assert len(ladder["h"]) == len(ladder["K"]) + 1 == len(ladder["M"]) + 1
        if integrator in ("fe", "rk4"):
            assert planned["speedup"] == 1.0
        else:
            assert planned["speedup"] > 1.0


def test_module_entry_point_exit_codes(tmp_path):
    # `python -m kinproj.scenarios_cli` exits with main()'s code; any
    # warning on the way is an error
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))

    def cli(*argv, timeout=120):
        return subprocess.run([sys.executable, "-W", "error", "-m", "kinproj.scenarios_cli",
                               *argv], capture_output=True, text=True, env=env, timeout=timeout)

    done = cli("plan", "--scenario", "sod_1d1d", "--nx", "20", "--nv", "16")
    assert done.returncode == 0
    assert json.loads(done.stdout)["scenario"] == "sod_1d1d"
    done = cli("plan", "--scenario", "nope")
    assert done.returncode == 2 and done.stderr.startswith("error: ")
    assert cli("plan", "--no-such-flag").returncode == 2  # argparse's usage error
    # runs of about 1e111 to 1e303 RHS evaluations (229 levels of K = 2, plain
    # steps of 1e-300, t_end = 1e300) and of at least 2e6 and 1e400 (a landing
    # in each interval): a configuration error at once, not a plan that never
    # returns, dry-runs for half a minute or overflows a float
    for argv in (["--integrator", "tprk4", "--h0", "1e-300"],
                 ["--integrator", "fe", "--h0", "1e-300"],
                 ["--integrator", "rk4", "--cfl", "1e-300"],
                 ["--t-end", "1e300"],
                 ["--snapshots", "2000000"],
                 ["--snapshots", "1" + "0" * 400]):
        done = cli("plan", "--scenario", "sod_1d1d", *argv, timeout=20)
        assert done.returncode == 2 and done.stderr.startswith("error: ")
        assert "Traceback" not in done.stderr
    # 8 nodes on [-1e6, 1e6] sample nothing of the initial Maxwellians: every
    # cell has zero mass, and the state is rejected at t = 0 with a manifest
    out = tmp_path / "zero_mass"
    done = cli("run", "--scenario", "sod_1d1d", "--nx", "5", "--nv", "8",
               "--half-width", "1e6", "--t-end", "1e-4", "--out", str(out))
    assert done.returncode == 3 and done.stderr.startswith("step rejected: ")
    assert "RuntimeWarning" not in done.stderr
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "rejected" and manifest["snapshots"] == []
    assert manifest["steps_per_level"] == [0, 0]


@pytest.mark.parametrize("argv, counts", [
    # the run of test_manifest_plan_bookkeeping
    (["--nx", "50", "--nv", "32"], [240, 20]),
    # the two_levels_down ladder of test_remainder_landing_counts
    (["--integrator", "tpfe", "--K", "2", "--M", "2,2", "--nx", "20", "--nv", "16",
      "--snapshots", "2", "--t-end", repr(1e-3 + 6.5e-5)], [41, 13, 4]),
    # plain steps of 0.1 dx = 5e-3: 4 intervals of 7 steps and one landing step
    (["--integrator", "rk4", "--epsilon", "0.1", "--cfl", "0.1", "--nx", "20",
      "--nv", "16"], [32]),
], ids=["bookkeeping_run", "two_levels_down", "plain_rk4"])
def test_plan_predicts_the_run(tmp_path, capsys, argv, counts):
    argv = ["--scenario", "sod_1d1d"] + argv
    assert main(["plan"] + argv) == 0
    planned = json.loads(capsys.readouterr().out)
    assert planned["steps_per_level"] == counts
    assert main(["run"] + argv + ["--out", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["status"] == "completed"
    assert {key: manifest[key] for key in planned} == planned


def _spectrum_bands(text):
    """cell -> (slow, fast, min Re lambda*eps, max Re lambda*eps) from `spectrum` output."""
    rows = re.findall(r"cell (\(.*?\)): .*\n  eigenvalues \d+ \((\d+) slow, (\d+) fast\).*\n"
                      r"  Re\(lambda\*eps\) in \[(\S+), (\S+)\]", text)
    return {c: (int(s), int(f), float(lo), float(hi)) for c, s, f, lo, hi in rows}


def test_spectrum_command(tmp_path, capsys):
    # nu = 1 on the sod_1d2v desk velocity grid (2V, 16 x 16, half-width 8)
    out = tmp_path / "eig"
    assert main(["spectrum", "--scenario", "sod_1d2v", "--preset", "desk",
                 "--collision", "bgk", "--epsilon", "1e-3", "--out", str(out)]) == 0
    bands = _spectrum_bands(capsys.readouterr().out)
    assert list(bands) == ["(0,)", "(50,)"]
    assert bands["(0,)"][:2] == (4, 252)
    # the cold cell (rho 0.121, T 0.286) is far from the standard Maxwellian;
    # its nu = 1 term has one slow mode and a growing one
    assert bands["(50,)"][:2] == (1, 255)
    assert bands["(50,)"][3] == pytest.approx(0.0651393, rel=1e-3)
    csvs = sorted(out.glob("spectrum_*.csv"))
    assert [p.name for p in csvs] == ["spectrum_0.csv", "spectrum_50.csv"]
    assert all(len(p.read_text().splitlines()) == 1 + 256 for p in csvs)
    # nu = rho: the band is -rho/epsilon, rho = 1 and 0.125 in the Sod states
    assert main(["spectrum", "--scenario", "sod_1d1d", "--collision", "bgk-rho"]) == 0
    bands = _spectrum_bands(capsys.readouterr().out)
    assert bands["(0,)"][2] == pytest.approx(-1.0, rel=1e-6)
    assert bands["(50,)"][2] == pytest.approx(-0.125, rel=1e-6)
    # the spectral Boltzmann term: a band to 0 with no gap, scaling with rho
    args = ["spectrum", "--scenario", "double_sod_2d", "--preset", "desk"]
    assert main(args) == 0
    text = capsys.readouterr().out
    bands = _spectrum_bands(text)
    assert bands["(0, 0)"][2] == pytest.approx(-0.978343, rel=1e-6)
    assert bands["(0, 0)"][3] == pytest.approx(2.44e-6, rel=1e-2)
    assert bands["(0, 16)"][2] == pytest.approx(-0.0978343, rel=1e-6)
    assert bands["(0, 16)"][3] == pytest.approx(2.44e-7, rel=1e-2)
    # the same command prints the same text
    assert main(args) == 0
    assert capsys.readouterr().out == text


def test_spectrum_probes_coarse_velocity_grids(tmp_path, capsys):
    # J = 8 in 1D: the probe works on any grid that run accepts
    out = tmp_path / "eig"
    assert main(["spectrum", "--scenario", "sod_1d1d", "--nv", "8", "--out", str(out)]) == 0
    bands = _spectrum_bands(capsys.readouterr().out)
    assert bands["(0,)"][3] == pytest.approx(0.0727194, rel=1e-3)
    assert bands["(50,)"][3] == pytest.approx(0.127578, rel=1e-3)
    csvs = sorted(out.glob("spectrum_*.csv"))
    assert [p.name for p in csvs] == ["spectrum_0.csv", "spectrum_50.csv"]
    assert all(len(p.read_text().splitlines()) == 1 + 8 for p in csvs)


def test_spectrum_non_finite_probe_exits_2_before_writing(tmp_path, capsys):
    # 1/epsilon overflows in the collision term
    out = tmp_path / "eig"
    with np.errstate(over="ignore"):
        code = main(["spectrum", "--scenario", "sod_1d1d", "--epsilon", "1e-308",
                     "--out", str(out)])
    assert code == 2
    assert "non-finite probe response" in capsys.readouterr().err
    assert not out.exists()


def test_subcommands_share_the_run_options():
    dests = {opt.get("dest", key) for key, opt in _RUN_OPTIONS.items()} | {"config"}
    for command, expect in (("run", dests), ("plan", dests - {"out"}), ("spectrum", dests)):
        ns = build_parser().parse_args([command, "--scenario", "sod_1d1d"])
        assert set(vars(ns)) - {"command", "func"} == expect


def test_resolve_run_takes_exactly_the_run_options():
    params = list(inspect.signature(resolve_run).parameters)[1:]
    dests = {opt.get("dest", key) for key, opt in _RUN_OPTIONS.items()}
    assert set(params) == dests - {"scenario", "out"}


@pytest.mark.parametrize("argv", [
    ["--integrator", "prk4", "--levels", "3"],
    ["--integrator", "pfe", "--M", "10,10"],
    ["--integrator", "rk4", "--M", "5"],
    ["--integrator", "tprk4", "--levels", "3", "--M", "1,2"],
])
def test_contradictory_level_counts_exit_2(argv, capsys):
    assert main(["plan", "--scenario", "sod_1d1d"] + argv) == 2
    assert "disagree on the level count" in capsys.readouterr().err


def test_periodic_mass_conservation():
    # shear-layer variant with both axes periodic; full velocity resolution
    scen = get_scenario("kelvin_helmholtz")
    sg = SpatialGrid(scen.lower, scen.upper, (12, 12), "periodic")
    vg = VelocityGrid(2, 8.0, (30, 30))
    rho, u, T = scen.initial(*np.meshgrid(*sg.centers, indexing="ij"))
    f = maxwellian(vg, rho, u, T)
    rhs = make_rhs(sg, vg, 2, ("bgk", scen.epsilon))
    mass0 = f.sum()
    for _ in range(100):
        f = rk_step(rhs, f, scen.epsilon, FORWARD_EULER)
    assert abs(f.sum() - mass0) <= 1e-10 * mass0  # measured 1.9e-12


def test_double_sod_initial_symmetry():
    run = resolve_run("double_sod_2d", preset="desk")
    f = initial_field(run)
    mom = moments(run.vgrid, f)
    assert np.max(np.abs(mom.rho - mom.rho.T)) <= 1e-10
    assert np.max(np.abs(mom.u[..., 0] - mom.u[..., 1].T)) <= 1e-10
    # full distribution: swap the two position axes and the two velocity axes
    assert np.max(np.abs(f - f.transpose(1, 0, 3, 2))) <= 1e-10


def test_resolution_override_validation():
    with pytest.raises(ConfigurationError):
        resolve_run("sod_1d1d", preset="garage")
    with pytest.raises(ConfigurationError):
        resolve_run("sod_1d1d", nx=(10, 10))  # wrong dimensionality
    with pytest.raises(ConfigurationError):
        resolve_run("sod_1d1d", collision="boltzmann")  # needs 2D velocities
    with pytest.raises(ConfigurationError):
        resolve_run("sod_1d1d", t_end=-1.0)
    with pytest.raises(ConfigurationError):
        resolve_run("sod_1d1d", snapshots=1)
    for grid in ({"nx": ()}, {"nv": ()}):  # empty is given, not the default
        with pytest.raises(ConfigurationError, match=r"positive counts, got \(\)"):
            resolve_run("sod_1d1d", **grid)
    for grid in ({"nx": (20.5,)}, {"nv": (16.9,)}):  # rejected, not truncated
        with pytest.raises(ConfigurationError, match="positive counts"):
            resolve_run("sod_1d1d", **grid)
    # integer settings reach the owner that checks them untruncated
    for overrides, message in (({"K": 2.5}, "K must be a nonnegative integer"),
                               ({"integrator": "tprk4", "levels": 2.5}, "levels must be"),
                               ({"snapshots": 2.5}, "snapshots must be a whole number"),
                               ({"weno_k": 2.0}, "unsupported reconstruction order")):
        with pytest.raises(ConfigurationError, match=message):
            resolve_run("sod_1d1d", **overrides)
    assert len(resolve_run("sod_1d1d", snapshots=3.0).snapshot_times) == 3


def test_collision_names_are_the_terms():
    # the names the command line takes are the terms make_rhs takes, with
    # boltzmann built into the velocity grid's SpectralPlan
    scen = get_scenario("sod_1d2v")
    for name in COLLISIONS:
        run = resolve_run(scen.name, preset="desk", collision=name)
        term, epsilon = run.collision
        assert epsilon == scen.epsilon
        if name == "boltzmann":
            assert isinstance(term, SpectralPlan) and term.modes == 16
        else:
            assert term == name
        assert describe(run)["collision"] == name


def test_double_sod_tuned_plan():
    # the spread collision band needs the tuned per-level factors; they must
    # survive preset and grid changes and yield the documented speedup
    from kinproj.planner import speedup

    for preset in ("paper", "desk"):
        run = resolve_run("double_sod_2d", preset=preset)
        assert run.plan.M == (6.66, 4.80)
        assert run.plan.h[0] == 5e-5
        assert run.plan.h[2] == pytest.approx(10.66 * 8.8 * 5e-5, rel=1e-12)
        assert speedup(run.plan) == pytest.approx(5.863, abs=5e-4)
    # explicit plan knobs still win over the stored factors
    run = resolve_run("double_sod_2d", levels=1, K=3)
    assert run.plan.levels == 1
    run = resolve_run("double_sod_2d", M=(5.0, 5.0))
    assert run.plan.M == (5.0, 5.0)


def test_explicit_m_ladder(tmp_path):
    run = resolve_run("sod_1d1d", integrator="tprk4", M=(14.24, 11.83), K=6)
    assert run.plan.levels == 2
    assert run.plan.h[2] == pytest.approx(21.24 * 18.83 * 1e-5, rel=1e-12)
    manifest = run_simulation(
        resolve_run("sod_1d1d", integrator="tprk4", M=(14.24, 11.83), K=6,
                    nx=(50,), nv=(32,), t_end=0.012, snapshots=2),
        tmp_path,
    )
    assert manifest["status"] == "completed"
    assert manifest["plan"]["M"] == [14.24, 11.83]
