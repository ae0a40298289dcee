"""The benchmark's workloads, resolved through `scenarios_cli.resolve_run`.

Each workload is a built-in scenario on its own grid with the overrides
listed here; no scenario data is altered. This module imports nothing
heavy, so a worker can load it before its set-up clock starts.
"""

WORKLOADS = {
    # Sod tube on the paper grid (100 cells x 80 nodes) with nu = rho and the
    # two-level TPRK4 ladder of acceptance criterion 3: 7,448 small RHS calls.
    "sod1d_tprk4": {
        "scenario": "sod_1d1d",
        "preset": "paper",
        "overrides": {"integrator": "tprk4", "collision": "bgk-rho", "K": 6,
                      "M": (14.24, 11.83), "t_end": 0.15, "snapshots": 2},
    },
    # Shock-bubble desk run to its own t_end = 0.8: 480 large BGK RHS calls.
    "bubble2d_bgk": {
        "scenario": "shock_bubble",
        "preset": "desk",
        "overrides": {},
    },
    # Double-Sod desk run with the spectral Boltzmann operator from t = 0
    # for a fixed simulated time: one top-level TPRK4 step of the desk plan,
    # h_2 = 5e-5 * (6.66 + 3 + 1) * (4.80 + 3 + 1), written as the float the
    # plan holds so that no remainder is landed (64 RHS calls). One step
    # keeps an operation near ten seconds, so a run takes the median of
    # several.
    "dsod2d_spectral": {
        "scenario": "double_sod_2d",
        "preset": "desk",
        "overrides": {"snapshots": 2, "t_end": 0.004690400000000001},
    },
}


def resolve(scenarios_cli, name):
    """The workload's ResolvedRun, built by the program's own resolve_run."""
    spec = WORKLOADS[name]
    return scenarios_cli.resolve_run(spec["scenario"], spec["preset"], **spec["overrides"])
