"""Benchmark of kinproj's time integration, end to end and layer by layer.

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all

Run it from the root of a checkout: it imports kinproj from `src/` there.
One operation is one workload run to its end in a fresh worker process
(worker.py), through `resolve_run`, `initial_field` and `run_simulation`,
followed by its correctness checks; a rejected step or a failed check makes
it a failed operation. Operations repeat until S seconds have passed.

With `--trace 0` the run reports the end-to-end metrics: `wall_s`,
`rhs_evals` and `peak_rss_mib` as medians over its operations, and
`setup_s` as the median over those and over SETUP_SAMPLES set-up-only
processes. With `--trace 1` it makes the same untraced operations, then
one traced operation, and reports the per-layer metrics of that one;
`trace.overhead_s` is its wall time minus the untraced median. The seed
picks the cells the spectral oracle samples; the workload inputs are fixed.

A workload run ends within DEADLINE_S seconds, whatever `--seconds` says,
so that the whole run exits within three minutes: no operation starts
that would not fit, and one still running at the deadline is killed and
counts as failed. A metric with no value (every operation killed) is left
out of the result rather than printed as 0.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The exit code is 0 when
every operation passed, 1 when one failed, and 2 when the benchmark cannot
run (for example, no kinproj sources in the working directory).
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
OUT = ".perfbench_out"  # under the checkout root; holds snapshots and traces
SETUP_SAMPLES = 15
DEADLINE_S = 170.0  # per workload; an operation still running then fails
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("rhs_evals", "count"),
              ("peak_rss_mib", "MiB"))


def start_worker(root, mode, workload, seed, out_dir, timeout, trace_file=None):
    """Run worker.py to its end; (result dict or None, error text)."""
    cmd = [sys.executable, str(HERE / "worker.py"), mode, workload, str(seed), str(out_dir)]
    if trace_file is not None:
        cmd.append(str(trace_file))
    env = dict(os.environ)
    paths = [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:  # the child is killed and reaped
        return None, f"{mode} worker timed out after {timeout:.0f} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, proc.stderr.strip()[-2000:] or f"worker exited {proc.returncode}"
    return json.loads(lines[-1]), ""


def operation(root, workload, seed, tag, deadline, trace_file=None):
    """One workload run in a fresh process; the result gains `failed`."""
    out_dir = root / OUT / f"{workload}-s{seed}-{os.getpid()}-{tag}"
    shutil.rmtree(out_dir, ignore_errors=True)
    mode = "run" if trace_file is None else "trace"
    try:
        res, err = start_worker(root, mode, workload, seed, out_dir,
                                deadline - time.perf_counter(), trace_file)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    if res is None:
        return {"failed": True, "error": err, "checks": []}
    res["failed"] = res["status"] != "completed" or not all(c["ok"] for c in res["checks"])
    return res


def bench(root, workload, seed, seconds, trace):
    """All operations of one workload run: (ops, setup samples, traced op)."""
    deadline = time.perf_counter() + DEADLINE_S
    setups = []
    if not trace:
        for k in range(SETUP_SAMPLES):
            # the set-up writes the t = 0 snapshot before the first RHS call
            out_dir = root / OUT / f"{workload}-s{seed}-{os.getpid()}-setup{k}"
            try:
                res, err = start_worker(root, "setup", workload, seed, out_dir,
                                        deadline - time.perf_counter())
            finally:
                shutil.rmtree(out_dir, ignore_errors=True)
            if res is None:
                raise RuntimeError(f"set-up of {workload} failed: {err}")
            setups.append(res["setup_s"])
    ops = []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        ops.append(operation(root, workload, seed, len(ops), deadline))
        now = time.perf_counter()
        # whole operations only; the next one must fit before the deadline
        if now - start >= seconds or now + 1.5 * (now - t) > deadline:
            break
    traced = None
    if trace:
        trace_file = root / OUT / f"trace-{workload}-s{seed}.json"
        traced = operation(root, workload, seed, "trace", deadline, trace_file)
    setups += [op["setup_s"] for op in ops if "setup_s" in op]
    return ops, setups, traced


def summarize(workload, ops, setups, traced):
    """(metrics, attempted, failed, printable lines) of one workload run."""
    every = ops + ([traced] if traced is not None else [])
    failed = sum(op["failed"] for op in every)
    good = [op for op in ops if not op["failed"]] or [op for op in ops if "wall_s" in op]
    lines = [f"{workload}: {len(every)} operations, {failed} failed"]
    for op in every:
        if op.get("error"):
            lines.append(f"  error: {op['error']}")
        for c in op["checks"]:
            if not c["ok"] or op is every[0]:
                lines.append(f"  check {c['name']:<28} {c['value']:.3e} <= {c['bound']:.1e}"
                             f"  {'ok' if c['ok'] else 'FAILED'}")
    wall = [op["wall_s"] for op in good]
    metrics = {}
    if traced is None:
        values = {"wall_s": wall, "setup_s": setups,
                  "rhs_evals": [op["rhs_evals"] for op in good],
                  "peak_rss_mib": [op["peak_rss_mib"] for op in good]}
        for name, unit in END_TO_END:
            v = values[name]
            if not v:  # no operation finished: no figure rather than a 0
                lines.append(f"  {name:<14} no value")
                continue
            metrics[name] = {"value": statistics.median(v), "unit": unit}
            lines.append(f"  {name:<14} {metrics[name]['value']:.6g} {unit}  (median of {len(v)}"
                         + (f": {', '.join(f'{x:.4g}' for x in v)})" if name == "wall_s" else ")"))
    elif "layers" in traced:
        layers = dict(traced["layers"])
        layers["scenarios_cli.resolve_run_s"] = (traced["resolve_run_s"], "s")
        layers["scenarios_cli.initial_field_s"] = (traced["initial_field_s"], "s")
        untraced = statistics.median(wall) if wall else traced["wall_s"]
        layers["trace.overhead_s"] = (traced["wall_s"] - untraced, "s")
        for name, (value, unit) in layers.items():
            metrics[name] = {"value": value, "unit": unit}
            lines.append(f"  {name:<44} {value:.6g} {unit}")
    return metrics, len(every), failed, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "kinproj" / "scenarios_cli.py").is_file():
        print(f"error: no kinproj sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    (root / OUT).mkdir(exist_ok=True)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        try:
            ops, setups, traced = bench(root, name, args.seed, args.seconds, bool(args.trace))
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        m, a, f, lines = summarize(name, ops, setups, traced)
        print("\n".join(lines), flush=True)
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: v for k, v in m.items()})
        attempted += a
        failed += f
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
