"""Check that two sets of benchmark runs of the same code agree.

    python3 perfbench/stability.py

Run it from the root of a checkout. For each workload of BENCHMARK.json it
makes two sets of RUNS untraced runs of perfbench/run.py, with seeds 1..RUNS
and RUNS+1..2*RUNS and the file's run_seconds. For each end-to-end metric it
prints both sets' medians and quartiles, as statistics.quantiles(values,
n=4) gives them, and it checks, against the metric's bound:

- the quartile spread (Q3 - Q1) / median of each set;
- the second median is not worse than the first by more than the bound;
- the share of failed operations is exactly the same in both sets.

It exits 0 when every check holds and 1 otherwise. The per-run results are
also written to .perfbench_out/stability.json.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUNS = 10


def one_run(root, workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=240)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{workload} seed {seed}: no result\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3, (q3 - q1) / statistics.median(values)


def worse_by(metric, first, second):
    """How much worse the second median is, as a share of the first."""
    change = (second - first) / first
    return change if metric["better"] == "lower" else -change


def main():
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    record = {}
    ok = True
    for name in (w["name"] for w in spec["workloads"]):
        sets = []
        for k in range(2):
            seeds = range(1 + k * RUNS, 1 + (k + 1) * RUNS)
            runs = [one_run(root, name, s, spec["run_seconds"]) for s in seeds]
            sets.append(runs)
            print(f"{name} set {k + 1}: " + " ".join(
                f"{r['metrics']['wall_s']['value']:.3f}" for r in runs) + " (wall_s)", flush=True)
        record[name] = sets
        shares = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
                  for runs in sets]
        same = shares[0] == shares[1]
        ok &= same
        print(f"{name}: failed share {shares[0]:.4g} / {shares[1]:.4g}"
              f"  {'ok' if same else 'DIFFERS'}")
        for metric in spec["end_to_end"]:
            m = metric["name"]
            stats = [spread([r["metrics"][m]["value"] for r in runs]) for runs in sets]
            bound = metric["bound"]
            steady = all(s[3] <= bound for s in stats)
            drift = worse_by(metric, stats[0][1], stats[1][1])
            verdict = steady and drift <= bound
            ok &= verdict
            cells = "  ".join(f"median {s[1]:.6g} q1 {s[0]:.6g} q3 {s[2]:.6g} spread {s[3]:.2%}"
                              for s in stats)
            print(f"  {m:<13} {cells}  worse by {drift:+.2%} (bound {bound:.0%})"
                  f"  {'ok' if verdict else 'DISAGREE'}")
    out = root / ".perfbench_out"
    out.mkdir(exist_ok=True)
    (out / "stability.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print("stable" if ok else "NOT stable")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
