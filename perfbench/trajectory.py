"""Measure every workload over several seeds and append a trajectory entry.

Usage (from the repository root)::

    python3 perfbench/trajectory.py --label "what changed"

For each workload in ``BENCHMARK.json`` this runs ``perfbench/run.py``
untraced once per seed (seeds ``0 .. 9``) and traced once (seed 0).
It prints, per end-to-end metric, the median, the quartiles and their
distance as a share of the median (the spread, as
``statistics.quantiles(values, n=4)`` gives it) next to the metric's
bound, exits with code 1 if any spread is over its bound, and appends one entry to ``perfbench/trajectory.json``: the
quartiles with sample counts, the traced run's per-layer metrics, and the
git sha, Python and NumPy versions and CPU count of the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Untraced runs per workload, one per seed ``0 .. SEEDS-1``.
SEEDS = 10


def _run(workload: str, seed: int, trace: int, seconds: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n"
                         f"{done.stdout}\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _git_sha() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return done.stdout.strip() or "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", default="")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]
    seeds = list(range(SEEDS))

    import numpy

    entry = {
        "label": args.label,
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "run_seconds": spec["run_seconds"],
        "seeds": seeds,
        "workloads": {},
    }
    all_within = True
    for workload in names:
        results = [_run(workload, seed, 0, spec["run_seconds"]) for seed in seeds]
        summary = {
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "end_to_end": {},
        }
        print(f"== {workload} ({len(seeds)} seeds) ==")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / statistics.median(values)
            summary["end_to_end"][name] = {
                "unit": metric["unit"], "n": len(values),
                "median": statistics.median(values), "q1": q1, "q3": q3,
                "spread": spread, "values": values,
            }
            verdict = "ok" if spread <= bounds[name] / 3 else (
                "within bound" if spread <= bounds[name] else "OVER BOUND")
            if spread > bounds[name]:
                all_within = False
            print(f"  {name:<12} median {statistics.median(values):10.5g} {metric['unit']:<5}"
                  f" q1 {q1:10.5g} q3 {q3:10.5g} spread {spread:6.3f}"
                  f" bound {bounds[name]:.2f}  {verdict}")
        traced = _run(workload, seeds[0], 1, spec["run_seconds"])
        summary["traced_seed"] = seeds[0]
        summary["per_layer"] = {
            name: m["value"] for name, m in traced["metrics"].items()
        }
        entry["workloads"][workload] = summary

    out = HERE / "trajectory.json"
    history = json.loads(out.read_text()) if out.exists() else []
    history.append(entry)
    out.write_text(json.dumps(history, indent=1) + "\n")
    print(f"appended entry {len(history)} to {out}")
    return 0 if all_within else 1


if __name__ == "__main__":
    sys.exit(main())
