"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig9_default --seed 0 --seconds 10 --trace 0

``--trace 0`` runs units of the workload back to back, untraced, for at
least ``--seconds`` seconds and reports the end-to-end metrics, with
times in reference seconds (see ``clock.py``).  It
fails if a figure experiment raises, if an isolated runtime request
raises or returns a vector that differs from the NumPy reference, or if
two units differ on any output or work counter.
``--trace 1`` runs one untraced unit and then two traced units of the
same seed, reports the per-layer metrics of the first traced unit and
the tracing overhead, writes its spans under ``perfbench/out/``, and
fails if the traced units disagree with the untraced one on any output
or with each other on any work counter.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are a human-readable report.  The exit code is 0 only when every
output check passed.  See ``perfbench/README.md`` for the workloads and
metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: name -> unit, reported with ``--trace 0`` on every workload.  Times
#: are seconds at the reference host speed (see clock.py).
END_TO_END = {
    "setup_s": "s",
    "wall_ref_s": "s",
    "peak_rss_mb": "MB",
}

#: Registry ids with a per-experiment wall time in the traced run.
REGISTRY_IDS = (
    "capability", "fig10", "fig11", "fig12", "fig15", "fig16", "fig17",
    "fig18", "fig19", "fig20", "fig21", "fig5", "fig7", "fig8", "fig9",
    "frontier", "table1",
)

#: name -> unit, reported with ``--trace 1`` on every workload.
PER_LAYER = {
    "core.addressing.s": "s",
    "core.addressing.calls": "count",
    "core.addressing.hits": "count",
    "core.addressing.probes": "count",
    "core.addressing.hit_ratio": "ratio",
    "dram.decoder.s": "s",
    "dram.decoder.probes": "count",
    "core.success.self_s": "s",
    "core.success.calls": "count",
    "core.success.trials": "count",
    "bender.executor.self_s": "s",
    "bender.executor.programs": "count",
    "bender.executor.commands": "count",
    "staticcheck.fc.s": "s",
    "staticcheck.fc.calls": "count",
    "staticcheck.sem.s": "s",
    "dram.analog.s": "s",
    "dram.analog.calls": "count",
    "rng.generators": "count",
    "reveng.s": "s",
    "reveng.probes": "count",
    "characterization.fleet.s": "s",
    "characterization.fleet.targets": "count",
    "characterization.metrics.s": "s",
    "characterization.sweep.self_s": "s",
    "system.runtime.self_s": "s",
    "system.runtime.calls": "count",
    "system.runtime.host_transfers": "count",
    "system.runtime.failovers": "count",
    "system.runtime.quarantined": "count",
    "system.runtime.slots_leaked": "count",
    "system.runtime.isolated_slots_leaked": "count",
    "trace.unit_s": "s",
    "trace.overhead_s": "s",
    "untraced.wall_ref_s": "s",
    "untraced.cpu_s": "s",
    **{f"registry.{experiment}.s": "s" for experiment in REGISTRY_IDS},
}

#: Per-layer metrics that count work: exact across runs of one seed.
WORK_COUNTERS = tuple(
    name for name, unit in PER_LAYER.items() if unit == "count"
) + ("core.addressing.hit_ratio",)


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--reduced",
        action="store_true",
        help="smoke-sized units (for the benchmark's own tests)",
    )
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _setup_child(args: argparse.Namespace) -> int:
    """Import the package and build the workload's program state under
    the speed probe; print the time taken in reference and wall seconds."""
    start = time.perf_counter()
    from clock import ReferenceClock

    with ReferenceClock() as clock:
        import workloads

        workloads.make(args.workload, reduced=args.reduced).prepare(args.seed)
        end = time.perf_counter()
    print(json.dumps({
        "ref_s": clock.reference_s(start, end),
        "wall_s": end - start - clock.probe_s(start, end),
    }))
    return 0


def _time_setups(args: argparse.Namespace) -> List[Dict[str, float]]:
    """Set-up times of ``SETUP_REPEATS`` fresh interpreters that import the
    package and build the workload's program state, then exit."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--setup-child",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", "0", "--trace", "0",
    ] + (["--reduced"] if args.reduced else [])
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        done = subprocess.run(
            command, check=True, timeout=120, stdout=subprocess.PIPE, text=True
        )
        sample = json.loads(done.stdout.strip().splitlines()[-1])
        sample["process_s"] = time.perf_counter() - start
        samples.append(sample)
    return samples


def _quantile(values: List[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _check_same(label: str, a, b, problems: List[str]) -> None:
    if a != b:
        problems.append(f"{label} differs: {a!r} != {b!r}")


def _layer_metrics(tracer, unit, traced_wall: float, overhead: float) -> Dict[str, float]:
    total, self_s, calls, counters = (
        tracer.total_s, tracer.self_s, tracer.calls, tracer.counters
    )
    probes = counters["core.addressing.probes"]
    values = {
        "core.addressing.s": total["core.addressing"],
        "core.addressing.calls": calls["core.addressing"],
        "core.addressing.hits": counters["core.addressing.hits"],
        "core.addressing.probes": probes,
        "core.addressing.hit_ratio": (
            counters["core.addressing.hits"] / probes if probes else 0.0
        ),
        "dram.decoder.s": total["dram.decoder"],
        "dram.decoder.probes": calls["dram.decoder"],
        "core.success.self_s": self_s["core.success"],
        "core.success.calls": calls["core.success"],
        "core.success.trials": counters["core.success.trials"],
        "bender.executor.self_s": self_s["bender.executor"],
        "bender.executor.programs": counters["bender.executor.programs"],
        "bender.executor.commands": counters["bender.executor.commands"],
        "staticcheck.fc.s": total["staticcheck.fc"],
        "staticcheck.fc.calls": calls["staticcheck.fc"],
        "staticcheck.sem.s": total["staticcheck.sem"],
        "dram.analog.s": total["dram.analog"],
        "dram.analog.calls": calls["dram.analog"],
        "rng.generators": counters["rng.generators"],
        "reveng.s": total["reveng"],
        "reveng.probes": counters["reveng.probes"],
        "characterization.fleet.s": total["characterization.fleet"],
        "characterization.fleet.targets": counters["characterization.fleet.targets"],
        "characterization.metrics.s": total["characterization.metrics"],
        "characterization.sweep.self_s": self_s["characterization.sweep"],
        "system.runtime.self_s": self_s["system.runtime"],
        "system.runtime.calls": calls["system.runtime"],
        "trace.unit_s": traced_wall,
        "trace.overhead_s": overhead,
    }
    for name in ("host_transfers", "failovers", "quarantined", "slots_leaked",
                 "isolated_slots_leaked"):
        values[f"system.runtime.{name}"] = unit.counters.get(f"system.runtime.{name}", 0)
    for experiment in REGISTRY_IDS:
        values[f"registry.{experiment}.s"] = unit.experiment_s.get(experiment, 0.0)
    return values


def _run_untraced(workload, args) -> Tuple[list, List[str]]:
    """Units back to back for ``--seconds``; every unit must repeat the
    first one's outputs and counts exactly."""
    from clock import ReferenceClock

    units = []
    problems: List[str] = []
    start = time.perf_counter()
    with ReferenceClock() as clock:
        while True:
            context = workload.prepare(args.seed)
            units.append(workload.run(context, args.seed, clock))
            if time.perf_counter() - start >= args.seconds:
                break
    first = units[0]
    problems.extend(problem for unit in units for problem in unit.problems)
    for unit in units[1:]:
        _check_same("repeated unit digests", first.digests, unit.digests, problems)
        _check_same("repeated unit counters", first.counters, unit.counters, problems)
    return units, problems


def _run_traced(workload, args):
    """One untraced unit, then two traced ones (spans kept from the first).

    The tracing overhead compares whole units in reference seconds, so a
    change of machine speed between them does not read as overhead."""
    from clock import ReferenceClock
    from tracing import Tracer, instrument

    def whole_unit(tracer=None):
        context = workload.prepare(args.seed)
        start = time.perf_counter()
        if tracer is None:
            unit = workload.run(context, args.seed, clock)
        else:
            with instrument(tracer):
                unit = workload.run(context, args.seed, clock, tracer)
        end = time.perf_counter()
        return unit, end - start, clock.reference_s(start, end)

    with ReferenceClock() as clock:
        untraced, _, untraced_ref = whole_unit()
        traced = [(tracer,) + whole_unit(tracer) for tracer in (Tracer(), Tracer())]
    problems: List[str] = list(untraced.problems)
    for label, (_, unit, _, _) in zip(("traced run 1", "traced run 2"), traced):
        _check_same(f"{label} digests", untraced.digests, unit.digests, problems)
        _check_same(f"{label} failures", untraced.failed, unit.failed, problems)
        _check_same(
            f"{label} paper errors", untraced.paper_errors_pp, unit.paper_errors_pp, problems
        )
        _check_same(f"{label} counters", untraced.counters, unit.counters, problems)
    layers = [
        _layer_metrics(tracer, unit, wall, ref - untraced_ref)
        for tracer, unit, wall, ref in traced
    ]
    for name in WORK_COUNTERS:
        _check_same(f"work counter {name}", layers[0][name], layers[1][name], problems)
    # The untraced unit's speed-corrected time next to its raw CPU time,
    # so the correction can be checked against an uncorrected figure.
    layers[0]["untraced.wall_ref_s"] = untraced.ref_s
    layers[0]["untraced.cpu_s"] = untraced.cpu_s
    return untraced, traced[0][0], layers[0], problems


def _report_untraced(args, units, setups) -> Dict[str, float]:
    latencies = [ms for unit in units for ms in unit.latencies_ms]
    attempted = sum(unit.attempted for unit in units)
    failed = sum(unit.failed for unit in units)
    wrong = sum(unit.wrong for unit in units)
    metrics = {
        "setup_s": statistics.median(sample["ref_s"] for sample in setups),
        "wall_ref_s": statistics.median(unit.ref_s for unit in units),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(f"== {args.workload} seed={args.seed} untraced, {len(units)} unit(s) ==")
    for name, value in metrics.items():
        print(f"  {name:<24} {value:12.6g} {END_TO_END[name]}")
    raw = {
        "setup_wall_s": statistics.median(sample["wall_s"] for sample in setups),
        "setup_process_s": statistics.median(sample["process_s"] for sample in setups),
        "wall_s": statistics.median(unit.wall_s for unit in units),
        "cpu_s": statistics.median(unit.cpu_s for unit in units),
    }
    for name, value in raw.items():
        print(f"  {name:<24} {value:12.6g} s  (host time, not speed-corrected)")
    print(f"  {'failed_frac':<24} {failed / attempted:12.6g} ratio"
          f"  ({failed} of {attempted} failed, {wrong} with a wrong output)")
    if latencies:
        print(f"  {'op_p50_ms':<24} {statistics.median(latencies):12.6g} ms"
              f"  (over {len(latencies)} completed)")
    # A percentile is reported only with at least ten samples beyond it.
    if len(latencies) >= 1000:
        print(f"  {'op_p99_ms':<24} {_quantile(latencies, 0.99):12.6g} ms")
    errors = units[0].paper_errors_pp
    if errors:
        print(f"  {'paper_err_pp':<24} {statistics.fmean(errors):12.6g} pp"
              f"  (mean over {len(errors)} anchors, in-sample)")
    for name, (value, unit) in units[0].report.items():
        print(f"  {name:<24} {value:12.6g} {unit}")
    for name, value in sorted(units[0].counters.items()):
        print(f"  {name:<40} {value}")
    for name, count in sorted(units[0].errors.items()):
        print(f"  error {name}: {count} per unit")
    for experiment, digest in units[0].digests.items():
        print(f"  digest {experiment} {digest}")
    return metrics


def _report_traced(args, untraced, tracer, layers) -> Dict[str, float]:
    traced_wall = layers["trace.unit_s"]
    print(f"== {args.workload} seed={args.seed} traced ==")
    print(f"  traced unit {traced_wall:.4f} s host time; tracing overhead "
          f"{layers['trace.overhead_s']:+.4f} reference s")
    print(f"  {'layer':<28} {'calls':>9} {'incl_s':>10} {'self_s':>10} {'self%':>7}")
    rows = tracer.layer_table()
    rows.append(("(outside any span)", 0, 0.0, traced_wall - sum(row[3] for row in rows)))
    for layer, calls, total, self_s in rows:
        print(f"  {layer:<28} {calls:9d} {total:10.4f} {self_s:10.4f} "
              f"{100.0 * self_s / traced_wall:6.1f}%")
    for name, value in layers.items():
        print(f"  {name:<36} {value:.6g} {PER_LAYER[name]}")
    for experiment, digest in untraced.digests.items():
        print(f"  digest {experiment} {digest}")
    out = HERE / "out" / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.write(out)
    print(f"  spans written to {out.relative_to(ROOT)}")
    return layers


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path[:0] = [str(SRC), str(HERE)]
    if args.setup_child:
        return _setup_child(args)
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; "
              f"known: {', '.join(workloads.NAMES)}", file=sys.stderr)
        return 2
    workload = workloads.make(args.workload, reduced=args.reduced)

    if args.trace:
        untraced, tracer, layers, problems = _run_traced(workload, args)
        units = [untraced]
        metrics = _report_traced(args, untraced, tracer, layers)
        units_meta = PER_LAYER
    else:
        setups = _time_setups(args)
        units, problems = _run_untraced(workload, args)
        metrics = _report_untraced(args, units, setups)
        units_meta = END_TO_END
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    result = {
        "correct": not problems,
        "attempted": sum(unit.attempted for unit in units),
        "failed": sum(unit.failed for unit in units),
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units_meta.items()
        },
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
