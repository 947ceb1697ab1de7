"""Shared benchmark configuration.

The ablation and extension benches import :data:`BENCH_SCALE`.  Figure
regeneration is benchmarked by ``perfbench/run.py`` (the
``registry_smoke`` workload runs every experiment); ``python -m
repro.characterization <id>`` regenerates a single figure.
"""

from __future__ import annotations

from repro.characterization import Scale
from repro.dram.config import ChipGeometry

#: Benchmark scale: one small module per Table-1 spec type — large
#: enough for every trend to show, small enough for the suite to finish
#: in minutes.
BENCH_SCALE = Scale(
    name="bench",
    modules_per_spec=1,
    chips_per_module=1,
    banks_per_module=1,
    pairs_per_bank=1,
    trials=80,
    geometry=ChipGeometry(
        banks=1, subarrays_per_bank=2, rows_per_subarray=96, columns=48
    ),
)
