"""Benchmarks for the extension components built on the paper's ops:
TRNG throughput, bit-serial ALU latency, compiled-expression execution,
and the analytic in-DRAM-vs-bus throughput table.

Unlike figure regeneration (``perfbench/run.py``, one run per paper
artifact), these are conventional multi-round microbenchmarks of the
library itself.
"""

import numpy as np
import pytest

from repro import SeedTree, ideal_calibration, sk_hynix_chip
from repro.analysis.throughput import estimate_throughput
from repro.bender import DramBenderHost
from repro.core import (
    BitSerialAlu,
    BitwiseAccelerator,
    DramTrng,
    compile_expression,
    from_bit_slices,
    to_bit_slices,
)
from repro.core.compiler import And, Not, Or, Xor, v

from conftest import BENCH_SCALE


def _host(ideal: bool = False) -> DramBenderHost:
    config = sk_hynix_chip().with_geometry(BENCH_SCALE.geometry)
    module_kwargs = {"calibration": ideal_calibration()} if ideal else {}
    from repro.dram import Module

    return DramBenderHost(
        Module(config, chip_count=1, seed_tree=SeedTree(41), **module_kwargs)
    )


def test_trng_throughput(benchmark):
    host = _host()
    trng = DramTrng(host, bank=0, subarray=0, block_local_row=16)
    bits = benchmark(trng.random_bits, 256)
    assert bits.size == 256
    print(
        f"\n  raw bits consumed so far: {trng.raw_bits_generated} "
        f"(corrector keeps ~{256 / max(1, trng.raw_bits_generated) * 100:.0f}%"
        " per call shown)"
    )


def test_alu_add_latency(benchmark):
    host = _host(ideal=True)
    alu = BitSerialAlu(host, subarray_pair=(0, 1), maj_subarray=1)
    rng = np.random.default_rng(0)
    a = to_bit_slices(rng.integers(0, 256, alu.lanes), 8)
    b = to_bit_slices(rng.integers(0, 256, alu.lanes), 8)
    total = benchmark(alu.add, a, b)
    assert total.shape[0] == 9
    print(f"\n  {alu.lanes} parallel 8-bit additions per call")


def test_compiled_expression_execution(benchmark):
    host = _host(ideal=True)
    accelerator = BitwiseAccelerator(host, bank=0, subarray_pair=(0, 1))
    program = compile_expression(
        Or(And(v("a"), v("b")), Xor(v("c"), Not(v("d"))))
    )
    rng = np.random.default_rng(1)
    bindings = {
        name: rng.integers(0, 2, accelerator.vector_width, dtype=np.uint8)
        for name in "abcd"
    }
    result = benchmark(program.run, accelerator, bindings)
    assert result.size == accelerator.vector_width
    print(f"\n  schedule: {program.op_counts}")


def test_analytic_throughput_table(benchmark):
    def build():
        return {
            speed: estimate_throughput(sk_hynix_chip(speed_rate_mts=speed))
            for speed in (2133, 2400, 2666)
        }

    table = benchmark(build)
    print("\n  speed    op[ns]  in-DRAM[Gbit/s]  bus[Gbit/s]  speedup")
    for speed, estimate in table.items():
        print(
            f"  {speed}   {estimate.op_sequence_ns:7.1f}  "
            f"{estimate.in_dram_gbps:15.0f}  {estimate.bus_gbps:11.1f}  "
            f"{estimate.speedup_vs_bus:6.1f}x"
        )
    assert all(e.speedup_vs_bus > 10 for e in table.values())
