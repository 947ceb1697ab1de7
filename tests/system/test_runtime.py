"""Tests for the end-to-end PuD runtime.

Covers vector storage, in-DRAM computation and movement, accounting,
and the service layer: verified job submission, reliability-aware
placement (backend probability estimates), and quarantine-aware
failover.
"""

import numpy as np
import pytest

from repro.errors import ReproError
from repro.substrate import SubstrateBackend
from repro.system import PudRuntime, RuntimeStats, VectorHandle


class EstimateStub(SubstrateBackend):
    """A backend serving canned per-fan-in probability estimates."""

    name = "estimate-stub"

    def __init__(self, estimates):
        self._estimates = dict(estimates)

    def find_not_measurement(self, target, n_destination, kind=None, regions=None):
        return None

    def find_logic_measurement(self, target, base_op, n_inputs, regions=None):
        return None

    def not_measurement_at(self, host, bank, src_row, dst_row):
        raise NotImplementedError

    def logic_measurement_at(self, host, bank, ref_row, com_row, base_op="and"):
        raise NotImplementedError

    def probability(
        self, operation, fan_in, temperature_c=50.0, pattern="random",
        spec_name=None, distance="any",
    ):
        return self._estimates.get(fan_in)


@pytest.fixture()
def runtime(ideal_host):
    return PudRuntime(ideal_host, bank=0, subarray_pair=(0, 1))


def vectors(runtime, count, seed=0):
    rng = np.random.default_rng(seed)
    return [
        rng.integers(0, 2, runtime.lane_count, dtype=np.uint8)
        for _ in range(count)
    ]


class TestStorage:
    def test_store_load_round_trip(self, runtime):
        (bits,) = vectors(runtime, 1, seed=1)
        handle = runtime.store(bits)
        assert np.array_equal(runtime.load(handle), bits)

    def test_store_both_sides(self, runtime):
        (bits,) = vectors(runtime, 1, seed=2)
        for side in (0, 1):
            handle = runtime.store(bits, side=side)
            assert handle.side == side
            assert np.array_equal(runtime.load(handle), bits)

    def test_free_returns_slot(self, runtime):
        before = runtime.free_slots(1)
        handle = runtime.store(vectors(runtime, 1)[0])
        assert runtime.free_slots(1) == before - 1
        runtime.free(handle)
        assert runtime.free_slots(1) == before

    def test_double_free_rejected(self, runtime):
        handle = runtime.store(vectors(runtime, 1)[0])
        runtime.free(handle)
        with pytest.raises(ReproError):
            runtime.free(handle)

    def test_load_after_free_rejected(self, runtime):
        handle = runtime.store(vectors(runtime, 1)[0])
        runtime.free(handle)
        with pytest.raises(ReproError):
            runtime.load(handle)

    def test_exhaustion_raises(self, runtime):
        with pytest.raises(ReproError):
            for _ in range(10_000):
                runtime.store(vectors(runtime, 1)[0])

    def test_wrong_width_rejected(self, runtime):
        with pytest.raises(ValueError):
            runtime.store(np.zeros(3, dtype=np.uint8))

    def test_handles_are_unique(self, runtime):
        a = runtime.store(vectors(runtime, 1)[0])
        runtime.free(a)
        b = runtime.store(vectors(runtime, 1)[0])
        # The slot may be reused, but the handle must not compare equal.
        assert a != b


class TestComputation:
    def test_and_or(self, runtime):
        a_bits, b_bits = vectors(runtime, 2, seed=3)
        a, b = runtime.store(a_bits), runtime.store(b_bits)
        assert np.array_equal(runtime.load(runtime.and_(a, b)), a_bits & b_bits)
        assert np.array_equal(runtime.load(runtime.or_(a, b)), a_bits | b_bits)

    def test_nand_nor_land_on_other_side(self, runtime):
        a_bits, b_bits = vectors(runtime, 2, seed=4)
        a, b = runtime.store(a_bits), runtime.store(b_bits)
        result = runtime.nand(a, b)
        assert result.side == 0  # operands on side 1, complement side 0
        assert np.array_equal(runtime.load(result), 1 - (a_bits & b_bits))
        result = runtime.nor(a, b)
        assert np.array_equal(runtime.load(result), 1 - (a_bits | b_bits))

    def test_many_input_with_padding(self, runtime):
        operands = vectors(runtime, 5, seed=5)
        handles = [runtime.store(bits) for bits in operands]
        expected = operands[0].copy()
        for bits in operands[1:]:
            expected &= bits
        assert np.array_equal(
            runtime.load(runtime.and_(*handles)), expected
        )

    def test_not_crosses_and_inverts(self, runtime):
        (bits,) = vectors(runtime, 1, seed=6)
        handle = runtime.store(bits, side=1)
        result = runtime.not_(handle)
        assert result.side == 0
        assert np.array_equal(runtime.load(result), 1 - bits)

    def test_xor(self, runtime):
        a_bits, b_bits = vectors(runtime, 2, seed=7)
        a, b = runtime.store(a_bits), runtime.store(b_bits)
        assert np.array_equal(runtime.load(runtime.xor(a, b)), a_bits ^ b_bits)

    def test_mixed_side_operands_colocated(self, runtime):
        a_bits, b_bits = vectors(runtime, 2, seed=8)
        a = runtime.store(a_bits, side=0)
        b = runtime.store(b_bits, side=1)
        result = runtime.and_(a, b)
        assert np.array_equal(runtime.load(result), a_bits & b_bits)
        assert runtime.stats.host_transfers >= 1

    def test_operations_do_not_corrupt_stored_vectors(self, runtime):
        stored = vectors(runtime, 6, seed=9)
        handles = [runtime.store(bits) for bits in stored]
        runtime.and_(handles[0], handles[1])
        runtime.xor(handles[2], handles[3])
        runtime.not_(handles[4])
        for handle, bits in zip(handles, stored):
            assert np.array_equal(runtime.load(handle), bits)


class TestMovement:
    def test_move_preserves_value(self, runtime):
        (bits,) = vectors(runtime, 1, seed=10)
        handle = runtime.store(bits, side=1)
        moved = runtime.move(handle, 0)
        assert moved.side == 0
        assert np.array_equal(runtime.load(moved), bits)

    def test_move_same_side_is_free(self, runtime):
        handle = runtime.store(vectors(runtime, 1)[0], side=1)
        before = runtime.stats.host_transfers
        assert runtime.move(handle, 1) is handle
        assert runtime.stats.host_transfers == before

    def test_cross_side_move_costs_a_host_transfer(self, runtime):
        handle = runtime.store(vectors(runtime, 1)[0], side=1)
        before = runtime.stats.host_transfers
        runtime.move(handle, 0)
        assert runtime.stats.host_transfers == before + 1


class TestAccounting:
    def test_stats_count_primitives(self, runtime):
        a_bits, b_bits = vectors(runtime, 2, seed=11)
        a, b = runtime.store(a_bits), runtime.store(b_bits)
        runtime.and_(a, b)
        stats = runtime.stats
        assert stats.logic_ops == 1
        assert stats.rowclones >= 2  # operands in, result out
        assert stats.total_programs == (
            stats.logic_ops + stats.not_ops + stats.rowclones
        )

    def test_xor_costs_three_logic_ops(self, runtime):
        a_bits, b_bits = vectors(runtime, 2, seed=12)
        a, b = runtime.store(a_bits), runtime.store(b_bits)
        before = runtime.stats.logic_ops
        runtime.xor(a, b)
        assert runtime.stats.logic_ops - before == 3

    def test_runtime_stats_repr(self):
        text = str(RuntimeStats(logic_ops=2, not_ops=1, rowclones=5))
        assert "2 logic ops" in text


class TestJobSubmission:
    def test_and_job_verifies_first_try(self, runtime):
        a_bits, b_bits = vectors(runtime, 2, seed=20)
        result = runtime.submit_job("and", [a_bits, b_bits])
        assert np.array_equal(result.output, a_bits & b_bits)
        assert result.op == "and"
        assert result.attempts == 1
        assert result.quarantined == ()
        assert runtime.stats.jobs_submitted == 1
        assert runtime.stats.verify_failures == 0

    def test_complemented_ops_verify(self, runtime):
        a_bits, b_bits = vectors(runtime, 2, seed=21)
        nand = runtime.submit_job("nand", [a_bits, b_bits])
        assert np.array_equal(nand.output, 1 - (a_bits & b_bits))
        nor = runtime.submit_job("nor", [a_bits, b_bits])
        assert np.array_equal(nor.output, 1 - (a_bits | b_bits))

    def test_many_operand_job(self, runtime):
        operands = vectors(runtime, 3, seed=22)
        result = runtime.submit_job("or", operands)
        expected = operands[0] | operands[1] | operands[2]
        assert np.array_equal(result.output, expected)
        # 3 operands need a fan-in >= 4 block.
        assert result.block[1] >= 4

    def test_rejects_unsupported_op(self, runtime):
        operands = vectors(runtime, 2, seed=23)
        with pytest.raises(ReproError):
            runtime.submit_job("xor", operands)

    def test_rejects_single_operand(self, runtime):
        (bits,) = vectors(runtime, 1, seed=24)
        with pytest.raises(ReproError):
            runtime.submit_job("and", [bits])

    def test_rejects_bad_side(self, runtime):
        operands = vectors(runtime, 2, seed=25)
        with pytest.raises(ReproError):
            runtime.submit_job("and", operands, side=2)

    def test_job_releases_all_slots(self, runtime):
        before = runtime.free_slots()
        operands = vectors(runtime, 2, seed=26)
        runtime.submit_job("and", operands)
        assert runtime.free_slots() == before


class TestPlacement:
    def test_default_policy_is_smallest_sufficient_fan_in(self, runtime):
        operands = vectors(runtime, 2, seed=30)
        result = runtime.submit_job("and", operands)
        assert result.block == (1, 2)

    def test_backend_estimates_prefer_best_block(self, ideal_host):
        backend = EstimateStub({2: 0.7, 4: 0.8, 8: 0.95, 16: 0.9})
        runtime = PudRuntime(
            ideal_host, bank=0, subarray_pair=(0, 1), backend=backend
        )
        rng = np.random.default_rng(31)
        operands = [
            rng.integers(0, 2, runtime.lane_count, dtype=np.uint8)
            for _ in range(2)
        ]
        result = runtime.submit_job("and", operands)
        assert result.block == (1, 8)

    def test_estimate_ties_go_to_smallest_fan_in(self, ideal_host):
        backend = EstimateStub({2: 0.9, 4: 0.9, 8: 0.9, 16: 0.9})
        runtime = PudRuntime(
            ideal_host, bank=0, subarray_pair=(0, 1), backend=backend
        )
        rng = np.random.default_rng(32)
        operands = [
            rng.integers(0, 2, runtime.lane_count, dtype=np.uint8)
            for _ in range(2)
        ]
        assert runtime.submit_job("and", operands).block == (1, 2)

    def test_min_block_success_filters_candidates(self, ideal_host):
        backend = EstimateStub({2: 0.5, 4: 0.6, 8: 0.85, 16: 0.8})
        runtime = PudRuntime(
            ideal_host, bank=0, subarray_pair=(0, 1),
            backend=backend, min_block_success=0.75,
        )
        rng = np.random.default_rng(33)
        operands = [
            rng.integers(0, 2, runtime.lane_count, dtype=np.uint8)
            for _ in range(2)
        ]
        assert runtime.submit_job("and", operands).block == (1, 8)

    def test_block_estimate_is_none_without_backend(self, runtime):
        assert runtime.block_estimate(2) is None


class TestQuarantine:
    def test_quarantine_redirects_placement(self, runtime):
        runtime.quarantine_block(1, 2)
        operands = vectors(runtime, 2, seed=40)
        result = runtime.submit_job("and", operands)
        assert result.block == (1, 4)
        assert runtime.quarantined_blocks() == {(1, 2)}

    def test_quarantine_unknown_block_rejected(self, runtime):
        with pytest.raises(ReproError):
            runtime.quarantine_block(1, 3)

    def test_failover_crosses_to_other_side(self, runtime):
        for n in (2, 4, 8, 16):
            runtime.quarantine_block(1, n)
        transfers_before = runtime.stats.host_transfers
        operands = vectors(runtime, 2, seed=41)
        result = runtime.submit_job("and", operands, side=1)
        assert result.block[0] == 0
        # Crossing re-stages each operand through the controller.
        assert runtime.stats.host_transfers == transfers_before + 2

    def test_no_eligible_block_anywhere_raises(self, runtime):
        for side in (0, 1):
            for n in (2, 4, 8, 16):
                runtime.quarantine_block(side, n)
        operands = vectors(runtime, 2, seed=42)
        with pytest.raises(ReproError, match="no eligible"):
            runtime.submit_job("and", operands)

    def test_noisy_die_quarantines_and_exhausts(self, real_host):
        # All-lane verification on a calibrated noisy die fails with
        # near certainty, so the job walks the failover chain and gives
        # up after max_failovers, leaving the failed blocks quarantined.
        runtime = PudRuntime(real_host, bank=0, subarray_pair=(0, 1))
        before = runtime.free_slots()
        rng = np.random.default_rng(43)
        operands = [
            rng.integers(0, 2, runtime.lane_count, dtype=np.uint8)
            for _ in range(2)
        ]
        with pytest.raises(ReproError, match="failed verification"):
            runtime.submit_job("and", operands, max_failovers=2)
        assert runtime.stats.verify_failures == 3
        assert runtime.stats.failovers == 2
        assert len(runtime.quarantined_blocks()) == 3
        # Slots still come back on failure.
        assert runtime.free_slots() == before


class TestSlotLeaks:
    """Once the client frees every handle it received, every slot the
    runtime used internally is back in the pools."""

    def test_xor(self, runtime):
        before = runtime.free_slots()
        a_bits, b_bits = vectors(runtime, 2, seed=50)
        a, b = runtime.store(a_bits), runtime.store(b_bits)
        result = runtime.xor(a, b)
        assert np.array_equal(runtime.load(result), a_bits ^ b_bits)
        for handle in (a, b, result):
            runtime.free(handle)
        assert runtime.free_slots() == before

    def test_and_with_operand_on_other_side(self, runtime):
        before = runtime.free_slots()
        bits = vectors(runtime, 3, seed=51)
        handles = [
            runtime.store(bits[0], side=1),
            runtime.store(bits[1], side=1),
            runtime.store(bits[2], side=0),
        ]
        result = runtime.and_(*handles)
        assert np.array_equal(runtime.load(result), bits[0] & bits[1] & bits[2])
        for handle in handles + [result]:
            runtime.free(handle)
        assert runtime.free_slots() == before

    def test_submit_job_side_switch(self, runtime):
        for n in (2, 4, 8, 16):
            runtime.quarantine_block(1, n)
        before = runtime.free_slots()
        result = runtime.submit_job("and", vectors(runtime, 2, seed=52), side=1)
        assert result.block[0] == 0
        assert runtime.free_slots() == before


class TestRealChip:
    def test_runtime_works_on_calibrated_die(self, real_host):
        runtime = PudRuntime(real_host, bank=0, subarray_pair=(0, 1))
        rng = np.random.default_rng(13)
        a_bits = rng.integers(0, 2, runtime.lane_count, dtype=np.uint8)
        b_bits = rng.integers(0, 2, runtime.lane_count, dtype=np.uint8)
        a, b = runtime.store(a_bits), runtime.store(b_bits)
        result = runtime.load(runtime.and_(a, b))
        agreement = float(np.mean(result == (a_bits & b_bits)))
        assert agreement > 0.6  # imperfect, per the characterization
