"""Batched trial engine vs serial path: bit-identity contract.

The batched engine (``batch_trials=0`` / ``k>1``) must produce the
exact success counts of the serial per-trial loop (``batch_trials=1``)
— per measurement, under fault injection, and through the sweep /
process-pool layers.  These tests pin that contract across every
operation family: NOT, and AND/NAND plus OR/NOR (each logic measurement
yields both terminals).
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import SeedTree, micron_chip, samsung_chip, sk_hynix_chip
from repro.characterization import Resilience, RetryPolicy, run_experiment
from repro.characterization.runner import (
    DEFAULT,
    FULL,
    SMOKE,
    find_logic_measurement,
    find_not_measurement,
    iter_descriptors,
    iter_targets,
    materialize_targets,
)
from repro.core.success import DEFAULT_TRIAL_BLOCK, _trial_blocks
from repro.dram.batch import BatchedBank
from repro.dram.calibration import calibration_for
from repro.dram.module import Module
from repro.errors import AddressError
from repro.faults import FaultPlan

# The random ACT/PRE/WR/RD/NOP streams of the bank property tests, on
# their 2-subarray x 96-row x 32-column geometry.
from dram.test_bank_properties import GEOMETRY as STREAM_GEOMETRY
from dram.test_bank_properties import streams

#: Engines under test: serial, auto-batched, and a block size that does
#: not divide the trial count (forces a ragged final block).
ENGINES = (1, 0, 7)

TRIALS = 9

#: Cell-level faults active during the fault-injected equivalence runs.
CELL_FAULT_PLAN = FaultPlan(seed=2, stuck_row_rate=0.05, flaky_read_rate=0.1)


def _not_counts(seed, n_destination, batch_trials, faults=None):
    descriptors = iter_descriptors(SMOKE)
    for target in materialize_targets(descriptors, SMOKE, seed, faults=faults):
        measurement = find_not_measurement(target, n_destination)
        if measurement is None:
            continue
        result = measurement.run(
            TRIALS, np.random.default_rng(seed), batch_trials=batch_trials
        )
        return result.success_counts
    return None


def _logic_counts(seed, base_op, n_inputs, batch_trials, faults=None):
    descriptors = iter_descriptors(SMOKE)
    for target in materialize_targets(descriptors, SMOKE, seed, faults=faults):
        measurement = find_logic_measurement(target, base_op, n_inputs)
        if measurement is None:
            continue
        pair = measurement.run(
            TRIALS, np.random.default_rng(seed), batch_trials=batch_trials
        )
        # Primary and complement cover AND+NAND (or OR+NOR) at once.
        return pair.primary.success_counts, pair.complement.success_counts
    return None


class TestNotEquivalence:
    @pytest.mark.parametrize("n_destination", [2, 4, 8, 16])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_batched_counts_identical(self, n_destination, seed):
        serial = _not_counts(seed, n_destination, batch_trials=1)
        if serial is None:
            pytest.skip(f"no target supports {n_destination} destinations")
        for engine in ENGINES[1:]:
            batched = _not_counts(seed, n_destination, batch_trials=engine)
            assert np.array_equal(serial, batched), (
                f"NOT n={n_destination} diverged at batch_trials={engine}"
            )

    @pytest.mark.parametrize("seed", [0, 3])
    def test_batched_counts_identical_under_faults(self, seed):
        serial = _not_counts(seed, 2, batch_trials=1, faults=CELL_FAULT_PLAN)
        assert serial is not None
        for engine in ENGINES[1:]:
            batched = _not_counts(
                seed, 2, batch_trials=engine, faults=CELL_FAULT_PLAN
            )
            assert np.array_equal(serial, batched)


class TestLogicEquivalence:
    @pytest.mark.parametrize("base_op", ["and", "or"])
    @pytest.mark.parametrize("n_inputs", [2, 4, 8, 16])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_batched_pair_identical(self, base_op, n_inputs, seed):
        serial = _logic_counts(seed, base_op, n_inputs, batch_trials=1)
        if serial is None:
            pytest.skip(f"no target supports {n_inputs}-input {base_op}")
        for engine in ENGINES[1:]:
            batched = _logic_counts(seed, base_op, n_inputs, batch_trials=engine)
            assert np.array_equal(serial[0], batched[0]), (
                f"{base_op} n={n_inputs} primary diverged at "
                f"batch_trials={engine}"
            )
            assert np.array_equal(serial[1], batched[1]), (
                f"{base_op} n={n_inputs} complement diverged at "
                f"batch_trials={engine}"
            )

    @pytest.mark.parametrize("base_op", ["and", "or"])
    def test_batched_pair_identical_under_faults(self, base_op):
        serial = _logic_counts(
            0, base_op, 4, batch_trials=1, faults=CELL_FAULT_PLAN
        )
        assert serial is not None
        for engine in ENGINES[1:]:
            batched = _logic_counts(
                0, base_op, 4, batch_trials=engine, faults=CELL_FAULT_PLAN
            )
            assert np.array_equal(serial[0], batched[0])
            assert np.array_equal(serial[1], batched[1])

    @pytest.mark.parametrize("mode,ones_count", [("all01", None), ("ones_count", 2)])
    def test_constant_pattern_modes_identical(self, mode, ones_count):
        def run(batch_trials):
            for target in iter_targets(SMOKE, seed=1):
                measurement = find_logic_measurement(target, "and", 4)
                if measurement is None:
                    continue
                pair = measurement.run(
                    TRIALS,
                    np.random.default_rng(1),
                    mode=mode,
                    ones_count=ones_count,
                    batch_trials=batch_trials,
                )
                return pair.primary.success_counts, pair.complement.success_counts
            return None

        serial = run(1)
        assert serial is not None
        batched = run(0)
        assert np.array_equal(serial[0], batched[0])
        assert np.array_equal(serial[1], batched[1])


class TestSessionBank:
    @pytest.mark.parametrize("n_trials", [1, 4])
    @pytest.mark.parametrize("access", ["fill_row", "peek_row", "run"])
    def test_other_bank_rejected(self, ideal_host, n_trials, access):
        # One-trial blocks run on the serial engine, larger ones on the
        # lanes; both are bound to the session's bank.
        timing = ideal_host.timing
        bits = np.zeros(ideal_host.module.row_bits, dtype=np.uint8)
        program = (
            ideal_host.new_program("other-bank")
            .act(1, 0, wait_ns=timing.t_ras)
            .pre(1, wait_ns=timing.t_rp)
        )
        calls = {
            "fill_row": lambda session: session.fill_row(1, 0, bits),
            "peek_row": lambda session: session.peek_row(1, 0),
            "run": lambda session: session.run(program),
        }
        with ideal_host.batched_trials(0, n_trials) as session:
            with pytest.raises(AddressError, match="bound to bank 0"):
                calls[access](session)


class TestSweepEquivalence:
    def _stats(self, result):
        return {label: stats.__dict__ for label, stats in result.groups.items()}

    def test_experiment_batched_vs_serial_engine(self):
        batched = run_experiment("fig15", scale=SMOKE, seed=0)
        serial = run_experiment(
            "fig15", scale=SMOKE.with_batch_trials(1), seed=0
        )
        assert self._stats(batched) == self._stats(serial)
        assert batched.notes == serial.notes

    def test_experiment_batched_vs_serial_under_faults(self):
        plan = FaultPlan(seed=1, host_timeout_rate=2e-3)
        res = lambda: Resilience(faults=plan, retry=RetryPolicy(backoff_s=0.0))
        batched = run_experiment("fig7", scale=SMOKE, seed=0, resilience=res())
        serial = run_experiment(
            "fig7", scale=SMOKE.with_batch_trials(1), seed=0, resilience=res()
        )
        assert self._stats(batched) == self._stats(serial)

    def test_batched_engine_identical_across_job_counts(self):
        serial_exec = run_experiment("fig7", scale=SMOKE, seed=0)
        pooled = run_experiment("fig7", scale=SMOKE, seed=0, jobs=2)
        assert self._stats(serial_exec) == self._stats(pooled)

    def test_fingerprint_ignores_trial_engine(self):
        from repro.characterization.experiments.base import _NotSweepWork, NotVariant
        from repro.characterization.resilience import sweep_fingerprint

        def work(batch_trials):
            return _NotSweepWork(
                seed=0,
                trials=5,
                variants=(NotVariant(1),),
                label_fn=None,
                temperatures=(50.0,),
                good_cells_only=False,
                batch_trials=batch_trials,
            )

        descriptors = iter_descriptors(SMOKE)
        batched = sweep_fingerprint(work(0), SMOKE, 0, descriptors, None)
        serial = sweep_fingerprint(
            work(1), SMOKE.with_batch_trials(1), 0, descriptors, None
        )
        assert batched == serial

    def test_checkpoint_resumes_across_engines(self, tmp_path):
        # A sweep checkpointed under the serial engine must resume —
        # and stay bit-identical — under the batched default.
        retry = RetryPolicy(backoff_s=0.0)
        first = Resilience(checkpoint_dir=str(tmp_path), retry=retry)
        first.begin_experiment("fig7")
        run_experiment(
            "fig7", scale=SMOKE.with_batch_trials(1), seed=0, resilience=first
        )
        resumed = Resilience(
            checkpoint_dir=str(tmp_path), resume=True, retry=retry
        )
        resumed.begin_experiment("fig7")
        result = run_experiment("fig7", scale=SMOKE, seed=0, resilience=resumed)
        assert result.health.resumed_targets == 9
        baseline = run_experiment("fig7", scale=SMOKE, seed=0)
        assert self._stats(result) == self._stats(baseline)


class TestTrialBlocks:
    def test_serial_is_all_ones(self):
        assert _trial_blocks(4, 1) == [1, 1, 1, 1]

    def test_auto_batches_whole_run(self):
        assert _trial_blocks(600, 0) == [600]
        assert _trial_blocks(DEFAULT_TRIAL_BLOCK + 1, 0) == [
            DEFAULT_TRIAL_BLOCK,
            1,
        ]

    def test_explicit_block_size_is_ragged(self):
        assert _trial_blocks(9, 7) == [7, 2]
        assert _trial_blocks(9, 9) == [9]

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="batch_trials"):
            _trial_blocks(10, -1)

    def test_scale_rejects_negative(self):
        with pytest.raises(ValueError, match="batch_trials"):
            SMOKE.with_batch_trials(-1)


class TestScalePresets:
    def test_preset_trial_counts_match_documentation(self):
        # The repro.core.success module docstring cites these counts;
        # keep text and presets in lock-step.
        assert SMOKE.trials == 40
        assert DEFAULT.trials == 150
        assert FULL.trials == 600

    def test_presets_default_to_batched_engine(self):
        assert SMOKE.batch_trials == 0
        assert DEFAULT.batch_trials == 0
        assert FULL.batch_trials == 0


#: ACT -> PRE -> ACT -> RD episodes with tight gaps: the random streams
#: above rarely glitch (most end early on a protocol error), these glitch
#: on most examples, in both the NOT and the logic-op regimes.
glitch_streams = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=191),
        st.integers(min_value=0, max_value=191),
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=1, max_value=12),
    ).map(
        lambda t: [
            ("act", t[0], t[2]),
            ("pre", 0, t[3]),
            ("act", t[1], 30),
            ("rd", t[1], 1),
            ("pre", 0, 30),
        ]
    ),
    min_size=1,
    max_size=4,
).map(lambda episodes: [command for episode in episodes for command in episode])


def _stream_bank(config_factory, coin_flip):
    config = config_factory().with_geometry(STREAM_GEOMETRY)
    calibration = calibration_for(config)
    if coin_flip:
        # Glitches engage on a coin flip, so blocks split into lanes
        # (the calibrated dies engage >98% of the time).
        calibration = replace(
            calibration,
            op_engage_probability={2: 0.5},
            not_engage_probability=0.5,
        )
    module = Module(
        config, chip_count=1, seed_tree=SeedTree(5), calibration=calibration
    )
    return module.chips[0].bank(0)


def _replay(bank, stream, rows, wr_data):
    """Fill every row, replay ``stream``, close the bank.

    ``rows`` holds each row's initial bits and ``wr_data`` one WR pattern
    per command (both with a leading trials axis on a block).  Returns
    the RD data per command index and the first error as ``(command
    index, exception type)``, or ``None`` when the stream ran through
    and the trailing tRAS wait plus PRE closed the bank.
    """
    for row in range(STREAM_GEOMETRY.rows_per_bank):
        bank.store_bits(row, rows[..., row, :])
    t_ck = bank.timing.t_ck
    time_ns = 0.0
    reads = {}
    for index, (kind, row, gap) in enumerate(stream):
        try:
            if kind == "act":
                bank.activate(row, time_ns)
            elif kind == "pre":
                bank.precharge(time_ns)
            elif kind == "wr":
                bank.write(row, wr_data[..., index, :], time_ns)
            elif kind == "rd":
                reads[index] = bank.read(row, time_ns)
        except Exception as error:
            return reads, (index, type(error))
        time_ns += gap * t_ck
    time_ns += bank.timing.t_ras
    bank.precharge(time_ns)
    bank.settle(time_ns + bank.timing.t_rp)
    return reads, None


@pytest.mark.parametrize("coin_flip", [False, True])
@pytest.mark.parametrize(
    "config_factory", [sk_hynix_chip, samsung_chip, micron_chip]
)
class TestBlockMatchesOneTrialBlocks:
    """A block of k trials equals its trials run as k one-trial blocks,
    on arbitrary command streams (hostile timing included)."""

    @given(
        stream=st.one_of(streams, glitch_streams),
        k=st.sampled_from([2, 3]),
        data_seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_block_equals_one_trial_blocks(
        self, config_factory, coin_flip, stream, k, data_seed
    ):
        rng = np.random.default_rng(data_seed)
        columns = STREAM_GEOMETRY.columns
        rows = rng.integers(
            0, 2, (k, STREAM_GEOMETRY.rows_per_bank, columns), dtype=np.uint8
        )
        wr_data = rng.integers(0, 2, (k, len(stream), columns), dtype=np.uint8)

        block_bank = _stream_bank(config_factory, coin_flip)
        _, generators = block_bank.reserve_trial_block(k)
        block = BatchedBank(block_bank, generators)
        block_reads, block_error = _replay(block, stream, rows, wr_data)

        # Trial i runs alone on a fresh bank whose trial counter stands
        # at i: every row is refilled, so nothing else carries over.
        trials = []
        for i in range(k):
            bank = _stream_bank(config_factory, coin_flip)
            if i:
                bank.reserve_trial_block(i)
            bank.reserve_trial_block(1)
            reads, error = _replay(bank, stream, rows[i], wr_data[i])
            trials.append((bank, reads, error))

        errors = [error for _, _, error in trials if error is not None]
        if block_error is None:
            assert errors == []
        else:
            assert errors, f"the block raised {block_error}, no trial did"
            first = min(index for index, _ in errors)
            assert block_error[0] == first
            assert block_error[1] in {
                kind for index, kind in errors if index == first
            }
        for index, block_read in block_reads.items():
            for i, (_, reads, _) in enumerate(trials):
                assert np.array_equal(block_read[i], reads[index])
        if block_error is not None:
            return

        block.finalize()
        last_bank = trials[-1][0]
        for mine, theirs in zip(block_bank.subarrays, last_bank.subarrays):
            assert np.array_equal(mine.voltages, theirs.voltages)
        assert block_bank.ignored_commands == sum(
            bank.ignored_commands for bank, _, _ in trials
        )
