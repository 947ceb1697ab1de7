"""Success-rate measurement — the paper's reliability metric (§5.2/§6.2).

The success rate of a DRAM cell for an operation is the fraction of
trials in which the cell ends up holding the operation's correct output.
The paper runs 10,000 trials per cell; the measurement classes here take
the trial count as a parameter so characterization sweeps can trade
precision for runtime.  The :class:`~repro.characterization.runner.Scale`
presets run 40 (smoke), 150 (default), and 600 (full) trials — a
binomial with 600 trials already pins a ~95% rate to about plus/minus
2% at two sigma:

>>> from repro.characterization.runner import DEFAULT, FULL, SMOKE
>>> (SMOKE.trials, DEFAULT.trials, FULL.trials)
(40, 150, 600)

Both measurements execute trials in blocks by default: a whole block of
trials runs as one NumPy evaluation with a leading trials axis,
bit-identical to running its trials one at a time (each trial draws
analog noise and fault rolls from its own substream, so the block size
cannot change any measured count).  There is one bank state machine; a
one-trial block runs it on the bank's own rows.  ``batch_trials=1``
runs every trial as its own block; any larger value caps the block
size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..bender.host import DramBenderHost
from ..errors import UnsupportedOperationError
from ..dram.decoder import ActivationKind
from .layout import bank_rows
from .logic import BASE_OPS, LogicOperation, ideal_output
from .not_op import NotOperation

__all__ = [
    "SuccessResult",
    "NotSuccessMeasurement",
    "LogicSuccessMeasurement",
    "LogicPairResult",
    "DEFAULT_TRIAL_BLOCK",
]

#: Block-size cap used when ``batch_trials=0`` selects automatic batching.
DEFAULT_TRIAL_BLOCK = 1024


def _trial_blocks(trials: int, batch_trials: int) -> List[int]:
    """Split ``trials`` into execution block sizes.

    ``batch_trials`` selects the engine: ``0`` (the default) batches in
    blocks of up to :data:`DEFAULT_TRIAL_BLOCK`; ``1`` runs one trial
    per block; ``k > 1`` batches in blocks of ``k``.

    >>> _trial_blocks(5, 2)
    [2, 2, 1]
    >>> _trial_blocks(3, 1)
    [1, 1, 1]
    >>> _trial_blocks(2500, 0)
    [1024, 1024, 452]
    """
    if batch_trials < 0:
        raise ValueError(f"batch_trials must be >= 0, got {batch_trials}")
    size = DEFAULT_TRIAL_BLOCK if batch_trials == 0 else batch_trials
    blocks: List[int] = []
    remaining = trials
    while remaining > 0:
        step = min(size, remaining)
        blocks.append(step)
        remaining -= step
    return blocks


@dataclass
class SuccessResult:
    """Per-cell success counts of one measured operation."""

    success_counts: np.ndarray
    trials: int
    metadata: Dict[str, object] = field(default_factory=dict)

    @property
    def rates(self) -> np.ndarray:
        """Per-cell success rates, same shape as ``success_counts``."""
        if self.trials == 0:
            raise ValueError("no trials were run")
        return self.success_counts / float(self.trials)

    @property
    def mean_rate(self) -> float:
        """The paper's 'average success rate': the mean over all cells."""
        return float(np.mean(self.rates))

    def flat_rates(self) -> np.ndarray:
        """All per-cell rates as a 1-D array (for box statistics)."""
        return self.rates.reshape(-1)


class NotSuccessMeasurement:
    """Success-rate measurement of the NOT operation (§5.2).

    Methodology per trial: initialize the activated rows of both
    subarrays with one random pattern (RAND2), write a second random
    pattern (RAND1) to the source row, issue the NOT sequence, then read
    every destination row and count cells holding ``NOT(RAND1)`` on the
    shared columns.
    """

    def __init__(self, host: DramBenderHost, bank: int, src_row: int, dst_row: int):
        self.host = host
        self.bank = bank
        self.operation = NotOperation(host, bank, src_row, dst_row)
        pattern = self.operation.expected_pattern()
        if pattern.kind is ActivationKind.LAST_ONLY:
            raise UnsupportedOperationError(
                f"address pair ({src_row}, {dst_row}) never engages the "
                "multi-row glitch; pick a pair with a usable pattern"
            )
        self.pattern = pattern
        geometry = host.module.config.geometry
        self.source_rows: List[int] = bank_rows(
            geometry, pattern.subarray_first, pattern.rows_first
        )
        self.destination_rows: List[int] = bank_rows(
            geometry, pattern.subarray_last, pattern.rows_last
        )

    @property
    def n_destination_rows(self) -> int:
        return len(self.destination_rows)

    def run(
        self,
        trials: int,
        rng: np.random.Generator,
        batch_trials: int = 0,
    ) -> SuccessResult:
        """Measure ``trials`` trials; see :func:`_trial_blocks` for
        ``batch_trials`` semantics (the result is bit-identical for any
        value)."""
        if trials < 1:
            raise ValueError(f"trials must be >= 1, got {trials}")
        shared = self.operation.shared_columns
        counts = np.zeros((len(self.destination_rows), shared.size), dtype=np.int64)

        for block in _trial_blocks(trials, batch_trials):
            self._run_block(counts, rng, block)
        self.host.end_trials()

        return SuccessResult(
            success_counts=counts,
            trials=trials,
            metadata={
                "operation": "not",
                "pattern": self.pattern.label(),
                "kind": self.pattern.kind.value,
                "n_destination_rows": self.n_destination_rows,
            },
        )

    def _run_block(
        self, counts: np.ndarray, rng: np.random.Generator, block: int
    ) -> None:
        """One block of trials, run as one trial session."""
        host, bank = self.host, self.bank
        shared = self.operation.shared_columns
        width = host.module.row_bits
        # Consume the measurement RNG in per-trial order — RAND2 then
        # RAND1 — so every block size sees the same patterns.
        rand2 = np.empty((block, width), dtype=np.uint8)
        rand1 = np.empty((block, width), dtype=np.uint8)
        for t in range(block):
            rand2[t] = host.random_bits(rng)
            rand1[t] = host.random_bits(rng)
        expected = 1 - rand1[:, shared]

        with host.batched_trials(bank, block) as session:
            for row in self.source_rows + self.destination_rows:
                session.fill_row(bank, row, rand2)
            session.fill_row(bank, self.operation.src_row, rand1)

            self.operation.execute(session)

            for i, row in enumerate(self.destination_rows):
                bits = session.peek_row(bank, row)
                counts[i] += np.sum(bits[:, shared] == expected, axis=0)


@dataclass
class LogicPairResult:
    """A logic measurement yields both terminals at once: AND together
    with NAND, or OR together with NOR (§6.1.3)."""

    primary: SuccessResult
    complement: SuccessResult


class LogicSuccessMeasurement:
    """Success-rate measurement of N-input AND/NAND or OR/NOR (§6.2)."""

    #: Supported operand-generation modes (§6.2 "Data Pattern").
    MODES = ("random", "all01", "ones_count")

    def __init__(
        self,
        host: DramBenderHost,
        bank: int,
        ref_row: int,
        com_row: int,
        base_op: str = "and",
    ):
        if base_op not in ("and", "or"):
            raise ValueError(f"base_op must be 'and' or 'or', got {base_op!r}")
        self.host = host
        self.bank = bank
        self.base_op = base_op
        self.operation = LogicOperation(host, bank, ref_row, com_row, op=base_op)
        self._constant_rows: Optional[Tuple[np.ndarray, np.ndarray]] = None

    @property
    def n_inputs(self) -> int:
        return self.operation.n_inputs

    def _constant_row(self, bit: int) -> np.ndarray:
        """A cached read-only all-``bit`` row pattern.

        The constant-pattern modes ("all01", "ones_count") only ever
        produce all-0 and all-1 operands, so the two arrays are built
        once per measurement instead of once per operand per trial.
        """
        if self._constant_rows is None:
            width = self.host.module.row_bits
            zeros = np.zeros(width, dtype=np.uint8)
            ones = np.ones(width, dtype=np.uint8)
            zeros.setflags(write=False)
            ones.setflags(write=False)
            self._constant_rows = (zeros, ones)
        return self._constant_rows[int(bit)]

    def _draw_operands(
        self,
        rng: np.random.Generator,
        mode: str,
        ones_count: Optional[int],
    ) -> List[np.ndarray]:
        width = self.host.module.row_bits
        n = self.n_inputs
        if mode == "random":
            return [rng.integers(0, 2, width, dtype=np.uint8) for _ in range(n)]
        if mode == "all01":
            choices = rng.integers(0, 2, n)
            return [self._constant_row(bit) for bit in choices]
        if mode == "ones_count":
            if ones_count is None or not 0 <= ones_count <= n:
                raise ValueError(
                    f"ones_count must be in [0, {n}] for mode 'ones_count'"
                )
            ones = np.zeros(n, dtype=np.uint8)
            ones[rng.choice(n, size=ones_count, replace=False)] = 1
            return [self._constant_row(bit) for bit in ones]
        raise ValueError(f"unknown mode {mode!r}; expected one of {self.MODES}")

    def run(
        self,
        trials: int,
        rng: np.random.Generator,
        mode: str = "random",
        ones_count: Optional[int] = None,
        batch_trials: int = 0,
    ) -> LogicPairResult:
        """Measure ``trials`` trials; see :func:`_trial_blocks` for
        ``batch_trials`` semantics (the result is bit-identical for any
        value)."""
        if trials < 1:
            raise ValueError(f"trials must be >= 1, got {trials}")
        operation = self.operation
        shared = operation.shared_columns
        com_counts = np.zeros((len(operation.compute_rows), shared.size), np.int64)
        ref_counts = np.zeros((len(operation.reference_rows), shared.size), np.int64)

        for block in _trial_blocks(trials, batch_trials):
            self._run_block(com_counts, ref_counts, rng, block, mode, ones_count)
        self.host.end_trials()

        base_meta = {
            "n_inputs": self.n_inputs,
            "mode": mode,
            "ones_count": ones_count,
            "pattern": operation.pattern.label(),
        }
        primary_name = self.base_op
        complement_name = "nand" if self.base_op == "and" else "nor"
        return LogicPairResult(
            primary=SuccessResult(
                com_counts, trials, {**base_meta, "operation": primary_name}
            ),
            complement=SuccessResult(
                ref_counts, trials, {**base_meta, "operation": complement_name}
            ),
        )

    def _run_block(
        self,
        com_counts: np.ndarray,
        ref_counts: np.ndarray,
        rng: np.random.Generator,
        block: int,
        mode: str,
        ones_count: Optional[int],
    ) -> None:
        """One block of trials, run as one trial session."""
        host, bank = self.host, self.bank
        operation = self.operation
        shared = operation.shared_columns
        # Consume the measurement RNG in per-trial order, so every block
        # size sees the same operands.
        per_trial = [
            self._draw_operands(rng, mode, ones_count) for _ in range(block)
        ]
        operands = [
            np.stack([per_trial[t][i] for t in range(block)])
            for i in range(self.n_inputs)
        ]
        expected = np.stack(
            [
                ideal_output(self.base_op, [bits[shared] for bits in per_trial[t]])
                for t in range(block)
            ]
        )

        with host.batched_trials(bank, block) as session:
            operation.prepare_reference(session)
            operation.set_operands(operands, session)
            operation.execute(session)

            for i, row in enumerate(operation.compute_rows):
                bits = session.peek_row(bank, row)
                com_counts[i] += np.sum(bits[:, shared] == expected, axis=0)
            complement = 1 - expected
            for i, row in enumerate(operation.reference_rows):
                bits = session.peek_row(bank, row)
                ref_counts[i] += np.sum(bits[:, shared] == complement, axis=0)
