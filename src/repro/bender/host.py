"""Host-side interface to a module under test.

:class:`DramBenderHost` mirrors what the paper's host machine does
through the FPGA: generate programs, push data, pull results.  Two data
paths exist:

* the *command path* (``write_row``/``read_row``) issues real
  ACT/WR/RD/PRE sequences at nominal timing, exercising the full device
  model;
* the *backdoor path* (``fill_row``/``peek_row``) pokes cell state
  directly.  Experiments use it for bulk initialization, like the real
  infrastructure uses burst DMA writes — it is orders of magnitude
  faster and, at nominal timing, behaviorally identical.
"""

from __future__ import annotations

from typing import Iterable, Optional, Union

import numpy as np

from ..dram.batch import BatchedModule
from ..dram.module import Module
from ..dram.timing import TimingParameters
from .executor import ExecutionResult, ProgramExecutor
from .program import TestProgram

__all__ = ["DramBenderHost", "BatchedTrialSession", "RowAccess"]


class DramBenderHost:
    """High-level driver for one module.

    ``verify``/``suppress_rules`` configure the executor's static
    pre-flight gate (see :class:`~repro.bender.executor.ProgramExecutor`).
    """

    def __init__(
        self,
        module: Module,
        strict: bool = False,
        fault_injector=None,
        verify: str = "warn",
        verify_semantics: str = "off",
        suppress_rules: Iterable[str] = (),
    ):
        self.module = module
        self.faults = fault_injector
        self.executor = ProgramExecutor(
            module,
            strict=strict,
            fault_injector=fault_injector,
            verify=verify,
            verify_semantics=verify_semantics,
            suppress_rules=suppress_rules,
        )

    @property
    def timing(self) -> TimingParameters:
        return self.module.chips[0].timing

    def new_program(
        self, name: str = "", intent: Optional[str] = None
    ) -> TestProgram:
        return TestProgram(self.timing, name=name, intent=intent)

    def run(self, program: TestProgram) -> ExecutionResult:
        return self.executor.run(program)

    # -- command-path row access ------------------------------------------

    def write_row(self, bank: int, row: int, bits: np.ndarray) -> None:
        """Write a full row through ACT → WR → (tRAS) → PRE."""
        timing = self.timing
        program = (
            self.new_program(f"write-row-{row}", intent="nominal")
            .act(bank, row, wait_ns=timing.t_rcd)
            .wr(bank, row, bits, wait_ns=max(timing.t_wr, timing.t_ras - timing.t_rcd))
            .pre(bank, wait_ns=timing.t_rp)
        )
        self.run(program)

    def read_row(self, bank: int, row: int) -> np.ndarray:
        """Read a full row through ACT → RD → (tRAS) → PRE."""
        timing = self.timing
        program = (
            self.new_program(f"read-row-{row}", intent="nominal")
            .act(bank, row, wait_ns=timing.t_ras)
            .rd(bank, row, wait_ns=timing.t_rcd, label="row")
            .pre(bank, wait_ns=timing.t_rp)
        )
        return self.run(program).read_by_label("row")

    # -- backdoor row access ------------------------------------------------

    def fill_row(self, bank: int, row: int, bits: np.ndarray) -> None:
        """Backdoor bulk initialization of one row."""
        self.module.store_bits(bank, row, bits)
        self.executor.note_backdoor_write(bank, row, bits=bits)

    def fill_row_voltages(self, bank: int, row: int, volts: np.ndarray) -> None:
        self.module.store_voltages(bank, row, volts)
        self.executor.note_backdoor_write(bank, row, voltages=volts)

    def peek_row(self, bank: int, row: int) -> np.ndarray:
        """Backdoor readout of one row."""
        # Cell-level faults are physical: they show on the backdoor path
        # exactly as on the command path.
        bits = self.module.load_bits(bank, row)
        return self.executor.filter_read(bank, row, bits)

    def fill_subarray(
        self, bank: int, subarray: int, bits_per_row: np.ndarray
    ) -> None:
        """Fill every row of ``subarray`` with the same pattern."""
        geometry = self.module.config.geometry
        base = subarray * geometry.rows_per_subarray
        for offset in range(geometry.rows_per_subarray):
            self.fill_row(bank, base + offset, bits_per_row)

    # -- characterization helpers ---------------------------------------

    def hammer_row(self, bank: int, row: int, activations: int) -> None:
        """Single-sided RowHammer: ``activations`` ACT/PRE cycles.

        Provided as a macro (the unrolled loop would dominate runtime),
        exactly like DRAM Bender's loop instructions.
        """
        self.module.apply_hammer(bank, row, activations)

    def random_bits(
        self, rng: np.random.Generator, density: Optional[float] = None
    ) -> np.ndarray:
        """A module-width random row pattern (RAND1/RAND2 style)."""
        if density is None:
            return rng.integers(0, 2, self.module.row_bits, dtype=np.uint8)
        return (rng.random(self.module.row_bits) < density).astype(np.uint8)

    # -- trial-axis execution ---------------------------------------------

    def end_trials(self) -> None:
        """Leave per-trial fault scoping after a measurement completes."""
        if self.faults is not None:
            self.faults.set_trial(None)

    def batched_trials(self, bank: int, n_trials: int) -> "BatchedTrialSession":
        """Open a block of ``n_trials`` trials against ``bank``.

        A one-trial block runs the bank state machine on the bank itself.
        """
        return BatchedTrialSession(self, bank, n_trials)


class BatchedTrialSession:
    """One block of measurement trials, executed as a single pass.

    The session has the host's row-access surface — ``fill_row``,
    ``peek_row``, ``run`` and ``timing`` — with the same bank-first
    arguments, so an operation step written against
    :class:`DramBenderHost` runs on a session unchanged.  Row data
    carries a leading trials axis, and any bank but the session's own
    is rejected (:class:`~repro.errors.AddressError`).  Use as a context
    manager::

        with host.batched_trials(bank, n) as session:
            session.fill_row(bank, row, bits)          # same bits, every trial
            session.fill_row(bank, row, stacked_bits)  # (n, row_bits): per trial
            session.run(program)                       # one pass, n trials
            bits = session.peek_row(bank, row)         # (n, row_bits)

    There is one bank state machine
    (:class:`~repro.dram.batch.LaneEngine`).  A block of ``n > 1``
    trials runs it on sparse per-trial overlays
    (:class:`~repro.dram.batch.BatchedBank`); a one-trial block runs it
    on the :class:`~repro.dram.bank.Bank`'s own rows, with the same
    shapes.  On clean exit the block is folded back into the module,
    leaving the device bit-identical to ``n`` one-trial blocks.  On an
    exception (injected host timeout, ...) the fold-back is skipped —
    the module state is stale, exactly like a per-trial loop aborted
    mid-trial, and the retry machinery rebuilds the module either way.
    """

    def __init__(self, host: DramBenderHost, bank: int, n_trials: int):
        self.host = host
        self.bank = bank
        self.batch = BatchedModule(host.module, bank, n_trials)
        self.n_trials = n_trials
        #: Absolute trial indices covered by this block.
        self.trial_indices = self.batch.trial_indices
        self._finished = False

    @property
    def timing(self) -> TimingParameters:
        return self.host.timing

    def fill_row(self, bank: int, row: int, bits: np.ndarray) -> None:
        """Backdoor fill; ``bits`` is ``(row_bits,)`` or ``(n, row_bits)``."""
        self.batch.store_bits(bank, row, bits)
        self.host.executor.note_backdoor_write(bank, row, bits=bits)

    def peek_row(self, bank: int, row: int) -> np.ndarray:
        """Backdoor readout for every trial: ``(n_trials, row_bits)``."""
        bits = self.batch.load_bits(bank, row)
        return self.host.executor.filter_read(bank, row, bits, self.trial_indices)

    def run(self, program: TestProgram) -> ExecutionResult:
        """Execute ``program`` once for every trial of the block."""
        return self.host.executor.run_batched(program, self.batch)

    def finish(self) -> None:
        """Fold the block back into the module (idempotent)."""
        if self._finished:
            return
        self.batch.finalize()
        self._finished = True

    def __enter__(self) -> "BatchedTrialSession":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> bool:
        if exc_type is None:
            self.finish()
        return False


#: What an operation step runs on: the host, or one of its trial sessions.
RowAccess = Union[DramBenderHost, BatchedTrialSession]
