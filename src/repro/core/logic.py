"""Many-input AND, OR, NAND, and NOR in DRAM (§6).

The mechanism (§6.1): activate N *reference* rows and N *compute* rows in
neighboring subarrays with both tRAS and tRP violated, so all 2N cells
charge-share before the shared sense amplifiers resolve.  The reference
rows are pre-loaded so their shared voltage sits between the compute
voltages that must resolve to 0 and to 1:

* AND — N-1 reference rows at VDD plus one Frac row at VDD/2, giving
  ``V_AND = (N - 0.5) VDD / N``;
* OR — N-1 reference rows at GND plus one Frac row, giving
  ``V_OR = 0.5 VDD / N``.

After sensing, the compute rows hold AND (OR) and — because the two
terminals of a sense amplifier are complementary — the reference rows
simultaneously hold NAND (NOR) (§6.1.3).  Together with NOT this is a
functionally-complete set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..bender.host import DramBenderHost, RowAccess
from ..dram.decoder import ActivationKind, ActivationPattern
from ..errors import UnsupportedOperationError
from .frac import store_half_vdd
from .layout import bank_rows, module_shared_columns
from .sequences import logic_program

__all__ = ["LogicOperation", "LogicOutcome", "ideal_output", "BASE_OPS"]

#: Operations and the side of the sense amplifier their result lands on.
BASE_OPS = {
    "and": ("and", "compute"),
    "or": ("or", "compute"),
    "nand": ("and", "reference"),
    "nor": ("or", "reference"),
}


def ideal_output(op: str, operands: Sequence[np.ndarray]) -> np.ndarray:
    """Bitwise ground truth of ``op`` over operand bit arrays."""
    if op not in BASE_OPS:
        raise ValueError(f"unknown operation {op!r}; expected one of {sorted(BASE_OPS)}")
    stacked = np.asarray([np.asarray(o, dtype=bool) for o in operands])
    if stacked.ndim != 2:
        raise ValueError("operands must be equal-length 1-D bit arrays")
    base, _side = BASE_OPS[op]
    result = stacked.all(axis=0) if base == "and" else stacked.any(axis=0)
    if op in ("nand", "nor"):
        result = ~result
    return result.astype(np.uint8)


@dataclass(frozen=True)
class LogicOutcome:
    """Readback of one many-input logic operation."""

    op: str
    shared_columns: np.ndarray
    #: Result bits on the shared columns (AND/OR read from the compute
    #: side; NAND/NOR from the reference side).
    result: np.ndarray


class LogicOperation:
    """One configured N-input logic operation on an N:N activation pair."""

    def __init__(
        self,
        host: DramBenderHost,
        bank: int,
        ref_row: int,
        com_row: int,
        op: str = "and",
    ):
        if op not in BASE_OPS:
            raise ValueError(
                f"unknown operation {op!r}; expected one of {sorted(BASE_OPS)}"
            )
        self.host = host
        self.bank = bank
        self.op = op
        self.ref_row = ref_row
        self.com_row = com_row

        pattern = host.module.decoder.neighboring_pattern(bank, ref_row, com_row)
        if pattern.kind is not ActivationKind.N_TO_N:
            raise UnsupportedOperationError(
                f"address pair ({ref_row}, {com_row}) produces a "
                f"{pattern.label()} {pattern.kind.value} activation; logic "
                "operations need an N:N pattern (§6.2)"
            )
        if pattern.n_first < 2:
            raise UnsupportedOperationError(
                "logic operations need at least a 2:2 activation; pair "
                f"({ref_row}, {com_row}) gives {pattern.label()}"
            )
        self.pattern: ActivationPattern = pattern

        geometry = host.module.config.geometry
        self.reference_rows: List[int] = bank_rows(
            geometry, pattern.subarray_first, pattern.rows_first
        )
        self.compute_rows: List[int] = bank_rows(
            geometry, pattern.subarray_last, pattern.rows_last
        )
        self.shared_columns = module_shared_columns(
            host.module, pattern.subarray_first, pattern.subarray_last
        )

    @property
    def n_inputs(self) -> int:
        return len(self.compute_rows)

    def expected_function(self, inputs: Sequence[object]) -> object:
        """The Boolean function this configuration computes, symbolically.

        ``inputs`` are :class:`~repro.staticcheck.semantics.SymValue`
        operands, one per compute row; the return value is what the
        *result side* of the sense amplifiers must hold after execution
        (the complement side for NAND/NOR).  The semantic verifier
        proves the lowered program against exactly this value.
        """
        from ..staticcheck.semantics import sym_and, sym_not, sym_or

        if len(inputs) != self.n_inputs:
            raise ValueError(
                f"expected {self.n_inputs} symbolic operands, got {len(inputs)}"
            )
        base, side = BASE_OPS[self.op]
        combine = sym_and if base == "and" else sym_or
        value = combine(*inputs)
        return sym_not(value) if side == "reference" else value

    # ------------------------------------------------------------------

    # Each step runs on ``host``: the operation's host by default, or a
    # trial session, which runs the step for every trial of its block.

    def prepare_reference(self, host: Optional[RowAccess] = None) -> None:
        """Load the reference subarray for this operation (§6.2 step 1).

        N-1 rows get the constant (all-1s for AND/NAND, all-0s for
        OR/NOR); the remaining row is Frac-initialized to VDD/2.  Must be
        re-done before *every* execution: the operation overwrites the
        reference rows with the complementary result.
        """
        host = self.host if host is None else host
        base, _side = BASE_OPS[self.op]
        constant = np.ones if base == "and" else np.zeros
        bits = constant(self.host.module.row_bits, dtype=np.uint8)
        for row in self.reference_rows[:-1]:
            host.fill_row(self.bank, row, bits)
        store_half_vdd(host, self.bank, self.reference_rows[-1])

    def set_operands(
        self, operands: Sequence[np.ndarray], host: Optional[RowAccess] = None
    ) -> None:
        """Store the N input operands into the compute rows (§6.2 step 2).

        On a trial session each operand is ``(row_bits,)`` (same bits
        for every trial) or ``(n_trials, row_bits)`` (per-trial draws).
        """
        host = self.host if host is None else host
        if len(operands) != self.n_inputs:
            raise ValueError(
                f"expected {self.n_inputs} operands, got {len(operands)}"
            )
        for row, bits in zip(self.compute_rows, operands):
            host.fill_row(self.bank, row, np.asarray(bits, dtype=np.uint8))

    def execute(self, host: Optional[RowAccess] = None) -> None:
        """Issue the reduced-timing double activation (§6.2 step 3)."""
        host = self.host if host is None else host
        host.run(logic_program(host.timing, self.bank, self.ref_row, self.com_row))

    def read_outcome(self) -> LogicOutcome:
        """Read the result from the appropriate terminal's rows."""
        _base, side = BASE_OPS[self.op]
        rows = self.compute_rows if side == "compute" else self.reference_rows
        bits = self.host.peek_row(self.bank, rows[0])
        return LogicOutcome(
            op=self.op,
            shared_columns=self.shared_columns,
            result=bits[self.shared_columns],
        )

    def run(self, operands: Sequence[np.ndarray]) -> LogicOutcome:
        """Convenience: prepare, load, execute, read back."""
        self.prepare_reference()
        self.set_operands(operands)
        self.execute()
        return self.read_outcome()
