"""The in-DRAM NOT operation (§5).

A full-tRAS activation of the source row latches the shared sense
amplifiers; the violated-tRP activation of a destination row in the
*neighboring* subarray connects the destination cells to the amplifiers'
inverted terminal, writing NOT(src) into them — on the half of the
columns served by the shared stripe (footnote 6).

Depending on the (src, dst) address pair, the decoder glitch activates
1..32 destination rows (Fig. 7): :meth:`NotOperation.expected_pattern`
exposes the reverse-engineered prediction so callers know where the
results land.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..bender.host import DramBenderHost, RowAccess
from ..dram.decoder import ActivationPattern
from ..errors import AddressError
from .layout import bank_rows, module_shared_columns
from .sequences import not_program

__all__ = ["NotOperation", "NotOutcome"]


@dataclass(frozen=True)
class NotOutcome:
    """Readback of a NOT operation.

    ``outputs`` maps each destination row (bank-level address) to the
    logic values read on the shared columns — ideally ``NOT(src)``
    restricted to those columns.
    """

    shared_columns: np.ndarray
    outputs: Dict[int, np.ndarray]


class NotOperation:
    """One configured NOT between a source and a destination row."""

    def __init__(self, host: DramBenderHost, bank: int, src_row: int, dst_row: int):
        geometry = host.module.config.geometry
        self.src_subarray = geometry.subarray_of_row(src_row)
        self.dst_subarray = geometry.subarray_of_row(dst_row)
        if abs(self.src_subarray - self.dst_subarray) != 1:
            raise AddressError(
                "NOT requires src and dst rows in neighboring subarrays; got "
                f"subarrays {self.src_subarray} and {self.dst_subarray}"
            )
        self.host = host
        self.bank = bank
        self.src_row = src_row
        self.dst_row = dst_row
        self.shared_columns = module_shared_columns(
            host.module, self.src_subarray, self.dst_subarray
        )

    def expected_pattern(self) -> ActivationPattern:
        """The activation pattern the address pair will produce.

        Equivalent to looking the pair up in the §4 reverse-engineered
        pattern table for this module.
        """
        return self.host.module.decoder.neighboring_pattern(
            self.bank, self.src_row, self.dst_row
        )

    def destination_rows(self) -> List[int]:
        """Bank-level addresses of all predicted destination rows."""
        pattern = self.expected_pattern()
        geometry = self.host.module.config.geometry
        return bank_rows(geometry, self.dst_subarray, pattern.rows_last)

    def execute(self, host: Optional[RowAccess] = None) -> None:
        """Issue the ACT(src) → PRE → ACT(dst) sequence (§5.1).

        Runs on ``host`` — the operation's host by default, or a trial
        session, which issues the sequence once per trial.
        """
        host = self.host if host is None else host
        host.run(not_program(host.timing, self.bank, self.src_row, self.dst_row))

    def read_outcome(self) -> NotOutcome:
        """Read every predicted destination row's shared columns."""
        outputs = {}
        for row in self.destination_rows():
            bits = self.host.peek_row(self.bank, row)
            outputs[row] = bits[self.shared_columns]
        return NotOutcome(shared_columns=self.shared_columns, outputs=outputs)

    def run(self, src_bits: np.ndarray) -> NotOutcome:
        """Convenience: initialize, execute, read back.

        Returns the outcome; a perfectly reliable chip would report
        ``NOT(src_bits)`` on the shared columns of every destination row.
        """
        self.host.fill_row(self.bank, self.src_row, src_bits)
        self.execute()
        return self.read_outcome()
