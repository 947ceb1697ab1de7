"""The Frac operation: storing VDD/2 in DRAM cells (FracDRAM [38]).

The many-input AND/OR mechanism needs one reference-subarray row at
VDD/2 (§6.1.2, §6.2).  FracDRAM shows COTS chips can store fractional
values by interrupting an activation before the sense amplifiers
resolve: the precharge equalizer then pulls the still-connected cells to
the bitline rest voltage, VDD/2.
"""

from __future__ import annotations

import numpy as np

from ..bender.host import RowAccess
from .sequences import frac_program

__all__ = ["store_half_vdd", "is_fractional"]


def store_half_vdd(host: RowAccess, bank: int, row: int) -> None:
    """Drive every cell of ``row`` to (approximately) VDD/2.

    ``host`` may be a trial session: each trial then draws its own
    equalizer noise from its per-trial substream, matching ``n_trials``
    serial calls bit for bit.
    """
    host.run(frac_program(host.timing, bank, row))


def is_fractional(voltages: np.ndarray, tolerance: float = 0.1) -> np.ndarray:
    """Boolean mask of cells within ``tolerance`` of VDD/2 (for tests)."""
    voltages = np.asarray(voltages, dtype=np.float64)
    return np.abs(voltages - 0.5) <= tolerance
