"""In-DRAM row copy (RowClone [49]) on COTS chips (§2.2).

A full-tRAS activation latches the source row in both adjacent stripes;
a violated-tRP second activation to another row of the *same* subarray
connects the destination cells to the latched bitlines, copying the
source row wholesale.  Used directly as a data-movement primitive and as
the probe for subarray-boundary reverse engineering (§4.2).
"""

from __future__ import annotations

import numpy as np

from ..bender.host import DramBenderHost
from ..errors import AddressError
from .sequences import rowclone_program

__all__ = ["rowclone", "rowclone_match_fraction"]


def rowclone(host: DramBenderHost, bank: int, src_row: int, dst_row: int) -> None:
    """Copy ``src_row`` into ``dst_row`` (both in the same subarray).

    Rows in different subarrays do not share bitlines, so the sequence
    degenerates to two independent activations there — which is exactly
    the signal the subarray mapper uses.  This function therefore does
    *not* validate subarray membership: issuing the sequence across a
    boundary is legal, it just does not copy — and the host's static
    check reports it (FC113), an error under ``verify="error"``.
    """
    if src_row == dst_row:
        raise AddressError("source and destination rows must differ")
    host.run(rowclone_program(host.timing, bank, src_row, dst_row))


def rowclone_match_fraction(
    host: DramBenderHost,
    bank: int,
    src_row: int,
    dst_row: int,
    pattern: np.ndarray,
    background: np.ndarray,
) -> float:
    """One subarray-mapper probe: did RowClone replicate ``pattern``?

    Initializes ``src_row`` with ``pattern`` and ``dst_row`` with
    ``background``, runs the sequence, and returns the fraction of
    destination bits that now match the pattern.  The probe deliberately
    crosses suspected subarray boundaries, so its program waives the
    static check that a RowClone's glitch really copies (FC113);
    :func:`rowclone` keeps it.
    """
    if src_row == dst_row:
        raise AddressError("source and destination rows must differ")
    host.fill_row(bank, src_row, pattern)
    host.fill_row(bank, dst_row, background)
    host.run(
        rowclone_program(host.timing, bank, src_row, dst_row).pragma(
            "staticcheck: ignore[FC113] subarray-boundary probe: "
            "a failed copy is the signal"
        )
    )
    result = host.peek_row(bank, dst_row)
    return float(np.mean(result == np.asarray(pattern)))
