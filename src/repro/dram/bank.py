"""Bank-level activation engine.

This is the heart of the simulator: a :class:`Bank` owns subarray cell
state and sense-amplifier stripes and interprets the command stream —
including deliberately timing-violating streams — the way the paper's
experiments show real chips do.

Regimes
-------
A bank is either *precharged* or holds an open activation in one of two
phases:

* ``sharing`` — cells are connected to the bitlines but the sense
  amplifiers have not resolved yet (less than :data:`SENSE_LATENCY_NS`
  since the last ACT).
* ``latched`` — the sense amplifiers have resolved and restored the
  activated cells.

A second ``ACT`` arriving while a violated ``PRE`` is pending triggers the
multi-row activation glitch (§4.1).  What happens next depends on the
phase:

* phase ``latched`` → the **NOT regime** (§5.1): the already-latched
  sense amplifiers drive their (inverted, on the far terminal) values
  into every newly connected cell, with per-cell success governed by the
  drive-strength model.
* phase ``sharing`` → the **logic-op regime** (§6.1): all connected cells
  charge-share; the sense amplifiers then compare the two terminals and
  write AND/OR (and simultaneously NAND/NOR on the opposite terminal)
  results back.

Manufacturer policies (§7 Limitation 1) are honored: Samsung chips only
ever activate sequentially (NOT with one destination row), Micron chips
ignore commands that greatly violate timings.

The state machine itself is defined once, in
:class:`repro.dram.batch.LaneEngine`.  A :class:`Bank` runs it over a
single trial, directly on its own ``Subarray.voltages`` rows and with its
own noise stream; a :class:`~repro.dram.batch.BatchedBank` runs the same
code over a block of trials.  What only a bank has — retention decay,
RowHammer, the host backdoors and the trial-noise substreams — lives
here.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from ..rng import SeedTree
from ..units import VDD

# Not called here: perfbench's tracer patches these names in this module.
from .analog import charge_share, coupling_disturbance, sense_differential  # noqa: F401
from .batch import SENSE_LATENCY_NS, LaneEngine
from .calibration import DieCalibration
from .config import ChipConfig
from .subarray import Subarray
from .timing import TimingParameters
from .variation import StripeVariation

__all__ = ["Bank", "SENSE_LATENCY_NS"]


class Bank(LaneEngine):
    """One DRAM bank: subarrays, sense-amplifier stripes, open-row state."""

    def __init__(
        self,
        index: int,
        config: ChipConfig,
        calibration: DieCalibration,
        timing: TimingParameters,
        decoder,
        seed_tree: SeedTree,
        scramble_rows: bool = True,
    ):
        geometry = config.geometry
        self.index = index
        self.config = config
        self.calibration = calibration
        self.timing = timing
        self.decoder = decoder
        self.temperature_c = 50.0

        # The logical->physical row mapping is an address-decoding design
        # property: identical for every chip and module of a given die
        # type (the paper reverse engineers it once per module type).
        # Derive the scramble seed from the die identity, not the chip.
        die_identity = SeedTree(0).child(
            "row-map",
            config.manufacturer.value,
            f"{config.density_gb}Gb",
            config.die_revision,
        )
        self.subarrays = [
            Subarray(
                s,
                geometry.rows_per_subarray,
                geometry.columns,
                die_identity.child(f"subarray-{s}"),
                scramble_rows=scramble_rows,
                scramble_block_rows=geometry.lwl_block_rows,
            )
            for s in range(geometry.subarrays_per_bank)
        ]
        self.stripes = [
            StripeVariation(geometry.columns, calibration, seed_tree.child(f"stripe-{s}"))
            for s in range(geometry.subarrays_per_bank + 1)
        ]
        self._noise_tree = seed_tree.child("trial-noise")
        self._rng = self._noise_tree.generator()
        self._trial_counter: int = 0
        self._start_lanes(1)

    @property
    def open_rows(self) -> Dict[int, Tuple[int, ...]]:
        """Currently activated rows per subarray (empty dict if closed)."""
        state = self._lanes[0].state
        return dict(state.rows) if state else {}

    # ------------------------------------------------------------------
    # the state machine's storage and noise: this bank's own rows
    # ------------------------------------------------------------------

    def _row_state(self, subarray: int, local: int) -> np.ndarray:
        return self.subarrays[subarray].voltages[local : local + 1]

    def _generator(self, trial: int) -> np.random.Generator:
        return self._rng

    def read(self, row: int, time_ns: float) -> np.ndarray:
        """Process a RD command: the logic values of the open ``row``."""
        return super().read(row, time_ns)[0]

    def elapse(self, milliseconds: float) -> None:
        """Let wall-clock time pass: stored charge leaks toward GND.

        Leakage follows the calibrated per-millisecond rate and doubles
        per 10 degC above the 50 degC baseline (the standard retention
        model the paper's refresh background assumes, §2.1).  Without a
        REF within the retention window, logic-1 cells decay through the
        sensing threshold and data is lost — and Frac'd VDD/2 cells,
        which start *at* the threshold, decay much sooner.
        """
        if milliseconds < 0:
            raise ValueError(f"milliseconds must be non-negative, got {milliseconds}")
        self._require_closed("elapse")
        rate = self.calibration.leakage_per_ms * (
            2.0 ** ((self.temperature_c - 50.0) / 10.0)
        )
        decay = float(np.exp(-rate * milliseconds))
        for subarray in self.subarrays:
            subarray.voltages *= decay

    # ------------------------------------------------------------------
    # direct state access (host-side convenience, not DRAM commands)
    # ------------------------------------------------------------------

    def store_bits(self, row: int, bits: np.ndarray) -> None:
        """Backdoor write of a full row (host initialization shortcut)."""
        self._require_closed("store_bits")
        self.subarrays[self.subarray_of_row(row)].write_bits(self.local_row(row), bits)

    def store_voltages(self, row: int, volts: np.ndarray) -> None:
        """Backdoor write of raw cell voltages (e.g. a Frac'd row)."""
        self._require_closed("store_voltages")
        self.subarrays[self.subarray_of_row(row)].write_voltages(
            self.local_row(row), volts
        )

    def load_bits(self, row: int) -> np.ndarray:
        """Backdoor read of a full row (host verification shortcut)."""
        self._require_closed("load_bits")
        return self.subarrays[self.subarray_of_row(row)].read_bits(self.local_row(row))

    def apply_hammer(self, row: int, activations: int) -> None:
        """Apply ``activations`` single-sided hammer cycles to ``row``.

        Equivalent to an unrolled ACT/PRE loop: each physically adjacent
        victim cell flips with the calibrated per-activation probability.
        Rows at the subarray edge have a single physical neighbor, which
        is exactly the signature the row-order reverse engineering keys
        on (§5.2).
        """
        self._require_closed("apply_hammer")
        if activations < 0:
            raise ValueError("activations must be non-negative")
        subarray = self.subarrays[self.subarray_of_row(row)]
        local = self.local_row(row)
        flip_p = 1.0 - (1.0 - self.calibration.hammer_flip_probability) ** activations
        for victim in subarray.physical_neighbors(local):
            flips = self._rng.random(self.columns) < flip_p
            volts = subarray.voltages[victim]
            volts[flips] = VDD - volts[flips]

    # ------------------------------------------------------------------
    # trial-noise substreams
    # ------------------------------------------------------------------
    #
    # Measurements consume analog noise from counter-based per-(bank,
    # trial) substreams: trial ``i`` draws from the generator of seed
    # child ``trial-noise/trial-{i}``, whether a block of trials runs on
    # a batched block or — a one-trial block — on this bank itself
    # (``reserve_trial_block`` either way).  This is what makes a block
    # bit-identical to its trials run one at a time: both consume
    # exactly the same numbers from exactly the same streams.  Code that
    # never calls these (hammer sweeps, reverse engineering, ad-hoc
    # programs) keeps drawing from the undisturbed ``trial-noise`` root
    # stream.

    def _trial_generator(self, index: int) -> np.random.Generator:
        if index < 0:
            raise ValueError(f"trial index must be non-negative, got {index}")
        return self._noise_tree.child(f"trial-{index}").generator()

    def reserve_trial_block(
        self, n_trials: int
    ) -> Tuple[int, List[np.random.Generator]]:
        """Reserve ``n_trials`` consecutive trial substreams.

        Returns ``(first_index, generators)``.  The bank's own stream is
        left positioned on the *last* trial's generator, so a one-trial
        block runs on this bank with the trial's noise.
        """
        if n_trials < 1:
            raise ValueError(f"n_trials must be >= 1, got {n_trials}")
        start = self._trial_counter
        self._trial_counter += n_trials
        generators = [self._trial_generator(start + i) for i in range(n_trials)]
        self._rng = generators[-1]
        return start, generators
