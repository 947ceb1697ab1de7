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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np
from scipy.special import ndtr

from ..errors import AddressError, CommandSequenceError
from ..rng import SeedTree
from ..units import GND, VDD, VDD_HALF
from .analog import charge_share, coupling_disturbance, sense_differential
from .calibration import DieCalibration
from .config import ActivationSupport, ChipConfig
from .decoder import ActivationKind, ActivationPattern
from .subarray import Subarray
from .timing import TimingParameters
from .variation import StripeVariation

__all__ = ["Bank", "SENSE_LATENCY_NS"]

#: Time from wordline assertion to sense-amplifier resolution [ns].  A
#: second ACT arriving sooner joins the charge-sharing phase (logic-op
#: regime); arriving later meets latched amplifiers (NOT regime).
SENSE_LATENCY_NS = 4.0



@dataclass
class _OpenState:
    """Mutable record of the currently open activation."""

    rows: Dict[int, Tuple[int, ...]]
    first_subarray: int
    last_subarray: int
    first_act_ns: float
    last_act_ns: float
    phase: str = "sharing"
    nominal: bool = True
    pending_pre_ns: Optional[float] = None
    #: Resolved voltage on each latched stripe's *upper* terminal
    #: (the bitline of subarray ``stripe_index``), on served columns.
    latched_upper: Dict[int, np.ndarray] = field(default_factory=dict)
    #: Region pair (first-set region, last-set region) of the most recent
    #: glitch, used by the design-induced-variation terms.
    glitch_regions: Optional[Tuple[int, int]] = None


class Bank:
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
        self._state: Optional[_OpenState] = None
        #: Commands silently dropped by the manufacturer policy (§7).
        self.ignored_commands: int = 0

    # ------------------------------------------------------------------
    # geometry helpers
    # ------------------------------------------------------------------

    @property
    def columns(self) -> int:
        return self.config.geometry.columns

    def served_columns(self, stripe: int) -> np.ndarray:
        """Column indices served by sense-amplifier stripe ``stripe``.

        In the open-bitline layout each stripe senses every other column:
        stripe ``s`` (between subarrays ``s-1`` and ``s``) serves columns
        with ``column % 2 == s % 2`` (footnote 6: the NOT operation can
        negate half of a row).
        """
        if not 0 <= stripe <= len(self.subarrays):
            raise AddressError(f"stripe {stripe} out of range")
        return np.arange(stripe % 2, self.columns, 2)

    def shared_stripe(self, subarray_a: int, subarray_b: int) -> int:
        """Index of the stripe shared by two neighboring subarrays."""
        if abs(subarray_a - subarray_b) != 1:
            raise AddressError(
                f"subarrays {subarray_a} and {subarray_b} are not neighbors"
            )
        return max(subarray_a, subarray_b)

    def shared_columns(self, subarray_a: int, subarray_b: int) -> np.ndarray:
        """Columns on which two neighboring subarrays share sense amps."""
        return self.served_columns(self.shared_stripe(subarray_a, subarray_b))

    def subarray_of_row(self, row: int) -> int:
        return self.config.geometry.subarray_of_row(row)

    def local_row(self, row: int) -> int:
        return self.config.geometry.local_row(row)

    @property
    def is_open(self) -> bool:
        return self._state is not None

    @property
    def open_rows(self) -> Dict[int, Tuple[int, ...]]:
        """Currently activated rows per subarray (empty dict if closed)."""
        return dict(self._state.rows) if self._state else {}

    # ------------------------------------------------------------------
    # command interface
    # ------------------------------------------------------------------

    def activate(self, row: int, time_ns: float) -> None:
        """Process an ACT command at absolute time ``time_ns``."""
        self.config.geometry.check_row(row)
        self._advance(time_ns)
        state = self._state

        if state is None:
            self._begin_activation(row, time_ns)
            return

        if state.pending_pre_ns is None:
            if self.config.activation_support is ActivationSupport.NONE:
                self.ignored_commands += 1
                return
            raise CommandSequenceError(
                f"ACT to row {row} while bank {self.index} is open with no "
                "pending PRE"
            )

        if self._precharge_is_due(time_ns):
            self._complete_precharge()
            self._begin_activation(row, time_ns)
            return

        self._glitch_activate(row, time_ns)

    def precharge(self, time_ns: float) -> None:
        """Process a PRE command at absolute time ``time_ns``."""
        self._advance(time_ns)
        state = self._state
        if state is None:
            return
        if (
            self.config.activation_support is ActivationSupport.NONE
            and time_ns - state.first_act_ns < self.timing.t_ras - 1e-9
        ):
            # Micron-style policy: a PRE that greatly violates tRAS is
            # ignored; the activation simply continues.
            self.ignored_commands += 1
            return
        state.pending_pre_ns = time_ns

    def settle(self, time_ns: float) -> None:
        """Let time pass with no command (end of program / long NOP)."""
        self._advance(time_ns)
        if self._state is not None and self._precharge_is_due(time_ns):
            self._complete_precharge()

    def _precharge_is_due(self, time_ns: float) -> bool:
        state = self._state
        return (
            state is not None
            and state.pending_pre_ns is not None
            and time_ns - state.pending_pre_ns >= self.timing.t_rp - 1e-9
        )

    def write(self, row: int, bits: np.ndarray, time_ns: float) -> None:
        """Process a WR command: overdrive the open row with ``bits``.

        Per the paper's methodology (§4.2), the write overdrives the
        sense amplifiers of the addressed row's subarray: every activated
        row in that subarray receives the pattern, while activated rows
        in the neighboring subarray receive the *inverse* on the shared
        (served) columns and keep their state elsewhere.
        """
        self._advance(time_ns)
        if self._precharge_is_due(time_ns):
            self._complete_precharge()
        state = self._state
        subarray = self.subarray_of_row(row)
        local = self.local_row(row)
        if state is None or local not in state.rows.get(subarray, ()):
            if self.config.activation_support is ActivationSupport.NONE:
                # The chip already dropped part of the sequence; a WR to
                # a row it never opened is dropped too (§7).
                self.ignored_commands += 1
                return
            raise CommandSequenceError(
                f"WR to row {row}, which is not among the activated rows"
            )
        if state.phase == "sharing":
            self._resolve_and_restore()

        bits = np.asarray(bits).astype(bool)
        if bits.shape != (self.columns,):
            raise ValueError(f"WR pattern must have {self.columns} bits")
        pattern = np.where(bits, VDD, GND)

        for stripe in (subarray, subarray + 1):
            served = self.served_columns(stripe)
            # Stripe ``subarray`` has this subarray on its *upper* side;
            # stripe ``subarray + 1`` has it on its *lower* side.
            this_is_upper = stripe == subarray
            latched = state.latched_upper.setdefault(
                stripe, np.full(self.columns, VDD_HALF)
            )
            latched[served] = (
                pattern[served] if this_is_upper else VDD - pattern[served]
            )
            upper_sub, lower_sub = stripe, stripe - 1
            for side_sub, side_value in (
                (upper_sub, latched),
                (lower_sub, VDD - latched),
            ):
                for local_row in state.rows.get(side_sub, ()):
                    if 0 <= side_sub < len(self.subarrays):
                        cells = self.subarrays[side_sub].voltages[local_row]
                        cells[served] = side_value[served]

    def read(self, row: int, time_ns: float) -> np.ndarray:
        """Process a RD command: the logic values of the open ``row``."""
        self._advance(time_ns)
        if self._precharge_is_due(time_ns):
            self._complete_precharge()
        state = self._state
        if state is None:
            raise CommandSequenceError("RD from a precharged bank")
        if state.phase == "sharing":
            self._resolve_and_restore()
        subarray = self.subarray_of_row(row)
        local = self.local_row(row)
        if local not in state.rows.get(subarray, ()):
            raise CommandSequenceError(
                f"RD from row {row}, which is not among the activated rows"
            )
        return self.subarrays[subarray].read_bits(local)

    def refresh(self, time_ns: float) -> None:
        """Process a REF command: snap every cell to its nearest rail.

        Note that refresh *destroys* fractional values: a Frac'd VDD/2
        cell is re-amplified to a full rail like any other.  Reference
        rows must therefore be re-initialized after any refresh — one
        reason the paper's command sequences re-run Frac per trial.
        """
        self._advance(time_ns)
        if self._state is not None:
            raise CommandSequenceError("REF issued to an open bank")
        for subarray in self.subarrays:
            volts = subarray.voltages
            np.copyto(volts, np.where(volts > VDD_HALF, VDD, GND))

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
    # the batched engine or — a one-trial block — on this bank itself
    # (``reserve_trial_block`` either way).  This is what makes the
    # batched engine bit-identical to the serial path: both consume
    # exactly the same numbers from exactly the same streams.  Code that never calls
    # these (hammer sweeps, reverse engineering, ad-hoc programs) keeps
    # drawing from the undisturbed ``trial-noise`` root stream.

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

    # ------------------------------------------------------------------
    # internal machinery
    # ------------------------------------------------------------------

    def _require_closed(self, operation: str) -> None:
        if self._state is not None:
            raise CommandSequenceError(f"{operation} requires a precharged bank")

    def _begin_activation(self, row: int, time_ns: float) -> None:
        subarray = self.subarray_of_row(row)
        local = self.local_row(row)
        self._state = _OpenState(
            rows={subarray: (local,)},
            first_subarray=subarray,
            last_subarray=subarray,
            first_act_ns=time_ns,
            last_act_ns=time_ns,
        )

    def _advance(self, time_ns: float) -> None:
        state = self._state
        if state is None:
            return
        if time_ns < state.last_act_ns - 1e-9:
            raise CommandSequenceError(
                f"time went backwards: {time_ns} < {state.last_act_ns}"
            )
        if state.phase != "sharing":
            return
        # A pending PRE disconnects the wordlines: the sense amplifiers
        # only resolve if they had SENSE_LATENCY_NS *before* the PRE
        # arrived.  An activation interrupted earlier never resolves —
        # that is the FracDRAM mechanism (see _complete_precharge).
        horizon_ns = time_ns
        if state.pending_pre_ns is not None:
            horizon_ns = min(horizon_ns, state.pending_pre_ns)
        if horizon_ns - state.last_act_ns >= SENSE_LATENCY_NS:
            self._resolve_and_restore()

    def _complete_precharge(self) -> None:
        state = self._state
        assert state is not None
        if state.phase == "sharing":
            # The precharge interrupted the activation before the sense
            # amplifiers resolved: the equalizer pulls the bitlines — and
            # the still-connected cells — to VDD/2.  This is exactly the
            # mechanism FracDRAM exploits to store fractional values.
            sigma = self.calibration.frac_noise_sigma
            for subarray_index, rows in state.rows.items():
                subarray = self.subarrays[subarray_index]
                for local in rows:
                    noise = sigma * self._rng.standard_normal(self.columns)
                    subarray.write_voltages(
                        local, np.clip(VDD_HALF + noise, GND, VDD)
                    )
        self._state = None

    # -- glitch path -----------------------------------------------------

    def _glitch_activate(self, row: int, time_ns: float) -> None:
        state = self._state
        assert state is not None
        support = self.config.activation_support

        if support is ActivationSupport.NONE:
            # The chip ignores an ACT that greatly violates tRP (§7).
            self.ignored_commands += 1
            state.pending_pre_ns = None
            return

        subarray_last = self.subarray_of_row(row)
        if subarray_last == state.first_subarray:
            pattern = self.decoder.same_subarray_pattern(
                self.index, self._first_row_address(), row
            )
        elif abs(subarray_last - state.first_subarray) == 1:
            pattern = self.decoder.neighboring_pattern(
                self.index, self._first_row_address(), row
            )
        else:
            # Electrically isolated subarrays: the second activation
            # proceeds independently (HiRA-style); we model it as a fresh
            # activation, the prior one closing without completing.
            self._abort_to_fresh(row, time_ns)
            return

        state.pending_pre_ns = None

        if pattern.kind is ActivationKind.LAST_ONLY or not self._engages(
            pattern, state
        ):
            self._abort_to_fresh(row, time_ns)
            return

        if pattern.kind is ActivationKind.SEQUENTIAL and state.phase == "sharing":
            # Sequential-only chips finish the first activation before
            # honoring the second: the charge never mixes, so the logic-op
            # regime is unreachable (Samsung, §6.3).
            self._resolve_and_restore()

        if state.phase == "latched":
            self._join_latched(pattern, time_ns)
        else:
            self._join_sharing(pattern, time_ns)

    def _first_row_address(self) -> int:
        state = self._state
        assert state is not None
        local_rows = state.rows[state.first_subarray]
        return self.config.geometry.bank_row(state.first_subarray, local_rows[0])

    def _engages(self, pattern: ActivationPattern, state: _OpenState) -> bool:
        """Per-trial draw: does the multi-row glitch fully engage?"""
        if state.phase == "latched":
            probability = self.calibration.not_engage_probability
        else:
            probability = self.calibration.engage_probability_for(
                max(1, pattern.n_first)
            )
        return bool(self._rng.random() < probability)

    def _abort_to_fresh(self, row: int, time_ns: float) -> None:
        """The glitch did not engage: only the last ACT takes effect."""
        state = self._state
        assert state is not None
        if state.phase == "sharing":
            # Nothing was ever resolved; the interrupted cells keep their
            # (mostly intact) charge and get restored by the periphery.
            self._state = None
        else:
            self._state = None
        self._begin_activation(row, time_ns)

    def _join_sharing(self, pattern: ActivationPattern, time_ns: float) -> None:
        """Logic-op regime: the new rows join the charge-sharing phase."""
        state = self._state
        assert state is not None
        rows = dict(state.rows)
        merged_first = sorted(
            set(rows.get(pattern.subarray_first, ())) | set(pattern.rows_first)
        )
        rows[pattern.subarray_first] = tuple(merged_first)
        merged_last = sorted(
            set(rows.get(pattern.subarray_last, ())) | set(pattern.rows_last)
        )
        rows[pattern.subarray_last] = tuple(merged_last)
        state.rows = rows
        state.last_subarray = pattern.subarray_last
        state.last_act_ns = time_ns
        state.nominal = False
        state.glitch_regions = self._region_pair(pattern)

    def _join_latched(self, pattern: ActivationPattern, time_ns: float) -> None:
        """NOT regime: latched amplifiers drive the newly joined rows."""
        state = self._state
        assert state is not None
        rows = dict(state.rows)
        rows[pattern.subarray_first] = tuple(
            sorted(set(rows.get(pattern.subarray_first, ())) | set(pattern.rows_first))
        )
        rows[pattern.subarray_last] = tuple(
            sorted(set(rows.get(pattern.subarray_last, ())) | set(pattern.rows_last))
        )
        state.rows = rows
        state.last_subarray = pattern.subarray_last
        state.last_act_ns = time_ns
        state.nominal = False
        state.glitch_regions = self._region_pair(pattern)

        src_region, dst_region = state.glitch_regions
        # Design-induced variation scales with the drive load: far rows
        # cost little extra when one cell hangs off the latch, but the
        # long-wordline resistance compounds across a many-row set —
        # which is why the paper's distance heatmap (aggregated over all
        # destination counts) shows such deep valleys (Obs. 6) while the
        # single-destination NOT stays near 98% everywhere (Obs. 4).
        total_rows_pending = sum(len(r) for r in rows.values())
        load_scale = 0.35 + 0.65 * min(1.0, (total_rows_pending - 2) / 30.0)
        distance_z = (
            self.calibration.not_distance_z[src_region][dst_region] * load_scale
        )
        temperature_z = -self.calibration.temperature_drive_per_degc * (
            self.temperature_c - 50.0
        )

        for stripe in self._touched_stripes(rows):
            served = self.served_columns(stripe)
            latched = state.latched_upper.get(stripe)
            if latched is None:
                # The far stripe of the joining subarray was precharged:
                # the joining cells are sensed normally against the open
                # reference and re-restored (the "retain initial values"
                # half of Observation 1).  The amplifier resolves *with*
                # the cells here, so there is no latch fight.
                latched, _disturbance = self._sense_stripe(stripe, rows, served, state)
                state.latched_upper[stripe] = latched
                self._writeback_exact(stripe, rows, served, latched)
                continue
            # Rows on this stripe only: the shared stripe fights the
            # combined charge of both subarrays' rows, a far stripe only
            # its own side's.
            load = sum(
                len(rows.get(side, ())) for side in (stripe - 1, stripe)
            )
            self._latched_fight_drive(
                stripe,
                rows,
                served,
                latched,
                load,
                distance_z + temperature_z,
            )
        state.phase = "latched"

    def pattern_regions(self, pattern: ActivationPattern) -> Tuple[int, int]:
        """Close/Middle/Far regions (first set, last set) of a pattern's
        activated rows relative to the shared stripe — the grouping used
        by the paper's distance heatmaps (Figs. 9 and 17)."""
        return self._region_pair(pattern)

    def _region_pair(self, pattern: ActivationPattern) -> Tuple[int, int]:
        """(first-set region, last-set region) relative to the shared stripe."""
        if pattern.subarray_first == pattern.subarray_last:
            return (1, 1)
        stripe = self.shared_stripe(pattern.subarray_first, pattern.subarray_last)
        first_sub = self.subarrays[pattern.subarray_first]
        last_sub = self.subarrays[pattern.subarray_last]
        rows_first = pattern.rows_first or (0,)
        rows_last = pattern.rows_last or (0,)
        first_region = first_sub.region_of_rows(
            rows_first, upper=(stripe == pattern.subarray_first + 1)
        )
        last_region = last_sub.region_of_rows(
            rows_last, upper=(stripe == pattern.subarray_last + 1)
        )
        return (int(first_region), int(last_region))

    def _touched_stripes(self, rows: Dict[int, Tuple[int, ...]]) -> List[int]:
        stripes = set()
        for subarray_index, local_rows in rows.items():
            if local_rows:
                stripes.add(subarray_index)
                stripes.add(subarray_index + 1)
        return sorted(stripes)

    # -- resolution ------------------------------------------------------

    def _resolve_and_restore(self) -> None:
        """Sense amplifiers resolve; results are written back to cells."""
        state = self._state
        assert state is not None
        rows = state.rows
        total_rows = sum(len(r) for r in rows.values())

        for stripe in self._touched_stripes(rows):
            served = self.served_columns(stripe)
            resolved, disturbance = self._sense_stripe(stripe, rows, served, state)
            state.latched_upper[stripe] = resolved
            if state.nominal:
                self._writeback_exact(stripe, rows, served, resolved)
            else:
                # Restore after a multi-row resolution is itself a latch
                # fight: the amplifier must overdrive every connected
                # cell, and adjacent columns swinging the opposite way
                # couple into the fight.  The flip probability is what
                # caps many-input op success around 95% at 16 inputs
                # (Observation 10) — and it is symmetric across the two
                # terminals, which is why AND tracks NAND and OR tracks
                # NOR so closely (Observation 13).
                extra_z = (
                    -self.calibration.op_coupling_flip_z * disturbance
                    - self.calibration.temperature_drive_per_degc
                    * (self.temperature_c - 50.0)
                )
                self._latched_fight_drive(
                    stripe,
                    rows,
                    served,
                    resolved,
                    total_rows,
                    extra_z,
                    alpha=self.calibration.op_flip_alpha,
                )
        state.phase = "latched"

    def _gather_side(
        self,
        subarray_index: int,
        rows: Dict[int, Tuple[int, ...]],
        served: np.ndarray,
    ) -> np.ndarray:
        """Voltages of activated cells on one side of a stripe."""
        if not 0 <= subarray_index < len(self.subarrays):
            return np.empty((0, served.size))
        local_rows = rows.get(subarray_index, ())
        if not local_rows:
            return np.empty((0, served.size))
        voltages = self.subarrays[subarray_index].voltages
        return voltages[np.asarray(local_rows)][:, served]

    def _sense_stripe(
        self,
        stripe: int,
        rows: Dict[int, Tuple[int, ...]],
        served: np.ndarray,
        state: _OpenState,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Charge-share and compare on one stripe.

        Returns the resolved upper-terminal voltage (full-width array,
        served columns set) and the per-served-column coupling
        disturbance of the raw differential.
        """
        calibration = self.calibration
        upper_cells = self._gather_side(stripe, rows, served)
        lower_cells = self._gather_side(stripe - 1, rows, served)

        v_upper = charge_share(
            upper_cells, calibration.cell_cap_ff, calibration.bitline_cap_ff
        )
        v_lower = charge_share(
            lower_cells, calibration.cell_cap_ff, calibration.bitline_cap_ff
        )
        disturbance = coupling_disturbance(v_upper - v_lower)

        if state.nominal:
            upper_wins = (v_upper - v_lower) > 0.0
        else:
            margin_shift = self._glitch_margin_shift(stripe, state)
            gain_scale = self._glitch_cm_gain_scale(stripe, state)
            temperature_scale = 1.0 + calibration.temperature_noise_per_degc * (
                self.temperature_c - 50.0
            )
            upper_wins = sense_differential(
                v_upper,
                v_lower,
                self.stripes[stripe].offsets[served],
                calibration.sense_noise_sigma * temperature_scale,
                self._rng,
                common_mode_gain=calibration.common_mode_noise_gain * gain_scale,
                common_mode_threshold=calibration.common_mode_threshold,
                sigma_cap_factor=calibration.common_mode_sigma_cap * gain_scale,
                common_mode_offset_gain=calibration.common_mode_offset_gain,
                low_common_mode_offset_gain=calibration.low_common_mode_offset_gain,
                coupling_sigma=calibration.coupling_noise_sigma,
                margin_shift=margin_shift,
            )

        resolved = np.full(self.columns, VDD_HALF)
        resolved[served] = np.where(upper_wins, VDD, GND)
        return resolved, disturbance

    def _glitch_margin_shift(self, stripe: int, state: _OpenState) -> float:
        """Design-induced margin shift in the logic-op regime (Fig. 17)."""
        if state.glitch_regions is None or state.first_subarray == state.last_subarray:
            return 0.0
        if stripe != self.shared_stripe(state.first_subarray, state.last_subarray):
            return 0.0
        first_region, last_region = state.glitch_regions
        shift = self.calibration.op_distance_margin[last_region][first_region]
        # The shift favors the *last-activated* (compute) side; flip the
        # sign when that side sits on the lower terminal.
        last_is_upper = stripe == state.last_subarray
        return shift if last_is_upper else -shift

    def _glitch_cm_gain_scale(self, stripe: int, state: _OpenState) -> float:
        """Design-induced scaling of the common-mode noise (Fig. 17)."""
        if state.glitch_regions is None or state.first_subarray == state.last_subarray:
            return 1.0
        if stripe != self.shared_stripe(state.first_subarray, state.last_subarray):
            return 1.0
        first_region, last_region = state.glitch_regions
        return self.calibration.op_distance_cm_gain_scale[last_region][first_region]

    def _latched_fight_drive(
        self,
        stripe: int,
        rows: Dict[int, Tuple[int, ...]],
        served: np.ndarray,
        latched_upper: np.ndarray,
        load_rows: int,
        extra_z,
        alpha: Optional[float] = None,
    ) -> None:
        """Newly connected cells fight an already-latched amplifier.

        Per column, the amplifier either *holds* — every connected cell
        is driven to the latched polarity (the NOT result on the far
        terminal) — or the injected cell charge *flips the latch*, and
        every connected cell is driven to the inverted, wrong value.
        The flip (not a benign retention) is what pushes the measured
        NOT success rate far below 50% at high destination-row counts
        (7.95% at 32 destination rows, Observation 4): the destination
        ends up with the source's value instead of its negation.
        """
        calibration = self.calibration
        if alpha is None:
            alpha = calibration.drive_load_alpha
        strengths = self.stripes[stripe].strengths[served]
        z = strengths - alpha * max(0, load_rows - 1) + extra_z
        holds = self._rng.random(served.size) < ndtr(z)

        resolved = latched_upper.copy()
        flipped = served[~holds]
        resolved[flipped] = VDD - resolved[flipped]
        latched_upper[served] = resolved[served]
        self._writeback_exact(stripe, rows, served, resolved)

    def _writeback_exact(
        self,
        stripe: int,
        rows: Dict[int, Tuple[int, ...]],
        served: np.ndarray,
        resolved_upper: np.ndarray,
    ) -> None:
        """Deterministic restore (nominal single-row activation)."""
        for subarray_index, value in (
            (stripe, resolved_upper),
            (stripe - 1, VDD - resolved_upper),
        ):
            if not 0 <= subarray_index < len(self.subarrays):
                continue
            for local in rows.get(subarray_index, ()):
                self.subarrays[subarray_index].voltages[local][served] = value[served]

