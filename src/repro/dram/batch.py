"""The bank state machine, run over a block of trials.

The characterization methodology measures success *rates*: the same
command sequence runs for hundreds of trials with freshly drawn operands
(§5, Figs. 5-21).  :class:`LaneEngine` is the simulator's one
implementation of the bank state machine — ACT, PRE, WR, RD, settle and
refresh; the glitch, charge sharing, sensing, the latch fight and
write-back (see :mod:`repro.dram.bank` for the regimes).  It carries a
leading trials axis through the analog kernels of
:mod:`repro.dram.analog`, and it runs in two places:

* :class:`~repro.dram.bank.Bank` runs it over a single trial, directly
  on the bank's own ``Subarray.voltages`` rows (each a ``(1, columns)``
  view) with the bank's own noise stream;
* :class:`BatchedBank` runs it over a whole block of trials on sparse
  per-row overlays, with one noise stream per trial.

A block of ``k`` trials is bit-identical to ``k`` one-trial blocks run
one after another, by two mechanisms:

* **Per-trial noise substreams.**  Trial ``i`` draws its analog noise
  from the counter-based substream ``trial-noise/trial-{i}`` of the
  bank's seed tree (see :meth:`Bank.reserve_trial_block`), so a block
  and a run of one-trial blocks consume exactly the same numbers from
  exactly the same streams, in the same per-trial order.

* **Lanes.**  The command stream is identical across trials; the only
  control-flow divergence is the per-trial glitch-engagement draw.  A
  :class:`_Lane` groups trials whose open-activation state is identical
  and runs the state machine on the whole group at once; lanes split
  when the engagement draws disagree and merge again once their
  activations close.  A one-trial block is always a single lane.

A :class:`BatchedBank` keeps cell state as sparse *overlays*: only rows
the batch actually touches get a ``(n_trials, columns)`` array (float32,
like :class:`~repro.dram.subarray.Subarray` storage); everything else
stays in the underlying bank.  Measurement loops re-initialize every
activated row before each program, which is what makes the
replicate-on-first-touch overlay equivalent to carrying row state from
one trial to the next.  :meth:`BatchedBank.finalize` writes the last
trial's overlay back, leaving the bank exactly as a run of one-trial
blocks would.

Operations that would couple trials through shared state that the
measurement does not re-initialize (``elapse`` retention decay,
RowHammer) are refused on a batched block with
:class:`UnsupportedOperationError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np
from numpy.typing import NDArray
from scipy.special import ndtr  # type: ignore[import-untyped]

from ..errors import AddressError, CommandSequenceError, UnsupportedOperationError
from ..units import GND, VDD, VDD_HALF
from .analog import charge_share, coupling_disturbance, sense_differential
from .calibration import DieCalibration
from .config import ActivationSupport, ChipConfig
from .decoder import ActivationKind, ActivationPattern
from .subarray import Subarray
from .timing import TimingParameters
from .variation import StripeVariation

if TYPE_CHECKING:
    from .bank import Bank
    from .module import Module

__all__ = ["BatchedBank", "BatchedModule", "LaneEngine", "SENSE_LATENCY_NS"]

#: Time from wordline assertion to sense-amplifier resolution [ns].  A
#: second ACT arriving sooner joins the charge-sharing phase (logic-op
#: regime); arriving later meets latched amplifiers (NOT regime).
SENSE_LATENCY_NS = 4.0

_FloatArray = NDArray[np.float64]
_BoolArray = NDArray[np.bool_]
_TrialArray = NDArray[np.intp]
#: Trials of a lane as an index into a block's trial axis: a plain
#: slice when the lane holds the whole block.
_TrialSelection = Union[slice, _TrialArray]


@dataclass
class _OpenState:
    """Mutable record of a lane's open activation."""

    rows: Dict[int, Tuple[int, ...]]
    first_subarray: int
    last_subarray: int
    first_act_ns: float
    last_act_ns: float
    phase: str = "sharing"
    nominal: bool = True
    pending_pre_ns: Optional[float] = None
    #: Resolved voltage on each latched stripe's *upper* terminal (the
    #: bitline of subarray ``stripe_index``), on served columns; one row
    #: per trial of the lane.
    latched_upper: Dict[int, _FloatArray] = field(default_factory=dict)
    #: Region pair (first-set region, last-set region) of the most recent
    #: glitch, used by the design-induced-variation terms.
    glitch_regions: Optional[Tuple[int, int]] = None


@dataclass
class _Lane:
    """A group of trials sharing one open-activation state.

    ``trials`` holds sorted positions into the block (0..n_trials-1);
    ``state`` is the group's activation state (``None`` == precharged).
    The state's ``latched_upper`` arrays carry a leading lane axis of
    length ``trials.size``.
    """

    trials: _TrialArray
    state: Optional[_OpenState]


class LaneEngine:
    """The bank state machine over lanes of trials.

    Subclasses own the bank's description (the attributes below), the
    cell storage (:meth:`_row_state`) and the noise streams
    (:meth:`_generator`).  Command data may carry a leading trials axis.
    """

    index: int
    config: ChipConfig
    calibration: DieCalibration
    timing: TimingParameters
    decoder: Any
    subarrays: List[Subarray]
    stripes: List[StripeVariation]
    temperature_c: float
    n_trials: int
    #: Commands silently dropped by the manufacturer policy (§7), summed
    #: over trials.
    ignored_commands: int
    _lanes: List[_Lane]

    # ------------------------------------------------------------------
    # storage and noise (subclass hooks)
    # ------------------------------------------------------------------

    def _row_state(self, subarray: int, local: int) -> NDArray[np.float32]:
        """The ``(n_trials, columns)`` cell voltages of one row."""
        raise NotImplementedError

    def _generator(self, trial: int) -> np.random.Generator:
        """The noise stream of block position ``trial``."""
        raise NotImplementedError

    def _start_lanes(self, n_trials: int) -> None:
        """Begin with all ``n_trials`` trials precharged, in one lane."""
        self.n_trials = n_trials
        self._lanes = [_Lane(trials=np.arange(n_trials, dtype=np.intp), state=None)]
        self.ignored_commands = 0

    # ------------------------------------------------------------------
    # geometry helpers
    # ------------------------------------------------------------------

    @property
    def columns(self) -> int:
        return self.config.geometry.columns

    def served_columns(self, stripe: int) -> NDArray[np.intp]:
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

    def shared_columns(self, subarray_a: int, subarray_b: int) -> NDArray[np.intp]:
        """Columns on which two neighboring subarrays share sense amps."""
        return self.served_columns(self.shared_stripe(subarray_a, subarray_b))

    def subarray_of_row(self, row: int) -> int:
        return self.config.geometry.subarray_of_row(row)

    def local_row(self, row: int) -> int:
        return self.config.geometry.local_row(row)

    def pattern_regions(self, pattern: ActivationPattern) -> Tuple[int, int]:
        """Close/Middle/Far regions (first set, last set) of a pattern's
        activated rows relative to the shared stripe — the grouping used
        by the paper's distance heatmaps (Figs. 9 and 17)."""
        if pattern.subarray_first == pattern.subarray_last:
            return (1, 1)
        stripe = self.shared_stripe(pattern.subarray_first, pattern.subarray_last)
        first_sub = self.subarrays[pattern.subarray_first]
        last_sub = self.subarrays[pattern.subarray_last]
        first_region = first_sub.region_of_rows(
            pattern.rows_first or (0,), upper=(stripe == pattern.subarray_first + 1)
        )
        last_region = last_sub.region_of_rows(
            pattern.rows_last or (0,), upper=(stripe == pattern.subarray_last + 1)
        )
        return (int(first_region), int(last_region))

    @property
    def is_open(self) -> bool:
        for lane in self._lanes:
            if lane.state is not None:
                return True
        return False

    def _require_closed(self, operation: str) -> None:
        if self.is_open:
            raise CommandSequenceError(f"{operation} requires a precharged bank")

    def _trial_matrix(self, values: Any, what: str) -> NDArray[Any]:
        """Broadcast per-command data to a (T, columns) view."""
        a = np.asarray(values)
        if a.ndim == 1:
            if a.shape != (self.columns,):
                raise ValueError(
                    f"{what} must have {self.columns} entries, got {a.shape}"
                )
            if self.n_trials == 1:
                return a[np.newaxis]
            return np.broadcast_to(a, (self.n_trials, self.columns))
        if a.ndim == 2:
            if a.shape != (self.n_trials, self.columns):
                raise ValueError(
                    f"{what} must have shape ({self.n_trials}, "
                    f"{self.columns}), got {a.shape}"
                )
            return a
        raise ValueError(f"{what} must be 1-D or (n_trials, columns)")

    # ------------------------------------------------------------------
    # command interface
    # ------------------------------------------------------------------

    def activate(self, row: int, time_ns: float) -> None:
        """Process an ACT command at absolute time ``time_ns``."""
        self.config.geometry.check_row(row)
        self._merge_closed_lanes()
        new_lanes: List[_Lane] = []
        for lane in self._lanes:
            self._advance(lane, time_ns)
            state = lane.state
            if state is None:
                lane.state = self._begin_state(row, time_ns)
                new_lanes.append(lane)
                continue
            if state.pending_pre_ns is None:
                if self.config.activation_support is ActivationSupport.NONE:
                    self.ignored_commands += int(lane.trials.size)
                    new_lanes.append(lane)
                    continue
                raise CommandSequenceError(
                    f"ACT to row {row} while bank {self.index} is open "
                    "with no pending PRE"
                )
            if self._precharge_due(state, time_ns):
                self._complete_precharge(lane)
                lane.state = self._begin_state(row, time_ns)
                new_lanes.append(lane)
                continue
            new_lanes.extend(self._glitch(lane, row, time_ns))
        self._lanes = new_lanes

    def precharge(self, time_ns: float) -> None:
        """Process a PRE command at absolute time ``time_ns``."""
        for lane in self._lanes:
            self._advance(lane, time_ns)
            state = lane.state
            if state is None:
                continue
            if (
                self.config.activation_support is ActivationSupport.NONE
                and time_ns - state.first_act_ns < self.timing.t_ras - 1e-9
            ):
                # Micron-style policy: a PRE that greatly violates tRAS is
                # ignored; the activation simply continues.
                self.ignored_commands += int(lane.trials.size)
                continue
            state.pending_pre_ns = time_ns

    def settle(self, time_ns: float) -> None:
        """Let time pass with no command (end of program / long NOP)."""
        for lane in self._lanes:
            self._advance(lane, time_ns)
            if self._precharge_due(lane.state, time_ns):
                self._complete_precharge(lane)
        self._merge_closed_lanes()

    def write(self, row: int, bits: Any, time_ns: float) -> None:
        """Process a WR command: overdrive the open row with ``bits``.

        Per the paper's methodology (§4.2), the write overdrives the
        sense amplifiers of the addressed row's subarray: every activated
        row in that subarray receives the pattern, while activated rows
        in the neighboring subarray receive the *inverse* on the shared
        (served) columns and keep their state elsewhere.
        """
        pattern_bits = self._trial_matrix(np.asarray(bits).astype(bool), "WR pattern")
        pattern = np.where(pattern_bits, VDD, GND)
        subarray = self.subarray_of_row(row)
        local = self.local_row(row)
        for lane in self._lanes:
            self._advance(lane, time_ns)
            state = lane.state
            if self._precharge_due(state, time_ns):
                self._complete_precharge(lane)
                state = lane.state
            if state is None or local not in state.rows.get(subarray, ()):
                if self.config.activation_support is ActivationSupport.NONE:
                    # The chip already dropped part of the sequence; a WR
                    # to a row it never opened is dropped too (§7).
                    self.ignored_commands += int(lane.trials.size)
                    continue
                raise CommandSequenceError(
                    f"WR to row {row}, which is not among the activated rows"
                )
            if state.phase == "sharing":
                self._resolve_and_restore(lane)
            lane_pattern = pattern[self._selection(lane)]
            for stripe in (subarray, subarray + 1):
                served = _served(stripe)
                # Stripe ``subarray`` has this subarray on its *upper*
                # side; stripe ``subarray + 1`` has it on its *lower* side.
                latched = state.latched_upper.setdefault(
                    stripe, np.full((int(lane.trials.size), self.columns), VDD_HALF)
                )
                latched[:, served] = (
                    lane_pattern[:, served]
                    if stripe == subarray
                    else VDD - lane_pattern[:, served]
                )
                self._writeback(stripe, state.rows, served, latched, lane)
        self._merge_closed_lanes()

    def read(self, row: int, time_ns: float) -> NDArray[np.uint8]:
        """Process a RD command: the ``(n_trials, columns)`` logic values
        of the open ``row``."""
        subarray = self.subarray_of_row(row)
        local = self.local_row(row)
        out = np.empty((self.n_trials, self.columns), dtype=np.uint8)
        for lane in self._lanes:
            self._advance(lane, time_ns)
            state = lane.state
            if self._precharge_due(state, time_ns):
                self._complete_precharge(lane)
                state = lane.state
            if state is None:
                raise CommandSequenceError("RD from a precharged bank")
            if state.phase == "sharing":
                self._resolve_and_restore(lane)
            if local not in state.rows.get(subarray, ()):
                raise CommandSequenceError(
                    f"RD from row {row}, which is not among the activated rows"
                )
            selection = self._selection(lane)
            out[selection] = self._row_state(subarray, local)[selection] > 0.5 * VDD
        return out

    def refresh(self, time_ns: float) -> None:
        """Process a REF command: snap every cell to its nearest rail.

        Note that refresh *destroys* fractional values: a Frac'd VDD/2
        cell is re-amplified to a full rail like any other.  Reference
        rows must therefore be re-initialized after any refresh — one
        reason the paper's command sequences re-run Frac per trial.
        """
        for lane in self._lanes:
            self._advance(lane, time_ns)
            if lane.state is not None:
                raise CommandSequenceError("REF issued to an open bank")
        for subarray in self.subarrays:
            volts = subarray.voltages
            np.copyto(volts, np.where(volts > VDD_HALF, VDD, GND))

    # ------------------------------------------------------------------
    # lanes and noise
    # ------------------------------------------------------------------

    def _selection(self, lane: _Lane) -> _TrialSelection:
        """Index of ``lane``'s trials into a block's trial axis."""
        if lane.trials.size == self.n_trials:
            return slice(None)
        return lane.trials

    def _merge_closed_lanes(self) -> None:
        if len(self._lanes) == 1:
            return
        closed = [lane for lane in self._lanes if lane.state is None]
        open_lanes = [lane for lane in self._lanes if lane.state is not None]
        if len(closed) > 1:
            trials = np.sort(np.concatenate([lane.trials for lane in closed]))
            closed = [_Lane(trials=trials, state=None)]
        self._lanes = sorted(
            closed + open_lanes, key=lambda lane: int(lane.trials[0])
        )

    def _lane_rng(
        self, lane: _Lane
    ) -> Union[np.random.Generator, List[np.random.Generator]]:
        """The lane's noise stream, or one stream per trial."""
        if lane.trials.size == 1:
            return self._generator(int(lane.trials[0]))
        return [self._generator(int(t)) for t in lane.trials]

    def _normal_draws(self, lane: _Lane, size: int) -> _FloatArray:
        """One standard-normal vector per trial, from the trial's stream."""
        rng = self._lane_rng(lane)
        if isinstance(rng, np.random.Generator):
            return rng.standard_normal(size)[None]
        return np.stack([gen.standard_normal(size) for gen in rng])

    def _uniform_draws(self, lane: _Lane, size: int) -> _FloatArray:
        rng = self._lane_rng(lane)
        if isinstance(rng, np.random.Generator):
            return rng.random(size)[None]
        return np.stack([gen.random(size) for gen in rng])

    # ------------------------------------------------------------------
    # activation, precharge and the glitch
    # ------------------------------------------------------------------

    def _begin_state(self, row: int, time_ns: float) -> _OpenState:
        subarray = self.subarray_of_row(row)
        return _OpenState(
            rows={subarray: (self.local_row(row),)},
            first_subarray=subarray,
            last_subarray=subarray,
            first_act_ns=time_ns,
            last_act_ns=time_ns,
        )

    def _precharge_due(self, state: Optional[_OpenState], time_ns: float) -> bool:
        return (
            state is not None
            and state.pending_pre_ns is not None
            and time_ns - state.pending_pre_ns >= self.timing.t_rp - 1e-9
        )

    def _advance(self, lane: _Lane, time_ns: float) -> None:
        state = lane.state
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
            self._resolve_and_restore(lane)

    def _complete_precharge(self, lane: _Lane) -> None:
        state = lane.state
        assert state is not None
        if state.phase == "sharing":
            # The precharge interrupted the activation before the sense
            # amplifiers resolved: the equalizer pulls the bitlines — and
            # the still-connected cells — to VDD/2.  This is exactly the
            # mechanism FracDRAM exploits to store fractional values.
            sigma = self.calibration.frac_noise_sigma
            selection = self._selection(lane)
            for subarray_index, local_rows in state.rows.items():
                for local in local_rows:
                    noise = sigma * self._normal_draws(lane, self.columns)
                    cells = self._row_state(subarray_index, local)
                    cells[selection] = np.clip(VDD_HALF + noise, GND, VDD)
        lane.state = None

    def _split_lane(self, lane: _Lane, keep: _BoolArray) -> Tuple[_Lane, _Lane]:
        """Split on a per-trial mask; both halves get independent state."""
        state = lane.state
        assert state is not None

        def clone(mask: _BoolArray) -> _OpenState:
            return _OpenState(
                rows=dict(state.rows),
                first_subarray=state.first_subarray,
                last_subarray=state.last_subarray,
                first_act_ns=state.first_act_ns,
                last_act_ns=state.last_act_ns,
                phase=state.phase,
                nominal=state.nominal,
                pending_pre_ns=state.pending_pre_ns,
                latched_upper={
                    stripe: latched[mask]
                    for stripe, latched in state.latched_upper.items()
                },
                glitch_regions=state.glitch_regions,
            )

        kept = _Lane(trials=lane.trials[keep], state=clone(keep))
        other = _Lane(trials=lane.trials[~keep], state=clone(~keep))
        return kept, other

    def _glitch(self, lane: _Lane, row: int, time_ns: float) -> List[_Lane]:
        """A second ACT while a violated PRE is pending (§4.1)."""
        state = lane.state
        assert state is not None

        if self.config.activation_support is ActivationSupport.NONE:
            # The chip ignores an ACT that greatly violates tRP (§7).
            self.ignored_commands += int(lane.trials.size)
            state.pending_pre_ns = None
            return [lane]

        subarray_last = self.subarray_of_row(row)
        first_address = self.config.geometry.bank_row(
            state.first_subarray, state.rows[state.first_subarray][0]
        )
        if subarray_last == state.first_subarray:
            pattern = self.decoder.same_subarray_pattern(
                self.index, first_address, row
            )
        elif abs(subarray_last - state.first_subarray) == 1:
            pattern = self.decoder.neighboring_pattern(
                self.index, first_address, row
            )
        else:
            # Electrically isolated subarrays: the second activation
            # proceeds independently (HiRA-style); we model it as a fresh
            # activation, the prior one closing without completing.
            lane.state = self._begin_state(row, time_ns)
            return [lane]

        state.pending_pre_ns = None

        if pattern.kind is ActivationKind.LAST_ONLY:
            # Only the last ACT takes effect, before any engagement draw.
            lane.state = self._begin_state(row, time_ns)
            return [lane]

        # Per-trial draw: does the multi-row glitch fully engage?
        if state.phase == "latched":
            probability = self.calibration.not_engage_probability
        else:
            probability = self.calibration.engage_probability_for(
                max(1, pattern.n_first)
            )
        engages = [self._generator(int(t)).random() < probability for t in lane.trials]

        result: List[_Lane] = []
        if all(engages):
            engaged = lane
        elif not any(engages):
            # The glitch did not engage: only the last ACT takes effect.
            lane.state = self._begin_state(row, time_ns)
            return [lane]
        else:
            engaged, aborted = self._split_lane(lane, np.array(engages))
            aborted.state = self._begin_state(row, time_ns)
            result.append(aborted)

        estate = engaged.state
        assert estate is not None
        if pattern.kind is ActivationKind.SEQUENTIAL and estate.phase == "sharing":
            # Sequential-only chips finish the first activation before
            # honoring the second: the charge never mixes, so the logic-op
            # regime is unreachable (Samsung, §6.3).
            self._resolve_and_restore(engaged)
        latched = estate.phase == "latched"
        rows = dict(estate.rows)
        for subarray, new_rows in (
            (pattern.subarray_first, pattern.rows_first),
            (pattern.subarray_last, pattern.rows_last),
        ):
            rows[subarray] = tuple(sorted(set(rows.get(subarray, ())) | set(new_rows)))
        estate.rows = rows
        estate.last_subarray = pattern.subarray_last
        estate.last_act_ns = time_ns
        estate.nominal = False
        estate.glitch_regions = self.pattern_regions(pattern)
        if latched:
            # NOT regime: latched amplifiers drive the newly joined rows.
            self._drive_joined_rows(engaged)
        # Otherwise the logic-op regime: the new rows join the
        # charge-sharing phase and resolve with the old ones.
        result.append(engaged)
        return result

    def _drive_joined_rows(self, lane: _Lane) -> None:
        """NOT regime (§5.1): latched amplifiers drive every joined row."""
        state = lane.state
        assert state is not None and state.glitch_regions is not None
        calibration = self.calibration
        rows = state.rows
        src_region, dst_region = state.glitch_regions
        # Design-induced variation scales with the drive load: far rows
        # cost little extra when one cell hangs off the latch, but the
        # long-wordline resistance compounds across a many-row set —
        # which is why the paper's distance heatmap (aggregated over all
        # destination counts) shows such deep valleys (Obs. 6) while the
        # single-destination NOT stays near 98% everywhere (Obs. 4).
        total_rows_pending = sum(len(r) for r in rows.values())
        load_scale = 0.35 + 0.65 * min(1.0, (total_rows_pending - 2) / 30.0)
        distance_z = calibration.not_distance_z[src_region][dst_region] * load_scale
        temperature_z = -calibration.temperature_drive_per_degc * (
            self.temperature_c - 50.0
        )

        for stripe in _touched_stripes(rows):
            served = _served(stripe)
            latched = state.latched_upper.get(stripe)
            if latched is None:
                # The far stripe of the joining subarray was precharged:
                # the joining cells are sensed normally against the open
                # reference and re-restored (the "retain initial values"
                # half of Observation 1).  The amplifier resolves *with*
                # the cells here, so there is no latch fight.
                resolved, _disturbance = self._sense_stripe(stripe, served, lane)
                state.latched_upper[stripe] = resolved
                self._writeback(stripe, rows, served, resolved, lane)
                continue
            # Rows on this stripe only: the shared stripe fights the
            # combined charge of both subarrays' rows, a far stripe only
            # its own side's.
            load = sum(len(rows.get(side, ())) for side in (stripe - 1, stripe))
            self._latched_fight(
                stripe, served, latched, load, distance_z + temperature_z, lane
            )
        state.phase = "latched"

    # ------------------------------------------------------------------
    # resolution
    # ------------------------------------------------------------------

    def _resolve_and_restore(self, lane: _Lane) -> None:
        """Sense amplifiers resolve; results are written back to cells."""
        state = lane.state
        assert state is not None
        calibration = self.calibration
        rows = state.rows
        total_rows = sum(len(r) for r in rows.values())

        for stripe in _touched_stripes(rows):
            served = _served(stripe)
            resolved, disturbance = self._sense_stripe(stripe, served, lane)
            state.latched_upper[stripe] = resolved
            if state.nominal:
                self._writeback(stripe, rows, served, resolved, lane)
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
                    -calibration.op_coupling_flip_z * disturbance
                    - calibration.temperature_drive_per_degc
                    * (self.temperature_c - 50.0)
                )
                self._latched_fight(
                    stripe,
                    served,
                    resolved,
                    total_rows,
                    extra_z,
                    lane,
                    alpha=calibration.op_flip_alpha,
                )
        state.phase = "latched"

    def _gather_side(
        self, subarray_index: int, served: slice, lane: _Lane
    ) -> NDArray[Any]:
        """``(lane trials, rows, served columns)`` voltages of the
        activated cells on one side of a stripe."""
        state = lane.state
        assert state is not None
        local_rows: Tuple[int, ...] = ()
        if 0 <= subarray_index < len(self.subarrays):
            local_rows = state.rows.get(subarray_index, ())
        if not local_rows:
            # Every stripe serves half of the (even) columns.
            return np.empty((int(lane.trials.size), 0, self.columns // 2))
        selection = self._selection(lane)
        cells = [
            self._row_state(subarray_index, local)[selection, np.newaxis, served]
            for local in local_rows
        ]
        return cells[0] if len(cells) == 1 else np.concatenate(cells, axis=1)

    def _sense_stripe(
        self, stripe: int, served: slice, lane: _Lane
    ) -> Tuple[_FloatArray, _FloatArray]:
        """Charge-share and compare on one stripe.

        Returns the resolved upper-terminal voltage (full-width rows,
        served columns set) and the per-served-column coupling
        disturbance of the raw differential.
        """
        state = lane.state
        assert state is not None
        calibration = self.calibration
        upper_cells = self._gather_side(stripe, served, lane)
        lower_cells = self._gather_side(stripe - 1, served, lane)

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
                self._lane_rng(lane),
                common_mode_gain=calibration.common_mode_noise_gain * gain_scale,
                common_mode_threshold=calibration.common_mode_threshold,
                sigma_cap_factor=calibration.common_mode_sigma_cap * gain_scale,
                common_mode_offset_gain=calibration.common_mode_offset_gain,
                low_common_mode_offset_gain=calibration.low_common_mode_offset_gain,
                coupling_sigma=calibration.coupling_noise_sigma,
                margin_shift=margin_shift,
            )

        resolved = np.full((int(lane.trials.size), self.columns), VDD_HALF)
        resolved[:, served] = np.where(upper_wins, VDD, GND)
        return resolved, np.asarray(disturbance, dtype=np.float64)

    def _glitch_margin_shift(self, stripe: int, state: _OpenState) -> float:
        """Design-induced margin shift in the logic-op regime (Fig. 17)."""
        if state.glitch_regions is None or state.first_subarray == state.last_subarray:
            return 0.0
        if stripe != self.shared_stripe(state.first_subarray, state.last_subarray):
            return 0.0
        first_region, last_region = state.glitch_regions
        shift = float(self.calibration.op_distance_margin[last_region][first_region])
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
        return float(
            self.calibration.op_distance_cm_gain_scale[last_region][first_region]
        )

    def _latched_fight(
        self,
        stripe: int,
        served: slice,
        latched_upper: _FloatArray,
        load_rows: int,
        extra_z: Union[float, _FloatArray],
        lane: _Lane,
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
        holds = self._uniform_draws(lane, int(strengths.size)) < ndtr(z)
        on_served = latched_upper[:, served]  # a view: flips land in place
        np.subtract(VDD, on_served, out=on_served, where=~holds)
        state = lane.state
        assert state is not None
        self._writeback(stripe, state.rows, served, latched_upper, lane)

    def _writeback(
        self,
        stripe: int,
        rows: Dict[int, Tuple[int, ...]],
        served: slice,
        resolved_upper: _FloatArray,
        lane: _Lane,
    ) -> None:
        """Drive a stripe's resolved terminals into its connected cells."""
        selection = self._selection(lane)
        upper = resolved_upper[:, served]
        for subarray_index, values in ((stripe, upper), (stripe - 1, VDD - upper)):
            if not 0 <= subarray_index < len(self.subarrays):
                continue
            for local in rows.get(subarray_index, ()):
                self._row_state(subarray_index, local)[selection, served] = values


def _served(stripe: int) -> slice:
    """The columns stripe ``stripe`` serves, as a stride slice (see
    :meth:`LaneEngine.served_columns`)."""
    return slice(stripe % 2, None, 2)


def _touched_stripes(rows: Dict[int, Tuple[int, ...]]) -> List[int]:
    stripes = set()
    for subarray_index, local_rows in rows.items():
        if local_rows:
            stripes.add(subarray_index)
            stripes.add(subarray_index + 1)
    return sorted(stripes)


class BatchedBank(LaneEngine):
    """Runs one bank's command stream over a block of trials.

    Construct with the per-trial generators from
    :meth:`Bank.reserve_trial_block`; issue the same commands a one-trial
    block would issue (data arguments may carry a leading trials axis);
    call :meth:`finalize` to fold the last trial's cell state back into
    the bank.
    """

    def __init__(self, bank: Bank, generators: Sequence[np.random.Generator]):
        if bank.is_open:
            raise CommandSequenceError(
                "batched execution requires a precharged bank"
            )
        if len(generators) == 0:
            raise ValueError("need at least one per-trial generator")
        self.bank = bank
        self.index = bank.index
        self.config = bank.config
        self.calibration = bank.calibration
        self.timing = bank.timing
        self.decoder = bank.decoder
        self.subarrays = bank.subarrays
        self.stripes = bank.stripes
        self._gens: List[np.random.Generator] = list(generators)
        #: Sparse per-row overlays: (subarray, local_row) -> (T, columns).
        self._rows: Dict[Tuple[int, int], NDArray[np.float32]] = {}
        # The ignored-command count is folded into the bank's at finalize().
        self._start_lanes(len(self._gens))

    @property
    def temperature_c(self) -> float:
        """The bank's temperature (the block runs at whatever it is)."""
        return float(self.bank.temperature_c)

    @temperature_c.setter
    def temperature_c(self, value: float) -> None:
        self.bank.temperature_c = value

    def _row_state(self, subarray: int, local: int) -> NDArray[np.float32]:
        """The (T, columns) overlay for one row, created on first touch."""
        key = (subarray, local)
        arr = self._rows.get(key)
        if arr is None:
            base = self.bank.subarrays[subarray].voltages[local]
            arr = np.repeat(base[np.newaxis, :], self.n_trials, axis=0)
            self._rows[key] = arr
        return arr

    def _generator(self, trial: int) -> np.random.Generator:
        return self._gens[trial]

    def refresh(self, time_ns: float) -> None:
        super().refresh(time_ns)
        for arr in self._rows.values():
            np.copyto(arr, np.where(arr > VDD_HALF, VDD, GND))

    def elapse(self, milliseconds: float) -> None:
        raise UnsupportedOperationError(
            "elapse is not available in a batched trial block: retention "
            "decay on rows the block never re-initializes would couple the "
            "trials; run retention experiments with --batch-trials 1"
        )

    def apply_hammer(self, row: int, activations: int) -> None:
        raise UnsupportedOperationError(
            "apply_hammer is not available in a batched trial block"
        )

    # -- host-side backdoors -------------------------------------------

    def store_bits(self, row: int, bits: Any) -> None:
        self._require_closed("store_bits")
        subarray = self.subarray_of_row(row)
        local = self.local_row(row)
        self.subarrays[subarray].check_row(local)
        pattern = self._trial_matrix(bits, "bits")
        arr = self._row_state(subarray, local)
        arr[:] = np.where(pattern.astype(bool), VDD, GND)

    def store_voltages(self, row: int, volts: Any) -> None:
        self._require_closed("store_voltages")
        subarray = self.subarray_of_row(row)
        local = self.local_row(row)
        self.subarrays[subarray].check_row(local)
        values = self._trial_matrix(
            np.asarray(volts, dtype=np.float64), "voltages"
        )
        arr = self._row_state(subarray, local)
        arr[:] = np.clip(values, GND, VDD)

    def load_bits(self, row: int) -> NDArray[np.uint8]:
        self._require_closed("load_bits")
        subarray = self.subarray_of_row(row)
        local = self.local_row(row)
        self.subarrays[subarray].check_row(local)
        arr = self._rows.get((subarray, local))
        if arr is None:
            base = self.subarrays[subarray].read_bits(local)
            return np.repeat(base[np.newaxis, :], self.n_trials, axis=0)
        return (arr > 0.5 * VDD).astype(np.uint8)

    def finalize(self) -> None:
        """Fold the batch back into the bank.

        Writes the *last* trial's overlay rows into the bank's cell
        arrays — exactly the state a run of one-trial blocks would have
        left — and transfers the ignored-command count.  All activations
        must be closed, as at the end of any measurement program.
        """
        self._require_closed("finalize")
        for (subarray_index, local), arr in self._rows.items():
            self.subarrays[subarray_index].voltages[local] = arr[-1]
        self._rows.clear()
        self.bank.ignored_commands += self.ignored_commands
        self.ignored_commands = 0


class BatchedModule:
    """Fans a trial block out across a module's lock-step chips.

    Takes the same ``(bank, row, ...)`` arguments as
    :class:`~repro.dram.module.Module` and rejects any bank but the
    block's own (:class:`~repro.errors.AddressError`).  Row data carries
    the leading trials axis: ``(row_bits,)`` (same data, every trial) or
    ``(n_trials, row_bits)`` in, ``(n_trials, row_bits)`` out.

    Reserves one trial-index block per chip (all chips must agree — they
    share the command bus) and stripes row data across per-chip column
    segments exactly like :class:`~repro.dram.module.Module`.  A
    one-trial block runs the engine on each :class:`~repro.dram.bank.Bank`
    itself, on the bank's own rows: reserving the trial already switched
    each bank's noise stream to the trial's substream.
    """

    def __init__(self, module: Module, bank: int, n_trials: int):
        if n_trials < 1:
            raise ValueError(f"n_trials must be >= 1, got {n_trials}")
        start, per_chip_generators = module.reserve_trial_block(bank, n_trials)
        self.module = module
        self.bank_index = bank
        self.n_trials = n_trials
        #: Absolute trial indices of this block (for fault injection).
        self.trial_indices = range(start, start + n_trials)
        self.banks: List[Union[Bank, BatchedBank]] = [
            chip.bank(bank)
            if n_trials == 1
            else BatchedBank(chip.bank(bank), generators)
            for chip, generators in zip(module.chips, per_chip_generators)
        ]

    @property
    def row_bits(self) -> int:
        return self.module.row_bits

    def activate(self, bank: int, row: int, time_ns: float) -> None:
        for chip_bank in self._banks(bank):
            chip_bank.activate(row, time_ns)

    def precharge(self, bank: int, time_ns: float) -> None:
        for chip_bank in self._banks(bank):
            chip_bank.precharge(time_ns)

    def settle(self, bank: int, time_ns: float) -> None:
        for chip_bank in self._banks(bank):
            chip_bank.settle(time_ns)

    def refresh(self, bank: int, time_ns: float) -> None:
        for chip_bank in self._banks(bank):
            chip_bank.refresh(time_ns)

    def write(self, bank: int, row: int, bits: Any, time_ns: float) -> None:
        data = self._check_module_bits(bits, "WR pattern")
        for i, chip_bank in enumerate(self._banks(bank)):
            chip_bank.write(row, data[..., self.module.chip_slice(i)], time_ns)

    def read(self, bank: int, row: int, time_ns: float) -> NDArray[np.uint8]:
        return self._gather(
            [chip_bank.read(row, time_ns) for chip_bank in self._banks(bank)]
        )

    def store_bits(self, bank: int, row: int, bits: Any) -> None:
        data = self._check_module_bits(bits, "bits")
        for i, chip_bank in enumerate(self._banks(bank)):
            chip_bank.store_bits(row, data[..., self.module.chip_slice(i)])

    def store_voltages(self, bank: int, row: int, volts: Any) -> None:
        data = self._check_module_bits(
            np.asarray(volts, dtype=np.float64), "voltages"
        )
        for i, chip_bank in enumerate(self._banks(bank)):
            chip_bank.store_voltages(row, data[..., self.module.chip_slice(i)])

    def load_bits(self, bank: int, row: int) -> NDArray[np.uint8]:
        return self._gather(
            [chip_bank.load_bits(row) for chip_bank in self._banks(bank)]
        )

    def finalize(self) -> None:
        for chip_bank in self.banks:
            if isinstance(chip_bank, BatchedBank):
                chip_bank.finalize()

    def _banks(self, bank: int) -> List[Union[Bank, BatchedBank]]:
        if bank != self.bank_index:
            raise AddressError(
                f"trial block is bound to bank {self.bank_index}; "
                f"got bank {bank}"
            )
        return self.banks

    def _gather(self, parts: Sequence[NDArray[Any]]) -> NDArray[np.uint8]:
        """Concatenate per-chip rows into ``(n_trials, row_bits)``."""
        return np.concatenate(parts, axis=-1).reshape(
            self.n_trials, self.row_bits
        )

    def _check_module_bits(self, values: Any, what: str) -> NDArray[Any]:
        a = np.asarray(values)
        expected = (self.row_bits,)
        expected_batched = (self.n_trials, self.row_bits)
        if a.shape != expected and a.shape != expected_batched:
            raise ValueError(
                f"{what} must have shape {expected} or {expected_batched}, "
                f"got {a.shape}"
            )
        # A one-trial block's banks take plain rows.
        return a.reshape(expected) if self.n_trials == 1 else a
