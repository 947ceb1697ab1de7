"""Batched trial-axis execution of the bank state machine.

The characterization methodology measures success *rates*: the same
command sequence runs for hundreds of trials with freshly drawn operands
(§5, Figs. 5-21).  The serial path executes every trial as a separate
pass through :class:`~repro.dram.bank.Bank`; this module replays one
program over a whole block of trials at once, carrying a leading trials
axis through the analog kernels of :mod:`repro.dram.analog`.

Bit-identity with the serial path is the design invariant, achieved by
two mechanisms:

* **Per-trial noise substreams.**  Trial ``i`` draws its analog noise
  from the counter-based substream ``trial-noise/trial-{i}`` of the
  bank's seed tree (see :meth:`Bank.reserve_trial_block`), so the
  batched engine and the serial loop consume exactly the same numbers from exactly the same
  streams, in the same per-trial order.

* **Lanes.**  The command stream is identical across trials; the only
  control-flow divergence is the per-trial glitch-engagement draw.  A
  :class:`_Lane` groups trials whose open-activation state is identical
  and mirrors the serial state machine on the whole group at once;
  lanes split when the engagement draws disagree and merge again once
  their activations close.

Cell state is kept as sparse *overlays*: only rows the batch actually
touches get a ``(n_trials, columns)`` array (float32, like
:class:`~repro.dram.subarray.Subarray` storage); everything else stays
in the underlying bank.  Measurement loops re-initialize every activated
row before each program, which is what makes the replicate-on-first-
touch overlay equivalent to the serial carry-over of row state from one
trial to the next.  :meth:`BatchedBank.finalize` writes the last trial's
overlay back, leaving the bank exactly as the serial loop would.

Operations that would couple trials through shared state that the
measurement does not re-initialize (``elapse`` retention decay,
RowHammer) are refused with :class:`UnsupportedOperationError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np
from numpy.typing import NDArray
from scipy.special import ndtr  # type: ignore[import-untyped]

from ..errors import AddressError, CommandSequenceError, UnsupportedOperationError
from ..units import GND, VDD, VDD_HALF
from .analog import charge_share, coupling_disturbance, sense_differential
from .bank import SENSE_LATENCY_NS, Bank, _OpenState
from .config import ActivationSupport
from .decoder import ActivationKind
from .module import Module

__all__ = ["BatchedBank", "BatchedModule"]

_FloatArray = NDArray[np.float64]
_BoolArray = NDArray[np.bool_]
_TrialArray = NDArray[np.intp]


@dataclass
class _Lane:
    """A group of trials sharing one open-activation state.

    ``trials`` holds sorted positions into the batch (0..n_trials-1);
    ``state`` is the group's activation state (``None`` == precharged).
    The state's ``latched_upper`` arrays carry a leading lane axis of
    length ``trials.size``.
    """

    trials: _TrialArray
    state: Optional[_OpenState]


class BatchedBank:
    """Replays one bank's command stream over a block of trials.

    Construct with the per-trial generators from
    :meth:`Bank.reserve_trial_block`; issue the same commands a serial
    trial would issue (data arguments may carry a leading trials axis);
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
        self._gens: List[np.random.Generator] = list(generators)
        self.n_trials = len(self._gens)
        #: Sparse per-row overlays: (subarray, local_row) -> (T, columns).
        self._rows: Dict[Tuple[int, int], NDArray[np.float32]] = {}
        self._lanes: List[_Lane] = [
            _Lane(trials=np.arange(self.n_trials, dtype=np.intp), state=None)
        ]
        #: Commands dropped by the manufacturer policy, summed over
        #: trials; folded into the bank's counter at finalize().
        self.ignored_commands: int = 0

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    @property
    def columns(self) -> int:
        return self.bank.columns

    def _row_state(self, subarray: int, local: int) -> NDArray[np.float32]:
        """The (T, columns) overlay for one row, created on first touch."""
        key = (subarray, local)
        arr = self._rows.get(key)
        if arr is None:
            base = self.bank.subarrays[subarray].voltages[local]
            arr = np.repeat(base[np.newaxis, :], self.n_trials, axis=0)
            self._rows[key] = arr
        return arr

    def _trial_matrix(self, values: Any, what: str) -> NDArray[Any]:
        """Broadcast per-command data to a (T, columns) view."""
        a = np.asarray(values)
        if a.ndim == 1:
            if a.shape != (self.columns,):
                raise ValueError(
                    f"{what} must have {self.columns} entries, got {a.shape}"
                )
            return np.broadcast_to(a, (self.n_trials, self.columns))
        if a.ndim == 2:
            if a.shape != (self.n_trials, self.columns):
                raise ValueError(
                    f"{what} must have shape ({self.n_trials}, "
                    f"{self.columns}), got {a.shape}"
                )
            return a
        raise ValueError(f"{what} must be 1-D or (n_trials, columns)")

    def _require_all_closed(self, operation: str) -> None:
        for lane in self._lanes:
            if lane.state is not None:
                raise CommandSequenceError(
                    f"{operation} requires a precharged bank"
                )

    def _merge_closed_lanes(self) -> None:
        closed = [lane for lane in self._lanes if lane.state is None]
        open_lanes = [lane for lane in self._lanes if lane.state is not None]
        if len(closed) > 1:
            trials = np.sort(np.concatenate([lane.trials for lane in closed]))
            closed = [_Lane(trials=trials, state=None)]
        self._lanes = sorted(
            closed + open_lanes, key=lambda lane: int(lane.trials[0])
        )

    def _lane_generators(self, lane: _Lane) -> List[np.random.Generator]:
        return [self._gens[int(t)] for t in lane.trials]

    def _normal_draws(self, lane: _Lane, size: int) -> _FloatArray:
        """One standard-normal vector per trial, from the trial's stream."""
        return np.stack(
            [self._gens[int(t)].standard_normal(size) for t in lane.trials]
        )

    def _uniform_draws(self, lane: _Lane, size: int) -> _FloatArray:
        return np.stack(
            [self._gens[int(t)].random(size) for t in lane.trials]
        )

    # ------------------------------------------------------------------
    # command interface (mirrors Bank)
    # ------------------------------------------------------------------

    def activate(self, row: int, time_ns: float) -> None:
        self.bank.config.geometry.check_row(row)
        self._merge_closed_lanes()
        new_lanes: List[_Lane] = []
        for lane in self._lanes:
            self._advance_lane(lane, time_ns)
            state = lane.state
            if state is None:
                lane.state = self._begin_state(row, time_ns)
                new_lanes.append(lane)
                continue
            if state.pending_pre_ns is None:
                if self.bank.config.activation_support is ActivationSupport.NONE:
                    self.ignored_commands += int(lane.trials.size)
                    new_lanes.append(lane)
                    continue
                raise CommandSequenceError(
                    f"ACT to row {row} while bank {self.bank.index} is open "
                    "with no pending PRE"
                )
            if self._precharge_due(state, time_ns):
                self._complete_precharge_lane(lane)
                lane.state = self._begin_state(row, time_ns)
                new_lanes.append(lane)
                continue
            new_lanes.extend(self._glitch_lane(lane, row, time_ns))
        self._lanes = new_lanes

    def precharge(self, time_ns: float) -> None:
        for lane in self._lanes:
            self._advance_lane(lane, time_ns)
            state = lane.state
            if state is None:
                continue
            if (
                self.bank.config.activation_support is ActivationSupport.NONE
                and time_ns - state.first_act_ns < self.bank.timing.t_ras - 1e-9
            ):
                self.ignored_commands += int(lane.trials.size)
                continue
            state.pending_pre_ns = time_ns

    def settle(self, time_ns: float) -> None:
        for lane in self._lanes:
            self._advance_lane(lane, time_ns)
            state = lane.state
            if state is not None and self._precharge_due(state, time_ns):
                self._complete_precharge_lane(lane)
        self._merge_closed_lanes()

    def write(self, row: int, bits: Any, time_ns: float) -> None:
        pattern_bits = self._trial_matrix(
            np.asarray(bits).astype(bool), "WR pattern"
        )
        pattern = np.where(pattern_bits, VDD, GND)
        subarray = self.bank.subarray_of_row(row)
        local = self.bank.local_row(row)
        for lane in self._lanes:
            self._advance_lane(lane, time_ns)
            state = lane.state
            if state is not None and self._precharge_due(state, time_ns):
                self._complete_precharge_lane(lane)
                state = lane.state
            if state is None or local not in state.rows.get(subarray, ()):
                if self.bank.config.activation_support is ActivationSupport.NONE:
                    self.ignored_commands += int(lane.trials.size)
                    continue
                raise CommandSequenceError(
                    f"WR to row {row}, which is not among the activated rows"
                )
            if state.phase == "sharing":
                self._resolve_and_restore_lane(lane)
            lane_pattern = pattern[lane.trials]
            lane_size = int(lane.trials.size)
            for stripe in (subarray, subarray + 1):
                served = self.bank.served_columns(stripe)
                this_is_upper = stripe == subarray
                latched = state.latched_upper.setdefault(
                    stripe, np.full((lane_size, self.columns), VDD_HALF)
                )
                latched[:, served] = (
                    lane_pattern[:, served]
                    if this_is_upper
                    else VDD - lane_pattern[:, served]
                )
                for side_sub, side_value in (
                    (stripe, latched),
                    (stripe - 1, VDD - latched),
                ):
                    for local_row in state.rows.get(side_sub, ()):
                        if 0 <= side_sub < len(self.bank.subarrays):
                            arr = self._row_state(side_sub, local_row)
                            arr[np.ix_(lane.trials, served)] = side_value[:, served]
        self._merge_closed_lanes()

    def read(self, row: int, time_ns: float) -> NDArray[np.uint8]:
        subarray = self.bank.subarray_of_row(row)
        local = self.bank.local_row(row)
        out = np.empty((self.n_trials, self.columns), dtype=np.uint8)
        for lane in self._lanes:
            self._advance_lane(lane, time_ns)
            state = lane.state
            if state is not None and self._precharge_due(state, time_ns):
                self._complete_precharge_lane(lane)
                state = lane.state
            if state is None:
                raise CommandSequenceError("RD from a precharged bank")
            if state.phase == "sharing":
                self._resolve_and_restore_lane(lane)
            if local not in state.rows.get(subarray, ()):
                raise CommandSequenceError(
                    f"RD from row {row}, which is not among the activated rows"
                )
            arr = self._row_state(subarray, local)
            out[lane.trials] = (arr[lane.trials] > 0.5 * VDD).astype(np.uint8)
        return out

    def refresh(self, time_ns: float) -> None:
        for lane in self._lanes:
            self._advance_lane(lane, time_ns)
            if lane.state is not None:
                raise CommandSequenceError("REF issued to an open bank")
        for subarray in self.bank.subarrays:
            volts = subarray.voltages
            np.copyto(volts, np.where(volts > VDD_HALF, VDD, GND))
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
        self._require_all_closed("store_bits")
        subarray = self.bank.subarray_of_row(row)
        local = self.bank.local_row(row)
        self.bank.subarrays[subarray].check_row(local)
        pattern = self._trial_matrix(bits, "bits")
        arr = self._row_state(subarray, local)
        arr[:] = np.where(pattern.astype(bool), VDD, GND)

    def store_voltages(self, row: int, volts: Any) -> None:
        self._require_all_closed("store_voltages")
        subarray = self.bank.subarray_of_row(row)
        local = self.bank.local_row(row)
        self.bank.subarrays[subarray].check_row(local)
        values = self._trial_matrix(
            np.asarray(volts, dtype=np.float64), "voltages"
        )
        arr = self._row_state(subarray, local)
        arr[:] = np.clip(values, GND, VDD)

    def load_bits(self, row: int) -> NDArray[np.uint8]:
        self._require_all_closed("load_bits")
        subarray = self.bank.subarray_of_row(row)
        local = self.bank.local_row(row)
        self.bank.subarrays[subarray].check_row(local)
        arr = self._rows.get((subarray, local))
        if arr is None:
            base = self.bank.subarrays[subarray].read_bits(local)
            return np.repeat(base[np.newaxis, :], self.n_trials, axis=0)
        return (arr > 0.5 * VDD).astype(np.uint8)

    def finalize(self) -> None:
        """Fold the batch back into the bank.

        Writes the *last* trial's overlay rows into the bank's cell
        arrays — exactly the state a serial loop would have left — and
        transfers the ignored-command count.  All activations must be
        closed, as at the end of any measurement program.
        """
        self._require_all_closed("finalize")
        for (subarray_index, local), arr in self._rows.items():
            self.bank.subarrays[subarray_index].voltages[local] = arr[-1]
        self._rows.clear()
        self.bank.ignored_commands += self.ignored_commands
        self.ignored_commands = 0

    # ------------------------------------------------------------------
    # lane state machine (mirrors Bank's internals draw-for-draw)
    # ------------------------------------------------------------------

    def _begin_state(self, row: int, time_ns: float) -> _OpenState:
        subarray = self.bank.subarray_of_row(row)
        local = self.bank.local_row(row)
        return _OpenState(
            rows={subarray: (local,)},
            first_subarray=subarray,
            last_subarray=subarray,
            first_act_ns=time_ns,
            last_act_ns=time_ns,
        )

    def _precharge_due(self, state: Optional[_OpenState], time_ns: float) -> bool:
        return (
            state is not None
            and state.pending_pre_ns is not None
            and time_ns - state.pending_pre_ns >= self.bank.timing.t_rp - 1e-9
        )

    def _advance_lane(self, lane: _Lane, time_ns: float) -> None:
        state = lane.state
        if state is None:
            return
        if time_ns < state.last_act_ns - 1e-9:
            raise CommandSequenceError(
                f"time went backwards: {time_ns} < {state.last_act_ns}"
            )
        if state.phase != "sharing":
            return
        horizon_ns = time_ns
        if state.pending_pre_ns is not None:
            horizon_ns = min(horizon_ns, state.pending_pre_ns)
        if horizon_ns - state.last_act_ns >= SENSE_LATENCY_NS:
            self._resolve_and_restore_lane(lane)

    def _complete_precharge_lane(self, lane: _Lane) -> None:
        state = lane.state
        assert state is not None
        if state.phase == "sharing":
            sigma = self.bank.calibration.frac_noise_sigma
            for subarray_index, local_rows in state.rows.items():
                for local in local_rows:
                    noise = sigma * self._normal_draws(lane, self.columns)
                    arr = self._row_state(subarray_index, local)
                    arr[lane.trials] = np.clip(VDD_HALF + noise, GND, VDD)
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

    def _abort_lane(self, lane: _Lane, row: int, time_ns: float) -> None:
        """The glitch did not engage: only the last ACT takes effect."""
        lane.state = self._begin_state(row, time_ns)

    def _glitch_lane(self, lane: _Lane, row: int, time_ns: float) -> List[_Lane]:
        state = lane.state
        assert state is not None

        if self.bank.config.activation_support is ActivationSupport.NONE:
            self.ignored_commands += int(lane.trials.size)
            state.pending_pre_ns = None
            return [lane]

        subarray_last = self.bank.subarray_of_row(row)
        first_address = self.bank.config.geometry.bank_row(
            state.first_subarray, state.rows[state.first_subarray][0]
        )
        if subarray_last == state.first_subarray:
            pattern = self.bank.decoder.same_subarray_pattern(
                self.bank.index, first_address, row
            )
        elif abs(subarray_last - state.first_subarray) == 1:
            pattern = self.bank.decoder.neighboring_pattern(
                self.bank.index, first_address, row
            )
        else:
            self._abort_lane(lane, row, time_ns)
            return [lane]

        state.pending_pre_ns = None

        if pattern.kind is ActivationKind.LAST_ONLY:
            # Mirrors the serial short-circuit: LAST_ONLY aborts *before*
            # the engagement draw, so no trial consumes one.
            self._abort_lane(lane, row, time_ns)
            return [lane]

        if state.phase == "latched":
            probability = self.bank.calibration.not_engage_probability
        else:
            probability = self.bank.calibration.engage_probability_for(
                max(1, pattern.n_first)
            )
        engaged_mask = np.array(
            [self._gens[int(t)].random() < probability for t in lane.trials],
            dtype=bool,
        )

        result: List[_Lane] = []
        if bool(engaged_mask.all()):
            engaged = lane
        elif not bool(engaged_mask.any()):
            self._abort_lane(lane, row, time_ns)
            return [lane]
        else:
            engaged, aborted = self._split_lane(lane, engaged_mask)
            self._abort_lane(aborted, row, time_ns)
            result.append(aborted)

        estate = engaged.state
        assert estate is not None
        if pattern.kind is ActivationKind.SEQUENTIAL and estate.phase == "sharing":
            self._resolve_and_restore_lane(engaged)
        if estate.phase == "latched":
            self._join_latched_lane(engaged, pattern, time_ns)
        else:
            self._join_sharing_lane(engaged, pattern, time_ns)
        result.append(engaged)
        return result

    def _join_sharing_lane(
        self, lane: _Lane, pattern: Any, time_ns: float
    ) -> None:
        state = lane.state
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
        state.glitch_regions = self.bank._region_pair(pattern)

    def _join_latched_lane(
        self, lane: _Lane, pattern: Any, time_ns: float
    ) -> None:
        state = lane.state
        assert state is not None
        calibration = self.bank.calibration
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
        state.glitch_regions = self.bank._region_pair(pattern)

        src_region, dst_region = state.glitch_regions
        total_rows_pending = sum(len(r) for r in rows.values())
        load_scale = 0.35 + 0.65 * min(1.0, (total_rows_pending - 2) / 30.0)
        distance_z = (
            calibration.not_distance_z[src_region][dst_region] * load_scale
        )
        temperature_z = -calibration.temperature_drive_per_degc * (
            self.bank.temperature_c - 50.0
        )

        for stripe in self.bank._touched_stripes(rows):
            served = self.bank.served_columns(stripe)
            latched = state.latched_upper.get(stripe)
            if latched is None:
                resolved, _disturbance = self._sense_stripe_lane(
                    stripe, rows, served, state, lane
                )
                state.latched_upper[stripe] = resolved
                self._writeback_lane(stripe, rows, served, resolved, lane)
                continue
            load = sum(
                len(rows.get(side, ())) for side in (stripe - 1, stripe)
            )
            self._latched_fight_lane(
                stripe,
                rows,
                served,
                latched,
                load,
                distance_z + temperature_z,
                lane,
            )
        state.phase = "latched"

    def _resolve_and_restore_lane(self, lane: _Lane) -> None:
        state = lane.state
        assert state is not None
        calibration = self.bank.calibration
        rows = state.rows
        total_rows = sum(len(r) for r in rows.values())

        for stripe in self.bank._touched_stripes(rows):
            served = self.bank.served_columns(stripe)
            resolved, disturbance = self._sense_stripe_lane(
                stripe, rows, served, state, lane
            )
            state.latched_upper[stripe] = resolved
            if state.nominal:
                self._writeback_lane(stripe, rows, served, resolved, lane)
            else:
                extra_z = (
                    -calibration.op_coupling_flip_z * disturbance
                    - calibration.temperature_drive_per_degc
                    * (self.bank.temperature_c - 50.0)
                )
                self._latched_fight_lane(
                    stripe,
                    rows,
                    served,
                    resolved,
                    total_rows,
                    extra_z,
                    lane,
                    alpha=calibration.op_flip_alpha,
                )
        state.phase = "latched"

    def _gather_side_lane(
        self,
        subarray_index: int,
        rows: Dict[int, Tuple[int, ...]],
        served: NDArray[np.intp],
        lane: _Lane,
    ) -> NDArray[Any]:
        lane_size = int(lane.trials.size)
        if not 0 <= subarray_index < len(self.bank.subarrays):
            return np.empty((lane_size, 0, served.size))
        local_rows = rows.get(subarray_index, ())
        if not local_rows:
            return np.empty((lane_size, 0, served.size))
        slices = [
            self._row_state(subarray_index, local)[lane.trials][:, served]
            for local in local_rows
        ]
        return np.stack(slices, axis=1)

    def _sense_stripe_lane(
        self,
        stripe: int,
        rows: Dict[int, Tuple[int, ...]],
        served: NDArray[np.intp],
        state: _OpenState,
        lane: _Lane,
    ) -> Tuple[_FloatArray, _FloatArray]:
        calibration = self.bank.calibration
        upper_cells = self._gather_side_lane(stripe, rows, served, lane)
        lower_cells = self._gather_side_lane(stripe - 1, rows, served, lane)

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
            margin_shift = self.bank._glitch_margin_shift(stripe, state)
            gain_scale = self.bank._glitch_cm_gain_scale(stripe, state)
            temperature_scale = 1.0 + calibration.temperature_noise_per_degc * (
                self.bank.temperature_c - 50.0
            )
            upper_wins = sense_differential(
                v_upper,
                v_lower,
                self.bank.stripes[stripe].offsets[served],
                calibration.sense_noise_sigma * temperature_scale,
                self._lane_generators(lane),
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

    def _latched_fight_lane(
        self,
        stripe: int,
        rows: Dict[int, Tuple[int, ...]],
        served: NDArray[np.intp],
        latched_upper: _FloatArray,
        load_rows: int,
        extra_z: Union[float, _FloatArray],
        lane: _Lane,
        alpha: Optional[float] = None,
    ) -> None:
        calibration = self.bank.calibration
        if alpha is None:
            alpha = calibration.drive_load_alpha
        strengths = self.bank.stripes[stripe].strengths[served]
        z = strengths - alpha * max(0, load_rows - 1) + extra_z
        holds = self._uniform_draws(lane, int(served.size)) < ndtr(z)

        resolved = latched_upper.copy()
        on_served = resolved[:, served]
        flips = ~holds
        on_served[flips] = VDD - on_served[flips]
        resolved[:, served] = on_served
        latched_upper[:, served] = resolved[:, served]
        self._writeback_lane(stripe, rows, served, resolved, lane)

    def _writeback_lane(
        self,
        stripe: int,
        rows: Dict[int, Tuple[int, ...]],
        served: NDArray[np.intp],
        resolved_upper: _FloatArray,
        lane: _Lane,
    ) -> None:
        for subarray_index, value in (
            (stripe, resolved_upper),
            (stripe - 1, VDD - resolved_upper),
        ):
            if not 0 <= subarray_index < len(self.bank.subarrays):
                continue
            for local in rows.get(subarray_index, ()):
                arr = self._row_state(subarray_index, local)
                arr[np.ix_(lane.trials, served)] = value[:, served]


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
    one-trial block runs on the serial :class:`~repro.dram.bank.Bank`
    engine itself (the lanes are slower at ``n=1``): reserving the
    trial already switched each bank's noise stream to the trial's
    substream.
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
        # The serial engine of a one-trial block takes plain rows.
        return a.reshape(expected) if self.n_trials == 1 else a
