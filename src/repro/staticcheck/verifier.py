"""Static verifier for DRAM Bender test programs.

Walks a :class:`~repro.bender.program.TestProgram` against a *static
mirror* of the bank state machine in :mod:`repro.dram.batch` — per-bank
open/pending-precharge state, the sharing/latched sense phase, and the
decoder-predicted multi-row activation sets — and classifies every
``ACT → PRE → ACT`` gap as nominal or as one of the paper's intentional
violations (NOT regime, logic-op regime, RowClone, Frac).  Anything
that is neither nominal nor a recognized idiom becomes a
:class:`~repro.staticcheck.diagnostics.Diagnostic`.

The verifier is *session-aware*: a :class:`SessionState` carries bank
state and the set of Frac-initialized (VDD/2) rows across programs, so
``frac_program`` followed by ``logic_program`` verifies clean while a
logic operation with no Frac'd reference in the session warns (FC106).

The analysis models the *engaged* glitch path (the decoder pattern with
the addressed rows merged in); per-trial non-engagement is a runtime
random draw the static layer deliberately ignores.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..bender.commands import Command, Opcode
from ..bender.program import TestProgram
from ..dram.bank import SENSE_LATENCY_NS
from ..dram.config import ActivationSupport, ChipGeometry
from ..dram.timing import TimingParameters
from ..errors import AddressError
from .diagnostics import RULES, Diagnostic, Severity

__all__ = [
    "GapClassification",
    "ProgramReport",
    "SessionState",
    "ProgramVerifier",
    "VerifierObserver",
    "verify_program",
]

_EPS = 1e-9

#: Signature of the per-program ``emit`` closure the handlers receive:
#: ``emit(rule_id, command_index, message, severity=None)``.
_Emit = Callable[..., None]

@dataclass(frozen=True)
class GapClassification:
    """Classification of one activation episode.

    ``first_gap_ns`` is the ACT→PRE spacing of the episode (``None`` if
    no PRE was issued), ``second_gap_ns`` the PRE→ACT spacing of the
    glitch (``None`` for episodes closed by a completed precharge).
    """

    bank: int
    idiom: str
    command_index: int
    first_gap_ns: Optional[float]
    second_gap_ns: Optional[float]
    violates_t_ras: bool
    violates_t_rp: bool

    def describe(self) -> str:
        gaps = []
        if self.first_gap_ns is not None:
            mark = "!" if self.violates_t_ras else ""
            gaps.append(f"act->pre {self.first_gap_ns:.2f}ns{mark}")
        if self.second_gap_ns is not None:
            mark = "!" if self.violates_t_rp else ""
            gaps.append(f"pre->act {self.second_gap_ns:.2f}ns{mark}")
        detail = f" ({', '.join(gaps)})" if gaps else ""
        return f"bank {self.bank} cmd {self.command_index}: {self.idiom}{detail}"


@dataclass(frozen=True)
class ProgramReport:
    """Outcome of verifying one program."""

    program: str
    diagnostics: Tuple[Diagnostic, ...]
    classifications: Tuple[GapClassification, ...]

    @property
    def errors(self) -> Tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity >= Severity.ERROR)

    @property
    def warnings(self) -> Tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity == Severity.WARNING)

    def format(self) -> str:
        lines = [f"# verify {self.program or '<anonymous>'}"]
        lines += [c.describe() for c in self.classifications]
        lines += [d.format() for d in self.diagnostics]
        return "\n".join(lines)


@dataclass
class _OpenModel:
    """Static mirror of :class:`repro.dram.batch._OpenState`."""

    rows: Dict[int, Tuple[int, ...]]
    first_subarray: int
    first_row: int
    first_act_ns: float
    last_act_ns: float
    act_index: int
    phase: str = "sharing"
    nominal: bool = True
    pending_pre_ns: Optional[float] = None
    pending_pre_index: Optional[int] = None
    glitched: bool = False


@dataclass
class _BankModel:
    open: Optional[_OpenModel] = None


class VerifierObserver:
    """Hook points for layers that ride on the verifier's state machine.

    The semantic evaluator (:mod:`repro.staticcheck.semantics`) mirrors
    cell *values* on top of the verifier's cell *topology* by subscribing
    to these events.  Row dictionaries map subarray index to local row
    indices, exactly like :class:`_OpenModel.rows`.  The default
    implementation of every hook is a no-op, so observers override only
    what they need.
    """

    def on_fresh_activation(self, bank: int, row: int, index: int) -> None:
        """A single-row activation opened ``bank`` (phase: sharing)."""

    def on_resolve(
        self,
        bank: int,
        rows: Dict[int, Tuple[int, ...]],
        glitched: bool,
        first_subarray: int,
        index: int,
    ) -> None:
        """Sense amplifiers resolved the sharing phase over ``rows``."""

    def on_latched_drive(
        self, bank: int, new_rows: Dict[int, Tuple[int, ...]],
        first_subarray: int, index: int,
    ) -> None:
        """Latched amplifiers drive newly joined rows (NOT/RowClone)."""

    def on_frac(
        self, bank: int, rows: Dict[int, Tuple[int, ...]], index: Optional[int]
    ) -> None:
        """A completed precharge pulled the still-sharing ``rows`` to VDD/2."""

    def on_close(self, bank: int) -> None:
        """A latched episode closed nominally (values restored intact)."""

    def on_abort(self, bank: int) -> None:
        """The open episode aborted (isolated-subarray second ACT)."""

    def on_write(self, bank: int, row: int, data: object, index: int) -> None:
        """A WR overdrives the open rows of ``row``'s subarray pair."""

    def on_read(self, bank: int, row: int, index: int, label: str) -> None:
        """A RD returns ``row``'s resolved value."""

    def on_refresh(self, bank: int, index: int) -> None:
        """A REF re-amplified every cell of ``bank`` to a full rail."""


class SessionState:
    """Verifier state carried across programs of one executor session."""

    def __init__(self) -> None:
        self.now_ns: float = 0.0
        self.banks: Dict[int, _BankModel] = {}
        #: Rows currently holding a Frac (VDD/2) value: (bank, bank_row).
        self.frac_rows: Set[Tuple[int, int]] = set()

    def clone(self) -> "SessionState":
        """A deep copy, so a refused program leaves the state untouched."""
        other = SessionState()
        other.now_ns = self.now_ns
        other.banks = copy.deepcopy(self.banks)
        other.frac_rows = set(self.frac_rows)
        return other


class ProgramVerifier:
    """Static analyzer over :class:`TestProgram` command sequences.

    ``decoder`` (optional) predicts multi-row activation sets exactly
    like the device model; without one the verifier falls back to the
    addressed rows only.  ``suppress`` drops the listed rule ids —
    useful for deliberately-broken fault-injection programs.
    """

    def __init__(
        self,
        geometry: Optional[ChipGeometry] = None,
        decoder: Optional[object] = None,
        activation_support: ActivationSupport = ActivationSupport.SIMULTANEOUS,
        suppress: Iterable[str] = (),
    ) -> None:
        self.geometry = geometry if geometry is not None else ChipGeometry()
        self.decoder = decoder
        self.support = activation_support
        self.suppress: FrozenSet[str] = frozenset(suppress)
        unknown = sorted(self.suppress - set(RULES))
        if unknown:
            raise ValueError(f"unknown rule ids in suppress: {unknown}")
        #: Optional :class:`VerifierObserver` receiving state-machine
        #: events while a program is verified (the semantic evaluator).
        self.observer: Optional[VerifierObserver] = None

    @classmethod
    def for_module(
        cls, module: object, suppress: Iterable[str] = ()
    ) -> "ProgramVerifier":
        """A verifier matching a :class:`repro.dram.module.Module`."""
        config = module.config  # type: ignore[attr-defined]
        return cls(
            geometry=config.geometry,
            decoder=getattr(module, "decoder", None),
            activation_support=config.activation_support,
            suppress=suppress,
        )

    def new_session(self) -> SessionState:
        return SessionState()

    # ------------------------------------------------------------------

    def verify_session(
        self, programs: Sequence[TestProgram]
    ) -> List[ProgramReport]:
        """Verify programs in order, threading one session state."""
        state = self.new_session()
        return [self.verify_program(p, state=state) for p in programs]

    def verify_program(
        self, program: TestProgram, state: Optional[SessionState] = None
    ) -> ProgramReport:
        """Verify one program; mutates ``state`` (fresh one if omitted)."""
        if state is None:
            state = self.new_session()
        timing = program.timing
        diags: List[Diagnostic] = []
        idioms: List[GapClassification] = []
        touched: Set[int] = set()
        t = state.now_ns
        name = program.name
        skip_glitch_rules = self.support is ActivationSupport.NONE
        ignored = getattr(program, "ignored_rules", frozenset())

        def emit(
            rule_id: str,
            index: Optional[int],
            message: str,
            severity: Optional[Severity] = None,
        ) -> None:
            if rule_id in self.suppress:
                return
            if rule_id in ignored or "*" in ignored:
                return
            rule = RULES[rule_id]
            diags.append(
                Diagnostic(
                    rule=rule_id,
                    severity=severity if severity is not None else rule.severity,
                    message=message,
                    hint=rule.hint,
                    program=name,
                    command_index=index,
                )
            )

        for index, cmd in enumerate(program):
            self._check_quantization(cmd, index, timing, emit)
            if not self._check_addresses(cmd, index, emit):
                t += cmd.wait_cycles * timing.t_ck
                continue
            if cmd.opcode is Opcode.NOP:
                t += cmd.wait_cycles * timing.t_ck
                continue

            bankm = state.banks.setdefault(cmd.bank, _BankModel())
            touched.add(cmd.bank)
            self._advance(state, cmd.bank, bankm, t)

            if cmd.opcode is Opcode.ACT:
                self._on_act(state, bankm, cmd, index, t, timing, emit, idioms)
            elif cmd.opcode is Opcode.PRE:
                self._on_pre(bankm, cmd, index, t, timing, emit)
            elif cmd.opcode in (Opcode.WR, Opcode.RD):
                self._on_column_access(
                    state, bankm, cmd, index, t, timing, emit, idioms
                )
            elif cmd.opcode is Opcode.REF:
                self._on_ref(state, bankm, cmd, index, emit)

            t += cmd.wait_cycles * timing.t_ck

        # End-of-program settle: mirror the executor, which gives every
        # touched bank t_rc to complete a trailing PRE.
        settle_at = t + timing.t_rc
        last_index = max(len(program) - 1, 0)
        for bank in sorted(touched):
            bankm = state.banks[bank]
            self._advance(state, bank, bankm, settle_at)
            if bankm.open is not None and self._pre_due(
                bankm.open, timing, settle_at
            ):
                self._complete_precharge(state, bank, bankm, timing, idioms)
            if bankm.open is not None and not skip_glitch_rules:
                emit(
                    "FC112",
                    bankm.open.act_index,
                    f"bank {bank} is left open at end of program "
                    "(no pending PRE to complete)",
                )
        state.now_ns = settle_at

        self._check_intent(program, idioms, last_index, emit)
        return ProgramReport(
            program=name,
            diagnostics=tuple(diags),
            classifications=tuple(idioms),
        )

    # -- per-command checks ---------------------------------------------

    def _check_quantization(
        self, cmd: Command, index: int, timing: TimingParameters, emit: _Emit
    ) -> None:
        requested = cmd.requested_wait_ns
        if requested is not None and requested < timing.t_ck - _EPS:
            actual = cmd.wait_cycles * timing.t_ck
            emit(
                "FC107",
                index,
                f"wait_ns={requested:g} is below one bus cycle "
                f"(t_ck={timing.t_ck:g}ns) and was silently quantized up to "
                f"{cmd.wait_cycles} cycle(s) = {actual:g}ns",
            )

    def _check_addresses(self, cmd: Command, index: int, emit: _Emit) -> bool:
        """Range-check bank/row; returns False if the command is skipped."""
        geometry = self.geometry
        ok = True
        if not 0 <= cmd.bank < geometry.banks:
            emit(
                "FC109",
                index,
                f"bank {cmd.bank} out of range for a chip with "
                f"{geometry.banks} banks",
            )
            ok = False
        if cmd.row is not None and not 0 <= cmd.row < geometry.rows_per_bank:
            emit(
                "FC109",
                index,
                f"row {cmd.row} out of range for a bank with "
                f"{geometry.rows_per_bank} rows",
            )
            ok = False
        if cmd.opcode in (Opcode.PRE, Opcode.REF, Opcode.NOP) and cmd.row is not None:
            # Unreachable through Command.__post_init__; kept as defense
            # against hand-built command records.
            emit(
                "FC110",
                index,
                f"{cmd.opcode.value} carries row {cmd.row} but ignores row "
                "addressing",
            )
        return ok

    # -- bank-model transitions (mirror repro.dram.batch.LaneEngine) -----

    def _pre_due(
        self, open_: _OpenModel, timing: TimingParameters, time_ns: float
    ) -> bool:
        return (
            open_.pending_pre_ns is not None
            and time_ns - open_.pending_pre_ns >= timing.t_rp - _EPS
        )

    def _advance(
        self, state: SessionState, bank: int, bankm: _BankModel, time_ns: float
    ) -> None:
        """Resolve the sharing phase if SENSE_LATENCY_NS elapsed."""
        open_ = bankm.open
        if open_ is None or open_.phase != "sharing":
            return
        horizon = time_ns
        if open_.pending_pre_ns is not None:
            horizon = min(horizon, open_.pending_pre_ns)
        if horizon - open_.last_act_ns >= SENSE_LATENCY_NS:
            self._resolve(state, bank, open_)

    def _resolve(self, state: SessionState, bank: int, open_: _OpenModel) -> None:
        """Sense amplifiers resolve: cells snap to rails, Frac consumed."""
        open_.phase = "latched"
        if self.observer is not None:
            self.observer.on_resolve(
                bank,
                dict(open_.rows),
                open_.glitched,
                open_.first_subarray,
                open_.act_index,
            )
        for row in self._open_bank_rows(open_):
            state.frac_rows.discard((bank, row))

    def _complete_precharge(
        self,
        state: SessionState,
        bank: int,
        bankm: _BankModel,
        timing: TimingParameters,
        idioms: List[GapClassification],
    ) -> None:
        open_ = bankm.open
        assert open_ is not None
        if open_.phase == "sharing":
            # Interrupted activation + completed precharge: the equalizer
            # pulls the still-connected cells to VDD/2 — the Frac idiom.
            if self.observer is not None:
                self.observer.on_frac(
                    bank, dict(open_.rows), open_.pending_pre_index
                )
            for row in self._open_bank_rows(open_):
                state.frac_rows.add((bank, row))
            if not open_.glitched:
                first_gap = (
                    None
                    if open_.pending_pre_ns is None
                    else open_.pending_pre_ns - open_.last_act_ns
                )
                idioms.append(
                    GapClassification(
                        bank=bank,
                        idiom="frac",
                        command_index=open_.pending_pre_index
                        if open_.pending_pre_index is not None
                        else open_.act_index,
                        first_gap_ns=first_gap,
                        second_gap_ns=None,
                        violates_t_ras=True,
                        violates_t_rp=False,
                    )
                )
        else:
            if self.observer is not None:
                self.observer.on_close(bank)
            for row in self._open_bank_rows(open_):
                state.frac_rows.discard((bank, row))
            if not open_.glitched:
                first_gap = (
                    None
                    if open_.pending_pre_ns is None
                    else open_.pending_pre_ns - open_.last_act_ns
                )
                idioms.append(
                    GapClassification(
                        bank=bank,
                        idiom="nominal",
                        command_index=open_.pending_pre_index
                        if open_.pending_pre_index is not None
                        else open_.act_index,
                        first_gap_ns=first_gap,
                        second_gap_ns=None,
                        violates_t_ras=(
                            first_gap is not None
                            and first_gap < timing.t_ras - _EPS
                        ),
                        violates_t_rp=False,
                    )
                )
        bankm.open = None

    def _open_bank_rows(self, open_: _OpenModel) -> List[int]:
        geometry = self.geometry
        rows: List[int] = []
        for subarray, locals_ in open_.rows.items():
            for local in locals_:
                rows.append(geometry.bank_row(subarray, local))
        return rows

    def _begin_activation(
        self, bank: int, bankm: _BankModel, row: int, index: int, time_ns: float
    ) -> None:
        geometry = self.geometry
        subarray = geometry.subarray_of_row(row)
        local = geometry.local_row(row)
        bankm.open = _OpenModel(
            rows={subarray: (local,)},
            first_subarray=subarray,
            first_row=row,
            first_act_ns=time_ns,
            last_act_ns=time_ns,
            act_index=index,
        )
        if self.observer is not None:
            self.observer.on_fresh_activation(bank, row, index)

    # -- opcode handlers -------------------------------------------------

    def _on_act(
        self,
        state: SessionState,
        bankm: _BankModel,
        cmd: Command,
        index: int,
        t: float,
        timing: TimingParameters,
        emit: _Emit,
        idioms: List[GapClassification],
    ) -> None:
        open_ = bankm.open
        assert cmd.row is not None
        if open_ is None:
            self._begin_activation(cmd.bank, bankm, cmd.row, index, t)
            return
        if open_.pending_pre_ns is None:
            if self.support is ActivationSupport.NONE:
                idioms.append(
                    GapClassification(
                        bank=cmd.bank,
                        idiom="ignored",
                        command_index=index,
                        first_gap_ns=None,
                        second_gap_ns=None,
                        violates_t_ras=False,
                        violates_t_rp=False,
                    )
                )
                return
            emit(
                "FC101",
                index,
                f"ACT to row {cmd.row} while bank {cmd.bank} is open with no "
                "pending PRE (raises CommandSequenceError at runtime)",
            )
            return
        if self._pre_due(open_, timing, t):
            self._complete_precharge(state, cmd.bank, bankm, timing, idioms)
            self._begin_activation(cmd.bank, bankm, cmd.row, index, t)
            return
        self._glitch(state, bankm, cmd, index, t, timing, emit, idioms)

    def _glitch(
        self,
        state: SessionState,
        bankm: _BankModel,
        cmd: Command,
        index: int,
        t: float,
        timing: TimingParameters,
        emit: _Emit,
        idioms: List[GapClassification],
    ) -> None:
        """Second ACT while a violated PRE is pending: the multi-row glitch."""
        open_ = bankm.open
        assert open_ is not None and cmd.row is not None
        geometry = self.geometry
        bank = cmd.bank
        first_gap = (
            open_.pending_pre_ns - open_.last_act_ns
            if open_.pending_pre_ns is not None
            else None
        )
        second_gap = t - open_.pending_pre_ns if open_.pending_pre_ns is not None else None

        if self.support is ActivationSupport.NONE:
            # Micron-style policy: the violating ACT is silently dropped.
            open_.pending_pre_ns = None
            open_.pending_pre_index = None
            idioms.append(
                GapClassification(
                    bank=bank,
                    idiom="ignored",
                    command_index=index,
                    first_gap_ns=first_gap,
                    second_gap_ns=second_gap,
                    violates_t_ras=False,
                    violates_t_rp=False,
                )
            )
            return

        sub_first = open_.first_subarray
        sub_last = geometry.subarray_of_row(cmd.row)
        diff = abs(sub_last - sub_first)

        if diff > 1:
            emit(
                "FC104",
                index,
                f"double activation pairs rows {open_.first_row} (subarray "
                f"{sub_first}) and {cmd.row} (subarray {sub_last}): the "
                "subarrays share no sense-amplifier stripe, so the second "
                "activation proceeds independently and the operation cannot "
                "work",
            )
            idioms.append(
                GapClassification(
                    bank=bank,
                    idiom="isolated",
                    command_index=index,
                    first_gap_ns=first_gap,
                    second_gap_ns=second_gap,
                    violates_t_ras=open_.phase == "sharing",
                    violates_t_rp=True,
                )
            )
            # Mirror the engine's aborted glitch: only the last ACT takes effect.
            bankm.open = None
            if self.observer is not None:
                self.observer.on_abort(bank)
            self._begin_activation(bank, bankm, cmd.row, index, t)
            return

        open_.pending_pre_ns = None
        open_.pending_pre_index = None

        if (
            self.support is ActivationSupport.SEQUENTIAL_ONLY
            and open_.phase == "sharing"
        ):
            # Sequential-only chips finish the first activation before
            # honoring the second: the charge-sharing regime is
            # unreachable (Samsung, §6.3).
            self._resolve(state, bank, open_)

        regime = "latched" if open_.phase == "latched" else "sharing"
        if regime == "latched":
            idiom = "rowclone" if diff == 0 else "not"
        else:
            idiom = "logic"

        pattern_rows = self._pattern_rows(bank, open_.first_row, cmd.row, diff)
        before = {sub: set(locals_) for sub, locals_ in open_.rows.items()}
        reference_rows = self._merge_rows(open_, pattern_rows)
        open_.last_act_ns = t
        open_.nominal = False
        open_.glitched = True

        if idiom in ("not", "rowclone") and self.observer is not None:
            new_rows = {
                sub: tuple(sorted(set(locals_) - before.get(sub, set())))
                for sub, locals_ in open_.rows.items()
            }
            new_rows = {sub: locs for sub, locs in new_rows.items() if locs}
            self.observer.on_latched_drive(
                bank, new_rows, open_.first_subarray, index
            )

        if idiom == "logic":
            if diff == 0:
                emit(
                    "FC105",
                    index,
                    f"charge-sharing activation of rows {open_.first_row} and "
                    f"{cmd.row} keeps reference and compute operands in one "
                    f"subarray ({sub_first}); AND/OR across subarrays is "
                    "impossible here",
                )
            frac_hits = {
                row for row in reference_rows if (bank, row) in state.frac_rows
            }
            if not frac_hits:
                emit(
                    "FC106",
                    index,
                    "charge-sharing operation but no row of the reference "
                    f"operand set {sorted(reference_rows)} was Frac-initialized "
                    "(VDD/2) in this session",
                )

        idioms.append(
            GapClassification(
                bank=bank,
                idiom=idiom,
                command_index=index,
                first_gap_ns=first_gap,
                second_gap_ns=second_gap,
                violates_t_ras=(
                    first_gap is not None and first_gap < timing.t_ras - _EPS
                ),
                violates_t_rp=(
                    second_gap is not None and second_gap < timing.t_rp - _EPS
                ),
            )
        )

    def _pattern_rows(
        self, bank: int, row_first: int, row_last: int, diff: int
    ) -> Dict[int, Tuple[int, ...]]:
        """Decoder-predicted activated local rows per subarray."""
        geometry = self.geometry
        rows: Dict[int, Set[int]] = {}

        def add(subarray: int, locals_: Iterable[int]) -> None:
            rows.setdefault(subarray, set()).update(locals_)

        # The addressed rows always count: even a non-engaging draw keeps
        # the last row open, and the engaged path includes both.
        add(geometry.subarray_of_row(row_first), (geometry.local_row(row_first),))
        add(geometry.subarray_of_row(row_last), (geometry.local_row(row_last),))

        decoder = self.decoder
        if decoder is not None:
            try:
                if diff == 0:
                    pattern = decoder.same_subarray_pattern(  # type: ignore[attr-defined]
                        bank, row_first, row_last
                    )
                else:
                    pattern = decoder.neighboring_pattern(  # type: ignore[attr-defined]
                        bank, row_first, row_last
                    )
            except AddressError:
                pattern = None
            if pattern is not None:
                add(pattern.subarray_first, pattern.rows_first)
                add(pattern.subarray_last, pattern.rows_last)
        return {sub: tuple(sorted(locals_)) for sub, locals_ in rows.items()}

    def _merge_rows(
        self,
        open_: _OpenModel,
        pattern_rows: Dict[int, Tuple[int, ...]],
    ) -> Set[int]:
        """Merge glitch rows into the open set; returns the reference-side
        bank rows (first subarray side, or the whole set in-subarray)."""
        geometry = self.geometry
        merged: Dict[int, Tuple[int, ...]] = dict(open_.rows)
        for subarray, locals_ in pattern_rows.items():
            existing = set(merged.get(subarray, ()))
            merged[subarray] = tuple(sorted(existing | set(locals_)))
        open_.rows = merged

        # The reference operand side is the first-activated subarray
        # (same-subarray ops: the whole merged set lives there anyway).
        reference_sub = open_.first_subarray
        return {
            geometry.bank_row(reference_sub, local)
            for local in merged.get(reference_sub, ())
        }

    def _on_pre(
        self,
        bankm: _BankModel,
        cmd: Command,
        index: int,
        t: float,
        timing: TimingParameters,
        emit: _Emit,
    ) -> None:
        open_ = bankm.open
        if open_ is None:
            emit(
                "FC108",
                index,
                f"PRE to bank {cmd.bank} which is already precharged "
                "(no effect)",
            )
            return
        if (
            self.support is ActivationSupport.NONE
            and t - open_.first_act_ns < timing.t_ras - _EPS
        ):
            # Micron-style policy: a PRE that greatly violates tRAS is
            # ignored; the activation simply continues.
            return
        if open_.pending_pre_ns is not None:
            emit(
                "FC108",
                index,
                f"PRE to bank {cmd.bank} while a PRE is already pending "
                "(the earlier one is superseded)",
            )
        open_.pending_pre_ns = t
        open_.pending_pre_index = index

    def _on_column_access(
        self,
        state: SessionState,
        bankm: _BankModel,
        cmd: Command,
        index: int,
        t: float,
        timing: TimingParameters,
        emit: _Emit,
        idioms: List[GapClassification],
    ) -> None:
        assert cmd.row is not None
        verb = cmd.opcode.value
        if bankm.open is not None and self._pre_due(bankm.open, timing, t):
            self._complete_precharge(state, cmd.bank, bankm, timing, idioms)
        open_ = bankm.open
        if open_ is None:
            emit(
                "FC102",
                index,
                f"{verb} to row {cmd.row} of bank {cmd.bank}, which is "
                "precharged (raises CommandSequenceError at runtime)",
            )
            return
        if open_.phase == "sharing":
            self._resolve(state, cmd.bank, open_)
        geometry = self.geometry
        subarray = geometry.subarray_of_row(cmd.row)
        local = geometry.local_row(cmd.row)
        if local not in open_.rows.get(subarray, ()):
            if self.support is ActivationSupport.NONE:
                return
            active = sorted(self._open_bank_rows(open_))
            emit(
                "FC103",
                index,
                f"{verb} to row {cmd.row}, which is not among the activated "
                f"rows {active}",
            )
            return
        if t - open_.last_act_ns < timing.t_rcd - _EPS:
            emit(
                "FC111",
                index,
                f"{verb} issued {t - open_.last_act_ns:.2f}ns after the "
                f"activation, sooner than tRCD={timing.t_rcd:g}ns",
            )
        if cmd.opcode is Opcode.WR:
            # A write overdrives the activated rows: any Frac value on
            # this subarray pair is gone.
            for sub in (subarray,):
                for loc in open_.rows.get(sub, ()):
                    state.frac_rows.discard((cmd.bank, geometry.bank_row(sub, loc)))
            if self.observer is not None:
                self.observer.on_write(cmd.bank, cmd.row, cmd.data, index)
        elif self.observer is not None:
            self.observer.on_read(cmd.bank, cmd.row, index, cmd.label)

    def _on_ref(
        self,
        state: SessionState,
        bankm: _BankModel,
        cmd: Command,
        index: int,
        emit: _Emit,
    ) -> None:
        if bankm.open is not None:
            emit(
                "FC102",
                index,
                f"REF issued to bank {cmd.bank} while it is still open "
                "(a pending PRE only completes at the next ACT/WR/RD or "
                "end-of-program settle; raises CommandSequenceError at "
                "runtime)",
            )
            return
        # Refresh re-amplifies every cell to a full rail: Frac'd VDD/2
        # values are destroyed (see Bank.refresh).
        state.frac_rows = {
            (bank, row) for bank, row in state.frac_rows if bank != cmd.bank
        }
        if self.observer is not None:
            self.observer.on_refresh(cmd.bank, index)

    # -- program-level intent --------------------------------------------

    def _check_intent(
        self,
        program: TestProgram,
        idioms: Sequence[GapClassification],
        last_index: int,
        emit: _Emit,
    ) -> None:
        intent = getattr(program, "intent", None)
        if intent is None or self.support is ActivationSupport.NONE:
            return
        observed = {c.idiom for c in idioms}
        satisfied = {
            "not": "not" in observed,
            "rowclone": "rowclone" in observed,
            "logic": "logic" in observed,
            "frac": "frac" in observed,
            "nominal": observed <= {"nominal"},
        }[intent]
        if satisfied:
            return
        severity: Optional[Severity] = None
        extra = ""
        if (
            intent == "logic"
            and self.support is ActivationSupport.SEQUENTIAL_ONLY
            and "not" in observed
        ):
            # Chip limitation (§7), not a program bug: sequential-only
            # chips resolve the first activation before the second joins.
            severity = Severity.WARNING
            extra = (
                "; the chip is sequential-only, so charge sharing never "
                "engages and the sequence degrades to the NOT regime (§7)"
            )
        glitch_index = next(
            (c.command_index for c in idioms if c.idiom not in ("nominal",)),
            last_index,
        )
        shown = sorted(observed) if observed else ["nominal"]
        emit(
            "FC113",
            glitch_index,
            f"program declares intent {intent!r} but its timing/topology "
            f"produce {shown}{extra}",
            severity=severity,
        )


def verify_program(
    program: TestProgram,
    module: Optional[object] = None,
    state: Optional[SessionState] = None,
    suppress: Iterable[str] = (),
) -> ProgramReport:
    """Convenience wrapper: verify one program against a module's topology."""
    if module is not None:
        verifier = ProgramVerifier.for_module(module, suppress=suppress)
    else:
        verifier = ProgramVerifier(suppress=suppress)
    return verifier.verify_program(program, state=state)
