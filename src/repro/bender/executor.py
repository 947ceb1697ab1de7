"""Program executor: replays a test program against a module.

The executor owns the bus clock: commands issue at cycle boundaries and
the absolute time of each command is handed to the device model, which
decides — exactly like silicon would — whether the spacing constitutes
nominal operation, a FracDRAM-style interrupted activation, or the
multi-row activation glitch.

``strict=True`` turns timing violations into
:class:`~repro.errors.TimingViolationError` instead, which is how
*functional* (non-characterization) users of the library protect
themselves from accidentally issuing undefined-behavior sequences.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import ProgramVerificationError, TimingViolationError
from ..dram.batch import BatchedModule
from ..dram.module import Module
# diagnostics has no repro-internal imports, so this cannot cycle; the
# verifier itself is imported lazily in _preflight.
from ..staticcheck.diagnostics import Diagnostic, format_diagnostics
from .commands import Command, Opcode
from .program import TestProgram

__all__ = ["ExecutionResult", "ReadRecord", "ProgramExecutor", "VERIFY_MODES"]

#: Pre-flight verification modes for :class:`ProgramExecutor`.
VERIFY_MODES = ("error", "warn", "off")

_logger = logging.getLogger("repro.staticcheck")


@dataclass(frozen=True)
class ReadRecord:
    """One RD command's returned data."""

    command_index: int
    bank: int
    row: int
    label: str
    bits: np.ndarray


@dataclass(frozen=True)
class ExecutionResult:
    """Outcome of one program execution."""

    reads: List[ReadRecord]
    duration_ns: float
    violations: List[str]
    #: Static pre-flight findings (empty when ``verify="off"``).
    diagnostics: Tuple[Diagnostic, ...] = field(default=(), compare=False)

    def read_by_label(self, label: str) -> np.ndarray:
        for record in self.reads:
            if record.label == label:
                return record.bits
        raise KeyError(f"no RD with label {label!r}")


class _BankClock:
    """Per-bank timestamps for timing-rule checking."""

    __slots__ = ("last_act_ns", "last_pre_ns", "open_")

    def __init__(self) -> None:
        self.last_act_ns: Optional[float] = None
        self.last_pre_ns: Optional[float] = None
        self.open_ = False


class ProgramExecutor:
    """Replays :class:`TestProgram` instances against a :class:`Module`.

    ``verify`` selects the static pre-flight gate (``"warn"`` by
    default): every program is checked by
    :class:`repro.staticcheck.verifier.ProgramVerifier` before any
    command reaches the device.  ``"error"`` refuses programs with
    error-severity findings (:class:`ProgramVerificationError`, device
    state untouched); ``"warn"`` logs findings once per rule and attaches
    them to the :class:`ExecutionResult`; ``"off"`` skips the check.
    ``suppress_rules`` drops specific rule ids — the escape hatch for
    deliberately-broken fault-injection programs.

    ``verify_semantics`` adds the second, deeper gate (``"off"`` by
    default): the :class:`repro.staticcheck.semantics.SemanticAnalyzer`
    mirrors every program over symbolic cell values and reports the
    SEM3xx family (semantics mismatch, dead compute, infeasible margin,
    ...).  Backdoor fills (:meth:`~repro.bender.host.DramBenderHost.
    fill_row`) are forwarded to the analyzer via
    :meth:`note_backdoor_write` so real characterization flows prove
    clean; :meth:`semantic_session` exposes the symbolic state for
    operand binding and value inspection.
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
        if verify not in VERIFY_MODES:
            raise ValueError(
                f"verify must be one of {VERIFY_MODES}, got {verify!r}"
            )
        if verify_semantics not in VERIFY_MODES:
            raise ValueError(
                f"verify_semantics must be one of {VERIFY_MODES}, "
                f"got {verify_semantics!r}"
            )
        self.module = module
        self.strict = strict
        self.faults = fault_injector
        self.verify = verify
        self.verify_semantics = verify_semantics
        self.suppress_rules = tuple(suppress_rules)
        self._now_ns = 0.0
        self._verifier = None
        self._verify_state = None
        self._semantics = None
        self._semantic_state = None
        self._logged_rules: set = set()

    @property
    def now_ns(self) -> float:
        """Absolute bus time; monotone across program executions."""
        return self._now_ns

    def _preflight(self, program: TestProgram) -> Tuple[Diagnostic, ...]:
        """Statically verify ``program`` against the session state.

        The verifier runs on a *clone* of the session state and commits
        only when the program is accepted, so a refused program leaves
        both device and verifier state untouched.
        """
        if self.verify == "off":
            return ()
        if self._verifier is None:
            from ..staticcheck.verifier import ProgramVerifier

            self._verifier = ProgramVerifier.for_module(
                self.module, suppress=self.suppress_rules
            )
            self._verify_state = self._verifier.new_session()
        trial_state = self._verify_state.clone()
        report = self._verifier.verify_program(program, state=trial_state)
        if self.verify == "error" and report.errors:
            raise ProgramVerificationError(
                f"static verification refused program "
                f"{program.name or '<anonymous>'}:\n"
                + format_diagnostics(report.errors),
                diagnostics=report.diagnostics,
            )
        self._verify_state = trial_state
        for diag in report.diagnostics:
            if diag.rule not in self._logged_rules:
                self._logged_rules.add(diag.rule)
                _logger.warning("%s", diag.format())
        return report.diagnostics

    def _ensure_semantics(self):
        if self._semantics is None:
            from ..staticcheck.semantics import SemanticAnalyzer

            self._semantics = SemanticAnalyzer.for_module(
                self.module, suppress=self.suppress_rules
            )
            self._semantic_state = self._semantics.new_session()
        return self._semantics

    def semantic_session(self):
        """The live :class:`~repro.staticcheck.semantics.SemanticSession`.

        Use it to ``bind`` operand rows to named variables before a
        sweep, or to inspect what function a row holds after a program.
        Creates the analyzer on first use, so it works even before the
        first program runs (e.g. to bind operands up front).
        """
        self._ensure_semantics()
        return self._semantic_state

    def note_backdoor_write(
        self, bank: int, row: int, bits=None, voltages=None
    ) -> None:
        """Record a backdoor fill for the semantic gate.

        Backdoor fills bypass the command stream the analyzer watches;
        without this hook every operand row of a real flow would be
        symbolically unknown (SEM307).  No-op when ``verify_semantics``
        is ``"off"``.
        """
        if self.verify_semantics == "off":
            return
        analyzer = self._ensure_semantics()
        analyzer.note_backdoor_write(
            self._semantic_state, bank, row, bits=bits, voltages=voltages
        )

    def _preflight_semantics(self, program: TestProgram) -> Tuple[Diagnostic, ...]:
        """Symbolically interpret ``program`` against the session state.

        Clone-and-commit like :meth:`_preflight`: a refused program
        leaves the symbolic state (and the device) untouched.
        """
        if self.verify_semantics == "off":
            return ()
        analyzer = self._ensure_semantics()
        trial = self._semantic_state.clone()
        report = analyzer.analyze_program(program, session=trial)
        if self.verify_semantics == "error" and report.errors:
            raise ProgramVerificationError(
                f"semantic verification refused program "
                f"{program.name or '<anonymous>'}:\n"
                + format_diagnostics(report.errors),
                diagnostics=report.diagnostics,
            )
        self._semantic_state = trial
        for diag in report.diagnostics:
            if diag.rule not in self._logged_rules:
                self._logged_rules.add(diag.rule)
                _logger.warning("%s", diag.format())
        return report.diagnostics

    def run(self, program: TestProgram) -> ExecutionResult:
        """Replay ``program`` once against the module."""
        return self._execute(program, self.module, None)

    def run_batched(
        self, program: TestProgram, batch: BatchedModule
    ) -> ExecutionResult:
        """Replay ``program`` over a whole trial block in one pass.

        ``batch`` is the block's :class:`~repro.dram.batch.BatchedModule`
        (see :meth:`~repro.bender.host.DramBenderHost.batched_trials`).
        Every command must target the block's bank.  Semantics relative
        to ``n_trials`` serial :meth:`run` calls:

        * Device state and RD data are bit-identical per trial (the
          per-trial noise substreams guarantee it).
        * Fault injection stays per-trial: ``on_program`` rolls once per
          trial index before any command executes, and RD data is
          filtered per trial.
        * The static pre-flight runs once per program instead of once
          per trial — the verifier's findings are a pure function of
          the program, so per-trial repetition only duplicated them.
        * ``now_ns`` advances by ``n_trials`` single-pass durations, and
          timing violations are recorded once instead of per trial.
        """
        return self._execute(program, batch, batch.trial_indices)

    def filter_read(
        self,
        bank: int,
        row: int,
        bits: np.ndarray,
        trials: Optional[Sequence[int]] = None,
    ) -> np.ndarray:
        """Apply the fault injector's read corruption to ``bits``.

        Without ``trials`` the injector's current trial scope applies.
        With a block's ``trials``, ``bits`` is ``(n_trials, row_bits)``
        and each trial's row is filtered under its own scope.
        """
        faults = self.faults
        if faults is None:
            return bits
        if trials is None:
            return faults.filter_read(bank, row, bits)
        filtered = bits.copy()
        for i, trial in enumerate(trials):
            faults.set_trial(trial)
            filtered[i] = faults.filter_read(bank, row, bits[i])
        return filtered

    # ------------------------------------------------------------------

    def _execute(
        self,
        program: TestProgram,
        device: Union[Module, BatchedModule],
        trials: Optional[Sequence[int]],
    ) -> ExecutionResult:
        """The command loop behind :meth:`run` and :meth:`run_batched`.

        ``device`` takes ``(bank, row, ...)`` arguments either way;
        ``trials`` holds a block's trial indices (``None`` outside one).
        """
        if self.faults is not None:
            # A host command timeout aborts the program before any
            # command reaches the module, exactly like the real bench
            # dropping a DMA transaction: the device state is untouched
            # and the whole program is safe to re-issue.  A block rolls
            # once per trial, in trial order: the same (trial,
            # occurrence) pairs a serial loop would roll.
            if trials is None:
                self.faults.on_program(program.name)
            for trial in trials or ():
                self.faults.set_trial(trial)
                self.faults.on_program(program.name)
        diagnostics = self._preflight(program) + self._preflight_semantics(
            program
        )
        timing = program.timing
        clocks: Dict[int, _BankClock] = {}
        reads: List[ReadRecord] = []
        violations: List[str] = []
        start_ns = self._now_ns

        for index, command in enumerate(program):
            # NOP touches no bank; only time advances.
            if command.opcode is not Opcode.NOP:
                clock = clocks.setdefault(command.bank, _BankClock())
                self._check_timing(command, clock, timing, violations)
                self._dispatch(device, trials, command, index, reads)
            self._now_ns += command.wait_cycles * timing.t_ck

        # Give every touched bank a chance to complete a trailing PRE.
        settle_at = self._now_ns + timing.t_rc
        for bank in clocks:
            device.settle(bank, settle_at)
        self._now_ns = settle_at
        if trials is not None and len(trials) > 1:
            # The bus replayed the program once per trial: advance the
            # clock accordingly so interleaved serial/batched sessions
            # stay monotone and account the same total bus time.
            self._now_ns = start_ns + len(trials) * (settle_at - start_ns)

        if self.strict and violations:
            raise TimingViolationError(
                f"program {program.name or '<anonymous>'} violated timings: "
                + "; ".join(violations)
            )
        return ExecutionResult(
            reads=reads,
            duration_ns=self._now_ns - start_ns,
            violations=violations,
            diagnostics=diagnostics,
        )

    def _dispatch(
        self,
        device: Union[Module, BatchedModule],
        trials: Optional[Sequence[int]],
        command: Command,
        index: int,
        reads: List[ReadRecord],
    ) -> None:
        now = self._now_ns
        bank, row = command.bank, command.row
        if command.opcode is Opcode.ACT:
            device.activate(bank, row, now)
        elif command.opcode is Opcode.PRE:
            device.precharge(bank, now)
        elif command.opcode is Opcode.WR:
            device.write(bank, row, command.data, now)
        elif command.opcode is Opcode.RD:
            bits = self.filter_read(bank, row, device.read(bank, row, now), trials)
            reads.append(ReadRecord(index, bank, row, command.label, bits))
        elif command.opcode is Opcode.REF:
            device.refresh(bank, now)

    def _check_timing(
        self,
        command: Command,
        clock: _BankClock,
        timing,
        violations: List[str],
    ) -> None:
        now = self._now_ns
        eps = 1e-9
        if command.opcode is Opcode.ACT:
            if clock.open_ and clock.last_pre_ns is None:
                violations.append(f"ACT@{now:.2f}ns to open bank {command.bank}")
            if clock.last_pre_ns is not None and now - clock.last_pre_ns < (
                timing.t_rp - eps
            ):
                violations.append(
                    f"tRP violated on bank {command.bank}: "
                    f"{now - clock.last_pre_ns:.2f}ns < {timing.t_rp}ns"
                )
            clock.last_act_ns = now
            clock.last_pre_ns = None
            clock.open_ = True
        elif command.opcode is Opcode.PRE:
            if clock.last_act_ns is not None and now - clock.last_act_ns < (
                timing.t_ras - eps
            ):
                violations.append(
                    f"tRAS violated on bank {command.bank}: "
                    f"{now - clock.last_act_ns:.2f}ns < {timing.t_ras}ns"
                )
            clock.last_pre_ns = now
            clock.open_ = False
        elif command.opcode in (Opcode.WR, Opcode.RD):
            if clock.last_act_ns is None:
                violations.append(
                    f"{command.opcode.value}@{now:.2f}ns with no prior ACT"
                )
            elif now - clock.last_act_ns < timing.t_rcd - eps:
                violations.append(
                    f"tRCD violated on bank {command.bank}: "
                    f"{now - clock.last_act_ns:.2f}ns < {timing.t_rcd}ns"
                )
