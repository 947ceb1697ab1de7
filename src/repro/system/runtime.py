"""An end-to-end Processing-using-DRAM runtime.

The raw operations (:mod:`repro.core`) require the caller to know which
rows an address pair activates.  Real PuD frameworks (PiDRAM [42],
SIMDRAM [32]) hide that behind a runtime: applications allocate vectors,
the runtime places them in operation-compatible rows and moves data —
*inside DRAM* — to wherever the next operation needs it.

:class:`PudRuntime` implements that for one neighboring subarray pair:

* **Placement** — at construction it reverse-engineers (via the decoder
  lookup, i.e. the §4 characterization result) one N:N operation block
  per fan-in *per side*, plus NOT address pairs in both directions, and
  reserves their rows.  Every other row of the pair becomes an
  allocatable vector slot.
* **Handles** — :meth:`store` returns a :class:`VectorHandle`; vectors
  live in DRAM until :meth:`load` copies them out.
* **In-DRAM movement** — operands reach an operation block by RowClone
  (same-subarray copy).  Crossing to the *other* subarray is special:
  the shared sense amplifier's terminals are complementary, so any
  crossing operation (NOT, NAND, NOR) inverts.  A short induction shows
  the consequence: values storable on a vector's home side are exactly
  the *monotone* functions of the stored data, and the other side holds
  their complements.  A polarity-preserving cross-subarray move — and
  therefore any non-monotone function such as XOR — cannot be computed
  by the neighboring-subarray operation set alone; the memory
  controller must re-stage a result as a fresh operand (a row read plus
  a row write), exactly as PiDRAM-style end-to-end systems do.  The
  runtime performs that staging automatically and counts it.
* **Accounting** — every activation-level primitive and every
  controller staging transfer is counted, so applications can see what
  their expression really cost.
* **Jobs** — :meth:`PudRuntime.submit_job` is the service-level entry
  point: it places operands, runs the operation, *verifies* the result
  against the ideal Boolean output, and on a verification failure
  quarantines the operation block and fails over to another (same side
  first, then across the pair) before giving up.
* **Reliability-aware placement** — when constructed with a
  :mod:`repro.substrate` backend that can estimate success
  probabilities (the surrogate), block selection prefers the block with
  the highest estimate and skips blocks below ``min_block_success``;
  with the default analog backend (no estimates) selection keeps the
  historical smallest-sufficient-fan-in policy, bit-identically.
* **Bounded-error execution** — ``submit_job(..., error_bound=...)``
  runs *without* an oracle: the runtime picks a
  :class:`~repro.reliability.schemes.MitigationScheme` (from a tuned
  :class:`~repro.reliability.policy.PolicyTable` or on the fly from
  backend estimates), then encodes, votes, and retries transparently.
  Voting is a controller-side decide — the runtime reads the replicated
  output-terminal rows, takes per-lane majorities, and re-stages the
  decided bits as a fresh vector (one counted host transfer), exactly
  like the monotone-closure staging above.  When no non-quarantined
  block has a scheme meeting the bound, the job raises a typed
  :class:`~repro.errors.ReliabilityUnsatisfiableError` instead of
  silently degrading.

All computation happens on the *shared columns* of the subarray pair:
a vector holds ``lane_count`` bits, one per shared sense amplifier.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

import numpy as np

from ..bender.host import DramBenderHost
from ..core.addressing import find_pattern_pair
from ..core.layout import bank_rows, module_shared_columns
from ..core.logic import LogicOperation, ideal_output
from ..core.not_op import NotOperation
from ..core.rowclone import rowclone
from ..dram.decoder import ActivationKind
from ..errors import (
    IsolationError,
    ReliabilityError,
    ReliabilityUnsatisfiableError,
    ReproError,
    ReverseEngineeringError,
)
from ..reliability.policy import PolicyTable
from ..reliability.schemes import MitigationScheme
from ..reliability.tuner import DEFAULT_P_SLACK, TuneGrid, select_scheme
from ..staticcheck.diagnostics import RULES, Diagnostic, format_diagnostics

if TYPE_CHECKING:
    from ..substrate.base import SubstrateBackend

__all__ = [
    "PudRuntime",
    "VectorHandle",
    "RuntimeStats",
    "TenantStats",
    "JobResult",
    "ISOLATION_MODES",
    "quarantine_clamp_diagnostic",
]

_FANINS = (2, 4, 8, 16)

#: Admission-gate modes for :meth:`PudRuntime.submit_job`.
ISOLATION_MODES = ("warn", "error", "off")


def quarantine_clamp_diagnostic(
    side: int, requested: int, clamped: int
) -> Diagnostic:
    """The structured CC411 diagnostic for a clamped quarantine request.

    :meth:`PudRuntime.quarantine_block` emits this when asked to
    quarantine a fan-in larger than any block on the side — the clamp
    still quarantines the largest block, but the mismatch usually means
    the caller's model of the placement has drifted.
    """
    rule = RULES["CC411"]
    return Diagnostic(
        rule="CC411",
        severity=rule.severity,
        message=(
            f"quarantine_block: no fan-in-{requested} block on side "
            f"{side}; clamping to the largest available ({clamped})"
        ),
        hint=rule.hint,
        program=f"quarantine_block(side={side}, n={requested})",
    )


@dataclass
class TenantStats:
    """Per-tenant slice of the runtime's accounting.

    Jobs name their tenant via ``submit_job(..., tenant=...)``; every
    primitive the job issues is charged here as well as to the global
    :class:`RuntimeStats`, so a multi-tenant service can attribute
    reliability overhead (votes, retries) to the workload that paid it.
    """

    jobs: int = 0
    encoded_jobs: int = 0
    logic_ops: int = 0
    votes_cast: int = 0
    op_retries: int = 0
    host_transfers: int = 0
    isolation_refusals: int = 0
    isolation_warnings: int = 0

    def __str__(self) -> str:
        text = (
            f"{self.jobs} jobs ({self.encoded_jobs} encoded), "
            f"{self.logic_ops} logic ops, {self.votes_cast} votes, "
            f"{self.op_retries} retries, {self.host_transfers} host "
            "stagings"
        )
        if self.isolation_refusals or self.isolation_warnings:
            text += (
                f"; isolation: {self.isolation_refusals} refusals, "
                f"{self.isolation_warnings} warnings"
            )
        return text


@dataclass
class RuntimeStats:
    """Counts of the primitives the runtime issued.

    ``host_transfers`` counts controller stagings (row read + write):
    the cost of computing beyond the in-DRAM monotone closure.  The
    reliability counters attribute mitigation overhead: ``votes_cast``
    is total voted executions, ``op_retries`` is extra detect-retry
    executions beyond the first attempt, ``encoded_jobs`` counts
    bounded-error job submissions, and ``mitigation_fallbacks`` counts
    blocks skipped because no scheme met the bound there.
    """

    logic_ops: int = 0
    not_ops: int = 0
    rowclones: int = 0
    host_transfers: int = 0
    jobs_submitted: int = 0
    verify_failures: int = 0
    failovers: int = 0
    votes_cast: int = 0
    op_retries: int = 0
    encoded_jobs: int = 0
    mitigation_fallbacks: int = 0
    #: Jobs the admission gate refused (``verify_isolation="error"``).
    isolation_refusals: int = 0
    #: Jobs admitted with findings (``verify_isolation="warn"``).
    isolation_warnings: int = 0
    #: Oversized quarantine requests clamped to the largest block (CC411).
    quarantine_clamps: int = 0
    per_tenant: Dict[str, TenantStats] = field(default_factory=dict)

    @property
    def total_programs(self) -> int:
        return self.logic_ops + self.not_ops + self.rowclones

    def tenant(self, name: str) -> TenantStats:
        """The (auto-created) accounting slice for one tenant."""
        return self.per_tenant.setdefault(name, TenantStats())

    def __str__(self) -> str:
        text = (
            f"{self.logic_ops} logic ops, {self.not_ops} NOTs, "
            f"{self.rowclones} RowClones, {self.host_transfers} host "
            "stagings"
        )
        if self.encoded_jobs or self.votes_cast or self.op_retries:
            text += (
                f"; reliability: {self.encoded_jobs} encoded jobs, "
                f"{self.votes_cast} votes, {self.op_retries} retries, "
                f"{self.mitigation_fallbacks} fallbacks"
            )
        return text

    def describe_tenants(self) -> List[str]:
        """One accounting line per tenant, sorted by name."""
        return [
            f"{name}: {stats}"
            for name, stats in sorted(self.per_tenant.items())
        ]


@dataclass(frozen=True)
class JobResult:
    """Outcome of one :meth:`PudRuntime.submit_job`."""

    #: The per-lane output bits (oracle-verified on the legacy path,
    #: mitigation-decided on the bounded-error path).
    output: np.ndarray
    op: str
    #: The (side, fan-in) operation block that produced the result.
    block: Tuple[int, int]
    #: Execution attempts, counting the successful one.
    attempts: int
    #: Blocks quarantined by this job's verification failures.
    quarantined: Tuple[Tuple[int, int], ...]
    #: Mitigation scheme label on the bounded-error path (``None`` on
    #: the legacy oracle-verified path).
    scheme: Optional[str] = None
    #: Voted executions the bounded-error path ran (0 on legacy path).
    votes: int = 0


@dataclass(frozen=True)
class VectorHandle:
    """An allocated bit vector living in DRAM.

    ``side`` is 0 or 1: which subarray of the runtime's pair holds it.
    Handles are immutable tokens; operations return fresh handles.
    """

    row: int
    side: int
    generation: int = field(compare=True, default=0)


class PudRuntime:
    """Vector storage plus in-DRAM Boolean computation, end to end."""

    def __init__(
        self,
        host: DramBenderHost,
        bank: int = 0,
        subarray_pair: Tuple[int, int] = (0, 1),
        seed: int = 0,
        backend: object = None,
        min_block_success: float = 0.0,
        policy: Union[PolicyTable, str, None] = None,
        verify_isolation: str = "warn",
        allocations: Optional[Mapping[str, Iterable[Tuple[int, int]]]] = None,
    ) -> None:
        self.host = host
        self.bank = bank
        self.subarray_pair = subarray_pair
        self.stats = RuntimeStats()
        self._generation = 0
        self._backend: Optional["SubstrateBackend"] = None
        if backend is not None:
            from ..substrate.base import resolve_backend

            self._backend = resolve_backend(backend)
        self._policy: Optional[PolicyTable] = (
            PolicyTable.load(policy) if isinstance(policy, str) else policy
        )
        self.min_block_success = float(min_block_success)
        self._quarantined: Set[Tuple[int, int]] = set()
        if verify_isolation not in ISOLATION_MODES:
            raise ReproError(
                f"verify_isolation must be one of {ISOLATION_MODES}, "
                f"got {verify_isolation!r}"
            )
        self.verify_isolation = verify_isolation
        #: tenant -> owned (bank, subarray) regions; ``None`` disables
        #: the tenancy rules (CC404/CC407) at admission.
        self.allocations: Optional[Dict[str, FrozenSet[Tuple[int, int]]]] = (
            {
                name: frozenset(regions)
                for name, regions in sorted(allocations.items())
            }
            if allocations is not None
            else None
        )

        module = host.module
        geometry = module.config.geometry
        self.shared_columns = module_shared_columns(module, *subarray_pair)

        # -- reserve operation blocks per side ---------------------------
        reserved: Tuple[Set[int], Set[int]] = (set(), set())
        self._logic: Dict[Tuple[int, int], LogicOperation] = {}
        for compute_side in (0, 1):
            reference_side = 1 - compute_side
            for n in _FANINS:
                try:
                    ref_row, com_row = find_pattern_pair(
                        module.decoder,
                        geometry,
                        bank,
                        subarray_pair[reference_side],
                        subarray_pair[compute_side],
                        n,
                        ActivationKind.N_TO_N,
                        seed=seed + 101 * n + compute_side,
                    )
                except ReverseEngineeringError:
                    continue
                operation = LogicOperation(host, bank, ref_row, com_row, op="and")
                self._logic[(compute_side, n)] = operation
                pattern = operation.pattern
                reserved[reference_side].update(pattern.rows_first)
                reserved[compute_side].update(pattern.rows_last)

        self._not: Dict[int, NotOperation] = {}
        for src_side in (0, 1):
            src_row, dst_row = find_pattern_pair(
                module.decoder,
                geometry,
                bank,
                subarray_pair[src_side],
                subarray_pair[1 - src_side],
                1,
                ActivationKind.N_TO_N,
                seed=seed + 7 + src_side,
            )
            operation = NotOperation(host, bank, src_row, dst_row)
            pattern = operation.expected_pattern()
            reserved[src_side].update(pattern.rows_first)
            reserved[1 - src_side].update(pattern.rows_last)
            self._not[src_side] = operation

        if not self._logic:
            raise ReproError(
                "this chip supports no N:N logic blocks; the runtime "
                "needs at least one (see §7 Limitation 1)"
            )

        # -- build the free-row pools ------------------------------------
        rows = geometry.rows_per_subarray
        self._free: List[List[int]] = []
        self._live: Set[VectorHandle] = set()
        for side in (0, 1):
            base_subarray = subarray_pair[side]
            pool = [
                geometry.bank_row(base_subarray, local)
                for local in range(rows)
                if local not in reserved[side]
            ]
            self._free.append(pool)

    # ------------------------------------------------------------------
    # storage
    # ------------------------------------------------------------------

    @property
    def lane_count(self) -> int:
        """Bits per vector (one per shared sense amplifier)."""
        return int(self.shared_columns.size)

    def free_slots(self, side: Optional[int] = None) -> int:
        if side is None:
            return len(self._free[0]) + len(self._free[1])
        return len(self._free[side])

    def _allocate(self, side: int) -> VectorHandle:
        if not self._free[side]:
            raise ReproError(
                f"out of vector slots on side {side}; free() some handles"
            )
        self._generation += 1
        handle = VectorHandle(
            row=self._free[side].pop(), side=side, generation=self._generation
        )
        self._live.add(handle)
        return handle

    def _check(self, handle: VectorHandle) -> None:
        if handle not in self._live:
            raise ReproError(f"handle {handle} is not live (double free?)")

    def store(self, bits: np.ndarray, side: int = 1) -> VectorHandle:
        """Allocate a vector slot and write ``bits`` into it."""
        bits = np.asarray(bits, dtype=np.uint8)
        if bits.shape != (self.lane_count,):
            raise ValueError(
                f"expected {self.lane_count} lanes, got shape {bits.shape}"
            )
        handle = self._allocate(side)
        row_bits = np.zeros(self.host.module.row_bits, dtype=np.uint8)
        row_bits[self.shared_columns] = bits
        self.host.fill_row(self.bank, handle.row, row_bits)
        return handle

    def load(self, handle: VectorHandle) -> np.ndarray:
        """Copy a vector out of DRAM."""
        self._check(handle)
        bits = self.host.peek_row(self.bank, handle.row)
        return bits[self.shared_columns]

    def free(self, handle: VectorHandle) -> None:
        """Release a vector slot back to its side's pool."""
        self._check(handle)
        self._live.remove(handle)
        self._free[handle.side].append(handle.row)

    # ------------------------------------------------------------------
    # in-DRAM movement
    # ------------------------------------------------------------------

    def _clone(self, src_row: int, dst_row: int) -> None:
        rowclone(self.host, self.bank, src_row, dst_row)
        self.stats.rowclones += 1

    def not_(
        self,
        handle: VectorHandle,
        scheme: Optional[MitigationScheme] = None,
    ) -> VectorHandle:
        """In-DRAM NOT: the result lands on the *other* side.

        With a :class:`~repro.reliability.schemes.MitigationScheme`,
        the runtime votes per lane across the destination-row copies
        and across ``scheme.votes`` repeated executions, then re-stages
        the decided bits (one counted host transfer).  NOT has no
        complement terminal, so retry schemes are rejected.
        """
        self._check(handle)
        operation = self._not[handle.side]
        if scheme is not None and not scheme.applicable_to("not"):
            raise ReliabilityError(
                f"scheme {scheme.label!r} uses detect-retry, which NOT "
                "cannot support (no complement terminal, §6.1.3)"
            )
        # Move the operand into the NOT source row (same subarray).
        if handle.row != operation.src_row:
            self._clone(handle.row, operation.src_row)
        if scheme is None or scheme.is_uncoded:
            operation.execute()
            self.stats.not_ops += 1
            result_row = operation.destination_rows()[0]
            out = self._allocate(1 - handle.side)
            self._clone(result_row, out.row)
            return out

        destinations = operation.destination_rows()
        scheme = scheme.capped_to_rows(len(destinations))
        tally = np.zeros(self.lane_count, dtype=np.int64)
        for _vote in range(scheme.votes):
            operation.execute()
            self.stats.not_ops += 1
            self.stats.votes_cast += 1
            tally += self._read_vote(destinations[: scheme.row_copies])
        decided = (tally * 2 > scheme.votes).astype(np.uint8)
        self.stats.host_transfers += 1
        return self.store(decided, side=1 - handle.side)

    def move(self, handle: VectorHandle, side: int) -> VectorHandle:
        """Polarity-preserving move to ``side``.

        Crossing subarrays in-DRAM necessarily inverts (the shared sense
        amplifier's terminals are complementary) — and no sequence of
        the neighboring-subarray operations can undo that on the target
        side (see the module docstring's monotone-closure argument).
        The runtime therefore stages the value through the memory
        controller: one row read plus one row write.
        """
        self._check(handle)
        if handle.side == side:
            return handle
        bits = self.load(handle)
        self.stats.host_transfers += 1
        return self.store(bits, side=side)

    # ------------------------------------------------------------------
    # computation
    # ------------------------------------------------------------------

    def block_estimate(self, n: int, op: str = "and") -> Optional[float]:
        """Estimated per-cell success probability of a fan-in-``n``
        ``op`` block at the current temperature, or ``None`` when the
        backend cannot estimate without measuring (the analog model)."""
        if self._backend is None:
            return None
        return self._backend.probability(
            op, n, temperature_c=float(self.host.module.temperature_c)
        )

    def quarantine_block(self, side: int, n: int) -> None:
        """Exclude an operation block from placement (failed hardware).

        A fan-in larger than any block on ``side`` is clamped to the
        largest available one (with a warning) — callers quarantining
        "the biggest block" must not silently miss; a fan-in that is
        not a block at all is still rejected.
        """
        if (side, n) not in self._logic:
            available = sorted(m for s, m in self._logic if s == side)
            if available and n > available[-1]:
                diagnostic = quarantine_clamp_diagnostic(
                    side, requested=n, clamped=available[-1]
                )
                self.stats.quarantine_clamps += 1
                warnings.warn(diagnostic.format(), stacklevel=2)
                n = available[-1]
            else:
                raise ReproError(f"no operation block (side={side}, n={n})")
        self._quarantined.add((side, n))

    def quarantined_blocks(self) -> Set[Tuple[int, int]]:
        return set(self._quarantined)

    def _block_for(self, side: int, count: int) -> Tuple[LogicOperation, int]:
        """The operation block serving a ``count``-operand op on ``side``.

        Quarantined blocks are always skipped.  When the backend serves
        probability estimates, the block with the best estimate (ties to
        the smallest fan-in) wins and blocks estimated below
        ``min_block_success`` are skipped; otherwise the historical
        policy — smallest sufficient fan-in — applies unchanged.
        """
        candidates: List[Tuple[int, Optional[float]]] = []
        for n in _FANINS:
            if n < count or (side, n) not in self._logic:
                continue
            if (side, n) in self._quarantined:
                continue
            estimate = self.block_estimate(n)
            if estimate is not None and estimate < self.min_block_success:
                continue
            candidates.append((n, estimate))
        if not candidates:
            raise ReproError(
                f"no operation block with fan-in >= {count} on side {side} "
                "(Limitation 2 caps fan-in at 16; quarantine and "
                "min_block_success further narrow the pool)"
            )
        if any(estimate is not None for _n, estimate in candidates):
            best = max(
                candidates,
                key=lambda item: (
                    item[1] if item[1] is not None else -1.0,
                    -item[0],
                ),
            )
            return self._logic[(side, best[0])], best[0]
        return self._logic[(side, candidates[0][0])], candidates[0][0]

    def _execute_block(
        self,
        op: str,
        handles: Sequence[VectorHandle],
        operation: LogicOperation,
    ) -> LogicOperation:
        """Stage operands into a block and run one ``op`` activation."""
        base = LogicOperation(
            self.host,
            self.bank,
            operation.ref_row,
            operation.com_row,
            op=op,
        )
        base.prepare_reference()
        identity = 1 if op in ("and", "nand") else 0
        pad = np.full(self.host.module.row_bits, identity, dtype=np.uint8)
        for index, compute_row in enumerate(base.compute_rows):
            if index < len(handles):
                self._clone(handles[index].row, compute_row)
            else:
                self.host.fill_row(self.bank, compute_row, pad)
        base.execute()
        self.stats.logic_ops += 1
        return base

    def _logic_apply(
        self,
        op: str,
        handles: Sequence[VectorHandle],
        block: Optional[Tuple[LogicOperation, int]] = None,
    ) -> VectorHandle:
        for handle in handles:
            self._check(handle)
        side = handles[0].side
        if any(h.side != side for h in handles):
            raise ReproError("operands must be on one side; use move()")

        operation, n = block if block is not None else self._block_for(
            side, len(handles)
        )
        base = self._execute_block(op, handles, operation)

        # The result sits in every row of the output terminal; clone the
        # first one into a fresh slot on the result's side.
        result_rows = (
            base.compute_rows if op in ("and", "or") else base.reference_rows
        )
        result_side = side if op in ("and", "or") else 1 - side
        out = self._allocate(result_side)
        self._clone(result_rows[0], out.row)
        return out

    # ------------------------------------------------------------------
    # mitigated (bounded-error) computation
    # ------------------------------------------------------------------

    def _read_vote(self, rows: Sequence[int]) -> np.ndarray:
        """Per-lane majority over the shared columns of ``rows``."""
        tally = np.zeros(self.lane_count, dtype=np.int64)
        for row in rows:
            bits = self.host.peek_row(self.bank, row)
            tally += bits[self.shared_columns]
        return (tally * 2 > len(rows)).astype(np.uint8)

    def _mitigated_logic_apply(
        self,
        op: str,
        handles: Sequence[VectorHandle],
        scheme: MitigationScheme,
        block: Tuple[LogicOperation, int],
        tenant: Optional[TenantStats] = None,
    ) -> VectorHandle:
        """Run ``op`` under ``scheme``: row-copy vote within each
        activation, complement-consistency retry around it, time vote
        outermost; the decided bits are re-staged through the
        controller (one counted host transfer)."""
        for handle in handles:
            self._check(handle)
        side = handles[0].side
        if any(h.side != side for h in handles):
            raise ReproError("operands must be on one side; use move()")
        operation, n = block
        scheme = scheme.capped_to_rows(n)

        tally = np.zeros(self.lane_count, dtype=np.int64)
        for _vote in range(scheme.votes):
            accepted = np.zeros(self.lane_count, dtype=bool)
            value = np.zeros(self.lane_count, dtype=np.uint8)
            for attempt in range(scheme.max_attempts):
                if attempt > 0:
                    self.stats.op_retries += 1
                    if tenant is not None:
                        tenant.op_retries += 1
                base = self._execute_block(op, handles, operation)
                if tenant is not None:
                    tenant.logic_ops += 1
                primary_rows = (
                    base.compute_rows
                    if op in ("and", "or")
                    else base.reference_rows
                )
                primary = self._read_vote(primary_rows[: scheme.row_copies])
                if scheme.max_attempts > 1:
                    complement_rows = (
                        base.reference_rows
                        if op in ("and", "or")
                        else base.compute_rows
                    )
                    complement = self._read_vote(
                        complement_rows[: scheme.row_copies]
                    )
                    consistent = primary == 1 - complement
                else:
                    consistent = np.ones(self.lane_count, dtype=bool)
                settle = ~accepted & (
                    consistent
                    if attempt < scheme.max_attempts - 1
                    else np.ones(self.lane_count, dtype=bool)
                )
                value[settle] = primary[settle]
                accepted |= settle
                if bool(accepted.all()):
                    break
            tally += value
            self.stats.votes_cast += 1
            if tenant is not None:
                tenant.votes_cast += 1

        decided = (tally * 2 > scheme.votes).astype(np.uint8)
        result_side = side if op in ("and", "or") else 1 - side
        self.stats.host_transfers += 1
        if tenant is not None:
            tenant.host_transfers += 1
        return self.store(decided, side=result_side)

    def _scheme_for_block(
        self, op: str, n: int, error_bound: float
    ) -> MitigationScheme:
        """The mitigation scheme serving (``op``, fan-in ``n``) at
        ``error_bound``, from the policy table first, else selected on
        the fly from a backend estimate.

        Raises :class:`~repro.errors.ReliabilityUnsatisfiableError`
        when the cell cannot meet the bound and
        :class:`~repro.errors.ReliabilityError` when the runtime has no
        way to bound the error at all (no policy, no estimates).
        """
        temperature = float(self.host.module.temperature_c)
        if self._policy is not None:
            try:
                entry = self._policy.scheme_for(
                    op, n, temperature_c=temperature
                )
                if entry.error_bound <= error_bound:
                    return entry.scheme
            except ReliabilityUnsatisfiableError:
                raise
            except ReliabilityError:
                pass  # untuned cell: fall through to the backend
        estimate = self.block_estimate(n, op=op)
        if estimate is None:
            if self._policy is not None:
                raise ReliabilityError(
                    f"policy table has no entry for {op!r} n={n} at a "
                    f"bound <= {error_bound:.1e} and the backend serves "
                    "no estimates; re-tune with this cell in the grid"
                )
            raise ReliabilityError(
                "bounded-error jobs need a policy table or a backend "
                "that serves probability estimates (the surrogate); "
                "construct PudRuntime(policy=...) or (backend=...)"
            )
        engineered = min(max(estimate - DEFAULT_P_SLACK, 0.0), 1.0)
        scheme, _error, _cost = select_scheme(
            op, n, engineered, error_bound, TuneGrid()
        )
        return scheme

    def and_(self, *handles: VectorHandle) -> VectorHandle:
        return self._colocated_apply("and", handles)

    def or_(self, *handles: VectorHandle) -> VectorHandle:
        return self._colocated_apply("or", handles)

    def nand(self, *handles: VectorHandle) -> VectorHandle:
        return self._colocated_apply("nand", handles)

    def nor(self, *handles: VectorHandle) -> VectorHandle:
        return self._colocated_apply("nor", handles)

    def xor(self, a: VectorHandle, b: VectorHandle) -> VectorHandle:
        """XOR = AND(OR(a, b), NAND(a, b)), all in DRAM."""
        operands = self._colocate((a, b))
        scratch: List[VectorHandle] = []
        try:
            either = self.or_(*operands)
            scratch.append(either)
            not_both = self.nand(*operands)
            scratch.append(not_both)
            not_both = self.move(not_both, either.side)
            scratch.append(not_both)
            return self.and_(either, not_both)
        finally:
            self._free_copies(scratch + operands, (a, b))

    # ------------------------------------------------------------------
    # verified job submission
    # ------------------------------------------------------------------

    def submit_job(
        self,
        op: str,
        operands: Sequence[np.ndarray],
        side: int = 1,
        max_failovers: int = 4,
        error_bound: Optional[float] = None,
        tenant: Optional[str] = None,
    ) -> JobResult:
        """Run ``op`` over ``operands`` end to end.

        **Legacy (oracle-verified) path** — with ``error_bound=None``
        the job stores its operands, executes on the best eligible
        operation block, and verifies the loaded result against the
        ideal Boolean output.  A verification failure quarantines the
        block and *fails over*: first to another block on the same side,
        then — re-staging the operands through the controller — to the
        other side of the pair.  After ``max_failovers`` failovers (so
        ``max_failovers + 1`` failed attempts), or when no eligible
        block remains, the job raises
        :class:`~repro.errors.ReproError` with the blocks it consumed.

        **Bounded-error path** — with ``error_bound`` set the job runs
        *without* an oracle: the runtime picks the mitigation scheme
        serving the block's (op, fan-in) cell at the bound (tuned
        policy table first, on-the-fly selection from backend estimates
        otherwise), encodes, votes, and retries transparently.  Blocks
        whose cell cannot meet the bound are skipped
        (``stats.mitigation_fallbacks``); when no non-quarantined block
        on either side can, the job raises
        :class:`~repro.errors.ReliabilityUnsatisfiableError` instead of
        silently degrading.

        ``tenant`` attributes the job's primitives to a named
        per-tenant accounting slice (``stats.per_tenant``).

        Temporary vector slots are always released, success or failure.
        """
        if op not in ("and", "or", "nand", "nor"):
            raise ReproError(f"submit_job supports and/or/nand/nor, got {op!r}")
        if side not in (0, 1):
            raise ReproError(f"side must be 0 or 1, got {side}")
        arrays = [np.asarray(bits, dtype=np.uint8) for bits in operands]
        if len(arrays) < 2:
            raise ReproError("logic operations need at least 2 operands")
        self._admit(op, len(arrays), tenant)
        base_op = "and" if op in ("and", "nand") else "or"
        expected = ideal_output(base_op, arrays)
        if op in ("nand", "nor"):
            expected = 1 - expected

        self.stats.jobs_submitted += 1
        tenant_stats = self.stats.tenant(tenant) if tenant else None
        if tenant_stats is not None:
            tenant_stats.jobs += 1
        if error_bound is not None:
            return self._submit_bounded(
                op, arrays, side, float(error_bound), tenant_stats
            )
        handles = [self.store(bits, side=side) for bits in arrays]
        newly_quarantined: List[Tuple[int, int]] = []
        attempts = 0
        current_side = side
        sides_left = [1 - side]
        try:
            while True:
                try:
                    block = self._block_for(current_side, len(handles))
                except ReproError:
                    if not sides_left:
                        raise ReproError(
                            f"job {op!r} failed: no eligible operation "
                            f"block left after {attempts} attempt(s); "
                            f"quarantined {newly_quarantined or 'none'}"
                        ) from None
                    current_side = sides_left.pop()
                    self._move_all(handles, current_side)
                    continue
                attempts += 1
                out = self._logic_apply(op, handles, block=block)
                got = self.load(out)
                self.free(out)
                if np.array_equal(got, expected):
                    return JobResult(
                        output=got,
                        op=op,
                        block=(current_side, block[1]),
                        attempts=attempts,
                        quarantined=tuple(newly_quarantined),
                    )
                self.stats.verify_failures += 1
                self.quarantine_block(current_side, block[1])
                newly_quarantined.append((current_side, block[1]))
                if attempts > max_failovers:
                    raise ReproError(
                        f"job {op!r} failed verification on "
                        f"{attempts} block(s); quarantined "
                        f"{newly_quarantined}"
                    )
                self.stats.failovers += 1
        finally:
            for handle in handles:
                self.free(handle)

    # ------------------------------------------------------------------
    # admission gate (verify_isolation)
    # ------------------------------------------------------------------

    def _isolation_diagnostics(
        self, op: str, operand_count: int, tenant: Optional[str]
    ) -> List[Diagnostic]:
        """Static pre-admission findings for one job; touches nothing.

        A logic operation always spans *both* subarrays of the pair
        (the reference terminal lives on the other side), so a tenant
        must own both ``(bank, subarray)`` regions of the pair — there
        is no per-subarray tenancy inside one runtime.
        """
        findings: List[Diagnostic] = []

        def emit(rule_id: str, message: str) -> None:
            rule = RULES[rule_id]
            findings.append(
                Diagnostic(
                    rule=rule_id,
                    severity=rule.severity,
                    message=message,
                    hint=rule.hint,
                    program=f"submit_job({op!r}, tenant={tenant!r})",
                )
            )

        if self.allocations is not None:
            if tenant is None or tenant not in self.allocations:
                emit(
                    "CC407",
                    f"job {op!r} names tenant {tenant!r} but the runtime's "
                    f"allocation map grants regions to "
                    f"{sorted(self.allocations)} only",
                )
            else:
                owned = self.allocations[tenant]
                pair_regions = sorted(
                    (self.bank, subarray) for subarray in self.subarray_pair
                )
                missing = [r for r in pair_regions if r not in owned]
                if missing:
                    emit(
                        "CC404",
                        f"job {op!r} (tenant {tenant!r}) runs on the "
                        f"subarray pair {pair_regions} but the tenant's "
                        f"allocation {sorted(owned)} does not cover "
                        f"{missing}: a logic op always spans both "
                        "terminals of the pair",
                    )
        eligible = [
            (block_side, n)
            for block_side in (0, 1)
            for n in _FANINS
            if n >= operand_count and (block_side, n) in self._logic
        ]
        quarantined = [b for b in eligible if b in self._quarantined]
        if eligible and len(quarantined) == len(eligible):
            emit(
                "CC405",
                f"every operation block with fan-in >= {operand_count} "
                f"({sorted(eligible)}) is quarantined: the job could only "
                "run on failed hardware",
            )
        return findings

    def _admit(
        self, op: str, operand_count: int, tenant: Optional[str]
    ) -> None:
        """The ``verify_isolation`` gate; runs before any state change."""
        if self.verify_isolation == "off":
            return
        findings = self._isolation_diagnostics(op, operand_count, tenant)
        if not findings:
            return
        if self.verify_isolation == "error":
            self.stats.isolation_refusals += 1
            if tenant:
                self.stats.tenant(tenant).isolation_refusals += 1
            raise IsolationError(
                f"isolation gate refused job {op!r} (tenant {tenant!r}): "
                + "; ".join(d.message for d in findings),
                findings,
            )
        self.stats.isolation_warnings += 1
        if tenant:
            self.stats.tenant(tenant).isolation_warnings += 1
        warnings.warn(format_diagnostics(findings), stacklevel=3)

    def _submit_bounded(
        self,
        op: str,
        arrays: List[np.ndarray],
        side: int,
        error_bound: float,
        tenant_stats: Optional[TenantStats],
    ) -> JobResult:
        """The bounded-error job path (see :meth:`submit_job`)."""
        self.stats.encoded_jobs += 1
        if tenant_stats is not None:
            tenant_stats.encoded_jobs += 1
        count = len(arrays)
        candidates: List[Tuple[int, int]] = [
            (block_side, n)
            for block_side in (side, 1 - side)
            for n in _FANINS
            if n >= count
            and (block_side, n) in self._logic
            and (block_side, n) not in self._quarantined
        ]
        if not candidates:
            raise ReproError(
                f"no operation block with fan-in >= {count} on either "
                "side (Limitation 2 caps fan-in at 16; quarantine "
                "further narrows the pool)"
            )
        handles = [self.store(bits, side=side) for bits in arrays]
        current_side = side
        best_error: Optional[float] = None
        try:
            for block_side, n in candidates:
                try:
                    scheme = self._scheme_for_block(op, n, error_bound)
                except ReliabilityUnsatisfiableError as error:
                    if error.best_error is not None and (
                        best_error is None or error.best_error < best_error
                    ):
                        best_error = error.best_error
                    self.stats.mitigation_fallbacks += 1
                    continue
                if block_side != current_side:
                    self._move_all(handles, block_side)
                    current_side = block_side
                scheme = scheme.capped_to_rows(n)
                out = self._mitigated_logic_apply(
                    op,
                    handles,
                    scheme,
                    (self._logic[(block_side, n)], n),
                    tenant=tenant_stats,
                )
                got = self.load(out)
                self.free(out)
                return JobResult(
                    output=got,
                    op=op,
                    block=(block_side, n),
                    attempts=1,
                    quarantined=(),
                    scheme=scheme.label,
                    votes=scheme.votes,
                )
            raise ReliabilityUnsatisfiableError(
                f"job {op!r} (fan-in {count}): no non-quarantined block "
                f"on either side has a scheme meeting {error_bound:.1e}"
                + (
                    f" (best residual {best_error:.2e})"
                    if best_error is not None
                    else ""
                ),
                operation=op,
                fan_in=count,
                error_bound=error_bound,
                best_error=best_error,
            )
        finally:
            for handle in handles:
                self.free(handle)

    def _colocate(
        self, handles: Sequence[VectorHandle]
    ) -> List[VectorHandle]:
        """Move operands onto one side (majority side wins).

        Returns the operands on that side; the caller owns — and must
        free — every returned handle that is not one of ``handles``.
        """
        if len(handles) < 2:
            raise ReproError("logic operations need at least 2 operands")
        sides = [h.side for h in handles]
        target = max(set(sides), key=sides.count)
        moved: List[VectorHandle] = []
        try:
            for handle in handles:
                moved.append(self.move(handle, target))
        except BaseException:
            self._free_copies(moved, handles)
            raise
        return moved

    def _colocated_apply(
        self, op: str, handles: Sequence[VectorHandle]
    ) -> VectorHandle:
        operands = self._colocate(handles)
        try:
            return self._logic_apply(op, operands)
        finally:
            self._free_copies(operands, handles)

    def _free_copies(
        self,
        handles: Iterable[VectorHandle],
        originals: Iterable[VectorHandle],
    ) -> None:
        """Free each handle of ``handles`` (once) not among ``originals``."""
        keep = set(originals)
        for handle in dict.fromkeys(handles):
            if handle not in keep:
                self.free(handle)

    def _move_all(self, handles: List[VectorHandle], side: int) -> None:
        """Move every handle of ``handles`` to ``side`` in place, freeing
        the slot each one moved from."""
        for index, handle in enumerate(handles):
            handles[index] = self.move(handle, side)
            if handles[index] is not handle:
                self.free(handle)
