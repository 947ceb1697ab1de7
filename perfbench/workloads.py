"""The benchmark's workloads: what one timed unit of each runs and checks.

A *unit* is a fixed amount of client work: one figure experiment, one
pass over the whole experiment registry, or one seeded stream of
``PudRuntime`` requests.  ``prepare`` builds what a unit needs outside
the timed region; ``run`` executes the unit, times it, and checks its
outputs.  Every unit runs serially in the calling thread (``jobs=1``).
"""

from __future__ import annotations

import copy
import hashlib
import time
from dataclasses import astuple, dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from clock import ReferenceClock
from tracing import Tracer

#: Anchors that are counts (chips, modules), not success rates, so they
#: have no percentage-point error.
_COUNT_ANCHOR_EXPERIMENTS = ("table1",)


@dataclass
class UnitResult:
    """Timings, outputs and deterministic counts of one unit."""

    #: Host time of the timed part, speed probes excluded.
    wall_s: float
    cpu_s: float
    #: The same work in seconds at the reference host speed (clock.py).
    ref_s: float
    attempted: int
    #: Requests/experiments that raised or returned a wrong output.
    failed: int
    #: Outputs that differ from the reference (a subset of ``failed``).
    wrong: int
    #: Latency of each completed request (runtime) or experiment
    #: (figures) of the timed part, in milliseconds.
    latencies_ms: List[float]
    #: Output digest per experiment (figures) or of the whole stream.
    digests: Dict[str, str]
    paper_errors_pp: List[float] = field(default_factory=list)
    #: Work counts read from the program's own state (no tracing).
    counters: Dict[str, int] = field(default_factory=dict)
    #: Report-only figures: name -> (value, unit).
    report: Dict[str, tuple] = field(default_factory=dict)
    experiment_s: Dict[str, float] = field(default_factory=dict)
    errors: Dict[str, int] = field(default_factory=dict)
    #: Failed output checks: an experiment that raised, or an isolated
    #: runtime request that raised or returned a wrong vector.  Any entry
    #: makes the run fail.  The stream pass's failures are not here: they
    #: are the known defect that ``failed`` counts (see README).
    problems: List[str] = field(default_factory=list)


def _feed(digest, value) -> None:
    """Feed ``value`` into ``digest`` in a canonical, order-stable form."""
    if isinstance(value, dict):
        digest.update(b"{")
        for key in sorted(value, key=repr):
            _feed(digest, key)
            _feed(digest, value[key])
        digest.update(b"}")
    elif isinstance(value, (list, tuple)):
        digest.update(b"[")
        for item in value:
            _feed(digest, item)
        digest.update(b"]")
    elif isinstance(value, np.ndarray):
        digest.update(f"{value.dtype}{value.shape}".encode())
        digest.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, (float, np.floating)):
        digest.update(repr(float(value)).encode())
    else:
        digest.update(repr(value).encode())


def result_digest(result) -> str:
    """Digest of an ``ExperimentResult``: group statistics and extras."""
    digest = hashlib.sha256()
    _feed(digest, [(label, astuple(stats)) for label, stats in result.groups.items()])
    _feed(digest, result.extras)
    return digest.hexdigest()[:16]


class FigureWorkload:
    """``run_experiment`` over a list of registry ids at one scale."""

    def __init__(
        self, experiments: Optional[Sequence[str]], scale: str, reduced: bool
    ) -> None:
        self._experiments = experiments
        self._scale_name = "smoke" if reduced else scale
        self._reduced = reduced

    def prepare(self, seed: int):
        from repro.analysis import compare  # noqa: F401  (import is set-up)
        from repro.characterization import REGISTRY

        if self._experiments is not None:
            return list(self._experiments)
        if self._reduced:
            return ["capability", "fig12", "fig7", "table1"]
        return sorted(REGISTRY)

    def run(
        self, experiments, seed: int, clock: ReferenceClock,
        tracer: Optional[Tracer] = None,
    ) -> UnitResult:
        from repro.analysis.compare import compare_experiment
        from repro.characterization import DEFAULT, SMOKE, run_experiment

        scale = {"smoke": SMOKE, "default": DEFAULT}[self._scale_name]
        digests: Dict[str, str] = {}
        errors_pp: List[float] = []
        latencies: List[float] = []
        experiment_s: Dict[str, float] = {}
        errors: Dict[str, int] = {}
        problems: List[str] = []
        failed = 0
        wall0, cpu0 = time.perf_counter(), time.process_time()
        for experiment in experiments:
            start = time.perf_counter()
            try:
                if tracer is None:
                    result = run_experiment(experiment, scale, seed, jobs=1)
                else:
                    tracer.request = None
                    with tracer.span("characterization.sweep"):
                        result = run_experiment(experiment, scale, seed, jobs=1)
            except Exception as error:  # one failed experiment must not stop the pass
                failed += 1
                name = type(error).__name__
                errors[name] = errors.get(name, 0) + 1
                problems.append(f"experiment {experiment} raised {name}: {error}")
                continue
            finally:
                experiment_s[experiment] = time.perf_counter() - start
            latencies.append(experiment_s[experiment] * 1e3)
            digests[experiment] = result_digest(result)
            if experiment not in _COUNT_ANCHOR_EXPERIMENTS:
                errors_pp.extend(
                    abs(row.delta) * 100.0
                    for row in compare_experiment(result)
                    if row.delta is not None
                )
        end = time.perf_counter()
        probes = clock.probe_s(wall0, end)
        return UnitResult(
            wall_s=end - wall0 - probes,
            cpu_s=time.process_time() - cpu0 - probes,
            ref_s=clock.reference_s(wall0, end),
            attempted=len(experiments),
            failed=failed,
            wrong=0,
            latencies_ms=latencies,
            digests=digests,
            paper_errors_pp=errors_pp,
            experiment_s=experiment_s,
            errors=errors,
            problems=problems,
        )


# ----------------------------------------------------------------------
# runtime_mix
# ----------------------------------------------------------------------

_KINDS = ("and", "or", "nand", "nor", "not", "xor", "job")
_FANINS = (2, 4, 8, 16)
#: Probability that a multi-operand request stores its last operand on
#: the other side of the pair, so ``_colocate``/``move`` run.
_REMOTE_P = 0.25


@dataclass(frozen=True)
class Request:
    kind: str
    #: Boolean op of a ``job`` request (``kind`` otherwise).
    op: str
    operands: np.ndarray  # (count, lanes) uint8
    sides: tuple
    expected: np.ndarray


def _reference(op: str, operands: np.ndarray) -> np.ndarray:
    if op == "not":
        return 1 - operands[0]
    if op == "xor":
        return operands[0] ^ operands[1]
    base = np.bitwise_and if op in ("and", "nand") else np.bitwise_or
    out = base.reduce(operands, axis=0)
    return 1 - out if op in ("nand", "nor") else out


def make_requests(seed: int, count: int, lanes: int) -> List[Request]:
    """The seeded request stream: uniform over ``_KINDS``; fan-in uniform
    over 2/4/8/16 for and/or/nand/nor and jobs."""
    rng = np.random.default_rng(seed)
    requests = []
    for _ in range(count):
        kind = _KINDS[int(rng.integers(len(_KINDS)))]
        if kind == "not":
            n = 1
        elif kind == "xor":
            n = 2
        else:
            n = _FANINS[int(rng.integers(len(_FANINS)))]
        op = _KINDS[int(rng.integers(4))] if kind == "job" else kind
        home = int(rng.integers(2))
        sides = [home] * n
        if n > 1 and rng.random() < _REMOTE_P:
            sides[-1] = 1 - home
        operands = rng.integers(0, 2, size=(n, lanes), dtype=np.uint8)
        requests.append(
            Request(kind, op, operands, tuple(sides), _reference(op, operands))
        )
    return requests


@dataclass
class RuntimeContext:
    #: Built once per unit; every pass runs on a deep copy of it.
    pristine: object
    requests: List[Request]


_OPS = {"and": "and_", "or": "or_", "nand": "nand", "nor": "nor", "not": "not_", "xor": "xor"}


def _serve(rt, request: Request):
    """One client request: store the operands, run the op, load the
    result, and free every handle the client holds.  Returns the output
    (``None`` when the request raised) and the exception type name."""
    held = []
    try:
        if request.kind == "job":
            return rt.submit_job(
                request.op, list(request.operands), side=request.sides[0]
            ).output, None
        for bits, side in zip(request.operands, request.sides):
            held.append(rt.store(bits, side=side))
        out = getattr(rt, _OPS[request.kind])(*held)
        held.append(out)
        return rt.load(out), None
    except Exception as error:  # a failed request must not stop the client
        return None, type(error).__name__
    finally:
        for handle in held:
            rt.free(handle)


@dataclass
class _Pass:
    """Outcome of serving the request list once."""

    latencies_ms: List[float] = field(default_factory=list)
    wall_s: float = 0.0
    cpu_s: float = 0.0
    ref_s: float = 0.0
    failed: int = 0
    wrong: int = 0
    sim_ns: float = 0.0
    slots_leaked: int = 0
    errors: Dict[str, int] = field(default_factory=dict)
    digest: object = field(default_factory=hashlib.sha256)

    def record(self, request: Request, got, error: Optional[str], ms: float) -> bool:
        if error is not None:
            self.failed += 1
            self.errors[error] = self.errors.get(error, 0) + 1
            self.digest.update(b"E")
            return False
        if not np.array_equal(got, request.expected):
            self.failed += 1
            self.wrong += 1
            self.digest.update(b"W")
            return False
        self.latencies_ms.append(ms)
        self.digest.update(np.asarray(got, dtype=np.uint8).tobytes())
        return True


class RuntimeWorkload:
    """One client, closed loop, over one seeded request list, served twice.

    * **isolated** (timed): each request runs on its own copy of a
      freshly reserved runtime, so its latency and output do not depend
      on what earlier requests left behind.  The unit's timings are
      the summed request times of this pass.
    * **stream** (checked and reported, not in the unit's timings): all
      requests run in order on one runtime, as a long-lived client
      would.  The runtime's slot leaks exhaust the pair part-way
      through, and history-dependent wrong outputs quarantine operation
      blocks (see README), so from some point on requests fail.  Where
      that point falls varies strongly with the seed, which is why this
      pass is not what the end-to-end timings measure.
    """

    #: Requests per unit.  Long enough that the stream pass exhausts the
    #: pair; it must not be shortened to stay under exhaustion.
    REQUESTS = 2000

    def __init__(self, reduced: bool) -> None:
        self._count = 100 if reduced else self.REQUESTS

    @staticmethod
    def build_runtime():
        from repro import ChipGeometry, SeedTree, ideal_calibration, sk_hynix_chip
        from repro.bender import DramBenderHost
        from repro.dram.module import Module
        from repro.system.runtime import PudRuntime

        config = sk_hynix_chip().with_geometry(
            ChipGeometry(banks=2, subarrays_per_bank=4, rows_per_subarray=192, columns=256)
        )
        module = Module(
            config, chip_count=1, seed_tree=SeedTree(7), calibration=ideal_calibration()
        )
        host = DramBenderHost(module, verify="warn", verify_semantics="off")
        return PudRuntime(host, bank=0, subarray_pair=(0, 1), seed=0, verify_isolation="warn")

    def prepare(self, seed: int) -> RuntimeContext:
        runtime = self.build_runtime()
        # One NOT before copying builds the executor's preflight verifier,
        # so isolated requests do not each pay its one-time construction.
        warm = runtime.store(np.zeros(runtime.lane_count, dtype=np.uint8), side=0)
        runtime.free(runtime.not_(warm))
        runtime.free(warm)
        return RuntimeContext(runtime, make_requests(seed, self._count, runtime.lane_count))

    def run(
        self, context: RuntimeContext, seed: int, clock: ReferenceClock,
        tracer: Optional[Tracer] = None,
    ) -> UnitResult:
        isolated = _Pass()
        problems: List[str] = []
        for index, request in enumerate(context.requests):
            rt = copy.deepcopy(context.pristine)
            slots, sim = rt.free_slots(), rt.host.executor.now_ns
            if tracer is not None:
                tracer.request = f"isolated-{index}"
            wall0, cpu0 = time.perf_counter(), time.process_time()
            got, error = _serve(rt, request)
            end, cpu_end = time.perf_counter(), time.process_time()
            probes = clock.probe_s(wall0, end)
            wall = end - wall0 - probes
            isolated.wall_s += wall
            isolated.cpu_s += cpu_end - cpu0 - probes
            isolated.ref_s += clock.reference_s(wall0, end)
            isolated.slots_leaked += slots - rt.free_slots()
            if isolated.record(request, got, error, wall * 1e3):
                isolated.sim_ns += rt.host.executor.now_ns - sim
            else:
                problems.append(
                    f"isolated request {index} ({request.kind} {request.op}, "
                    f"fan-in {len(request.operands)}): {error or 'wrong output'}"
                )

        stream = _Pass()
        rt = copy.deepcopy(context.pristine)
        slots, sim = rt.free_slots(), rt.host.executor.now_ns
        stream_start = time.perf_counter()
        for index, request in enumerate(context.requests):
            if tracer is not None:
                tracer.request = f"stream-{index}"
            start = time.perf_counter()
            got, error = _serve(rt, request)
            stream.record(request, got, error, (time.perf_counter() - start) * 1e3)
        stream.wall_s = time.perf_counter() - stream_start
        stream.sim_ns = rt.host.executor.now_ns - sim
        stream.slots_leaked = slots - rt.free_slots()

        count = len(context.requests)
        iso_ok = count - isolated.failed
        stream_ok = count - stream.failed
        report = {
            "isolated_sim_ns_per_op": (isolated.sim_ns / iso_ok if iso_ok else 0.0, "ns"),
            "stream_failed_frac": (stream.failed / count, "ratio"),
            "stream_op_p50_ms": (_median(stream.latencies_ms), "ms"),
            "stream_ops_per_s": (stream_ok / stream.wall_s, "1/s"),
            "stream_sim_ns_per_op": (stream.sim_ns / stream_ok if stream_ok else 0.0, "ns"),
        }
        errors = {f"stream {name}": n for name, n in stream.errors.items()}
        errors.update((f"isolated {name}", n) for name, n in isolated.errors.items())
        stats = rt.stats
        return UnitResult(
            wall_s=isolated.wall_s,
            cpu_s=isolated.cpu_s,
            ref_s=isolated.ref_s,
            attempted=2 * count,
            failed=isolated.failed + stream.failed,
            wrong=isolated.wrong + stream.wrong,
            latencies_ms=isolated.latencies_ms,
            digests={
                "runtime_mix.isolated": isolated.digest.hexdigest()[:16],
                "runtime_mix.stream": stream.digest.hexdigest()[:16],
            },
            counters={
                "system.runtime.host_transfers": stats.host_transfers,
                "system.runtime.failovers": stats.failovers,
                "system.runtime.quarantined": len(rt.quarantined_blocks()),
                "system.runtime.slots_leaked": stream.slots_leaked,
                "system.runtime.isolated_slots_leaked": isolated.slots_leaked,
                "system.runtime.stream_failed": stream.failed,
                "system.runtime.stream_wrong": stream.wrong,
                "system.runtime.isolated_failed": isolated.failed,
            },
            report=report,
            errors=errors,
            problems=problems,
        )


def _median(values: List[float]) -> float:
    return float(np.median(values)) if values else 0.0


def make(name: str, reduced: bool = False):
    """The workload called ``name``."""
    if name == "fig9_default":
        return FigureWorkload(["fig9"], "default", reduced)
    if name == "fig19_default":
        return FigureWorkload(["fig19"], "default", reduced)
    if name == "registry_smoke":
        return FigureWorkload(None, "smoke", reduced)
    if name == "runtime_mix":
        return RuntimeWorkload(reduced)
    raise KeyError(name)


NAMES = ("fig9_default", "fig19_default", "runtime_mix", "registry_smoke")
