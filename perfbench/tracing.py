"""In-memory span tracer and the wrappers that time each layer from outside.

:func:`instrument` replaces the public entry points of every measured
layer with timing wrappers for the duration of a ``with`` block and puts
the originals back on exit.  Each name is patched where callers look it
up: functions that other modules import by name (``materialize_targets``
in ``characterization.parallel``, the analog kernels in ``dram.bank`` and
``dram.batch``) are replaced in each importing module, and methods are
replaced on their class.  ``find_pattern_pair`` in ``characterization.
runner`` and ``system.runtime`` needs no patch of its own: it looks up
``find_pattern_pairs`` in ``core.addressing`` on every call.

A span records its layer, start, end, parent span and the request or
sweep-target id current when it opened.  The two hottest layers,
``dram.decoder`` and ``dram.analog`` (hundreds of thousands of calls on a
default-scale figure), are *leaf* layers: each call is timed and counted,
but calls are folded into one roll-up per (parent span, layer) instead of
one span each, so the trace stays small enough to keep in memory.

A layer's self time is its span time minus the time of the spans (and
leaf roll-ups) opened inside it.  Its inclusive time counts only the
outermost span of that layer, so a runtime op that calls another
runtime op (``xor`` calls ``and_``) is not counted twice.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: Public ``PudRuntime`` operations timed as the ``system.runtime`` layer.
RUNTIME_OPS = (
    "store",
    "load",
    "free",
    "move",
    "not_",
    "and_",
    "or_",
    "nand",
    "nor",
    "xor",
    "submit_job",
)


class Tracer:
    """Spans, leaf roll-ups, per-layer totals and work counters of one run."""

    def __init__(self) -> None:
        #: ``[layer, start, end, parent index or -1, request id]``.
        self.spans: List[list] = []
        #: ``(parent index, leaf layer) -> [calls, seconds]``.
        self.rollups: Dict[Tuple[int, str], List[float]] = {}
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counters: Dict[str, int] = defaultdict(int)
        #: Request (runtime) or sweep-target id stamped on new spans.
        self.request: Optional[str] = None
        self._stack: List[list] = []  # [span index, child seconds]
        self._depth: Dict[str, int] = defaultdict(int)

    def begin(self, layer: str) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append([len(self.spans), 0.0])
        self.spans.append([layer, time.perf_counter(), 0.0, parent, self.request])
        self._depth[layer] += 1

    def end(self) -> None:
        index, child_s = self._stack.pop()
        span = self.spans[index]
        span[2] = time.perf_counter()
        duration = span[2] - span[1]
        layer = span[0]
        self.self_s[layer] += duration - child_s
        self.calls[layer] += 1
        self._depth[layer] -= 1
        if not self._depth[layer]:
            self.total_s[layer] += duration
        if self._stack:
            self._stack[-1][1] += duration

    def leaf(self, layer: str, seconds: float) -> None:
        """Account one call of a leaf layer that took ``seconds``."""
        self.self_s[layer] += seconds
        self.total_s[layer] += seconds
        self.calls[layer] += 1
        parent = -1
        if self._stack:
            self._stack[-1][1] += seconds
            parent = self._stack[-1][0]
        rollup = self.rollups.setdefault((parent, layer), [0, 0.0])
        rollup[0] += 1
        rollup[1] += seconds

    @contextlib.contextmanager
    def span(self, layer: str) -> Iterator[None]:
        self.begin(layer)
        try:
            yield
        finally:
            self.end()

    def layer_table(self) -> List[Tuple[str, int, float, float]]:
        """``(layer, calls, inclusive s, self s)`` rows, by self time."""
        rows = [
            (layer, self.calls[layer], self.total_s[layer], self.self_s[layer])
            for layer in self.calls
            if self.calls[layer]
        ]
        return sorted(rows, key=lambda row: -row[3])

    def write(self, path: Path) -> None:
        """Write spans and roll-ups as JSON (times in seconds, relative to
        the first span)."""
        origin = self.spans[0][1] if self.spans else 0.0
        payload = {
            "fields": ["layer", "start_s", "end_s", "parent", "request"],
            "spans": [
                [layer, start - origin, end - origin, parent, request]
                for layer, start, end, parent, request in self.spans
            ],
            "rollup_fields": ["parent", "layer", "calls", "seconds"],
            "rollups": [
                [parent, layer, int(calls), seconds]
                for (parent, layer), (calls, seconds) in sorted(
                    self.rollups.items()
                )
            ],
            "counters": dict(sorted(self.counters.items())),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload))


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------


def _spanned(tracer: Tracer, layer: str, count: Optional[Callable] = None):
    """Wrap a function in a ``layer`` span; ``count(args, kwargs, result)``
    updates work counters after a successful call."""

    def wrap(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.begin(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end()
            if count is not None:
                count(args, kwargs, result)
            return result

        return wrapper

    return wrap


def _leaf(tracer: Tracer, layer: str):
    def wrap(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.leaf(layer, time.perf_counter() - start)

        return wrapper

    return wrap


def _counted(tracer: Tracer, counter: str):
    def wrap(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counters[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    return wrap


def _address_search(tracer: Tracer):
    """``find_pattern_pairs``: span plus calls, pairs returned, and the
    decoder probes made inside the search (for the hit ratio)."""

    def wrap(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            probes_before = tracer.calls["dram.decoder"]
            tracer.begin("core.addressing")
            try:
                pairs = fn(*args, **kwargs)
            finally:
                tracer.end()
                tracer.counters["core.addressing.probes"] += (
                    tracer.calls["dram.decoder"] - probes_before
                )
            tracer.counters["core.addressing.hits"] += len(pairs)
            return pairs

        return wrapper

    return wrap


def _fleet(tracer: Tracer):
    """``materialize_targets`` is a generator: time each target's
    construction (one ``next``) and stamp later spans with its id."""

    def wrap(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            targets = fn(*args, **kwargs)
            try:
                while True:
                    tracer.begin("characterization.fleet")
                    try:
                        target = next(targets)
                    except StopIteration:
                        return
                    finally:
                        tracer.end()
                    tracer.counters["characterization.fleet.targets"] += 1
                    tracer.request = "target-{}".format(
                        tracer.counters["characterization.fleet.targets"]
                    )
                    yield target
            finally:
                targets.close()

        return wrapper

    return wrap


def _patch_table(tracer: Tracer) -> List[Tuple[object, str, Callable]]:
    """Every ``(owner, attribute, wrapper factory)`` :func:`instrument`
    installs."""
    from repro.bender import executor
    from repro.characterization import metrics, parallel, runner
    from repro.core import addressing, success
    from repro.dram import bank, batch, decoder
    from repro.reveng import activation
    from repro import rng
    from repro.staticcheck import semantics, verifier
    from repro.system import runtime

    counters = tracer.counters

    def trials(args, kwargs, result):
        counters["core.success.trials"] += int(
            kwargs["trials"] if "trials" in kwargs else args[1]
        )

    def commands(args, kwargs, result):
        counters["bender.executor.programs"] += 1
        counters["bender.executor.commands"] += len(
            kwargs["program"] if "program" in kwargs else args[1]
        )

    def probes(args, kwargs, result):
        counters["reveng.probes"] += 1

    table: List[Tuple[object, str, Callable]] = [
        (addressing, "find_pattern_pairs", _address_search(tracer)),
        (runner, "materialize_targets", _fleet(tracer)),
        (parallel, "materialize_targets", _fleet(tracer)),
        (success.NotSuccessMeasurement, "run",
         _spanned(tracer, "core.success", trials)),
        (success.LogicSuccessMeasurement, "run",
         _spanned(tracer, "core.success", trials)),
        (executor.ProgramExecutor, "run",
         _spanned(tracer, "bender.executor", commands)),
        (executor.ProgramExecutor, "run_batched",
         _spanned(tracer, "bender.executor", commands)),
        (verifier.ProgramVerifier, "verify_program",
         _spanned(tracer, "staticcheck.fc")),
        (semantics.SemanticAnalyzer, "analyze_program",
         _spanned(tracer, "staticcheck.sem")),
        (activation.ActivationScanner, "scan", _spanned(tracer, "reveng")),
        (activation.ActivationScanner, "probe",
         _spanned(tracer, "reveng", probes)),
        (metrics.WeightedSamples, "add",
         _spanned(tracer, "characterization.metrics")),
        (metrics.WeightedSamples, "box",
         _spanned(tracer, "characterization.metrics")),
        (rng.SeedTree, "generator", _counted(tracer, "rng.generators")),
    ]
    for cls in (decoder.CalibratedDecoder, decoder.HierarchicalRowDecoder):
        table.append((cls, "neighboring_pattern", _leaf(tracer, "dram.decoder")))
    for module in (bank, batch):
        for kernel in ("charge_share", "coupling_disturbance", "sense_differential"):
            table.append((module, kernel, _leaf(tracer, "dram.analog")))
    for op in RUNTIME_OPS:
        table.append((runtime.PudRuntime, op, _spanned(tracer, "system.runtime")))
    return table


@contextlib.contextmanager
def instrument(tracer: Tracer) -> Iterator[Tracer]:
    """Install every layer wrapper for the ``with`` block, then restore
    the exact original objects (also when the block raises)."""
    saved = []
    try:
        for owner, name, wrap in _patch_table(tracer):
            original = vars(owner)[name]
            saved.append((owner, name, original))
            setattr(owner, name, wrap(original))
        yield tracer
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)


def patched_originals() -> List[Tuple[object, str, object]]:
    """``(owner, attribute, current object)`` for every patch point — the
    tests compare this before and after a traced run."""
    return [
        (owner, name, vars(owner)[name])
        for owner, name, _wrap in _patch_table(Tracer())
    ]
