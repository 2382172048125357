"""Span tracing from outside the program.

:class:`Tracer` replaces public entry points of the program's modules
with thin wrappers that record one span per call — name, start, end,
parent span and request id — in memory, and puts the originals back on
:meth:`Tracer.uninstall`.  Nothing inside the program changes; untraced
runs execute the original functions.

:func:`layer_totals` turns the spans into per-name call counts, total
time and self time (a span's duration minus the time its child spans
cover).
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

# Span record layout (a list, so ``end`` can fill it in place).
NAME, START, END, PARENT, REQUEST, SIZE, TAG = range(7)


class Target:
    """One entry point to wrap: ``owner.attr`` recorded as ``name``.

    ``size``/``tag`` extract a number / label from ``(args, result)``
    when the call returns; ``new_request`` makes the span start a new
    request id when it opens with no enclosing span on its thread.
    """

    def __init__(
        self,
        owner: object,
        attr: str,
        name: str,
        size: Optional[Callable] = None,
        tag: Optional[Callable] = None,
        new_request: bool = False,
    ) -> None:
        self.owner = owner
        self.attr = attr
        self.name = name
        self.size = size
        self.tag = tag
        self.new_request = new_request


class Tracer:
    """In-memory span recorder; thread-safe under the GIL."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._local = threading.local()
        self._requests = itertools.count(1)
        self._patches: List[Tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, new_request: bool = False) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
            request = self.spans[parent][REQUEST]
        else:
            parent = -1
            request = getattr(self._local, "request", None)
            if new_request or request is None:
                request = self._local.request = next(self._requests)
        span = [name, time.perf_counter(), 0.0, parent, request, None, None]
        self.spans.append(span)
        index = len(self.spans) - 1
        stack.append(index)
        return index

    def end(self, index: int, size=None, tag=None) -> None:
        span = self.spans[index]
        span[END] = time.perf_counter()
        span[SIZE] = size
        span[TAG] = tag
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()

    def span(self, name: str, new_request: bool = False) -> "_SpanScope":
        """Context manager for the benchmark's own spans."""
        return _SpanScope(self, name, new_request)

    def clear(self) -> None:
        self.spans = []

    # -- wrapping --------------------------------------------------------
    def _wrap(self, fn: Callable, target: Target) -> Callable:
        tracer = self
        name, size, tag = target.name, target.size, target.tag
        new_request = target.new_request

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer.begin(name, new_request)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer.end(
                    index,
                    None if size is None else size(args, result),
                    None if tag is None else tag(args, result),
                )

        return traced

    def install(self, targets: Sequence[Target]) -> None:
        """Wrap every target (idempotent per tracer)."""
        if self._patches:
            return
        for target in targets:
            owner, attr = target.owner, target.attr
            raw = (
                owner.__dict__[attr]
                if isinstance(owner, type)
                else getattr(owner, attr)
            )
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, target))
            elif isinstance(raw, staticmethod):
                wrapped = staticmethod(self._wrap(raw.__func__, target))
            else:
                wrapped = self._wrap(raw, target)
            self._patches.append((owner, attr, raw))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        """Restore every original, last wrapped first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)


@contextlib.contextmanager
def installed(tracer: Optional[Tracer]):
    """Wrap the program's entry points for the ``with`` body; a no-op
    without a tracer."""
    if tracer is None:
        yield
        return
    tracer.install(program_targets())
    try:
        yield
    finally:
        tracer.uninstall()


class _SpanScope:
    def __init__(self, tracer: Tracer, name: str, new_request: bool) -> None:
        self._tracer = tracer
        self._name = name
        self._new_request = new_request
        self._index = -1

    def __enter__(self) -> "_SpanScope":
        self._index = self._tracer.begin(self._name, self._new_request)
        return self

    def __exit__(self, *exc_info) -> None:
        self._tracer.end(self._index)


class LayerTotals:
    """Calls, total and self seconds, and summed sizes of one span name."""

    __slots__ = ("calls", "total_s", "self_s", "size")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.size = 0


def layer_totals(spans: Sequence[list]) -> Dict[str, LayerTotals]:
    """Aggregate spans per name.  Self time is a span's duration minus
    the durations of its children (children of one span run on the
    span's own thread, one after another, so they never overlap)."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]
    totals: Dict[str, LayerTotals] = {}
    for index, span in enumerate(spans):
        entry = totals.get(span[NAME])
        if entry is None:
            entry = totals[span[NAME]] = LayerTotals()
        duration = span[END] - span[START]
        entry.calls += 1
        entry.total_s += duration
        entry.self_s += duration - child_time[index]
        if span[SIZE] is not None:
            entry.size += span[SIZE]
    return totals


def program_targets() -> List[Target]:
    """The program's public entry points, one span name per layer call."""
    import repro.engine.engine as engine
    import repro.engine.fleet as fleet
    import repro.engine.kernels as kernels
    import repro.engine.response_tables as response_tables
    import repro.engine.trace as trace
    import repro.library as library
    import repro.service.cache as cache
    import repro.service.core as core
    import repro.service.request as request
    import repro.service.server as server

    responses = (
        response_tables.ExactDeviceResponse,
        response_tables.ResponseTables,
    )
    targets = [
        Target(kernels.CycleKernel, "step", "kernel.step",
               size=lambda args, _: len(args[1])),
        Target(response_tables.TdcCodeTables, "lookup", "device.tdc"),
        Target(engine, "batch_measure_tdc_counts", "device.tdc"),
        Target(response_tables.ResponseTables, "from_population",
               "device.tables_build"),
        Target(trace.StreamingTrace, "record", "trace.record"),
        Target(trace.StreamingTrace, "die_reducers", "trace.die_reducers"),
        Target(trace.StreamingTrace, "merge_dies", "trace.merge_dies"),
        Target(engine.BatchEngine, "run", "engine.run",
               size=lambda args, _: args[0].n),
        Target(engine.BatchEngine, "reset", "engine.reset"),
        Target(engine.BatchEngine, "__init__", "engine.build"),
        Target(fleet.FleetEngine, "run", "fleet.run"),
        Target(fleet.FleetEngine, "reset", "fleet.reset"),
        Target(fleet.FleetEngine, "__init__", "fleet.build"),
        Target(request.WorkloadSpec, "arrival_row", "workloads.arrival_row"),
        Target(library.SubthresholdLibrary, "technology_at",
               "library.technology_at"),
        Target(request.SimRequest, "cache_key", "service.cache_key"),
        Target(request.SimRequest, "group_key", "service.group_key"),
        Target(cache.ResultCache, "get", "cache.get"),
        Target(cache.ResultCache, "put", "cache.put"),
        Target(core.SimulationService, "submit", "service.submit"),
        Target(core.SimulationService, "tick", "service.tick",
               new_request=True),
        Target(core.SimulationService, "simulate_requests",
               "service.simulate_requests"),
        Target(core.ServiceFuture, "result", "service.result"),
        Target(server, "request_from_wire", "gateway.wire_decode",
               new_request=True),
        Target(server, "result_to_wire", "gateway.wire_encode",
               tag=lambda args, _: "hit" if args[0].cached else "miss"),
    ]
    for cls in responses:
        for method in ("current_draw", "cycle_time", "leakage_current",
                       "dynamic_energy"):
            targets.append(Target(cls, method, f"device.{method}"))
    return targets
