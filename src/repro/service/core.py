"""The micro-batching simulation service.

:class:`SimulationService` turns many small independent
:class:`~repro.service.request.SimRequest`\\ s into the large
populations the batched engine is fast at:

* :meth:`~SimulationService.submit` admits a request (bounded queue,
  optional per-request deadline) and probes the content-addressed
  scenario cache — a repeated corner/scenario resolves immediately
  without touching the engine;
* :meth:`~SimulationService.tick` drains one **micro-batch**: expired
  requests are shed, the oldest pending request picks the coalescing
  group (:meth:`SimRequest.group_key`), up to
  :attr:`ServiceConfig.max_batch_dies` *unique* scenarios of that group
  are packed into one :class:`~repro.engine.engine.BatchEngine` (or
  :class:`~repro.engine.fleet.FleetEngine`) run, and the per-die
  reducers are scattered back to every waiting future (duplicates of
  one scenario share a single simulated die);
* :meth:`~SimulationService.stats` snapshots the service telemetry
  (requests/s, coalesce factor, cache hit rate, queue depth);
* :meth:`~SimulationService.start` hands the ticks to a **background
  coalescer** — a dedicated batching thread (condition-variable wakeup,
  :attr:`ServiceConfig.tick_interval_s` age / max-batch flush triggers)
  that serves open-loop traffic from any number of submitter threads,
  e.g. the HTTP gateway (:mod:`repro.service.server`).  Pending work is
  dequeued **weighted round-robin across tenants** (highest
  :attr:`SimRequest.priority` first within a tenant), and the scenario
  cache gains an optional **persistent disk tier**
  (:mod:`repro.service.persist`) so warm hits survive restarts.

**Batch-composition independence.**  A request's result is bit-identical
however it was coalesced: arrival rows are generated per request from
the request's own spec/seed, the population is assembled per die from
per-request device parameters, and the engine's cycle loop is
elementwise across dies (the PR-2 invariant that already makes sharded
fleets bit-identical to single batches).  ``simulate_requests`` — one
plain engine batch over a request list — is therefore both the
coalescer's work-horse and the reference the parity property tests pin
every partition against.
"""

from __future__ import annotations

import math
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import (
    Deque,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.core.config import ControllerConfig
from repro.core.dcdc import FeedbackMode
from repro.faults import injected_error, shared_injector
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_SPAN, SpanContext, Tracer
from repro.service.cache import ResultCache
from repro.service.request import SimRequest, SimResult
from repro.service.resilience import (
    DEGRADATION_LADDER,
    BackoffSchedule,
    CircuitBreaker,
    ResiliencePolicy,
)

Scalar = Union[int, float]

STATE_RESULT_FIELDS: Tuple[Tuple[str, type], ...] = (
    ("energy_total", float),
    ("operations_total", int),
    ("accepted_total", int),
    ("drops_total", int),
    ("peak_queue", int),
    ("decision_up_total", int),
    ("decision_hold_total", int),
    ("decision_down_total", int),
    ("lut_correction", int),
)
"""Per-die run totals read from :class:`BatchState` accumulators."""

SINK_RESULT_FIELDS: Tuple[Tuple[str, type], ...] = (
    ("mean_queue_length", float),
    ("mean_voltage", float),
    ("min_voltage", float),
    ("max_voltage", float),
    ("final_voltage", float),
    ("settle_cycle", int),
    ("violation_cycles", int),
    ("energy_per_operation", float),
)
"""Per-die reducers read from :meth:`StreamingTrace.die_reducers`."""

RESULT_FIELDS: Tuple[str, ...] = tuple(
    name for name, _ in STATE_RESULT_FIELDS + SINK_RESULT_FIELDS
)
"""Every reducer a :class:`SimResult` can carry."""

EXECUTION_MODES = ("direct", "serial", "process")
"""``"direct"`` runs batches on a plain :class:`BatchEngine`; the other
modes run them as a :class:`FleetEngine` on that executor backend
(bit-identical results — a throughput/isolation choice)."""


class AdmissionError(RuntimeError):
    """The request was rejected at the door (queue at capacity)."""


class DeadlineExceeded(RuntimeError):
    """The request sat in the queue past its deadline and was shed."""


@dataclass(frozen=True)
class ServiceConfig:
    """Capacity, batching and caching knobs of one service instance."""

    max_queue_depth: int = 4096
    """Pending requests admitted before :class:`AdmissionError`."""

    max_batch_dies: int = 1024
    """Unique scenarios (simulated dies) coalesced into one engine run —
    the in-flight die bound per tick."""

    cache_bytes: int = 32 * 1024 * 1024
    """Scenario-cache byte budget (0 disables caching)."""

    stream_window: int = 64
    """Ring-buffer rows of the per-batch streaming telemetry sink."""

    execution: str = "direct"
    """One of :data:`EXECUTION_MODES`."""

    workers: Optional[int] = None
    """Fleet worker count (fleet execution modes only)."""

    shard_size: Optional[int] = None
    """Fleet shard size (fleet execution modes only)."""

    engine_cache: int = 4
    """Warm engines kept resident across ticks, keyed by
    ``(group_key, batch size)``.  A tick whose batch matches a warm
    engine swaps the new population in with :meth:`BatchEngine.reset`
    instead of constructing (and, for fleets, re-fanning-out) an engine
    — bit-identical results, zero re-fanout.  ``0`` disables reuse
    (cold construction per batch, the pre-persistent behaviour)."""

    resilience: Optional[ResiliencePolicy] = None
    """Retry / circuit-breaker / degradation policy
    (:class:`~repro.service.resilience.ResiliencePolicy`).  ``None``
    (the default) keeps the historical fail-fast behaviour: a failed
    batch rejects exactly its own futures and the service moves on."""

    tick_interval_s: float = 0.002
    """Background coalescer only: how long the batching thread lets the
    oldest pending request age before flushing a micro-batch.  A larger
    interval coalesces harder (better throughput), a smaller one bounds
    queueing latency.  The thread flushes early when the pending depth
    reaches :attr:`max_batch_dies` (the max-batch trigger) or on
    :meth:`SimulationService.close`."""

    persist_dir: Optional[str] = None
    """Directory of the persistent (disk) scenario-cache tier; ``None``
    (the default) keeps the cache memory-only.  Entries are written
    through under the canonical content hash, so warm hits survive
    process restarts."""

    persist_bytes: int = 256 * 1024 * 1024
    """Byte budget of the disk cache tier (LRU eviction; 0 disables the
    tier even when :attr:`persist_dir` is set)."""

    tenant_weights: Optional[Mapping[str, int]] = None
    """Weighted-round-robin dequeue weights per tenant
    (:attr:`SimRequest.tenant`).  A tenant absent from the mapping (and
    every tenant when ``None``) weighs 1; a tenant with weight *k* is
    offered *k* dequeue slots per rotation turn."""

    def __post_init__(self) -> None:
        if self.max_queue_depth <= 0:
            raise ValueError("max_queue_depth must be positive")
        if self.max_batch_dies <= 0:
            raise ValueError("max_batch_dies must be positive")
        if self.cache_bytes < 0:
            raise ValueError("cache_bytes must be non-negative")
        if self.stream_window < 8:
            # final_voltage averages the last 8 rows; a shorter window
            # would silently change reducer values with the window size.
            raise ValueError("stream_window must be at least 8")
        if self.execution not in EXECUTION_MODES:
            raise ValueError(
                f"execution must be one of {EXECUTION_MODES}, "
                f"got {self.execution!r}"
            )
        if self.engine_cache < 0:
            raise ValueError("engine_cache must be non-negative")
        if self.resilience is not None and not isinstance(
            self.resilience, ResiliencePolicy
        ):
            raise TypeError(
                f"resilience must be a ResiliencePolicy or None, "
                f"got {type(self.resilience)!r}"
            )
        if not (self.tick_interval_s > 0.0):
            raise ValueError("tick_interval_s must be positive")
        if self.persist_bytes < 0:
            raise ValueError("persist_bytes must be non-negative")
        if self.tenant_weights is not None:
            for tenant, weight in self.tenant_weights.items():
                if not isinstance(tenant, str) or not tenant:
                    raise ValueError(
                        "tenant_weights keys must be non-empty strings"
                    )
                if isinstance(weight, bool) or not isinstance(
                    weight, int
                ) or weight < 1:
                    raise ValueError(
                        f"tenant weight must be an int >= 1, "
                        f"got {weight!r} for {tenant!r}"
                    )


@dataclass(frozen=True)
class ServiceStats:
    """Telemetry snapshot of a :class:`SimulationService`."""

    submitted: int
    completed: int
    rejected: int
    shed: int
    failed: int
    cache_hits: int
    cache_misses: int
    batches: int
    simulated_dies: int
    coalesced_requests: int
    queue_depth: int
    cache_entries: int
    cache_bytes: int
    elapsed_s: float
    engine_builds: int = 0
    engine_reuses: int = 0
    fanout_s: float = 0.0
    dispatch_s: float = 0.0
    merge_s: float = 0.0
    retries: int = 0
    degraded_runs: int = 0
    breaker_trips: int = 0
    cache_corruptions: int = 0
    persist_hits: int = 0
    persist_misses: int = 0
    persist_entries: int = 0
    persist_bytes: int = 0
    tenants: int = 0
    in_flight: int = 0
    cache_lookups: int = 0

    @property
    def requests_per_second(self) -> float:
        """Completed requests per wall-clock second since service start."""
        return self.completed / self.elapsed_s if self.elapsed_s > 0 else 0.0

    @property
    def coalesce_factor(self) -> float:
        """Requests satisfied per engine run (dedup included)."""
        return self.coalesced_requests / self.batches if self.batches else 0.0

    @property
    def cache_hit_rate(self) -> float:
        """Cache hits over all cache lookups."""
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    @property
    def engine_reuse_rate(self) -> float:
        """Warm-engine hits over all engine acquisitions."""
        runs = self.engine_builds + self.engine_reuses
        return self.engine_reuses / runs if runs else 0.0

    def describe(self) -> str:
        """Return a multi-line human-readable summary (the CLI output)."""
        return "\n".join(
            (
                f"requests    submitted={self.submitted} "
                f"completed={self.completed} rejected={self.rejected} "
                f"shed={self.shed} failed={self.failed}",
                f"throughput  {self.requests_per_second:.1f} requests/s "
                f"({self.elapsed_s:.3f}s elapsed)",
                f"coalescing  {self.batches} batches, "
                f"{self.simulated_dies} dies simulated, "
                f"coalesce factor {self.coalesce_factor:.2f}",
                f"cache       hit rate {self.cache_hit_rate:.1%} "
                f"({self.cache_hits} hits / {self.cache_misses} misses), "
                f"{self.cache_entries} entries, "
                f"{self.cache_bytes} bytes",
                f"dispatch    fan-out {self.fanout_s:.3f}s, "
                f"run {self.dispatch_s:.3f}s, merge {self.merge_s:.3f}s "
                f"(per tick: fan-out "
                f"{self.fanout_s / self.batches if self.batches else 0.0:.4f}s, "
                f"merge "
                f"{self.merge_s / self.batches if self.batches else 0.0:.4f}s)",
                f"engines     reuse rate {self.engine_reuse_rate:.1%} "
                f"({self.engine_reuses} reuses / "
                f"{self.engine_builds} builds)",
                f"resilience  retries={self.retries} "
                f"degraded_runs={self.degraded_runs} "
                f"breaker_trips={self.breaker_trips} "
                f"cache_corruptions={self.cache_corruptions}",
                f"persist     hits={self.persist_hits} "
                f"misses={self.persist_misses} "
                f"{self.persist_entries} entries, "
                f"{self.persist_bytes} bytes",
                f"queue       depth {self.queue_depth}, "
                f"in-flight {self.in_flight} "
                f"({self.tenants} tenants pending)",
            )
        )


class ServiceFuture:
    """Handle to one submitted request.

    Two consumption styles, picked automatically:

    * **caller-driven** (no background coalescer): :meth:`result`
      drives :meth:`SimulationService.tick` until this request
      resolves, so a caller that only ever submits and asks for
      results never needs to manage ticks itself;
    * **background** (after :meth:`SimulationService.start`): the
      batching thread owns the ticks and :meth:`result` blocks on an
      event — safe to call from any number of gateway/client threads.
    """

    def __init__(self, service: "SimulationService", key: str) -> None:
        self._service = service
        self.key = key
        self._resolved = threading.Event()
        self._result: Optional[SimResult] = None
        self._exception: Optional[BaseException] = None

    @property
    def done(self) -> bool:
        """Whether the request has resolved (result or exception)."""
        return self._resolved.is_set()

    def _resolve(self, result: SimResult) -> None:
        self._result = result
        self._resolved.set()

    def _reject(self, exc: BaseException) -> None:
        self._exception = exc
        self._resolved.set()

    def result(self, timeout: Optional[float] = None) -> SimResult:
        """Return the resolved result (ticking or waiting as needed).

        Raises :class:`DeadlineExceeded` if the request was shed, and
        :class:`TimeoutError` if ``timeout`` seconds pass while waiting
        on the background coalescer.
        """
        while not self._resolved.is_set():
            if self._service._background_active():
                if not self._resolved.wait(timeout):
                    raise TimeoutError(
                        f"request {self.key[:12]}… still pending after "
                        f"{timeout}s"
                    )
            elif self._service.tick() == 0 and not self._resolved.is_set():
                raise RuntimeError(
                    "service made no progress while this request is "
                    "still pending (was the queue cleared externally?)"
                )
        if self._exception is not None:
            raise self._exception
        assert self._result is not None
        return self._result

    def exception(self) -> Optional[BaseException]:
        """Return the shed/rejection exception, if any (no ticking)."""
        return self._exception


@dataclass
class _Pending:
    request: SimRequest
    key: str
    future: ServiceFuture
    submitted_at: float
    # Observability riders (defaults keep positional construction
    # working): submit-time perf_counter reading for the queue-wait
    # histogram, and the request's open ``service.queue`` span (None
    # when the request is untraced).
    t_perf: float = 0.0
    span: Optional[object] = None


class SimulationService:
    """In-process simulation-as-a-service over the batched engine."""

    def __init__(
        self,
        library=None,
        config: Optional[ServiceConfig] = None,
        controller: Optional[ControllerConfig] = None,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        from repro.library import default_library

        self.library = library or default_library()
        self.config = config or ServiceConfig()
        self.controller = controller or ControllerConfig()
        # Observability: a (possibly shared) metrics registry and an
        # optional tracer.  Tracing off (the default) costs one
        # ``is None`` check per submit; metrics are either per-batch
        # registry updates (stripe-locked) or plain ints bridged into
        # the registry at snapshot time — the cache-hit fast path stays
        # untouched.
        self.metrics = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer
        self.cache = ResultCache(self.config.cache_bytes)
        self._persist = None
        if (
            self.config.persist_dir is not None
            and self.config.persist_bytes > 0
        ):
            from repro.service.persist import PersistentCache

            self._persist = PersistentCache(
                self.config.persist_dir, self.config.persist_bytes
            )
        # Admission state: per-tenant priority buckets drained in
        # weighted-round-robin order.  _rotation holds every tenant
        # with pending work; _depth is the total pending count.
        self._queues: Dict[str, Dict[int, Deque[_Pending]]] = {}
        self._rotation: Deque[str] = deque()
        self._depth = 0
        # One lock guards the queues, the cache tiers and the counters;
        # _wake (same lock) signals the background coalescer on submit
        # and backpressured submitters on drain.
        self._lock = threading.RLock()
        self._wake = threading.Condition(self._lock)
        self._bg_thread: Optional[threading.Thread] = None
        self._bg_stop = False
        self._persist_hits = 0
        self._persist_misses = 0
        self._luts: Dict[float, object] = {}
        self._calibrations: Dict[float, np.ndarray] = {}
        self._submitted = 0
        self._completed = 0
        self._rejected = 0
        self._shed = 0
        self._failed = 0
        self._batches = 0
        self._simulated_dies = 0
        self._coalesced_requests = 0
        self._in_flight = 0
        # Warm engines, keyed by (group_key, batch size); LRU, bounded
        # by config.engine_cache.  Values: {"engine": ..., "fleet": bool}.
        self._engines: "OrderedDict[Tuple[object, int], dict]" = (
            OrderedDict()
        )
        self._cache_corruptions = 0
        # Resilience state (None / empty until a policy is configured):
        # per-execution-mode circuit breakers and the seeded backoff.
        self._breakers: Dict[str, CircuitBreaker] = {}
        self._backoff: Optional[BackoffSchedule] = None
        self._started = time.monotonic()
        self._build_instruments()

    def _build_instruments(self) -> None:
        """Register (and pre-bind) this service's metric families.

        Two classes of instrument, by hot-path cost:

        * **bridged** — the historical plain-int counters stay plain
          ints mutated under the service lock; :meth:`_refresh_observed`
          copies them into registry counters/gauges at snapshot time, so
          the submit fast path pays nothing new;
        * **direct** — per-batch instruments (phase/queue-wait/fleet
          histograms, engine acquisitions, retries, breaker trips) write
          straight to their stripe-locked child: cheap because they fire
          once per batch or per shard, not once per request.

        Children are pre-bound here so every series exists (at zero)
        from the first scrape.
        """
        reg = self.metrics
        requests = reg.counter(
            "repro_service_requests_total",
            "Requests by final outcome at the admission boundary.",
            labelnames=("outcome",),
        )
        self._m_requests = {
            outcome: requests.labels(outcome=outcome)
            for outcome in (
                "submitted", "completed", "rejected", "shed", "failed"
            )
        }
        self._m_batches = reg.counter(
            "repro_service_batches_total", "Engine micro-batches run."
        )
        self._m_dies = reg.counter(
            "repro_service_simulated_dies_total",
            "Unique dies simulated across all batches.",
        )
        self._m_coalesced = reg.counter(
            "repro_service_coalesced_requests_total",
            "Requests satisfied by batch membership (dedup included).",
        )
        self._g_in_flight = reg.gauge(
            "repro_service_in_flight",
            "Requests drained from the queue whose batch is still running.",
        )
        self._g_queue_depth = reg.gauge(
            "repro_service_queue_depth", "Pending (admitted) requests."
        )
        self._g_tenants = reg.gauge(
            "repro_service_tenants_pending",
            "Tenants with at least one pending request.",
        )
        self._f_tenant_depth = reg.gauge(
            "repro_service_tenant_queue_depth",
            "Pending requests per tenant.",
            labelnames=("tenant",),
        )
        self._g_uptime = reg.gauge(
            "repro_service_uptime_seconds",
            "Monotonic seconds since service construction.",
        )
        self._m_cache_lookups = reg.counter(
            "repro_cache_lookups_total",
            "Cache probes per tier (hits + misses == lookups).",
            labelnames=("tier",),
        )
        self._m_cache_hits = reg.counter(
            "repro_cache_hits_total", "Cache hits per tier.",
            labelnames=("tier",),
        )
        self._m_cache_misses = reg.counter(
            "repro_cache_misses_total", "Cache misses per tier.",
            labelnames=("tier",),
        )
        self._m_cache_evictions = reg.counter(
            "repro_cache_evictions_total",
            "Byte-budget LRU evictions per tier.",
            labelnames=("tier",),
        )
        self._g_cache_entries = reg.gauge(
            "repro_cache_entries", "Resident entries per tier.",
            labelnames=("tier",),
        )
        self._g_cache_bytes = reg.gauge(
            "repro_cache_bytes", "Resident bytes per tier.",
            labelnames=("tier",),
        )
        self._m_corruptions = reg.counter(
            "repro_cache_corruptions_total",
            "Cache entries discarded by structural validation, both tiers.",
        )
        self._m_persist_hits = reg.counter(
            "repro_service_persist_hits_total",
            "Misses served from the disk tier (promoted to memory).",
        )
        self._m_persist_misses = reg.counter(
            "repro_service_persist_misses_total",
            "Misses that fell through both tiers.",
        )
        tiers = ["memory"]
        if (
            self.config.persist_dir is not None
            and self.config.persist_bytes > 0
        ):
            tiers.append("disk")
        for tier in tiers:
            for family in (
                self._m_cache_lookups, self._m_cache_hits,
                self._m_cache_misses, self._m_cache_evictions,
                self._g_cache_entries, self._g_cache_bytes,
            ):
                family.labels(tier=tier)
        phases = reg.histogram(
            "repro_service_phase_seconds",
            "Per-batch seconds by pipeline phase "
            "(assemble/fanout/run/merge/scatter).",
            labelnames=("phase",),
        )
        self._h_phase = {
            phase: phases.labels(phase=phase)
            for phase in ("assemble", "fanout", "run", "merge", "scatter")
        }
        self._h_queue_wait = reg.histogram(
            "repro_service_queue_wait_seconds",
            "Submit-to-drain wait per queued request.",
        ).labels()
        acquisitions = reg.counter(
            "repro_service_engine_acquisitions_total",
            "Warm-engine acquisitions by kind (build/reuse).",
            labelnames=("kind",),
        )
        self._m_engine_acq = {
            kind: acquisitions.labels(kind=kind)
            for kind in ("build", "reuse")
        }
        self._m_retries = reg.counter(
            "repro_service_retries_total",
            "Resilience retries (backoff sleeps taken).",
        ).labels()
        self._m_degraded = reg.counter(
            "repro_service_degraded_runs_total",
            "Batches answered below the configured execution mode.",
        ).labels()
        self._f_breaker_trips = reg.counter(
            "repro_service_breaker_trips_total",
            "Circuit-breaker trips per execution mode.",
            labelnames=("mode",),
        )
        self._h_shard_run = reg.histogram(
            "repro_fleet_shard_run_seconds",
            "Engine-run seconds per fleet shard (worker-reported).",
        ).labels()
        self._h_roundtrip = reg.histogram(
            "repro_fleet_worker_roundtrip_seconds",
            "Dispatch-to-ack seconds per fleet worker command.",
        ).labels()

    # ------------------------------------------------------------------
    # Lifecycle (background coalescer thread + warm process fleets)
    # ------------------------------------------------------------------
    def start(self) -> "SimulationService":
        """Start the background coalescer (idempotent).

        A dedicated batching thread takes ownership of :meth:`tick`:
        it sleeps on a condition variable, wakes on submit, and flushes
        a micro-batch once the oldest pending request has aged
        :attr:`ServiceConfig.tick_interval_s` — or immediately when the
        pending depth reaches :attr:`ServiceConfig.max_batch_dies` (the
        max-batch trigger) or the service is closing.  Results are
        bit-identical to caller-driven ticking: the thread runs the
        very same :meth:`tick`.
        """
        with self._lock:
            if self._bg_thread is not None and self._bg_thread.is_alive():
                return self
            self._bg_stop = False
            thread = threading.Thread(
                target=self._background_loop,
                name="repro-service-coalescer",
                daemon=True,
            )
            self._bg_thread = thread
            thread.start()
        return self

    def _background_active(self) -> bool:
        thread = self._bg_thread
        return thread is not None and thread.is_alive()

    def _oldest_submitted(self) -> float:
        """Earliest ``submitted_at`` across every pending bucket
        (caller holds the lock and guarantees pending work exists)."""
        return min(
            queue[0].submitted_at
            for buckets in self._queues.values()
            for queue in buckets.values()
            if queue
        )

    def _background_loop(self) -> None:
        """idle → (submit wakes) → age/size gate → flush, until stopped.

        On stop the loop keeps flushing until the queue is empty, so
        ``close()`` never strands admitted futures unresolved.
        """
        interval = self.config.tick_interval_s
        while True:
            with self._wake:
                while not self._bg_stop and self._depth == 0:
                    self._wake.wait()
                if self._bg_stop and self._depth == 0:
                    return
                # Age the batch up to tick_interval_s; flush early on
                # the max-batch trigger or when the service is closing.
                while (
                    not self._bg_stop
                    and 0 < self._depth < self.config.max_batch_dies
                ):
                    remaining = interval - (
                        time.monotonic() - self._oldest_submitted()
                    )
                    if remaining <= 0:
                        break
                    self._wake.wait(remaining)
            if self._depth:
                self.tick()

    def stop(self) -> None:
        """Stop the background coalescer, draining pending work first.

        No-op when the coalescer is not running.  The service stays
        usable in caller-driven mode (and :meth:`start` may be called
        again).
        """
        thread = self._bg_thread
        if thread is None:
            return
        with self._wake:
            self._bg_stop = True
            self._wake.notify_all()
        if thread.is_alive() and thread is not threading.current_thread():
            thread.join()
        self._bg_thread = None

    def close(self) -> None:
        """Stop the background coalescer (draining pending work), then
        retire every warm engine (process fleets unlink their shared
        memory).  The service stays usable — the next batch simply
        builds cold again — so this is safe to call between phases of a
        long-lived deployment, not just at the end.

        Collect-and-reraise: every engine is closed even when one
        engine's ``close()`` raises (one bad fleet must not leak the
        rest of the LRU's shared-memory segments); the first error is
        re-raised afterwards."""
        self.stop()
        engines, self._engines = self._engines, OrderedDict()
        errors: List[BaseException] = []
        for entry in engines.values():
            self._close_engine(entry, errors)
        if errors:
            raise errors[0]

    @staticmethod
    def _close_engine(
        entry: dict, errors: Optional[List[BaseException]] = None
    ) -> None:
        """Close one warm engine; collect the error when a list is
        given (lifecycle paths), swallow it otherwise (the entry is
        already being discarded on a failure path)."""
        closer = getattr(entry["engine"], "close", None)
        if closer is None:
            return
        try:
            closer()
        except Exception as exc:
            if errors is not None:
                errors.append(exc)

    def __enter__(self) -> "SimulationService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC-order dependent
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------
    # Shared, content-independent resources (built once, reused)
    # ------------------------------------------------------------------
    def _lut(self, sample_rate: float):
        """Return the reference-programmed LUT for a sample rate."""
        lut = self._luts.get(sample_rate)
        if lut is None:
            from repro.circuits.loads import DigitalLoad
            from repro.core.rate_controller import program_lut_for_load

            reference_load = DigitalLoad(
                self.library.ring_oscillator_load,
                self.library.reference_delay_model,
            )
            lut = program_lut_for_load(
                reference_load, sample_rate=sample_rate
            )
            self._luts[sample_rate] = lut
        return lut

    def _calibration(self, temperature_c: float) -> np.ndarray:
        """Return the reference TDC calibration table at a temperature."""
        counts = self._calibrations.get(temperature_c)
        if counts is None:
            from repro.core.tdc import TdcCalibration, TimeToDigitalConverter

            reference_tdc = TimeToDigitalConverter(
                self.library.reference_delay_model,
                self.controller.tdc,
                temperature_c=temperature_c,
            )
            counts = TdcCalibration(
                reference_tdc,
                resolution_bits=self.controller.resolution_bits,
                full_scale=self.controller.full_scale_voltage,
            ).expected_counts
            self._calibrations[temperature_c] = counts
        return counts

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Return the number of pending (admitted, unresolved) requests."""
        return self._depth

    def _tenant_weight(self, tenant: str) -> int:
        weights = self.config.tenant_weights
        if not weights:
            return 1
        return max(1, int(weights.get(tenant, 1)))

    def _enqueue(self, pending: _Pending) -> None:
        """Add one pending request to its tenant's priority bucket
        (caller holds the lock)."""
        tenant = pending.request.tenant
        buckets = self._queues.get(tenant)
        if buckets is None:
            buckets = self._queues[tenant] = {}
            self._rotation.append(tenant)
        buckets.setdefault(pending.request.priority, deque()).append(
            pending
        )
        self._depth += 1

    @staticmethod
    def _pop_highest(
        buckets: Dict[int, Deque[_Pending]]
    ) -> Optional[_Pending]:
        """Pop the oldest pending of the highest non-empty priority."""
        for priority in sorted(buckets, reverse=True):
            queue = buckets[priority]
            if queue:
                pending = queue.popleft()
                if not queue:
                    del buckets[priority]
                return pending
        return None

    def _drain_scheduling_order(self) -> List[_Pending]:
        """Pop every pending request in dequeue order (caller holds the
        lock): weighted round-robin across tenants (a tenant with
        weight *k* yields up to *k* requests per rotation turn),
        highest priority first within a tenant, FIFO within a
        priority."""
        drained: List[_Pending] = []
        while self._depth:
            tenant = self._rotation.popleft()
            buckets = self._queues[tenant]
            for _ in range(self._tenant_weight(tenant)):
                pending = self._pop_highest(buckets)
                if pending is None:
                    break
                drained.append(pending)
                self._depth -= 1
            if any(buckets.values()):
                self._rotation.append(tenant)
            else:
                del self._queues[tenant]
        return drained

    def _validate(self, request: SimRequest) -> None:
        if request.reducers is not None:
            unknown = set(request.reducers) - set(RESULT_FIELDS)
            if unknown:
                raise ValueError(
                    f"unknown reducers {sorted(unknown)}; "
                    f"available: {RESULT_FIELDS}"
                )

    def _cache_lookup(self, key: str) -> Optional[Dict[str, Scalar]]:
        """Probe the scenario cache tiers with structural validation.

        Memory LRU first; on a miss, the persistent (disk) tier — a
        disk hit is promoted back into the memory LRU.  A hit whose
        value fails validation (missing reducer, non-scalar or
        non-finite entry — or a ``cache``-scope injected fault
        simulating a torn write) is *discarded* from both tiers and
        counted, so the scenario re-simulates instead of serving
        corrupt data.
        """
        cached = self.cache.get(key)
        from_disk = False
        if cached is None:
            if self._persist is None:
                return None
            cached = self._persist.get(key)
            if cached is None:
                self._persist_misses += 1
                return None
            self._persist_hits += 1
            from_disk = True
        injector = shared_injector()
        spec = (
            injector.poll(scope="cache", command="run")
            if injector is not None
            else None
        )
        if spec is not None:
            # Tear the (copied) value the way a torn write would; the
            # validator below must catch it.
            cached.pop(next(iter(cached)), None)
        if self._cache_entry_valid(cached):
            if from_disk:
                self.cache.put(key, cached)
            return cached
        self.cache.discard(key)
        if self._persist is not None:
            self._persist.discard(key)
        self._cache_corruptions += 1
        return None

    def _cache_store(self, key: str, value: Dict[str, Scalar]) -> None:
        """Write-through: fill the memory LRU and the disk tier."""
        self.cache.put(key, value)
        if self._persist is not None:
            self._persist.put(key, value)

    @staticmethod
    def _cache_entry_valid(value: Dict[str, Scalar]) -> bool:
        if set(value) != set(RESULT_FIELDS):
            return False
        for item in value.values():
            if isinstance(item, bool) or not isinstance(
                item, (int, float)
            ):
                return False
            # NaN is a legitimate reducer outcome (for example
            # energy_per_operation of a die that completed zero
            # operations); infinities are not.
            if math.isinf(item):
                return False
        return True

    def submit(
        self,
        request: SimRequest,
        *,
        trace: Optional[SpanContext] = None,
    ) -> ServiceFuture:
        """Admit one request; resolve immediately on a cache hit.

        Raises :class:`AdmissionError` when the pending queue is at
        :attr:`ServiceConfig.max_queue_depth` — the caller's signal to
        back off (or tick the service) before retrying.

        ``trace`` is an optional parent :class:`SpanContext` (the
        gateway's ``http.request`` span): when the service has a tracer
        a ``service.submit`` span — and, for queued requests, a
        ``service.queue`` span ended at drain time — is recorded under
        it.  Tracing never influences the answer: spans carry only
        ``time.perf_counter`` readings and never feed back into
        simulation inputs.
        """
        t_perf = time.perf_counter()
        tracer = self.tracer
        span = NULL_SPAN
        if tracer is not None:
            span = tracer.start(
                "service.submit",
                parent=trace,
                attrs={"tenant": request.tenant},
                start_s=t_perf,
            )
        try:
            self._validate(request)
            key = request.cache_key()
            with self._lock:
                cached = self._cache_lookup(key)
                if cached is not None:
                    future = ServiceFuture(self, key)
                    future._resolve(
                        SimResult(
                            key=key,
                            values=self._select(cached, request),
                            cached=True,
                            batch_size=0,
                        )
                    )
                    self._submitted += 1
                    self._completed += 1
                    span.set(cache_hit=True, outcome="completed")
                    return future
                if self._depth >= self.config.max_queue_depth:
                    # Not counted as submitted: callers retry after
                    # draining, and counting every attempt would
                    # overstate offered load (one logical request could
                    # inflate both counters).
                    self._rejected += 1
                    span.set(outcome="rejected")
                    raise AdmissionError(
                        f"queue at capacity "
                        f"({self.config.max_queue_depth} pending requests)"
                    )
                self._submitted += 1
                future = ServiceFuture(self, key)
                queue_span = None
                if span is not NULL_SPAN:
                    queue_span = span.child(
                        "service.queue", start_s=time.perf_counter()
                    )
                span.set(cache_hit=False, outcome="queued")
                self._enqueue(
                    _Pending(
                        request,
                        key,
                        future,
                        time.monotonic(),
                        t_perf,
                        queue_span,
                    )
                )
                self._wake.notify_all()
            return future
        finally:
            # Ended outside the lock: the exporter write (sampled
            # traces only) never extends the critical section.
            span.end()

    # ------------------------------------------------------------------
    # The micro-batch tick
    # ------------------------------------------------------------------
    def tick(self) -> int:
        """Drain one micro-batch; return the requests resolved.

        Shedding counts as resolution (the future raises
        :class:`DeadlineExceeded`), so a return of 0 means the queue is
        empty.  While the background coalescer is running it owns the
        drain — an external tick raises instead of racing it.

        Queue manipulation and future resolution happen under the
        service lock; the engine batch itself runs outside it, so
        submitters are never blocked behind a simulation.
        """
        bg = self._bg_thread
        if (
            bg is not None
            and bg.is_alive()
            and threading.current_thread() is not bg
        ):
            raise RuntimeError(
                "the background coalescer owns tick(); wait on futures "
                "(or stop() the service) instead"
            )
        t_a0 = time.perf_counter()
        with self._lock:
            resolved, batch, order, unique, deadline = (
                self._assemble_batch()
            )
            if batch:
                self._in_flight += len(batch)
            if resolved and not batch:
                self._wake.notify_all()
        if not batch:
            return resolved
        t_a1 = time.perf_counter()
        self._h_phase["assemble"].observe(t_a1 - t_a0)
        for pending in batch:
            if pending.t_perf:
                self._h_queue_wait.observe(t_a1 - pending.t_perf)
        batch_span = NULL_SPAN
        if self.tracer is not None:
            # The batch span parents under the first traced member's
            # trace; the other members' queue spans still carry their
            # own trace ids, so every trace sees its request drain.
            parent = None
            for pending in batch:
                if pending.span is not None:
                    pending.span.end(end_s=t_a1)
                    if parent is None:
                        parent = pending.span.context
            batch_span = self.tracer.start(
                "service.batch",
                parent=parent,
                attrs={"requests": len(batch), "unique": len(unique)},
                start_s=t_a1,
            )
            batch_span.child("service.assemble", start_s=t_a0).end(
                end_s=t_a1
            )
        try:
            # Keywords passed only when set: simulate_requests stays
            # drop-in replaceable (tests monkeypatch it with plain
            # single-argument callables).
            kwargs = {}
            if deadline is not None:
                kwargs["deadline"] = deadline
            if batch_span is not NULL_SPAN:
                kwargs["span"] = batch_span
            values = self.simulate_requests(unique, **kwargs)
        except Exception as exc:
            # The batch was already dequeued; a failed engine build or
            # run must fail *these* requests (each future re-raises the
            # error), never strand their futures unresolved or take the
            # service down with them.
            with self._lock:
                for pending in batch:
                    pending.future._reject(exc)
                    self._failed += 1
                    self._in_flight -= 1
                    resolved += 1
                self._wake.notify_all()
            batch_span.set(error=type(exc).__name__).end()
            return resolved
        t_s0 = time.perf_counter()
        with self._lock:
            self._batches += 1
            self._simulated_dies += len(unique)
            self._coalesced_requests += len(batch)
            # order maps each unique key to its index, in unique's
            # order: no key is hashed twice.
            for key, index in order.items():
                self._cache_store(key, values[index])
            for pending in batch:
                pending.future._resolve(
                    SimResult(
                        key=pending.key,
                        values=self._select(
                            values[order[pending.key]], pending.request
                        ),
                        cached=False,
                        batch_size=len(unique),
                    )
                )
                self._completed += 1
                self._in_flight -= 1
                resolved += 1
            # Backpressured submitters (run()) wait for drained room.
            self._wake.notify_all()
        t_s1 = time.perf_counter()
        self._h_phase["scatter"].observe(t_s1 - t_s0)
        if batch_span is not NULL_SPAN:
            batch_span.child("service.scatter", start_s=t_s0).end(
                end_s=t_s1
            )
        batch_span.end(end_s=t_s1)
        return resolved

    def _assemble_batch(
        self,
    ) -> Tuple[
        int,
        List[_Pending],
        Dict[str, int],
        List[SimRequest],
        Optional[float],
    ]:
        """Shed expired work and pick the next micro-batch (caller
        holds the lock).

        One pass over the weighted-round-robin dequeue order: every
        *expired* request is shed first — before batch assembly and
        deadline computation, so a request that died in the queue can
        never drag ``min(limits)`` into the past and poison the whole
        coalesced batch's retry budget.  The first live request picks
        the coalescing group; non-members and max-batch overflow are
        re-queued in dequeue order.

        Returns ``(shed_count, batch, order, unique, deadline)`` where
        ``deadline`` (resilience only) is strictly in the future.
        """
        now = time.monotonic()
        batch: List[_Pending] = []
        order: Dict[str, int] = {}
        unique: List[SimRequest] = []
        group: Optional[Tuple[object, ...]] = None
        shed = 0
        for pending in self._drain_scheduling_order():
            deadline_s = pending.request.deadline_s
            if (
                deadline_s is not None
                and pending.submitted_at + deadline_s <= now
            ):
                pending.future._reject(
                    DeadlineExceeded(
                        f"request waited "
                        f"{now - pending.submitted_at:.3f}s, deadline "
                        f"was {deadline_s:.3f}s"
                    )
                )
                self._shed += 1
                shed += 1
                if pending.span is not None:
                    # Rare path; the sampled-export write under the
                    # lock is acceptable for shed requests.
                    pending.span.set(outcome="shed")
                    pending.span.end()
                continue
            if group is None:
                group = pending.request.group_key()
            if pending.request.group_key() != group:
                self._enqueue(pending)
                continue
            if (
                pending.key not in order
                and len(unique) >= self.config.max_batch_dies
            ):
                self._enqueue(pending)
                continue
            if pending.key not in order:
                order[pending.key] = len(unique)
                unique.append(pending.request)
            batch.append(pending)
        deadline = None
        if self.config.resilience is not None:
            limits = [
                pending.submitted_at + pending.request.deadline_s
                for pending in batch
                if pending.request.deadline_s is not None
            ]
            if limits:
                deadline = min(limits)
        return shed, batch, order, unique, deadline

    @staticmethod
    def _select(
        values: Dict[str, Scalar], request: SimRequest
    ) -> Dict[str, Scalar]:
        if request.reducers is None:
            return dict(values)
        return {name: values[name] for name in request.reducers}

    # ------------------------------------------------------------------
    # Bulk convenience
    # ------------------------------------------------------------------
    def run(self, requests: Sequence[SimRequest]) -> List[SimResult]:
        """Submit a request list and drain to completion, in order.

        Backpressure-aware: when admission rejects, the service ticks
        (draining a micro-batch) — or, with the background coalescer
        running, waits for it to drain room — and the submit retries.
        Shed requests re-raise :class:`DeadlineExceeded` from their
        ``result()``.
        """
        futures: List[ServiceFuture] = []
        for request in requests:
            while True:
                try:
                    futures.append(self.submit(request))
                    break
                except AdmissionError:
                    if self._background_active():
                        with self._wake:
                            if self._depth >= self.config.max_queue_depth:
                                self._wake.wait(0.05)
                    elif self.tick() == 0:
                        raise
        if not self._background_active():
            while self.tick():
                pass
        return [future.result() for future in futures]

    # ------------------------------------------------------------------
    # The engine batch (coalescer work-horse AND parity reference)
    # ------------------------------------------------------------------
    def simulate_requests(
        self,
        requests: Sequence[SimRequest],
        *,
        deadline: Optional[float] = None,
        span=None,
    ) -> List[Dict[str, Scalar]]:
        """Run a homogeneous request list as **one** engine batch.

        Every request must share a :meth:`SimRequest.group_key`.
        Returns one reducer dict per request, in order.  This is the
        path the coalescer uses per tick — and, called with the full
        request list, the standalone-batch reference the coalescing
        parity tests compare every partition against.

        ``deadline`` (absolute ``time.monotonic()`` instant) bounds the
        resilience retry loop: a backoff sleep that would overrun the
        oldest waiting request's deadline fails fast instead.  Ignored
        without a :class:`ResiliencePolicy`.

        ``span`` is an optional parent :class:`~repro.obs.trace.Span`
        for the engine fan-out/run/merge child spans; it never touches
        the computation.
        """
        requests = list(requests)
        if not requests:
            return []
        t0 = time.perf_counter()
        first = requests[0]
        group = first.group_key()
        for request in requests[1:]:
            if request.group_key() != group:
                raise ValueError(
                    "requests in one batch must share a group_key"
                )
        from repro.engine.device_math import BatchDeviceSet
        from repro.engine.engine import BatchPopulation
        from repro.library import OperatingCondition

        n = len(requests)
        period = self.controller.system_cycle_period
        technologies = [
            self.library.technology_at(
                OperatingCondition(
                    corner=request.corner,
                    temperature_c=request.temperature_c,
                )
            )
            for request in requests
        ]
        devices = BatchDeviceSet.from_technologies(
            technologies,
            self.library.reference_delay_model.delay_constant,
            nmos_vth_shifts=np.array(
                [request.nmos_vth_shift for request in requests], dtype=float
            ),
            pmos_vth_shifts=np.array(
                [request.pmos_vth_shift for request in requests], dtype=float
            ),
        )
        population = BatchPopulation(
            load=self.library.ring_oscillator_load,
            load_devices=devices,
            expected_counts=self._calibration(first.temperature_c),
            temperature_c=first.temperature_c,
        )
        arrivals = np.stack(
            [
                request.workload.arrival_row(period, first.cycles)
                for request in requests
            ]
        )
        schedule = None
        if first.schedule_codes is not None:
            schedule = np.stack(
                [
                    np.asarray(request.schedule_codes, dtype=np.int64)
                    for request in requests
                ]
            )
        corrections = np.array(
            [request.initial_correction for request in requests],
            dtype=np.int64,
        )
        engine_kwargs = dict(
            compensation_enabled=first.compensation_enabled,
            feedback_mode=FeedbackMode[first.feedback.upper()],
            averaging_window=first.averaging_window,
            initial_correction=corrections,
            device_model=first.device_model,
        )
        lut = self._lut(first.sample_rate)
        prep = dict(
            group=group,
            n=n,
            first=first,
            population=population,
            corrections=corrections,
            arrivals=arrivals,
            schedule=schedule,
            engine_kwargs=engine_kwargs,
            lut=lut,
            t0=t0,
            span=span,
        )
        policy = self.config.resilience
        if policy is None:
            return self._execute_batch(self.config.execution, prep)
        return self._execute_resilient(policy, prep, deadline)

    def _execute_resilient(
        self,
        policy: ResiliencePolicy,
        prep: dict,
        deadline: Optional[float],
    ) -> List[Dict[str, Scalar]]:
        """Run one prepared batch under the resilience policy.

        Walks :data:`DEGRADATION_LADDER` from the configured mode down,
        skipping rungs whose circuit breaker is open; each rung gets
        ``max_retries`` retries with seeded-jitter backoff.  Every rung
        is bit-identical (the backend-equivalence invariant), so a
        degraded answer *is* the answer.
        """
        if self._backoff is None:
            self._backoff = BackoffSchedule(policy)
        injector = shared_injector()
        configured = self.config.execution
        last_exc: Optional[BaseException] = None
        for mode in DEGRADATION_LADDER[configured]:
            breaker = self._breakers.get(mode)
            if breaker is None:
                breaker = CircuitBreaker(
                    policy.breaker_threshold,
                    policy.breaker_cooldown_s,
                    on_trip=self._f_breaker_trips.labels(mode=mode).inc,
                )
                self._breakers[mode] = breaker
            if not breaker.allows(time.monotonic()):
                continue
            attempt = 0
            while True:
                try:
                    spec = (
                        injector.poll(
                            scope="service", command="run", executor=mode
                        )
                        if injector is not None
                        else None
                    )
                    if spec is not None:
                        if spec.kind == "slow":
                            time.sleep(spec.seconds)
                        else:
                            raise injected_error(None, spec.kind)
                    results = self._execute_batch(mode, prep)
                except Exception as exc:
                    last_exc = exc
                    breaker.record_failure(time.monotonic())
                    if attempt >= policy.max_retries:
                        break  # rung exhausted; descend the ladder
                    delay = self._backoff.delay(attempt, mode)
                    if (
                        deadline is not None
                        and time.monotonic() + delay > deadline
                    ):
                        # The backoff sleep would overrun the oldest
                        # waiting deadline; fail now so futures resolve
                        # before their callers' budgets do.
                        raise
                    self._m_retries.inc()
                    time.sleep(delay)
                    attempt += 1
                else:
                    breaker.record_success()
                    if mode != configured:
                        self._m_degraded.inc()
                    return results
        if last_exc is not None:
            raise last_exc
        raise RuntimeError(
            "no execution mode available (all circuit breakers open)"
        )

    def _execute_batch(
        self, mode: str, prep: dict
    ) -> List[Dict[str, Scalar]]:
        """Acquire an engine for ``mode`` and run one prepared batch."""
        group = prep["group"]
        n = prep["n"]
        first = prep["first"]
        population = prep["population"]
        corrections = prep["corrections"]
        arrivals = prep["arrivals"]
        schedule = prep["schedule"]
        engine_kwargs = prep["engine_kwargs"]
        lut = prep["lut"]
        t0 = prep["t0"]
        span = prep.get("span") or NULL_SPAN
        from repro.engine.engine import BatchEngine
        from repro.engine.trace import StreamingTrace

        # Warm-engine acquisition: a batch whose (group_key, size,
        # mode) matches a resident engine swaps the new population in
        # with reset() — bit-identical to cold construction, but fleets
        # keep their pinned workers (and shared-memory attachments), so
        # the tick does zero re-fanout.  Mode is part of the key so a
        # degraded run never reuses the unhealthy backend's engine.
        is_fleet = mode != "direct"
        key = (group, n, mode)
        cached = self.config.engine_cache > 0
        entry = self._engines.get(key) if cached else None
        if entry is not None:
            self._engines.move_to_end(key)
            try:
                entry["engine"].reset(
                    population=population, initial_correction=corrections
                )
            except BaseException:
                self._engines.pop(key, None)
                self._close_engine(entry)
                raise
            acquired = "reuse"
        else:
            if is_fleet:
                from repro.engine.fleet import FleetConfig, FleetEngine

                # repro: allow[RL004] ownership moves to the warm-engine LRU below; SimulationService.close()/_close_engine retire it (and the eviction/except paths close it on failure)
                engine = FleetEngine(
                    population,
                    lut,
                    config=self.controller,
                    fleet=FleetConfig(
                        executor=mode,
                        workers=self.config.workers,
                        shard_size=self.config.shard_size,
                        telemetry="streaming",
                        stream_window=self.config.stream_window,
                        recovery=(
                            None
                            if self.config.resilience is None
                            else self.config.resilience.recovery()
                        ),
                    ),
                    **engine_kwargs,
                )
            else:
                engine = BatchEngine(
                    population, lut, config=self.controller, **engine_kwargs
                )
            entry = {"engine": engine, "fleet": is_fleet}
            acquired = "build"
            if cached:
                self._engines[key] = entry
                while len(self._engines) > self.config.engine_cache:
                    _, old = self._engines.popitem(last=False)
                    self._close_engine(old)

        engine = entry["engine"]
        self._m_engine_acq[acquired].inc()
        t1 = time.perf_counter()
        try:
            if is_fleet:
                sink = engine.run(
                    arrivals, first.cycles, scheduled_codes=schedule
                )
                totals = self._state_totals(engine.engines)
            else:
                sink = StreamingTrace(window=self.config.stream_window)
                engine.run(
                    arrivals,
                    first.cycles,
                    scheduled_codes=schedule,
                    sink=sink,
                )
                totals = self._state_totals([engine])
        except BaseException:
            # A failed run leaves half-advanced state; never reuse it.
            self._engines.pop(key, None)
            self._close_engine(entry)
            raise
        t2 = time.perf_counter()
        if not cached and is_fleet:
            engine.close()

        reducers = sink.die_reducers()
        results: List[Dict[str, Scalar]] = []
        for i in range(n):
            values: Dict[str, Scalar] = {}
            for name, caster in STATE_RESULT_FIELDS:
                values[name] = caster(totals[name][i])
            for name, caster in SINK_RESULT_FIELDS:
                values[name] = caster(reducers[name][i])
            results.append(values)
        t3 = time.perf_counter()
        self._h_phase["fanout"].observe(t1 - t0)
        self._h_phase["run"].observe(t2 - t1)
        self._h_phase["merge"].observe(t3 - t2)
        shard_runs: Dict[int, float] = {}
        roundtrips: Dict[int, float] = {}
        if is_fleet:
            timings = getattr(engine, "last_timings", None)
            if timings:
                shard_runs = timings.get("shard_run_s", {})
                roundtrips = timings.get("worker_roundtrip_s", {})
            for index in sorted(shard_runs):
                self._h_shard_run.observe(shard_runs[index])
            for worker in sorted(roundtrips):
                self._h_roundtrip.observe(roundtrips[worker])
        if span is not NULL_SPAN:
            span.child(
                "engine.fanout",
                attrs={"mode": mode, "engine": acquired},
                start_s=t0,
            ).end(end_s=t1)
            run_span = span.child(
                "engine.run", attrs={"mode": mode, "dies": n}, start_s=t1
            )
            for index in sorted(shard_runs):
                # Synthetic shard spans: the worker reports a duration,
                # not absolute instants, so the span is anchored at the
                # run start and flagged as reconstructed.
                run_span.child(
                    "engine.shard",
                    attrs={"shard": index, "synthetic": True},
                    start_s=t1,
                ).end(end_s=t1 + shard_runs[index])
            run_span.end(end_s=t2)
            span.child("service.merge", start_s=t2).end(end_s=t3)
        return results

    @staticmethod
    def _state_totals(engines) -> Dict[str, np.ndarray]:
        return {
            name: np.concatenate(
                [getattr(engine.state, name) for engine in engines]
            )
            for name, _ in STATE_RESULT_FIELDS
        }

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def _refresh_observed(self) -> None:
        """Bridge lock-guarded plain-int state into the registry.

        Caller holds ``self._lock``; every source below is mutated only
        under that same lock, so the set_total values form one coherent
        cut (this is what makes ``/stats`` reads un-tearable)."""
        self._m_requests["submitted"].set_total(self._submitted)
        self._m_requests["completed"].set_total(self._completed)
        self._m_requests["rejected"].set_total(self._rejected)
        self._m_requests["shed"].set_total(self._shed)
        self._m_requests["failed"].set_total(self._failed)
        self._m_batches.set_total(self._batches)
        self._m_dies.set_total(self._simulated_dies)
        self._m_coalesced.set_total(self._coalesced_requests)
        self._g_in_flight.set(float(self._in_flight))
        self._g_queue_depth.set(float(self._depth))
        self._g_tenants.set(float(len(self._queues)))
        self._g_uptime.set(time.monotonic() - self._started)
        self._f_tenant_depth.clear_children()
        for tenant in sorted(self._queues):
            buckets = self._queues[tenant]
            count = 0
            for priority in sorted(buckets):
                count += len(buckets[priority])
            self._f_tenant_depth.labels(tenant=tenant).set(float(count))
        cache = self.cache
        self._m_cache_lookups.labels(tier="memory").set_total(cache.lookups)
        self._m_cache_hits.labels(tier="memory").set_total(cache.hits)
        self._m_cache_misses.labels(tier="memory").set_total(cache.misses)
        self._m_cache_evictions.labels(tier="memory").set_total(
            cache.evictions
        )
        self._g_cache_entries.labels(tier="memory").set(float(len(cache)))
        self._g_cache_bytes.labels(tier="memory").set(
            float(cache.current_bytes)
        )
        corruptions = self._cache_corruptions
        if self._persist is not None:
            persist = self._persist
            corruptions += persist.corruptions
            self._m_cache_lookups.labels(tier="disk").set_total(
                persist.lookups
            )
            self._m_cache_hits.labels(tier="disk").set_total(persist.hits)
            self._m_cache_misses.labels(tier="disk").set_total(
                persist.misses
            )
            self._m_cache_evictions.labels(tier="disk").set_total(
                persist.evictions
            )
            self._g_cache_entries.labels(tier="disk").set(
                float(len(persist))
            )
            self._g_cache_bytes.labels(tier="disk").set(
                float(persist.current_bytes)
            )
        self._m_corruptions.set_total(corruptions)
        self._m_persist_hits.set_total(self._persist_hits)
        self._m_persist_misses.set_total(self._persist_misses)

    def metrics_snapshot(self):
        """Return a point-in-time :class:`RegistrySnapshot`.

        Bridged counters are refreshed under the service lock first, so
        cross-series invariants (``hits + misses == lookups``,
        ``submitted == completed + shed + failed + queue_depth +
        in_flight``) hold inside every snapshot — no torn reads.
        """
        with self._lock:
            self._refresh_observed()
        return self.metrics.snapshot()

    def stats(self) -> ServiceStats:
        """Return a telemetry snapshot of the service so far.

        Built entirely from one :meth:`metrics_snapshot`, so every
        field belongs to the same consistent cut of the counters.
        """
        snap = self.metrics_snapshot()
        value = snap.value

        def outcome(name: str) -> int:
            return int(value("repro_service_requests_total", outcome=name))

        phase_sum = {}
        for phase in ("fanout", "run", "merge"):
            data = snap.histogram(
                "repro_service_phase_seconds", phase=phase
            )
            phase_sum[phase] = 0.0 if data is None else data.sum
        return ServiceStats(
            submitted=outcome("submitted"),
            completed=outcome("completed"),
            rejected=outcome("rejected"),
            shed=outcome("shed"),
            failed=outcome("failed"),
            cache_hits=int(value("repro_cache_hits_total", tier="memory")),
            cache_misses=int(
                value("repro_cache_misses_total", tier="memory")
            ),
            batches=int(value("repro_service_batches_total")),
            simulated_dies=int(
                value("repro_service_simulated_dies_total")
            ),
            coalesced_requests=int(
                value("repro_service_coalesced_requests_total")
            ),
            queue_depth=int(value("repro_service_queue_depth")),
            cache_entries=int(value("repro_cache_entries", tier="memory")),
            cache_bytes=int(value("repro_cache_bytes", tier="memory")),
            elapsed_s=value("repro_service_uptime_seconds"),
            engine_builds=int(
                value(
                    "repro_service_engine_acquisitions_total", kind="build"
                )
            ),
            engine_reuses=int(
                value(
                    "repro_service_engine_acquisitions_total", kind="reuse"
                )
            ),
            fanout_s=phase_sum["fanout"],
            dispatch_s=phase_sum["run"],
            merge_s=phase_sum["merge"],
            retries=int(value("repro_service_retries_total")),
            degraded_runs=int(value("repro_service_degraded_runs_total")),
            breaker_trips=int(
                snap.total("repro_service_breaker_trips_total")
            ),
            cache_corruptions=int(
                value("repro_cache_corruptions_total")
            ),
            persist_hits=int(value("repro_service_persist_hits_total")),
            persist_misses=int(
                value("repro_service_persist_misses_total")
            ),
            persist_entries=int(value("repro_cache_entries", tier="disk")),
            persist_bytes=int(value("repro_cache_bytes", tier="disk")),
            tenants=int(value("repro_service_tenants_pending")),
            in_flight=int(value("repro_service_in_flight")),
            cache_lookups=int(
                value("repro_cache_lookups_total", tier="memory")
            ),
        )
