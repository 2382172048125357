"""Sharded fleet execution: one population, pluggable executor backends.

:class:`FleetEngine` splits a :class:`~repro.engine.engine.BatchEngine`
population into contiguous die shards and advances the shards on an
executor backend chosen by :attr:`FleetConfig.executor`:

* ``"serial"`` (default) — shards run one after another in the calling
  thread: the in-process baseline, with nothing to start or close, and
  what the process backend must match bit for bit,
* ``"process"`` — the parallel backend: resident worker *processes*
  with the population state in shared memory
  (:mod:`repro.engine.procfleet`).  Separate interpreters sidestep the
  GIL, on which the engine's many small per-cycle numpy calls would
  otherwise serialise.

Process workers are **resident**: they start on the first run, stay
pinned to a fixed shard subset, and every :meth:`FleetEngine.run` costs
only one lightweight command/ack round-trip per worker — no pool
construction, no state re-fan-out.  Sequential runs continue the
fleet's state exactly, so a caller that wants checkpoints splits a
horizon over several runs, and :meth:`FleetEngine.reset` returns a live
fleet to its cold-construction state (optionally swapping in a new
same-size population) so one fleet serves many logically independent
runs — bit-identically to building a fresh fleet each time.

Because every per-die quantity the engine computes is elementwise
across dies — no cross-die reduction anywhere in the cycle loop — a
shard simulates its dies bit-identically to the same dies inside one
big batch, and merging the shard results in shard order reproduces the
single-shard run **bit for bit** on every backend.  That determinism is
pinned by ``tests/engine/test_fleet.py``, fuzzed across backends by
``tests/engine/test_differential_fuzz.py``, and re-asserted by the
fleet benchmarks.

Telemetry per shard is a :class:`~repro.engine.trace.TraceSink` chosen
by :attr:`FleetConfig.telemetry`:

* ``"dense"`` — per-shard :class:`DenseTrace`, merged into one
  :class:`~repro.engine.trace.BatchTrace` (today's behaviour),
* ``"streaming"`` — per-shard :class:`StreamingTrace` ring buffers +
  online reducers, merged per die; memory stays bounded however long
  the run is,
* ``"null"`` — no telemetry; only the engine state totals survive.

Every run gets fresh sinks: when a horizon is split over several runs,
each run's trace or reducers cover that run only, while the state
totals (:meth:`FleetEngine.total_energy`, ...) cover the whole horizon.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import ControllerConfig
from repro.engine.engine import (
    ArrivalsLike,
    BatchEngine,
    BatchPopulation,
    expand_schedule,
    normalise_arrivals,
)
from repro.engine.trace import (
    BatchTrace,
    StreamingTrace,
    TraceSink,
    make_sink,
)
from repro.faults import (
    FaultInjector,
    RecoveryPolicy,
    injected_error,
    shared_injector,
)

TELEMETRY_MODES = ("dense", "streaming", "null")

EXECUTORS = ("serial", "process")
"""Executor backends a fleet can run its shards on."""


@dataclass(frozen=True)
class FleetConfig:
    """How a fleet run is sharded, executed and recorded."""

    shard_size: Optional[int] = None
    """Dies per shard; ``None`` splits the population evenly across the
    resolved worker count."""

    workers: Optional[int] = None
    """Workers; ``None`` uses the CPUs actually available to this
    process (CPU-affinity aware, see :meth:`resolved_workers`)."""

    telemetry: str = "dense"
    """Telemetry mode: ``"dense"``, ``"streaming"`` or ``"null"``."""

    stream_window: int = 64
    """Ring-buffer rows kept per channel in streaming mode."""

    executor: str = "serial"
    """Executor backend: ``"serial"`` or ``"process"``."""

    recovery: Optional[RecoveryPolicy] = None
    """Worker supervision and recovery (:mod:`repro.faults`).  ``None``
    keeps every backend fail-fast (one failed shard kills the run); a
    :class:`~repro.faults.RecoveryPolicy` snapshots the state at the
    start of each run and arms dead/hung-worker detection, respawn and
    replay of the failed run command on the process backend, and
    snapshot-and-retry on the serial backend — recovered runs stay
    bit-identical to fault-free ones."""

    def __post_init__(self) -> None:
        if self.shard_size is not None and self.shard_size <= 0:
            raise ValueError("shard_size must be positive")
        if self.workers is not None and self.workers <= 0:
            raise ValueError("workers must be positive")
        if self.telemetry not in TELEMETRY_MODES:
            raise ValueError(
                f"telemetry must be one of {TELEMETRY_MODES}, "
                f"got {self.telemetry!r}"
            )
        if self.stream_window <= 0:
            raise ValueError("stream_window must be positive")
        if self.executor not in EXECUTORS:
            raise ValueError(
                f"executor must be one of {EXECUTORS}, "
                f"got {self.executor!r}"
            )
        if self.recovery is not None and not isinstance(
            self.recovery, RecoveryPolicy
        ):
            raise ValueError(
                "recovery must be a repro.faults.RecoveryPolicy or None"
            )

    def resolved_workers(self) -> int:
        """Return the effective worker count.

        Containers and batch schedulers routinely pin a process to a
        CPU subset (cgroup quotas, ``taskset``); ``os.cpu_count()``
        reports the whole machine and would oversubscribe workers
        there, so the scheduling affinity is consulted first and the
        raw CPU count is only the fallback for platforms without
        ``sched_getaffinity``.
        """
        if self.workers is not None:
            return self.workers
        affinity = getattr(os, "sched_getaffinity", None)
        if affinity is not None:
            try:
                available = len(affinity(0))
                if available > 0:
                    return available
            except OSError:
                pass
        return os.cpu_count() or 1


class FleetEngine:
    """Run one controller population as a sharded fleet.

    Accepts the same constructor arguments as
    :class:`~repro.engine.engine.BatchEngine` (population, LUT, config
    and keyword options) plus a :class:`FleetConfig`.  Shard engines are
    built once and keep their state across sequential :meth:`run` calls,
    mirroring ``BatchEngine`` reuse semantics.
    """

    def __init__(
        self,
        population: BatchPopulation,
        lut,
        config: Optional[ControllerConfig] = None,
        fleet: Optional[FleetConfig] = None,
        **engine_kwargs,
    ) -> None:
        # Lifecycle flags first: __init__ can fail partway (bad LUT,
        # invalid executor/kernel combination, backend construction
        # errors) and close() — called directly or via __del__ — must
        # be safe on such a half-built engine.
        self._closed = False
        self._proc = None
        # Per-run attribution for the observability layer: populated by
        # run() with {"shard_run_s": {shard: seconds},
        # "worker_roundtrip_s": {worker: seconds}} — engine-run seconds
        # per shard, dispatch→ack seconds per process worker (none on
        # the serial backend).  Pure observation: nothing reads it back
        # into the simulation.
        self.last_timings: Dict[str, Dict[int, float]] = {
            "shard_run_s": {},
            "worker_roundtrip_s": {},
        }
        self.population = population
        self.fleet = fleet or FleetConfig()
        n = population.n
        workers = self.fleet.resolved_workers()
        shard_size = self.fleet.shard_size
        if shard_size is None:
            shard_size = -(-n // workers)  # ceil division
        shard_size = min(shard_size, n)
        self.shard_slices: Tuple[slice, ...] = tuple(
            slice(lo, min(lo + shard_size, n))
            for lo in range(0, n, shard_size)
        )
        initial_correction = engine_kwargs.pop("initial_correction", None)
        # Under the tabulated device model the response tables are built
        # once for the whole population and sliced per shard (column
        # views share the table memory), so the one-time build cost does
        # not multiply with the worker count.
        shared_tables = engine_kwargs.pop("response_tables", None)
        if (
            engine_kwargs.get("device_model") == "tabulated"
            and shared_tables is None
        ):
            from repro.engine.response_tables import ResponseTables

            shared_tables = ResponseTables.from_population(
                population,
                config or ControllerConfig(),
                nominal_throughput=engine_kwargs.get("nominal_throughput"),
                points=engine_kwargs.get("table_points"),
            )
        self.engines = []
        for index in self.shard_slices:
            kwargs = dict(engine_kwargs)
            if initial_correction is not None:
                if np.ndim(initial_correction) > 0:
                    kwargs["initial_correction"] = np.asarray(
                        initial_correction
                    )[index]
                else:
                    kwargs["initial_correction"] = initial_correction
            if shared_tables is not None:
                kwargs["response_tables"] = shared_tables.shard(index)
            self.engines.append(
                BatchEngine(
                    population.shard(index), lut, config=config, **kwargs
                )
            )
        self.config = self.engines[0].config
        # Kept for reset(): rebuilding shared response tables for a
        # replacement population needs the residual engine kwargs.
        self._engine_kwargs = dict(engine_kwargs)
        if self.fleet.executor == "process":
            if self.engines[0]._log_corrections:
                # The sparse correction log is a Python list accumulated
                # inside each worker interpreter; it is a scalar-wrapper
                # facility, not fleet telemetry, and is never shipped
                # back — reject rather than silently return empty logs.
                raise ValueError(
                    "executor='process' does not support "
                    "log_corrections=True (the log stays in worker "
                    "memory); use the serial executor"
                )
            from repro.engine.procfleet import ProcessFleetBackend

            self._proc = ProcessFleetBackend(
                population,
                self.config,
                self.engines,
                self.shard_slices,
                engine_kwargs=dict(engine_kwargs),
                shared_tables=shared_tables,
                recovery=self.fleet.recovery,
            )

    @property
    def n(self) -> int:
        """Return the fleet population size."""
        return self.population.n

    @property
    def num_shards(self) -> int:
        """Return how many die shards the fleet runs."""
        return len(self.engines)

    # ------------------------------------------------------------------
    # Lifecycle (only the process backend owns external resources)
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release backend resources and retire the engine.

        Closing marks the fleet finished on every backend (further
        ``run`` calls raise; gather methods stay usable).  Only the
        process executor holds external resources — its worker pool is
        shut down and every shared segment unlinked, with the final
        state copied out first.  Idempotent, and safe on engines whose
        construction failed partway (or never ran): a missing attribute
        means there is nothing to release.
        """
        if getattr(self, "_closed", True):
            return
        self._closed = True
        proc = getattr(self, "_proc", None)
        if proc is not None:
            proc.close()

    def shared_block_names(self) -> Tuple[str, ...]:
        """Return the shared-memory segment names (process executor)."""
        if self._proc is None:
            return ()
        return self._proc.block_names

    def __enter__(self) -> "FleetEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC-order dependent
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------
    # Telemetry plumbing
    # ------------------------------------------------------------------
    def _make_sink(self) -> TraceSink:
        return make_sink(self.fleet.telemetry, self.fleet.stream_window)

    def _merge(self, results: Sequence):
        mode = self.fleet.telemetry
        if mode == "dense":
            return BatchTrace.concatenate_dies(results)
        if mode == "streaming":
            return StreamingTrace.merge_dies(results)
        return None

    # ------------------------------------------------------------------
    # Run loops
    # ------------------------------------------------------------------
    def _prepare(
        self,
        arrivals: ArrivalsLike,
        system_cycles: int,
        scheduled_codes: Optional[np.ndarray],
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Normalise arrivals/schedule once for the whole population."""
        if system_cycles <= 0:
            raise ValueError("system_cycles must be positive")
        if self._closed:
            raise RuntimeError("fleet engine is closed")
        matrix = normalise_arrivals(
            arrivals,
            system_cycles,
            self.n,
            self.config.system_cycle_period,
            start_cycle=self.engines[0].state.cycles,
        )
        schedule = None
        if scheduled_codes is not None:
            schedule = np.asarray(scheduled_codes, dtype=np.int64)
            if schedule.ndim == 1:
                schedule = np.broadcast_to(
                    schedule, (self.n, system_cycles)
                )
            if schedule.shape != (self.n, system_cycles):
                raise ValueError("scheduled_codes shape mismatch")
        return matrix, schedule

    def _poll_shard_fault(
        self, injector: Optional[FaultInjector], index: int
    ) -> None:
        """Fire any armed fleet-scope fault before a shard command.

        Serial semantics: ``slow`` sleeps then proceeds; ``crash`` and
        ``hang`` degrade to a raise, because the shard runs in the
        calling thread, which cannot be killed or exited without taking
        the whole interpreter down (the process backend honors them
        literally).  Fires before the shard state is touched, so
        recovery's snapshot restore and re-run stay bit-identical.
        """
        if injector is None:
            return
        spec = injector.poll(
            scope="fleet",
            shard=index,
            cycle=int(self.engines[index].state.cycles),
            command="run",
            executor=self.fleet.executor,
        )
        if spec is None:
            return
        if spec.kind == "slow":
            time.sleep(spec.seconds)
            return
        raise injected_error(index, spec.kind)

    @staticmethod
    def _recover_shards(
        errors: Dict[int, Exception],
        recovery: RecoveryPolicy,
        rerun: Callable[[int], None],
    ) -> None:
        """Re-attempt failed shards inline until done or out of budget.

        ``rerun`` must restore the shard from the run's snapshot and
        run it again; each re-attempt counts against
        ``recovery.max_restarts``.
        """
        attempts = 0
        while errors:
            if attempts + len(errors) > recovery.max_restarts:
                raise errors[min(errors)]
            attempts += len(errors)
            failed = sorted(errors)
            errors.clear()
            for index in failed:
                try:
                    rerun(index)
                except Exception as exc:
                    errors[index] = exc

    def _reset_timings(self) -> None:
        self.last_timings = {
            "shard_run_s": {},
            "worker_roundtrip_s": {},
        }

    def _adopt_proc_timings(self) -> None:
        """Copy the process backend's per-run timing attribution (shipped
        in its command acks — no extra IPC) into :attr:`last_timings`."""
        self.last_timings = {
            "shard_run_s": dict(self._proc.last_shard_runs),
            "worker_roundtrip_s": dict(self._proc.last_roundtrips),
        }

    def run(
        self,
        arrivals: ArrivalsLike,
        system_cycles: int,
        scheduled_codes: Optional[np.ndarray] = None,
    ):
        """Run all shards for ``system_cycles`` cycles and merge results.

        Accepts the same arrivals/schedule forms as
        :meth:`BatchEngine.run`.  Arrivals are normalised **once** for
        the full population and row-sliced per shard (an arrival
        callable is evaluated exactly once), so the sharded run consumes
        inputs identical to a single-shard run; results are merged in
        shard order, making the output independent of the executor
        backend.

        One run is one command round per process worker and, with a
        recovery policy, one state snapshot: a failed shard is restored
        from it and run again.  Sequential runs continue the state
        exactly, so splitting a horizon over runs gives finer recovery
        checkpoints; each run's sinks are fresh (see the module
        docstring).
        """
        matrix, schedule = self._prepare(
            arrivals, system_cycles, scheduled_codes
        )
        self._reset_timings()
        if self._proc is not None:
            # Worker processes mutate the shared state in place; a
            # failed run leaves it half-advanced, so tear the fleet
            # down (unlinking the shared segments) rather than let a
            # corrupt population be run again.
            try:
                results = self._proc.run(
                    matrix,
                    schedule,
                    self.fleet.telemetry,
                    self.fleet.stream_window,
                    min(self.fleet.resolved_workers(), self.num_shards),
                )
            except Exception:
                self.close()
                raise
            self._adopt_proc_timings()
            return self._merge(results)
        recovery = self.fleet.recovery
        injector = shared_injector() if recovery is not None else None
        snapshots = (
            None
            if recovery is None
            else [engine.state.snapshot() for engine in self.engines]
        )
        results: list = [None] * self.num_shards
        run_seconds = self.last_timings["shard_run_s"]

        def run_one(index: int) -> None:
            self._poll_shard_fault(injector, index)
            where = self.shard_slices[index]
            t_run = time.perf_counter()
            results[index] = self.engines[index].run(
                matrix[where],
                system_cycles,
                scheduled_codes=(
                    None if schedule is None else schedule[where]
                ),
                sink=self._make_sink(),
            )
            run_seconds[index] = time.perf_counter() - t_run

        def rerun(index: int) -> None:
            # The re-run consumes inputs identical to the original, so
            # the recovered shard is bit-identical.
            self.engines[index].state.restore(snapshots[index])
            run_one(index)

        errors: Dict[int, Exception] = {}
        for index in range(self.num_shards):
            try:
                run_one(index)
            except Exception as exc:
                # Captured (not raised) so the remaining shards still
                # run; fail-fast mode keeps the propagate-immediately
                # behaviour.
                if recovery is None:
                    raise
                errors[index] = exc
        self._recover_shards(errors, recovery, rerun)
        return self._merge(results)

    def reset(
        self,
        population: Optional[BatchPopulation] = None,
        initial_correction=None,
    ) -> None:
        """Return the live fleet to its cold-construction state.

        The fleet-level face of :meth:`BatchEngine.reset`: after
        ``reset()`` the next run is bit-identical to a run on a freshly
        built fleet, while workers stay resident and shard pinning
        (including shared-memory attachments on the process backend)
        survives.  ``population`` swaps in new same-size silicon —
        shared response tables are rebuilt once and re-sharded, device
        and table arrays are refreshed **in place** inside the shared
        blocks, and live process workers are re-pointed with one
        ``reset`` command.  A pure state reset (``population=None``)
        costs no worker traffic at all.
        """
        if self._closed:
            raise RuntimeError("fleet engine is closed")
        shared_tables = None
        if population is not None:
            if population.n != self.n:
                raise ValueError(
                    f"replacement population covers {population.n} dies, "
                    f"fleet simulates {self.n}"
                )
            if self._engine_kwargs.get("device_model") == "tabulated":
                from repro.engine.response_tables import ResponseTables

                shared_tables = ResponseTables.from_population(
                    population,
                    self.config,
                    nominal_throughput=self._engine_kwargs.get(
                        "nominal_throughput"
                    ),
                    points=self._engine_kwargs.get("table_points"),
                )
            self.population = population
        for engine, where in zip(self.engines, self.shard_slices):
            correction = initial_correction
            if correction is not None and np.ndim(correction) > 0:
                correction = np.asarray(correction)[where]
            engine.reset(
                population=(
                    None if population is None else population.shard(where)
                ),
                initial_correction=correction,
                response_tables=(
                    None
                    if shared_tables is None
                    else shared_tables.shard(where)
                ),
            )
        if self._proc is not None and population is not None:
            try:
                self._proc.reset(population, shared_tables)
            except Exception:
                self.close()
                raise

    def run_schedule(
        self,
        schedule: Sequence[Tuple[int, int]],
        arrivals: ArrivalsLike = None,
    ):
        """Drive an explicit ``(code, cycles)`` schedule on every die."""
        codes = expand_schedule(schedule)
        return self.run(arrivals, len(codes), scheduled_codes=codes)

    # ------------------------------------------------------------------
    # Fleet-level state reductions (sink-independent run totals)
    # ------------------------------------------------------------------
    def _gather(self, field: str) -> np.ndarray:
        return np.concatenate(
            [getattr(engine.state, field) for engine in self.engines]
        )

    def total_energy(self) -> np.ndarray:
        """Return the accumulated load energy per die (``(N,)``)."""
        return self._gather("energy_total")

    def total_operations(self) -> np.ndarray:
        """Return the completed operations per die (``(N,)``)."""
        return self._gather("operations_total")

    def total_drops(self) -> np.ndarray:
        """Return the FIFO-overflow drops per die (``(N,)``)."""
        return self._gather("drops_total")

    def final_correction(self) -> np.ndarray:
        """Return the present LUT correction per die (``(N,)``)."""
        return self._gather("lut_correction")
