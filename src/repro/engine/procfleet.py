"""Process-based fleet execution over shared-memory population state.

The fleet's parallel backend.  Per-cycle engine cost is dominated by
numpy *dispatch* (the Python-side ufunc bookkeeping), which holds the
GIL, so shards only overlap in separate interpreters:
``FleetConfig(executor="process")`` runs every shard in a **resident
pinned worker process** driven over a command pipe, while the serial
backend (:mod:`repro.engine.fleet`) stays the in-process baseline.

Design:

* **Shared-memory state.**  The full population's :class:`BatchState`
  arrays live in one :class:`multiprocessing.shared_memory.SharedMemory`
  block (:class:`SharedArrayBlock`).  Workers attach zero-copy row-shard
  views (``state.shard_view``), advance them in place, and the parent's
  gather methods read the same physical memory — no state is ever
  pickled in either direction.  The :class:`BatchPopulation` device
  arrays (and, under ``device_model="tabulated"``, the response/TDC
  tables) sit in further read-only blocks that every worker attaches
  once.
* **Pickling-free spec.**  A block travels to workers as a
  :class:`SharedBlockSpec` — the segment name plus ``(name, dtype,
  shape, offset)`` per array — so attachment is pure ``np.ndarray``
  construction over the mapped buffer.
* **Resident pinned workers.**  Workers start once (on the first run)
  and stay pinned to a strided shard subset for the fleet's lifetime:
  worker ``w`` owns shards ``w, w+W, w+2W, ...`` and keeps its block
  attachments, rebuilt population/table views, shard engines and
  worker-local scratch across calls.  Each call is one command message
  (``("run", RunOrder)``) and one ack per worker over a
  :func:`multiprocessing.Pipe` — no pool construction, no per-run
  re-fan-out of state.  Every run is chunked dispatch
  (:meth:`ProcessFleetBackend.run_chunked`; a plain run is one chunk),
  which keeps streaming sinks *inside* the workers between chunks
  (``sink_mode`` keep/finish) so only the final chunk ships results.
* **Determinism.**  Arrivals are normalised once in the parent (arrival
  processes and Poisson matrices are drawn there, with per-die
  ``SeedSequence.spawn`` streams, so workers need no RNG), shards are
  row slices, the engine's cycle loop is elementwise across dies, and
  results are merged in shard order — a process run is **bit-identical**
  to the serial backend.
* **Lifecycle.**  The parent owns every segment: blocks are unlinked on
  :meth:`ProcessFleetBackend.close`, on construction failure, and on a
  worker crash mid-run (the failed run closes the fleet), so no
  ``/dev/shm`` segment outlives the fleet — pinned by
  ``tests/engine/test_procfleet.py``.  Shared scalars
  (``cycles``/``history_filled``/``history_pos``) travel by value per
  command and the parent re-adopts them after each run, which is what
  lets sequential ``run()`` calls continue exactly.

* **Fault injection & recovery.**  Structured fault plans
  (:mod:`repro.faults`) travel inside the worker payload: each worker
  builds a :class:`~repro.faults.FaultInjector` and polls it per shard
  command, so crash/raise/hang/slow/ack-corruption/attach faults fire
  deterministically at a shard:cycle point under both the fork and
  spawn start methods.  With a :class:`~repro.faults.RecoveryPolicy`
  configured (``FleetConfig(recovery=...)``), the parent supervises the
  command pipes (poll-with-timeout heartbeat), detects dead/hung/corrupt
  workers, respawns them pinned to the same shards, rolls the failed
  shards back to the epoch snapshot and replays the epoch's recorded
  commands — the recovered run is **bit-identical** to a fault-free
  one (pinned by the chaos axis of ``test_differential_fuzz.py``).
  Without a policy the backend stays fail-fast.
"""

from __future__ import annotations

import os
import sys
import time
import uuid
from dataclasses import dataclass, fields as dataclass_fields, replace
from typing import Dict, List, Optional, Sequence, Tuple

import multiprocessing
import numpy as np
from multiprocessing import shared_memory

from repro.engine.device_math import (
    BatchDeviceSet,
    PolarityArrays,
    TemperatureArrays,
)
from repro.engine.state import BatchState, STATE_SCALAR_FIELDS
from repro.faults import (
    FaultInjector,
    FaultPlan,
    RecoveryPolicy,
    active_plan,
    injected_error,
)

_ALIGNMENT = 64
"""Byte alignment of every array inside a shared block (cache line)."""

START_METHOD_ENV = "REPRO_PROCFLEET_START_METHOD"
"""Override the multiprocessing start method (``fork``/``spawn``/
``forkserver``).  The default is ``fork`` on Linux (fast, payload
inherited) and the platform default elsewhere; the spawn parity test
uses this to exercise the pickled-payload path everywhere."""


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach an existing segment without adopting its lifecycle.

    The parent owns creation and unlinking; a worker (or a second
    attachment in the parent) must not register the segment with its
    resource tracker, or the tracker would unlink it — and warn about
    "leaked" memory — when that process exits.  Python >= 3.13 exposes
    ``track=False``; older versions need the unregister workaround.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        # Python < 3.13: suppress the tracker registration entirely.
        # Under the fork start method every process talks to the same
        # tracker, so attach-then-unregister would strip the *parent's*
        # registration and leave the tracker confused at unlink time.
        from multiprocessing import resource_tracker

        original = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


@dataclass(frozen=True)
class SharedArraySpec:
    """Location of one array inside a shared block."""

    name: str
    dtype: str
    shape: Tuple[int, ...]
    offset: int


@dataclass(frozen=True)
class SharedBlockSpec:
    """Pickling-free description of a shared block: name + array layout.

    This is all a worker needs to attach: no numpy data crosses the
    process boundary, only this spec.
    """

    segment_name: str
    nbytes: int
    arrays: Tuple[SharedArraySpec, ...]


class SharedArrayBlock:
    """One shared-memory segment holding a set of named numpy arrays.

    ``create`` copies the given arrays into a fresh segment (the only
    copy the process backend ever performs); ``attach`` maps an existing
    segment from its spec and exposes zero-copy views.  The creating
    side owns the segment and unlinks it on :meth:`close`; attachments
    only unmap.
    """

    def __init__(
        self,
        segment: shared_memory.SharedMemory,
        spec: SharedBlockSpec,
        views: Dict[str, np.ndarray],
        owner: bool,
    ) -> None:
        self._segment = segment
        self.spec = spec
        self._views: Optional[Dict[str, np.ndarray]] = views
        self._owner = owner
        self._closed = False

    @classmethod
    def create(cls, arrays: Dict[str, np.ndarray]) -> "SharedArrayBlock":
        """Allocate a segment sized for ``arrays`` and copy them in."""
        if not arrays:
            raise ValueError("a shared block needs at least one array")
        specs = []
        offset = 0
        for name, array in arrays.items():
            offset = -(-offset // _ALIGNMENT) * _ALIGNMENT
            specs.append(
                SharedArraySpec(
                    name=name,
                    dtype=str(array.dtype),
                    shape=tuple(int(s) for s in array.shape),
                    offset=offset,
                )
            )
            offset += array.nbytes
        segment_name = f"repro-fleet-{os.getpid()}-{uuid.uuid4().hex[:12]}"
        segment = shared_memory.SharedMemory(
            create=True, size=max(offset, 1), name=segment_name
        )
        spec = SharedBlockSpec(
            segment_name=segment.name,
            nbytes=max(offset, 1),
            arrays=tuple(specs),
        )
        views = _map_views(segment, spec)
        for array_spec in spec.arrays:
            views[array_spec.name][...] = arrays[array_spec.name]
        return cls(segment, spec, views, owner=True)

    @classmethod
    def attach(cls, spec: SharedBlockSpec) -> "SharedArrayBlock":
        """Map an existing segment from its spec (zero-copy views)."""
        segment = _attach_segment(spec.segment_name)
        if segment.size < spec.nbytes:
            # The OS may round a segment *up* to page size, never down;
            # a smaller mapping means the spec and segment diverged.
            segment.close()
            raise ValueError(
                f"shared segment {spec.segment_name!r} holds "
                f"{segment.size} bytes but the spec describes "
                f"{spec.nbytes}"
            )
        return cls(segment, spec, _map_views(segment, spec), owner=False)

    @property
    def name(self) -> str:
        """Return the shared segment's name."""
        return self.spec.segment_name

    def view(self, name: str) -> np.ndarray:
        """Return the named array (a live view into the segment)."""
        if self._views is None:
            raise RuntimeError("shared block is closed")
        return self._views[name]

    def views(self) -> Dict[str, np.ndarray]:
        """Return every array of the block as ``{name: view}``."""
        if self._views is None:
            raise RuntimeError("shared block is closed")
        return dict(self._views)

    def close(self) -> None:
        """Drop the views, unmap the segment and (if owner) unlink it.

        Idempotent.  Unlinking always runs for the owner even when
        unmapping is blocked by still-exported buffers elsewhere — the
        name disappears from ``/dev/shm`` either way, and the memory is
        reclaimed once the last mapping goes away.
        """
        if self._closed:
            return
        self._closed = True
        self._views = None
        try:
            self._segment.close()
        except BufferError:
            # A consumer still holds a view; the segment stays mapped in
            # this process but must not stay *named* — fall through to
            # the unlink below.
            pass
        if self._owner:
            try:
                self._segment.unlink()
            except FileNotFoundError:
                pass


def _map_views(
    segment: shared_memory.SharedMemory, spec: SharedBlockSpec
) -> Dict[str, np.ndarray]:
    return {
        array.name: np.ndarray(
            array.shape,
            dtype=np.dtype(array.dtype),
            buffer=segment.buf,
            offset=array.offset,
        )
        for array in spec.arrays
    }


# ----------------------------------------------------------------------
# Device-array flattening (BatchDeviceSet <-> named shared arrays)
# ----------------------------------------------------------------------
def _device_arrays(
    devices: BatchDeviceSet, prefix: str
) -> Dict[str, np.ndarray]:
    out: Dict[str, np.ndarray] = {}
    for polarity, params in (("nmos", devices.nmos), ("pmos", devices.pmos)):
        for field in dataclass_fields(PolarityArrays):
            out[f"{prefix}{polarity}.{field.name}"] = getattr(
                params, field.name
            )
    for field in dataclass_fields(TemperatureArrays):
        out[f"{prefix}temperature.{field.name}"] = getattr(
            devices.temperature, field.name
        )
    return out


def _device_set_from_views(
    views: Dict[str, np.ndarray], prefix: str, delay_constant: float
) -> BatchDeviceSet:
    def polarity(name: str) -> PolarityArrays:
        return PolarityArrays(
            **{
                field.name: views[f"{prefix}{name}.{field.name}"]
                for field in dataclass_fields(PolarityArrays)
            }
        )

    temperature = TemperatureArrays(
        **{
            field.name: views[f"{prefix}temperature.{field.name}"]
            for field in dataclass_fields(TemperatureArrays)
        }
    )
    return BatchDeviceSet(
        nmos=polarity("nmos"),
        pmos=polarity("pmos"),
        temperature=temperature,
        delay_constant=delay_constant,
    )


# ----------------------------------------------------------------------
# Worker-side payloads
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TableMeta:
    """Scalar metadata rebuilding :class:`ResponseTables` from views."""

    points: int
    v_max: float
    short_circuit_fraction: float
    tdc_minimum_supply: Optional[float]
    tdc_base_code: Optional[int]


@dataclass(frozen=True)
class ProcFleetPayload:
    """Everything a worker needs once per pool (sent via initializer).

    Arrays travel exclusively as :class:`SharedBlockSpec`; the pickled
    remainder is small scalar configuration (the controller config, the
    LUT entries, the load description).
    """

    state_spec: SharedBlockSpec
    device_spec: SharedBlockSpec
    table_spec: Optional[SharedBlockSpec]
    table_meta: Optional[TableMeta]
    shard_bounds: Tuple[Tuple[int, int], ...]
    config: object
    lut_entries: np.ndarray
    lut_fifo_depth: int
    engine_kwargs: dict
    load: object
    expected_counts: Optional[np.ndarray]
    temperature_c: float
    delay_constant: float
    sensor_delay_constant: float
    sensor_distinct: bool
    fault_plan: Optional[FaultPlan] = None


SINK_MODES = ("fresh", "keep", "finish")
"""How a worker handles telemetry sinks for one command: ``"fresh"``
builds a new sink and ships its result (a plain run, or one dense
chunk); ``"keep"`` feeds the shard's persistent sink and ships nothing
(an intermediate streaming/null chunk); ``"finish"`` feeds the
persistent sink one last time and ships the accumulated result."""


@dataclass(frozen=True)
class RunOrder:
    """One worker's work order for one run (or chunk) command.

    Covers every shard the worker is pinned to: ``arrivals`` and
    ``schedule`` map shard index to encoded row blocks (broadcast rows
    collapse to a single row, see :func:`_encode_rows`).
    """

    cycles: int
    arrivals: Dict[int, Tuple[str, np.ndarray]]
    schedule: Optional[Dict[int, Tuple[str, np.ndarray]]]
    telemetry: str
    stream_window: int
    scalars: dict
    sink_mode: str = "fresh"


def _encode_rows(
    matrix: Optional[np.ndarray], where: slice
) -> Optional[Tuple[str, np.ndarray]]:
    """Ship a shard's row block, collapsing broadcasts to one row.

    A shared ``(cycles,)`` arrival vector reaches the parent as a
    zero-stride broadcast; pickling the broadcast slice would
    materialise ``shard_n * cycles`` values, so send the single row and
    re-broadcast inside the worker instead.
    """
    if matrix is None:
        return None
    if matrix.ndim == 2 and matrix.strides[0] == 0:
        return ("row", np.ascontiguousarray(matrix[0]))
    return ("rows", np.ascontiguousarray(matrix[where]))


def _decode_rows(
    payload: Optional[Tuple[str, np.ndarray]], n: int
) -> Optional[np.ndarray]:
    if payload is None:
        return None
    kind, data = payload
    if kind == "row":
        return np.broadcast_to(data, (n, data.shape[0]))
    return data


def _table_arrays(shared_tables) -> Dict[str, np.ndarray]:
    """Flatten shared response tables into named block arrays."""
    table_arrays = {
        f"response.{name}": table
        for name, table in shared_tables._tables.items()
    }
    if shared_tables.tdc is not None:
        tdc = shared_tables.tdc
        table_arrays["tdc.code_breaks"] = tdc.code_breaks
        table_arrays["tdc.positive_break"] = tdc.positive_break
        table_arrays["tdc.saturation_break"] = tdc.saturation_break
    return table_arrays


def _table_meta(shared_tables) -> Optional[TableMeta]:
    if shared_tables is None:
        return None
    tdc = shared_tables.tdc
    return TableMeta(
        points=shared_tables.points,
        v_max=shared_tables.v_max,
        short_circuit_fraction=shared_tables.short_circuit_fraction,
        tdc_minimum_supply=None if tdc is None else tdc.minimum_supply,
        tdc_base_code=None if tdc is None else tdc.base_code,
    )


# ----------------------------------------------------------------------
# Worker process (resident)
# ----------------------------------------------------------------------
class _AckCorruption(Exception):
    """Internal marker: reply to this command with a garbage ack."""


class _WorkerRuntime:
    """One resident worker's pinned world: blocks, engines, sinks.

    Lives for the worker process's whole life.  Block attachments,
    the rebuilt population/table views and the per-shard engines are
    created lazily on the first command and then *stay pinned* — every
    later command reuses them, which is the zero-refanout property the
    resident design exists for.  A ``reset`` command swaps the payload
    and drops the derived caches while keeping the attachments.
    """

    def __init__(self, payload: ProcFleetPayload, indices) -> None:
        self.payload = payload
        self.indices = tuple(int(i) for i in indices)
        self.blocks: Dict[str, SharedArrayBlock] = {}
        self.population = None
        self.tables = None
        self.engines: Dict[int, object] = {}
        self.sinks: Dict[int, object] = {}
        self.injector = (
            None
            if payload.fault_plan is None
            else FaultInjector(payload.fault_plan)
        )

    # -- fault injection --------------------------------------------------
    def _fault(self, index: int, start_cycle: int) -> None:
        """Fire any armed fleet-scope fault for this shard command.

        Fires *before* the shard's shared state is touched, so a raise
        leaves the state exactly where the previous command left it.
        ``crash`` exits the process outright (the supervised path), the
        timing kinds sleep, ``ack_corrupt`` escalates to
        :class:`_AckCorruption` so the main loop replies with garbage.
        """
        if self.injector is None:
            return
        spec = self.injector.poll(
            scope="fleet",
            shard=index,
            cycle=start_cycle,
            command="run",
            executor="process",
        )
        if spec is None:
            return
        if spec.kind == "crash":
            os._exit(17)
        if spec.kind in ("hang", "slow"):
            time.sleep(spec.seconds)
            return
        if spec.kind == "ack_corrupt":
            raise _AckCorruption(index)
        raise injected_error(index, spec.kind)

    def close_fault(self) -> None:
        """Fire any armed close-command fault (the hang-on-close test)."""
        if self.injector is None:
            return
        spec = self.injector.poll(
            scope="fleet",
            shard=self.indices[0] if self.indices else None,
            command="close",
            executor="process",
        )
        if spec is not None and spec.kind in ("hang", "slow"):
            time.sleep(spec.seconds)

    # -- pinned resources -----------------------------------------------
    def _block(self, key: str, spec: SharedBlockSpec) -> SharedArrayBlock:
        block = self.blocks.get(key)
        if block is None:
            if self.injector is not None:
                fault = self.injector.poll(
                    scope="attach",
                    shard=self.indices[0] if self.indices else None,
                    executor="process",
                )
                if fault is not None:
                    raise OSError(
                        f"injected shm attach failure for block {key!r}"
                    )
            block = SharedArrayBlock.attach(spec)
            self.blocks[key] = block
        return block

    def _population(self):
        """Rebuild the full population over attached device views (cached)."""
        if self.population is not None:
            return self.population
        from repro.engine.engine import BatchPopulation

        payload = self.payload
        views = self._block("devices", payload.device_spec).views()
        load_devices = _device_set_from_views(
            views, "load.", payload.delay_constant
        )
        sensor = (
            _device_set_from_views(
                views, "sensor.", payload.sensor_delay_constant
            )
            if payload.sensor_distinct
            else None
        )
        self.population = BatchPopulation(
            load=payload.load,
            load_devices=load_devices,
            sensor_devices=sensor,
            expected_counts=payload.expected_counts,
            temperature_c=payload.temperature_c,
        )
        return self.population

    def _tables(self):
        """Rebuild the full response tables over attached views (cached)."""
        payload = self.payload
        if self.tables is not None or payload.table_spec is None:
            return self.tables
        from repro.engine.response_tables import ResponseTables, TdcCodeTables

        views = self._block("tables", payload.table_spec).views()
        meta = payload.table_meta
        tdc = None
        if meta.tdc_base_code is not None:
            tdc = TdcCodeTables.adopt(
                code_breaks=views["tdc.code_breaks"],
                positive_break=views["tdc.positive_break"],
                saturation_break=views["tdc.saturation_break"],
                minimum_supply=meta.tdc_minimum_supply,
                base_code=meta.tdc_base_code,
            )
        self.tables = ResponseTables.adopt(
            {
                name.split(".", 1)[1]: view
                for name, view in views.items()
                if name.startswith("response.")
            },
            temperature_c=payload.temperature_c,
            nominal_throughput=payload.engine_kwargs.get(
                "nominal_throughput"
            ),
            points=meta.points,
            v_max=meta.v_max,
            short_circuit_fraction=meta.short_circuit_fraction,
            tdc=tdc,
        )
        return self.tables

    def _engine(self, index: int):
        """Build (or fetch) the pinned shard engine for one shard index.

        The engine's state is a shard view into the shared state block,
        so a shard resumes from exactly the arrays the previous command
        left behind — only the shared scalars arrive per command.
        """
        engine = self.engines.get(index)
        if engine is not None:
            return engine
        from repro.engine.engine import BatchEngine

        payload = self.payload
        lo, hi = payload.shard_bounds[index]
        where = slice(lo, hi)
        population = self._population().shard(where)
        kwargs = dict(payload.engine_kwargs)
        kwargs.pop("table_points", None)
        tables = self._tables()
        if tables is not None:
            kwargs["response_tables"] = tables.shard(where)
        engine = BatchEngine(
            population, payload.lut_entries, config=payload.config, **kwargs
        )
        engine.lut_fifo_depth = payload.lut_fifo_depth
        state_views = self._block("state", payload.state_spec).views()
        # Placeholder scalars: every command carries the authoritative
        # values and applies them just before running.
        placeholder = {name: 0 for name in STATE_SCALAR_FIELDS}
        full_state = BatchState.from_arrays(state_views, placeholder)
        engine.adopt_state(full_state.shard_view(where))
        self.engines[index] = engine
        return engine

    def _sink(self, index: int, order: RunOrder):
        from repro.engine.trace import make_sink

        if order.sink_mode == "fresh":
            return make_sink(order.telemetry, order.stream_window)
        sink = self.sinks.get(index)
        if sink is None:
            sink = make_sink(order.telemetry, order.stream_window)
            self.sinks[index] = sink
        if order.sink_mode == "finish":
            self.sinks.pop(index, None)
        return sink

    # -- command handlers ------------------------------------------------
    def handle(self, message: tuple) -> tuple:
        kind = message[0]
        if kind == "run":
            return self._run(message[1])
        if kind == "reset":
            self._reset(message[1])
            return ("ok", None, None)
        raise RuntimeError(f"unknown fleet worker command {kind!r}")

    def _run(self, order: RunOrder) -> tuple:
        start_cycle = int(order.scalars["cycles"])
        results: Dict[int, object] = {}
        scalars = None
        # Per-shard engine-run seconds travel back as a 4th ack element,
        # so the parent attributes process-worker time without any extra
        # IPC.  Older-style consumers that unpack acks positionally by
        # reply[1]/reply[2] keep working (the protocol check only
        # requires len >= 2).
        timings: Dict[int, float] = {}
        for index in self.indices:
            self._fault(index, start_cycle)
            engine = self._engine(index)
            engine.state.apply_scalars(order.scalars)
            arrivals = _decode_rows(order.arrivals.get(index), engine.n)
            schedule = _decode_rows(
                None if order.schedule is None
                else order.schedule.get(index),
                engine.n,
            )
            t_run = time.perf_counter()
            out = engine.run(
                arrivals,
                order.cycles,
                scheduled_codes=schedule,
                sink=self._sink(index, order),
            )
            timings[index] = time.perf_counter() - t_run
            results[index] = None if order.sink_mode == "keep" else out
            scalars = engine.state.scalar_fields()
        return ("ok", results, scalars, timings)

    def _reset(self, payload: ProcFleetPayload) -> None:
        """Adopt a new payload (population swap), keeping attachments.

        The parent refreshed the shared device/table arrays in place
        before sending this command, so only the derived caches —
        population wrapper, table wrapper, shard engines, persistent
        sinks — need rebuilding; the block attachments (and the shard
        pinning) survive.
        """
        self.payload = payload
        self.population = None
        self.tables = None
        self.engines.clear()
        self.sinks.clear()

    def teardown(self) -> None:
        for block in self.blocks.values():
            block.close()
        self.blocks.clear()


def _worker_main(conn, payload: ProcFleetPayload, indices) -> None:
    """Entry point of one resident worker process.

    A strict request/reply loop: receive a command, reply exactly once
    — ``("ok", results, scalars)`` or ``("error", exception)`` — and
    park on the pipe again.  Exits on the ``("close",)`` command or
    when the parent's end of the pipe goes away.
    """
    runtime = _WorkerRuntime(payload, indices)
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                return
            if message[0] == "close":
                runtime.close_fault()
                try:
                    conn.send(("ok", None, None))
                except (BrokenPipeError, OSError):
                    pass
                return
            try:
                reply = runtime.handle(message)
            except _AckCorruption:
                # Deliberately not a protocol tuple: the parent must
                # classify this as a corrupt ack and fence the worker.
                reply = "corrupted-ack"
            except BaseException as exc:
                reply = ("error", exc)
            try:
                conn.send(reply)
            except (BrokenPipeError, OSError):
                return
            except Exception as exc:  # unpicklable result/exception
                conn.send(
                    ("error", RuntimeError(f"worker reply failed: {exc!r}"))
                )
    finally:
        runtime.teardown()
        conn.close()


# ----------------------------------------------------------------------
# Parent-side backend
# ----------------------------------------------------------------------
@dataclass
class _ResidentWorker:
    """Parent-side handle of one pinned worker process."""

    process: object
    conn: object
    indices: Tuple[int, ...]


@dataclass(frozen=True)
class _RoundRecord:
    """One dispatched run round, as replayed during recovery.

    Together with the epoch-start state snapshot this is everything a
    replacement worker needs to reproduce its shards bit-identically:
    the arrival/schedule row blocks are re-sliced from the recorded
    matrices, and the recorded start scalars make each replayed command
    byte-equal to the original.
    """

    matrix: Optional[np.ndarray]
    system_cycles: int
    schedule: Optional[np.ndarray]
    telemetry: str
    stream_window: int
    sink_mode: str
    scalars: dict


_DRAIN_TIMEOUT_S = 30.0
"""Bound on draining the *remaining* acks of a round once one worker
has already failed — the fleet is coming down (or into recovery), so a
second, hung worker must not deadlock the teardown."""

_CLOSE_DRAIN_TIMEOUT_S = 1.0
"""Bound on waiting for a worker's close ack before escalating to
terminate/join/unlink."""


class ProcessFleetBackend:
    """Parent half of the process executor: blocks, workers, shard merge.

    Owns the shared segments and the resident worker processes for one
    :class:`~repro.engine.fleet.FleetEngine`.  On construction it moves
    the already-initialised per-shard states into one shared block and
    re-points the parent engines at shard views of it, so the parent's
    gather methods keep working unchanged while workers mutate the same
    memory.  Workers start on the first run (:meth:`start`) and stay
    pinned to their strided shard subset until :meth:`close`.
    """

    def __init__(
        self,
        population,
        config,
        engines: Sequence,
        shard_slices: Sequence[slice],
        engine_kwargs: dict,
        shared_tables=None,
        mp_context: Optional[str] = None,
        recovery: Optional[RecoveryPolicy] = None,
    ) -> None:
        self._engines = list(engines)
        self._shard_slices = tuple(shard_slices)
        self._workers: List[_ResidentWorker] = []
        self._closed = False
        self._recovery = recovery
        self._restarts = 0
        self._epoch_rounds: List[_RoundRecord] = []
        self._epoch_snapshot: Optional[Dict[str, np.ndarray]] = None
        # Per-run timing attribution (observability): worker-reported
        # engine-run seconds per shard and parent-side send→ack seconds
        # per worker position.  Reset at each run/run_chunked entry.
        self.last_shard_runs: Dict[int, float] = {}
        self.last_roundtrips: Dict[int, float] = {}
        self.blocks: Dict[str, SharedArrayBlock] = {}
        try:
            self._build_blocks(population, engines, shared_tables)
            self._payload = self._build_payload(
                population, config, engines, engine_kwargs, shared_tables
            )
        except BaseException:
            self.close()
            raise
        if mp_context is None:
            mp_context = os.environ.get(START_METHOD_ENV) or None
        if mp_context is not None:
            self._mp_context = multiprocessing.get_context(mp_context)
        elif sys.platform == "linux":
            # fork reuses the parent's already-imported interpreter
            # (numpy, repro) — worker start is milliseconds, and the
            # initializer payload is inherited instead of pickled.
            # Linux only: on macOS fork-without-exec is unreliable
            # (the reason CPython's default there moved to spawn).
            self._mp_context = multiprocessing.get_context("fork")
        else:
            self._mp_context = multiprocessing.get_context()

    # -- construction ---------------------------------------------------
    def _build_blocks(self, population, engines, shared_tables) -> None:
        state_arrays = {
            name: np.concatenate(
                [engine.state.array_fields()[name] for engine in engines],
                axis=0,
            )
            for name in engines[0].state.array_fields()
        }
        self.blocks["state"] = SharedArrayBlock.create(state_arrays)
        # Re-point every parent shard engine at its view of the shared
        # state so worker writes are what the gather methods read.
        full_state = BatchState.from_arrays(
            self.blocks["state"].views(),
            engines[0].state.scalar_fields(),
        )
        for engine, where in zip(engines, self._shard_slices):
            engine.adopt_state(full_state.shard_view(where))

        device_arrays = _device_arrays(population.load_devices, "load.")
        if population.sensor_devices is not population.load_devices:
            device_arrays.update(
                _device_arrays(population.sensor_devices, "sensor.")
            )
        self.blocks["devices"] = SharedArrayBlock.create(device_arrays)

        if shared_tables is not None:
            self.blocks["tables"] = SharedArrayBlock.create(
                _table_arrays(shared_tables)
            )

    def _build_payload(
        self, population, config, engines, engine_kwargs, shared_tables
    ) -> ProcFleetPayload:
        table_meta = _table_meta(shared_tables)
        first = engines[0]
        kwargs = dict(engine_kwargs)
        kwargs.pop("response_tables", None)
        return ProcFleetPayload(
            state_spec=self.blocks["state"].spec,
            device_spec=self.blocks["devices"].spec,
            table_spec=(
                self.blocks["tables"].spec
                if "tables" in self.blocks else None
            ),
            table_meta=table_meta,
            shard_bounds=tuple(
                (int(where.start), int(where.stop))
                for where in self._shard_slices
            ),
            config=first.config,
            lut_entries=first.lut_entries,
            lut_fifo_depth=int(first.lut_fifo_depth),
            engine_kwargs=kwargs,
            load=population.load,
            expected_counts=population.expected_counts,
            temperature_c=population.temperature_c,
            delay_constant=population.load_devices.delay_constant,
            sensor_delay_constant=population.sensor_devices.delay_constant,
            sensor_distinct=(
                population.sensor_devices is not population.load_devices
            ),
            # Captured here (not read from env in the worker) so fault
            # plans survive the spawn start method and test-installed
            # plans reach forked workers deterministically.
            fault_plan=active_plan(),
        )

    # -- execution ------------------------------------------------------
    @property
    def block_names(self) -> Tuple[str, ...]:
        """Return the names of the shared segments this fleet owns."""
        return tuple(block.name for block in self.blocks.values())

    def start(self, workers: int) -> None:
        """Spin up the resident pinned workers (once per fleet).

        Worker ``w`` of ``W`` is pinned to shards ``w, w+W, ...`` for
        the backend's whole life; each receives the payload and its
        pinned indices once, at start.  Starting an already-started
        backend is a hard error — pinning is a per-lifetime decision,
        not a per-run one.
        """
        if self._closed:
            raise RuntimeError("process fleet backend is closed")
        if self._workers:
            raise RuntimeError("resident fleet workers already started")
        workers = max(1, min(int(workers), len(self._shard_slices)))
        started: List[_ResidentWorker] = []
        try:
            for w in range(workers):
                indices = tuple(
                    range(w, len(self._shard_slices), workers)
                )
                started.append(self._spawn_worker(w, indices))
        except BaseException:
            for worker in started:
                try:
                    worker.conn.close()
                except Exception:
                    pass
                worker.process.terminate()
                worker.process.join(timeout=5.0)
            raise
        self._workers = started

    def _spawn_worker(
        self,
        position: int,
        indices: Tuple[int, ...],
        fault_free: bool = False,
    ) -> _ResidentWorker:
        """Start one pinned worker process.

        ``fault_free=True`` (recovery respawns) strips the fault plan
        from the payload: the injected fault already fired, and
        re-arming the replacement would make recovery impossible by
        construction.
        """
        ctx = self._mp_context
        payload = (
            replace(self._payload, fault_plan=None)
            if fault_free
            else self._payload
        )
        parent_conn, child_conn = ctx.Pipe()
        process = ctx.Process(
            target=_worker_main,
            args=(child_conn, payload, indices),
            name=f"repro-fleet-{position}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        return _ResidentWorker(process, parent_conn, indices)

    def _ensure_workers(self, workers: int) -> List[_ResidentWorker]:
        if self._closed:
            raise RuntimeError("process fleet backend is closed")
        if not self._workers:
            self.start(workers)
        return self._workers

    def _recv_reply(
        self, worker: _ResidentWorker, timeout: Optional[float]
    ) -> tuple:
        """Receive and classify one worker's ack.

        Returns the protocol reply (``("ok", ...)``/``("error", exc)``)
        or a supervision verdict: ``("hung", exc)`` when no reply lands
        within ``timeout`` (the heartbeat), ``("dead", exc)`` on
        EOF/broken pipe, ``("corrupt", exc)`` when the bytes received
        are not a protocol tuple.
        """
        try:
            if timeout is not None and not worker.conn.poll(timeout):
                return (
                    "hung",
                    RuntimeError(
                        f"fleet worker {worker.process.name} gave no "
                        f"reply within {timeout}s"
                    ),
                )
            reply = worker.conn.recv()
        except (EOFError, OSError) as exc:
            return (
                "dead",
                RuntimeError(
                    f"fleet worker {worker.process.name} died "
                    f"mid-command: {exc!r}"
                ),
            )
        if not (
            isinstance(reply, tuple)
            and len(reply) >= 2
            and reply[0] in ("ok", "error")
        ):
            return (
                "corrupt",
                RuntimeError(
                    f"fleet worker {worker.process.name} sent a corrupt "
                    f"reply: {reply!r}"
                ),
            )
        return reply

    def _round_replies(self, messages: Sequence[tuple]) -> List[tuple]:
        """Send per-worker messages, gather and classify one ack each.

        Replies arrive in worker order (each worker answers exactly once
        per command), so downstream merges are deterministic.  With a
        recovery policy the heartbeat timeout applies to every reply;
        without one the first reply blocks as before, but once any
        worker has failed the *remaining* drains are bounded so a hung
        second worker cannot deadlock the teardown.
        """
        timeout = (
            None if self._recovery is None
            else self._recovery.command_timeout_s
        )
        replies: List[Optional[tuple]] = [None] * len(self._workers)
        pending: List[int] = []
        sent_at: Dict[int, float] = {}
        for position, (worker, message) in enumerate(
            zip(self._workers, messages)
        ):
            try:
                sent_at[position] = time.perf_counter()
                worker.conn.send(message)
                pending.append(position)
            except (BrokenPipeError, OSError) as exc:
                replies[position] = (
                    "dead",
                    RuntimeError(
                        f"fleet worker {worker.process.name} is gone: "
                        f"{exc}"
                    ),
                )
        degraded = any(reply is not None for reply in replies)
        for position in pending:
            drain_timeout = timeout
            if drain_timeout is None and degraded:
                drain_timeout = _DRAIN_TIMEOUT_S
            reply = self._recv_reply(self._workers[position], drain_timeout)
            # Send→ack latency per worker position (observability; acks
            # drain in worker order, so later positions include any wait
            # for earlier drains — the parent's actual view of the
            # round-trip).
            self.last_roundtrips[position] = self.last_roundtrips.get(
                position, 0.0
            ) + (time.perf_counter() - sent_at[position])
            replies[position] = reply
            if reply[0] != "ok":
                degraded = True
        return replies  # type: ignore[return-value]

    @staticmethod
    def _require_ok(replies: Sequence[tuple]) -> List[tuple]:
        """Raise the first non-ok reply's error (fail-fast contract)."""
        first_error: Optional[BaseException] = None
        for reply in replies:
            if reply[0] != "ok" and first_error is None:
                first_error = reply[1]
        if first_error is not None:
            raise first_error
        return list(replies)

    def _command(self, messages: Sequence[tuple]) -> List[tuple]:
        """One fail-fast command round (reset and other control traffic)."""
        return self._require_ok(self._round_replies(messages))

    def _run_round(
        self,
        matrix: np.ndarray,
        system_cycles: int,
        schedule: Optional[np.ndarray],
        telemetry: str,
        stream_window: int,
        sink_mode: str,
    ) -> list:
        """Dispatch one run command to every worker; merge shard order."""
        scalars = self._engines[0].state.scalar_fields()
        if self._recovery is not None:
            self._epoch_rounds.append(
                _RoundRecord(
                    matrix=matrix,
                    system_cycles=system_cycles,
                    schedule=schedule,
                    telemetry=telemetry,
                    stream_window=stream_window,
                    sink_mode=sink_mode,
                    scalars=dict(scalars),
                )
            )
        messages = []
        for worker in self._workers:
            order = self._order_for(
                worker.indices,
                matrix,
                system_cycles,
                schedule,
                telemetry,
                stream_window,
                scalars,
                sink_mode,
            )
            messages.append(("run", order))
        replies = self._round_replies(messages)
        failed = [
            position
            for position, reply in enumerate(replies)
            if reply[0] != "ok"
        ]
        if failed:
            if self._recovery is None:
                self._require_ok(replies)
            replies = self._recover(failed, replies)
        results: Dict[int, object] = {}
        final_scalars = None
        for reply in replies:
            # Run acks are ("ok", results, scalars, timings); control
            # acks and pre-timing replays may be 3-tuples — the timing
            # element is optional by protocol.
            results.update(reply[1])
            final_scalars = reply[2]
            if len(reply) > 3 and reply[3]:
                for index in sorted(reply[3]):
                    self.last_shard_runs[index] = self.last_shard_runs.get(
                        index, 0.0
                    ) + reply[3][index]
        for engine in self._engines:
            engine.state.apply_scalars(final_scalars)
        return [results[i] for i in range(len(self._shard_slices))]

    def _order_for(
        self,
        indices: Tuple[int, ...],
        matrix: Optional[np.ndarray],
        system_cycles: int,
        schedule: Optional[np.ndarray],
        telemetry: str,
        stream_window: int,
        scalars: dict,
        sink_mode: str,
    ) -> RunOrder:
        return RunOrder(
            cycles=system_cycles,
            arrivals={
                i: _encode_rows(matrix, self._shard_slices[i])
                for i in indices
            },
            schedule=(
                None
                if schedule is None
                else {
                    i: _encode_rows(schedule, self._shard_slices[i])
                    for i in indices
                }
            ),
            telemetry=telemetry,
            stream_window=stream_window,
            scalars=scalars,
            sink_mode=sink_mode,
        )

    # -- recovery -------------------------------------------------------
    def _begin_epoch(self) -> None:
        """Open a recovery epoch: snapshot the state block, clear rounds.

        One epoch covers one ``run_chunked`` call.  The snapshot
        plus the per-round records (:class:`_RoundRecord`) are what a
        respawned worker replays, so a recovered run is bit-identical
        to a fault-free one.
        """
        if self._recovery is None:
            return
        self._epoch_rounds = []
        self._epoch_snapshot = {
            name: np.array(view)
            for name, view in self.blocks["state"].views().items()
        }

    def _recover(
        self, failed: Sequence[int], replies: List[tuple]
    ) -> List[tuple]:
        """Respawn every failed worker and replay its epoch.

        Supervision state machine: a worker whose reply classified as
        error/dead/hung/corrupt is *suspect*; it is fenced (terminated
        and joined) before its shard rows are rolled back to the epoch
        snapshot, then a fault-free replacement pinned to the same
        shards replays the epoch's recorded rounds.  The final replayed
        round's ack substitutes for the failed reply.  An exhausted
        restart budget falls back to fail-fast: the original error
        raises and the caller tears the fleet down (unlinking every
        segment).
        """
        policy = self._recovery
        self._restarts += len(failed)
        if self._restarts > policy.max_restarts:
            self._require_ok(replies)
        for position in failed:
            replies[position] = self._respawn_and_replay(
                position, replies[position][1]
            )
        return replies

    def _respawn_and_replay(
        self, position: int, cause: BaseException
    ) -> tuple:
        worker = self._workers[position]
        # The suspect must be fully dead before its shard rows are
        # rolled back — a merely hung process could wake up and
        # scribble over the restored state mid-replay.
        try:
            worker.conn.close()
        except Exception:
            pass
        worker.process.terminate()
        worker.process.join(timeout=5.0)
        if worker.process.is_alive():  # pragma: no cover - stuck SIGTERM
            worker.process.kill()
            worker.process.join(timeout=5.0)
        replacement = self._spawn_worker(
            position, worker.indices, fault_free=True
        )
        self._workers[position] = replacement
        self._restore_shards(worker.indices)
        return self._replay(replacement, cause)

    def _restore_shards(self, indices: Tuple[int, ...]) -> None:
        """Roll the failed worker's shard rows back to the epoch start."""
        views = self.blocks["state"].views()
        for index in indices:
            where = self._shard_slices[index]
            for name, saved in self._epoch_snapshot.items():
                views[name][where] = saved[where]

    def _replay(
        self, worker: _ResidentWorker, cause: BaseException
    ) -> tuple:
        """Re-run every recorded round of the epoch on the replacement.

        Earlier rounds rebuild the worker-resident streaming sinks (and
        re-advance the shard state); only the final round's results are
        kept — for dense chunked runs the earlier replayed chunks are
        byte-equal to the results the original worker already shipped.
        """
        timeout = self._recovery.command_timeout_s
        reply: Optional[tuple] = None
        for record in self._epoch_rounds:
            order = self._order_for(
                worker.indices,
                record.matrix,
                record.system_cycles,
                record.schedule,
                record.telemetry,
                record.stream_window,
                record.scalars,
                record.sink_mode,
            )
            try:
                worker.conn.send(("run", order))
            except (BrokenPipeError, OSError) as exc:
                raise RuntimeError(
                    "fleet recovery failed: replacement worker "
                    f"{worker.process.name} is gone: {exc}"
                ) from cause
            reply = self._recv_reply(worker, timeout)
            if reply[0] != "ok":
                error = reply[1]
                raise RuntimeError(
                    "fleet recovery failed: replay on replacement "
                    f"worker {worker.process.name} failed: {error}"
                ) from cause
        assert reply is not None  # an epoch always has >= 1 round
        return reply

    def run_chunked(
        self,
        matrix: np.ndarray,
        schedule: Optional[np.ndarray],
        bounds: Sequence[Tuple[int, int]],
        telemetry: str,
        stream_window: int,
        workers: int,
    ) -> list:
        """Run the horizon in chunks, one command round-trip per chunk.

        Dense chunks ship results every round and the parent stitches
        them; streaming/null chunks keep the sink inside the worker
        (``sink_mode="keep"``) and ship results only on the final chunk
        (``"finish"``) — zero per-chunk result traffic.
        """
        self._ensure_workers(workers)
        self.last_shard_runs = {}
        self.last_roundtrips = {}
        self._begin_epoch()
        dense = telemetry == "dense"
        pieces: List[list] = [[] for _ in self._shard_slices]
        results: Optional[list] = None
        last = len(bounds) - 1
        for k, (lo, hi) in enumerate(bounds):
            chunk_results = self._run_round(
                matrix[:, lo:hi],
                hi - lo,
                None if schedule is None else schedule[:, lo:hi],
                telemetry,
                stream_window,
                sink_mode=(
                    "fresh" if dense else ("finish" if k == last else "keep")
                ),
            )
            if dense:
                for index, out in enumerate(chunk_results):
                    pieces[index].append(out)
            else:
                results = chunk_results
        if dense:
            from repro.engine.trace import BatchTrace

            return [BatchTrace.concatenate(p) for p in pieces]
        return results

    def reset(self, population, shared_tables=None) -> None:
        """Re-point the resident fleet at a replacement population.

        The parent has already reset the shared *state* arrays in place
        (through its adopted shard views); this refreshes the shared
        device and table blocks in place, swaps the payload scalars
        (load description, calibration table, temperature, delay
        constants) and sends live workers one ``reset`` command so they
        rebuild their derived caches over the existing attachments.
        The block layout is fixed at construction: a population that
        would change it (different sensor-device sharing, different
        array shapes) needs a fresh fleet and is rejected loudly.
        """
        if self._closed:
            raise RuntimeError("process fleet backend is closed")
        distinct = population.sensor_devices is not population.load_devices
        if distinct != self._payload.sensor_distinct:
            raise ValueError(
                "replacement population changes the sensor-device block "
                "layout; build a fresh fleet"
            )
        device_arrays = _device_arrays(population.load_devices, "load.")
        if distinct:
            device_arrays.update(
                _device_arrays(population.sensor_devices, "sensor.")
            )
        self._refresh_block("devices", device_arrays)
        if (shared_tables is not None) != ("tables" in self.blocks):
            raise ValueError(
                "replacement population changes the response-table block "
                "layout; build a fresh fleet"
            )
        if shared_tables is not None:
            self._refresh_block("tables", _table_arrays(shared_tables))
        self._payload = replace(
            self._payload,
            table_meta=_table_meta(shared_tables),
            load=population.load,
            expected_counts=population.expected_counts,
            temperature_c=population.temperature_c,
            delay_constant=population.load_devices.delay_constant,
            sensor_delay_constant=population.sensor_devices.delay_constant,
        )
        if self._workers:
            self._command(
                [("reset", self._payload)] * len(self._workers)
            )

    def _refresh_block(
        self, key: str, arrays: Dict[str, np.ndarray]
    ) -> None:
        block = self.blocks[key]
        names = {spec.name for spec in block.spec.arrays}
        if set(arrays) != names:
            raise ValueError(
                f"replacement population changes the {key} block layout; "
                "build a fresh fleet"
            )
        for name, array in arrays.items():
            view = block.view(name)
            if view.shape != array.shape or view.dtype != array.dtype:
                raise ValueError(
                    f"replacement population changes the {key} array "
                    f"{name!r} layout; build a fresh fleet"
                )
            view[...] = array

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        """Retire the residents and unlink every shared segment.

        Safe to call any number of times, including after a partial
        construction, a failed run or a worker crash.  Parent engine
        states are detached (copied out of shared memory) first so they
        stay readable; workers that do not drain within the timeout are
        terminated — the segments are unlinked either way.
        """
        if self._closed:
            return
        self._closed = True
        workers, self._workers = self._workers, []
        for worker in workers:
            try:
                worker.conn.send(("close",))
            except Exception:
                pass
        for worker in workers:
            # Drain at most the pending ack, bounded by poll(timeout),
            # so a hung worker cannot deadlock close(); a worker that
            # fails to ack is escalated straight to terminate below
            # rather than waited on.
            acked = False
            try:
                if worker.conn.poll(_CLOSE_DRAIN_TIMEOUT_S):
                    worker.conn.recv()
                    acked = True
            except Exception:
                pass
            try:
                worker.conn.close()
            except Exception:
                pass
            if not acked:
                worker.process.terminate()
        for worker in workers:
            worker.process.join(timeout=5.0)
            if worker.process.is_alive():  # pragma: no cover - hang path
                worker.process.kill()
                worker.process.join(timeout=5.0)
        for engine in self._engines:
            state = getattr(engine, "state", None)
            if state is not None:
                state.detach()
        for block in self.blocks.values():
            block.close()

    def __del__(self) -> None:  # pragma: no cover - GC-order dependent
        try:
            self.close()
        except Exception:
            pass
