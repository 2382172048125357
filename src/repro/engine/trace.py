"""Telemetry of a batched engine run: dense traces and streaming sinks.

Telemetry is produced one row per system cycle by
:meth:`~repro.engine.engine.BatchEngine.step` (a dict of ``(N,)``
arrays) and consumed by a :class:`TraceSink`:

* :class:`DenseTrace` — preallocates one ``(cycles, N)`` array per
  channel and keeps every row (the original :class:`BatchTrace`
  behaviour; memory grows linearly with run length),
* :class:`StreamingTrace` — keeps a chunked ring buffer of the most
  recent rows plus online reducers (sum/mean, min, max, last per
  channel) and settle-time / FIFO-overflow counters, so telemetry
  memory is **bounded** no matter how many cycles the run covers,
* :class:`NullTrace` — records nothing (the engine state accumulators
  still carry run totals).

A :class:`BatchTrace` preallocates one ``(cycles, N)`` array per
telemetry channel and fills a whole row per system cycle, so recording
costs one vectorised store instead of N dataclass allocations.  A single
die's view converts losslessly into the scalar
:class:`~repro.core.controller.ControllerTrace` the rest of the codebase
(and its tests) already speak.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

DECISION_UP = 1
DECISION_HOLD = 0
DECISION_DOWN = -1
"""Integer encoding of the comparator decision in the decision column."""

DIE_CHANNELS = (
    ("queue_lengths", "queue_length", np.int64),
    ("desired_codes", "desired_code", np.int64),
    ("output_voltages", "output_voltage", float),
    ("duty_values", "duty_value", np.int64),
    ("operations_completed", "operations_completed", np.int64),
    ("samples_dropped", "samples_dropped", np.int64),
    ("energies", "energy", float),
    ("lut_corrections", "lut_correction", np.int64),
    ("decisions", "decision", np.int8),
)
"""Per-die telemetry channels as ``(column_name, step_row_key, dtype)``."""


def energy_per_operation_arrays(
    energy: np.ndarray, operations: np.ndarray
) -> np.ndarray:
    """Per-die average energy per operation (NaN where nothing ran)."""
    return np.where(
        operations > 0, energy / np.maximum(operations, 1), np.nan
    )


@dataclass
class BatchTrace:
    """Full telemetry of a batched run: one ``(cycles, N)`` array per channel."""

    times: np.ndarray
    """End-of-cycle timestamps (seconds, shape ``(cycles,)``)."""

    queue_lengths: np.ndarray
    desired_codes: np.ndarray
    output_voltages: np.ndarray
    duty_values: np.ndarray
    operations_completed: np.ndarray
    samples_dropped: np.ndarray
    energies: np.ndarray
    lut_corrections: np.ndarray
    decisions: np.ndarray
    """Comparator decision per cycle/die encoded as +1/0/-1."""

    @classmethod
    def preallocate(cls, cycles: int, n: int) -> "BatchTrace":
        """Return a trace with room for ``cycles`` rows of ``n`` dies."""
        if cycles <= 0 or n <= 0:
            raise ValueError("cycles and n must be positive")
        return cls(
            times=np.zeros(cycles, dtype=float),
            **{
                column: np.zeros((cycles, n), dtype=dtype)
                for column, _, dtype in DIE_CHANNELS
            },
        )

    @staticmethod
    def required_bytes(cycles: int, n: int) -> int:
        """Return the telemetry bytes a dense ``(cycles, n)`` trace needs.

        Used by the fleet benchmarks (and capacity planning) to decide
        when a run must switch to :class:`StreamingTrace`.
        """
        per_die_row = sum(
            np.dtype(dtype).itemsize for _, _, dtype in DIE_CHANNELS
        )
        return cycles * (8 + n * per_die_row)

    def __len__(self) -> int:
        return int(self.times.shape[0])

    @property
    def n(self) -> int:
        """Return the population size."""
        return int(self.queue_lengths.shape[1])

    # ------------------------------------------------------------------
    # Population-level reductions
    # ------------------------------------------------------------------
    def total_energy(self) -> np.ndarray:
        """Return the total load energy per die (joules, ``(N,)``)."""
        return self.energies.sum(axis=0)

    def total_operations(self) -> np.ndarray:
        """Return the completed operations per die (``(N,)``)."""
        return self.operations_completed.sum(axis=0)

    def total_drops(self) -> np.ndarray:
        """Return the dropped input samples per die (``(N,)``)."""
        return self.samples_dropped.sum(axis=0)

    def energy_per_operation(self) -> np.ndarray:
        """Return the average energy per operation per die (``(N,)``)."""
        return energy_per_operation_arrays(
            self.total_energy(), self.total_operations()
        )

    def final_voltage(self, cycles: int = 8) -> np.ndarray:
        """Return the mean tail output voltage per die (``(N,)``)."""
        if len(self) == 0:
            raise ValueError("trace is empty")
        return self.output_voltages[-cycles:].mean(axis=0)

    def final_correction(self) -> np.ndarray:
        """Return the LUT correction at the end of the run (``(N,)``)."""
        if len(self) == 0:
            return np.zeros(self.n, dtype=np.int64)
        return self.lut_corrections[-1].copy()

    # ------------------------------------------------------------------
    # Interop with the scalar trace type
    # ------------------------------------------------------------------
    def die(self, index: int):
        """Return one die's telemetry as a scalar :class:`ControllerTrace`.

        ``from_columns`` copies its inputs, so the view shares nothing
        with (and cannot mutate) this batch trace.
        """
        from repro.core.controller import ControllerTrace

        return ControllerTrace.from_columns(
            times=self.times,
            queue_lengths=self.queue_lengths[:, index],
            desired_codes=self.desired_codes[:, index],
            output_voltages=self.output_voltages[:, index],
            duty_values=self.duty_values[:, index],
            operations_completed=self.operations_completed[:, index],
            samples_dropped=self.samples_dropped[:, index],
            energies=self.energies[:, index],
            lut_corrections=self.lut_corrections[:, index],
            decisions=self.decisions[:, index],
        )

    @classmethod
    def concatenate(cls, traces) -> "BatchTrace":
        """Stitch sequential runs of the same population into one trace.

        A single trace is returned as is: a one-chunk run has nothing
        to stitch, so it pays no second copy.
        """
        traces = list(traces)
        if not traces:
            raise ValueError("traces must not be empty")
        if len(traces) == 1:
            return traces[0]
        return cls(
            **{
                name: np.concatenate([getattr(t, name) for t in traces], axis=0)
                for name in ("times",)
                + tuple(column for column, _, _ in DIE_CHANNELS)
            }
        )

    @classmethod
    def concatenate_dies(cls, traces: Sequence["BatchTrace"]) -> "BatchTrace":
        """Merge per-shard traces of one run back into a fleet trace.

        The inverse of sharding a population: every trace must cover the
        same cycles (they ran the same schedule); dies are concatenated
        in the order given, which is what makes the fleet merge
        deterministic.
        """
        traces = list(traces)
        if not traces:
            raise ValueError("traces must not be empty")
        cycles = len(traces[0])
        if any(len(t) != cycles for t in traces):
            raise ValueError("shard traces must cover the same cycles")
        return cls(
            times=traces[0].times.copy(),
            **{
                column: np.concatenate(
                    [getattr(t, column) for t in traces], axis=1
                )
                for column, _, _ in DIE_CHANNELS
            },
        )


# ----------------------------------------------------------------------
# Telemetry sinks
# ----------------------------------------------------------------------
class TraceSink:
    """Protocol every telemetry sink implements.

    :meth:`~repro.engine.engine.BatchEngine.run` drives a sink with
    ``begin(cycles, n)`` once per run, ``record(row)`` once per system
    cycle (``row`` is the dict of ``(N,)`` arrays ``step`` returns), and
    finally returns ``result()`` to the caller.
    """

    def begin(self, cycles: int, n: int) -> None:
        """Prepare for a run of ``cycles`` system cycles over ``n`` dies."""
        raise NotImplementedError

    def record(self, row: Dict[str, np.ndarray]) -> None:
        """Consume one telemetry row."""
        raise NotImplementedError

    def result(self):
        """Return what the engine run should hand back to the caller."""
        raise NotImplementedError


class DenseTrace(TraceSink):
    """Keep every telemetry row (the default): results in a :class:`BatchTrace`.

    Single-use: one sink instance records one run.  Memory grows as
    ``cycles * N``; :meth:`BatchTrace.required_bytes` quantifies it.
    """

    def __init__(self) -> None:
        self._trace: Optional[BatchTrace] = None
        self._cursor = 0
        self._bindings = ()

    def begin(self, cycles: int, n: int) -> None:
        if self._trace is not None:
            raise RuntimeError(
                "DenseTrace records a single run; use a fresh sink"
            )
        self._trace = BatchTrace.preallocate(cycles, n)
        self._cursor = 0
        # Bind (column array, row key) once; record() then runs without
        # attribute lookups in the per-cycle loop.
        self._bindings = tuple(
            (getattr(self._trace, column), key)
            for column, key, _ in DIE_CHANNELS
        )

    def record(self, row: Dict[str, np.ndarray]) -> None:
        i = self._cursor
        self._trace.times[i] = row["time"]
        for column, key in self._bindings:
            column[i] = row[key]
        self._cursor = i + 1

    def result(self) -> BatchTrace:
        return self._trace


class StreamingTrace(TraceSink):
    """Bounded-memory telemetry: ring buffer + online per-die reducers.

    Keeps the last ``window`` rows of every channel (chronology
    recoverable through :meth:`tail`) and, per channel and die, the
    running sum, minimum, maximum and last value.  On top of the generic
    reducers it tracks two controller-specific counters:

    * ``settle_cycle`` — the 1-based cycle index of the last non-HOLD
      comparator decision per die (0 = the loop never trimmed), i.e. how
      long the die took to settle for good,
    * ``violation_cycles`` — how many cycles each die dropped input
      samples to FIFO overflow.

    Reducer outputs match the same statistics computed from a
    :class:`DenseTrace` of the identical run: minima/maxima/last exactly,
    means to float round-off (the sum is accumulated sequentially,
    ``np.mean`` pairwise).  A sink may be fed by several sequential runs
    of the same population; the reducers keep accumulating.
    """

    def __init__(self, window: int = 64) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        self.window = int(window)
        self.cycles = 0
        self.n: Optional[int] = None
        self.last_time = 0.0
        self._ring: Dict[str, np.ndarray] = {}
        self._ring_times: Optional[np.ndarray] = None
        self._sums: Dict[str, np.ndarray] = {}
        self._mins: Dict[str, np.ndarray] = {}
        self._maxs: Dict[str, np.ndarray] = {}
        self.settle_cycle: Optional[np.ndarray] = None
        self.settle_time: Optional[np.ndarray] = None
        self.violation_cycles: Optional[np.ndarray] = None
        self._bindings = ()
        self._mask: Optional[np.ndarray] = None

    def _bind(self) -> None:
        """Precompute the per-channel (key, reducer arrays) bindings.

        ``record`` runs once per system cycle; resolving the channel
        dict lookups here (and reusing one boolean mask workspace for
        the settle/violation tests) keeps the per-cycle cost to pure
        in-place array updates.  Re-run whenever the backing arrays are
        replaced (``begin`` after a :meth:`merge_dies`).
        """
        self._bindings = tuple(
            (
                key,
                self._ring[column],
                self._sums[column],
                self._mins[column],
                self._maxs[column],
            )
            for column, key, _ in DIE_CHANNELS
        )
        self._mask = np.empty(self.n, dtype=bool)

    def begin(self, cycles: int, n: int) -> None:
        if self.n is not None:
            if n != self.n:
                raise ValueError(
                    "sink already bound to a different population size"
                )
            self._bind()
            return
        self.n = int(n)
        self._ring_times = np.zeros(self.window, dtype=float)
        for column, _, dtype in DIE_CHANNELS:
            self._ring[column] = np.zeros((self.window, n), dtype=dtype)
            sum_dtype = (
                np.int64 if np.issubdtype(np.dtype(dtype), np.integer)
                else float
            )
            self._sums[column] = np.zeros(n, dtype=sum_dtype)
            if sum_dtype is np.int64:
                self._mins[column] = np.full(
                    n, np.iinfo(np.dtype(dtype)).max, dtype=dtype
                )
                self._maxs[column] = np.full(
                    n, np.iinfo(np.dtype(dtype)).min, dtype=dtype
                )
            else:
                self._mins[column] = np.full(n, np.inf, dtype=float)
                self._maxs[column] = np.full(n, -np.inf, dtype=float)
        self.settle_cycle = np.zeros(n, dtype=np.int64)
        self.settle_time = np.zeros(n, dtype=float)
        self.violation_cycles = np.zeros(n, dtype=np.int64)
        self._bind()

    def __getstate__(self) -> dict:
        """Serialise without the per-run binding caches.

        Process-fleet workers return their shard sinks by pickling; the
        bindings only alias the reducer arrays (and would pickle fine),
        but dropping them keeps the payload lean and guarantees the
        parent re-binds against *its* arrays on the next ``begin``.
        """
        state = dict(self.__dict__)
        state["_bindings"] = ()
        state["_mask"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        if self.n is not None:
            self._bind()

    def record(self, row: Dict[str, np.ndarray]) -> None:
        slot = self.cycles % self.window
        self._ring_times[slot] = row["time"]
        for key, ring, sums, mins, maxs in self._bindings:
            values = row[key]
            ring[slot] = values
            sums += values
            np.minimum(mins, values, out=mins)
            np.maximum(maxs, values, out=maxs)
        mask = self._mask
        np.not_equal(row["decision"], DECISION_HOLD, out=mask)
        np.copyto(self.settle_cycle, self.cycles + 1, where=mask)
        np.copyto(self.settle_time, row["time"], where=mask)
        np.greater(row["samples_dropped"], 0, out=mask)
        self.violation_cycles += mask
        self.last_time = float(row["time"])
        self.cycles += 1

    def result(self) -> "StreamingTrace":
        return self

    # ------------------------------------------------------------------
    # Reducer accessors (all return per-die ``(N,)`` arrays)
    # ------------------------------------------------------------------
    def _check(self, channel: str) -> None:
        if self.cycles == 0:
            raise ValueError("no cycles recorded yet")
        if channel not in self._sums:
            raise KeyError(f"unknown telemetry channel {channel!r}")

    def total(self, channel: str) -> np.ndarray:
        """Return the running per-die sum of a channel."""
        self._check(channel)
        return self._sums[channel].copy()

    def mean(self, channel: str) -> np.ndarray:
        """Return the per-die mean of a channel over all recorded cycles."""
        self._check(channel)
        return self._sums[channel] / self.cycles

    def minimum(self, channel: str) -> np.ndarray:
        """Return the per-die minimum of a channel."""
        self._check(channel)
        return self._mins[channel].copy()

    def maximum(self, channel: str) -> np.ndarray:
        """Return the per-die maximum of a channel."""
        self._check(channel)
        return self._maxs[channel].copy()

    def last(self, channel: str) -> np.ndarray:
        """Return the most recent row of a channel."""
        self._check(channel)
        return self._ring[channel][(self.cycles - 1) % self.window].copy()

    def tail(self, channel: str) -> np.ndarray:
        """Return the buffered rows of a channel in chronological order."""
        self._check(channel)
        count = min(self.cycles, self.window)
        index = np.arange(self.cycles - count, self.cycles) % self.window
        return self._ring[channel][index]

    def tail_times(self) -> np.ndarray:
        """Return the timestamps of the buffered rows."""
        if self.cycles == 0:
            raise ValueError("no cycles recorded yet")
        count = min(self.cycles, self.window)
        index = np.arange(self.cycles - count, self.cycles) % self.window
        return self._ring_times[index]

    def final_voltage(self, cycles: int = 8) -> np.ndarray:
        """Return the mean tail output voltage per die (``(N,)``)."""
        return self.tail("output_voltages")[-cycles:].mean(axis=0)

    def final_correction(self) -> np.ndarray:
        """Return the LUT correction at the end of the run (``(N,)``)."""
        return self.last("lut_corrections")

    def energy_per_operation(self) -> np.ndarray:
        """Return the average energy per operation per die (``(N,)``)."""
        return energy_per_operation_arrays(
            self.total("energies"), self.total("operations_completed")
        )

    def die_reducers(self) -> Dict[str, np.ndarray]:
        """Return the standard per-die reducer set as ``(N,)`` arrays.

        This is the sink half of the simulation service's result
        extraction (the other half comes from the ``BatchState`` run
        totals): every reducer is computed per die from this sink's
        online accumulators, so the values are identical however the
        die's population was batched or sharded.  The tail-voltage mean
        is summed row by row rather than via ``np.mean`` — numpy's
        pairwise reduction picks a different addition order for
        different array widths, which would leak the batch size into
        the last ULP of an otherwise composition-independent value.
        """
        if self.cycles == 0:
            raise ValueError("no cycles recorded yet")
        tail = self.tail("output_voltages")[-8:]
        final_voltage = np.zeros(self.n, dtype=float)
        for row in tail:
            final_voltage += row
        final_voltage /= tail.shape[0]
        return {
            "mean_queue_length": self.mean("queue_lengths"),
            "mean_voltage": self.mean("output_voltages"),
            "min_voltage": self.minimum("output_voltages"),
            "max_voltage": self.maximum("output_voltages"),
            "final_voltage": final_voltage,
            "settle_cycle": self.settle_cycle.copy(),
            "violation_cycles": self.violation_cycles.copy(),
            "energy_per_operation": self.energy_per_operation(),
        }

    def buffer_bytes(self) -> int:
        """Return the bytes held by the ring buffers and reducers.

        This is the (fixed) telemetry footprint of an arbitrarily long
        run — the number the long-run benchmark compares against
        :meth:`BatchTrace.required_bytes`.
        """
        if self.n is None:
            return 0
        total = self._ring_times.nbytes
        for store in (self._ring, self._sums, self._mins, self._maxs):
            # repro: allow[RL003] nbytes are ints — integer addition is exact and order-independent
            total += sum(array.nbytes for array in store.values())
        for array in (
            self.settle_cycle, self.settle_time, self.violation_cycles
        ):
            total += array.nbytes
        return total

    @classmethod
    def merge_dies(
        cls, sinks: Sequence["StreamingTrace"]
    ) -> "StreamingTrace":
        """Merge per-shard sinks of one fleet run (deterministic order)."""
        sinks = list(sinks)
        if not sinks:
            raise ValueError("sinks must not be empty")
        first = sinks[0]
        if any(
            s.cycles != first.cycles or s.window != first.window
            for s in sinks
        ):
            raise ValueError("shard sinks must share cycles and window")
        merged = cls(window=first.window)
        merged.n = sum(s.n for s in sinks)
        merged.cycles = first.cycles
        merged.last_time = first.last_time
        merged._ring_times = first._ring_times.copy()
        for column, _, _ in DIE_CHANNELS:
            merged._ring[column] = np.concatenate(
                [s._ring[column] for s in sinks], axis=1
            )
            merged._sums[column] = np.concatenate(
                [s._sums[column] for s in sinks]
            )
            merged._mins[column] = np.concatenate(
                [s._mins[column] for s in sinks]
            )
            merged._maxs[column] = np.concatenate(
                [s._maxs[column] for s in sinks]
            )
        merged.settle_cycle = np.concatenate([s.settle_cycle for s in sinks])
        merged.settle_time = np.concatenate([s.settle_time for s in sinks])
        merged.violation_cycles = np.concatenate(
            [s.violation_cycles for s in sinks]
        )
        return merged


class NullTrace(TraceSink):
    """Discard all telemetry (run totals remain on the engine state)."""

    def __init__(self) -> None:
        self.cycles = 0
        self.n: Optional[int] = None

    def begin(self, cycles: int, n: int) -> None:
        self.n = int(n) if self.n is None else self.n

    def record(self, row: Dict[str, np.ndarray]) -> None:
        self.cycles += 1

    def result(self) -> None:
        return None


def make_sink(mode: str, stream_window: int = 64) -> TraceSink:
    """Build the sink for a fleet telemetry mode.

    The single mode-to-sink mapping shared by the serial fleet (parent
    side) and the process fleet (worker side), so the two backends
    cannot drift apart on telemetry construction.
    """
    if mode == "dense":
        return DenseTrace()
    if mode == "streaming":
        return StreamingTrace(window=stream_window)
    if mode == "null":
        return NullTrace()
    raise ValueError(f"unknown telemetry mode {mode!r}")
