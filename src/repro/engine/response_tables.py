"""Tabulated device response: per-die interpolants over a supply grid.

Inside the closed-loop cycle the engine only ever asks the device stack
four questions, each a smooth per-die function of the present supply:

* ``current_draw(v)`` — the load current inside the buck integration
  (asked 8x per system cycle, one per substep),
* ``cycle_time(v)`` — the critical-path time that bounds operations,
* ``leakage_current(v)`` and ``dynamic_energy(v)`` — the energy
  accounting terms.

The exact answers run the full EKV pipeline (``exp``/``logaddexp``-heavy
:mod:`repro.engine.device_math`) every cycle.  :class:`ResponseTables`
instead evaluates each question **once** per die on a dense uniform
supply grid at engine-construction time and answers cycle-time queries
with piecewise-linear interpolation — a dozen cheap elementwise ops
instead of the full device solve.  With the default 1024-point grid the
tables agree with the exact model to ~1e-4 relative everywhere the loop
operates (the subthreshold exponential is locally near-linear at a
~1 mV grid step); ``tests/engine/test_response_tables.py`` pins the
closed-loop consequences (MEP supply within one grid step, final
voltages within rtol, identical converged LUT corrections).

The build is the fast tier's up-front cost.  One fused EKV pass over
the grid (``BatchEnergyModel._fused_queries``) answers ``cycle_time``
and ``leakage_current`` and feeds ``current_draw``; every TDC step edge
is bisected on the replica cell.  Both builds run over cache-sized
blocks of dies, and every table is bit-identical to evaluating the
exact model on the whole grid at once.  On a 2-vCPU Xeon VM a build
costs about 130 exact cycles at 512 dies and 225 at 4096, so a
tabulated run pays it back after horizons of about 180 and 360 cycles
(ARCHITECTURE.md gives the method).  The service and
``FleetEngine.reset(population=...)`` rebuild the tables on every
population swap.

Selection is per engine: ``BatchEngine(..., device_model="tabulated")``
opts in; ``"exact"`` (the default) routes the same four questions
through :class:`ExactDeviceResponse`, a thin adapter over
:class:`~repro.engine.device_math.BatchEnergyModel` that preserves the
scalar stack's bit-exact operation order.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.engine.device_math import BatchEnergyModel

DEFAULT_TABLE_POINTS = 1024
"""Supply-grid points per die in a :class:`ResponseTables` instance."""

_RESPONSE_CHANNELS = (
    "current_draw", "cycle_time", "leakage_current", "dynamic_energy"
)

_BLOCK_ELEMENTS = 1 << 15
"""Elements per float64 temporary of the blocked table builds (256 KiB).

Both builds evaluate ``_BLOCK_ELEMENTS // width`` dies at a time (32
rows of the default 1024-point grid, 504 rows of the default 65 TDC
thresholds), so a block's temporaries stay cache-sized instead of
streaming ``(N, width)`` arrays through memory."""


def _row_blocks(n: int, width: int):
    """Yield the row slices of an ``(n, width)`` build, one per block."""
    rows = max(1, _BLOCK_ELEMENTS // width)
    for start in range(0, n, rows):
        yield slice(start, min(start + rows, n))


class ExactDeviceResponse:
    """The ``device_model="exact"`` response: direct EKV evaluation.

    Adapter giving :class:`BatchEnergyModel` the same four-method
    surface as :class:`ResponseTables` so the fused cycle kernel is
    agnostic to the device model.  ``out`` arguments are accepted for
    interface parity but ignored — the exact pipeline allocates its own
    intermediates, which is precisely what keeps it bit-identical to
    the legacy step implementation.
    """

    def __init__(
        self,
        energy: BatchEnergyModel,
        temperature_c: float,
        nominal_throughput: Optional[float] = None,
    ) -> None:
        self.energy = energy
        self.temperature_c = float(temperature_c)
        self.nominal_throughput = nominal_throughput

    @property
    def n(self) -> int:
        """Return the population size."""
        return self.energy.n

    def current_draw(self, supply, out=None) -> np.ndarray:
        """Load current drawn from the converter (amperes)."""
        return self.energy.current_draw(
            supply,
            self.temperature_c,
            operations_per_second=self.nominal_throughput,
        )

    def cycle_time(self, supply, out=None) -> np.ndarray:
        """Critical-path (cycle) time of the load (seconds)."""
        return self.energy.cycle_time(supply, self.temperature_c)

    def leakage_current(self, supply, out=None) -> np.ndarray:
        """Total load leakage current (amperes)."""
        return self.energy.leakage_current(supply, self.temperature_c)

    def dynamic_energy(self, supply, out=None) -> np.ndarray:
        """Switched-capacitance energy per operation (joules)."""
        return self.energy.dynamic_energy(supply)


class TdcCodeTables:
    """Exact tabulated TDC readout: per-die supply breakpoints.

    The TDC measurement chain is an **integer staircase** in the output
    voltage: ``counts = min(max_count, floor(window / cell_delay(v)))``
    is a nondecreasing step function of ``v`` (the replica delay is
    strictly decreasing in supply), and the calibration inversion
    ``argmin |expected_counts - counts|`` maps counts onto a
    nondecreasing code staircase.  Instead of interpolating (which would
    smear the integer steps), this table *bisects the exact step
    positions once per die*: the supply at which each code increment and
    each reliability bound (``counts > 0``, ``counts < max_count``)
    fires.  A per-cycle readout is then one vectorised
    breakpoint-count — identical to the exact path everywhere except
    within one float ULP of a step edge.
    """

    _BISECT_ITERATIONS = 60
    _V_FLOOR = 1e-3

    def __init__(
        self,
        sensor,
        temperature_c: float,
        tdc_config,
        expected_counts: np.ndarray,
        v_max: float,
    ) -> None:
        expected = np.asarray(expected_counts, dtype=float)
        levels = expected.shape[0]
        window = tdc_config.measurement_window
        max_count = tdc_config.max_count
        self.minimum_supply = float(tdc_config.minimum_supply)
        n = sensor.n
        # Shared count -> code map (vectorised TdcCalibration inversion,
        # first match on ties exactly like np.argmin in the scalar path).
        counts_axis = np.arange(max_count + 1, dtype=float)
        code_of_count = np.argmin(
            np.abs(expected[np.newaxis, :] - counts_axis[:, np.newaxis]),
            axis=1,
        )
        if np.any(np.diff(code_of_count) < 0):
            raise ValueError(
                "expected_counts must map counts onto a nondecreasing "
                "code staircase to be tabulated"
            )
        self.base_code = int(code_of_count[0])
        # Count threshold of each code increment (first count whose code
        # reaches j), plus the two reliability thresholds.
        code_thresholds = np.searchsorted(
            code_of_count,
            np.arange(self.base_code + 1, levels),
            side="left",
        )
        thresholds = np.concatenate(
            [code_thresholds, [1, max_count]]
        ).astype(float)
        # Bisect v where floor(window / cell(v)) first reaches each
        # threshold t, i.e. where cell(v) <= window / t.  t == 0 means
        # "always reached"; t > max_count means "never reached" — the
        # exact path clamps counts at max_count, so codes whose expected
        # count lies beyond the counter's ceiling can never fire
        # (searchsorted returns max_count + 1 for them).
        always_on = thresholds <= 0
        never_on = thresholds > max_count
        reachable = ~always_on & ~never_on
        delay_bounds = np.where(
            reachable, window / np.maximum(thresholds, 1), np.inf
        )

        def crossed(block, supply):
            cell = block.stage_delay_inv_nor(
                supply, temperature_c=temperature_c
            )
            return cell <= delay_bounds

        v_ceiling = max(float(v_max), 1.0)
        breaks = np.empty((n, thresholds.size))
        for rows in _row_blocks(n, thresholds.size):
            block = sensor.shard(rows)
            shape = (rows.stop - rows.start, thresholds.size)
            lo = np.full(shape, self._V_FLOOR)
            hi = np.full(shape, v_ceiling)
            mid = np.empty(shape)
            at_floor = crossed(block, lo)
            at_ceiling = crossed(block, hi)
            # In place, but every element takes the same bisection path
            # as an unblocked mid = 0.5 * (lo + hi) with np.where updates.
            for _ in range(self._BISECT_ITERATIONS):
                np.multiply(0.5, np.add(lo, hi, out=mid), out=mid)
                hit = crossed(block, mid)
                np.copyto(hi, mid, where=hit)
                np.copyto(lo, mid, where=~hit)
            hi[at_floor] = -np.inf      # step sits below the search floor
            hi[~at_ceiling] = np.inf    # step never fires in range
            breaks[rows] = hi
        breaks[:, always_on] = -np.inf
        breaks[:, never_on] = np.inf
        self.code_breaks = np.ascontiguousarray(breaks[:, :-2])
        self.positive_break = np.ascontiguousarray(breaks[:, -2])
        self.saturation_break = np.ascontiguousarray(breaks[:, -1])
        self._init_lookup(n)

    def _init_lookup(self, n: int) -> None:
        self.n = int(n)
        self._cmp = np.empty(self.code_breaks.shape, dtype=bool)
        self._codes = np.empty(self.n, dtype=np.int64)
        self._reliable = np.empty(self.n, dtype=bool)
        self._flag = np.empty(self.n, dtype=bool)

    def shard(self, index: slice) -> "TdcCodeTables":
        """Return a contiguous die shard of these breakpoints (views)."""
        return TdcCodeTables.adopt(
            code_breaks=self.code_breaks[index],
            positive_break=self.positive_break[index],
            saturation_break=self.saturation_break[index],
            minimum_supply=self.minimum_supply,
            base_code=self.base_code,
        )

    @classmethod
    def adopt(
        cls,
        *,
        code_breaks: np.ndarray,
        positive_break: np.ndarray,
        saturation_break: np.ndarray,
        minimum_supply: float,
        base_code: int,
    ) -> "TdcCodeTables":
        """Wrap already-computed breakpoint arrays (no bisection).

        Used by :meth:`shard` and by process-fleet workers attaching the
        parent's breakpoints through shared memory — the arrays are
        adopted as views, never copied.
        """
        tables = object.__new__(cls)
        tables.minimum_supply = float(minimum_supply)
        tables.base_code = int(base_code)
        tables.code_breaks = code_breaks
        tables.positive_break = positive_break
        tables.saturation_break = saturation_break
        tables._init_lookup(code_breaks.shape[0])
        return tables

    def lookup(self, vout: np.ndarray):
        """Return ``(codes, reliable)`` for the present output voltage.

        Both returned arrays are internal buffers overwritten by the
        next call.
        """
        np.greater_equal(
            vout[:, np.newaxis], self.code_breaks, out=self._cmp
        )
        np.sum(self._cmp, axis=1, dtype=np.int64, out=self._codes)
        if self.base_code:
            self._codes += self.base_code
        reliable = np.greater_equal(
            vout, self.minimum_supply, out=self._reliable
        )
        flag = np.greater_equal(vout, self.positive_break, out=self._flag)
        np.logical_and(reliable, flag, out=reliable)
        np.less(vout, self.saturation_break, out=flag)
        np.logical_and(reliable, flag, out=reliable)
        # Below the replica's minimum supply the exact path reads
        # counts = 0, i.e. the base code — mirror that so even unmasked
        # consumers (delay-servo sensing) agree with the exact staircase.
        stalled = np.less(vout, self.minimum_supply, out=self._flag)
        np.copyto(self._codes, self.base_code, where=stalled)
        return self._codes, reliable


class ResponseTables:
    """Per-die piecewise-linear device response over a supply grid.

    Tables are ``(N, points)`` arrays over a shared uniform grid
    ``[0, v_max]``; queries are ``(N,)`` supply vectors (one operating
    point per die) answered with in-place linear interpolation into a
    caller-provided ``out`` array.  Instances are immutable after
    construction and may be sharded into per-worker row views
    (:meth:`shard`), so a fleet builds the tables **once** for the full
    population.
    """

    def __init__(
        self,
        energy: BatchEnergyModel,
        temperature_c: float,
        nominal_throughput: Optional[float] = None,
        points: int = DEFAULT_TABLE_POINTS,
        v_max: Optional[float] = None,
    ) -> None:
        if points < 8:
            raise ValueError("the supply grid needs at least 8 points")
        self.temperature_c = float(temperature_c)
        self.nominal_throughput = nominal_throughput
        self.points = int(points)
        # The loop queries vout (clamped to [0, battery_voltage]) and the
        # `safe` sentinel 1.0 used on unpowered dies, so the grid must
        # cover both.
        self.v_max = max(1.0, float(v_max) if v_max is not None else 1.0)
        grid = np.linspace(0.0, self.v_max, self.points)
        self.grid = grid
        n = energy.n
        # cycle_time refuses non-positive supplies; evaluate the v=0
        # column at the first positive grid point instead (the loop only
        # asks for cycle_time above the 50 mV runnable floor, so the
        # first cell's flat extrapolation is never observed).
        positive = np.where(grid > 0.0, grid, grid[1])
        self._tables = {
            name: np.empty((n, self.points)) for name in _RESPONSE_CHANNELS
        }
        for rows in _row_blocks(n, self.points):
            block = BatchEnergyModel(energy.devices.shard(rows), energy.load)
            count = rows.stop - rows.start
            positive_supply = np.broadcast_to(positive, (count, self.points))
            # One fused EKV pass answers cycle_time and leakage_current
            # (bit-identical to the standalone methods) and feeds
            # current_draw, whose positive supplies are the same points.
            cycle_time, leakage = block._fused_queries(
                positive_supply, self.temperature_c
            )
            dynamic = block.dynamic_energy(
                np.broadcast_to(grid, (count, self.points))
            )
            draw = block._positive_current_draw(
                positive_supply,
                dynamic,
                cycle_time,
                leakage,
                nominal_throughput,
            )
            # The grid starts at v = 0, where current_draw's
            # non-positive-supply guard answers 0.0.
            draw[:, 0] = 0.0
            self._tables["current_draw"][rows] = draw
            self._tables["cycle_time"][rows] = cycle_time
            self._tables["leakage_current"][rows] = leakage
            self._tables["dynamic_energy"][rows] = dynamic
        self.short_circuit_fraction = float(
            energy.load.short_circuit_fraction
        )
        self.tdc: Optional[TdcCodeTables] = None
        self._init_lookup(n)

    def _init_lookup(self, n: int) -> None:
        self.n = int(n)
        self._inv_dv = (self.points - 1) / self.v_max
        self._flat = {
            name: table.reshape(-1) for name, table in self._tables.items()
        }
        self._offsets = np.arange(self.n, dtype=np.int64) * self.points
        # Lookup scratch (reused every query; queries are always (N,)).
        self._pos = np.empty(self.n, dtype=float)
        self._idx = np.empty(self.n, dtype=np.int64)
        self._right = np.empty(self.n, dtype=float)

    @classmethod
    def from_population(
        cls,
        population,
        config,
        nominal_throughput: Optional[float] = None,
        points: Optional[int] = None,
    ) -> "ResponseTables":
        """Build the tables a :class:`BatchEngine` run needs.

        The grid spans the power stage's reachable output range (plus
        the ``safe`` sentinel), so every in-loop query interpolates —
        never extrapolates.  When the population carries a reference
        calibration table, the TDC readout staircase is tabulated too
        (:class:`TdcCodeTables` — exact step positions, so the
        compensation path converges to the same LUT corrections).
        """
        tables = cls(
            population.energy,
            population.temperature_c,
            nominal_throughput=nominal_throughput,
            points=DEFAULT_TABLE_POINTS if points is None else int(points),
            v_max=config.power_stage.battery_voltage,
        )
        if population.expected_counts is not None:
            tables.tdc = TdcCodeTables(
                population.sensor_devices,
                population.temperature_c,
                config.tdc,
                population.expected_counts,
                v_max=config.power_stage.battery_voltage,
            )
        return tables

    def shard(self, index: slice) -> "ResponseTables":
        """Return a contiguous die shard of these tables (row views).

        Row slices of C-contiguous tables stay contiguous, so the shard
        shares table memory with the parent — a fleet pays the build
        cost once regardless of worker count.
        """
        return ResponseTables.adopt(
            {name: table[index] for name, table in self._tables.items()},
            temperature_c=self.temperature_c,
            nominal_throughput=self.nominal_throughput,
            points=self.points,
            v_max=self.v_max,
            short_circuit_fraction=self.short_circuit_fraction,
            tdc=None if self.tdc is None else self.tdc.shard(index),
        )

    @classmethod
    def adopt(
        cls,
        tables: dict,
        *,
        temperature_c: float,
        nominal_throughput: Optional[float],
        points: int,
        v_max: float,
        short_circuit_fraction: float,
        tdc: Optional[TdcCodeTables] = None,
    ) -> "ResponseTables":
        """Wrap already-evaluated channel tables (no device evaluation).

        ``tables`` maps every channel in ``_RESPONSE_CHANNELS`` to its
        ``(N, points)`` array; the arrays are adopted as-is (views into
        the parent's tables, or into a shared-memory block for process
        workers) and must be C-contiguous rows so the flat-index lookup
        can reshape them without copying.
        """
        missing = [c for c in _RESPONSE_CHANNELS if c not in tables]
        if missing:
            raise ValueError(f"missing response channels: {missing}")
        adopted = object.__new__(cls)
        adopted.temperature_c = float(temperature_c)
        adopted.nominal_throughput = nominal_throughput
        adopted.points = int(points)
        adopted.v_max = float(v_max)
        adopted.grid = np.linspace(0.0, adopted.v_max, adopted.points)
        adopted._tables = {c: tables[c] for c in _RESPONSE_CHANNELS}
        adopted.short_circuit_fraction = float(short_circuit_fraction)
        adopted.tdc = tdc
        adopted._init_lookup(adopted._tables["current_draw"].shape[0])
        return adopted

    # ------------------------------------------------------------------
    # In-loop lookups (one (N,) query per call, answered into `out`)
    # ------------------------------------------------------------------
    def _lookup(self, flat_table: np.ndarray, supply, out: np.ndarray):
        # Raw ufuncs and the ndarray.take method throughout: the
        # np.clip/np.take convenience wrappers cost more dispatch time
        # than the 512-element kernels they launch.
        pos, idx, right = self._pos, self._idx, self._right
        np.multiply(supply, self._inv_dv, out=pos)
        np.maximum(pos, 0.0, out=pos)
        np.minimum(pos, self.points - 1, out=pos)
        np.copyto(idx, pos, casting="unsafe")  # trunc == floor (pos >= 0)
        np.minimum(idx, self.points - 2, out=idx)
        frac = np.subtract(pos, idx, out=pos)
        np.add(idx, self._offsets, out=idx)
        flat_table.take(idx, out=out)
        idx += 1
        flat_table.take(idx, out=right)
        np.subtract(right, out, out=right)
        right *= frac
        out += right
        return out

    def current_draw(self, supply, out=None) -> np.ndarray:
        """Interpolated load current (amperes)."""
        if out is None:
            out = np.empty(self.n, dtype=float)
        return self._lookup(self._flat["current_draw"], supply, out)

    def cycle_time(self, supply, out=None) -> np.ndarray:
        """Interpolated critical-path time (seconds)."""
        if out is None:
            out = np.empty(self.n, dtype=float)
        return self._lookup(self._flat["cycle_time"], supply, out)

    def leakage_current(self, supply, out=None) -> np.ndarray:
        """Interpolated load leakage current (amperes)."""
        if out is None:
            out = np.empty(self.n, dtype=float)
        return self._lookup(self._flat["leakage_current"], supply, out)

    def dynamic_energy(self, supply, out=None) -> np.ndarray:
        """Interpolated per-operation switching energy (joules)."""
        if out is None:
            out = np.empty(self.n, dtype=float)
        return self._lookup(self._flat["dynamic_energy"], supply, out)

    # ------------------------------------------------------------------
    # Diagnostics (allocating, grid-shaped — parity tests and MEP checks)
    # ------------------------------------------------------------------
    def evaluate(self, channel: str, supply) -> np.ndarray:
        """Interpolate a channel on arbitrary ``(N,)``/``(N, S)`` supplies."""
        if channel not in _RESPONSE_CHANNELS:
            raise KeyError(f"unknown response channel {channel!r}")
        table = self._tables[channel]
        supply_arr = np.asarray(supply, dtype=float)
        pos = np.clip(supply_arr * self._inv_dv, 0.0, self.points - 1)
        idx = np.minimum(pos.astype(np.int64), self.points - 2)
        frac = pos - idx
        left = np.take_along_axis(
            table, idx.reshape(self.n, -1), axis=1
        ).reshape(idx.shape)
        right = np.take_along_axis(
            table, (idx + 1).reshape(self.n, -1), axis=1
        ).reshape(idx.shape)
        return left + frac * (right - left)

    def total_energy(self, supply) -> np.ndarray:
        """Per-cycle total energy from the tables (joules).

        Same composition as :meth:`BatchEnergyModel.total_energy`; used
        by the parity tests to check that the tabulated minimum energy
        point lands within one grid step of the exact one.
        """
        supply_arr = np.asarray(supply, dtype=float)
        dynamic = self.evaluate("dynamic_energy", supply_arr)
        leakage = (
            supply_arr
            * self.evaluate("leakage_current", supply_arr)
            * self.evaluate("cycle_time", supply_arr)
        )
        return dynamic * (1.0 + self.short_circuit_fraction) + leakage

    def table_bytes(self) -> int:
        """Return the memory held by the response tables."""
        # repro: allow[RL003] nbytes are ints — integer addition is exact and order-independent
        return sum(table.nbytes for table in self._tables.values())
