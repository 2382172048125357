"""The variation-resilient adaptive controller (paper Fig. 5).

:class:`AdaptiveController` closes the full loop of the paper:

``input data -> FIFO -> rate controller (LUT) -> DC-DC converter
(TDC + comparator + PWM + power stage) -> load -> FIFO drain``

plus the variation-compensation path: the TDC signature measured on the
*actual* silicon is compared against the design-reference calibration
and any persistent shift is written back into the LUT, so the supply the
rate controller requests lands on the minimum energy point of the
silicon actually fabricated (the paper's slow-corner example: the
typical-corner 200 mV entry is corrected to ~218.75 mV).

The controller advances in system cycles (1 us with the published
64 MHz / 6-bit configuration).  Each cycle it moves input samples into
the FIFO, lets the load drain as many samples as its supply allows,
regulates the DC-DC output one step, and accumulates load energy.

Since the :mod:`repro.engine` refactor the cycle loop itself lives in
the vectorised :class:`~repro.engine.engine.BatchEngine`; this class is
a batch-of-one wrapper that seeds the engine from its component state,
runs it, and hands the resulting state back to the scalar components:
FIFO occupancy and statistics, LUT correction history, DC-DC registers,
clock and filter state, and comparator decision counters all end a run
exactly where :meth:`run_reference` would leave them.  The private
signature-vote list comes back as its trailing run of equal votes (at
most K), which decides every later correction exactly as the full list
would.  One deliberate exception: engine-backed runs do not append
per-cycle ``DcDcCycleRecord`` objects to ``controller.dcdc.records``
(that per-object telemetry is exactly the overhead the engine removes)
— the returned :class:`ControllerTrace` carries the per-cycle telemetry
instead.  The original pure-Python loops survive as
:meth:`run_reference` / :meth:`run_schedule_reference`: the engine's
physics oracle, which every engine run matches bit for bit
(``tests/engine``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.circuits.loads import DigitalLoad
from repro.core.comparator import ComparatorDecision
from repro.core.config import ControllerConfig
from repro.core.dcdc import DcDcConverter, FeedbackMode
from repro.core.lut import VoltageLut
from repro.core.rate_controller import RateController
from repro.core.tdc import TdcCalibration, TimeToDigitalConverter
from repro.delay.gate_delay import GateDelayModel
from repro.digital.fifo import Fifo
from repro.digital.signals import code_to_voltage
from repro.spice.waveform import Waveform

ArrivalFunction = Callable[[float, float], int]

_DECISION_TO_INT = {
    ComparatorDecision.UP: 1,
    ComparatorDecision.HOLD: 0,
    ComparatorDecision.DOWN: -1,
}
_INT_TO_DECISION = {value: key for key, value in _DECISION_TO_INT.items()}


@dataclass
class ControllerCycleRecord:
    """Telemetry of one controller system cycle."""

    time: float
    queue_length: int
    desired_code: int
    output_voltage: float
    duty_value: int
    operations_completed: int
    samples_dropped: int
    energy_joules: float
    lut_correction: int
    decision: ComparatorDecision


_TRACE_COLUMNS = (
    ("times", float),
    ("queue_lengths", np.int64),
    ("desired_codes", np.int64),
    ("output_voltages", float),
    ("duty_values", np.int64),
    ("operations_completed", np.int64),
    ("samples_dropped", np.int64),
    ("energies", float),
    ("lut_corrections", np.int64),
    ("decisions", np.int8),
)


class ControllerTrace:
    """Full telemetry of a controller run, stored as columnar arrays.

    Telemetry is recorded once into preallocated numpy columns (one per
    channel); every array-valued property returns the stored column
    directly instead of rebuilding ``np.array([r.x for r in records])``
    per access.  The legacy per-cycle :class:`ControllerCycleRecord` view
    is materialised lazily through :attr:`records`.
    """

    def __init__(
        self, records: Optional[Sequence[ControllerCycleRecord]] = None
    ) -> None:
        records = list(records) if records else []
        self._columns: Dict[str, np.ndarray] = {
            "times": np.array([r.time for r in records], dtype=float),
            "queue_lengths": np.array(
                [r.queue_length for r in records], dtype=np.int64
            ),
            "desired_codes": np.array(
                [r.desired_code for r in records], dtype=np.int64
            ),
            "output_voltages": np.array(
                [r.output_voltage for r in records], dtype=float
            ),
            "duty_values": np.array(
                [r.duty_value for r in records], dtype=np.int64
            ),
            "operations_completed": np.array(
                [r.operations_completed for r in records], dtype=np.int64
            ),
            "samples_dropped": np.array(
                [r.samples_dropped for r in records], dtype=np.int64
            ),
            "energies": np.array(
                [r.energy_joules for r in records], dtype=float
            ),
            "lut_corrections": np.array(
                [r.lut_correction for r in records], dtype=np.int64
            ),
            "decisions": np.array(
                [_DECISION_TO_INT[r.decision] for r in records], dtype=np.int8
            ),
        }
        self._freeze()
        self._records: Optional[Tuple[ControllerCycleRecord, ...]] = (
            tuple(records) if records else None
        )

    @classmethod
    def from_columns(cls, **columns: np.ndarray) -> "ControllerTrace":
        """Build a trace directly from telemetry columns (no record objects)."""
        trace = cls.__new__(cls)
        length = None
        store: Dict[str, np.ndarray] = {}
        for name, dtype in _TRACE_COLUMNS:
            if name not in columns:
                raise ValueError(f"missing trace column {name!r}")
            array = np.array(columns[name], dtype=dtype)
            if length is None:
                length = array.shape[0]
            elif array.shape[0] != length:
                raise ValueError("trace columns must have equal length")
            store[name] = array
        trace._columns = store
        trace._freeze()
        trace._records = None
        return trace

    def _freeze(self) -> None:
        """Mark the stored columns read-only.

        The array properties hand out the stored columns directly (no
        per-access rebuild), so in-place mutation by a caller would
        corrupt the trace; freezing turns that into a loud ValueError.
        Callers that want a scratch array take a ``.copy()``.
        """
        for column in self._columns.values():
            column.setflags(write=False)

    def __len__(self) -> int:
        return int(self._columns["times"].shape[0])

    # ------------------------------------------------------------------
    # Columnar channels
    # ------------------------------------------------------------------
    @property
    def records(self) -> Tuple[ControllerCycleRecord, ...]:
        """Return the per-cycle record view (materialised lazily, cached).

        Returned as a tuple: the columnar arrays are the single source of
        truth, so appending to this view cannot silently desync it —
        mutation attempts fail loudly instead.
        """
        if self._records is None:
            c = self._columns
            self._records = tuple(
                ControllerCycleRecord(
                    time=float(c["times"][i]),
                    queue_length=int(c["queue_lengths"][i]),
                    desired_code=int(c["desired_codes"][i]),
                    output_voltage=float(c["output_voltages"][i]),
                    duty_value=int(c["duty_values"][i]),
                    operations_completed=int(c["operations_completed"][i]),
                    samples_dropped=int(c["samples_dropped"][i]),
                    energy_joules=float(c["energies"][i]),
                    lut_correction=int(c["lut_corrections"][i]),
                    decision=_INT_TO_DECISION[int(c["decisions"][i])],
                )
                for i in range(len(self))
            )
        return self._records

    @property
    def times(self) -> np.ndarray:
        """Return the per-cycle timestamps (seconds)."""
        return self._columns["times"]

    @property
    def output_voltages(self) -> np.ndarray:
        """Return the DC-DC output voltage per cycle."""
        return self._columns["output_voltages"]

    @property
    def desired_codes(self) -> np.ndarray:
        """Return the desired-voltage word per cycle."""
        return self._columns["desired_codes"]

    @property
    def queue_lengths(self) -> np.ndarray:
        """Return the FIFO queue length per cycle."""
        return self._columns["queue_lengths"]

    @property
    def duty_values(self) -> np.ndarray:
        """Return the PWM duty register value per cycle."""
        return self._columns["duty_values"]

    @property
    def operations(self) -> np.ndarray:
        """Return the completed load operations per cycle."""
        return self._columns["operations_completed"]

    @property
    def samples_dropped(self) -> np.ndarray:
        """Return the input samples lost to FIFO overflow per cycle."""
        return self._columns["samples_dropped"]

    @property
    def energies(self) -> np.ndarray:
        """Return the load energy per cycle (joules)."""
        return self._columns["energies"]

    @property
    def lut_corrections(self) -> np.ndarray:
        """Return the LUT correction in effect per cycle (LSBs)."""
        return self._columns["lut_corrections"]

    @property
    def decisions(self) -> np.ndarray:
        """Return the comparator decision per cycle encoded as +1/0/-1."""
        return self._columns["decisions"]

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def voltage_waveform(self) -> Waveform:
        """Return the output voltage as a measurable waveform."""
        return Waveform(self.times, self.output_voltages, name="v_out")

    def total_energy(self) -> float:
        """Return the total load energy consumed (joules)."""
        return float(self._columns["energies"].sum())

    def total_operations(self) -> int:
        """Return how many load operations completed."""
        return int(self._columns["operations_completed"].sum())

    def total_drops(self) -> int:
        """Return how many input samples were lost to FIFO overflow."""
        return int(self._columns["samples_dropped"].sum())

    def energy_per_operation(self) -> float:
        """Return the average energy per completed operation (joules)."""
        operations = self.total_operations()
        if operations == 0:
            return float("nan")
        return self.total_energy() / operations

    def final_voltage(self, cycles: int = 8) -> float:
        """Return the mean output voltage over the last ``cycles`` cycles."""
        if len(self) == 0:
            raise ValueError("trace is empty")
        tail = self.output_voltages[-cycles:]
        return float(tail.mean())

    def final_correction(self) -> int:
        """Return the LUT correction in effect at the end of the run."""
        if len(self) == 0:
            return 0
        return int(self._columns["lut_corrections"][-1])

    def segment(self, start_time: float, stop_time: float) -> "ControllerTrace":
        """Return the sub-trace between two times."""
        times = self._columns["times"]
        mask = (times >= start_time) & (times <= stop_time)
        return ControllerTrace.from_columns(
            **{name: column[mask] for name, column in self._columns.items()}
        )


class AdaptiveController:
    """Closed-loop, variation-resilient adaptive supply controller."""

    def __init__(
        self,
        load: DigitalLoad,
        lut: VoltageLut,
        reference_delay_model: GateDelayModel,
        config: Optional[ControllerConfig] = None,
        compensation_enabled: bool = True,
        feedback_mode: FeedbackMode = FeedbackMode.VOLTAGE_SENSE,
        sensor_delay_model: Optional[GateDelayModel] = None,
        nominal_throughput: Optional[float] = None,
        device_model: str = "exact",
    ) -> None:
        self.config = config or ControllerConfig()
        self.load = load
        self.lut = lut
        self.compensation_enabled = compensation_enabled
        self.nominal_throughput = nominal_throughput
        # "exact" (default) keeps engine-backed runs bit-identical to
        # the reference loops; "tabulated" trades that for interpolated
        # device responses (see repro.engine.response_tables).
        self.device_model = device_model
        self.reference_delay_model = reference_delay_model
        self.fifo = Fifo(depth=self.config.fifo_depth, name="input-fifo")
        self.rate_controller = RateController(lut)
        # The TDC delay replica sits on the *actual* silicon (same die as
        # the load); the calibration table is characterised on the design
        # reference corner.
        replica_model = sensor_delay_model or load.delay_model
        self._replica_model = replica_model
        actual_tdc = TimeToDigitalConverter(
            replica_model, self.config.tdc, temperature_c=load.temperature_c
        )
        reference_tdc = TimeToDigitalConverter(
            reference_delay_model, self.config.tdc,
            temperature_c=load.temperature_c,
        )
        calibration = TdcCalibration(
            reference_tdc,
            resolution_bits=self.config.resolution_bits,
            full_scale=self.config.full_scale_voltage,
        )
        self.dcdc = DcDcConverter(
            config=self.config,
            tdc=actual_tdc,
            calibration=calibration,
            feedback_mode=feedback_mode,
        )
        self._signature_votes: List[int] = []
        self._cycles = 0
        self._work_accumulator = 0.0

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _load_current(self, voltage: float) -> float:
        """Return the load current drawn from the converter at ``voltage``."""
        return self.load.current_draw(voltage, self.nominal_throughput)

    def _operations_possible(self, voltage: float, period: float) -> int:
        """Return how many load operations complete this system cycle.

        Subthreshold operation times (tens of microseconds) are often
        longer than the 1 us system cycle, so fractional progress is
        accumulated across cycles; an operation is counted once a full
        operation's worth of progress has been made.
        """
        if voltage <= 0.05:
            return 0
        cycle_time = self.load.cycle_time(voltage)
        if self.nominal_throughput is not None:
            cycle_time = max(cycle_time, 1.0 / self.nominal_throughput)
        self._work_accumulator += period / cycle_time
        completed = int(self._work_accumulator)
        self._work_accumulator -= completed
        return completed

    def _cycle_energy(
        self, voltage: float, operations: int, period: float
    ) -> float:
        """Return the load energy consumed in one system cycle (joules)."""
        if voltage <= 0:
            return 0.0
        model = self.load.energy_model
        dynamic = (
            model.dynamic_energy(voltage)
            * (1.0 + self.load.characteristics.short_circuit_fraction)
            * operations
        )
        leakage = (
            voltage
            * model.leakage_current(voltage, self.load.temperature_c)
            * period
        )
        return float(dynamic + leakage)

    def _update_compensation(self, desired_code: int, settled: bool) -> None:
        """Evaluate the TDC signature and correct the LUT when persistent.

        Signatures are only collected while the loop is settled and the
        output sits inside the TDC's calibrated subthreshold sensing
        range; a correction is applied once the configured number of
        consecutive signatures agree, and the cumulative correction is
        bounded by ``max_correction_lsb``.
        """
        if not self.compensation_enabled or not settled:
            return
        if self.dcdc.output_voltage > self.config.signature_supply_ceiling:
            self._signature_votes.clear()
            return
        signature = self.dcdc.tdc_signature(desired_code)
        self._signature_votes.append(signature)
        if len(self._signature_votes) < self.config.compensation_interval_cycles:
            return
        window = self._signature_votes[
            -self.config.compensation_interval_cycles :
        ]
        if len(set(window)) != 1:
            return
        agreed = window[0]
        limit = self.config.max_correction_lsb
        agreed = max(-limit, min(limit, agreed))
        if abs(agreed - self.lut.correction) > self.config.signature_deadband_counts:
            adjustment = agreed - self.lut.correction
            self.lut.apply_correction(adjustment)
            self._signature_votes.clear()

    # ------------------------------------------------------------------
    # Engine delegation
    # ------------------------------------------------------------------
    def _make_engine(self):
        """Build a batch-of-one engine seeded with this controller's state."""
        from repro.engine.device_math import BatchDeviceSet
        from repro.engine.engine import BatchEngine, BatchPopulation

        population = BatchPopulation(
            load=self.load.characteristics,
            load_devices=BatchDeviceSet.from_delay_model(self.load.delay_model),
            sensor_devices=BatchDeviceSet.from_delay_model(self._replica_model),
            expected_counts=self.dcdc.calibration.expected_counts,
            temperature_c=self.load.temperature_c,
        )
        engine = BatchEngine(
            population,
            lut=self.lut,
            config=self.config,
            compensation_enabled=self.compensation_enabled,
            feedback_mode=self.dcdc.feedback_mode,
            nominal_throughput=self.nominal_throughput,
            averaging_window=self.rate_controller.averaging_window,
            enabled_segments=self.dcdc.power_stage.array.enabled_segments,
            log_corrections=True,
            device_model=self.device_model,
        )
        state = engine.state
        state.cycles = self._cycles
        state.queue_length[:] = self.fifo.queue_length
        state.inductor_current[:] = self.dcdc.power_stage.state.inductor_current
        state.output_voltage[:] = self.dcdc.power_stage.state.output_voltage
        state.duty_value[:] = self.dcdc.pwm.duty_value
        state.cycles_since_duty_update[:] = self.dcdc.cycles_since_duty_update
        if self.dcdc.last_desired is not None:
            state.last_desired[:] = self.dcdc.last_desired
            state.has_last_desired[:] = True
        state.work_accumulator[:] = self._work_accumulator
        state.seed_history(self.rate_controller.history)
        state.seed_votes(
            self._signature_votes, self.config.compensation_interval_cycles
        )
        return engine

    def _sync_from_engine(self, engine, rate_decisions: int) -> None:
        """Hand the engine's final state back to the scalar components.

        Works from the engine's state accumulators and sparse correction
        log rather than a dense trace, so any telemetry sink (streaming,
        null) still leaves the scalar components exactly where the
        reference loop would.
        """
        state = engine.state
        # LUT: replay each correction change so the history granularity
        # matches what the scalar loop would have recorded.
        for values in engine.correction_log:
            value = int(values[0])
            if value != self.lut.correction:
                self.lut.apply_correction(value - self.lut.correction)
        # FIFO occupancy and statistics.  The engine maintains the run's
        # accepted/completed/dropped accumulators directly (the engine is
        # created fresh per run, so its totals are this run's deltas).
        stats = self.fifo.statistics
        target = int(state.queue_length[0])
        ops = int(state.operations_total[0])
        drops = int(state.drops_total[0])
        accepted = int(state.accepted_total[0])
        pushes = stats.pushes + accepted
        pops = stats.pops + ops
        overflows = stats.overflows + drops
        peak = max(stats.peak_occupancy, int(state.peak_queue[0]))
        while self.fifo.queue_length < target:
            # 0 rather than None: pop()/peek() use None as their
            # empty-FIFO sentinel, so a None payload would be ambiguous.
            self.fifo.push(0)
        while self.fifo.queue_length > target:
            self.fifo.pop()
        stats.pushes = pushes
        stats.pops = pops
        stats.overflows = overflows
        stats.peak_occupancy = peak
        # Comparator telemetry: fold this run's decisions into the counters.
        self.dcdc.comparator.record_decisions(
            up=int(state.decision_up_total[0]),
            hold=int(state.decision_hold_total[0]),
            down=int(state.decision_down_total[0]),
        )
        # DC-DC loop registers, clock and filter state.  The clock is
        # advanced one period at a time, as DcDcConverter.step does, so
        # it ends bit-identical to the reference loop's running sum.
        self.dcdc.power_stage.load_state(
            float(state.inductor_current[0]), float(state.output_voltage[0])
        )
        elapsed_time = self.dcdc.elapsed_time
        for _ in range(state.cycles - self._cycles):
            elapsed_time += self.config.system_cycle_period
        self.dcdc.load_loop_state(
            duty_value=int(state.duty_value[0]),
            last_desired=(
                int(state.last_desired[0])
                if bool(state.has_last_desired[0])
                else None
            ),
            cycles_since_duty_update=int(state.cycles_since_duty_update[0]),
            elapsed_time=elapsed_time,
        )
        # Rate controller window and decision count (layout-independent
        # chronological reads; the fused engine keeps ring buffers).
        self.rate_controller.load_history(
            [int(v) for v in state.history_window()[0]],
            decisions_issued=self.rate_controller.decisions_issued
            + rate_decisions,
        )
        # Compensation votes: the trailing run of equal votes.
        self._signature_votes = state.die_vote_tail(0)
        self._work_accumulator = float(state.work_accumulator[0])
        self._cycles = int(state.cycles)

    # ------------------------------------------------------------------
    # Run loops (delegating to the batched engine)
    # ------------------------------------------------------------------
    def _finish_run(self, result):
        """Convert a batch-of-one engine result to the scalar view."""
        from repro.engine.trace import BatchTrace

        if isinstance(result, BatchTrace):
            return result.die(0)
        return result

    def run(
        self,
        arrivals: ArrivalFunction,
        system_cycles: int,
        sink=None,
    ) -> ControllerTrace:
        """Run the full closed loop for ``system_cycles`` system cycles.

        ``arrivals(time, period)`` returns how many input samples arrive
        during the system cycle starting at ``time``.  ``sink`` selects
        the telemetry layer (see :meth:`BatchEngine.run`): by default a
        dense trace is recorded and returned as a
        :class:`ControllerTrace`; with a custom sink (e.g. a
        :class:`~repro.engine.trace.StreamingTrace` for very long runs)
        the sink's result is returned instead — the controller state is
        synchronised either way.
        """
        if system_cycles <= 0:
            raise ValueError("system_cycles must be positive")
        engine = self._make_engine()
        result = engine.run(arrivals, system_cycles, sink=sink)
        self._sync_from_engine(engine, rate_decisions=system_cycles)
        return self._finish_run(result)

    def run_schedule(
        self,
        schedule: Sequence[Tuple[int, int]],
        arrivals: Optional[ArrivalFunction] = None,
        sink=None,
    ) -> ControllerTrace:
        """Drive an explicit sequence of desired words (Fig. 6 style).

        ``schedule`` is a list of ``(desired_code, system_cycles)`` pairs;
        the rate controller is bypassed, but FIFO movement, load energy
        accounting and variation compensation all still run.  The word
        actually issued to the DC-DC converter includes the LUT
        correction, which is how the paper's slow-corner compensation
        appears as an extra 18.75 mV on top of the scheduled 200 mV.
        """
        engine = self._make_engine()
        result = engine.run_schedule(schedule, arrivals, sink=sink)
        self._sync_from_engine(engine, rate_decisions=0)
        return self._finish_run(result)

    # ------------------------------------------------------------------
    # Reference (pure-Python scalar) run loops
    # ------------------------------------------------------------------
    def run_reference(
        self,
        arrivals: ArrivalFunction,
        system_cycles: int,
    ) -> ControllerTrace:
        """Original pure-Python cycle loop, kept as the physics oracle.

        Semantically identical to :meth:`run`: the batched engine
        matches this implementation bit for bit, cycle for cycle.
        """
        if system_cycles <= 0:
            raise ValueError("system_cycles must be positive")
        records: List[ControllerCycleRecord] = []
        period = self.config.system_cycle_period
        for _ in range(system_cycles):
            time = self._cycles * period
            arriving = int(arrivals(time, period))
            accepted = self.fifo.push_burst(range(arriving))
            dropped = arriving - accepted

            decision = self.rate_controller.observe(self.fifo)
            desired_code = decision.desired_code
            record = self.dcdc.step(desired_code, self._load_current, period)

            voltage = record.output_voltage
            possible = self._operations_possible(voltage, period)
            completed = len(self.fifo.pop_up_to(possible))
            energy = self._cycle_energy(voltage, completed, period)

            settled = record.decision is ComparatorDecision.HOLD
            self._update_compensation(desired_code, settled)

            records.append(
                ControllerCycleRecord(
                    time=time + period,
                    queue_length=self.fifo.queue_length,
                    desired_code=desired_code,
                    output_voltage=voltage,
                    duty_value=record.duty_value,
                    operations_completed=completed,
                    samples_dropped=dropped,
                    energy_joules=energy,
                    lut_correction=self.lut.correction,
                    decision=record.decision,
                )
            )
            self._cycles += 1
        return ControllerTrace(records=records)

    def run_schedule_reference(
        self,
        schedule: Sequence[Tuple[int, int]],
        arrivals: Optional[ArrivalFunction] = None,
    ) -> ControllerTrace:
        """Original pure-Python schedule loop (parity reference)."""
        if not schedule:
            raise ValueError("schedule must not be empty")
        records: List[ControllerCycleRecord] = []
        period = self.config.system_cycle_period
        for scheduled_code, cycles in schedule:
            if cycles <= 0:
                raise ValueError("each schedule entry needs >= 1 cycle")
            for _ in range(cycles):
                time = self._cycles * period
                arriving = int(arrivals(time, period)) if arrivals else 0
                accepted = self.fifo.push_burst(range(arriving))
                dropped = arriving - accepted

                desired_code = min(
                    scheduled_code + self.lut.correction,
                    (1 << self.config.resolution_bits) - 1,
                )
                record = self.dcdc.step(
                    desired_code, self._load_current, period
                )
                voltage = record.output_voltage
                possible = self._operations_possible(voltage, period)
                completed = len(self.fifo.pop_up_to(possible))
                energy = self._cycle_energy(voltage, completed, period)

                settled = record.decision is ComparatorDecision.HOLD
                self._update_compensation(desired_code, settled)

                records.append(
                    ControllerCycleRecord(
                        time=time + period,
                        queue_length=self.fifo.queue_length,
                        desired_code=desired_code,
                        output_voltage=voltage,
                        duty_value=record.duty_value,
                        operations_completed=completed,
                        samples_dropped=dropped,
                        energy_joules=energy,
                        lut_correction=self.lut.correction,
                        decision=record.decision,
                    )
                )
                self._cycles += 1
        return ControllerTrace(records=records)

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def desired_voltage_for_queue(self, queue_length: int) -> float:
        """Return the supply the LUT currently maps a queue length to."""
        return code_to_voltage(
            self.lut.lookup(queue_length),
            self.config.resolution_bits,
            self.config.full_scale_voltage,
        )

    @property
    def cycles_run(self) -> int:
        """Return the total number of system cycles simulated."""
        return self._cycles
