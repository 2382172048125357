"""Fused per-cycle kernel of the batched engine.

:class:`CycleKernel` is the hot path of
:meth:`~repro.engine.engine.BatchEngine.step`: the paper's Fig. 5 loop
(FIFO push, rate decision, DC-DC preset/sense/trim, averaged buck
integration, load drain, energy accounting, signature voting) advanced
for every die at once, written to

* evaluate every elementwise expression into a preallocated
  :class:`ScratchBuffers` workspace with ``out=`` ufunc arguments —
  zero per-cycle array allocations on the common path,
* index the occupancy history as a **ring buffer** (``history_pos``)
  instead of shifting it one column left every cycle, keep the
  compensation vote as a streak (``last_vote``, ``vote_streak``), and
* route the four per-cycle device questions through a pluggable
  response model (:class:`~repro.engine.response_tables.ExactDeviceResponse`
  or :class:`~repro.engine.response_tables.ResponseTables`).

Numerical contract: with ``device_model="exact"`` the kernel performs
the *same floating-point operations in the same order* as the scalar
:meth:`~repro.core.controller.AdaptiveController.run_reference` loop,
elementwise over the dies (in-place evaluation and operand commutation
only — both bit-preserving), so every die of a fused run is
**bit-identical** to a ``run_reference`` / ``run_schedule_reference``
run of the same silicon on every trace channel.
``tests/engine/test_kernels.py`` pins this across partial-window,
full-window, vote-reset and schedule transitions, and
``tests/engine/test_differential_fuzz.py`` over randomized scenarios.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.dcdc import FeedbackMode
from repro.engine.device_math import codes_from_counts
from repro.engine.trace import DECISION_HOLD


class ScratchBuffers:
    """Preallocated per-run workspaces of one :class:`CycleKernel`.

    One set of ``(N,)`` arrays reused every cycle: four float and two
    int64 general workspaces (aliased phase by phase inside
    :meth:`CycleKernel.step` — see the comments there for the live
    ranges), three boolean mask workspaces, and one dedicated output
    array per telemetry-row channel the step computes fresh each cycle
    (``desired_code``, ``operations_completed``, ``samples_dropped``,
    ``energy``, ``decision``).  Output arrays are only overwritten by
    the *next* ``step`` call, so sinks may read them until then.
    """

    def __init__(self, n: int) -> None:
        if n <= 0:
            raise ValueError("population size must be positive")
        self.n = int(n)
        self.f0 = np.empty(n, dtype=float)
        self.f1 = np.empty(n, dtype=float)
        self.f2 = np.empty(n, dtype=float)
        self.f3 = np.empty(n, dtype=float)
        self.i0 = np.empty(n, dtype=np.int64)
        self.i1 = np.empty(n, dtype=np.int64)
        self.b0 = np.empty(n, dtype=bool)
        self.b1 = np.empty(n, dtype=bool)
        self.b2 = np.empty(n, dtype=bool)
        # Telemetry-row outputs (stable for one full cycle).
        self.out_desired = np.empty(n, dtype=np.int64)
        self.out_operations = np.empty(n, dtype=np.int64)
        self.out_dropped = np.empty(n, dtype=np.int64)
        self.out_energy = np.empty(n, dtype=float)
        self.out_decision = np.empty(n, dtype=np.int8)
        self.desired = np.empty(n, dtype=np.int64)


class CycleKernel:
    """Fused one-system-cycle advance over a controller population."""

    def __init__(self, engine) -> None:
        self.engine = engine
        cfg = engine.config
        self.scratch = ScratchBuffers(engine.n)
        self.response = engine.response
        # Per-run constants, resolved once.
        self._levels = 1 << cfg.resolution_bits
        self._max_code = engine._max_code
        self._bins = int(engine.lut_entries.shape[0])
        self._lut_depth = int(engine.lut_fifo_depth)
        self._period = cfg.system_cycle_period
        self._substeps = 8
        self._h = self._period / self._substeps
        self._r_on = engine._r_on
        self._battery = cfg.power_stage.battery_voltage
        self._inductance = cfg.power_stage.inductance
        self._capacitance = cfg.power_stage.capacitance
        self._full_scale = cfg.full_scale_voltage
        self._scf_factor = (
            1.0 + engine.population.load.short_circuit_fraction
        )
        self._min_cycle_time = (
            None
            if engine.nominal_throughput is None
            else 1.0 / engine.nominal_throughput
        )
        self._voltage_sense = (
            engine.feedback_mode is FeedbackMode.VOLTAGE_SENSE
        )
        # Tabulated TDC readout staircase, when the response carries one
        # (None under the exact device model: the TDC then runs the full
        # replica-delay measurement every settled cycle).
        self._tdc_tables = getattr(self.response, "tdc", None)

    # ------------------------------------------------------------------
    # Pipeline stages
    # ------------------------------------------------------------------
    def _rate_decision(self) -> None:
        """Ring-buffered averaged-occupancy LUT lookup (into out_desired).

        The rolling ``history_sum`` update is integer arithmetic, so it
        equals the scalar rate controller's re-sum of its window
        exactly; everything after it is the same expression sequence as
        :meth:`~repro.core.rate_controller.RateController.evaluate`.
        """
        s = self.engine.state
        sc = self.scratch
        window = s.history.shape[1]
        if s.history_filled < window:
            s.history[:, s.history_pos] = s.queue_length
            s.history_sum += s.queue_length
            s.history_filled += 1
        else:
            s.history_sum -= s.history[:, s.history_pos]
            s.history_sum += s.queue_length
            s.history[:, s.history_pos] = s.queue_length
        s.history_pos = (s.history_pos + 1) % window
        averaged = np.divide(s.history_sum, s.history_filled, out=sc.f0)
        np.rint(averaged, out=averaged)
        rounded = sc.i0
        np.copyto(rounded, averaged, casting="unsafe")
        clamped = np.minimum(rounded, self._lut_depth, out=rounded)
        product = np.multiply(clamped, self._bins, out=sc.i1)
        quotient = np.divide(product, self._lut_depth + 1, out=sc.f0)
        index = sc.i1
        np.copyto(index, quotient, casting="unsafe")
        np.minimum(index, self._bins - 1, out=index)
        self.engine.lut_entries.take(index, out=sc.out_desired)
        sc.out_desired += s.lut_correction
        np.maximum(sc.out_desired, 0, out=sc.out_desired)
        np.minimum(sc.out_desired, self._max_code, out=sc.out_desired)
        sc.desired[...] = sc.out_desired

    def _scheduled_decision(self, scheduled_codes: np.ndarray) -> None:
        """Schedule mode: recorded word is min(code + correction, max)."""
        sc = self.scratch
        codes = np.asarray(scheduled_codes, dtype=np.int64)
        np.add(codes, self.engine.state.lut_correction, out=sc.out_desired)
        np.minimum(sc.out_desired, self._max_code, out=sc.out_desired)
        np.maximum(sc.out_desired, 0, out=sc.desired)
        np.minimum(sc.desired, self._max_code, out=sc.desired)

    def _sense_codes(self, vout: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Regulation-loop reading of the present output voltage."""
        sc = self.scratch
        if self._voltage_sense:
            raw = np.multiply(vout, self._levels, out=sc.f0)
            raw /= self._full_scale
            np.rint(raw, out=raw)
            np.copyto(out, raw, casting="unsafe")
            np.maximum(out, 0, out=out)
            np.minimum(out, self._max_code, out=out)
            return out
        if self._tdc_tables is not None:
            codes, _ = self._tdc_tables.lookup(vout)
            out[...] = codes
            return out
        counts, _ = self.engine._measure_tdc(vout)
        out[...] = codes_from_counts(
            self.engine.population.expected_counts, counts
        )
        return out

    def _advance_power_stage(self, duty_cycle: np.ndarray) -> None:
        """Semi-implicit Euler on the buck equations, fused in place."""
        s = self.engine.state
        sc = self.scratch
        il = s.inductor_current
        vout = s.output_voltage
        v_switch = np.multiply(duty_cycle, self._battery, out=sc.f1)
        response = self.response
        for _ in range(self._substeps):
            di = np.multiply(il, self._r_on, out=sc.f2)
            np.subtract(v_switch, di, out=di)
            np.subtract(di, vout, out=di)
            di /= self._inductance
            di *= self._h
            il += di
            load = response.current_draw(vout, out=sc.f3)
            dv = np.subtract(il, load, out=sc.f3)
            dv /= self._capacitance
            dv *= self._h
            vout += dv
            np.maximum(vout, 0.0, out=vout)
            np.minimum(vout, self._battery, out=vout)

    def _operations_possible(self, vout: np.ndarray) -> np.ndarray:
        """Completed-operation count per die (into scratch.i0)."""
        s = self.engine.state
        sc = self.scratch
        runnable = np.greater(vout, 0.05, out=sc.b0)
        safe = sc.f1
        safe[...] = 1.0
        np.copyto(safe, vout, where=runnable)
        # Both responses answer into f2; the follow-up ufuncs then
        # work on it in place (elementwise, no overlap hazards).
        cycle_time = self.response.cycle_time(safe, out=sc.f2)
        if self._min_cycle_time is not None:
            cycle_time = np.maximum(
                cycle_time, self._min_cycle_time, out=sc.f2
            )
        progress = np.divide(self._period, cycle_time, out=sc.f2)
        work = np.add(s.work_accumulator, progress, out=sc.f3)
        completed = sc.i0
        np.copyto(completed, work, casting="unsafe")
        remainder = np.subtract(work, completed, out=work)
        np.copyto(s.work_accumulator, remainder, where=runnable)
        not_runnable = np.logical_not(runnable, out=sc.b1)
        np.copyto(completed, 0, where=not_runnable)
        return completed

    def _cycle_energy(self, vout: np.ndarray) -> None:
        """Load energy consumed this cycle per die (into out_energy)."""
        sc = self.scratch
        powered = np.greater(vout, 0, out=sc.b0)
        safe = sc.f1
        safe[...] = 1.0
        np.copyto(safe, vout, where=powered)
        dynamic = self.response.dynamic_energy(safe, out=sc.f2)
        dynamic = np.multiply(dynamic, self._scf_factor, out=sc.f2)
        dynamic = np.multiply(dynamic, sc.out_operations, out=sc.f2)
        leakage = self.response.leakage_current(safe, out=sc.f3)
        leakage = np.multiply(safe, leakage, out=sc.f3)
        leakage = np.multiply(leakage, self._period, out=sc.f3)
        np.add(dynamic, leakage, out=sc.out_energy)
        unpowered = np.logical_not(powered, out=sc.b1)
        np.copyto(sc.out_energy, 0.0, where=unpowered)

    def _signatures(self, vout: np.ndarray) -> np.ndarray:
        """Variation signature in DC-DC LSBs per die (into scratch.i0)."""
        engine = self.engine
        sc = self.scratch
        if self._tdc_tables is not None:
            apparent, reliable = self._tdc_tables.lookup(vout)
        else:
            counts, reliable = engine._measure_tdc(vout)
            apparent = codes_from_counts(
                engine.population.expected_counts, counts
            )
        shift = sc.i0
        if self._voltage_sense:
            # Same quantisation ufunc sequence as the regulation loop's
            # reading — by construction, not by copy.
            self._sense_codes(vout, out=shift)
            np.subtract(shift, apparent, out=shift)
            np.maximum(shift, -8, out=shift)
            np.minimum(shift, 8, out=shift)
        else:
            np.maximum(sc.desired, 0, out=shift)
            np.minimum(shift, self._max_code, out=shift)
            np.subtract(shift, apparent, out=shift)
        unreliable = np.logical_not(reliable, out=reliable)
        np.copyto(shift, 0, where=unreliable)
        return shift

    def _update_compensation(
        self, vout: np.ndarray, settled: np.ndarray
    ) -> None:
        """Streak signature voting and LUT correction.

        The last K signatures agree exactly when the run of equal ones
        ending at this one (``vote_streak``, capped at K) is K long.  A
        streak of 0 restarts at 1 whatever stale ``last_vote`` it holds.
        """
        engine = self.engine
        s = engine.state
        cfg = engine.config
        sc = self.scratch
        window = cfg.compensation_interval_cycles
        over_ceiling = np.greater(
            vout, cfg.signature_supply_ceiling, out=sc.b1
        )
        np.logical_and(settled, over_ceiling, out=over_ceiling)
        np.copyto(s.vote_streak, 0, where=over_ceiling)
        collecting = np.logical_not(over_ceiling, out=sc.b2)
        np.logical_and(settled, collecting, out=collecting)
        if not np.any(collecting):
            return
        # From here on b0 (settled), b1 and i1 are free.
        signature = self._signatures(vout)
        streak = np.add(s.vote_streak, 1, out=sc.i1)
        np.minimum(streak, window, out=streak)
        differs = np.not_equal(signature, s.last_vote, out=sc.b0)
        np.copyto(streak, 1, where=differs)
        np.copyto(s.vote_streak, streak, where=collecting)
        np.copyto(s.last_vote, signature, where=collecting)
        ready = np.greater_equal(s.vote_streak, window, out=sc.b0)
        np.logical_and(ready, collecting, out=ready)
        if not np.any(ready):
            return
        limit = cfg.max_correction_lsb
        agreed = np.clip(s.last_vote, -limit, limit, out=sc.i1)
        gap = np.subtract(agreed, s.lut_correction, out=sc.i0)
        np.abs(gap, out=gap)
        apply = np.greater(gap, cfg.signature_deadband_counts, out=sc.b1)
        np.logical_and(apply, ready, out=apply)
        if not np.any(apply):
            return
        np.copyto(s.lut_correction, agreed, where=apply)
        np.copyto(s.vote_streak, 0, where=apply)
        if engine._log_corrections:
            engine.correction_log.append(s.lut_correction.copy())

    # ------------------------------------------------------------------
    # One system cycle
    # ------------------------------------------------------------------
    def step(
        self,
        arriving: np.ndarray,
        scheduled_codes: Optional[np.ndarray] = None,
    ) -> dict:
        """Advance every die by one system cycle (fused pipeline)."""
        engine = self.engine
        s = engine.state
        cfg = engine.config
        sc = self.scratch
        time = s.cycles * self._period

        # 1. Input samples into the FIFO (i0: space/accepted).
        arriving = np.asarray(arriving, dtype=np.int64)
        space = np.subtract(engine.fifo_depth, s.queue_length, out=sc.i0)
        accepted = np.minimum(arriving, space, out=space)
        np.subtract(arriving, accepted, out=sc.out_dropped)
        s.queue_length += accepted
        s.accepted_total += accepted
        s.drops_total += sc.out_dropped

        # 2. Desired supply word (f0, i0, i1 -> out_desired/desired).
        if scheduled_codes is None:
            self._rate_decision()
        else:
            self._scheduled_decision(scheduled_codes)

        # 3. DC-DC preset (i0: |delta|, b0/b1: preset masks,
        #    f0/i1: duty estimate).
        delta = np.subtract(sc.desired, s.last_desired, out=sc.i0)
        np.abs(delta, out=delta)
        preset = np.greater(delta, 2, out=sc.b0)
        np.logical_not(s.has_last_desired, out=sc.b1)
        np.logical_or(preset, sc.b1, out=preset)
        if np.any(preset):
            voltage = np.multiply(sc.desired, self._full_scale, out=sc.f0)
            voltage /= self._levels
            voltage /= self._battery
            np.multiply(voltage, self._levels, out=voltage)
            np.rint(voltage, out=voltage)
            duty_code = sc.i1
            np.copyto(duty_code, voltage, casting="unsafe")
            np.maximum(duty_code, 0, out=duty_code)
            np.minimum(duty_code, self._max_code, out=duty_code)
            np.maximum(duty_code, cfg.code_lower_bound, out=duty_code)
            np.minimum(duty_code, cfg.code_upper_bound, out=duty_code)
            np.copyto(s.duty_value, duty_code, where=preset)
            np.copyto(s.cycles_since_duty_update, 0, where=preset)
        s.last_desired[...] = sc.desired
        s.has_last_desired[...] = True

        # Sense, compare, trim (i0: measured, i1: error/sign/trimmed).
        measured = self._sense_codes(s.output_voltage, out=sc.i0)
        error = np.subtract(sc.desired, measured, out=sc.i1)
        np.sign(error, out=error)
        np.copyto(sc.out_decision, error, casting="unsafe")
        s.cycles_since_duty_update += 1
        trim = np.greater_equal(
            s.cycles_since_duty_update, cfg.duty_update_interval, out=sc.b1
        )
        trimmed = np.add(s.duty_value, error, out=sc.i0)
        np.maximum(trimmed, cfg.code_lower_bound, out=trimmed)
        np.minimum(trimmed, cfg.code_upper_bound, out=trimmed)
        np.copyto(s.duty_value, trimmed, where=trim)
        np.copyto(s.cycles_since_duty_update, 0, where=trim)

        # Buck integration (f0: duty cycle, f1: v_switch, f2/f3: work).
        duty_cycle = np.divide(s.duty_value, self._levels, out=sc.f0)
        self._advance_power_stage(duty_cycle)
        vout = s.output_voltage

        # 4. Load progress and FIFO drain (i0: possible, i1: peak).
        possible = self._operations_possible(vout)
        completed = np.minimum(
            possible, s.queue_length, out=sc.out_operations
        )
        s.queue_length -= completed
        s.operations_total += completed
        post_push = np.add(s.queue_length, completed, out=sc.i1)
        np.maximum(s.peak_queue, post_push, out=s.peak_queue)
        counted = sc.b1
        np.equal(sc.out_decision, 1, out=counted)
        s.decision_up_total += counted
        np.equal(sc.out_decision, 0, out=counted)
        s.decision_hold_total += counted
        np.equal(sc.out_decision, -1, out=counted)
        s.decision_down_total += counted

        # 5. Load energy (b0/b1, f1..f3 -> out_energy).
        self._cycle_energy(vout)
        s.energy_total += sc.out_energy

        # 6. Variation compensation (b0/b1/b2: vote masks, i0/i1: votes).
        if engine.compensation_enabled:
            settled = np.equal(sc.out_decision, DECISION_HOLD, out=sc.b0)
            self._update_compensation(vout, settled)

        s.cycles += 1
        return {
            "time": time + self._period,
            "queue_length": s.queue_length,
            "desired_code": sc.out_desired,
            "output_voltage": vout,
            "duty_value": s.duty_value,
            "operations_completed": sc.out_operations,
            "samples_dropped": sc.out_dropped,
            "energy": sc.out_energy,
            "lut_correction": s.lut_correction,
            "decision": sc.out_decision,
        }
