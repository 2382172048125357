"""Tests of the DC-DC converter loop, rate controller and adaptive controller."""

import numpy as np
import pytest

from repro.circuits.loads import DigitalLoad
from repro.core.config import ControllerConfig
from repro.core.controller import AdaptiveController
from repro.core.dcdc import DcDcConverter, FeedbackMode
from repro.core.rate_controller import RateController, program_lut_for_load
from repro.core.tdc import TdcCalibration, TimeToDigitalConverter
from repro.digital.fifo import Fifo
from repro.digital.signals import code_to_voltage, voltage_to_code
from repro.library import OperatingCondition
from repro.testing import assert_bit_identical
from repro.workloads import BurstyArrivals, ConstantArrivals


@pytest.fixture()
def tt_converter(tt_delay_model):
    config = ControllerConfig()
    tdc = TimeToDigitalConverter(tt_delay_model, config.tdc)
    calibration = TdcCalibration(tdc)
    return DcDcConverter(config=config, tdc=tdc, calibration=calibration)


def make_controller(library, silicon_corner, compensation=True, lut=None,
                    feedback_mode=FeedbackMode.VOLTAGE_SENSE):
    reference = library.reference_delay_model
    silicon = library.delay_model(OperatingCondition(corner=silicon_corner))
    load = DigitalLoad(library.ring_oscillator_load, silicon)
    if lut is None:
        reference_load = DigitalLoad(library.ring_oscillator_load, reference)
        lut = program_lut_for_load(reference_load, sample_rate=1e5)
    return AdaptiveController(
        load=load,
        lut=lut,
        reference_delay_model=reference,
        compensation_enabled=compensation,
        feedback_mode=feedback_mode,
    )


class TestRateController:
    def test_lut_programming_respects_mep_floor(self, library, tt_load):
        lut = program_lut_for_load(tt_load, sample_rate=1e4)
        mep_code = voltage_to_code(tt_load.minimum_energy_point().optimal_supply)
        assert min(lut.raw_entries()) >= mep_code

    def test_lut_programming_monotonic_in_occupancy(self, tt_load):
        lut = program_lut_for_load(tt_load, sample_rate=2e5, bins=8)
        entries = lut.raw_entries()
        assert entries == sorted(entries)

    def test_lut_programming_meets_throughput(self, tt_load):
        sample_rate = 2e5
        lut = program_lut_for_load(tt_load, sample_rate=sample_rate, bins=8)
        top_voltage = code_to_voltage(lut.raw_entries()[-1])
        assert tt_load.max_throughput(top_voltage) >= sample_rate

    def test_lut_programming_validation(self, tt_load):
        with pytest.raises(ValueError):
            program_lut_for_load(tt_load, sample_rate=0.0)
        with pytest.raises(ValueError):
            program_lut_for_load(tt_load, sample_rate=1e5, occupancy_headroom=0.5)

    def test_rate_controller_tracks_queue(self, tt_load):
        lut = program_lut_for_load(tt_load, sample_rate=1e5, bins=8)
        controller = RateController(lut, averaging_window=1)
        empty = controller.evaluate(0)
        full = controller.evaluate(60)
        assert full.desired_code >= empty.desired_code
        assert full.desired_voltage >= empty.desired_voltage
        assert controller.decisions_issued == 2

    def test_rate_controller_averaging(self, tt_load):
        lut = program_lut_for_load(tt_load, sample_rate=1e5, bins=8)
        controller = RateController(lut, averaging_window=4)
        for _ in range(3):
            controller.evaluate(0)
        spike = controller.evaluate(60)
        assert spike.averaged_queue_length < 60
        controller.reset()
        assert controller.evaluate(60).averaged_queue_length == 60

    def test_observe_uses_fifo_occupancy(self, tt_load):
        lut = program_lut_for_load(tt_load, sample_rate=1e5, bins=8)
        controller = RateController(lut)
        fifo = Fifo(depth=64)
        fifo.push_burst(range(32))
        decision = controller.observe(fifo)
        assert decision.queue_length == 32

    def test_rate_controller_validation(self, tt_load):
        lut = program_lut_for_load(tt_load, sample_rate=1e5)
        with pytest.raises(ValueError):
            RateController(lut, averaging_window=0)
        with pytest.raises(ValueError):
            RateController(lut).evaluate(-1)


class TestDcDcConverter:
    def test_regulates_to_desired_code(self, tt_converter):
        records = tt_converter.run_to_code(19, lambda v: 1e-6, max_cycles=300)
        final = records[-1]
        assert final.output_voltage == pytest.approx(
            code_to_voltage(19), abs=0.02
        )

    def test_step_records_telemetry(self, tt_converter):
        record = tt_converter.step(16, lambda v: 1e-6)
        assert record.desired_code == 16
        assert 0 <= record.duty_value <= 63
        assert tt_converter.elapsed_time == pytest.approx(1e-6)

    def test_tracks_setpoint_changes(self, tt_converter):
        tt_converter.run_to_code(30, lambda v: 1e-6, max_cycles=300)
        high = tt_converter.output_voltage
        tt_converter.run_to_code(12, lambda v: 1e-6, max_cycles=400)
        low = tt_converter.output_voltage
        assert high == pytest.approx(code_to_voltage(30), abs=0.03)
        assert low == pytest.approx(code_to_voltage(12), abs=0.03)

    def test_resolution_is_one_lsb(self, tt_converter):
        """Neighbouring codes differ by ~18.75 mV at the output."""
        tt_converter.run_to_code(20, lambda v: 1e-6, max_cycles=300)
        v20 = tt_converter.output_voltage
        tt_converter.run_to_code(21, lambda v: 1e-6, max_cycles=300)
        v21 = tt_converter.output_voltage
        # Regulation dithers within the quantisation band, so the observed
        # step is one LSB give or take a band width.
        assert v21 - v20 == pytest.approx(0.01875, abs=0.02)

    def test_select_segments_for_load(self, tt_converter):
        assert tt_converter.select_segments_for(1e-6) == 1
        assert tt_converter.select_segments_for(0.5) == 8

    def test_run_to_code_validation(self, tt_converter):
        with pytest.raises(ValueError):
            tt_converter.run_to_code(10, lambda v: 0.0, max_cycles=0)

    def test_delay_servo_mode_overdrives_on_slow_silicon(self, library):
        """In delay-servo mode slow silicon lands above the nominal voltage."""
        config = ControllerConfig()
        reference_tdc = TimeToDigitalConverter(
            library.reference_delay_model, config.tdc
        )
        calibration = TdcCalibration(reference_tdc)
        slow_tdc = TimeToDigitalConverter(
            library.delay_model(OperatingCondition(corner="SS")), config.tdc
        )
        converter = DcDcConverter(
            config=config,
            tdc=slow_tdc,
            calibration=calibration,
            feedback_mode=FeedbackMode.DELAY_SERVO,
        )
        converter.run_to_code(11, lambda v: 1e-6, max_cycles=400)
        assert converter.output_voltage > code_to_voltage(11) + 0.009


class TestAdaptiveController:
    def test_slow_corner_gets_positive_correction(self, library):
        controller = make_controller(library, "SS")
        mep_code = voltage_to_code(0.200)
        trace = controller.run_schedule([(19, 80), (mep_code, 150)])
        assert trace.final_correction() >= 1
        # Compensated output sits ~one LSB above the typical-corner MEP,
        # i.e. at the slow-corner MEP of ~220 mV.
        assert trace.final_voltage() == pytest.approx(0.219, abs=0.02)

    def test_typical_silicon_needs_no_correction(self, library):
        controller = make_controller(library, "TT")
        trace = controller.run_schedule([(19, 60), (11, 120)])
        assert trace.final_correction() == 0

    def test_fast_silicon_gets_negative_correction(self, library):
        controller = make_controller(library, "FF")
        trace = controller.run_schedule([(12, 150)])
        assert trace.final_correction() <= -1

    def test_compensation_can_be_disabled(self, library):
        controller = make_controller(library, "SS", compensation=False)
        trace = controller.run_schedule([(11, 150)])
        assert trace.final_correction() == 0
        assert controller.lut.correction_history == []

    def test_fig6_three_step_schedule(self, library):
        """Fig. 6: ~356 mV, then the corrected MEP, then ~880 mV."""
        controller = make_controller(library, "SS")
        trace = controller.run_schedule([(19, 100), (11, 200), (47, 150)])
        voltages = trace.output_voltages
        phase1 = float(voltages[80:98].mean())
        phase2 = float(voltages[270:298].mean())
        phase3 = float(voltages[-20:].mean())
        assert phase1 == pytest.approx(0.375, abs=0.02)
        assert phase2 == pytest.approx(0.219, abs=0.02)
        assert phase3 == pytest.approx(0.88, abs=0.06)

    def test_closed_loop_tracks_workload(self, library):
        controller = make_controller(library, "TT")
        trace = controller.run(ConstantArrivals(1e5), system_cycles=500)
        assert trace.total_drops() == 0
        assert trace.total_operations() > 0
        # Energy per operation stays within 2x of the true MEP energy.
        assert trace.energy_per_operation() < 2.0 * 2.65e-15

    def test_samples_dropped_column_counts_fifo_overflow(self, library):
        # 3 samples per 1 us cycle outruns the load, so the FIFO overflows.
        controller = make_controller(library, "TT")
        trace = controller.run(ConstantArrivals(3e6), system_cycles=300)
        drops = trace.samples_dropped
        assert drops.dtype == np.int64
        assert drops.shape == (300,)
        assert int(drops.sum()) == trace.total_drops() > 0
        assert controller.fifo.statistics.overflows == trace.total_drops()
        reference = make_controller(library, "TT").run_reference(
            ConstantArrivals(3e6), system_cycles=300
        )
        assert_bit_identical(drops, reference.samples_dropped)

    def test_bursty_workload_raises_voltage_during_burst(self, library):
        controller = make_controller(library, "TT")
        arrivals = BurstyArrivals(
            burst_rate=4e5, burst_duration=150e-6, idle_duration=350e-6
        )
        trace = controller.run(arrivals, system_cycles=1000)
        voltages = trace.output_voltages
        assert voltages.max() - voltages.min() > 0.015
        assert trace.total_drops() == 0

    def test_trace_helpers(self, library):
        controller = make_controller(library, "TT")
        trace = controller.run(ConstantArrivals(1e5), system_cycles=50)
        assert len(trace) == 50
        waveform = trace.voltage_waveform()
        assert waveform.end_time == pytest.approx(50e-6)
        segment = trace.segment(10e-6, 20e-6)
        assert 8 <= len(segment) <= 12
        assert trace.total_energy() > 0

    def test_run_validation(self, library):
        controller = make_controller(library, "TT")
        with pytest.raises(ValueError):
            controller.run(ConstantArrivals(1e5), system_cycles=0)
        with pytest.raises(ValueError):
            controller.run_schedule([])
        with pytest.raises(ValueError):
            controller.run_schedule([(10, 0)])

    def test_desired_voltage_for_queue(self, library):
        controller = make_controller(library, "TT")
        assert controller.desired_voltage_for_queue(0) >= 0.19

    def test_empty_trace_statistics(self):
        from repro.core.controller import ControllerTrace

        trace = ControllerTrace()
        assert trace.final_correction() == 0
        with pytest.raises(ValueError):
            trace.final_voltage()
