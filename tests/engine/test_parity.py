"""Scalar/batched parity: the engine must reproduce the reference loops.

The acceptance bar of the ``repro.engine`` refactor: a batch-of-one
engine run matches the pure-Python ``AdaptiveController.run_reference``
loop cycle for cycle, and a batch of N dies matches N independent
scalar runs column for column — bit for bit on every channel (float
channels compared through integer views).  A controller that switches
between the two paths mid-run matches one pure reference run, too.
"""

import numpy as np
import pytest

from repro.circuits.loads import DigitalLoad
from repro.core.controller import AdaptiveController
from repro.core.dcdc import FeedbackMode
from repro.core.rate_controller import program_lut_for_load
from repro.devices.variation import MonteCarloSampler
from repro.engine import BatchEngine, BatchPopulation
from repro.library import OperatingCondition
from repro.testing import assert_bit_identical, trailing_run
from repro.workloads import ConstantArrivals
from repro.workloads.traffic import trace_arrivals

TRACE_CHANNELS = (
    "times",
    "queue_lengths",
    "desired_codes",
    "output_voltages",
    "duty_values",
    "operations",
    "samples_dropped",
    "energies",
    "lut_corrections",
    "decisions",
)


def make_controller(library, corner, **kwargs):
    reference = library.reference_delay_model
    silicon = library.delay_model(OperatingCondition(corner=corner))
    load = DigitalLoad(library.ring_oscillator_load, silicon)
    reference_load = DigitalLoad(library.ring_oscillator_load, reference)
    lut = program_lut_for_load(reference_load, sample_rate=1e5)
    return AdaptiveController(
        load=load, lut=lut, reference_delay_model=reference, **kwargs
    )


def assert_traces_match(reference_trace, engine_trace):
    assert len(reference_trace) == len(engine_trace)
    for channel in TRACE_CHANNELS:
        assert_bit_identical(
            getattr(engine_trace, channel),
            getattr(reference_trace, channel),
            err_msg=channel,
        )


def assert_clocks_match(reference, engine_backed):
    """The DC-DC clock is a running sum of periods on both paths."""
    assert_bit_identical(
        np.float64(engine_backed.dcdc.elapsed_time),
        np.float64(reference.dcdc.elapsed_time),
        err_msg="dcdc.elapsed_time",
    )


class TestBatchOfOneParity:
    def test_closed_loop_run_matches_reference(self, library):
        reference = make_controller(library, "SS")
        engine_backed = make_controller(library, "SS")
        trace_a = reference.run_reference(ConstantArrivals(1e5), 400)
        trace_b = engine_backed.run(ConstantArrivals(1e5), 400)
        assert_traces_match(trace_a, trace_b)
        assert reference.lut.correction == engine_backed.lut.correction
        assert (
            reference.lut.correction_history
            == engine_backed.lut.correction_history
        )
        assert reference.fifo.queue_length == engine_backed.fifo.queue_length
        assert reference.cycles_run == engine_backed.cycles_run
        assert_clocks_match(reference, engine_backed)

    def test_schedule_run_matches_reference(self, library):
        schedule = [(19, 100), (11, 200), (47, 150)]
        reference = make_controller(library, "SS")
        engine_backed = make_controller(library, "SS")
        trace_a = reference.run_schedule_reference(schedule)
        trace_b = engine_backed.run_schedule(schedule)
        assert_traces_match(trace_a, trace_b)
        assert trace_b.final_correction() == trace_a.final_correction()
        assert_clocks_match(reference, engine_backed)

    def test_delay_servo_mode_matches_reference(self, library):
        kwargs = dict(
            feedback_mode=FeedbackMode.DELAY_SERVO, compensation_enabled=False
        )
        reference = make_controller(library, "SS", **kwargs)
        engine_backed = make_controller(library, "SS", **kwargs)
        trace_a = reference.run_schedule_reference([(11, 200)])
        trace_b = engine_backed.run_schedule([(11, 200)])
        assert_traces_match(trace_a, trace_b)

    def test_custom_lut_depth_keeps_fifo_capacity_parity(self, library):
        """A LUT programmed for a different depth only rescales the bin
        mapping; the FIFO capacity (and thus overflow drops) must still
        come from the controller config on both paths."""
        reference_model = library.reference_delay_model
        silicon = library.delay_model(OperatingCondition(corner="TT"))
        reference_load = DigitalLoad(
            library.ring_oscillator_load, reference_model
        )

        def build():
            lut = program_lut_for_load(
                reference_load, sample_rate=1e5, fifo_depth=16
            )
            return AdaptiveController(
                load=DigitalLoad(library.ring_oscillator_load, silicon),
                lut=lut,
                reference_delay_model=reference_model,
            )

        reference = build()
        engine_backed = build()
        trace_a = reference.run_reference(ConstantArrivals(3e5), 300)
        trace_b = engine_backed.run(ConstantArrivals(3e5), 300)
        assert_traces_match(trace_a, trace_b)
        assert trace_b.total_drops() == trace_a.total_drops()

    def test_segment_selection_keeps_parity(self, library):
        """select_segments_for() changes the switch r_on; the engine run
        must honour the enabled-segment count like the scalar loop."""
        reference = make_controller(library, "TT")
        engine_backed = make_controller(library, "TT")
        reference.dcdc.power_stage.array.enable_segments(1)
        engine_backed.dcdc.power_stage.array.enable_segments(1)
        trace_a = reference.run_schedule_reference([(19, 200)])
        trace_b = engine_backed.run_schedule([(19, 200)])
        assert_traces_match(trace_a, trace_b)

    def test_sequential_runs_stay_in_lockstep(self, library):
        """State hand-off: run() then run_schedule() continues exactly."""
        reference = make_controller(library, "TT")
        engine_backed = make_controller(library, "TT")
        assert_traces_match(
            reference.run_reference(ConstantArrivals(1e5), 150),
            engine_backed.run(ConstantArrivals(1e5), 150),
        )
        assert_traces_match(
            reference.run_schedule_reference([(19, 80)]),
            engine_backed.run_schedule([(19, 80)]),
        )
        assert reference.fifo.statistics.pushes == (
            engine_backed.fifo.statistics.pushes
        )
        assert reference.fifo.statistics.pops == (
            engine_backed.fifo.statistics.pops
        )
        assert reference.fifo.statistics.peak_occupancy == (
            engine_backed.fifo.statistics.peak_occupancy
        )
        assert reference.dcdc.comparator.decision_counts == (
            engine_backed.dcdc.comparator.decision_counts
        )
        assert_clocks_match(reference, engine_backed)

    def test_trace_columns_are_immutable(self, library):
        controller = make_controller(library, "TT")
        trace = controller.run(ConstantArrivals(1e5), 30)
        with pytest.raises(ValueError):
            trace.output_voltages[0] = 99.0
        with pytest.raises(AttributeError):
            trace.records.append("nope")


class TestMixedHandOff:
    """Engine-backed runs hand the vote list back as its trailing run of
    equal votes (at most K), not the whole list.  That is the same
    decision state: a controller split mid-streak between ``run`` and
    ``run_reference``, in either order, matches one pure reference run.
    """

    CYCLES = 900
    SPLITS = {"SS": 34, "TT": 40, "FS": 58}
    """Cycles after which each corner's vote list ends in a run shorter
    than K that follows a different vote: one vote at SS and TT, two at
    FS.  At SS the next two votes agree with it and fire the correction,
    so a hand-off that miscounts the run fires it early or late."""

    @pytest.mark.parametrize("corner", sorted(SPLITS))
    def test_split_runs_match_one_reference_run(self, library, corner):
        split = self.SPLITS[corner]
        pure = make_controller(library, corner)
        pure_trace = pure.run_reference(ConstantArrivals(1e5), self.CYCLES)
        k = pure.config.compensation_interval_cycles

        def handed_off(votes):  # what an engine-backed run leaves
            return [votes[-1]] * min(trailing_run(votes), k)

        engine_first = make_controller(library, corner)
        reference_first = make_controller(library, corner)
        arrivals_e, arrivals_r = ConstantArrivals(1e5), ConstantArrivals(1e5)
        legs_e = [engine_first.run(arrivals_e, split)]
        legs_r = [reference_first.run_reference(arrivals_r, split)]
        votes = reference_first._signature_votes
        assert 0 < trailing_run(votes) < min(k, len(votes)), votes
        assert engine_first._signature_votes == handed_off(votes)
        rest = self.CYCLES - split
        legs_e.append(engine_first.run_reference(arrivals_e, rest))
        legs_r.append(reference_first.run(arrivals_r, rest))
        assert reference_first._signature_votes == handed_off(
            pure._signature_votes
        )
        for controller, legs in (
            (engine_first, legs_e), (reference_first, legs_r)
        ):
            for channel in TRACE_CHANNELS:
                assert_bit_identical(
                    np.concatenate([getattr(leg, channel) for leg in legs]),
                    getattr(pure_trace, channel),
                    err_msg=channel,
                )
            assert controller.lut.correction_history == (
                pure.lut.correction_history
            )
            assert_clocks_match(pure, controller)


class TestPopulationParity:
    def test_batch_of_three_matches_three_scalar_runs(self, library):
        cycles = 250
        samples = MonteCarloSampler(seed=5).draw(3)
        reference_load = DigitalLoad(
            library.ring_oscillator_load, library.reference_delay_model
        )
        population = BatchPopulation.from_samples(library, samples)
        engine = BatchEngine(
            population,
            lut=program_lut_for_load(reference_load, sample_rate=1e5),
        )
        arrivals = np.asarray(
            trace_arrivals(ConstantArrivals(1e5), 1e-6, cycles)
        )
        batch_trace = engine.run(
            np.broadcast_to(arrivals, (3, cycles)), cycles
        )
        for i, sample in enumerate(samples):
            silicon = library.delay_model(
                OperatingCondition(
                    corner="TT",
                    nmos_vth_shift=sample.nmos_vth_shift,
                    pmos_vth_shift=sample.pmos_vth_shift,
                )
            )
            controller = AdaptiveController(
                load=DigitalLoad(library.ring_oscillator_load, silicon),
                lut=program_lut_for_load(reference_load, sample_rate=1e5),
                reference_delay_model=library.reference_delay_model,
            )
            scalar = controller.run_reference(ConstantArrivals(1e5), cycles)
            die = batch_trace.die(i)
            assert_traces_match(scalar, die)

    def test_trace_reductions_match_per_die_view(self, library):
        samples = MonteCarloSampler(seed=9).draw(4)
        reference_load = DigitalLoad(
            library.ring_oscillator_load, library.reference_delay_model
        )
        engine = BatchEngine(
            BatchPopulation.from_samples(library, samples),
            lut=program_lut_for_load(reference_load, sample_rate=1e5),
        )
        trace = engine.run(
            np.zeros((4, 60), dtype=np.int64), 60,
            scheduled_codes=np.full(60, 11),
        )
        for i in range(4):
            die = trace.die(i)
            assert trace.total_energy()[i] == pytest.approx(die.total_energy())
            assert int(trace.total_operations()[i]) == die.total_operations()
            assert int(trace.final_correction()[i]) == die.final_correction()
            assert trace.final_voltage()[i] == pytest.approx(
                die.final_voltage()
            )


class TestBatchedMepParity:
    def test_batched_mep_matches_scalar_solves(self, library):
        from repro.analysis.monte_carlo import monte_carlo_mep
        from repro.devices.variation import VariationModel

        kwargs = dict(
            samples=25,
            library=library,
            variation=VariationModel(global_sigma_v=0.015, local_sigma_v=0.005),
            seed=2009,
        )
        scalar = monte_carlo_mep(method="scalar", **kwargs)
        batched = monte_carlo_mep(method="batched", **kwargs)
        assert scalar.count == batched.count
        for a, b in zip(scalar.results, batched.results):
            assert a.index == b.index
            assert a.nmos_vth_shift == b.nmos_vth_shift
            assert a.pmos_vth_shift == b.pmos_vth_shift
            assert b.mep.optimal_supply == pytest.approx(
                a.mep.optimal_supply, rel=1e-12
            )
            assert b.mep.minimum_energy == pytest.approx(
                a.mep.minimum_energy, rel=1e-12
            )
            assert b.uncompensated_energy == pytest.approx(
                a.uncompensated_energy, rel=1e-12
            )
            assert b.compensated_energy == pytest.approx(
                a.compensated_energy, rel=1e-12
            )

    def test_batched_sweeps_match_scalar_sweeps(self, library):
        from repro.analysis.sweeps import corner_energy_sweep
        from repro.delay.mep import sweep_energy

        result = corner_energy_sweep(library)
        for corner, sweep in result.sweeps.items():
            model = library.energy_model(
                OperatingCondition(corner=corner),
                library.ring_oscillator_load.with_activity(0.1),
            )
            reference = sweep_energy(model, label=corner)
            np.testing.assert_allclose(
                sweep.energies, reference.energies, rtol=1e-12
            )
            assert sweep.minimum.optimal_supply == pytest.approx(
                reference.minimum.optimal_supply, rel=1e-12
            )
