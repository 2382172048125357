"""Bit-identity of the fused kernel against the scalar physics oracle.

Every die of a fused :class:`~repro.engine.kernels.CycleKernel` run
(preallocated scratch, ``out=`` ufuncs, a ring-buffered history window
and a streak-counted compensation vote) must reproduce the pure-Python
``AdaptiveController.run_reference`` / ``run_schedule_reference`` loop
on the same silicon **bit for bit** under the exact device model: every
trace channel, and the loop state the scalar components hold at the
end.  The cases cross partially filled windows, full windows,
vote-collection resets (supply-ceiling resets and applied corrections)
and a closed-loop run followed by a schedule run.  These tests pin
that, the vote streak's update rule stage by stage, and the vectorised
``normalise_arrivals`` shape/dtype contract.
"""

import copy

import numpy as np
import pytest

from repro.circuits.loads import DigitalLoad
from repro.core.config import ControllerConfig
from repro.core.controller import AdaptiveController
from repro.core.rate_controller import RateController, program_lut_for_load
from repro.devices.variation import MonteCarloSampler, VariationModel
from repro.engine import (
    BatchEngine,
    BatchPopulation,
    normalise_arrivals,
)
from repro.engine.kernels import CycleKernel
from repro.library import OperatingCondition
from repro.testing import assert_bit_identical, trailing_run
from repro.workloads import ConstantArrivals
from repro.workloads.batch import constant_arrival_matrix

CHANNELS = (
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
"""Every :class:`~repro.core.controller.ControllerTrace` channel."""


@pytest.fixture(scope="module")
def reference_lut(library):
    reference_load = DigitalLoad(
        library.ring_oscillator_load, library.reference_delay_model
    )
    return program_lut_for_load(reference_load, sample_rate=1e5)


def scalar_twin(library, lut, condition, averaging_window=4):
    """A scalar controller on one die's silicon, with its own LUT copy."""
    lut = copy.deepcopy(lut)
    controller = AdaptiveController(
        load=DigitalLoad(
            library.ring_oscillator_load, library.delay_model(condition)
        ),
        lut=lut,
        reference_delay_model=library.reference_delay_model,
    )
    controller.rate_controller = RateController(
        lut, averaging_window=averaging_window
    )
    return controller


def make_engine(library, reference_lut, n=6, seed=13, averaging_window=4):
    """A Monte Carlo engine plus one scalar twin per die."""
    samples = MonteCarloSampler(
        VariationModel(global_sigma_v=0.02), seed=seed
    ).draw_arrays(n)
    engine = BatchEngine(
        BatchPopulation.from_samples(library, samples),
        lut=reference_lut,
        averaging_window=averaging_window,
    )
    twins = [
        scalar_twin(
            library,
            reference_lut,
            OperatingCondition(
                corner="TT",
                nmos_vth_shift=float(samples.nmos_vth_shift[die]),
                pmos_vth_shift=float(samples.pmos_vth_shift[die]),
            ),
            averaging_window=averaging_window,
        )
        for die in range(n)
    ]
    return engine, twins


def assert_matches_twins(batch_trace, twin_traces):
    for die, twin_trace in enumerate(twin_traces):
        die_trace = batch_trace.die(die)
        for channel in CHANNELS:
            assert_bit_identical(
                getattr(die_trace, channel),
                getattr(twin_trace, channel),
                err_msg=f"{channel} die {die}",
            )


def assert_states_match(engine, twins):
    """Final engine state equals each twin's scalar component state."""
    s = engine.state
    history = s.history_window()
    window = engine.config.compensation_interval_cycles
    for die, twin in enumerate(twins):
        assert s.cycles == twin.cycles_run
        dcdc = twin.dcdc
        expected = {
            "queue_length": twin.fifo.queue_length,
            "lut_correction": twin.lut.correction,
            "duty_value": dcdc.pwm.duty_value,
            "cycles_since_duty_update": dcdc.cycles_since_duty_update,
            "inductor_current": dcdc.power_stage.state.inductor_current,
            "output_voltage": dcdc.power_stage.state.output_voltage,
            "work_accumulator": twin._work_accumulator,
        }
        for field, value in expected.items():
            array = getattr(s, field)
            assert_bit_identical(
                array[die],
                np.asarray(value, dtype=array.dtype),
                err_msg=f"{field} die {die}",
            )
        assert history[die].tolist() == twin.rate_controller.history, die
        # The streak is the twin's trailing run of equal votes, capped
        # at K; last_vote only means something while the streak is on.
        votes = twin._signature_votes
        streak = min(trailing_run(votes), window)
        assert int(s.vote_streak[die]) == streak, die
        if streak:
            assert int(s.last_vote[die]) == votes[-1], die


class TestFusedKernelMatchesRunReference:
    def test_partial_window_run(self, library, reference_lut):
        """Fewer cycles than the averaging window: partial history."""
        engine, twins = make_engine(
            library, reference_lut, averaging_window=8
        )
        arrivals = constant_arrival_matrix(np.full(6, 1e5), 1e-6, 5)
        assert_matches_twins(
            engine.run(arrivals, 5),
            [twin.run_reference(ConstantArrivals(1e5), 5) for twin in twins],
        )
        assert engine.state.history_filled == 5
        assert_states_match(engine, twins)

    def test_full_window_closed_loop(self, library, reference_lut):
        """Long closed loop: wrapped history ring + vote collection."""
        cycles = 500
        engine, twins = make_engine(library, reference_lut)
        arrivals = constant_arrival_matrix(np.full(6, 1e5), 1e-6, cycles)
        assert_matches_twins(
            engine.run(arrivals, cycles),
            [
                twin.run_reference(ConstantArrivals(1e5), cycles)
                for twin in twins
            ],
        )
        assert_states_match(engine, twins)

    def test_vote_reset_transitions(self, library, reference_lut):
        """Corner dies converge to non-zero corrections: the run crosses
        vote-window fills and applied-correction resets, then a
        high-voltage schedule segment exercises the over-ceiling reset
        before dropping back into the sensing range."""
        corners = ("SS", "TT", "FS")
        engine = BatchEngine(
            BatchPopulation.from_corners(library, corners),
            lut=reference_lut,
        )
        twins = [
            scalar_twin(
                library, reference_lut, OperatingCondition(corner=corner)
            )
            for corner in corners
        ]
        cycles = 900
        arrivals = constant_arrival_matrix(np.full(3, 1e5), 1e-6, cycles)
        trace = engine.run(arrivals, cycles)
        assert_matches_twins(
            trace,
            [
                twin.run_reference(ConstantArrivals(1e5), cycles)
                for twin in twins
            ],
        )
        # The scenario must actually exercise a correction (vote reset).
        assert np.any(trace.final_correction() != 0)
        schedule = [(47, 200), (11, 250)]
        scheduled = engine.run_schedule(schedule)
        assert_matches_twins(
            scheduled,
            [twin.run_schedule_reference(schedule) for twin in twins],
        )
        # The first segment regulates above the signature ceiling, so
        # the over-ceiling vote reset ran while settled.
        ceiling = engine.config.signature_supply_ceiling
        assert np.any(scheduled.output_voltages > ceiling)
        assert_states_match(engine, twins)

    def test_schedule_mode_and_sequential_runs(self, library, reference_lut):
        """Ring state carries across sequential runs exactly."""
        engine, twins = make_engine(library, reference_lut)
        assert_matches_twins(
            engine.run(ConstantArrivals(1e5), 150),
            [twin.run_reference(ConstantArrivals(1e5), 150) for twin in twins],
        )
        schedule = [(19, 80), (11, 90)]
        assert_matches_twins(
            engine.run_schedule(schedule),
            [twin.run_schedule_reference(schedule) for twin in twins],
        )
        assert_states_match(engine, twins)

    def test_row_arrays_stable_until_next_step(self, library, reference_lut):
        """A recorded row must not change before the following step."""
        engine, _ = make_engine(library, reference_lut)
        row = engine.step(np.full(6, 3, dtype=np.int64))
        snapshot = {key: np.copy(value) for key, value in row.items()}
        for key, value in snapshot.items():
            np.testing.assert_array_equal(row[key], value, err_msg=key)


class TestVoteStreak:
    """``_update_compensation`` one call at a time, on chosen signatures.

    Each call is one settled-or-not cycle of the compensation stage with
    the TDC signature replaced by a fixed vector, so every branch of the
    streak rule is visible in isolation.
    """

    COLLECT, OVER = 0.3, 0.7
    """Output voltages below / above the 0.5 V signature ceiling."""

    def kernel(self, library, reference_lut, n, window=3):
        engine = BatchEngine(
            BatchPopulation.from_corners(library, ("TT",) * n),
            lut=reference_lut,
            config=ControllerConfig(compensation_interval_cycles=window),
        )
        return engine.state, CycleKernel(engine)

    @staticmethod
    def vote(kernel, signatures, vout, settled=True):
        """Run the stage once with the given per-die signatures."""
        sc = kernel.scratch

        def signatures_into_i0(_vout):
            sc.i0[...] = signatures
            return sc.i0

        kernel._signatures = signatures_into_i0
        sc.b0[...] = settled
        kernel._update_compensation(
            np.asarray(vout, dtype=float), sc.b0
        )

    def test_streak_rule(self, library, reference_lut):
        state, kernel = self.kernel(library, reference_lut, n=4)
        c, o = self.COLLECT, self.OVER
        # Die 0 agrees five times with its own correction (0): the
        # streak climbs and saturates at K, and nothing is applied.
        # Die 1 disagrees on its third vote: the streak restarts at 1.
        # Die 2 goes over the ceiling after two votes: streak 0.
        # Die 3 sits out (unsettled) on its first two cycles.
        settled = [True, True, True, False]
        self.vote(kernel, [0, 2, 6, 5], [c, c, c, c], settled)
        self.vote(kernel, [0, 2, 6, 5], [c, c, c, c], settled)
        assert state.vote_streak.tolist() == [2, 2, 2, 0]
        self.vote(kernel, [0, 0, 6, 0], [c, c, o, c])
        assert state.vote_streak.tolist() == [3, 1, 0, 1]
        assert state.last_vote.tolist() == [0, 0, 6, 0]
        # Die 2's stale last_vote equals its next signature: the run
        # still starts at 1, not at the count it had before the reset.
        self.vote(kernel, [0, 0, 6, 0], [c, c, c, c])
        assert state.vote_streak.tolist() == [3, 2, 1, 2]
        self.vote(kernel, [0, 0, 6, 0], [c, c, c, c])
        assert state.vote_streak.tolist() == [3, 3, 2, 3]
        assert state.lut_correction.tolist() == [0, 0, 0, 0]

    def test_ready_fires_only_at_k(self, library, reference_lut):
        state, kernel = self.kernel(library, reference_lut, n=2)
        c = self.COLLECT
        # Die 0 votes 2 while its correction is 0: applied on the K-th
        # agreeing vote, not before, and the streak resets to 0.  Die 1
        # votes past the +4 LSB limit: the correction is clipped.
        for streak in (1, 2):
            self.vote(kernel, [2, 9], [c, c])
            assert state.vote_streak.tolist() == [streak, streak]
            assert state.lut_correction.tolist() == [0, 0]
        self.vote(kernel, [2, 9], [c, c])
        assert state.lut_correction.tolist() == [2, 4]
        assert state.vote_streak.tolist() == [0, 0]

    def test_single_vote_window(self, library, reference_lut):
        state, kernel = self.kernel(library, reference_lut, n=2, window=1)
        c = self.COLLECT
        self.vote(kernel, [0, 3], [c, c])
        # K = 1: every collected vote is ready; the agreeing one saturates
        # at 1, the differing one is applied at once.
        assert state.vote_streak.tolist() == [1, 0]
        assert state.lut_correction.tolist() == [0, 3]
        self.vote(kernel, [-1, 3], [c, c])
        assert state.vote_streak.tolist() == [0, 1]
        assert state.lut_correction.tolist() == [-1, 3]


class TestNormaliseArrivals:
    def test_callable_matches_sequential_reference(self):
        """The vectorised path must call the (stateful) process in cycle
        order and truncate like the old per-cycle int()."""
        cycles, period = 37, 1e-6
        matrix = normalise_arrivals(
            ConstantArrivals(3.3e5), cycles, 4, period, start_cycle=11
        )
        reference_process = ConstantArrivals(3.3e5)
        reference = [
            int(reference_process((11 + i) * period, period))
            for i in range(cycles)
        ]
        assert matrix.shape == (4, cycles)
        assert matrix.dtype == np.int64
        np.testing.assert_array_equal(matrix[0], reference)
        # Every row is the same shared stream (zero-copy broadcast).
        np.testing.assert_array_equal(matrix, np.tile(reference, (4, 1)))
        assert matrix.base is not None

    def test_vector_and_matrix_shapes_pinned(self):
        vector = np.arange(5)
        matrix = normalise_arrivals(vector, 5, 3, 1e-6)
        assert matrix.shape == (3, 5)
        assert matrix.dtype == np.int64
        full = normalise_arrivals(np.ones((3, 5)), 5, 3, 1e-6)
        assert full.shape == (3, 5)
        assert full.dtype == np.int64
        none = normalise_arrivals(None, 4, 2, 1e-6)
        assert none.shape == (2, 4)
        assert none.dtype == np.int64
        assert not none.any()

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            normalise_arrivals(np.arange(3), 5, 2, 1e-6)
        with pytest.raises(ValueError):
            normalise_arrivals(np.ones((4, 5)), 5, 2, 1e-6)
