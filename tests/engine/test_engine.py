"""Unit tests of the batched engine building blocks."""

import numpy as np
import pytest

from repro.circuits.loads import DigitalLoad
from repro.core.config import ControllerConfig
from repro.core.rate_controller import program_lut_for_load
from repro.delay.mep import refine_minima_grid
from repro.devices.variation import MonteCarloSampler
from repro.engine import (
    BatchDeviceSet,
    BatchEngine,
    BatchEnergyModel,
    BatchPopulation,
    BatchState,
    BatchTrace,
    batch_energy_model,
    batched_minimum_energy_points,
)
from repro.library import OperatingCondition


@pytest.fixture(scope="module")
def reference_lut(library):
    reference_load = DigitalLoad(
        library.ring_oscillator_load, library.reference_delay_model
    )
    return program_lut_for_load(reference_load, sample_rate=1e5)


@pytest.fixture()
def small_engine(library, reference_lut):
    samples = MonteCarloSampler(seed=21).draw(5)
    population = BatchPopulation.from_samples(library, samples)
    return BatchEngine(population, lut=reference_lut)


class TestBatchState:
    def test_initial_state_shapes(self):
        config = ControllerConfig()
        state = BatchState.initial(7, config, averaging_window=4)
        assert state.n == 7
        assert state.queue_length.shape == (7,)
        assert state.history.shape == (7, 4)
        assert state.last_vote.shape == (7,)
        assert state.vote_streak.shape == (7,)
        assert not state.vote_streak.any()
        assert np.all(state.duty_value == config.code_lower_bound)
        assert state.cycles == 0

    def test_initial_state_validation(self):
        with pytest.raises(ValueError):
            BatchState.initial(0, ControllerConfig())
        with pytest.raises(ValueError):
            BatchState.initial(3, ControllerConfig(), averaging_window=0)

    def test_per_die_initial_correction(self):
        state = BatchState.initial(
            3, ControllerConfig(), initial_correction=np.array([0, 1, -1])
        )
        assert state.lut_correction.tolist() == [0, 1, -1]

    def test_history_window_reads_the_ring_oldest_first(self):
        state = BatchState.initial(2, ControllerConfig(), averaging_window=4)
        state.seed_history([7, 8])
        assert state.history_pos == 2
        assert state.history_sum.tolist() == [15, 15]
        assert state.history_window().tolist() == [[7, 8], [7, 8]]
        # Four more writes, made the way the cycle kernel makes them,
        # fill the window and wrap the ring past its oldest entries.
        for value in (9, 10, 11, 12):
            state.history[:, state.history_pos] = value
            state.history_pos = (state.history_pos + 1) % 4
            state.history_filled = min(state.history_filled + 1, 4)
        assert state.history[0].tolist() == [11, 12, 9, 10]
        assert state.history_window().tolist() == [[9, 10, 11, 12]] * 2

    def test_seed_votes_round_trips_through_die_vote_tail(self):
        """The hand-off keeps the trailing run of equal votes, capped at
        K = 3, as (last_vote, vote_streak) on every die."""
        state = BatchState.initial(3, ControllerConfig())
        assert state.die_vote_tail(0) == []
        cases = (
            ([4, 6], [6]),
            ([5, 5], [5, 5]),
            ([4, 5, 5, 5, 5], [5, 5, 5]),
            ([], []),
        )
        for votes, tail in cases:
            state.seed_votes(votes, 3)
            assert state.vote_streak.tolist() == [len(tail)] * 3, votes
            assert all(
                state.die_vote_tail(die) == tail for die in range(3)
            ), votes
        # One die's streak is its own: a reset on die 2 leaves the rest.
        state.seed_votes([5, 5], 3)
        state.vote_streak[2] = 0
        assert state.die_vote_tail(1) == [5, 5]
        assert state.die_vote_tail(2) == []


class TestBatchDeviceSet:
    def test_from_delay_model_matches_scalar_delay(self, library):
        model = library.delay_model(OperatingCondition(corner="SS"))
        devices = BatchDeviceSet.from_delay_model(model, n=3)
        from repro.delay.gate_delay import StageKind

        grid = np.linspace(0.15, 1.2, 20)
        batched = devices.propagation_delay(
            StageKind.NAND2,
            np.broadcast_to(grid, (3, grid.size)),
            load_stage=StageKind.NAND2,
        )
        scalar = model.propagation_delay(
            StageKind.NAND2, grid, load_stage=StageKind.NAND2
        )
        for row in range(3):
            np.testing.assert_allclose(batched[row], scalar, rtol=1e-14)

    def test_shift_arrays_must_align(self, library):
        with pytest.raises(ValueError):
            BatchDeviceSet.from_technology(
                library.technology,
                0.65,
                nmos_vth_shifts=np.zeros(3),
                pmos_vth_shifts=np.zeros(4),
            )

    def test_energy_model_grid_shape(self, library):
        devices = BatchDeviceSet.from_technology(
            library.technology,
            library.reference_delay_model.delay_constant,
            n=4,
        )
        model = BatchEnergyModel(devices, library.ring_oscillator_load)
        grid = np.broadcast_to(np.linspace(0.1, 1.2, 50), (4, 50))
        surface = model.total_energy(grid)
        assert surface.shape == (4, 50)
        assert np.all(surface > 0)


class TestRefineMinimaGrid:
    def test_quadratic_minimum_recovered(self):
        supplies = np.linspace(0.0, 2.0, 21)
        true_minima = np.array([0.63, 1.17])
        energies = (supplies[None, :] - true_minima[:, None]) ** 2 + 1.0
        v_opt, e_min = refine_minima_grid(supplies, energies)
        np.testing.assert_allclose(v_opt, true_minima, atol=1e-9)
        np.testing.assert_allclose(e_min, 1.0, atol=1e-9)

    def test_edge_minimum_falls_back_to_grid(self):
        supplies = np.linspace(1.0, 2.0, 5)
        energies = np.array([[1.0, 2.0, 3.0, 4.0, 5.0]])
        v_opt, e_min = refine_minima_grid(supplies, energies)
        assert v_opt[0] == 1.0
        assert e_min[0] == 1.0

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            refine_minima_grid(np.linspace(0, 1, 5), np.zeros((2, 4)))


class TestBatchedMepHelpers:
    def test_labels_and_temperatures_propagate(self, library):
        conditions = [
            OperatingCondition(corner="TT", temperature_c=t)
            for t in (25.0, 85.0)
        ]
        model = batch_energy_model(library, conditions)
        points = batched_minimum_energy_points(
            model,
            temperature_c=np.array([25.0, 85.0]),
            labels=["cold", "hot"],
        )
        assert [p.label for p in points] == ["cold", "hot"]
        assert [p.temperature_c for p in points] == [25.0, 85.0]
        # Fig. 2: the MEP moves up with temperature.
        assert points[1].optimal_supply > points[0].optimal_supply

    def test_empty_conditions_rejected(self, library):
        with pytest.raises(ValueError):
            batch_energy_model(library, [])


class TestBatchEngine:
    def test_run_shape_and_telemetry(self, small_engine):
        trace = small_engine.run(None, 40, scheduled_codes=np.full(40, 12))
        assert len(trace) == 40
        assert trace.n == 5
        assert trace.output_voltages.shape == (40, 5)
        assert np.all(trace.output_voltages >= 0.0)
        assert np.all(trace.duty_values >= 1)
        assert np.all(trace.duty_values <= 62)

    def test_population_diverges_with_variation(self, library, reference_lut):
        """Different threshold shifts must produce different trajectories."""
        from repro.devices.variation import VariationModel

        samples = MonteCarloSampler(
            VariationModel(global_sigma_v=0.02), seed=3
        ).draw(4)
        engine = BatchEngine(
            BatchPopulation.from_samples(library, samples),
            lut=reference_lut,
        )
        trace = engine.run(None, 150, scheduled_codes=np.full(150, 11))
        final = trace.final_voltage()
        assert np.unique(np.round(final, 4)).size > 1

    def test_arrival_matrix_validation(self, small_engine):
        with pytest.raises(ValueError):
            small_engine.run(np.zeros((2, 10), dtype=int), 10)
        with pytest.raises(ValueError):
            small_engine.run(np.zeros(7, dtype=int), 10)
        with pytest.raises(ValueError):
            small_engine.run(None, 0)

    def test_run_schedule_validation(self, small_engine):
        with pytest.raises(ValueError):
            small_engine.run_schedule([])
        with pytest.raises(ValueError):
            small_engine.run_schedule([(10, 0)])

    def test_trace_concatenate(self, small_engine):
        first = small_engine.run(None, 20, scheduled_codes=np.full(20, 12))
        second = small_engine.run(None, 30, scheduled_codes=np.full(30, 12))
        joined = BatchTrace.concatenate([first, second])
        assert len(joined) == 50
        # Time keeps advancing across the stitched runs.
        assert joined.times[0] < joined.times[-1]
        np.testing.assert_allclose(np.diff(joined.times), 1e-6)

    def test_compensation_requires_calibration(self, library, reference_lut):
        samples = MonteCarloSampler(seed=2).draw(2)
        population = BatchPopulation.from_samples(library, samples)
        population.expected_counts = None
        with pytest.raises(ValueError):
            BatchEngine(population, lut=reference_lut)
