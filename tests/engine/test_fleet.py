"""Sharded fleet execution: determinism, merging and configuration.

The fleet contract: a sharded, multi-worker run is **bit-identical** to
the same population advanced as one `BatchEngine` batch, whatever the
shard size, worker count, telemetry mode or executor backend
(serial / process).
"""

import os

import numpy as np
import pytest

from repro.circuits.loads import DigitalLoad
from repro.core.rate_controller import program_lut_for_load
from repro.devices.variation import MonteCarloSampler
from repro.engine import (
    BatchEngine,
    BatchPopulation,
    BatchTrace,
    FleetConfig,
    FleetEngine,
    StreamingTrace,
)

ALL_CHANNELS = (
    "times",
    "queue_lengths",
    "desired_codes",
    "output_voltages",
    "duty_values",
    "operations_completed",
    "samples_dropped",
    "energies",
    "lut_corrections",
    "decisions",
)

DIES = 10
CYCLES = 120


@pytest.fixture(scope="module")
def reference_lut(library):
    reference_load = DigitalLoad(
        library.ring_oscillator_load, library.reference_delay_model
    )
    return program_lut_for_load(reference_load, sample_rate=1e5)


@pytest.fixture(scope="module")
def population(library):
    samples = MonteCarloSampler(seed=13).draw_arrays(DIES)
    return BatchPopulation.from_samples(library, samples)


@pytest.fixture(scope="module")
def arrivals():
    rng = np.random.default_rng(99)
    return rng.integers(0, 3, size=(DIES, CYCLES))


@pytest.fixture(scope="module")
def other_population(library):
    samples = MonteCarloSampler(seed=14).draw_arrays(DIES)
    return BatchPopulation.from_samples(library, samples)


def assert_bit_identical(expected: BatchTrace, actual: BatchTrace):
    for channel in ALL_CHANNELS:
        np.testing.assert_array_equal(
            getattr(actual, channel),
            getattr(expected, channel),
            err_msg=channel,
        )


class TestFleetDeterminism:
    def test_sharded_run_is_bit_identical_to_single_shard(
        self, population, reference_lut, arrivals
    ):
        single = BatchEngine(population, lut=reference_lut).run(
            arrivals, CYCLES
        )
        fleet = FleetEngine(
            population,
            reference_lut,
            fleet=FleetConfig(shard_size=3, workers=2),
        )
        assert fleet.num_shards == 4  # 3+3+3+1: uneven tail shard
        assert_bit_identical(single, fleet.run(arrivals, CYCLES))

    def test_worker_count_does_not_change_results(
        self, population, reference_lut, arrivals
    ):
        runs = []
        for workers in (1, 2, 5):
            fleet = FleetEngine(
                population,
                reference_lut,
                fleet=FleetConfig(shard_size=2, workers=workers),
            )
            runs.append(fleet.run(arrivals, CYCLES))
        assert_bit_identical(runs[0], runs[1])
        assert_bit_identical(runs[0], runs[2])

    def test_schedule_run_matches_single_shard(
        self, population, reference_lut
    ):
        schedule = [(19, 40), (11, 50), (33, 30)]
        single = BatchEngine(population, lut=reference_lut).run_schedule(
            schedule
        )
        fleet = FleetEngine(
            population,
            reference_lut,
            fleet=FleetConfig(shard_size=4, workers=3),
        )
        assert_bit_identical(single, fleet.run_schedule(schedule))

    def test_callable_and_vector_arrivals_match_matrix_form(
        self, population, reference_lut
    ):
        vector = np.tile([2, 0, 1], CYCLES // 3).astype(np.int64)
        matrix = np.broadcast_to(vector, (DIES, CYCLES))

        def build():
            return FleetEngine(
                population,
                reference_lut,
                fleet=FleetConfig(shard_size=4, workers=2),
            )

        from_matrix = build().run(matrix, CYCLES)
        from_vector = build().run(vector, CYCLES)
        pattern = [2, 0, 1]

        def arrival_fn(time, period):
            return pattern[int(round(time / period)) % 3]

        from_callable = build().run(arrival_fn, CYCLES)
        assert_bit_identical(from_matrix, from_vector)
        assert_bit_identical(from_matrix, from_callable)

    def test_sequential_runs_continue_shard_state(
        self, population, reference_lut, arrivals
    ):
        single_engine = BatchEngine(population, lut=reference_lut)
        first = single_engine.run(arrivals[:, :60], 60)
        second = single_engine.run(arrivals[:, 60:], 60)
        fleet = FleetEngine(
            population,
            reference_lut,
            fleet=FleetConfig(shard_size=3, workers=2),
        )
        assert_bit_identical(first, fleet.run(arrivals[:, :60], 60))
        assert_bit_identical(second, fleet.run(arrivals[:, 60:], 60))

    def test_initial_correction_array_is_shard_sliced(
        self, population, reference_lut
    ):
        correction = np.arange(DIES, dtype=np.int64) % 3 - 1
        single = BatchEngine(
            population, lut=reference_lut, initial_correction=correction
        ).run(None, 30, scheduled_codes=np.full(30, 12))
        fleet = FleetEngine(
            population,
            reference_lut,
            fleet=FleetConfig(shard_size=4, workers=2),
            initial_correction=correction,
        )
        assert_bit_identical(
            single, fleet.run(None, 30, scheduled_codes=np.full(30, 12))
        )


class TestFleetTelemetryModes:
    def test_streaming_merge_matches_unsharded_streaming(
        self, population, reference_lut, arrivals
    ):
        single_sink = BatchEngine(population, lut=reference_lut).run(
            arrivals, CYCLES, sink=StreamingTrace(window=16)
        )
        fleet = FleetEngine(
            population,
            reference_lut,
            fleet=FleetConfig(
                shard_size=3, workers=2,
                telemetry="streaming", stream_window=16,
            ),
        )
        merged = fleet.run(arrivals, CYCLES)
        assert merged.n == DIES
        assert merged.cycles == CYCLES
        for channel in ("output_voltages", "energies", "duty_values"):
            np.testing.assert_array_equal(
                merged.minimum(channel), single_sink.minimum(channel)
            )
            np.testing.assert_array_equal(
                merged.maximum(channel), single_sink.maximum(channel)
            )
            np.testing.assert_array_equal(
                merged.total(channel), single_sink.total(channel)
            )
            np.testing.assert_array_equal(
                merged.tail(channel), single_sink.tail(channel)
            )
        np.testing.assert_array_equal(
            merged.settle_cycle, single_sink.settle_cycle
        )
        np.testing.assert_array_equal(
            merged.violation_cycles, single_sink.violation_cycles
        )

    def test_null_mode_returns_none_but_totals_survive(
        self, population, reference_lut, arrivals
    ):
        dense = BatchEngine(population, lut=reference_lut).run(
            arrivals, CYCLES
        )
        fleet = FleetEngine(
            population,
            reference_lut,
            fleet=FleetConfig(shard_size=3, workers=2, telemetry="null"),
        )
        assert fleet.run(arrivals, CYCLES) is None
        np.testing.assert_array_equal(
            fleet.total_energy(), dense.total_energy()
        )
        np.testing.assert_array_equal(
            fleet.total_operations(), dense.total_operations()
        )
        np.testing.assert_array_equal(
            fleet.total_drops(), dense.total_drops()
        )
        np.testing.assert_array_equal(
            fleet.final_correction(), dense.final_correction()
        )


class TestExecutorBackends:
    """serial/process runs must be bit-identical to one batch."""

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_dense_run_is_bit_identical(
        self, population, reference_lut, arrivals, executor
    ):
        single = BatchEngine(population, lut=reference_lut).run(
            arrivals, CYCLES
        )
        with FleetEngine(
            population,
            reference_lut,
            fleet=FleetConfig(shard_size=3, workers=2, executor=executor),
        ) as fleet:
            assert_bit_identical(single, fleet.run(arrivals, CYCLES))
            np.testing.assert_array_equal(
                fleet.total_energy(), single.total_energy()
            )
            np.testing.assert_array_equal(
                fleet.final_correction(), single.final_correction()
            )

    def test_process_streaming_run_matches_serial_backend(
        self, population, reference_lut, arrivals
    ):
        def run(backend):
            with FleetEngine(
                population,
                reference_lut,
                fleet=FleetConfig(
                    shard_size=4, workers=2, executor=backend,
                    telemetry="streaming", stream_window=16,
                ),
            ) as fleet:
                return fleet.run(arrivals, CYCLES)

        reference = run("serial")
        sink = run("process")
        for channel in ("output_voltages", "energies", "duty_values"):
            np.testing.assert_array_equal(
                sink.total(channel), reference.total(channel)
            )
            np.testing.assert_array_equal(
                sink.tail(channel), reference.tail(channel)
            )
        np.testing.assert_array_equal(
            sink.settle_cycle, reference.settle_cycle
        )
        np.testing.assert_array_equal(
            sink.violation_cycles, reference.violation_cycles
        )

    def test_process_schedule_run_matches_single_shard(
        self, population, reference_lut
    ):
        schedule = [(19, 40), (11, 50), (33, 30)]
        single = BatchEngine(population, lut=reference_lut).run_schedule(
            schedule
        )
        with FleetEngine(
            population,
            reference_lut,
            fleet=FleetConfig(shard_size=4, workers=2, executor="process"),
        ) as fleet:
            assert_bit_identical(single, fleet.run_schedule(schedule))

    def test_process_sequential_runs_continue_state(
        self, population, reference_lut, arrivals
    ):
        single_engine = BatchEngine(population, lut=reference_lut)
        first = single_engine.run(arrivals[:, :60], 60)
        second = single_engine.run(arrivals[:, 60:], 60)
        with FleetEngine(
            population,
            reference_lut,
            fleet=FleetConfig(shard_size=3, workers=2, executor="process"),
        ) as fleet:
            assert_bit_identical(first, fleet.run(arrivals[:, :60], 60))
            assert_bit_identical(second, fleet.run(arrivals[:, 60:], 60))


class TestChunkedDispatch:
    """run_chunked must equal one run() over the full horizon, bit for
    bit, on every backend and telemetry mode."""

    @pytest.mark.parametrize("executor", ["serial", "process"])
    @pytest.mark.parametrize("chunk", [1, 37, 120, 500])
    def test_dense_chunked_matches_one_run(
        self, population, reference_lut, arrivals, executor, chunk
    ):
        single = BatchEngine(population, lut=reference_lut).run(
            arrivals, CYCLES
        )
        with FleetEngine(
            population,
            reference_lut,
            fleet=FleetConfig(shard_size=3, workers=2, executor=executor),
        ) as fleet:
            assert_bit_identical(
                single, fleet.run_chunked(arrivals, CYCLES, chunk)
            )

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_streaming_chunked_matches_unchunked(
        self, population, reference_lut, arrivals, executor
    ):
        def build():
            return FleetEngine(
                population,
                reference_lut,
                fleet=FleetConfig(
                    shard_size=3, workers=2, executor=executor,
                    telemetry="streaming", stream_window=16,
                ),
            )

        with build() as fleet:
            reference = fleet.run(arrivals, CYCLES)
        with build() as fleet:
            chunked = fleet.run_chunked(arrivals, CYCLES, 31)
        for channel in ("output_voltages", "energies", "duty_values"):
            np.testing.assert_array_equal(
                chunked.total(channel), reference.total(channel)
            )
            np.testing.assert_array_equal(
                chunked.tail(channel), reference.tail(channel)
            )
        np.testing.assert_array_equal(
            chunked.settle_cycle, reference.settle_cycle
        )
        np.testing.assert_array_equal(
            chunked.violation_cycles, reference.violation_cycles
        )

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_null_chunked_totals_match(
        self, population, reference_lut, arrivals, executor
    ):
        single = BatchEngine(population, lut=reference_lut)
        single.run(arrivals, CYCLES)
        with FleetEngine(
            population,
            reference_lut,
            fleet=FleetConfig(
                shard_size=3, workers=2, executor=executor, telemetry="null"
            ),
        ) as fleet:
            assert fleet.run_chunked(arrivals, CYCLES, 50) is None
            np.testing.assert_array_equal(
                fleet.total_energy(), single.state.energy_total
            )
            np.testing.assert_array_equal(
                fleet.final_correction(), single.state.lut_correction
            )

    def test_scheduled_chunked_matches_one_run(
        self, population, reference_lut
    ):
        codes = np.tile(
            np.array([19, 11, 33], dtype=np.int64), CYCLES // 3 + 1
        )[:CYCLES]
        single = BatchEngine(population, lut=reference_lut).run(
            None, CYCLES, scheduled_codes=codes
        )
        with FleetEngine(
            population,
            reference_lut,
            fleet=FleetConfig(shard_size=4, workers=2, executor="process"),
        ) as fleet:
            assert_bit_identical(
                single,
                fleet.run_chunked(None, CYCLES, 41, scheduled_codes=codes),
            )

    def test_chunk_must_be_positive(self, population, reference_lut):
        fleet = FleetEngine(population, reference_lut)
        with pytest.raises(ValueError):
            fleet.run_chunked(None, 10, 0)


class TestFleetReset:
    """reset() must make the next run bit-identical to a cold fleet."""

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_reset_replays_bit_identically(
        self, population, reference_lut, arrivals, executor
    ):
        with FleetEngine(
            population,
            reference_lut,
            fleet=FleetConfig(shard_size=3, workers=2, executor=executor),
        ) as fleet:
            first = fleet.run(arrivals, CYCLES)
            fleet.reset()
            assert_bit_identical(first, fleet.run(arrivals, CYCLES))

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_population_swap_matches_cold_fleet(
        self,
        population,
        other_population,
        reference_lut,
        arrivals,
        executor,
    ):
        cold = BatchEngine(other_population, lut=reference_lut).run(
            arrivals, CYCLES
        )
        with FleetEngine(
            population,
            reference_lut,
            fleet=FleetConfig(shard_size=3, workers=2, executor=executor),
        ) as fleet:
            fleet.run(arrivals, CYCLES)  # dirty the resident state
            fleet.reset(population=other_population)
            assert_bit_identical(cold, fleet.run(arrivals, CYCLES))

    def test_tabulated_swap_rebuilds_shared_tables(
        self, population, other_population, reference_lut, arrivals
    ):
        cold = BatchEngine(
            other_population, lut=reference_lut, device_model="tabulated"
        ).run(arrivals, CYCLES)
        with FleetEngine(
            population,
            reference_lut,
            fleet=FleetConfig(shard_size=4, workers=2, executor="process"),
            device_model="tabulated",
        ) as fleet:
            fleet.run(arrivals, CYCLES)
            fleet.reset(population=other_population)
            assert_bit_identical(cold, fleet.run(arrivals, CYCLES))

    def test_reset_initial_correction_array(
        self, population, reference_lut
    ):
        correction = np.arange(DIES, dtype=np.int64) % 3 - 1
        codes = np.full(30, 12)
        single = BatchEngine(
            population, lut=reference_lut, initial_correction=correction
        ).run(None, 30, scheduled_codes=codes)
        with FleetEngine(
            population,
            reference_lut,
            fleet=FleetConfig(shard_size=4, workers=2),
        ) as fleet:
            fleet.run(None, 30, scheduled_codes=codes)
            fleet.reset(initial_correction=correction)
            assert_bit_identical(
                single, fleet.run(None, 30, scheduled_codes=codes)
            )
            # None restores the construction-time default.
            fleet.reset()
            plain = BatchEngine(population, lut=reference_lut).run(
                None, 30, scheduled_codes=codes
            )
            assert_bit_identical(
                plain, fleet.run(None, 30, scheduled_codes=codes)
            )

    def test_size_mismatch_rejected(
        self, population, reference_lut, library
    ):
        small = BatchPopulation.from_samples(
            library, MonteCarloSampler(seed=7).draw_arrays(DIES - 1)
        )
        with FleetEngine(population, reference_lut) as fleet:
            with pytest.raises(ValueError, match="replacement population"):
                fleet.reset(population=small)

    def test_reset_after_close_rejected(self, population, reference_lut):
        fleet = FleetEngine(population, reference_lut)
        fleet.close()
        with pytest.raises(RuntimeError):
            fleet.reset()


class TestResolvedWorkers:
    """Worker resolution must respect the process's CPU affinity."""

    def test_uses_sched_affinity_not_cpu_count(self, monkeypatch):
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False
        )
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert FleetConfig().resolved_workers() == 3

    def test_falls_back_to_cpu_count_without_affinity(self, monkeypatch):
        def unavailable(pid):
            raise OSError("no affinity on this platform")

        monkeypatch.setattr(
            os, "sched_getaffinity", unavailable, raising=False
        )
        monkeypatch.setattr(os, "cpu_count", lambda: 7)
        assert FleetConfig().resolved_workers() == 7

    def test_explicit_workers_bypass_affinity(self, monkeypatch):
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False
        )
        assert FleetConfig(workers=2).resolved_workers() == 2


class TestFleetConfigValidation:
    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            FleetConfig(shard_size=0)
        with pytest.raises(ValueError):
            FleetConfig(workers=0)
        with pytest.raises(ValueError):
            FleetConfig(telemetry="csv")
        with pytest.raises(ValueError):
            FleetConfig(stream_window=0)
        for executor in ("greenlet", "thread"):
            with pytest.raises(ValueError, match="executor must be one of"):
                FleetConfig(executor=executor)

    def test_shard_size_larger_than_population(
        self, population, reference_lut
    ):
        fleet = FleetEngine(
            population,
            reference_lut,
            fleet=FleetConfig(shard_size=1000, workers=2),
        )
        assert fleet.num_shards == 1
        assert fleet.n == DIES

    def test_run_validation(self, population, reference_lut):
        fleet = FleetEngine(population, reference_lut)
        with pytest.raises(ValueError):
            fleet.run(None, 0)
        with pytest.raises(ValueError):
            fleet.run(np.zeros((3, 10), dtype=int), 10)
        with pytest.raises(ValueError):
            fleet.run_schedule([])


class TestCloseLifecycle:
    """close() must be idempotent and safe on engines in any state.

    The simulation service builds and closes a fleet per coalesced
    batch, including paths where construction fails partway or a fleet
    is discarded before ever running — none of which may raise or leak.
    """

    def test_close_is_idempotent_and_gathers_survive(
        self, population, reference_lut, arrivals
    ):
        fleet = FleetEngine(
            population,
            reference_lut,
            fleet=FleetConfig(shard_size=4, executor="serial"),
        )
        fleet.run(arrivals[:, :16], 16)
        energy = fleet.total_energy()
        fleet.close()
        fleet.close()  # second close is a no-op
        np.testing.assert_array_equal(fleet.total_energy(), energy)
        with pytest.raises(RuntimeError):
            fleet.run(arrivals[:, :16], 16)

    def test_close_before_any_run(self, population, reference_lut):
        fleet = FleetEngine(population, reference_lut)
        fleet.close()
        fleet.close()

    def test_close_on_never_initialised_engine(self):
        # __del__ can reach close() on an object whose __init__ raised
        # before any attribute was assigned; close() must no-op.
        shell = FleetEngine.__new__(FleetEngine)
        shell.close()
        shell.close()

    def test_close_after_failed_construction(
        self, population, reference_lut
    ):
        with pytest.raises(ValueError):
            FleetEngine(
                population,
                reference_lut,
                fleet=FleetConfig(executor="process"),
                step_kernel="legacy",
            )
        # The half-built engine is only reachable through GC; simulate
        # the partial state close() would see from __del__ there.
        shell = FleetEngine.__new__(FleetEngine)
        shell._closed = False
        shell._proc = None
        shell.close()
        shell.close()

    def test_process_fleet_close_without_run_unlinks_segments(
        self, population, reference_lut
    ):
        fleet = FleetEngine(
            population,
            reference_lut,
            fleet=FleetConfig(shard_size=5, workers=2, executor="process"),
        )
        names = fleet.shared_block_names()
        assert names
        fleet.close()  # pool never started; segments must still unlink
        fleet.close()
        for name in names:
            assert not os.path.exists(f"/dev/shm/{name}")
