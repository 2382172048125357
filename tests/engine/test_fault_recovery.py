"""Worker supervision and deterministic recovery of the fleet backends.

The chaos fuzz (``test_differential_fuzz.py``) randomizes fault
schedules; this suite pins each supervision mechanism directly:

* process backend: crash (worker ``os._exit``), hang (poll-timeout
  detection), corrupted ack and shared-memory attach failure are all
  fenced, the worker respawned fault-free, the failed shards restored
  from the run's snapshot and the run command replayed — bit-identical
  to fault-free;
* the restart budget is enforced (exhaustion fails fast, segments
  unlinked);
* ``close()`` cannot deadlock on a worker that hangs instead of
  acking — the bounded drain escalates to terminate (satellite
  regression for the unbounded ``recv()`` teardown);
* serial backend: per-shard snapshot/re-run recovery with the same
  budget semantics.
"""

import time

import numpy as np
import pytest

from repro import faults
from repro.circuits.loads import DigitalLoad
from repro.core.rate_controller import program_lut_for_load
from repro.devices.variation import MonteCarloSampler
from repro.engine import (
    BatchEngine,
    BatchPopulation,
    BatchTrace,
    FleetConfig,
    FleetEngine,
)
from repro.faults import FaultPlan, FaultSpec, RecoveryPolicy

DIES = 9
CYCLES = 40


@pytest.fixture(scope="module")
def reference_lut(library):
    reference_load = DigitalLoad(
        library.ring_oscillator_load, library.reference_delay_model
    )
    return program_lut_for_load(reference_load, sample_rate=1e5)


@pytest.fixture(scope="module")
def population(library):
    samples = MonteCarloSampler(seed=37).draw_arrays(DIES)
    return BatchPopulation.from_samples(library, samples)


@pytest.fixture(scope="module")
def arrivals():
    rng = np.random.default_rng(11)
    return rng.integers(0, 3, size=(DIES, CYCLES))


@pytest.fixture(scope="module")
def reference(population, reference_lut, arrivals):
    engine = BatchEngine(population, reference_lut)
    trace = engine.run(arrivals, CYCLES)
    return trace, engine.state.energy_total.copy()


@pytest.fixture(autouse=True)
def clean_plan():
    faults.clear()
    yield
    faults.clear()


def recovering_fleet(
    population, reference_lut, executor="process", telemetry="dense",
    **recovery_kwargs
):
    recovery_kwargs.setdefault("max_restarts", 2)
    if executor == "process":
        recovery_kwargs.setdefault("command_timeout_s", 2.0)
    return FleetEngine(
        population,
        reference_lut,
        fleet=FleetConfig(
            executor=executor,
            shard_size=3,
            workers=2,
            telemetry=telemetry,
            recovery=RecoveryPolicy(**recovery_kwargs),
        ),
    )


def split_runs(fleet, arrivals, split):
    """Run the horizon as two sequential runs split at cycle ``split``."""
    first = fleet.run(arrivals[:, :split], split)
    return first, fleet.run(arrivals[:, split:], CYCLES - split)


def assert_recovers_bit_identical(
    population, reference_lut, arrivals, reference, plan,
    executor="process", split=None, **recovery_kwargs
):
    faults.install(plan)
    with recovering_fleet(
        population, reference_lut, executor, **recovery_kwargs
    ) as fleet:
        names = fleet.shared_block_names()
        if split is None:
            trace = fleet.run(arrivals, CYCLES)
        else:
            trace = BatchTrace.concatenate(
                split_runs(fleet, arrivals, split)
            )
        energy = fleet.total_energy()
    expected_trace, expected_energy = reference
    np.testing.assert_array_equal(
        trace.output_voltages, expected_trace.output_voltages
    )
    np.testing.assert_array_equal(
        trace.lut_corrections, expected_trace.lut_corrections
    )
    np.testing.assert_array_equal(energy, expected_energy)
    from multiprocessing import shared_memory

    for name in names:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


class TestProcessRecovery:
    def test_crash_mid_run(
        self, population, reference_lut, arrivals, reference
    ):
        assert_recovers_bit_identical(
            population, reference_lut, arrivals, reference,
            FaultPlan((FaultSpec(kind="crash", shard=1),)),
        )

    def test_crash_mid_split_horizon(
        self, population, reference_lut, arrivals, reference
    ):
        """The fault arms at cycle 20, so it fires on the second of two
        runs split there; only that run is replayed."""
        assert_recovers_bit_identical(
            population, reference_lut, arrivals, reference,
            FaultPlan((FaultSpec(kind="crash", shard=0, cycle=20),)),
            split=20,
        )

    def test_hang_detected_by_command_timeout(
        self, population, reference_lut, arrivals, reference
    ):
        assert_recovers_bit_identical(
            population, reference_lut, arrivals, reference,
            FaultPlan((FaultSpec(kind="hang", shard=1, seconds=30.0),)),
            command_timeout_s=1.0,
        )

    def test_corrupted_ack_is_fenced_and_replayed(
        self, population, reference_lut, arrivals, reference
    ):
        assert_recovers_bit_identical(
            population, reference_lut, arrivals, reference,
            FaultPlan((FaultSpec(kind="ack_corrupt", shard=2),)),
        )

    def test_shm_attach_failure_respawns(
        self, population, reference_lut, arrivals, reference
    ):
        assert_recovers_bit_identical(
            population, reference_lut, arrivals, reference,
            FaultPlan((FaultSpec(kind="shm_attach", shard=0),)),
        )

    def test_slow_worker_needs_no_recovery(
        self, population, reference_lut, arrivals, reference
    ):
        assert_recovers_bit_identical(
            population, reference_lut, arrivals, reference,
            FaultPlan((FaultSpec(kind="slow", seconds=0.05),)),
        )

    def test_restart_budget_exhaustion_fails_fast(
        self, population, reference_lut, arrivals
    ):
        faults.install(FaultPlan((FaultSpec(kind="crash", shard=1),)))
        fleet = recovering_fleet(
            population, reference_lut, max_restarts=0
        )
        names = fleet.shared_block_names()
        with pytest.raises(RuntimeError, match="died mid-command"):
            fleet.run(arrivals, CYCLES)
        # Fail-fast teardown: every segment unlinked, engine closed.
        from multiprocessing import shared_memory

        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)
        with pytest.raises(RuntimeError, match="closed"):
            fleet.run(arrivals, CYCLES)

    def test_recovered_roundtrip_covers_replay(
        self, library, reference_lut
    ):
        """A recovered worker's round-trip includes its fence, respawn
        and replay: every worker position's send→ack seconds cover the
        engine-run seconds of the shards it owns (worker ``w`` of ``W``
        owns ``w, w+W, ...``).  The shards run for tens of milliseconds,
        so a crashed worker's send→EOF time alone falls short."""
        dies, cycles, workers = 64, 200, 2
        population = BatchPopulation.from_samples(
            library, MonteCarloSampler(seed=41).draw_arrays(dies)
        )
        arrivals = np.random.default_rng(5).integers(
            0, 3, size=(dies, cycles)
        )
        faults.install(FaultPlan((FaultSpec(kind="crash", shard=0),)))
        with FleetEngine(
            population,
            reference_lut,
            fleet=FleetConfig(
                executor="process",
                workers=workers,
                recovery=RecoveryPolicy(
                    max_restarts=1, command_timeout_s=30.0
                ),
            ),
        ) as fleet:
            fleet.run(arrivals, cycles)
            timings = fleet.last_timings
            assert fleet._proc._restarts == 1
        shard_runs = timings["shard_run_s"]
        assert sorted(timings["worker_roundtrip_s"]) == list(range(workers))
        for position, roundtrip in timings["worker_roundtrip_s"].items():
            owned = sum(
                seconds
                for index, seconds in shard_runs.items()
                if index % workers == position
            )
            assert roundtrip >= owned, (position, timings)

    def test_budget_spans_backend_lifetime(
        self, population, reference_lut, arrivals, reference
    ):
        # Two crashes in *different* workers against a budget of 1
        # (a respawned worker is born fault-free, so the second crash
        # must arm in a worker that has not failed yet): the first run
        # recovers, the second exhausts the budget and fails fast.
        faults.install(
            FaultPlan(
                (
                    FaultSpec(kind="crash", shard=1),
                    FaultSpec(kind="crash", shard=0, cycle=CYCLES),
                )
            )
        )
        fleet = recovering_fleet(
            population, reference_lut, max_restarts=1
        )
        try:
            trace = fleet.run(arrivals, CYCLES)
            np.testing.assert_array_equal(
                trace.output_voltages, reference[0].output_voltages
            )
            with pytest.raises(RuntimeError, match="died mid-command"):
                fleet.run(arrivals, CYCLES)
        finally:
            fleet.close()


class TestCloseNeverDeadlocks:
    def test_hung_worker_cannot_deadlock_close(
        self, population, reference_lut, arrivals
    ):
        """Satellite regression: the close-ack drain is bounded.  A
        worker that hangs *during close* (after a healthy run) used to
        deadlock the unbounded ``recv()``; now the drain polls with a
        timeout and escalates to terminate/join/unlink."""
        faults.install(
            FaultPlan(
                (
                    FaultSpec(
                        kind="hang", command="close", seconds=60.0,
                        times=0,
                    ),
                )
            )
        )
        fleet = FleetEngine(
            population,
            reference_lut,
            fleet=FleetConfig(executor="process", shard_size=3, workers=2),
        )
        names = fleet.shared_block_names()
        fleet.run(arrivals, CYCLES)
        started = time.monotonic()
        fleet.close()
        elapsed = time.monotonic() - started
        assert elapsed < 30.0, f"close took {elapsed:.1f}s (deadlock?)"
        from multiprocessing import shared_memory

        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)


@pytest.mark.parametrize("executor", ["serial", "process"])
def test_split_streaming_sink_recovery(
    population, reference_lut, arrivals, executor
):
    """Streaming sinks are per run.  With a horizon split over two runs
    and a fault recovered on the second, that run's reducers equal a
    fault-free fleet's second run, and the state totals cover the
    whole horizon."""

    def two_runs():
        with recovering_fleet(
            population, reference_lut, executor, telemetry="streaming"
        ) as fleet:
            _, sink = split_runs(fleet, arrivals, 20)
            return sink.die_reducers(), fleet.total_energy()

    expected, expected_energy = two_runs()
    faults.install(
        FaultPlan(
            (
                FaultSpec(
                    kind="raise" if executor == "serial" else "crash",
                    shard=1,
                    cycle=20,
                ),
            )
        )
    )
    reducers, energy = two_runs()
    assert set(reducers) == set(expected)
    for name, value in expected.items():
        np.testing.assert_array_equal(reducers[name], value, err_msg=name)
    np.testing.assert_array_equal(energy, expected_energy)


class TestSerialRecovery:
    def test_raise_recovers_bit_identical(
        self, population, reference_lut, arrivals, reference
    ):
        assert_recovers_bit_identical(
            population, reference_lut, arrivals, reference,
            FaultPlan((FaultSpec(kind="raise", shard=1),)),
            executor="serial",
        )

    def test_serial_budget_exhaustion_raises_injected_error(
        self, population, reference_lut, arrivals
    ):
        faults.install(
            FaultPlan((FaultSpec(kind="raise", shard=0, times=0),))
        )
        with FleetEngine(
            population,
            reference_lut,
            fleet=FleetConfig(
                executor="serial", shard_size=3, workers=1,
                recovery=RecoveryPolicy(max_restarts=1),
            ),
        ) as fleet:
            with pytest.raises(RuntimeError, match="injected worker fault"):
                fleet.run(arrivals, CYCLES)
