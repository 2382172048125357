"""Fault-recovery overhead: crashed-worker respawn and degraded serial.

Two same-host, relative measurements (no absolute wall-clock bars):

* **crash recovery** — a 2-worker process fleet with one injected
  worker crash (shard 0, first run of the lap) must finish within
  ``RECOVERY_OVERHEAD_BAR``x of the fault-free lap *and* produce
  bit-identical telemetry.  A lap is ``CYCLES // CHUNK`` sequential
  runs of ``CHUNK`` cycles, each its own recovery snapshot, so the
  overhead is one respawn (fork + shm re-attach) plus the replay of
  the one ``CHUNK``-cycle run the crash hit — the respawn cost itself
  is the measurement.
* **degraded serial** — a service whose process rung is force-failed
  must keep serving from the serial rung, bit-identical
  to direct execution, and its degraded throughput is recorded so the
  floor is visible in ``BENCH_engine.json``.

With ``REPRO_BENCH_RECORD=1`` the numbers are merged into the
``fleet.recovery`` section of ``BENCH_engine.json`` (read-modify-write:
the engine bench rewrites the file wholesale and runs alphabetically
earlier; the service bench merges and runs later).
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro import faults
from repro.circuits.loads import DigitalLoad
from repro.core.rate_controller import program_lut_for_load
from repro.devices.variation import MonteCarloSampler
from repro.engine import (
    BatchPopulation,
    BatchTrace,
    FleetConfig,
    FleetEngine,
)
from repro.faults import FaultPlan, FaultSpec, RecoveryPolicy
from repro.service import (
    ResiliencePolicy,
    ServiceConfig,
    SimRequest,
    SimulationService,
    WorkloadSpec,
)

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_engine.json"

RECORD = os.environ.get("REPRO_BENCH_RECORD") == "1"

DIES = 256
CYCLES = 600
CHUNK = CYCLES // 8
WORKERS = 2
SHARD_SIZE = DIES // WORKERS

RECOVERY_OVERHEAD_BAR = 1.5

SERVICE_REQUESTS = 24
SERVICE_CYCLES = 40


@pytest.fixture(autouse=True)
def clean_plan():
    faults.clear()
    yield
    faults.clear()


@pytest.fixture(scope="module")
def population(library):
    samples = MonteCarloSampler(seed=41).draw_arrays(DIES)
    return BatchPopulation.from_samples(library, samples)


@pytest.fixture(scope="module")
def reference_lut(library):
    reference_load = DigitalLoad(
        library.ring_oscillator_load, library.reference_delay_model
    )
    return program_lut_for_load(reference_load, sample_rate=1e5)


def _process_fleet(population, reference_lut):
    return FleetEngine(
        population,
        reference_lut,
        fleet=FleetConfig(
            executor="process",
            shard_size=SHARD_SIZE,
            workers=WORKERS,
            recovery=RecoveryPolicy(max_restarts=2, command_timeout_s=30.0),
        ),
    )


@pytest.fixture(scope="module")
def recovery_bench(population, reference_lut):
    """Time fault-free and crash-recovered process-fleet laps.

    Both passes use warm (already spawned) workers so the comparison
    isolates the recovery machinery: fence + respawn + re-attach +
    replay, not fleet construction.
    """
    rng = np.random.default_rng(13)
    arrivals = rng.integers(0, 3, size=(DIES, CYCLES))

    # Same-host wall-clock is noisy (multi-second swings under load),
    # so both sides take the min over repeated laps.  A timed lap is
    # always the *second* lap of a freshly warmed fleet: warm-up covers
    # cycles 0..CYCLES, the timed lap cycles CYCLES..2*CYCLES on
    # continued state, so every lap computes the identical workload.
    def lap(fleet):
        return BatchTrace.concatenate(
            [
                fleet.run(arrivals[:, lo:lo + CHUNK], CHUNK)
                for lo in range(0, CYCLES, CHUNK)
            ]
        )

    def timed_lap(fleet):
        lap(fleet)  # warm spawn
        start = time.perf_counter()
        trace = lap(fleet)
        return trace, time.perf_counter() - start

    fault_free_laps = []
    for _ in range(2):
        with _process_fleet(population, reference_lut) as fleet:
            fault_free_trace, seconds = timed_lap(fleet)
            fault_free_laps.append(seconds)
    fault_free_seconds = min(fault_free_laps)

    # Process workers receive the fault plan at spawn time, so it must
    # be installed before the fleet is built; arming the crash at
    # cycle=CYCLES targets the timed lap's first run, not the warm-up
    # (the spec budget is per worker, so each fresh fleet crashes
    # exactly once).
    faults.install(
        FaultPlan(
            (FaultSpec(kind="crash", shard=0, cycle=CYCLES, times=1),)
        )
    )
    recovery_laps = []
    try:
        for _ in range(2):
            with _process_fleet(population, reference_lut) as fleet:
                recovered_trace, seconds = timed_lap(fleet)
                recovery_laps.append(seconds)
    finally:
        faults.clear()
    recovery_seconds = min(recovery_laps)

    return {
        "dies": DIES,
        "system_cycles": CYCLES,
        "workers": WORKERS,
        "fault_free_seconds": fault_free_seconds,
        "crash_recovery_seconds": recovery_seconds,
        "recovery_overhead": recovery_seconds / fault_free_seconds,
        "_fault_free_trace": fault_free_trace,
        "_recovered_trace": recovered_trace,
    }


def test_recovered_run_is_bit_identical(recovery_bench):
    """Bit-identity first: the crash-recovered run returns exactly the
    fault-free telemetry."""
    np.testing.assert_array_equal(
        recovery_bench["_recovered_trace"].output_voltages,
        recovery_bench["_fault_free_trace"].output_voltages,
    )
    np.testing.assert_array_equal(
        recovery_bench["_recovered_trace"].lut_corrections,
        recovery_bench["_fault_free_trace"].lut_corrections,
    )


def test_crash_recovery_overhead_bar(recovery_bench):
    """Acceptance: recovering from a worker crash costs <= 1.5x the
    fault-free run at 2 workers."""
    print(
        f"\nRecovery: {recovery_bench['fault_free_seconds']:.3f}s "
        f"fault-free vs {recovery_bench['crash_recovery_seconds']:.3f}s "
        f"with one worker crash "
        f"({recovery_bench['recovery_overhead']:.2f}x)"
    )
    assert recovery_bench["recovery_overhead"] <= RECOVERY_OVERHEAD_BAR


def _service_requests():
    rng = np.random.default_rng(20090802)
    corners = ("SS", "TT", "FS")
    return [
        SimRequest(
            cycles=SERVICE_CYCLES,
            corner=corners[i % 3],
            nmos_vth_shift=float(rng.normal(0.0, 0.015)),
            pmos_vth_shift=float(rng.normal(0.0, 0.015)),
            workload=WorkloadSpec(kind="constant", rate=1e5),
        )
        for i in range(SERVICE_REQUESTS)
    ]


@pytest.fixture(scope="module")
def degraded_bench(library):
    """Force-fail the process rung and time the serial floor the
    service degrades to."""
    requests = _service_requests()

    direct = SimulationService(
        library=library, config=ServiceConfig(cache_bytes=0)
    )
    baseline = [
        result.values for result in direct.run(requests)
    ]

    faults.install(
        FaultPlan(
            (
                FaultSpec(
                    kind="raise", scope="service", executor="process",
                    times=0,
                ),
            )
        )
    )
    service = SimulationService(
        library=library,
        config=ServiceConfig(
            execution="process",
            workers=WORKERS,
            cache_bytes=0,
            resilience=ResiliencePolicy(
                max_retries=0,
                backoff_base_s=0.001,
                backoff_cap_s=0.002,
                breaker_threshold=1,
            ),
        ),
    )
    try:
        start = time.perf_counter()
        results = service.run(requests)
        degraded_seconds = time.perf_counter() - start
        stats = service.stats()
    finally:
        service.close()
        faults.clear()

    return {
        "requests": SERVICE_REQUESTS,
        "system_cycles": SERVICE_CYCLES,
        "degraded_seconds": degraded_seconds,
        "degraded_requests_per_second": SERVICE_REQUESTS / degraded_seconds,
        "degraded_runs": stats.degraded_runs,
        "_results": results,
        "_baseline": baseline,
    }


def test_degraded_serial_keeps_serving_bit_identical(degraded_bench):
    assert degraded_bench["degraded_runs"] >= 1
    for result, expected in zip(
        degraded_bench["_results"], degraded_bench["_baseline"]
    ):
        assert set(result.values) == set(expected)
        for name in expected:
            want = expected[name]
            got = result.values[name]
            if isinstance(want, float) and np.isnan(want):
                assert np.isnan(got), name
            else:
                assert got == want, name


@pytest.mark.skipif(
    not RECORD, reason="recording needs REPRO_BENCH_RECORD=1"
)
def test_record_recovery_section(recovery_bench, degraded_bench):
    """Merge the recovery numbers into ``fleet.recovery`` (record mode).

    Read-modify-write: the engine bench owns the rest of the file and
    rewrites it wholesale earlier in an alphabetical session.
    """
    record = {}
    if RESULT_PATH.exists():
        record = json.loads(RESULT_PATH.read_text())
    section = {
        key: value
        for key, value in recovery_bench.items()
        if not key.startswith("_")
    }
    section["degraded_serial"] = {
        key: value
        for key, value in degraded_bench.items()
        if not key.startswith("_")
    }
    record.setdefault("fleet", {})["recovery"] = section
    RESULT_PATH.write_text(json.dumps(record, indent=2) + "\n")


def test_bench_record_has_recovery_section():
    """The committed BENCH_engine.json carries the recovery results and
    meets the overhead bar."""
    record = json.loads(RESULT_PATH.read_text())
    recovery = record["fleet"]["recovery"]
    for key in (
        "dies",
        "system_cycles",
        "workers",
        "fault_free_seconds",
        "crash_recovery_seconds",
        "recovery_overhead",
        "degraded_serial",
    ):
        assert key in recovery, key
    assert recovery["recovery_overhead"] <= RECOVERY_OVERHEAD_BAR
    assert (
        recovery["degraded_serial"]["degraded_requests_per_second"] > 0
    )
