"""Perf smoke: persistent fleet dispatch must beat cold re-fan-out.

The PR-6 resident-worker rework exists so a service tick can reuse a
warm fleet instead of rebuilding one (re-sharding the population,
re-spawning workers, re-creating shared memory) per tick.  This file
gates that claim on every host: a persistent fleet's steady-state
``run()`` round-trip must not be slower than the cold
build-run-teardown path it replaces, on the process executor (the only
backend with workers to keep resident).  Like the kernel smoke, the
gate is purely **relative** with interleaved best-of rounds — no
absolute wall-clock bars — so the single-CPU dev container and CI
runners of any speed stay green.  The CI workflow runs this
file (with ``REPRO_FLEET_WORKERS=2``) as a dedicated step on every
matrix job, alongside the persistent bit-identity smoke below.
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
)
from repro.testing import interleaved_best, timed
from repro.workloads.batch import constant_arrival_matrix

SMOKE_DIES = 256
SMOKE_CYCLES = 100
SMOKE_WORKERS = int(os.environ.get("REPRO_FLEET_WORKERS", "2"))
NOISE_MARGIN = 1.25
"""Timing-noise allowance on the persistent/cold ratio.  Variants are
timed in interleaved best-of rounds so a transient slowdown on a shared
runner hits both series alike."""

PARITY_DIES = 20
PARITY_CYCLES = 60
PARITY_CHANNELS = (
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


@pytest.fixture(scope="module")
def reference_lut(library):
    reference_load = DigitalLoad(
        library.ring_oscillator_load, library.reference_delay_model
    )
    return program_lut_for_load(reference_load, sample_rate=1e5)


@pytest.fixture(scope="module")
def smoke_setup(library, reference_lut):
    samples = MonteCarloSampler(seed=53).draw_arrays(SMOKE_DIES)
    population = BatchPopulation.from_samples(library, samples)
    arrivals = constant_arrival_matrix(
        [1e5], 1e-6, SMOKE_CYCLES
    )[0]
    return population, reference_lut, arrivals


def _fleet_config(executor):
    return FleetConfig(
        workers=SMOKE_WORKERS, telemetry="null", executor=executor
    )


@pytest.mark.parametrize("executor", ["process"])
def test_persistent_dispatch_not_slower_than_cold(smoke_setup, executor):
    """Relative gate: a resident fleet's ``run()`` must not cost more
    than cold build-run-teardown of the same fleet on the same host."""
    population, lut, arrivals = smoke_setup

    def cold():
        fleet = FleetEngine(
            population, lut, fleet=_fleet_config(executor)
        )
        try:
            fleet.run(arrivals, SMOKE_CYCLES)
        finally:
            fleet.close()

    fleet = FleetEngine(population, lut, fleet=_fleet_config(executor))
    try:
        fleet.run(arrivals[:1], 1)  # residents up, kernels warm
        best = interleaved_best(
            {
                "cold": timed(cold),
                "persistent": timed(
                    lambda: fleet.run(arrivals, SMOKE_CYCLES)
                ),
            },
            rounds=3,
        )
    finally:
        fleet.close()
    die_cycles = SMOKE_DIES * SMOKE_CYCLES
    print(
        f"\nFleet perf smoke ({executor}, {SMOKE_DIES} dies x "
        f"{SMOKE_CYCLES} cycles, {SMOKE_WORKERS} workers): "
        f"{die_cycles / best['cold']:8.0f} die-cycles/s cold vs "
        f"{die_cycles / best['persistent']:8.0f} die-cycles/s persistent "
        f"({best['cold'] / best['persistent']:.2f}x)"
    )
    assert best["persistent"] <= best["cold"] * NOISE_MARGIN


def test_persistent_process_fleet_bit_identity(library, reference_lut):
    """Always-run parity smoke: one resident process fleet, reused
    across a reset and split over two sequential runs, stays
    bit-identical to a cold single-shard engine."""
    samples = MonteCarloSampler(seed=59).draw_arrays(PARITY_DIES)
    population = BatchPopulation.from_samples(library, samples)
    arrivals = constant_arrival_matrix(
        np.full(PARITY_DIES, 1e5), 1e-6, PARITY_CYCLES
    )
    single = BatchEngine(population, lut=reference_lut).run(
        arrivals, PARITY_CYCLES
    )
    with FleetEngine(
        population,
        reference_lut,
        fleet=FleetConfig(
            shard_size=PARITY_DIES // 2,
            workers=2,
            executor="process",
        ),
    ) as fleet:
        first = fleet.run(arrivals, PARITY_CYCLES)
        fleet.reset()
        split = BatchTrace.concatenate(
            [
                fleet.run(arrivals[:, :17], 17),
                fleet.run(arrivals[:, 17:], PARITY_CYCLES - 17),
            ]
        )
        for result in (first, split):
            for channel in PARITY_CHANNELS:
                np.testing.assert_array_equal(
                    getattr(result, channel),
                    getattr(single, channel),
                    err_msg=channel,
                )
        np.testing.assert_array_equal(
            fleet.final_correction(), single.final_correction()
        )
