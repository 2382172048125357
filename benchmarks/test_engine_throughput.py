"""Engine throughput bench: scalar loops, batched engine, process fleet.

Records the headline numbers into ``BENCH_engine.json`` at the repo
root **only when** ``REPRO_BENCH_RECORD=1`` is set (the CI bench job
sets it; a plain pytest run must not dirty the working tree):

* closed-loop controller throughput — system die-cycles per second for
  the pure-Python ``run_reference`` loop (one die) versus the batched
  engine (a Monte Carlo fleet of dies advancing together),
* Monte Carlo MEP analysis throughput — samples per second for the
  seed's per-sample solve loop versus the single ``(N, S)`` energy-grid
  evaluation,
* the cycle-kernel sweep — fused+tabulated die-cycles/s against the
  fused kernel on the oracle exact path (the live ``BatchEnergyModel``
  and replica-cell methods, the fixed baseline the tabulated bars are
  quoted against) and on the cached exact response, on the dense
  512-die closed loop and the 256-die streaming configuration (the
  ``cycle_kernel`` section),
* the streaming long run — a ``>= 100k cycles x 256 dies`` closed-loop
  run under :class:`StreamingTrace`, completing within a fixed
  telemetry-memory bound where a dense trace cannot (timed over a
  bounded slice and extrapolated — streaming throughput is cycle-count
  independent),
* the persistent-fleet overhead sweep (the PR-6 ``fleet.persistent``
  section) — a resident process fleet at the resolved worker count
  versus a warm single engine, with a <= 1.10x dispatch-overhead bar
  that asserts even on 1 CPU,
* the process-fleet sweep (the PR-4 ``procfleet`` section) — the
  shared-memory ``executor="process"`` backend, the fleet's parallel
  backend, versus a single shard, with a CPU-gated scaling bar and an
  unconditional bit-identity smoke.

The batched speedup bars assert on every run; the fleet *scaling* bar
only where it is physically meaningful (>= 2 CPUs).  The fleet parity
checks (sharded == single shard, bit for bit, on the serial and the
process backend) run unconditionally.  A recording run merges its
sections into the record, so the ``service`` and ``fleet.recovery``
sections other benches write survive it.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.monte_carlo import monte_carlo_mep
from repro.circuits.loads import DigitalLoad
from repro.core.controller import AdaptiveController
from repro.core.rate_controller import program_lut_for_load
from repro.devices.variation import MonteCarloSampler
from repro.engine import (
    BatchEngine,
    BatchPopulation,
    BatchTrace,
    FleetConfig,
    FleetEngine,
    NullTrace,
)
from repro.testing import interleaved_best, timed
from repro.workloads import ConstantArrivals
from repro.workloads.batch import constant_arrival_matrix

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_engine.json"

RECORD = os.environ.get("REPRO_BENCH_RECORD") == "1"
FLEET_WORKERS = int(os.environ.get("REPRO_FLEET_WORKERS", "4"))

MC_SAMPLES = 256
CONTROLLER_CYCLES = 400
FLEET_SIZE = 512
ARRIVAL_RATE = 1e5
SYSTEM_PERIOD = 1e-6

FLEET_BENCH_DIES = 4096
FLEET_BENCH_CYCLES = 200
# 4096 dies keeps each shard numpy-dominated: the engine has a fixed
# ~1 ms/cycle Python dispatch cost per shard, so parallel scaling needs
# shards large enough that the kernel time dwarfs it.

LONG_RUN_DIES = 256
LONG_RUN_CYCLES = int(
    os.environ.get("REPRO_BENCH_LONGRUN_CYCLES", "100000")
)
LONG_RUN_RECORD_CYCLES = int(
    os.environ.get("REPRO_BENCH_LONGRUN_RECORD_CYCLES", "20000")
)
"""Cycles actually *timed* for the streaming long run.  Streaming
throughput is cycle-count independent (bounded ring buffers, zero
per-cycle growth), so the full nominal horizon is extrapolated from a
bounded recording instead of crawled through — the PR-5 RECORD run
spent 437 s here for a number a fifth of the cycles reproduces."""

PERSISTENT_CHUNK = 50
"""Chunk size of the persistent fleet's chunked-dispatch measurement."""
TELEMETRY_MEMORY_BOUND = 256 * 1024 * 1024
"""Fixed telemetry budget (bytes) the streaming long run must fit in."""

CYCLE_KERNEL_BASELINE_CYCLES = 5000
"""Cycles for the (slow) exact-model baseline of the cycle_kernel
streaming measurement — streaming throughput is cycle-count
independent, so the baseline need not crawl through the full long
run."""

PR2_DENSE_DIE_CYCLES_PER_SECOND = 275102.2184069381
PR2_STREAMING_DIE_CYCLES_PER_SECOND = 51151.40127881346
"""The PR-2 BENCH_engine.json numbers for the 512-die dense closed loop
(`closed_loop.batched_die_cycles_per_second`) and the 256-die x 100k
streaming run (`fleet.streaming_long_run.die_cycles_per_second`),
recorded on the single-CPU reference host — the reference the
cycle_kernel speedup bars are quoted against."""


@pytest.fixture(scope="module")
def reference_lut(library):
    reference_load = DigitalLoad(
        library.ring_oscillator_load, library.reference_delay_model
    )
    return program_lut_for_load(reference_load, sample_rate=1e5)


def _process_fleet_bench(library, reference_lut):
    """Single-shard engine versus the shared-memory process fleet.

    The process fleet is built **once** and its pool/shared-memory
    warmed outside the timed region: pool startup and segment creation are
    per-fleet costs that amortise over a fleet's lifetime, while the
    per-run cost — task dispatch, shard execution, result pickling — is
    what the executor choice actually changes.
    """
    samples = MonteCarloSampler(seed=23).draw_arrays(FLEET_BENCH_DIES)
    population = BatchPopulation.from_samples(library, samples)
    arrivals = constant_arrival_matrix(
        [ARRIVAL_RATE], SYSTEM_PERIOD, FLEET_BENCH_CYCLES
    )[0]

    def single_shard():
        BatchEngine(population, lut=reference_lut).run(
            arrivals, FLEET_BENCH_CYCLES, sink=NullTrace()
        )

    fleet = FleetEngine(
        population,
        reference_lut,
        fleet=FleetConfig(
            workers=FLEET_WORKERS, telemetry="null", executor="process"
        ),
    )
    try:
        fleet.run(arrivals[:1], 1)  # fork workers + attach segments
        best = interleaved_best(
            {
                "single": timed(single_shard),
                "process": timed(
                    lambda: fleet.run(arrivals, FLEET_BENCH_CYCLES)
                ),
            },
            rounds=3,
        )
    finally:
        fleet.close()
    single_seconds, process_seconds = best["single"], best["process"]
    die_cycles = FLEET_BENCH_DIES * FLEET_BENCH_CYCLES
    return {
        "dies": FLEET_BENCH_DIES,
        "system_cycles": FLEET_BENCH_CYCLES,
        "workers": FLEET_WORKERS,
        "single_shard_seconds": single_seconds,
        "process_seconds": process_seconds,
        "single_shard_die_cycles_per_second": die_cycles / single_seconds,
        "process_die_cycles_per_second": die_cycles / process_seconds,
        "speedup": single_seconds / process_seconds,
    }


def _streaming_long_run(library, reference_lut):
    """A run whose dense trace cannot fit the telemetry memory bound.

    Times a bounded ``LONG_RUN_RECORD_CYCLES`` slice and extrapolates
    the nominal horizon from it: streaming throughput is constant per
    cycle (ring buffers never grow), so ``seconds`` for the full run is
    ``recorded_seconds * nominal / recorded``.  The memory-bound claim
    keys — ``streaming_buffer_bytes`` (cycle-count independent) versus
    ``dense_trace_required_bytes`` — are still quoted at the nominal
    ``LONG_RUN_CYCLES`` geometry.
    """
    recorded_cycles = min(LONG_RUN_CYCLES, LONG_RUN_RECORD_CYCLES)
    samples = MonteCarloSampler(seed=29).draw_arrays(LONG_RUN_DIES)
    population = BatchPopulation.from_samples(library, samples)
    engine = FleetEngine(
        population,
        reference_lut,
        fleet=FleetConfig(
            workers=FLEET_WORKERS, telemetry="streaming", stream_window=64
        ),
    )
    arrivals = constant_arrival_matrix(
        [ARRIVAL_RATE], SYSTEM_PERIOD, recorded_cycles
    )[0]
    try:
        start = time.perf_counter()
        sink = engine.run(arrivals, recorded_cycles)
        recorded_seconds = time.perf_counter() - start
        buffer_bytes = sink.buffer_bytes()
    finally:
        engine.close()
    rate = LONG_RUN_DIES * recorded_cycles / recorded_seconds
    return {
        "dies": LONG_RUN_DIES,
        "system_cycles": LONG_RUN_CYCLES,
        "recorded_cycles": recorded_cycles,
        "workers": FLEET_WORKERS,
        "recorded_seconds": recorded_seconds,
        "seconds": recorded_seconds * LONG_RUN_CYCLES / recorded_cycles,
        "die_cycles_per_second": rate,
        "streaming_buffer_bytes": buffer_bytes,
        "dense_trace_required_bytes": BatchTrace.required_bytes(
            LONG_RUN_CYCLES, LONG_RUN_DIES
        ),
        "telemetry_memory_bound_bytes": TELEMETRY_MEMORY_BOUND,
    }


def _persistent_fleet_bench(library, reference_lut):
    """Dispatch overhead of a *persistent* fleet vs a warm single engine.

    The question this section answers is different from the cold
    ``procfleet`` speedup sweep: not "does sharding scale?"
    but "what does the fleet *abstraction* cost per run once workers
    are resident?".  Everything is warm on both sides — the single
    ``BatchEngine`` is built and warmed once and only ``run()`` is
    timed; the process fleet is built at the **resolved** worker count
    (``workers=None``, i.e. the CPUs actually available, so on a 1-CPU
    container this is one shard), its residents started and kernels
    warmed by a 1-cycle run, and then only the steady-state ``run()``
    round-trip is timed.  The headline ``process_overhead`` ratio must
    stay <= 1.10 on any machine, including 1 CPU — that is the
    RECORD-gated bar.

    Forced ``FLEET_WORKERS``-worker numbers (the geometry the cold
    sweeps use, oversubscribed on small containers) and a chunked
    dispatch measurement ride along for transparency.
    """
    samples = MonteCarloSampler(seed=23).draw_arrays(FLEET_BENCH_DIES)
    population = BatchPopulation.from_samples(library, samples)
    arrivals = constant_arrival_matrix(
        [ARRIVAL_RATE], SYSTEM_PERIOD, FLEET_BENCH_CYCLES
    )[0]

    engine = BatchEngine(population, lut=reference_lut)
    engine.run(np.zeros((FLEET_BENCH_DIES, 1), dtype=np.int64), 1,
               sink=NullTrace())
    single = timed(
        lambda: engine.run(arrivals, FLEET_BENCH_CYCLES, sink=NullTrace())
    )

    def persistent(workers):
        """Best seconds of the warm single engine and the fleet's run
        and chunked run, interleaved round by round."""
        fleet = FleetEngine(
            population,
            reference_lut,
            fleet=FleetConfig(
                workers=workers, telemetry="null", executor="process"
            ),
        )
        try:
            fleet.run(arrivals[:1], 1)  # residents up, kernels warm
            return interleaved_best(
                {
                    "single": single,
                    "run": timed(
                        lambda: fleet.run(arrivals, FLEET_BENCH_CYCLES)
                    ),
                    "chunked": timed(
                        lambda: fleet.run_chunked(
                            arrivals, FLEET_BENCH_CYCLES, PERSISTENT_CHUNK
                        )
                    ),
                },
                rounds=3,
            )
        finally:
            fleet.close()

    resolved = FleetConfig(telemetry="null").resolved_workers()
    own = persistent(None)
    forced = persistent(FLEET_WORKERS)
    single_seconds = own["single"]
    die_cycles = FLEET_BENCH_DIES * FLEET_BENCH_CYCLES
    return {
        "dies": FLEET_BENCH_DIES,
        "system_cycles": FLEET_BENCH_CYCLES,
        "chunk_cycles": PERSISTENT_CHUNK,
        "resolved_workers": resolved,
        "single_warm_seconds": single_seconds,
        "single_warm_die_cycles_per_second": die_cycles / single_seconds,
        "process_seconds": own["run"],
        "process_overhead": own["run"] / single_seconds,
        "process_chunked_seconds": own["chunked"],
        "process_chunked_overhead": own["chunked"] / single_seconds,
        "forced_workers": FLEET_WORKERS,
        "forced_process_seconds": forced["run"],
        "forced_process_overhead": forced["run"] / forced["single"],
        "forced_process_chunked_seconds": forced["chunked"],
    }


class _OracleExactResponse:
    """The exact device path with nothing cached: the four device
    questions answered by the live :class:`BatchEnergyModel` methods
    (each call rebuilds every EKV term and allocates; ``out`` is
    ignored), the TDC by the live ``stage_delay_inv_nor``.

    These are the methods ``ExactDeviceResponse`` is pinned to bit for
    bit, so a run on this adapter computes the same trace.  The
    tabulated bars are quoted against it: a baseline that a faster
    exact response leaves where it was."""

    def __init__(self, population, nominal_throughput=None):
        self.energy = population.energy
        self.temperature_c = population.temperature_c
        self.nominal_throughput = nominal_throughput
        self.replica = population.sensor_devices

    @property
    def n(self):
        return self.energy.n

    def current_draw(self, supply, out=None):
        return self.energy.current_draw(
            supply,
            self.temperature_c,
            operations_per_second=self.nominal_throughput,
        )

    def cycle_time(self, supply, out=None):
        return self.energy.cycle_time(supply, self.temperature_c)

    def leakage_current(self, supply, out=None):
        return self.energy.leakage_current(supply, self.temperature_c)

    def dynamic_energy(self, supply, out=None):
        return self.energy.dynamic_energy(supply)


def _cycle_kernel_bench(library, reference_lut):
    """Fused-kernel throughput per device response: tabulated, exact,
    and the oracle exact path.

    Two workload configurations, matching the PR-2 headline numbers:
    the 512-die x 400-cycle dense closed loop and the 256-die x
    ``LONG_RUN_CYCLES`` streaming run.  Each variant times
    ``BatchEngine.run`` only — engines (and, for the tabulated variant,
    the one-time response tables) are built and warmed outside the
    timed region, since tables amortise over a run's lifetime.  The
    oracle variant is an exact engine whose response is swapped for
    :class:`_OracleExactResponse` before its kernel is built.  The three
    variants run interleaved, one of each per round, so their ratios
    (the barred quantities) see the same host conditions.
    """
    from repro.engine import StreamingTrace

    def run_timer(population, arrivals, cycles, sink_factory,
                  oracle=False, **engine_kwargs):
        def timer():
            engine = BatchEngine(
                population, lut=reference_lut, **engine_kwargs
            )
            if oracle:
                engine._response = _OracleExactResponse(
                    population, engine.nominal_throughput
                )
            # Warm outside the timed region: builds the kernel scratch
            # and (tabulated) response tables, touches every code path.
            engine.run(
                np.zeros((population.n, 1), dtype=np.int64), 1,
                sink=NullTrace(),
            )
            start = time.perf_counter()
            engine.run(arrivals, cycles, sink=sink_factory())
            return time.perf_counter() - start

        return timer

    # --- dense closed loop: 512 dies, DenseTrace ----------------------
    samples = MonteCarloSampler(seed=17).draw_arrays(FLEET_SIZE)
    population = BatchPopulation.from_samples(library, samples)
    arrivals = constant_arrival_matrix(
        np.full(FLEET_SIZE, ARRIVAL_RATE), SYSTEM_PERIOD, CONTROLLER_CYCLES
    )

    def dense(**kwargs):
        return run_timer(
            population, arrivals, CONTROLLER_CYCLES, lambda: None, **kwargs
        )

    best = interleaved_best(
        {
            "oracle": dense(oracle=True),
            "exact": dense(),
            "tabulated": dense(device_model="tabulated"),
        },
        rounds=3,
    )
    dense_oracle, dense_fused, dense_tabulated = (
        FLEET_SIZE * CONTROLLER_CYCLES / best[variant]
        for variant in ("oracle", "exact", "tabulated")
    )
    dense_section = {
        "dies": FLEET_SIZE,
        "system_cycles": CONTROLLER_CYCLES,
        "oracle_exact_die_cycles_per_second": dense_oracle,
        "fused_exact_die_cycles_per_second": dense_fused,
        "fused_tabulated_die_cycles_per_second": dense_tabulated,
        "tabulated_vs_oracle_exact_speedup": dense_tabulated / dense_oracle,
        "exact_vs_oracle_exact_speedup": dense_fused / dense_oracle,
        "tabulated_vs_exact_speedup": dense_tabulated / dense_fused,
        "pr2_die_cycles_per_second": PR2_DENSE_DIE_CYCLES_PER_SECOND,
        "tabulated_speedup_vs_pr2": (
            dense_tabulated / PR2_DENSE_DIE_CYCLES_PER_SECOND
        ),
    }

    # --- streaming long run: 256 dies, StreamingTrace, one engine -----
    samples = MonteCarloSampler(seed=29).draw_arrays(LONG_RUN_DIES)
    population = BatchPopulation.from_samples(library, samples)
    baseline_cycles = min(CYCLE_KERNEL_BASELINE_CYCLES, LONG_RUN_CYCLES)
    baseline_arrivals = constant_arrival_matrix(
        [ARRIVAL_RATE], SYSTEM_PERIOD, baseline_cycles
    )[0]
    long_arrivals = constant_arrival_matrix(
        [ARRIVAL_RATE], SYSTEM_PERIOD, LONG_RUN_CYCLES
    )[0]
    best = interleaved_best(
        {
            "oracle": run_timer(
                population, baseline_arrivals, baseline_cycles,
                StreamingTrace, oracle=True,
            ),
            "exact": run_timer(
                population, baseline_arrivals, baseline_cycles,
                StreamingTrace,
            ),
            "tabulated": run_timer(
                population, long_arrivals, LONG_RUN_CYCLES,
                StreamingTrace, device_model="tabulated",
            ),
        },
        rounds=1,
    )
    stream_oracle = LONG_RUN_DIES * baseline_cycles / best["oracle"]
    stream_fused = LONG_RUN_DIES * baseline_cycles / best["exact"]
    stream_tabulated = LONG_RUN_DIES * LONG_RUN_CYCLES / best["tabulated"]
    stream_section = {
        "dies": LONG_RUN_DIES,
        "system_cycles": LONG_RUN_CYCLES,
        "baseline_system_cycles": baseline_cycles,
        "oracle_exact_die_cycles_per_second": stream_oracle,
        "fused_exact_die_cycles_per_second": stream_fused,
        "fused_tabulated_die_cycles_per_second": stream_tabulated,
        "tabulated_vs_oracle_exact_speedup": (
            stream_tabulated / stream_oracle
        ),
        "exact_vs_oracle_exact_speedup": stream_fused / stream_oracle,
        "tabulated_vs_exact_speedup": stream_tabulated / stream_fused,
        "pr2_die_cycles_per_second": PR2_STREAMING_DIE_CYCLES_PER_SECOND,
        "tabulated_speedup_vs_pr2": (
            stream_tabulated / PR2_STREAMING_DIE_CYCLES_PER_SECOND
        ),
    }
    return {
        "dense_closed_loop": dense_section,
        "streaming_long_run": stream_section,
    }


@pytest.fixture(scope="module")
def bench_results(library, reference_lut):
    """Time all configurations once; persist JSON when recording."""
    # --- Monte Carlo MEP analysis: per-sample loop vs batched grid ----
    # Interleaved rounds, and more of them than the closed loop gets:
    # the batched call takes under 10 ms, so one host stall in it moves
    # the barred ratio a lot.  Each batched timing follows one untimed
    # batched call: timed straight after the scalar loop, the call would
    # also measure the cache misses that loop leaves behind.
    def scalar_mc_call():
        monte_carlo_mep(samples=MC_SAMPLES, library=library, method="scalar")

    def batched_mc_call():
        monte_carlo_mep(samples=MC_SAMPLES, library=library, method="batched")

    def warm_batched_mc():
        batched_mc_call()
        return timed(batched_mc_call)()

    monte_carlo_mep(samples=4, library=library, method="scalar")
    monte_carlo_mep(samples=4, library=library, method="batched")
    best_mc = interleaved_best(
        {"scalar": timed(scalar_mc_call), "batched": warm_batched_mc},
        rounds=9,
    )
    scalar_mc, batched_mc = best_mc["scalar"], best_mc["batched"]

    # --- Closed-loop controller: scalar loop vs batched fleet ---------
    def scalar_controller():
        controller = AdaptiveController(
            load=DigitalLoad(
                library.ring_oscillator_load, library.delay_model()
            ),
            lut=program_lut_for_load(
                DigitalLoad(
                    library.ring_oscillator_load,
                    library.reference_delay_model,
                ),
                sample_rate=1e5,
            ),
            reference_delay_model=library.reference_delay_model,
        )
        controller.run_reference(
            ConstantArrivals(ARRIVAL_RATE), CONTROLLER_CYCLES
        )

    samples = MonteCarloSampler(seed=17).draw_arrays(FLEET_SIZE)
    population = BatchPopulation.from_samples(library, samples)
    arrivals = constant_arrival_matrix(
        np.full(FLEET_SIZE, ARRIVAL_RATE), SYSTEM_PERIOD, CONTROLLER_CYCLES
    )

    def batched_fleet():
        engine = BatchEngine(population, lut=reference_lut)
        engine.run(arrivals, CONTROLLER_CYCLES)

    best_loop = interleaved_best(
        {"scalar": timed(scalar_controller), "batched": timed(batched_fleet)},
        rounds=3,
    )
    scalar_loop, batched_loop = best_loop["scalar"], best_loop["batched"]

    results = {
        "environment": {
            "cpu_count": os.cpu_count(),
            "fleet_workers": FLEET_WORKERS,
        },
        "monte_carlo_mep": {
            "samples": MC_SAMPLES,
            "scalar_seconds": scalar_mc,
            "batched_seconds": batched_mc,
            "scalar_samples_per_second": MC_SAMPLES / scalar_mc,
            "batched_samples_per_second": MC_SAMPLES / batched_mc,
            "speedup": scalar_mc / batched_mc,
        },
        "closed_loop": {
            "system_cycles": CONTROLLER_CYCLES,
            "fleet_size": FLEET_SIZE,
            "scalar_cycles_per_second": CONTROLLER_CYCLES / scalar_loop,
            "batched_die_cycles_per_second": (
                FLEET_SIZE * CONTROLLER_CYCLES / batched_loop
            ),
            "throughput_gain": (
                (FLEET_SIZE * CONTROLLER_CYCLES / batched_loop)
                / (CONTROLLER_CYCLES / scalar_loop)
            ),
        },
    }
    if RECORD:
        # The fleet timing sweep, the cycle-kernel sweep and the (long)
        # streaming run only execute on recording runs; plain pytest
        # stays fast and leaves the committed BENCH_engine.json
        # untouched.
        results["cycle_kernel"] = _cycle_kernel_bench(library, reference_lut)
        results["fleet"] = {
            "streaming_long_run": _streaming_long_run(
                library, reference_lut
            ),
            "persistent": _persistent_fleet_bench(library, reference_lut),
        }
        results["procfleet"] = _process_fleet_bench(library, reference_lut)
        _merge_record(results)
    return results


def _merge_record(results):
    """Merge this bench's sections into ``BENCH_engine.json``
    (read-modify-write, like the other record benches): ``service`` and
    ``fleet.recovery`` survive."""
    record = {}
    if RESULT_PATH.exists():
        record = json.loads(RESULT_PATH.read_text())
    fleet = dict(record.get("fleet") or {})
    fleet.update(results["fleet"])
    record.update(results)
    record["fleet"] = fleet
    RESULT_PATH.write_text(json.dumps(record, indent=2) + "\n")


def test_engine_throughput_recorded(bench_results):
    mc = bench_results["monte_carlo_mep"]
    loop = bench_results["closed_loop"]
    mode = "recorded in BENCH_engine.json" if RECORD else (
        "not recorded; set REPRO_BENCH_RECORD=1"
    )
    print(f"\nEngine throughput ({mode})")
    print(
        f"  Monte Carlo MEP ({mc['samples']} samples): "
        f"{mc['scalar_samples_per_second']:8.0f} samples/s scalar vs "
        f"{mc['batched_samples_per_second']:8.0f} samples/s batched "
        f"({mc['speedup']:.1f}x)"
    )
    print(
        f"  Closed loop: {loop['scalar_cycles_per_second']:8.0f} cycles/s "
        f"scalar vs {loop['batched_die_cycles_per_second']:8.0f} "
        f"die-cycles/s batched over {loop['fleet_size']} dies "
        f"({loop['throughput_gain']:.0f}x)"
    )
    assert RESULT_PATH.exists()
    assert json.loads(RESULT_PATH.read_text())


def test_batched_monte_carlo_meets_speedup_bar(bench_results):
    """Acceptance: >= 10x over the seed's per-sample Monte Carlo loop."""
    assert bench_results["monte_carlo_mep"]["speedup"] >= 10.0


def test_batched_fleet_outscales_scalar_controller(bench_results):
    """The fleet must deliver far more die-cycles/s than one scalar die."""
    assert bench_results["closed_loop"]["throughput_gain"] >= 10.0


def test_sharded_fleet_matches_single_shard(library, reference_lut):
    """Determinism smoke (always runs): sharded == single shard, bit for
    bit, at the worker count the CI bench job configures."""
    dies, cycles = 40, 100
    samples = MonteCarloSampler(seed=41).draw_arrays(dies)
    population = BatchPopulation.from_samples(library, samples)
    arrivals = constant_arrival_matrix(
        np.full(dies, ARRIVAL_RATE), SYSTEM_PERIOD, cycles
    )
    single = BatchEngine(population, lut=reference_lut).run(arrivals, cycles)
    sharded = FleetEngine(
        population,
        reference_lut,
        fleet=FleetConfig(shard_size=16, workers=max(2, FLEET_WORKERS)),
    ).run(arrivals, cycles)
    for channel in (
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
    ):
        np.testing.assert_array_equal(
            getattr(sharded, channel),
            getattr(single, channel),
            err_msg=channel,
        )


def test_process_fleet_matches_single_shard(library, reference_lut):
    """Process-backend determinism smoke (always runs): the
    shared-memory process fleet is bit-identical to a single-shard
    batch, at the worker count the CI bench job configures."""
    dies, cycles = 24, 60
    samples = MonteCarloSampler(seed=43).draw_arrays(dies)
    population = BatchPopulation.from_samples(library, samples)
    arrivals = constant_arrival_matrix(
        np.full(dies, ARRIVAL_RATE), SYSTEM_PERIOD, cycles
    )
    single = BatchEngine(population, lut=reference_lut).run(arrivals, cycles)
    with FleetEngine(
        population,
        reference_lut,
        fleet=FleetConfig(
            shard_size=8,
            workers=max(2, FLEET_WORKERS),
            executor="process",
        ),
    ) as fleet:
        sharded = fleet.run(arrivals, cycles)
        final_correction = fleet.final_correction()
    for channel in (
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
    ):
        np.testing.assert_array_equal(
            getattr(sharded, channel),
            getattr(single, channel),
            err_msg=channel,
        )
    np.testing.assert_array_equal(
        final_correction, single.final_correction()
    )


@pytest.mark.skipif(
    not RECORD, reason="process fleet sweep needs REPRO_BENCH_RECORD=1"
)
def test_process_fleet_speedup_bar(bench_results):
    """Acceptance: the process fleet scales where scaling is physically
    possible (>= 2 CPUs); bit-identity is asserted unconditionally
    above."""
    fleet = bench_results["procfleet"]
    print(
        f"\nProcess fleet: "
        f"{fleet['single_shard_die_cycles_per_second']:8.0f} die-cycles/s "
        f"single shard vs {fleet['process_die_cycles_per_second']:8.0f} "
        f"die-cycles/s at {fleet['workers']} workers "
        f"({fleet['speedup']:.2f}x)"
    )
    cpus = os.cpu_count() or 1
    if cpus < 2:
        pytest.skip("single-CPU machine: no parallel speedup available")
    if FLEET_WORKERS >= 4 and cpus >= 4:
        assert fleet["speedup"] >= 1.5
    else:
        # Fewer workers/CPUs (the CI smoke at 2 workers): the process
        # backend must at least pay for its own IPC overhead.
        assert fleet["speedup"] >= 1.1


def test_bench_record_has_procfleet_section():
    """The committed BENCH_engine.json carries the process-fleet
    results."""
    record = json.loads(RESULT_PATH.read_text())
    fleet = record["procfleet"]
    for key in (
        "single_shard_die_cycles_per_second",
        "process_die_cycles_per_second",
        "speedup",
        "workers",
        "dies",
        "system_cycles",
    ):
        assert key in fleet
    # The scaling claim itself is host-dependent (the committed record
    # may come from a single-CPU container, where a process fleet can
    # only add overhead); the portable invariant is that the sweep ran
    # at the recorded geometry.
    assert fleet["dies"] * fleet["system_cycles"] >= 100_000


@pytest.mark.skipif(
    not RECORD, reason="long run needs REPRO_BENCH_RECORD=1"
)
def test_streaming_long_run_fits_memory_bound(bench_results):
    """Acceptance: the >= 100k x 256 run completes under the telemetry
    bound while a dense trace of the same run cannot fit it."""
    long_run = bench_results["fleet"]["streaming_long_run"]
    print(
        f"\nStreaming long run: {long_run['system_cycles']} cycles x "
        f"{long_run['dies']} dies in {long_run['seconds']:.1f}s, "
        f"{long_run['streaming_buffer_bytes']/1e6:.2f} MB streaming vs "
        f"{long_run['dense_trace_required_bytes']/1e9:.2f} GB dense"
    )
    bound = long_run["telemetry_memory_bound_bytes"]
    assert long_run["streaming_buffer_bytes"] < bound
    assert long_run["dense_trace_required_bytes"] > bound


@pytest.mark.skipif(
    not RECORD, reason="cycle-kernel sweep needs REPRO_BENCH_RECORD=1"
)
def test_cycle_kernel_speedup_bars(bench_results):
    """Acceptance: the tabulated response delivers >= 3x the die-cycles/s
    of the fused kernel on the oracle exact path, on the 512-die dense
    closed loop and on the 256-die streaming configuration.  The lead
    over the cached exact response is recorded, not barred."""
    kernel = bench_results["cycle_kernel"]
    dense = kernel["dense_closed_loop"]
    stream = kernel["streaming_long_run"]
    for label, section in (
        (f"dense {dense['dies']} dies", dense),
        (f"streaming {stream['dies']} dies", stream),
    ):
        print(
            f"\nCycle kernel ({label}): "
            f"{section['oracle_exact_die_cycles_per_second']:8.0f} oracle "
            f"exact, {section['fused_exact_die_cycles_per_second']:8.0f} "
            f"exact, {section['fused_tabulated_die_cycles_per_second']:8.0f}"
            f" tabulated die-cycles/s (tabulated "
            f"{section['tabulated_vs_oracle_exact_speedup']:.2f}x oracle, "
            f"{section['tabulated_vs_exact_speedup']:.2f}x exact; exact "
            f"{section['exact_vs_oracle_exact_speedup']:.2f}x oracle)"
        )
    assert dense["tabulated_vs_oracle_exact_speedup"] >= 3.0
    assert stream["tabulated_vs_oracle_exact_speedup"] >= 3.0
    # The vs-PR-2 bar is a *same-host* comparison: it only applies on
    # the single-CPU reference container the PR-2 numbers were recorded
    # on.  Elsewhere (CI runners of arbitrary speed) the relative
    # same-host gates above are the portable acceptance criteria.
    if os.cpu_count() == 1:
        assert stream["tabulated_speedup_vs_pr2"] >= 5.0
        assert dense["tabulated_speedup_vs_pr2"] >= 3.0


def test_bench_record_has_cycle_kernel_section():
    """The committed BENCH_engine.json carries the cycle-kernel results
    and meets the PR's speedup bars."""
    record = json.loads(RESULT_PATH.read_text())
    kernel = record["cycle_kernel"]
    for section in ("dense_closed_loop", "streaming_long_run"):
        for key in (
            "oracle_exact_die_cycles_per_second",
            "fused_exact_die_cycles_per_second",
            "fused_tabulated_die_cycles_per_second",
            "tabulated_vs_oracle_exact_speedup",
            "exact_vs_oracle_exact_speedup",
            "tabulated_vs_exact_speedup",
        ):
            assert key in kernel[section], (section, key)
        assert kernel[section]["tabulated_vs_oracle_exact_speedup"] >= 3.0
    # Same-host claim: only meaningful when the record was produced on
    # the single-CPU container the PR-2 reference numbers came from.
    if record["environment"]["cpu_count"] == 1:
        assert (
            kernel["streaming_long_run"]["tabulated_speedup_vs_pr2"] >= 5.0
        )


def test_bench_record_has_fleet_section():
    """The committed BENCH_engine.json carries the fleet results."""
    record = json.loads(RESULT_PATH.read_text())
    fleet = record["fleet"]
    for key in ("streaming_long_run", "persistent"):
        assert key in fleet
    long_run = fleet["streaming_long_run"]
    assert long_run["streaming_buffer_bytes"] < (
        long_run["telemetry_memory_bound_bytes"]
    )
    assert long_run["dense_trace_required_bytes"] > (
        long_run["telemetry_memory_bound_bytes"]
    )


@pytest.mark.skipif(
    not RECORD, reason="persistent fleet sweep needs REPRO_BENCH_RECORD=1"
)
def test_persistent_fleet_overhead_bar(bench_results):
    """Acceptance: a persistent fleet at the *resolved* worker count
    adds <= 10% dispatch overhead over a warm single engine.

    Unlike the scaling bars above, this one asserts on every machine —
    including 1 CPU, where the resolved fleet is one resident shard and
    the ratio isolates pure fleet-abstraction cost (command dispatch,
    shard-view indirection, result merge / IPC round-trip)."""
    persistent = bench_results["fleet"]["persistent"]
    print(
        f"\nPersistent fleet ({persistent['resolved_workers']} resolved "
        f"workers): warm single "
        f"{persistent['single_warm_seconds']:.3f}s vs process "
        f"{persistent['process_seconds']:.3f}s "
        f"({persistent['process_overhead']:.3f}x)"
    )
    assert persistent["process_overhead"] <= 1.10


def test_bench_record_has_persistent_section():
    """The committed BENCH_engine.json carries the persistent-fleet
    dispatch-overhead results and meets the <= 1.10x bar (the record is
    self-relative, so the bar is portable to any reader)."""
    record = json.loads(RESULT_PATH.read_text())
    persistent = record["fleet"]["persistent"]
    for key in (
        "resolved_workers",
        "single_warm_seconds",
        "process_seconds",
        "process_overhead",
        "process_chunked_overhead",
        "forced_workers",
        "forced_process_overhead",
    ):
        assert key in persistent
    assert persistent["process_overhead"] <= 1.10
    long_run = record["fleet"]["streaming_long_run"]
    # Satellite: RECORD runs time a bounded slice and extrapolate.
    assert long_run["recorded_cycles"] <= long_run["system_cycles"]
    assert long_run["recorded_seconds"] <= long_run["seconds"]
