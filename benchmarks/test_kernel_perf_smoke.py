"""Perf smoke: relative same-host gates on the fused cycle kernel.

A small 64-die x 200-cycle closed loop and a 1-die x 100-cycle one,
timed on whatever host runs the suite.  Every gate is purely
**relative** — no absolute wall-clock bars — so the 2-CPU dev
container and CI runners of any speed stay green:

* the fused exact kernel must advance at least ``FUSED_VS_REFERENCE_BAR``
  times more die-cycles per second than the pure-Python
  ``AdaptiveController.run_reference`` loop (its bit-exact physics
  oracle) on dies of the same population,
* a warm 1-die exact run (one gateway cache miss) must advance at least
  ``SINGLE_DIE_VS_REFERENCE_BAR`` times the die-cycles per second of
  ``run_reference`` on the same die, and
* the tabulated device response must not be slower than the fused
  exact kernel.

The CI workflow runs this file as a dedicated step so a fused-kernel
regression fails loudly, not just as a slower bench.
"""

import copy
import time

import numpy as np
import pytest

from repro.circuits.loads import DigitalLoad
from repro.core.controller import AdaptiveController
from repro.core.rate_controller import program_lut_for_load
from repro.devices.variation import MonteCarloSampler
from repro.engine import BatchEngine, BatchPopulation, NullTrace
from repro.library import OperatingCondition
from repro.testing import interleaved_best
from repro.workloads import ConstantArrivals
from repro.workloads.batch import constant_arrival_matrix

SMOKE_DIES = 64
SMOKE_CYCLES = 200
SCALAR_DIES = (0, 21, 42, 63)
"""Dies of the smoke population the scalar loop is timed on (spread
across it; its cost per die-cycle barely depends on the die, and four
keep the slow leg short)."""

NOISE_MARGIN = 1.25
"""Timing-noise allowance on the tabulated/exact time ratio.  The two
variants are timed in interleaved best-of-4 rounds so a transient
slowdown on a shared runner hits both series alike; the margin then
only has to cover residual jitter, not a one-sided scheduler hiccup."""

FUSED_VS_REFERENCE_BAR = 12.0
"""Minimum fused-exact / ``run_reference`` die-cycles-per-second ratio.
Eight runs of this gate's interleaved best-of-4 measurement on a 2-vCPU
Xeon VM measured ratios of 26.9-36.1x while the exact response rebuilt
every EKV term per call, and five runs 40.4-66.2x once it cached them;
the bar sits below half the lowest.  A per-die Python loop around
``response.current_draw`` inside the kernel measured 0.7x and fails
it."""

SINGLE_DIE_CYCLES = 100
SINGLE_DIE_VS_REFERENCE_BAR = 0.55
"""Minimum 1-die exact / ``run_reference`` die-cycles-per-second ratio.
At one die the engine is bound by ufunc dispatches, not arithmetic, so
this gate sees a regression in dispatch count (say, the exact device
response's EKV passes split back per polarity and bias point); it does
not see one in allocation.  On a 2-vCPU Xeon VM, six runs of this
gate (best of 9 interleaved rounds) measured 0.65-0.88x.  The same runs
read 0.39-0.52x with the exact response rebuilding every EKV term per
call, and 0.38-0.50x with the terms cached but NMOS/PMOS and the bias
points evaluated in separate EKV passes; the bar fails both."""


@pytest.fixture(scope="module")
def smoke_setup(library):
    reference_load = DigitalLoad(
        library.ring_oscillator_load, library.reference_delay_model
    )
    lut = program_lut_for_load(reference_load, sample_rate=1e5)
    samples = MonteCarloSampler(seed=47).draw_arrays(SMOKE_DIES)
    population = BatchPopulation.from_samples(library, samples)
    arrivals = constant_arrival_matrix(
        np.full(SMOKE_DIES, 1e5), 1e-6, SMOKE_CYCLES
    )
    silicon = [
        library.delay_model(
            OperatingCondition(
                corner="TT",
                nmos_vth_shift=float(samples.nmos_vth_shift[die]),
                pmos_vth_shift=float(samples.pmos_vth_shift[die]),
            )
        )
        for die in SCALAR_DIES
    ]
    return population, lut, arrivals, silicon


def _engine_seconds(population, lut, arrivals, **kwargs):
    engine = BatchEngine(population, lut=lut, **kwargs)
    engine.run(
        np.zeros((SMOKE_DIES, 1), dtype=np.int64), 1, sink=NullTrace()
    )
    start = time.perf_counter()
    engine.run(arrivals, SMOKE_CYCLES, sink=NullTrace())
    return time.perf_counter() - start


def _reference_seconds(library, lut, silicon):
    """``run_reference`` over the scalar dies; construction untimed."""
    controllers = [
        AdaptiveController(
            load=DigitalLoad(library.ring_oscillator_load, delay_model),
            lut=copy.deepcopy(lut),
            reference_delay_model=library.reference_delay_model,
        )
        for delay_model in silicon
    ]
    start = time.perf_counter()
    for controller in controllers:
        controller.run_reference(ConstantArrivals(1e5), SMOKE_CYCLES)
    return time.perf_counter() - start


def test_fused_kernel_outpaces_run_reference(library, smoke_setup):
    """Relative gate: fused exact die-cycles/s >= bar x the scalar
    oracle's on the same host."""
    population, lut, arrivals, silicon = smoke_setup
    best = interleaved_best(
        {
            "fused": lambda: _engine_seconds(population, lut, arrivals),
            "reference": lambda: _reference_seconds(library, lut, silicon),
        },
        rounds=4,
    )
    fused = SMOKE_DIES * SMOKE_CYCLES / best["fused"]
    reference = len(SCALAR_DIES) * SMOKE_CYCLES / best["reference"]
    print(
        f"\nKernel perf smoke ({SMOKE_DIES} dies x {SMOKE_CYCLES} cycles): "
        f"{fused:8.0f} die-cycles/s fused exact vs "
        f"{reference:8.0f} die-cycles/s run_reference "
        f"({fused / reference:.1f}x, bar {FUSED_VS_REFERENCE_BAR:.0f}x)"
    )
    assert fused >= FUSED_VS_REFERENCE_BAR * reference


@pytest.fixture(scope="module")
def single_die_setup(library, smoke_setup):
    """One die of silicon as a 1-die population and as a scalar model."""
    _, lut, _, _ = smoke_setup
    samples = MonteCarloSampler(seed=47).draw_arrays(1)
    population = BatchPopulation.from_samples(library, samples)
    silicon = library.delay_model(
        OperatingCondition(
            corner="TT",
            nmos_vth_shift=float(samples.nmos_vth_shift[0]),
            pmos_vth_shift=float(samples.pmos_vth_shift[0]),
        )
    )
    arrivals = constant_arrival_matrix(
        np.full(1, 1e5), 1e-6, SINGLE_DIE_CYCLES
    )
    return population, lut, arrivals, silicon


def test_single_die_exact_run_keeps_pace_with_run_reference(
    library, single_die_setup
):
    """Relative gate: a warm 1-die exact run (the shape of a gateway
    cache miss) against ``run_reference`` on the same die."""
    population, lut, arrivals, silicon = single_die_setup
    engine = BatchEngine(population, lut=lut)
    engine.run(np.zeros((1, 1), dtype=np.int64), 1, sink=NullTrace())

    def engine_seconds():
        engine.reset()
        start = time.perf_counter()
        engine.run(arrivals, SINGLE_DIE_CYCLES, sink=NullTrace())
        return time.perf_counter() - start

    def reference_seconds():
        controller = AdaptiveController(
            load=DigitalLoad(library.ring_oscillator_load, silicon),
            lut=copy.deepcopy(lut),
            reference_delay_model=library.reference_delay_model,
        )
        start = time.perf_counter()
        controller.run_reference(ConstantArrivals(1e5), SINGLE_DIE_CYCLES)
        return time.perf_counter() - start

    best = interleaved_best(
        {"engine": engine_seconds, "reference": reference_seconds},
        rounds=9,
    )
    ratio = best["reference"] / best["engine"]
    print(
        f"\n1-die exact run ({SINGLE_DIE_CYCLES} cycles): "
        f"{1e3 * best['engine'] / SINGLE_DIE_CYCLES:.3f} ms/cycle vs "
        f"{1e3 * best['reference'] / SINGLE_DIE_CYCLES:.3f} ms/cycle "
        f"run_reference ({ratio:.2f}x, bar "
        f"{SINGLE_DIE_VS_REFERENCE_BAR:.2f}x)"
    )
    assert ratio >= SINGLE_DIE_VS_REFERENCE_BAR


def test_tabulated_not_slower_than_fused_exact(smoke_setup):
    """The tabulated response must beat exact once tables are built."""
    population, lut, arrivals, _ = smoke_setup
    best = interleaved_best(
        {
            "exact": lambda: _engine_seconds(population, lut, arrivals),
            "tabulated": lambda: _engine_seconds(
                population, lut, arrivals, device_model="tabulated"
            ),
        },
        rounds=4,
    )
    print(
        f"\nTabulated vs fused exact: "
        f"{best['exact'] / best['tabulated']:.2f}x faster"
    )
    assert best["tabulated"] <= best["exact"] * NOISE_MARGIN
