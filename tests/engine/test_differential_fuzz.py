"""Differential fuzzing of the engine stack across every backend axis.

Hand-picked parity cases (``test_parity.py``, ``test_kernels.py``,
``test_fleet.py``) pin known-tricky transitions; this harness instead
generates *randomized* scenarios — population, variation, workload,
schedule, window sizes, sharding — and drives each one through every
``(step_kernel, device_model, executor, sink)`` combination, asserting

* **bit-identity** between all exact paths: legacy vs fused kernel, and
  the serial / process fleet executors vs one plain ``BatchEngine``
  batch (dense traces channel-for-channel, streaming reducers,
  null-sink state totals),
* **bit-identity** between executors under the tabulated device model
  (the backends must agree with each other regardless of device model),
* **tolerance parity** of the tabulated model against the exact one,
* **scalar parity**: the fused engine against the legacy pure-Python
  ``AdaptiveController.run_reference`` loop for every die of every
  scenario (integer channels exactly, float channels at rtol 1e-12, the
  same bar as ``test_parity.py``).

Scenario count and seeds are environment-tunable:

* ``REPRO_FUZZ_SCENARIOS`` — how many seeds to run (default 8 for the
  tier-1 suite; CI runs 50),
* ``REPRO_FUZZ_BASE_SEED`` — first seed of the contiguous budget,
* ``REPRO_FUZZ_SEEDS`` — comma/space-separated explicit seed list,
  overriding the budget.  **Every assertion message carries the
  scenario seed**, so a CI failure is replayed locally with e.g.
  ``REPRO_FUZZ_SEEDS=20090013 pytest tests/engine/test_differential_fuzz.py``.
"""

import copy
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
import pytest

from repro.testing import fuzz_seeds, replay_message

from repro.circuits.loads import DigitalLoad
from repro.core.controller import AdaptiveController
from repro.core.dcdc import FeedbackMode
from repro.core.rate_controller import RateController, program_lut_for_load
from repro.devices.variation import MonteCarloSampler, VariationModel
from repro.engine import (
    BatchEngine,
    BatchPopulation,
    FleetConfig,
    FleetEngine,
)
from repro.library import OperatingCondition

# Seed budget / replay protocol shared across every fuzz suite
# (engine, analysis, service) — see repro.testing.
SEEDS = fuzz_seeds()

EXECUTORS = ("serial", "process")

TRACE_CHANNELS = (
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

# Tabulated-vs-exact tolerance: the response tables track the exact
# device model to ~1e-4 relative per query, but the closed loop
# *quantises* — a trajectory may settle one DC-DC LSB (18.75 mV) away
# when an averaged occupancy or TDC code lands on a rounding boundary.
# The bounds below allow a couple of LSBs of trajectory divergence
# while still catching real table corruption (which shows up volts or
# orders of magnitude off).
TAB_VOLTAGE_ATOL = 3 * 1.2 / 64
TAB_ENERGY_RTOL = 0.05
TAB_CODE_ATOL = 3


@dataclass
class Scenario:
    """One randomized configuration drawn from a seed."""

    seed: int
    dies: int
    cycles: int
    averaging_window: int
    compensation: bool
    feedback: FeedbackMode
    initial_correction: Optional[np.ndarray]
    arrivals: Optional[np.ndarray]
    schedule_codes: Optional[np.ndarray]
    schedule_pairs: Optional[Tuple[Tuple[int, int], ...]]
    shard_size: int
    workers: int
    stream_window: int
    nmos_shifts: np.ndarray
    pmos_shifts: np.ndarray

    def engine_kwargs(self) -> dict:
        kwargs = dict(
            compensation_enabled=self.compensation,
            feedback_mode=self.feedback,
            averaging_window=self.averaging_window,
        )
        if self.initial_correction is not None:
            kwargs["initial_correction"] = self.initial_correction
        return kwargs

    def replay_message(self) -> str:
        return replay_message(
            self.seed, "tests/engine/test_differential_fuzz.py"
        )


def draw_scenario(seed: int) -> Scenario:
    rng = np.random.default_rng(seed)
    dies = int(rng.integers(1, 9))
    cycles = int(rng.integers(24, 97))
    # Half the budget keeps the rate controller's default window; the
    # rest stresses odd windows.
    averaging_window = 4 if rng.random() < 0.5 else int(rng.integers(1, 7))
    compensation = bool(rng.random() < 0.8)
    feedback = FeedbackMode.VOLTAGE_SENSE
    if rng.random() < 0.15:
        feedback = FeedbackMode.DELAY_SERVO
        compensation = False
    initial_correction = None
    if rng.random() < 0.25:
        initial_correction = rng.integers(-3, 4, size=dies)
    arrival_kind = rng.choice(["matrix", "vector", "none", "bursty"])
    if arrival_kind == "matrix":
        arrivals = rng.integers(0, 4, size=(dies, cycles))
    elif arrival_kind == "vector":
        arrivals = rng.integers(0, 4, size=cycles)
    elif arrival_kind == "bursty":
        arrivals = rng.poisson(0.2, size=(dies, cycles))
        burst_every = int(rng.integers(8, 24))
        arrivals[:, ::burst_every] += int(rng.integers(8, 40))
    else:
        arrivals = None
    schedule_codes = None
    schedule_pairs = None
    if rng.random() < 0.3:
        pairs = []
        remaining = cycles
        while remaining > 0:
            span = int(min(remaining, rng.integers(5, 40)))
            pairs.append((int(rng.integers(0, 64)), span))
            remaining -= span
        schedule_pairs = tuple(pairs)
        schedule_codes = np.concatenate(
            [np.full(span, code, dtype=np.int64) for code, span in pairs]
        )
    variation = VariationModel(
        global_sigma_v=float(rng.uniform(0.005, 0.03)),
        local_sigma_v=float(rng.uniform(0.0, 0.01)),
    )
    samples = MonteCarloSampler(variation, seed=seed).draw_arrays(dies)
    return Scenario(
        seed=seed,
        dies=dies,
        cycles=cycles,
        averaging_window=averaging_window,
        compensation=compensation,
        feedback=feedback,
        initial_correction=initial_correction,
        arrivals=arrivals,
        schedule_codes=schedule_codes,
        schedule_pairs=schedule_pairs,
        shard_size=int(rng.integers(1, dies + 1)),
        workers=int(rng.integers(1, 4)),
        stream_window=int(rng.choice([4, 8, 16, 128])),
        nmos_shifts=np.asarray(samples.nmos_vth_shift, dtype=float),
        pmos_shifts=np.asarray(samples.pmos_vth_shift, dtype=float),
    )


# ----------------------------------------------------------------------
# Per-seed scenario cache (population construction and the reference
# runs are shared by the three test functions below).
# ----------------------------------------------------------------------
_CACHE: dict = {}


class ScenarioRuns:
    def __init__(self, seed: int, library, lut):
        from types import SimpleNamespace

        self.sc = draw_scenario(seed)
        self.lut = lut
        # from_samples stacks the scenario's shift arrays over the TT
        # corner technology — the same construction test_parity.py pins
        # against library.delay_model(...) with identical shifts, which
        # is what makes the scalar run_reference twin exact.
        self.population = BatchPopulation.from_samples(
            library,
            SimpleNamespace(
                nmos_vth_shift=self.sc.nmos_shifts,
                pmos_vth_shift=self.sc.pmos_shifts,
            ),
        )
        self.library = library
        self._exact = None
        self._exact_totals = None
        self._tabulated = None

    def run_batch(self, **overrides):
        kwargs = self.sc.engine_kwargs()
        kwargs.update(overrides)
        engine = BatchEngine(self.population, lut=self.lut, **kwargs)
        trace = engine.run(
            self.sc.arrivals,
            self.sc.cycles,
            scheduled_codes=self.sc.schedule_codes,
        )
        totals = {
            "energy": engine.state.energy_total.copy(),
            "operations": engine.state.operations_total.copy(),
            "drops": engine.state.drops_total.copy(),
            "correction": engine.state.lut_correction.copy(),
        }
        return trace, totals

    @property
    def exact(self):
        if self._exact is None:
            self._exact, self._exact_totals = self.run_batch()
        return self._exact

    @property
    def exact_totals(self):
        self.exact
        return self._exact_totals

    @property
    def tabulated(self):
        if self._tabulated is None:
            self._tabulated, _ = self.run_batch(device_model="tabulated")
        return self._tabulated

    def run_fleet(self, executor, telemetry="dense", **overrides):
        sc = self.sc
        kwargs = sc.engine_kwargs()
        kwargs.update(overrides)
        with FleetEngine(
            self.population,
            self.lut,
            fleet=FleetConfig(
                shard_size=sc.shard_size,
                workers=sc.workers,
                executor=executor,
                telemetry=telemetry,
                stream_window=sc.stream_window,
            ),
            **kwargs,
        ) as fleet:
            result = fleet.run(
                sc.arrivals, sc.cycles, scheduled_codes=sc.schedule_codes
            )
            totals = {
                "energy": fleet.total_energy(),
                "operations": fleet.total_operations(),
                "drops": fleet.total_drops(),
                "correction": fleet.final_correction(),
            }
        return result, totals


def get_runs(seed: int, library, lut) -> ScenarioRuns:
    runs = _CACHE.get(seed)
    if runs is None:
        runs = ScenarioRuns(seed, library, lut)
        _CACHE[seed] = runs
        # The cache exists to share work within one session; cap it so
        # an explicit large seed sweep cannot hoard memory.
        if len(_CACHE) > 256:
            _CACHE.pop(next(iter(_CACHE)))
    return runs


@pytest.fixture(scope="module")
def fuzz_lut(library):
    reference_load = DigitalLoad(
        library.ring_oscillator_load, library.reference_delay_model
    )
    return program_lut_for_load(reference_load, sample_rate=1e5)


def assert_traces_identical(expected, actual, message):
    for channel in TRACE_CHANNELS:
        np.testing.assert_array_equal(
            getattr(actual, channel),
            getattr(expected, channel),
            err_msg=f"{channel} {message}",
        )


def assert_totals_identical(expected, actual, message):
    for key, value in expected.items():
        np.testing.assert_array_equal(
            actual[key], value, err_msg=f"totals[{key}] {message}"
        )


class ReplayArrivals:
    """Scalar arrival process replaying one die's arrival row."""

    def __init__(self, row: np.ndarray, period: float) -> None:
        self.row = np.asarray(row, dtype=np.int64)
        self.period = period

    def __call__(self, time: float, period: float) -> int:
        index = int(round(time / self.period))
        if 0 <= index < self.row.shape[0]:
            return int(self.row[index])
        return 0


@pytest.mark.parametrize("seed", SEEDS)
def test_exact_paths_bit_identical(seed, library, fuzz_lut):
    """Legacy kernel and every (executor, sink) combination must equal
    the fused single-batch reference bit for bit under the exact device
    model."""
    runs = get_runs(seed, library, fuzz_lut)
    message = runs.sc.replay_message()
    reference = runs.exact

    legacy, legacy_totals = runs.run_batch(step_kernel="legacy")
    assert_traces_identical(reference, legacy, f"(legacy kernel) {message}")
    assert_totals_identical(
        runs.exact_totals, legacy_totals, f"(legacy kernel) {message}"
    )

    for executor in EXECUTORS:
        dense, dense_totals = runs.run_fleet(executor)
        assert_traces_identical(
            reference, dense, f"(executor={executor}, dense) {message}"
        )
        assert_totals_identical(
            runs.exact_totals,
            dense_totals,
            f"(executor={executor}) {message}",
        )

        null_result, null_totals = runs.run_fleet(executor, telemetry="null")
        assert null_result is None
        assert_totals_identical(
            runs.exact_totals,
            null_totals,
            f"(executor={executor}, null) {message}",
        )

    # Streaming reducers: every executor must reproduce the dense-trace
    # statistics of the identical run (min/max/last/int-totals exactly).
    window = runs.sc.stream_window
    for executor in EXECUTORS:
        sink, _ = runs.run_fleet(executor, telemetry="streaming")
        label = f"(executor={executor}, streaming) {message}"
        for channel in (
            "output_voltages", "duty_values", "energies", "lut_corrections"
        ):
            column = getattr(reference, channel)
            np.testing.assert_array_equal(
                sink.minimum(channel), column.min(axis=0),
                err_msg=f"{channel} min {label}",
            )
            np.testing.assert_array_equal(
                sink.maximum(channel), column.max(axis=0),
                err_msg=f"{channel} max {label}",
            )
            np.testing.assert_array_equal(
                sink.last(channel), column[-1],
                err_msg=f"{channel} last {label}",
            )
            np.testing.assert_array_equal(
                sink.tail(channel), column[-window:],
                err_msg=f"{channel} tail {label}",
            )
        np.testing.assert_array_equal(
            sink.total("operations_completed"),
            reference.operations_completed.sum(axis=0),
            err_msg=f"operations total {label}",
        )


@pytest.mark.parametrize("seed", SEEDS)
def test_tabulated_backends_bit_identical_and_near_exact(
    seed, library, fuzz_lut
):
    """Under the tabulated device model the executors must agree with a
    single tabulated batch bit for bit, and the tabulated trajectory
    must stay within quantisation distance of the exact one."""
    runs = get_runs(seed, library, fuzz_lut)
    message = runs.sc.replay_message()
    tabulated = runs.tabulated

    for executor in ("serial", "process"):
        dense, _ = runs.run_fleet(executor, device_model="tabulated")
        assert_traces_identical(
            tabulated, dense,
            f"(tabulated, executor={executor}) {message}",
        )

    exact = runs.exact
    np.testing.assert_allclose(
        tabulated.output_voltages,
        exact.output_voltages,
        rtol=0.0,
        atol=TAB_VOLTAGE_ATOL,
        err_msg=f"tabulated voltages {message}",
    )
    np.testing.assert_allclose(
        np.abs(
            tabulated.desired_codes.astype(np.int64)
            - exact.desired_codes.astype(np.int64)
        ).max(initial=0),
        0,
        atol=TAB_CODE_ATOL,
        err_msg=f"tabulated desired codes {message}",
    )
    exact_energy = exact.total_energy()
    tab_energy = tabulated.total_energy()
    np.testing.assert_allclose(
        tab_energy,
        exact_energy,
        rtol=TAB_ENERGY_RTOL,
        atol=exact_energy.max(initial=0.0) * 1e-6,
        err_msg=f"tabulated energy {message}",
    )


REUSE_COMBOS = (
    {"executor": "serial", "telemetry": "dense"},
    {"executor": "process", "telemetry": "dense"},
    {"executor": "serial", "telemetry": "streaming"},
    {"executor": "process", "telemetry": "null"},
    {"executor": "serial", "telemetry": "dense", "step_kernel": "legacy"},
    {"executor": "process", "telemetry": "dense",
     "device_model": "tabulated"},
)
"""Engine-reuse axis coverage: every executor, every sink, the legacy
kernel (serial-only; the process backend rejects it) and the tabulated
device model all appear at least once."""


def _fingerprint(result, totals, telemetry):
    """Reduce one fleet run to comparable arrays for its sink mode."""
    out = {f"totals.{key}": value for key, value in totals.items()}
    if telemetry == "dense":
        for channel in TRACE_CHANNELS:
            out[channel] = getattr(result, channel)
    elif telemetry == "streaming":
        for channel in (
            "output_voltages", "energies", "duty_values", "lut_corrections"
        ):
            out[f"min.{channel}"] = result.minimum(channel)
            out[f"max.{channel}"] = result.maximum(channel)
            out[f"last.{channel}"] = result.last(channel)
            out[f"tail.{channel}"] = result.tail(channel)
        out["settle_cycle"] = result.settle_cycle
        out["violation_cycles"] = result.violation_cycles
    else:
        assert result is None
    return out


def _fleet_totals(fleet):
    return {
        "energy": fleet.total_energy(),
        "operations": fleet.total_operations(),
        "drops": fleet.total_drops(),
        "correction": fleet.final_correction(),
    }


@pytest.mark.parametrize("seed", SEEDS)
def test_persistent_engine_reuse_bit_identical(seed, library, fuzz_lut):
    """The engine-reuse axis: repeated ``run()``/``run_chunked()`` calls
    on **one persistent FleetEngine** — with ``reset()`` population
    swaps between calls — must stay bit-identical to fresh cold engines,
    across every (step_kernel, device_model, executor, sink)
    combination the backends support."""
    from types import SimpleNamespace

    runs = get_runs(seed, library, fuzz_lut)
    sc = runs.sc
    message = sc.replay_message()
    rng = np.random.default_rng(seed ^ 0x5EED)
    swapped_samples = MonteCarloSampler(
        VariationModel(
            global_sigma_v=float(rng.uniform(0.005, 0.03)),
            local_sigma_v=float(rng.uniform(0.0, 0.01)),
        ),
        seed=seed + 1,
    ).draw_arrays(sc.dies)
    swapped_population = BatchPopulation.from_samples(
        library,
        SimpleNamespace(
            nmos_vth_shift=np.asarray(
                swapped_samples.nmos_vth_shift, dtype=float
            ),
            pmos_vth_shift=np.asarray(
                swapped_samples.pmos_vth_shift, dtype=float
            ),
        ),
    )
    chunk = int(rng.integers(1, sc.cycles + 5))

    for combo in REUSE_COMBOS:
        telemetry = combo["telemetry"]
        kwargs = sc.engine_kwargs()
        for knob in ("step_kernel", "device_model"):
            if knob in combo:
                kwargs[knob] = combo[knob]

        def build(population):
            return FleetEngine(
                population,
                fuzz_lut,
                fleet=FleetConfig(
                    shard_size=sc.shard_size,
                    workers=sc.workers,
                    executor=combo["executor"],
                    telemetry=telemetry,
                    stream_window=sc.stream_window,
                ),
                **kwargs,
            )

        def one_run(fleet):
            return fleet.run(
                sc.arrivals, sc.cycles, scheduled_codes=sc.schedule_codes
            )

        with build(runs.population) as cold:
            reference = _fingerprint(
                one_run(cold), _fleet_totals(cold), telemetry
            )
        with build(swapped_population) as cold:
            swapped_reference = _fingerprint(
                one_run(cold), _fleet_totals(cold), telemetry
            )

        with build(runs.population) as persistent:
            label = f"(reuse combo {combo}, chunk={chunk}) {message}"
            first = _fingerprint(
                one_run(persistent), _fleet_totals(persistent), telemetry
            )
            assert_totals_identical(reference, first, f"run 1 {label}")

            # Swap populations on the live fleet; chunked dispatch must
            # match the cold fleet's single-dispatch run bit for bit.
            persistent.reset(population=swapped_population)
            chunked = _fingerprint(
                persistent.run_chunked(
                    sc.arrivals,
                    sc.cycles,
                    chunk,
                    scheduled_codes=sc.schedule_codes,
                ),
                _fleet_totals(persistent),
                telemetry,
            )
            assert_totals_identical(
                swapped_reference, chunked, f"swap+chunked {label}"
            )

            # Swap back: the third generation on the same residents.
            persistent.reset(population=runs.population)
            third = _fingerprint(
                one_run(persistent), _fleet_totals(persistent), telemetry
            )
            assert_totals_identical(reference, third, f"run 3 {label}")


# ----------------------------------------------------------------------
# Chaos axis: "same answer under every failure".
# ----------------------------------------------------------------------
PROCESS_CHAOS_KINDS = ("crash", "raise", "hang", "slow", "ack_corrupt")
SERIAL_CHAOS_KINDS = ("crash", "raise", "hang", "slow")


@pytest.mark.parametrize("seed", SEEDS)
def test_chaos_recovery_bit_identical(seed, library, fuzz_lut):
    """The chaos axis: inject one randomized fault (kind, shard, cycle
    drawn per seed) into a resident fleet run and assert the *recovered*
    run is bit-identical to the fault-free single-batch reference —
    and that every shared-memory segment is unlinked afterwards.

    The fault cycle is aligned to a chunk boundary so the spec is
    guaranteed to arm (workers poll at round start), making every seed
    a real recovery exercise rather than a maybe."""
    from repro import faults

    runs = get_runs(seed, library, fuzz_lut)
    sc = runs.sc
    message = sc.replay_message()
    # Reference computed BEFORE the plan installs: fault-free baseline.
    reference = runs.exact
    reference_totals = runs.exact_totals

    rng = np.random.default_rng(seed ^ 0xFA17)
    executor = ("process", "serial")[int(rng.integers(0, 2))]
    kinds = (
        PROCESS_CHAOS_KINDS if executor == "process" else SERIAL_CHAOS_KINDS
    )
    kind = kinds[int(rng.integers(0, len(kinds)))]
    num_shards = -(-sc.dies // sc.shard_size)
    shard = (
        int(rng.integers(0, num_shards)) if rng.random() < 0.5 else None
    )
    chunk = int(rng.integers(1, sc.cycles + 1))
    cycle = (int(rng.integers(0, sc.cycles)) // chunk) * chunk
    # A hung process worker sleeps past the 5s command timeout and is
    # fenced + respawned; on the serial backend hang/crash degrade to
    # raises (the calling thread cannot be killed), slow to a sleep.
    seconds = 30.0 if kind == "hang" else 0.03
    label = (
        f"(chaos {kind}@{'*' if shard is None else shard}:{cycle}, "
        f"executor={executor}, chunk={chunk}) {message}"
    )

    faults.install(
        faults.FaultPlan(
            (
                faults.FaultSpec(
                    kind=kind, shard=shard, cycle=cycle,
                    seconds=seconds, times=1,
                ),
            )
        )
    )
    try:
        with FleetEngine(
            runs.population,
            fuzz_lut,
            fleet=FleetConfig(
                shard_size=sc.shard_size,
                workers=sc.workers,
                executor=executor,
                telemetry="dense",
                stream_window=sc.stream_window,
                recovery=faults.RecoveryPolicy(
                    max_restarts=3, command_timeout_s=5.0
                ),
            ),
            **sc.engine_kwargs(),
        ) as fleet:
            names = fleet.shared_block_names()
            trace = fleet.run_chunked(
                sc.arrivals, sc.cycles, chunk,
                scheduled_codes=sc.schedule_codes,
            )
            totals = _fleet_totals(fleet)
    finally:
        faults.clear()
    assert_traces_identical(reference, trace, label)
    assert_totals_identical(reference_totals, totals, label)
    from multiprocessing import shared_memory

    for name in names:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


SCALAR_INT_CHANNELS = (
    "queue_lengths",
    "desired_codes",
    "duty_values",
    "operations",
    "lut_corrections",
    "decisions",
)
SCALAR_FLOAT_CHANNELS = ("times", "output_voltages", "energies")


@pytest.mark.parametrize("seed", SEEDS)
def test_scalar_run_reference_parity(seed, library, fuzz_lut):
    """The batch reference must match the pure-Python scalar loop
    (``run_reference`` / ``run_schedule_reference``) on every die of
    every scenario: integer channels exactly, float channels at rtol
    1e-12.  Each die gets its own scalar controller with the scenario's
    averaging window and its own LUT copy carrying the die's initial
    correction."""
    runs = get_runs(seed, library, fuzz_lut)
    sc = runs.sc
    message = sc.replay_message()
    matrix = np.zeros((sc.dies, sc.cycles), dtype=np.int64)
    if sc.arrivals is not None:
        matrix = np.broadcast_to(
            np.asarray(sc.arrivals, dtype=np.int64), matrix.shape
        )
    for die in range(sc.dies):
        label = f"(die {die}, scalar reference) {message}"
        silicon = library.delay_model(
            OperatingCondition(
                corner="TT",
                nmos_vth_shift=float(sc.nmos_shifts[die]),
                pmos_vth_shift=float(sc.pmos_shifts[die]),
            )
        )
        lut = copy.deepcopy(fuzz_lut)
        if sc.initial_correction is not None:
            lut.apply_correction(int(sc.initial_correction[die]))
        controller = AdaptiveController(
            load=DigitalLoad(library.ring_oscillator_load, silicon),
            lut=lut,
            reference_delay_model=library.reference_delay_model,
            compensation_enabled=sc.compensation,
            feedback_mode=sc.feedback,
        )
        controller.rate_controller = RateController(
            lut, averaging_window=sc.averaging_window
        )
        replay = ReplayArrivals(
            matrix[die], controller.config.system_cycle_period
        )
        if sc.schedule_pairs is not None:
            scalar_trace = controller.run_schedule_reference(
                list(sc.schedule_pairs), arrivals=replay
            )
        else:
            scalar_trace = controller.run_reference(replay, sc.cycles)
        batch_trace = runs.exact.die(die)
        for channel in SCALAR_INT_CHANNELS:
            np.testing.assert_array_equal(
                getattr(batch_trace, channel),
                getattr(scalar_trace, channel),
                err_msg=f"{channel} {label}",
            )
        for channel in SCALAR_FLOAT_CHANNELS:
            np.testing.assert_allclose(
                getattr(batch_trace, channel),
                getattr(scalar_trace, channel),
                rtol=1e-12,
                atol=0.0,
                err_msg=f"{channel} {label}",
            )
