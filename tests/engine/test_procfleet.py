"""Shared-memory lifecycle of the process fleet backend.

The process executor's safety contract, independent of the bit-identity
contract covered in ``test_fleet.py`` / ``test_differential_fuzz.py``:

* shared blocks round-trip arrays exactly and expose zero-copy views,
* a worker crash mid-run propagates, closes the fleet and leaves **no**
  named segment behind (``/dev/shm`` leak-freedom),
* ``close()`` is idempotent, detaches the parent state (gather methods
  stay readable) and makes further runs fail loudly,
* the state field partition covers the whole ``BatchState`` dataclass,
  so a newly added field cannot silently bypass the shared block.
"""

import numpy as np
import pytest
from multiprocessing import shared_memory

from repro.circuits.loads import DigitalLoad
from repro.core.rate_controller import program_lut_for_load
from repro.devices.variation import MonteCarloSampler
from repro.engine import (
    BatchEngine,
    BatchPopulation,
    FleetConfig,
    FleetEngine,
    SharedArrayBlock,
)
from repro.engine.procfleet import START_METHOD_ENV
from repro.engine.state import (
    BatchState,
    STATE_ARRAY_FIELDS,
    STATE_SCALAR_FIELDS,
)
from repro.faults import FAULTS_ENV

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


def assert_unlinked(names):
    for name in names:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


def make_process_fleet(population, reference_lut, **config_kwargs):
    config_kwargs.setdefault("shard_size", 3)
    config_kwargs.setdefault("workers", 2)
    return FleetEngine(
        population,
        reference_lut,
        fleet=FleetConfig(executor="process", **config_kwargs),
    )


class TestSharedArrayBlock:
    def test_round_trip_and_zero_copy_views(self):
        arrays = {
            "ints": np.arange(12, dtype=np.int64).reshape(3, 4),
            "floats": np.linspace(0.0, 1.0, 7),
            "flags": np.array([True, False, True]),
        }
        block = SharedArrayBlock.create(arrays)
        try:
            attached = SharedArrayBlock.attach(block.spec)
            try:
                for name, expected in arrays.items():
                    np.testing.assert_array_equal(
                        attached.view(name), expected, err_msg=name
                    )
                    assert attached.view(name).dtype == expected.dtype
                # Writes through one attachment are visible in the other
                # (same physical memory, no copies anywhere).
                attached.view("ints")[1, 2] = 99
                assert block.view("ints")[1, 2] == 99
            finally:
                attached.close()
        finally:
            block.close()
        assert_unlinked([block.name])

    def test_close_is_idempotent_and_views_refuse_after(self):
        block = SharedArrayBlock.create({"x": np.zeros(4)})
        block.close()
        block.close()
        with pytest.raises(RuntimeError):
            block.view("x")
        assert_unlinked([block.name])


class TestStateFieldPartition:
    def test_partition_covers_every_batchstate_field(self):
        from dataclasses import fields

        declared = {f.name for f in fields(BatchState)}
        partition = set(STATE_ARRAY_FIELDS) | set(STATE_SCALAR_FIELDS)
        assert partition == declared
        assert not set(STATE_ARRAY_FIELDS) & set(STATE_SCALAR_FIELDS)

    def test_shard_view_aliases_parent_arrays(self):
        from repro.core.config import ControllerConfig

        state = BatchState.initial(6, ControllerConfig())
        view = state.shard_view(slice(2, 5))
        assert view.n == 3
        view.queue_length[:] = 7
        np.testing.assert_array_equal(
            state.queue_length, [0, 0, 7, 7, 7, 0]
        )
        state.detach()  # detach copies: further writes stop aliasing
        view.queue_length[:] = 1
        np.testing.assert_array_equal(
            state.queue_length, [0, 0, 7, 7, 7, 0]
        )


class TestProcessFleetLifecycle:
    def test_normal_close_unlinks_every_block(
        self, population, reference_lut, arrivals
    ):
        fleet = make_process_fleet(population, reference_lut)
        names = fleet.shared_block_names()
        assert len(names) == 2  # state + devices (no tables: exact model)
        fleet.run(arrivals, CYCLES)
        fleet.close()
        assert_unlinked(names)

    def test_tabulated_fleet_shares_tables_block(
        self, population, reference_lut, arrivals
    ):
        tabulated = FleetEngine(
            population,
            reference_lut,
            fleet=FleetConfig(executor="process", shard_size=3, workers=2),
            device_model="tabulated",
        )
        try:
            names = tabulated.shared_block_names()
            assert len(names) == 3  # state + devices + tables
            reference = BatchEngine(
                population, lut=reference_lut, device_model="tabulated"
            ).run(arrivals, CYCLES)
            trace = tabulated.run(arrivals, CYCLES)
            np.testing.assert_array_equal(
                trace.output_voltages, reference.output_voltages
            )
            np.testing.assert_array_equal(
                trace.lut_corrections, reference.lut_corrections
            )
        finally:
            tabulated.close()
        assert_unlinked(names)

    def test_distinct_sensor_devices_stay_bit_identical(
        self, library, population, reference_lut, arrivals
    ):
        """Regression: a population whose TDC replica silicon carries
        its own fitted delay constant must survive the worker-side
        rebuild — the payload ships both constants, not just the
        load's."""
        from repro.engine.device_math import BatchDeviceSet
        from repro.library import OperatingCondition

        technology = library.technology_at(
            OperatingCondition(corner="TT")
        )
        base_constant = library.reference_delay_model.delay_constant
        load_devices = BatchDeviceSet.from_technology(
            technology, base_constant, n=DIES
        )
        sensor_devices = BatchDeviceSet.from_technology(
            technology, base_constant * 1.5, n=DIES
        )
        distinct = BatchPopulation(
            load=population.load,
            load_devices=load_devices,
            sensor_devices=sensor_devices,
            expected_counts=population.expected_counts,
            temperature_c=population.temperature_c,
        )
        single = BatchEngine(distinct, lut=reference_lut).run(
            arrivals, CYCLES
        )
        with make_process_fleet(distinct, reference_lut) as fleet:
            assert len(fleet.shared_block_names()) == 2
            sharded = fleet.run(arrivals, CYCLES)
        np.testing.assert_array_equal(
            sharded.output_voltages, single.output_voltages
        )
        np.testing.assert_array_equal(
            sharded.lut_corrections, single.lut_corrections
        )
        np.testing.assert_array_equal(
            sharded.decisions, single.decisions
        )

    def test_worker_crash_propagates_and_leaks_no_segments(
        self, population, reference_lut, arrivals, monkeypatch
    ):
        monkeypatch.setenv(FAULTS_ENV, "raise@1:0::0")
        fleet = make_process_fleet(population, reference_lut)
        names = fleet.shared_block_names()
        assert names
        with pytest.raises(RuntimeError, match="injected worker fault"):
            fleet.run(arrivals, CYCLES)
        # The failed run must have torn the fleet down: every named
        # segment unlinked, and the engine refuses further runs.
        assert_unlinked(names)
        with pytest.raises(RuntimeError, match="closed"):
            fleet.run(arrivals, CYCLES)

    def test_double_close_is_safe_and_gathers_survive(
        self, population, reference_lut, arrivals
    ):
        single = BatchEngine(population, lut=reference_lut).run(
            arrivals, CYCLES
        )
        fleet = make_process_fleet(population, reference_lut)
        fleet.run(arrivals, CYCLES)
        fleet.close()
        fleet.close()
        # detach() copied the final state out of shared memory before
        # the unlink, so run totals remain readable after close.
        np.testing.assert_array_equal(
            fleet.total_energy(), single.total_energy()
        )
        np.testing.assert_array_equal(
            fleet.final_correction(), single.final_correction()
        )

    def test_spawn_start_method_stays_bit_identical(
        self, population, reference_lut, arrivals, monkeypatch
    ):
        """The spawn path pickles the payload instead of inheriting it
        (the default on macOS/Windows); it must produce the same bits
        as fork and leak nothing."""
        monkeypatch.setenv(START_METHOD_ENV, "spawn")
        single = BatchEngine(population, lut=reference_lut).run(
            arrivals, CYCLES
        )
        fleet = make_process_fleet(population, reference_lut)
        names = fleet.shared_block_names()
        try:
            sharded = fleet.run(arrivals, CYCLES)
        finally:
            fleet.close()
        np.testing.assert_array_equal(
            sharded.output_voltages, single.output_voltages
        )
        np.testing.assert_array_equal(
            sharded.lut_corrections, single.lut_corrections
        )
        assert_unlinked(names)

    def test_log_corrections_is_rejected(self, population, reference_lut):
        """The sparse correction log accumulates inside worker memory
        and is never shipped back; silently empty logs would lie, so
        the combination must fail at construction."""
        with pytest.raises(ValueError, match="log_corrections"):
            FleetEngine(
                population,
                reference_lut,
                fleet=FleetConfig(executor="process", workers=2),
                log_corrections=True,
            )

    def test_close_with_live_resident_workers_is_idempotent(
        self, population, reference_lut, arrivals
    ):
        """close() must drain live resident workers (not just unlink):
        the worker processes exit, repeated closes no-op, and every
        segment disappears."""
        fleet = make_process_fleet(population, reference_lut)
        names = fleet.shared_block_names()
        fleet.run(arrivals[:, :10], 10)  # spins the residents up
        backend = fleet._proc
        workers = list(backend._workers)
        assert workers  # residents are live before close
        fleet.close()
        fleet.close()
        backend.close()  # backend-level close is idempotent too
        for worker in workers:
            worker.process.join(timeout=5.0)
            assert not worker.process.is_alive()
        assert_unlinked(names)

    def test_worker_crash_mid_chunk_leaks_no_segments(
        self, population, reference_lut, arrivals, monkeypatch
    ):
        """A fault armed for a later cycle fires on a mid-horizon chunk
        — after earlier chunks already ran on live residents — and the
        teardown must still unlink every segment."""
        monkeypatch.setenv(FAULTS_ENV, "raise@1:20::0")
        fleet = make_process_fleet(population, reference_lut)
        names = fleet.shared_block_names()
        # Chunks of 10 over 40 cycles: the fault arms at start cycle 20,
        # so chunks 1-2 succeed and chunk 3 crashes the shard-1 worker.
        with pytest.raises(RuntimeError, match="injected worker fault"):
            fleet.run_chunked(arrivals, CYCLES, 10)
        assert_unlinked(names)
        with pytest.raises(RuntimeError, match="closed"):
            fleet.run(arrivals, CYCLES)

    def test_double_start_is_rejected(
        self, population, reference_lut, arrivals
    ):
        fleet = make_process_fleet(population, reference_lut)
        try:
            fleet.run(arrivals[:, :10], 10)  # first run starts residents
            with pytest.raises(RuntimeError, match="already started"):
                fleet._proc.start(2)
        finally:
            fleet.close()

    def test_reset_swaps_population_on_live_workers(
        self, library, population, reference_lut, arrivals
    ):
        """A population swap on a running process fleet must equal a
        cold fleet over the new population — devices refreshed in the
        shared block, workers re-pointed by the reset command."""
        other = BatchPopulation.from_samples(
            library, MonteCarloSampler(seed=38).draw_arrays(DIES)
        )
        cold = BatchEngine(other, lut=reference_lut).run(arrivals, CYCLES)
        with make_process_fleet(population, reference_lut) as fleet:
            fleet.run(arrivals, CYCLES)
            names = fleet.shared_block_names()
            fleet.reset(population=other)
            # The swap reuses the original segments (refresh-in-place).
            assert fleet.shared_block_names() == names
            swapped = fleet.run(arrivals, CYCLES)
        np.testing.assert_array_equal(
            swapped.output_voltages, cold.output_voltages
        )
        np.testing.assert_array_equal(
            swapped.lut_corrections, cold.lut_corrections
        )
        assert_unlinked(names)

    def test_construction_failure_unlinks_partial_blocks(
        self, population, reference_lut, monkeypatch
    ):
        """If block creation fails midway, already-created segments must
        not leak."""
        import repro.engine.procfleet as procfleet

        created = []
        original = procfleet.SharedArrayBlock.create.__func__

        def failing_create(cls, arrays):
            if any(key.startswith("load.") for key in arrays):
                raise OSError("injected allocation failure")
            block = original(cls, arrays)
            created.append(block.name)
            return block

        monkeypatch.setattr(
            procfleet.SharedArrayBlock,
            "create",
            classmethod(failing_create),
        )
        with pytest.raises(OSError, match="injected allocation"):
            make_process_fleet(population, reference_lut)
        assert created  # the state block was created first...
        assert_unlinked(created)  # ...and cleaned up on the failure
