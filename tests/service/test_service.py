"""Service behaviour: admission, deadlines, coalescing, cache, stats."""

import numpy as np
import pytest

from repro.service import (
    AdmissionError,
    DeadlineExceeded,
    RESULT_FIELDS,
    ServiceConfig,
    SimRequest,
    SimulationService,
    WorkloadSpec,
)

CYCLES = 30


@pytest.fixture(scope="module")
def service_library(library):
    return library


def make_service(library, **overrides):
    return SimulationService(
        library=library, config=ServiceConfig(**overrides)
    )


def request_for(i, cycles=CYCLES, **overrides):
    return SimRequest(
        cycles=cycles,
        corner=("SS", "TT", "FS")[i % 3],
        nmos_vth_shift=0.002 * i,
        pmos_vth_shift=-0.001 * i,
        **overrides,
    )


class TestSubmitAndResolve:
    def test_future_result_drives_ticks(self, service_library):
        service = make_service(service_library)
        future = service.submit(request_for(1))
        assert not future.done
        result = future.result()
        assert future.done
        assert set(result.values) == set(RESULT_FIELDS)
        assert not result.cached
        assert result.batch_size == 1

    def test_run_preserves_request_order(self, service_library):
        service = make_service(service_library)
        requests = [request_for(i) for i in range(5)]
        results = service.run(requests)
        singles = [
            service.simulate_requests([request])[0]
            for request in requests
        ]
        for result, single in zip(results, singles):
            assert result.values == single

    def test_reducer_selection(self, service_library):
        service = make_service(service_library)
        result = service.submit(
            request_for(2, reducers=("energy_total", "final_voltage"))
        ).result()
        assert set(result.values) == {"energy_total", "final_voltage"}
        with pytest.raises(ValueError):
            service.submit(request_for(2, reducers=("bogus",)))

    def test_mixed_groups_split_into_batches(self, service_library):
        service = make_service(service_library)
        short = [request_for(i, cycles=20) for i in range(3)]
        long = [request_for(i, cycles=24) for i in range(3)]
        results = service.run(short + long)
        stats = service.stats()
        assert stats.batches == 2
        assert stats.simulated_dies == 6
        assert [r.batch_size for r in results] == [3] * 6


class TestCoalescingAndCache:
    def test_duplicates_share_one_simulated_die(self, service_library):
        service = make_service(service_library)
        request = request_for(1)
        futures = [service.submit(request) for _ in range(4)]
        results = [future.result() for future in futures]
        stats = service.stats()
        assert stats.batches == 1
        assert stats.simulated_dies == 1
        assert stats.coalesced_requests == 4
        assert stats.coalesce_factor == 4.0
        values = results[0].values
        assert all(result.values == values for result in results)

    def test_resubmission_hits_the_cache(self, service_library):
        service = make_service(service_library)
        request = request_for(2)
        first = service.submit(request).result()
        second = service.submit(request).result()
        assert not first.cached
        assert second.cached
        assert second.values == first.values
        assert service.stats().cache_hits == 1

    def test_cache_disabled(self, service_library):
        service = make_service(service_library, cache_bytes=0)
        request = request_for(2)
        first = service.submit(request).result()
        second = service.submit(request).result()
        assert not second.cached
        assert second.values == first.values
        assert service.stats().batches == 2

    def test_max_batch_dies_bounds_each_tick(self, service_library):
        service = make_service(service_library, max_batch_dies=2)
        futures = [service.submit(request_for(i)) for i in range(5)]
        results = [future.result() for future in futures]
        stats = service.stats()
        assert stats.batches == 3
        assert [r.batch_size for r in results] == [2, 2, 2, 2, 1]
        singles = SimulationService(library=service_library)
        for i, result in enumerate(results):
            assert result.values == singles.simulate_requests(
                [request_for(i)]
            )[0]


class TestAdmissionControl:
    def test_queue_depth_rejects_at_capacity(self, service_library):
        service = make_service(service_library, max_queue_depth=2)
        service.submit(request_for(0))
        service.submit(request_for(1))
        with pytest.raises(AdmissionError):
            service.submit(request_for(2))
        assert service.stats().rejected == 1
        # Draining makes room again.
        assert service.tick() == 2
        service.submit(request_for(2))

    def test_cache_hit_bypasses_admission(self, service_library):
        service = make_service(service_library, max_queue_depth=1)
        warm = request_for(0)
        service.submit(warm).result()
        service.submit(request_for(1))  # fills the queue
        # A cached scenario resolves without touching the full queue.
        result = service.submit(warm).result()
        assert result.cached

    def test_deadline_shedding(self, service_library):
        service = make_service(service_library)
        expired = service.submit(request_for(0, deadline_s=0.0))
        fresh = service.submit(request_for(1))
        import time

        time.sleep(0.002)
        resolved = service.tick()
        assert resolved == 2  # one shed + one simulated
        with pytest.raises(DeadlineExceeded):
            expired.result()
        assert expired.exception() is not None
        assert fresh.result().values["operations_total"] >= 0
        assert service.stats().shed == 1

    @pytest.mark.parametrize("execution", ("serial", "process"))
    def test_shedding_under_fleet_executors(
        self, service_library, execution
    ):
        """Admission rejection and deadline shedding behave identically
        on the fleet executors — and a shed request never consumes an
        engine run (no batch, no simulated die, no engine build)."""
        import time

        service = make_service(
            service_library, execution=execution, workers=2,
            max_queue_depth=2, cache_bytes=0,
        )
        try:
            service.submit(request_for(0))
            service.submit(request_for(1))
            with pytest.raises(AdmissionError):
                service.submit(request_for(2))
            assert service.stats().rejected == 1
            assert service.tick() == 2  # drains; queue has room again

            expired = service.submit(request_for(3, deadline_s=0.0))
            time.sleep(0.002)
            before = service.stats()
            assert service.tick() == 1  # the shed is the only resolution
            after = service.stats()
            with pytest.raises(DeadlineExceeded):
                expired.result()
            assert after.shed == before.shed + 1
            # Shed requests must not have consumed an engine run.
            assert after.batches == before.batches
            assert after.simulated_dies == before.simulated_dies
            assert after.engine_builds == before.engine_builds
        finally:
            service.close()

    def test_process_execution_rejects_legacy_kernel(self, service_library):
        service = make_service(service_library, execution="process")
        with pytest.raises(ValueError):
            service.submit(request_for(0, step_kernel="legacy"))


class TestStats:
    def test_snapshot_counters(self, service_library):
        service = make_service(service_library)
        request = request_for(3)
        service.run([request, request, request_for(4)])
        service.submit(request).result()  # cache hit
        stats = service.stats()
        assert stats.submitted == 4
        assert stats.completed == 4
        assert stats.queue_depth == 0
        assert stats.cache_entries == 2
        assert stats.cache_hit_rate > 0
        assert stats.requests_per_second > 0
        text = stats.describe()
        assert "requests/s" in text
        assert "coalesce factor" in text
        assert "hit rate" in text
        assert "reuse rate" in text
        assert "fan-out" in text

    def test_dispatch_timing_accumulates(self, service_library):
        service = make_service(service_library)
        service.run([request_for(1), request_for(2)])
        stats = service.stats()
        assert stats.engine_builds >= 1
        assert stats.dispatch_s > 0
        assert stats.fanout_s >= 0
        assert stats.merge_s >= 0

    def test_warm_engine_reuse_across_ticks(self, service_library):
        service = make_service(service_library, execution="serial")
        try:
            first = service.run([request_for(1), request_for(2)])
            second = service.run([request_for(1), request_for(2)])
        finally:
            service.close()
        # Identical requests, second tick served by the warm engine;
        # cache hits would mask reuse, so compare distinct cold runs.
        assert [r.values for r in first] == [r.values for r in second]
        stats = service.stats()
        assert stats.engine_reuses == 0  # second tick was all cache hits

    def test_reuse_counts_with_cache_disabled(self, service_library):
        service = make_service(
            service_library, execution="serial", cache_bytes=0
        )
        try:
            first = service.run([request_for(5), request_for(6)])
            second = service.run([request_for(5), request_for(6)])
            stats = service.stats()
            assert stats.engine_builds == 1
            assert stats.engine_reuses == 1
            assert stats.engine_reuse_rate == 0.5
            assert [r.values for r in first] == [
                r.values for r in second
            ]
        finally:
            service.close()

    def test_engine_cache_zero_disables_reuse(self, service_library):
        service = make_service(
            service_library, execution="serial", cache_bytes=0,
            engine_cache=0,
        )
        service.run([request_for(5)])
        service.run([request_for(5)])
        stats = service.stats()
        assert stats.engine_builds == 2
        assert stats.engine_reuses == 0

    def test_close_retires_engines_but_service_survives(
        self, service_library
    ):
        service = make_service(
            service_library, execution="serial", cache_bytes=0
        )
        baseline = service.run([request_for(7)])
        service.close()
        again = service.run([request_for(7)])
        assert baseline[0].values == again[0].values
        service.close()  # idempotent
        assert service.stats().engine_builds == 2


class TestWorkloads:
    def test_workload_kinds_resolve(self, service_library):
        service = make_service(service_library)
        explicit = tuple(
            int(v) for v in np.arange(CYCLES) % 3
        )
        requests = [
            request_for(0, workload=WorkloadSpec(kind="none")),
            request_for(1, workload=WorkloadSpec(kind="constant", rate=5e4)),
            request_for(
                2, workload=WorkloadSpec(kind="poisson", rate=8e4, seed=11)
            ),
            request_for(
                0, workload=WorkloadSpec(kind="explicit", arrivals=explicit)
            ),
        ]
        results = service.run(requests)
        assert results[0].values["accepted_total"] == 0
        assert results[3].values["accepted_total"] > 0

    def test_poisson_row_is_seed_keyed_not_position_keyed(self):
        from repro.workloads.batch import (
            poisson_arrival_matrix,
            poisson_arrival_row,
        )

        row = poisson_arrival_row(1e5, 1e-6, 50, seed=42)
        matrix = poisson_arrival_matrix([1e5], 1e-6, 50, seeds=42)
        np.testing.assert_array_equal(row, matrix[0])

    def test_workload_validation(self):
        with pytest.raises(ValueError):
            WorkloadSpec(kind="warp")
        with pytest.raises(ValueError):
            WorkloadSpec(kind="poisson", rate=1e5)  # no seed
        with pytest.raises(ValueError):
            WorkloadSpec(kind="explicit")  # no arrivals
        with pytest.raises(ValueError):
            WorkloadSpec(kind="constant", arrivals=(1, 2))
        with pytest.raises(ValueError):
            SimRequest(cycles=0)
        with pytest.raises(ValueError):
            SimRequest(cycles=10, schedule_codes=(1, 2))  # wrong length
        with pytest.raises(ValueError):
            SimRequest(cycles=10, feedback="psychic")
        with pytest.raises(ValueError):
            SimRequest(
                cycles=10, device_model="tabulated", step_kernel="legacy"
            )

    def test_schedule_requests(self, service_library):
        service = make_service(service_library)
        codes = tuple([40] * 10 + [20] * 10)
        request = request_for(1, cycles=20, schedule_codes=codes)
        result = service.submit(request).result()
        single = service.simulate_requests([request])[0]
        assert result.values == single


class TestFailureContainment:
    def test_failed_batch_rejects_its_futures_not_the_service(
        self, service_library, monkeypatch
    ):
        service = make_service(service_library)
        doomed_a = service.submit(request_for(0))
        doomed_b = service.submit(request_for(1))
        boom = RuntimeError("injected engine failure")

        def explode(requests):
            raise boom

        monkeypatch.setattr(service, "simulate_requests", explode)
        assert service.tick() == 2  # both futures resolved (rejected)
        for future in (doomed_a, doomed_b):
            with pytest.raises(RuntimeError, match="injected"):
                future.result()
        monkeypatch.undo()
        stats = service.stats()
        assert stats.failed == 2
        assert stats.batches == 0
        # The service itself survives and keeps serving.
        healthy = service.submit(request_for(2)).result()
        assert healthy.values["operations_total"] >= 0

    def test_explicit_arrivals_must_match_cycles_at_construction(self):
        with pytest.raises(ValueError, match="explicit workload carries"):
            SimRequest(
                cycles=30,
                workload=WorkloadSpec(
                    kind="explicit", arrivals=(1, 2, 3)
                ),
            )

    def test_inert_workload_fields_do_not_change_the_key(self):
        base = SimRequest(cycles=30, workload=WorkloadSpec(kind="none"))
        respelled = SimRequest(
            cycles=30, workload=WorkloadSpec(kind="none", rate=123.0)
        )
        assert base.cache_key() == respelled.cache_key()
        explicit = WorkloadSpec(kind="explicit", arrivals=(1,) * 30)
        explicit_other_rate = WorkloadSpec(
            kind="explicit", arrivals=(1,) * 30, rate=9.0
        )
        assert SimRequest(cycles=30, workload=explicit).cache_key() == (
            SimRequest(cycles=30, workload=explicit_other_rate).cache_key()
        )
        with pytest.raises(ValueError, match="seed only applies"):
            WorkloadSpec(kind="constant", seed=5)

    def test_admission_retries_do_not_inflate_submitted(
        self, service_library
    ):
        service = make_service(service_library, max_queue_depth=1)
        service.submit(request_for(0))
        for _ in range(3):
            with pytest.raises(AdmissionError):
                service.submit(request_for(1))
        stats = service.stats()
        assert stats.submitted == 1
        assert stats.rejected == 3
