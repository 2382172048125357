"""Service resilience: retries, circuit breaking, degradation, repair.

The contract under test: with a :class:`ResiliencePolicy` configured,
the service *keeps serving bit-identical results* while the execution
substrate misbehaves — a force-failed process backend degrades to
serial, transient faults retry with deterministic seeded jitter,
retries respect request deadlines, corrupt cache entries are detected
and re-simulated, and ``close()`` retires every warm engine even when
one engine's close raises.
"""

import time

import numpy as np
import pytest

from repro import faults
from repro.faults import FaultPlan, FaultSpec
from repro.service import (
    ResiliencePolicy,
    ServiceConfig,
    SimRequest,
    SimulationService,
    WorkloadSpec,
)
from repro.service.resilience import (
    DEGRADATION_LADDER,
    BackoffSchedule,
    CircuitBreaker,
)

CYCLES = 30


@pytest.fixture(scope="module")
def service_library(library):
    return library


@pytest.fixture(autouse=True)
def clean_plan():
    faults.clear()
    yield
    faults.clear()


def request_for(i, cycles=CYCLES, **overrides):
    return SimRequest(
        cycles=cycles,
        corner=("SS", "TT", "FS")[i % 3],
        nmos_vth_shift=0.002 * i,
        pmos_vth_shift=-0.001 * i,
        workload=WorkloadSpec(kind="poisson", rate=8e4, seed=100 + i),
        **overrides,
    )


def assert_values_match(results, expected):
    """Reducer-dict equality with NaN == NaN (energy_per_operation is
    NaN for a die that completed zero operations)."""
    actual = [result.values for result in results]
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        assert set(got) == set(want)
        for name in want:
            if isinstance(want[name], float) and np.isnan(want[name]):
                assert np.isnan(got[name]), name
            else:
                assert got[name] == want[name], name


def make_service(library, **overrides):
    overrides.setdefault(
        "resilience",
        ResiliencePolicy(
            max_retries=1, backoff_base_s=0.001, backoff_cap_s=0.002
        ),
    )
    return SimulationService(
        library=library, config=ServiceConfig(**overrides)
    )


@pytest.fixture(scope="module")
def baseline(service_library):
    """Fault-free direct-execution reference values."""
    service = SimulationService(library=service_library)
    results = service.run([request_for(i) for i in range(4)])
    return [result.values for result in results]


class TestPolicyUnits:
    def test_policy_validation(self):
        with pytest.raises(ValueError):
            ResiliencePolicy(max_retries=-1)
        with pytest.raises(ValueError):
            ResiliencePolicy(backoff_base_s=0.0)
        with pytest.raises(ValueError):
            ResiliencePolicy(backoff_base_s=0.5, backoff_cap_s=0.1)
        with pytest.raises(ValueError):
            ResiliencePolicy(breaker_threshold=0)
        with pytest.raises(ValueError):
            ResiliencePolicy(command_timeout_s=-1.0)

    def test_backoff_is_seeded_and_deterministic(self):
        policy = ResiliencePolicy(
            backoff_base_s=0.01, backoff_cap_s=0.1, jitter_seed=7
        )
        a = BackoffSchedule(policy)
        b = BackoffSchedule(policy)
        delays = [a.delay(attempt) for attempt in range(6)]
        assert delays == [b.delay(attempt) for attempt in range(6)]
        # Exponential growth under the cap, jitter within [0.5, 1.0).
        for attempt, delay in enumerate(delays):
            bounded = min(0.1, 0.01 * 2**attempt)
            assert 0.5 * bounded <= delay < bounded

    def test_breaker_trips_cools_down_and_half_opens(self):
        breaker = CircuitBreaker(threshold=2, cooldown_s=10.0)
        assert breaker.allows(0.0)
        breaker.record_failure(0.0)
        assert breaker.allows(0.0)  # one failure below threshold
        breaker.record_failure(1.0)
        assert breaker.trips == 1
        assert not breaker.allows(5.0)  # open during cooldown
        assert breaker.allows(11.0)  # half-open probe allowed
        breaker.record_failure(11.0)  # probe fails: re-trips at once
        assert breaker.trips == 2
        assert not breaker.allows(12.0)
        breaker.record_success()
        assert breaker.allows(12.0)

    def test_config_rejects_non_policy(self):
        with pytest.raises(TypeError):
            ServiceConfig(resilience="retry-lots")
        with pytest.raises(TypeError, match="unexpected keyword"):
            ServiceConfig(chunk_cycles=10)
        for execution in ("warp", "thread"):
            with pytest.raises(ValueError, match="execution must be one of"):
                ServiceConfig(execution=execution)


class TestDegradation:
    def test_ladder_rungs(self):
        """A process fleet degrades straight to serial; the in-process
        modes have nowhere lower to go."""
        assert DEGRADATION_LADDER == {
            "process": ("process", "serial"),
            "serial": ("serial",),
            "direct": ("direct",),
        }

    def test_process_force_failed_degrades_and_stays_bit_identical(
        self, service_library, baseline
    ):
        """The headline acceptance: every process-mode attempt fails,
        the service degrades down the ladder and keeps serving — with
        the exact same answers."""
        faults.install(
            FaultPlan(
                (
                    FaultSpec(
                        kind="raise", scope="service",
                        executor="process", times=0,
                    ),
                )
            )
        )
        service = make_service(
            service_library, execution="process", workers=2,
        )
        try:
            results = service.run([request_for(i) for i in range(4)])
            stats = service.stats()
        finally:
            service.close()
        assert_values_match(results, baseline)
        assert stats.failed == 0
        assert stats.retries >= 1
        assert stats.degraded_runs >= 1

    def test_breaker_skips_failing_rung_after_trip(
        self, service_library, baseline
    ):
        faults.install(
            FaultPlan(
                (
                    FaultSpec(
                        kind="raise", scope="service",
                        executor="process", times=0,
                    ),
                )
            )
        )
        service = make_service(
            service_library, execution="process", workers=2,
            cache_bytes=0,
            resilience=ResiliencePolicy(
                max_retries=0, backoff_base_s=0.001,
                backoff_cap_s=0.002, breaker_threshold=1,
                breaker_cooldown_s=60.0,
            ),
        )
        try:
            first = service.run([request_for(i) for i in range(4)])
            second = service.run([request_for(i) for i in range(4)])
            stats = service.stats()
        finally:
            service.close()
        assert_values_match(first, baseline)
        assert_values_match(second, baseline)
        assert stats.breaker_trips >= 1
        assert stats.degraded_runs == stats.batches  # serial served all

    def test_transient_fault_retried_on_same_rung(
        self, service_library, baseline
    ):
        faults.install(
            FaultPlan((FaultSpec(kind="raise", scope="service", times=1),))
        )
        service = make_service(service_library)  # direct: no rung below
        try:
            results = service.run([request_for(i) for i in range(4)])
            stats = service.stats()
        finally:
            service.close()
        assert_values_match(results, baseline)
        assert stats.retries == 1
        assert stats.degraded_runs == 0
        assert stats.failed == 0

    def test_worker_crash_absorbed_below_the_retry_loop(
        self, service_library, baseline
    ):
        """A process-fleet worker crash is recovered by the fleet's own
        supervision (``fleet_restarts``); the service-level retry loop
        never notices."""
        faults.install(
            FaultPlan(
                (
                    FaultSpec(
                        kind="crash", shard=0, executor="process",
                        times=1,
                    ),
                )
            )
        )
        service = make_service(
            service_library, execution="process", workers=2,
            resilience=ResiliencePolicy(
                backoff_base_s=0.001, backoff_cap_s=0.002,
                fleet_restarts=2, command_timeout_s=10.0,
            ),
        )
        try:
            results = service.run([request_for(i) for i in range(4)])
            stats = service.stats()
        finally:
            service.close()
        assert_values_match(results, baseline)
        assert stats.retries == 0
        assert stats.degraded_runs == 0


class TestDeadlines:
    def test_retry_backoff_respects_request_deadline(
        self, service_library
    ):
        """A backoff sleep that would overrun the oldest waiting
        deadline fails the batch immediately instead of sleeping."""
        faults.install(
            FaultPlan((FaultSpec(kind="raise", scope="service", times=0),))
        )
        service = make_service(
            service_library,
            resilience=ResiliencePolicy(
                max_retries=5, backoff_base_s=5.0, backoff_cap_s=5.0
            ),
        )
        future = service.submit(request_for(0, deadline_s=0.05))
        started = time.monotonic()
        with pytest.raises(RuntimeError, match="injected"):
            future.result()
        elapsed = time.monotonic() - started
        assert elapsed < 2.0, f"retry loop slept {elapsed:.1f}s"


class TestCacheCorruption:
    def test_corrupt_entry_discarded_and_resimulated(
        self, service_library
    ):
        faults.install(
            FaultPlan((FaultSpec(kind="cache_corrupt", times=1),))
        )
        service = make_service(service_library)
        try:
            first = service.run([request_for(1)])
            again = service.submit(request_for(1)).result()
            third = service.submit(request_for(1)).result()
            stats = service.stats()
        finally:
            service.close()
        # The corrupted hit was discarded and re-simulated...
        assert not again.cached
        assert_values_match([again], [first[0].values])
        assert stats.cache_corruptions == 1
        # ...and the repaired entry serves from cache afterwards.
        assert third.cached
        assert_values_match([third], [first[0].values])


class TestCloseCollectAndReraise:
    def test_one_bad_engine_cannot_leak_the_rest(self, service_library):
        service = make_service(
            service_library, execution="serial", cache_bytes=0
        )
        # Two warm engines (distinct group keys via cycle counts).
        service.run([request_for(0)])
        service.run([request_for(1, cycles=CYCLES + 4)])
        entries = list(service._engines.values())
        assert len(entries) == 2
        closed = []
        boom = RuntimeError("injected close failure")

        def bad_close():
            closed.append("bad")
            raise boom

        real_close = entries[1]["engine"].close
        entries[0]["engine"].close = bad_close
        entries[1]["engine"].close = lambda: (
            closed.append("good"), real_close(),
        )
        with pytest.raises(RuntimeError, match="injected close failure"):
            service.close()
        # Both engines were retired despite the first one's failure.
        assert closed == ["bad", "good"]
        assert len(service._engines) == 0
        service.close()  # idempotent afterwards


class TestStatsSurface:
    def test_describe_prints_resilience_counters(self, service_library):
        service = make_service(service_library)
        try:
            service.run([request_for(0)])
            text = service.stats().describe()
        finally:
            service.close()
        assert "retries=" in text
        assert "degraded_runs=" in text
        assert "breaker_trips=" in text
        assert "cache_corruptions=" in text

    def test_resilient_no_fault_results_match_baseline(
        self, service_library, baseline
    ):
        service = make_service(service_library)
        try:
            results = service.run([request_for(i) for i in range(4)])
        finally:
            service.close()
        assert_values_match(results, baseline)
