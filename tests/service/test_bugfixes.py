"""Regression pins for the PR-9 bugfix sweep.

Each test encodes one previously-shipped defect (all four failed
against the pre-fix code):

* :class:`ResultCache.put` returned early on an over-budget value but
  left any *stale existing* entry under the key in place — after a
  corrupt-discard/re-put cycle the old value kept serving;
* :class:`CircuitBreaker.allows` admitted **every** caller once the
  cooldown passed instead of a single half-open probe (and mutated
  state without a lock);
* an already-expired request in the queue dragged the coalesced
  batch's resilience deadline (``min(limits)``) into the past, making
  any transient fault fail the *whole* batch instead of just the
  expired request;
* :class:`BackoffSchedule` drew jitter from one shared ``default_rng``,
  so concurrent retry loops interleaved each other's draws and chaos
  replays slept different schedules run to run.
"""

import threading
from dataclasses import replace

import pytest

from repro.service import (
    CircuitBreaker,
    DeadlineExceeded,
    ResiliencePolicy,
    ResultCache,
    ServiceConfig,
    SimRequest,
    SimulationService,
)
from repro.service.cache import estimate_entry_bytes
from repro.service.resilience import BackoffSchedule


class TestCachePutDropsStaleEntry:
    def test_over_budget_replacement_drops_the_existing_entry(self):
        small = {"energy_total": 1.0}
        cache = ResultCache(
            max_bytes=estimate_entry_bytes("k", small) + 1
        )
        cache.put("k", small)
        assert cache.get("k") == small
        # The replacement exceeds the whole budget: it cannot be
        # stored, but the stale value must not keep serving either.
        huge = {f"field_{i}": float(i) for i in range(64)}
        assert estimate_entry_bytes("k", huge) > cache.max_bytes
        cache.put("k", huge)
        assert cache.get("k") is None
        assert len(cache) == 0
        assert cache.current_bytes == 0

    def test_refresh_of_a_fitting_entry_still_works(self):
        cache = ResultCache(max_bytes=4096)
        cache.put("k", {"a": 1.0})
        cache.put("k", {"a": 2.0})
        assert cache.get("k") == {"a": 2.0}
        assert len(cache) == 1


class TestBreakerSingleHalfOpenProbe:
    def test_concurrent_callers_get_exactly_one_probe(self):
        breaker = CircuitBreaker(threshold=1, cooldown_s=1.0)
        breaker.record_failure(now=0.0)  # trips: open until 1.0
        assert not breaker.allows(now=0.5)

        barrier = threading.Barrier(16)
        admitted = []

        def caller():
            barrier.wait()
            if breaker.allows(now=2.0):  # cooldown long passed
                admitted.append(True)

        threads = [threading.Thread(target=caller) for _ in range(16)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(admitted) == 1

    def test_probe_outcome_gates_the_next_probe(self):
        breaker = CircuitBreaker(threshold=1, cooldown_s=1.0)
        breaker.record_failure(now=0.0)
        assert breaker.allows(now=2.0)       # the half-open probe
        assert not breaker.allows(now=2.0)   # held while it runs
        breaker.record_failure(now=2.0)      # probe failed: re-trip
        assert not breaker.allows(now=2.5)   # back in cooldown
        assert breaker.allows(now=4.0)       # next probe
        breaker.record_success()             # probe succeeded: closed
        assert breaker.allows(now=4.0)
        assert breaker.allows(now=4.0)       # no probe gating when closed


class _Clock:
    """Scripted replacement for ``time.monotonic`` (explicit advance)."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestExpiredRequestDoesNotPoisonBatch:
    def test_cobatched_requests_survive_an_expired_neighbour(
        self, library, monkeypatch
    ):
        """A request whose deadline has fully elapsed by tick time must
        be shed before the batch deadline is computed.  Pre-fix, a
        request on the exact expiry boundary survived the shed pass
        (strict ``>`` against a separately-captured clock) yet its
        elapsed limit became ``min(limits)`` — so the first transient
        fault failed the *whole* coalesced batch (the retry loop fails
        fast on an already-overrun deadline) instead of just the
        expired request.

        The clock is scripted: requests are submitted at t=0, the tick
        runs exactly at the expired request's boundary (t=0.05), and
        the first engine attempt "takes" until t=1.0 before failing
        with a transient error.  Co-batched requests (one unbounded,
        one with a generous deadline) must resolve through the retry.
        """
        clock = _Clock()
        monkeypatch.setattr("repro.service.core.time.monotonic", clock)
        service = SimulationService(
            library=library,
            config=ServiceConfig(
                resilience=ResiliencePolicy(
                    max_retries=2,
                    backoff_base_s=0.001,
                    backoff_cap_s=0.002,
                    breaker_threshold=10,
                )
            ),
        )
        base = SimRequest(cycles=30)
        expired = replace(base, corner="SS", deadline_s=0.05)
        plain = replace(base, corner="TT")
        bounded = replace(base, corner="FS", deadline_s=60.0)
        future_expired = service.submit(expired)
        future_plain = service.submit(plain)
        future_bounded = service.submit(bounded)

        real_execute = SimulationService._execute_batch
        attempts = []

        def flaky(self, mode, prep):
            attempts.append(mode)
            if len(attempts) == 1:
                clock.now = 1.0  # the attempt burned wall-clock...
                raise RuntimeError("transient substrate failure")
            return real_execute(self, mode, prep)

        monkeypatch.setattr(
            SimulationService, "_execute_batch", flaky
        )
        clock.now = 0.05  # the expired request's exact boundary
        try:
            service.tick()
            with pytest.raises(DeadlineExceeded):
                future_expired.result()
            # The co-batched requests must resolve through the retry,
            # not inherit the expired request's dead deadline.
            assert future_plain.result().values["operations_total"] >= 0
            assert future_bounded.result().values["operations_total"] >= 0
            assert len(attempts) == 2
            assert service.stats().shed == 1
            assert service.stats().failed == 0
        finally:
            service.close()


class TestBackoffStatelessDeterminism:
    def test_draws_are_pure_in_seed_mode_attempt(self):
        policy = ResiliencePolicy(jitter_seed=7)
        one = BackoffSchedule(policy)
        other = BackoffSchedule(policy)
        # Same (seed, mode, attempt) -> same delay, however many draws
        # happened before on either schedule.
        assert one.delay(0, "process") == other.delay(0, "process")
        for _ in range(5):
            one.delay(3, "serial")
        assert one.delay(0, "process") == other.delay(0, "process")
        assert one.delay(1, "process") == other.delay(1, "process")
        # Distinct modes and attempts draw distinct jitter.
        assert one.delay(1, "process") != one.delay(1, "serial")
        assert one.delay(0, "serial") != one.delay(1, "serial")

    def test_concurrent_draws_match_sequential_draws(self):
        policy = ResiliencePolicy(jitter_seed=11)
        schedule = BackoffSchedule(policy)
        expected = {
            (mode, attempt): schedule.delay(attempt, mode)
            for mode in ("process", "serial", "direct")
            for attempt in range(4)
        }
        results = {}
        lock = threading.Lock()
        barrier = threading.Barrier(len(expected))

        def draw(mode, attempt):
            barrier.wait()
            value = schedule.delay(attempt, mode)
            with lock:
                results[(mode, attempt)] = value

        threads = [
            threading.Thread(target=draw, args=key) for key in expected
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert results == expected

    def test_jitter_stays_in_the_documented_band(self):
        schedule = BackoffSchedule(ResiliencePolicy())
        for attempt in range(6):
            delay = schedule.delay(attempt, "process")
            bounded = min(
                schedule.cap_s, schedule.base_s * (2.0 ** attempt)
            )
            assert 0.5 * bounded <= delay < bounded
