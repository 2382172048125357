"""Service resilience policy: retries, circuit breaking, degradation.

The service's answer contract is bit-identity; this module's job is to
keep that answer flowing when the execution substrate misbehaves.  A
:class:`ResiliencePolicy` arms three independent mechanisms around each
engine batch:

* **bounded retries** with seeded-jitter exponential backoff
  (:class:`BackoffSchedule` — deterministic given the policy seed, so a
  replayed chaos run sleeps the same schedule);
* a per-execution-mode **circuit breaker** (:class:`CircuitBreaker`):
  after ``breaker_threshold`` consecutive failures a mode is skipped for
  ``breaker_cooldown_s`` before a half-open probe;
* **graceful degradation** down :data:`DEGRADATION_LADDER` — a process
  fleet that keeps failing falls back to a serial fleet, which produces
  bit-identical results (the backend equivalence invariant is what
  makes degradation *safe*).

The policy also forwards fleet-level knobs: ``fleet_restarts`` and
``command_timeout_s`` become the :class:`~repro.faults.RecoveryPolicy`
of every fleet engine the service builds, so worker crash/hang recovery
happens *below* the retry loop (cheaper — only the failed shard's
rounds replay) and the retry loop only sees faults recovery could not
absorb.

Resilience is **opt-in** (``ServiceConfig.resilience=None`` keeps the
historical fail-fast behaviour, pinned by the failure-containment
tests).
"""

from __future__ import annotations

import threading
import zlib
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

DEGRADATION_LADDER: Dict[str, Tuple[str, ...]] = {
    "process": ("process", "serial"),
    "serial": ("serial",),
    "direct": ("direct",),
}
"""Fallback rungs per configured execution mode, healthiest first.
Every rung is bit-identical to every other — degradation trades
throughput and isolation, never answers."""


@dataclass(frozen=True)
class ResiliencePolicy:
    """Knobs for the retry / breaker / degradation layer."""

    max_retries: int = 2
    """Retries per execution rung after its first attempt fails."""

    backoff_base_s: float = 0.005
    """First-retry backoff before jitter; doubles per attempt."""

    backoff_cap_s: float = 0.25
    """Ceiling on the pre-jitter backoff."""

    jitter_seed: int = 2009
    """Seed of the deterministic jitter stream (``default_rng``)."""

    breaker_threshold: int = 3
    """Consecutive failures that trip a mode's circuit breaker."""

    breaker_cooldown_s: float = 30.0
    """Seconds a tripped breaker skips its mode before a half-open
    probe is allowed through."""

    fleet_restarts: int = 1
    """Worker respawn budget per fleet engine
    (:attr:`repro.faults.RecoveryPolicy.max_restarts`)."""

    command_timeout_s: Optional[float] = None
    """Hung-worker detection timeout on process-fleet command pipes
    (:attr:`repro.faults.RecoveryPolicy.command_timeout_s`); doubles as
    the per-dispatch execution timeout.  ``None`` keeps blocking
    recvs."""

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_base_s <= 0.0:
            raise ValueError("backoff_base_s must be positive")
        if self.backoff_cap_s < self.backoff_base_s:
            raise ValueError("backoff_cap_s must be >= backoff_base_s")
        if self.breaker_threshold < 1:
            raise ValueError("breaker_threshold must be >= 1")
        if self.breaker_cooldown_s < 0.0:
            raise ValueError("breaker_cooldown_s must be >= 0")
        if self.fleet_restarts < 0:
            raise ValueError("fleet_restarts must be >= 0")
        if self.command_timeout_s is not None and not (
            self.command_timeout_s > 0.0
        ):
            raise ValueError("command_timeout_s must be positive or None")

    def recovery(self):
        """The fleet :class:`~repro.faults.RecoveryPolicy` this policy
        implies."""
        from repro.faults import RecoveryPolicy

        return RecoveryPolicy(
            max_restarts=self.fleet_restarts,
            command_timeout_s=self.command_timeout_s,
        )


class BackoffSchedule:
    """Seeded-jitter exponential backoff, stateless per draw.

    ``delay(attempt, mode)`` returns ``min(cap, base * 2**attempt)``
    scaled by a jitter factor in ``[0.5, 1.0)`` derived purely from
    ``(jitter_seed, mode, attempt)``.  Because no draw consumes shared
    generator state, concurrent retry loops (the background coalescer
    and gateway handler threads share one schedule) cannot interleave
    each other's jitter: a replayed chaos run sleeps the exact same
    schedule no matter how the threads raced.
    """

    def __init__(self, policy: ResiliencePolicy) -> None:
        self.base_s = policy.backoff_base_s
        self.cap_s = policy.backoff_cap_s
        self.seed = policy.jitter_seed

    def delay(self, attempt: int, mode: str = "") -> float:
        """Return the jittered backoff for retry ``attempt`` on ``mode``.

        Deterministic in ``(seed, mode, attempt)`` alone — calling
        order, thread interleaving and prior draws are irrelevant.
        """
        bounded = min(self.cap_s, self.base_s * (2.0 ** attempt))
        rng = np.random.default_rng(
            (self.seed, zlib.crc32(mode.encode("utf-8")), int(attempt))
        )
        return bounded * (0.5 + 0.5 * float(rng.random()))


class CircuitBreaker:
    """Consecutive-failure breaker for one execution mode.

    Closed until ``threshold`` consecutive failures, then open (every
    ``allows`` call rejected) for ``cooldown_s``; after the cooldown a
    **single** half-open probe is admitted — concurrent ``allows``
    callers racing past the cooldown get exactly one ``True`` between
    them, and further probes stay rejected until that probe reports.
    Success closes the breaker, failure re-trips it immediately (the
    consecutive count restarts at the threshold boundary each trip).

    All state transitions happen under an internal lock: breakers are
    shared between the background coalescer and gateway threads.
    """

    def __init__(
        self,
        threshold: int,
        cooldown_s: float,
        on_trip: Optional[Callable[[], None]] = None,
    ) -> None:
        self.threshold = threshold
        self.cooldown_s = cooldown_s
        self.failures = 0
        self.open_until: Optional[float] = None
        self.trips = 0
        self._on_trip = on_trip
        self._probing = False
        self._lock = threading.Lock()

    def allows(self, now: float) -> bool:
        """True when the mode may be attempted at monotonic ``now``.

        While open past the cooldown, admits exactly one caller (the
        half-open probe); everyone else is rejected until the probe's
        ``record_success`` / ``record_failure`` lands.
        """
        with self._lock:
            if self.open_until is None:
                return True
            if now < self.open_until:
                return False
            if self._probing:
                return False
            self._probing = True
            return True

    def record_failure(self, now: float) -> None:
        tripped = False
        with self._lock:
            self._probing = False
            self.failures += 1
            if (
                self.failures >= self.threshold
                or self.open_until is not None
            ):
                # Threshold reached, or a half-open probe failed:
                # (re)open.
                self.open_until = now + self.cooldown_s
                self.trips += 1
                self.failures = 0
                tripped = True
        # The trip hook (metrics counter) runs outside the breaker lock
        # so an instrumented callback can never deadlock against it.
        if tripped and self._on_trip is not None:
            self._on_trip()

    def record_success(self) -> None:
        with self._lock:
            self._probing = False
            self.failures = 0
            self.open_until = None


__all__ = [
    "BackoffSchedule",
    "CircuitBreaker",
    "DEGRADATION_LADDER",
    "ResiliencePolicy",
]
