"""``bulk_cold``: never-seen requests through an in-process service.

One caller (closed loop, concurrency 1) issues
:meth:`SimulationService.run` over 512 fresh exact-model requests x 60
cycles per call, on a service with the default config (``direct``
execution).  Every request misses the scenario cache; the warm-engine
LRU hits, so each call is fan-out, ``reset(population=...)``, run and
merge.

The cache starts empty and is cleared between calls (off the clock)
before it would reach its byte budget, so the timed phase stays on the
no-eviction side of the cache's capacity; the run checks that no entry
was ever evicted.
"""

from __future__ import annotations

import contextlib
import os
from typing import List, Optional

import numpy as np

import inputs
import layers
from common import Stopwatch, log, mismatched_rows, peak_rss_mb, require
from tracing import Tracer, installed, layer_totals

WARMUP_CALLS = 2
TRACED_CALLS = 8
INVARIANT_CALLS = 20
ORACLE_CALLS = 4
"""Calls whose requests the oracle simulates as one engine batch."""
_TRACED_BASE = 1_000_000
"""Call indices of the traced phase (disjoint from timed calls)."""
_WARMUP_BASE = 2_000_000


class BulkCold:
    name = "bulk_cold"
    min_samples = trace_min_samples = 20

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.service = None
        self.calls: List[int] = []  # call index of every checked answer set
        self.rows: List[np.ndarray] = []
        self._call_bytes = 0

    def generate(self) -> None:
        """Requests are generated per call, between calls, off the clock
        (a run's call count is open-ended)."""

    def _requests(self, call: int, watch: Optional[Stopwatch]) -> list:
        require(
            watch is None or not watch.running,
            "inputs generated while the clock runs",
        )
        return inputs.bulk_call_requests(self.seed, call)

    def setup(self, tracer: Optional[Tracer]) -> None:
        from repro.service.core import RESULT_FIELDS, SimulationService

        self.fields = RESULT_FIELDS
        self.service = SimulationService()
        require(
            self.service.config.persist_dir is None,
            "bulk_cold must not use the disk cache tier",
        )
        for call in range(WARMUP_CALLS):
            self.service.run(self._requests(_WARMUP_BASE + call, None))
        self.service.cache.clear()

    def _call(
        self, call: int, watch: Stopwatch, tracer: Optional[Tracer] = None
    ) -> None:
        requests = self._requests(call, watch)
        cache = self.service.cache
        if cache.current_bytes + self._call_bytes > cache.max_bytes:
            cache.clear()
        before = cache.current_bytes
        scope = (
            contextlib.nullcontext() if tracer is None
            else tracer.span("bench.call", new_request=True)
        )
        with scope:
            watch.start()
            results = self.service.run(requests)
            watch.stop()
        self._call_bytes = max(self._call_bytes, cache.current_bytes - before)
        require(
            not any(result.cached for result in results),
            "a bulk_cold request hit the cache",
        )
        self.calls.append(call)
        self.rows.append(
            np.array(
                [[result.values[name] for name in self.fields]
                 for result in results],
                dtype=float,
            )
        )

    def timed(self, seconds: float, min_samples: int) -> dict:
        watch = Stopwatch()
        call = 0
        while watch.total < seconds or len(watch.samples) < min_samples:
            self._call(call, watch)
            call += 1
        self.rss_mb = peak_rss_mb([os.getpid()])
        requests = call * inputs.BULK_REQUESTS_PER_CALL
        return {
            "seconds": watch.total,
            "samples": watch.samples,
            "requests": requests,
            "die_cycles": requests * inputs.BULK_CYCLES,
        }

    def traced(self, tracer: Tracer, untraced: dict) -> dict:
        from layers import counters_add, counters_delta, service_counters

        # Traced calls alternate with untraced ones, so the tracing
        # overhead compares calls made in the same host state.
        self.service.cache.clear()
        plain, watch = Stopwatch(), Stopwatch()
        delta = None
        for k in range(TRACED_CALLS):
            self._call(_TRACED_BASE + 2 * k, plain)
            before = service_counters(self.service.metrics_snapshot())
            with installed(tracer):
                self._call(_TRACED_BASE + 2 * k + 1, watch, tracer)
            delta = counters_add(delta, counters_delta(
                before, service_counters(self.service.metrics_snapshot())
            ))
        totals = layer_totals(tracer.spans)
        engine_part = layers.engine_metrics(totals)
        requests = TRACED_CALLS * inputs.BULK_REQUESTS_PER_CALL
        overhead = watch.total / plain.total - 1.0
        return layers.assemble(
            engine_part,
            layers.per_request_metrics(totals, requests),
            layers.service_metrics(
                delta,
                engine_run_s=engine_part["engine.run_s"],
                service_call_s=totals["bench.call"].total_s,
            ),
            overhead=overhead,
        )

    def check(self) -> tuple:
        """Every answer against ``simulate_requests`` (one plain engine
        batch per chunk) over the same never-seen requests."""
        from repro.service.core import SimulationService

        stats = self.service.stats()
        require(stats.cache_lookups > 0, "the cache was never probed")
        require(
            self.service.cache.evictions == 0,
            "the scenario cache evicted entries during the run",
        )
        got = np.concatenate(self.rows)
        expected = []
        with SimulationService() as oracle:
            for first in range(0, len(self.calls), ORACLE_CALLS):
                requests = []
                for call in self.calls[first:first + ORACLE_CALLS]:
                    requests.extend(inputs.bulk_call_requests(self.seed, call))
                expected.extend(oracle.simulate_requests(requests))
        want = np.array(
            [[values[name] for name in self.fields] for values in expected],
            dtype=float,
        )
        self._invariants(INVARIANT_CALLS)
        return got.shape[0], mismatched_rows(got, want)

    def _invariants(self, count: int) -> None:
        rows = np.concatenate(
            [r for c, r in zip(self.calls, self.rows) if c < count]
        )
        column = {name: rows[:, i] for i, name in enumerate(self.fields)}
        energy = float(np.sum(column["energy_total"]))
        operations = float(np.sum(column["operations_total"]))
        log(
            f"bulk_cold invariants (first {count} calls): energy/op="
            f"{energy / operations!r} J "
            f"compensated_fraction="
            f"{float(np.mean(column['lut_correction'] != 0))!r} "
            f"mean_settle_cycle={float(np.mean(column['settle_cycle']))!r}"
        )

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None
