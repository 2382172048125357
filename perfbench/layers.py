"""Per-layer metrics: names, units and how each is derived.

Every traced run prints every metric below.  A layer that does no work
on a workload reports 0 (the prediction table in ``README.md`` says
which layers idle where).  Times are seconds spent in the traced phase,
which is a fixed amount of work per workload, so a faster layer shows as
a smaller number.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from common import median, percentile, ratio, require
from tracing import LayerTotals

PER_LAYER = {
    # engine.kernels
    "kernel.step_s": "s",
    "kernel.self_s": "s",
    "kernel.ns_per_die_cycle": "ns",
    # engine.response_tables, engine.device_math
    "device.current_draw_s": "s",
    "device.current_draw_calls": "count",
    "device.cycle_time_s": "s",
    "device.energy_s": "s",
    "device.tdc_s": "s",
    "device.tdc_calls": "count",
    "device.tables_build_s": "s",
    "device.tables_share_of_setup": "ratio",
    # engine.trace
    "trace.record_s": "s",
    "trace.die_reducers_s": "s",
    "trace.merge_dies_s": "s",
    # engine.engine
    "engine.run_s": "s",
    "engine.run_calls": "count",
    "engine.reset_s": "s",
    "engine.build_s": "s",
    "engine.dies_per_run": "count",
    "engine.over_kernel_ratio": "ratio",
    # engine.fleet, engine.procfleet
    "fleet.run_s": "s",
    "fleet.shard_run_max_s": "s",
    "fleet.overhead_ratio": "ratio",
    "fleet.roundtrip_wait_s": "s",
    "fleet.shard_imbalance": "ratio",
    "fleet.reset_s": "s",
    "fleet.build_s": "s",
    # workloads.batch
    "workloads.arrival_row_s": "s",
    "workloads.arrival_row_calls": "count",
    # library
    "library.technology_at_s": "s",
    "library.technology_at_calls": "count",
    # service.request, service.canonical
    "service.cache_key_s": "s",
    "service.cache_key_per_request": "ratio",
    "service.group_key_per_request": "ratio",
    # service.cache
    "cache.get_s": "s",
    "cache.put_s": "s",
    "cache.hit_ratio": "ratio",
    # service.core
    "service.submit_s": "s",
    "service.phase.assemble_s": "s",
    "service.phase.fanout_s": "s",
    "service.phase.run_s": "s",
    "service.phase.merge_s": "s",
    "service.phase.scatter_s": "s",
    "service.queue_wait_p50_ms": "ms",
    "service.queue_wait_mean_ms": "ms",
    "service.batches": "count",
    "service.coalesce_factor": "ratio",
    "service.engine_reuse_ratio": "ratio",
    "service.outside_engine_ratio": "ratio",
    # service.server
    "gateway.hit_latency_p50_ms": "ms",
    "gateway.miss_latency_p50_ms": "ms",
    "gateway.miss_latency_p90_ms": "ms",
    "gateway.latency_p99_ms": "ms",
    "gateway.in_service_hit_p50_ms": "ms",
    "gateway.http_overhead_hit_p50_ms": "ms",
    "gateway.client_over_service_ratio": "ratio",
    "gateway.wire_decode_s": "s",
    "gateway.wire_encode_s": "s",
    # the benchmark's own instrument
    "tracing.overhead_ratio": "ratio",
}

PHASES = ("assemble", "fanout", "run", "merge", "scatter")

_IDLE = LayerTotals()


def _get(layers: Dict[str, LayerTotals], name: str) -> LayerTotals:
    return layers.get(name, _IDLE)


def engine_metrics(layers: Dict[str, LayerTotals]) -> Dict[str, float]:
    """Kernel, device, telemetry and engine layers from one traced phase."""
    step = _get(layers, "kernel.step")
    run = _get(layers, "engine.run")
    tdc = _get(layers, "device.tdc")
    energy = (
        _get(layers, "device.dynamic_energy").total_s
        + _get(layers, "device.leakage_current").total_s
    )
    return {
        "kernel.step_s": step.total_s,
        "kernel.self_s": step.self_s,
        "kernel.ns_per_die_cycle": 1e9 * ratio(step.total_s, step.size),
        "device.current_draw_s": _get(layers, "device.current_draw").total_s,
        "device.current_draw_calls": _get(layers, "device.current_draw").calls,
        "device.cycle_time_s": _get(layers, "device.cycle_time").total_s,
        "device.energy_s": energy,
        "device.tdc_s": tdc.total_s,
        "device.tdc_calls": tdc.calls,
        "trace.record_s": _get(layers, "trace.record").total_s,
        "trace.die_reducers_s": _get(layers, "trace.die_reducers").total_s,
        "trace.merge_dies_s": _get(layers, "trace.merge_dies").total_s,
        "engine.run_s": run.total_s,
        "engine.run_calls": run.calls,
        "engine.reset_s": _get(layers, "engine.reset").total_s,
        "engine.build_s": _get(layers, "engine.build").total_s,
        "engine.dies_per_run": ratio(run.size, run.calls),
        "engine.over_kernel_ratio": ratio(run.total_s, step.total_s),
        "workloads.arrival_row_s": _get(layers, "workloads.arrival_row").total_s,
        "workloads.arrival_row_calls": _get(layers, "workloads.arrival_row").calls,
        "library.technology_at_s": _get(layers, "library.technology_at").total_s,
        "library.technology_at_calls": _get(layers, "library.technology_at").calls,
        "service.cache_key_s": _get(layers, "service.cache_key").total_s,
        "cache.get_s": _get(layers, "cache.get").total_s,
        "cache.put_s": _get(layers, "cache.put").total_s,
        "service.submit_s": _get(layers, "service.submit").total_s,
        "gateway.wire_decode_s": _get(layers, "gateway.wire_decode").total_s,
        "gateway.wire_encode_s": _get(layers, "gateway.wire_encode").total_s,
    }


def per_request_metrics(
    layers: Dict[str, LayerTotals], requests: int
) -> Dict[str, float]:
    """Key hashing counts per request submitted in the traced phase."""
    return {
        "service.cache_key_per_request": ratio(
            _get(layers, "service.cache_key").calls, requests
        ),
        "service.group_key_per_request": ratio(
            _get(layers, "service.group_key").calls, requests
        ),
    }


def fleet_metrics(
    layers: Dict[str, LayerTotals], timings: Sequence[dict]
) -> Dict[str, float]:
    """Fleet layer: parent-side spans plus ``FleetEngine.last_timings``
    of each traced run (worker-reported shard runs and round-trips)."""
    slowest = 0.0
    waited = 0.0
    imbalance = []
    for timing in timings:
        runs = timing["shard_run_s"]
        trips = timing["worker_roundtrip_s"]
        require(runs and trips, "fleet run reported no shard timings")
        slowest += max(runs.values())
        waited += max(trips.values()) - max(runs.values())
        imbalance.append(
            max(runs.values()) * len(runs) / sum(runs.values())
        )
    run_s = _get(layers, "fleet.run").total_s
    return {
        "fleet.run_s": run_s,
        "fleet.shard_run_max_s": slowest,
        "fleet.overhead_ratio": ratio(run_s, slowest),
        "fleet.roundtrip_wait_s": waited,
        "fleet.shard_imbalance": ratio(sum(imbalance), len(imbalance)),
        "fleet.reset_s": _get(layers, "fleet.reset").total_s,
    }


# ----------------------------------------------------------------------
# Service telemetry read from SimulationService.metrics_snapshot()
# ----------------------------------------------------------------------
def service_counters(snapshot) -> dict:
    """The service counters and histograms the per-layer metrics use."""
    value = snapshot.value
    counters = {
        "batches": value("repro_service_batches_total"),
        "coalesced": value("repro_service_coalesced_requests_total"),
        "builds": value(
            "repro_service_engine_acquisitions_total", kind="build"
        ),
        "reuses": value(
            "repro_service_engine_acquisitions_total", kind="reuse"
        ),
        "hits": value("repro_cache_hits_total", tier="memory"),
        "lookups": value("repro_cache_lookups_total", tier="memory"),
    }
    for phase in PHASES:
        data = snapshot.histogram("repro_service_phase_seconds", phase=phase)
        counters[f"phase.{phase}"] = 0.0 if data is None else data.sum
    wait = snapshot.histogram("repro_service_queue_wait_seconds")
    counters["queue_wait"] = (
        [list(bucket) for bucket in wait.buckets], wait.sum, wait.count
    )
    return counters


def counters_delta(before: dict, after: dict) -> dict:
    delta = {
        name: after[name] - before[name]
        for name in after
        if name != "queue_wait"
    }
    (buckets_a, sum_a, count_a) = after["queue_wait"]
    (buckets_b, sum_b, count_b) = before["queue_wait"]
    delta["queue_wait"] = (
        [
            [bound, cumulative - old]
            for (bound, cumulative), (_, old) in zip(buckets_a, buckets_b)
        ],
        sum_a - sum_b,
        count_a - count_b,
    )
    return delta


def counters_add(total: Optional[dict], delta: dict) -> dict:
    """Sum of two counter deltas (``None`` is the empty sum)."""
    if total is None:
        return delta
    merged = {
        name: total[name] + delta[name]
        for name in delta
        if name != "queue_wait"
    }
    (buckets_t, sum_t, count_t) = total["queue_wait"]
    (buckets_d, sum_d, count_d) = delta["queue_wait"]
    merged["queue_wait"] = (
        [
            [bound, a + b]
            for (bound, a), (_, b) in zip(buckets_t, buckets_d)
        ],
        sum_t + sum_d,
        count_t + count_d,
    )
    return merged


def service_metrics(
    delta: dict,
    engine_run_s: float,
    service_call_s: float,
) -> Dict[str, float]:
    """Service and cache layers from a counter delta over the traced
    phase.  ``service_call_s`` is the time callers spent inside the
    service; its ratio to ``BatchEngine.run`` time is the ladder step
    "service call ÷ engine run"."""
    from repro.obs.metrics import HistogramData

    buckets, wait_sum, wait_count = delta["queue_wait"]
    wait_p50 = 0.0
    if wait_count:
        require(
            wait_count >= 20,
            f"queue-wait p50 over {wait_count} samples (need 20)",
        )
        wait = HistogramData(
            tuple((bound, int(count)) for bound, count in buckets),
            wait_sum,
            int(wait_count),
        )
        wait_p50 = 1e3 * wait.quantile(0.5)
    metrics = {
        f"service.phase.{phase}_s": delta[f"phase.{phase}"]
        for phase in PHASES
    }
    metrics.update(
        {
            "service.queue_wait_p50_ms": wait_p50,
            "service.queue_wait_mean_ms": 1e3 * ratio(wait_sum, wait_count),
            "service.batches": delta["batches"],
            "service.coalesce_factor": ratio(
                delta["coalesced"], delta["batches"]
            ),
            "service.engine_reuse_ratio": ratio(
                delta["reuses"], delta["builds"] + delta["reuses"]
            ),
            "service.outside_engine_ratio": ratio(
                service_call_s, engine_run_s
            ),
            "cache.hit_ratio": ratio(delta["hits"], delta["lookups"]),
        }
    )
    return metrics


def gateway_metrics(
    hit_latencies: Sequence[float],
    miss_latencies: Sequence[float],
    all_latencies: Sequence[float],
    in_service_hits: Sequence[float],
) -> Dict[str, float]:
    """Gateway layer: client-observed latency by outcome (untraced
    phase) against in-service time of hits (traced phase)."""
    require(len(hit_latencies) >= 20, "too few hits for a hit p50")
    require(len(miss_latencies) >= 20, "too few misses for a miss p50")
    require(len(in_service_hits) >= 20, "too few traced hits for a p50")
    hit_p50 = 1e3 * median(hit_latencies)
    in_service = 1e3 * median(in_service_hits)
    return {
        "gateway.hit_latency_p50_ms": hit_p50,
        "gateway.miss_latency_p50_ms": 1e3 * median(miss_latencies),
        "gateway.miss_latency_p90_ms": 1e3 * percentile(
            miss_latencies, 90, "gateway miss latency"
        ),
        "gateway.latency_p99_ms": 1e3 * percentile(
            all_latencies, 99, "gateway latency"
        ),
        "gateway.in_service_hit_p50_ms": in_service,
        "gateway.http_overhead_hit_p50_ms": hit_p50 - in_service,
        "gateway.client_over_service_ratio": ratio(hit_p50, in_service),
    }


def assemble(*parts: Dict[str, float], overhead: float) -> dict:
    """Merge metric parts over the full list (idle layers read 0)."""
    merged = {name: 0.0 for name in PER_LAYER}
    for part in parts:
        for name, value in part.items():
            require(name in PER_LAYER, f"unknown per-layer metric {name}")
            merged[name] = float(value)
    merged["tracing.overhead_ratio"] = float(overhead)
    return {name: (merged[name], PER_LAYER[name]) for name in PER_LAYER}
