"""``repro-serve`` — load generator and HTTP gateway launcher.

Three modes:

* **local** (default): drive an in-process
  :class:`~repro.service.core.SimulationService` with a stream of
  randomized requests drawn from a bounded scenario pool (so the cache
  and the coalescer both get exercised: a small pool means lots of
  repeats, a large pool means lots of unique dies) and print the
  :class:`~repro.service.core.ServiceStats` snapshot.  "Open loop" in
  the load-testing sense: the generator submits its whole request
  budget regardless of completion pace, leaning on admission control
  exactly like a saturating client would.
* ``--listen HOST:PORT``: serve the HTTP gateway
  (:class:`~repro.service.server.ServiceGateway`) over a service
  running its background coalescer, until interrupted.
* ``--drive URL``: open-loop HTTP load client against a listening
  gateway — N keep-alive connections each posting their share of the
  request budget as fast as responses return; prints requests/s,
  latency percentiles overall and per outcome (cache hit or miss),
  exits non-zero if any request ultimately fails.

Examples::

    repro-serve --requests 200 --unique 25 --cycles 200
    repro-serve --requests 64 --unique 64 --cycles 120 --execution process
    repro-serve --listen 127.0.0.1:8265 --persist-dir /tmp/repro-cache
    repro-serve --drive http://127.0.0.1:8265 --requests 200 --unique 20
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.service.core import (
    EXECUTION_MODES,
    ServiceConfig,
    SimulationService,
)
from repro.service.request import SimRequest, WorkloadSpec

CORNERS = ("SS", "TT", "FS")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description=(
            "Synthetic load generator for the repro.service "
            "micro-batching simulation service."
        ),
    )
    parser.add_argument(
        "--requests", type=int, default=128,
        help="total requests to submit (default 128)",
    )
    parser.add_argument(
        "--unique", type=int, default=16,
        help="distinct scenarios in the pool (default 16)",
    )
    parser.add_argument(
        "--cycles", type=int, default=200,
        help="closed-loop system cycles per request (default 200)",
    )
    parser.add_argument(
        "--seed", type=int, default=2009,
        help="load-generator seed (default 2009)",
    )
    parser.add_argument(
        "--max-batch", type=int, default=1024,
        help="max unique dies coalesced per tick (default 1024)",
    )
    parser.add_argument(
        "--queue-depth", type=int, default=4096,
        help="admission-control queue bound (default 4096)",
    )
    parser.add_argument(
        "--cache-mb", type=float, default=32.0,
        help="scenario-cache budget in MiB, 0 disables (default 32)",
    )
    parser.add_argument(
        "--execution", choices=EXECUTION_MODES, default="direct",
        help="batch execution mode (default direct)",
    )
    parser.add_argument(
        "--workers", type=int, default=None,
        help=(
            "fleet worker count for fleet execution modes "
            "(default: CPUs available to this process)"
        ),
    )
    parser.add_argument(
        "--engine-cache", type=int, default=4,
        help=(
            "warm engines kept resident across ticks, 0 disables "
            "reuse (default 4)"
        ),
    )
    parser.add_argument(
        "--device-model", choices=("exact", "tabulated"), default="exact",
        help="engine device model for every request (default exact)",
    )
    parser.add_argument(
        "--listen", metavar="HOST:PORT", default=None,
        help=(
            "serve the HTTP gateway on this endpoint (background "
            "coalescer + /simulate, /stats, /healthz) instead of "
            "running local load"
        ),
    )
    parser.add_argument(
        "--drive", metavar="URL", default=None,
        help=(
            "drive open-loop HTTP load against a listening gateway "
            "at URL instead of running local load"
        ),
    )
    parser.add_argument(
        "--tick-interval", type=float, default=0.002,
        help=(
            "background-coalescer batching window in seconds "
            "(--listen only; default 0.002)"
        ),
    )
    parser.add_argument(
        "--persist-dir", default=None,
        help=(
            "directory of the persistent disk cache tier (--listen "
            "or local mode; default: memory-only cache)"
        ),
    )
    parser.add_argument(
        "--tenants", type=int, default=1,
        help=(
            "spread requests round-robin over this many fair-queued "
            "tenants (default 1)"
        ),
    )
    parser.add_argument(
        "--client-threads", type=int, default=8,
        help="concurrent keep-alive connections for --drive (default 8)",
    )
    parser.add_argument(
        "--timeout", type=float, default=60.0,
        help=(
            "per-request timeout in seconds (gateway result wait / "
            "drive-client socket; default 60)"
        ),
    )
    parser.add_argument(
        "--metrics-port", type=int, default=None,
        help=(
            "also expose /metrics on a scrape-only sidecar port "
            "(--listen only; default: main port only)"
        ),
    )
    parser.add_argument(
        "--trace-out", default=None,
        help=(
            "JSONL span export path; enables request tracing "
            "(--listen only; default: tracing off)"
        ),
    )
    parser.add_argument(
        "--trace-sample", type=float, default=1.0,
        help=(
            "fraction of traces to sample, decided per trace id "
            "(default 1.0; requires --trace-out)"
        ),
    )
    parser.add_argument(
        "--chaos", action="store_true",
        help=(
            "install a fault plan (one injected batch failure, one "
            "cache corruption, and — for process execution — a worker "
            "crash) and enable the resilience policy; the run must "
            "still complete and the stats show the recovery counters"
        ),
    )
    return parser


def chaos_plan(execution: str):
    """The ``--chaos`` fault plan: one transient batch failure, one
    cache-entry corruption, and (process execution only) a worker
    crash — every one recoverable, so the run completes."""
    from repro import faults

    specs = [
        faults.FaultSpec(kind="raise", scope="service", times=1),
        faults.FaultSpec(kind="cache_corrupt", times=1),
    ]
    if execution == "process":
        specs.append(
            faults.FaultSpec(
                kind="crash", shard=0, cycle=0, times=1,
                executor="process",
            )
        )
    return faults.FaultPlan(tuple(specs))


def generate_requests(
    count: int,
    unique: int,
    cycles: int,
    seed: int,
    device_model: str,
    tenants: int = 1,
) -> List[SimRequest]:
    """Draw ``count`` requests from a pool of ``unique`` scenarios,
    assigned round-robin over ``tenants`` fair-queuing buckets."""
    rng = np.random.default_rng(seed)
    pool: List[SimRequest] = []
    for index in range(unique):
        kind = ("constant", "poisson")[int(rng.integers(0, 2))]
        workload = WorkloadSpec(
            kind=kind,
            rate=float(rng.uniform(2e4, 2e5)),
            seed=int(rng.integers(0, 2**31)) if kind == "poisson" else None,
        )
        pool.append(
            SimRequest(
                cycles=cycles,
                corner=CORNERS[int(rng.integers(0, len(CORNERS)))],
                nmos_vth_shift=float(rng.normal(0.0, 0.015)),
                pmos_vth_shift=float(rng.normal(0.0, 0.015)),
                workload=workload,
                device_model=device_model,
            )
        )
    from dataclasses import replace

    return [
        replace(
            pool[int(rng.integers(0, unique))],
            tenant=f"tenant-{index % tenants}",
        )
        for index in range(count)
    ]


def serve(args: argparse.Namespace) -> int:
    """``--listen`` mode: run the HTTP gateway until interrupted."""
    from repro.service.server import ServiceGateway

    host, _, port_text = args.listen.rpartition(":")
    if not host or not port_text.isdigit():
        print(
            f"--listen expects HOST:PORT, got {args.listen!r}",
            file=sys.stderr,
        )
        return 2
    config = ServiceConfig(
        max_queue_depth=args.queue_depth,
        max_batch_dies=args.max_batch,
        cache_bytes=int(args.cache_mb * 1024 * 1024),
        execution=args.execution,
        workers=args.workers,
        engine_cache=args.engine_cache,
        tick_interval_s=args.tick_interval,
        persist_dir=args.persist_dir,
    )
    tracer = None
    if args.trace_out is not None:
        from repro.obs.export import JsonlSpanExporter
        from repro.obs.trace import Tracer

        tracer = Tracer(
            exporter=JsonlSpanExporter(args.trace_out),
            sample_rate=args.trace_sample,
        )
    service = SimulationService(config=config, tracer=tracer)
    gateway = ServiceGateway(
        service=service,
        host=host,
        port=int(port_text),
        result_timeout_s=args.timeout,
        metrics_port=args.metrics_port,
    )
    try:
        with gateway:
            bound_host, bound_port = gateway.address
            print(
                f"repro-serve: gateway listening on "
                f"http://{bound_host}:{bound_port} "
                f"(tick_interval={args.tick_interval}s, "
                f"persist_dir={args.persist_dir})",
                flush=True,
            )
            if gateway.metrics_address is not None:
                metrics_host, metrics_port = gateway.metrics_address
                print(
                    f"repro-serve: metrics on "
                    f"http://{metrics_host}:{metrics_port}/metrics",
                    flush=True,
                )
            if tracer is not None:
                print(
                    f"repro-serve: tracing to {args.trace_out} "
                    f"(sample rate {args.trace_sample})",
                    flush=True,
                )
            try:
                threading.Event().wait()
            except KeyboardInterrupt:
                print("repro-serve: shutting down", flush=True)
    finally:
        if tracer is not None and tracer.exporter is not None:
            tracer.exporter.close()
    return 0


def _post_one(
    connection,
    body: bytes,
    timeout_s: float,
) -> Dict[str, object]:
    """POST one request over a keep-alive connection, retrying 429
    (admission pushback) with growing backoff until ``timeout_s``."""
    started = time.monotonic()
    attempt = 0
    while True:
        connection.request(
            "POST", "/simulate", body,
            {"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        payload = json.loads(response.read())
        if response.status == 200:
            return payload
        if response.status != 429:
            raise RuntimeError(
                f"gateway returned {response.status}: {payload}"
            )
        if time.monotonic() - started > timeout_s:
            raise RuntimeError(
                f"admission pushback past {timeout_s}s: {payload}"
            )
        # Growing, bounded pushback wait (open-loop clients hammer the
        # admission door otherwise).
        time.sleep(min(0.1, 0.002 * (2.0 ** attempt)))
        attempt += 1


def drive(args: argparse.Namespace) -> int:
    """``--drive`` mode: open-loop HTTP load against a gateway."""
    import http.client
    from urllib.parse import urlsplit

    from repro.service.server import request_to_wire

    parts = urlsplit(args.drive)
    if parts.scheme != "http" or not parts.hostname or not parts.port:
        print(
            f"--drive expects http://HOST:PORT, got {args.drive!r}",
            file=sys.stderr,
        )
        return 2
    host, port = parts.hostname, parts.port

    def connect():
        return http.client.HTTPConnection(
            host, port, timeout=args.timeout
        )

    # Readiness poll: the gateway may still be binding (CI launches it
    # as a sibling process).
    deadline = time.monotonic() + args.timeout
    attempt = 0
    while True:
        try:
            probe = connect()
            probe.request("GET", "/healthz")
            if probe.getresponse().status == 200:
                probe.close()
                break
            probe.close()
        except OSError:
            pass
        if time.monotonic() > deadline:
            print(
                f"gateway at {args.drive} never became healthy",
                file=sys.stderr,
            )
            return 1
        time.sleep(min(0.2, 0.01 * (2.0 ** attempt)))
        attempt += 1

    bodies = [
        json.dumps(request_to_wire(request)).encode("utf-8")
        for request in generate_requests(
            args.requests, args.unique, args.cycles, args.seed,
            args.device_model, tenants=args.tenants,
        )
    ]
    threads = max(1, min(args.client_threads, len(bodies)))
    latencies: List[List[float]] = [[] for _ in range(threads)]
    cached: List[List[bool]] = [[] for _ in range(threads)]
    failures: List[Optional[str]] = [None] * threads

    def worker(index: int) -> None:
        connection = connect()
        try:
            for body in bodies[index::threads]:
                t0 = time.perf_counter()
                payload = _post_one(connection, body, args.timeout)
                latencies[index].append(time.perf_counter() - t0)
                cached[index].append(bool(payload.get("cached")))
        except Exception as exc:
            failures[index] = f"{type(exc).__name__}: {exc}"
        finally:
            connection.close()

    print(
        f"repro-serve: driving {len(bodies)} requests over "
        f"{threads} connections at {args.drive} "
        f"({args.unique} scenarios x {args.cycles} cycles, "
        f"{args.tenants} tenants)"
    )
    started = time.perf_counter()
    pool = [
        threading.Thread(target=worker, args=(index,))
        for index in range(threads)
    ]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()
    elapsed = time.perf_counter() - started
    errors = [failure for failure in failures if failure is not None]
    if errors:
        print(f"drive failed: {errors[0]}", file=sys.stderr)
        return 1
    flat = np.array([value for chunk in latencies for value in chunk])
    print(
        f"drained {flat.size} responses in {elapsed:.3f}s "
        f"({flat.size / elapsed:.1f} requests/s, "
        f"p50 {1e3 * float(np.percentile(flat, 50)):.1f}ms, "
        f"p99 {1e3 * float(np.percentile(flat, 99)):.1f}ms)"
    )
    _print_outcome_latencies(
        flat, np.array([hit for chunk in cached for hit in chunk], dtype=bool)
    )
    stats_connection = connect()
    stats_connection.request("GET", "/stats")
    stats = json.loads(stats_connection.getresponse().read())
    stats_connection.request("GET", "/metrics")
    metrics_response = stats_connection.getresponse()
    metrics_text = metrics_response.read().decode("utf-8")
    metrics_ok = metrics_response.status == 200
    stats_connection.close()
    print(
        f"gateway     batches={stats['batches']} "
        f"cache_hits={stats['cache_hits']} "
        f"persist_hits={stats['persist_hits']} "
        f"http_errors={stats['http_errors']}"
    )
    if metrics_ok:
        _print_phase_breakdown(metrics_text)
    return 0


def _print_outcome_latencies(latencies: np.ndarray, hits: np.ndarray) -> None:
    """Print client-side latency per outcome (the response's ``cached``
    field: hit or miss): count and p50, and p99 where at least ten
    samples lie beyond it."""
    print("outcome     client latency:")
    for outcome, samples in (
        ("hit", latencies[hits]),
        ("miss", latencies[~hits]),
    ):
        line = f"  {outcome:<9} {samples.size:6d} requests"
        if samples.size:
            line += f"   p50 {1e3 * float(np.percentile(samples, 50)):8.2f}ms"
            p99 = float(np.percentile(samples, 99))
            if np.count_nonzero(samples > p99) >= 10:
                line += f"   p99 {1e3 * p99:8.2f}ms"
        print(line)


def _print_phase_breakdown(metrics_text: str) -> None:
    """Print the service-side per-phase p50/p99 latency breakdown,
    rebuilt from the gateway's ``/metrics`` histogram buckets."""
    from repro.obs.metrics import (
        histogram_from_samples,
        parse_prometheus_text,
    )

    try:
        samples = parse_prometheus_text(metrics_text)
    except ValueError:
        return
    lines = []
    for phase in ("assemble", "fanout", "run", "merge", "scatter"):
        data = histogram_from_samples(
            samples, "repro_service_phase_seconds", phase=phase
        )
        if data is None or data.count == 0:
            continue
        lines.append(
            f"  {phase:<9} p50 {1e3 * data.quantile(0.5):7.2f}ms   "
            f"p99 {1e3 * data.quantile(0.99):7.2f}ms   "
            f"({data.count} batches)"
        )
    if lines:
        print("phase       p50/p99 per batch (from /metrics):")
        for line in lines:
            print(line)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.requests <= 0 or args.unique <= 0:
        print("--requests and --unique must be positive", file=sys.stderr)
        return 2
    if args.tenants <= 0 or args.client_threads <= 0:
        print(
            "--tenants and --client-threads must be positive",
            file=sys.stderr,
        )
        return 2
    if args.listen is not None and args.drive is not None:
        print("--listen and --drive are exclusive", file=sys.stderr)
        return 2
    if args.listen is not None:
        return serve(args)
    if args.drive is not None:
        return drive(args)
    resilience = None
    if args.chaos:
        from repro import faults
        from repro.service.resilience import ResiliencePolicy

        faults.install(chaos_plan(args.execution))
        resilience = ResiliencePolicy(
            backoff_base_s=0.001,
            backoff_cap_s=0.01,
            fleet_restarts=2,
            command_timeout_s=10.0,
        )
    service = SimulationService(
        config=ServiceConfig(
            max_queue_depth=args.queue_depth,
            max_batch_dies=args.max_batch,
            cache_bytes=int(args.cache_mb * 1024 * 1024),
            execution=args.execution,
            workers=args.workers,
            engine_cache=args.engine_cache,
            resilience=resilience,
            persist_dir=args.persist_dir,
        )
    )
    requests = generate_requests(
        args.requests, args.unique, args.cycles, args.seed,
        args.device_model, tenants=args.tenants,
    )
    print(
        f"repro-serve: {args.requests} requests over "
        f"{args.unique} scenarios x {args.cycles} cycles "
        f"(execution={args.execution}, device_model={args.device_model}"
        f"{', chaos' if args.chaos else ''})"
    )
    started = time.perf_counter()
    # run() is the open-loop client: it submits the whole budget,
    # draining a micro-batch whenever admission control pushes back.
    try:
        results = service.run(requests)
    finally:
        try:
            service.close()
        finally:
            if args.chaos:
                from repro import faults

                faults.clear()
    elapsed = time.perf_counter() - started
    energies = [result.values["energy_total"] for result in results]
    print(
        f"drained {len(results)} results in {elapsed:.3f}s "
        f"(mean energy {float(np.mean(energies)):.3e} J)"
    )
    print(service.stats().describe())
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
