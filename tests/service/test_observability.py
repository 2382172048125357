"""Observability is zero-perturbation: metrics/tracing never change answers.

Four pinned contracts:

1. **differential fuzz** — the same request set resolved with tracing
   off and with tracing on (sampling 1.0, every span exported) yields
   bit-identical reducer values, across executor × device_model;
2. **atomic /stats** — hammering ``/stats`` during live traffic never
   observes a torn cut: ``cache_hits + cache_misses == cache_lookups``
   and ``submitted == completed + shed + failed + queue_depth +
   in_flight`` hold in every snapshot;
3. **/metrics** — valid Prometheus text exposition with the core series
   present and monotone across scrapes, and ARCHITECTURE.md's series
   table naming exactly the registered series, kinds and label keys;
4. **trace trees** — a traced HTTP request's JSONL spans reconstruct
   the full submit → queue → batch → engine → scatter → HTTP tree under
   the wire-propagated ``X-Repro-Trace`` id.
"""

import http.client
import json
import math
import re
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.obs import (
    InMemorySpanExporter,
    JsonlSpanExporter,
    Tracer,
    histogram_from_samples,
    parse_prometheus_text,
)
from repro.service import (
    ServiceConfig,
    ServiceGateway,
    SimRequest,
    SimulationService,
    WorkloadSpec,
    request_to_wire,
)
from repro.service.server import TRACE_HEADER
from repro.testing import fuzz_seeds, replay_message

SEEDS = fuzz_seeds()

CORNERS = ("SS", "TT", "FS")

EXECUTION_COMBOS = (
    {"execution": "direct", "device_model": "exact"},
    {"execution": "direct", "device_model": "tabulated"},
    {"execution": "serial", "device_model": "exact"},
    {"execution": "serial", "device_model": "tabulated"},
    {"execution": "process", "device_model": "exact"},
    {"execution": "process", "device_model": "tabulated"},
)
"""Executor × device_model matrix, cycled per seed so the default seed
budget covers every combination."""


def draw_requests(seed, device_model):
    rng = np.random.default_rng(seed)
    dies = int(rng.integers(2, 6))
    cycles = int(rng.integers(20, 41))
    requests = []
    for _ in range(dies):
        kind = ("constant", "poisson", "none")[int(rng.integers(0, 3))]
        if kind == "poisson":
            workload = WorkloadSpec(
                kind="poisson",
                rate=float(rng.uniform(2e4, 2e5)),
                seed=int(rng.integers(0, 2**31)),
            )
        elif kind == "constant":
            workload = WorkloadSpec(
                kind="constant", rate=float(rng.uniform(2e4, 2e5))
            )
        else:
            workload = WorkloadSpec(kind="none")
        requests.append(
            SimRequest(
                cycles=cycles,
                corner=CORNERS[int(rng.integers(0, len(CORNERS)))],
                nmos_vth_shift=float(rng.normal(0.0, 0.02)),
                pmos_vth_shift=float(rng.normal(0.0, 0.02)),
                workload=workload,
                initial_correction=int(rng.integers(-2, 3)),
                device_model=device_model,
            )
        )
    # Duplicate exercises dedup scatter and the cache-hit submit path.
    requests.append(requests[int(rng.integers(0, dies))])
    return requests


def assert_values_identical(actual, expected, message):
    assert set(actual) == set(expected), message
    for name, value in expected.items():
        got = actual[name]
        if isinstance(value, float) and math.isnan(value):
            assert isinstance(got, float) and math.isnan(got), (
                f"{name}: {got!r} != NaN {message}"
            )
        else:
            assert got == value, f"{name}: {got!r} != {value!r} {message}"


class TestTracingZeroImpact:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_results_bit_identical_with_tracing_on(self, seed, library):
        message = replay_message(
            seed, "tests/service/test_observability.py"
        )
        combo = EXECUTION_COMBOS[seed % len(EXECUTION_COMBOS)]
        requests = draw_requests(seed, combo["device_model"])
        config = ServiceConfig(
            execution=combo["execution"], workers=2, max_batch_dies=3
        )

        with SimulationService(library=library, config=config) as plain:
            reference = [
                result.values for result in plain.run(requests)
            ]

        exporter = InMemorySpanExporter()
        traced_service = SimulationService(
            library=library,
            config=config,
            tracer=Tracer(exporter=exporter, sample_rate=1.0),
        )
        with traced_service:
            traced = [
                result.values
                for result in traced_service.run(requests)
            ]
        for index, expected in enumerate(reference):
            assert_values_identical(
                traced[index],
                expected,
                f"(combo {combo}, request {index}) {message}",
            )
        # Tracing actually happened — this was a differential test, not
        # a comparison of two untraced runs.
        names = {record["name"] for record in exporter.records()}
        assert "service.submit" in names, message
        assert "service.batch" in names, message

    def test_sampled_out_requests_also_identical(self, library):
        requests = draw_requests(2009, "exact")
        config = ServiceConfig(max_batch_dies=2)
        with SimulationService(library=library, config=config) as plain:
            reference = [r.values for r in plain.run(requests)]
        exporter = InMemorySpanExporter()
        sampled_out = SimulationService(
            library=library,
            config=config,
            tracer=Tracer(exporter=exporter, sample_rate=0.0),
        )
        with sampled_out:
            traced = [r.values for r in sampled_out.run(requests)]
        for index, expected in enumerate(reference):
            assert_values_identical(traced[index], expected, "(rate 0)")
        assert exporter.records() == []


class TestStatsAtomicity:
    def test_stats_invariants_hold_under_live_traffic(self, library):
        service = SimulationService(
            library=library,
            config=ServiceConfig(tick_interval_s=0.001, max_batch_dies=2),
        )
        with ServiceGateway(service=service, port=0) as gateway:
            host, port = gateway.address
            stop = threading.Event()
            failures = []

            def load():
                rng = np.random.default_rng(7)
                connection = http.client.HTTPConnection(
                    host, port, timeout=30
                )
                try:
                    while not stop.is_set():
                        request = SimRequest(
                            cycles=20,
                            nmos_vth_shift=float(rng.normal(0.0, 0.02)),
                        )
                        connection.request(
                            "POST", "/simulate",
                            json.dumps(
                                request_to_wire(request)
                            ).encode("utf-8"),
                            {"Content-Type": "application/json"},
                        )
                        response = connection.getresponse()
                        response.read()
                        if response.status not in (200, 429):
                            failures.append(response.status)
                            return
                finally:
                    connection.close()

            workers = [
                threading.Thread(target=load) for _ in range(3)
            ]
            for worker in workers:
                worker.start()
            try:
                connection = http.client.HTTPConnection(
                    host, port, timeout=30
                )
                deadline = time.monotonic() + 3.0
                snapshots = 0
                while time.monotonic() < deadline:
                    connection.request("GET", "/stats")
                    response = connection.getresponse()
                    assert response.status == 200
                    stats = json.loads(response.read())
                    assert (
                        stats["cache_hits"] + stats["cache_misses"]
                        == stats["cache_lookups"]
                    ), stats
                    assert stats["submitted"] == (
                        stats["completed"]
                        + stats["shed"]
                        + stats["failed"]
                        + stats["queue_depth"]
                        + stats["in_flight"]
                    ), stats
                    snapshots += 1
                connection.close()
            finally:
                stop.set()
                for worker in workers:
                    worker.join()
            assert not failures
            assert snapshots > 50


class TestMetricsEndpoint:
    def test_exposition_parses_and_core_series_are_monotone(
        self, library
    ):
        service = SimulationService(
            library=library,
            config=ServiceConfig(tick_interval_s=0.001),
        )
        with ServiceGateway(service=service, port=0) as gateway:
            host, port = gateway.address
            connection = http.client.HTTPConnection(
                host, port, timeout=30
            )
            try:

                def scrape():
                    connection.request("GET", "/metrics")
                    response = connection.getresponse()
                    assert response.status == 200
                    assert response.headers["Content-Type"].startswith(
                        "text/plain"
                    )
                    return parse_prometheus_text(
                        response.read().decode("utf-8")
                    )

                def post(request):
                    connection.request(
                        "POST", "/simulate",
                        json.dumps(
                            request_to_wire(request)
                        ).encode("utf-8"),
                        {"Content-Type": "application/json"},
                    )
                    response = connection.getresponse()
                    assert response.status == 200
                    response.read()

                before = scrape()
                for shift in (0.001, 0.002, 0.001):
                    post(SimRequest(cycles=20, nmos_vth_shift=shift))
                after = scrape()
                for name, labels in (
                    ("repro_service_requests_total",
                     {"outcome": "submitted"}),
                    ("repro_service_requests_total",
                     {"outcome": "completed"}),
                    ("repro_service_batches_total", {}),
                    ("repro_cache_lookups_total", {"tier": "memory"}),
                    ("repro_gateway_http_requests_total", {}),
                ):
                    key = (
                        name,
                        tuple(sorted(labels.items())),
                    )
                    assert key in after, name
                    assert after[key] >= before.get(key, 0.0), name
                assert after[(
                    "repro_service_requests_total",
                    (("outcome", "submitted"),),
                )] >= 3.0
                # Phase histograms rebuilt from buckets are coherent.
                run_phase = histogram_from_samples(
                    after, "repro_service_phase_seconds", phase="run"
                )
                assert run_phase is not None
                assert run_phase.count >= 1
                assert run_phase.sum > 0.0
            finally:
                connection.close()


ARCHITECTURE = Path(__file__).resolve().parents[2] / "ARCHITECTURE.md"


def documented_series():
    """``{name: (kind, label keys)}`` from ARCHITECTURE.md's table.

    Each row names one series in full in its first cell; the label
    cell lists the label keys in backticks (values follow unquoted).
    """
    lines = ARCHITECTURE.read_text(encoding="utf-8").splitlines()
    start = lines.index("| series | kind | labels |") + 2
    series = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        name_cell, kind, labels = (
            cell.strip() for cell in line.strip().strip("|").split("|")
        )
        name = re.fullmatch(r"`(repro_[a-z_]+)`", name_cell)
        assert name is not None, f"not one full series name: {line}"
        assert name.group(1) not in series, f"listed twice: {line}"
        series[name.group(1)] = (
            kind, tuple(sorted(re.findall(r"`(\w+)`", labels)))
        )
    return series


class TestMetricsDocs:
    def test_architecture_table_matches_registry(self, library, tmp_path):
        # A disk tier registers the persist series; the gateway adds
        # its own families to the service's registry.
        service = SimulationService(
            library=library,
            config=ServiceConfig(persist_dir=str(tmp_path)),
        )
        try:
            gateway = ServiceGateway(service=service, port=0)
            registered = {
                family.name: (family.kind, tuple(sorted(family.labelnames)))
                for family in gateway.service.metrics_snapshot().families
            }
        finally:
            service.close()
        documented = documented_series()
        assert sorted(set(documented) - set(registered)) == []
        assert sorted(set(registered) - set(documented)) == []
        for name, entry in registered.items():
            assert documented[name] == entry, name


class TestTraceTreeOverHttp:
    def _wait_for_trace(self, path, trace_id, want_names, timeout_s=5.0):
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if path.exists():
                spans = [
                    json.loads(line)
                    for line in path.read_text().splitlines()
                ]
                matched = [
                    s for s in spans if s["trace_id"] == trace_id
                ]
                if want_names <= {s["name"] for s in matched}:
                    return matched
            time.sleep(0.01)
        raise AssertionError(
            f"trace {trace_id} incomplete after {timeout_s}s"
        )

    def test_jsonl_spans_reconstruct_the_full_tree(
        self, library, tmp_path
    ):
        trace_path = tmp_path / "spans.jsonl"
        exporter = JsonlSpanExporter(trace_path)
        service = SimulationService(
            library=library,
            config=ServiceConfig(
                tick_interval_s=0.001, execution="serial", workers=2
            ),
            tracer=Tracer(exporter=exporter, sample_rate=1.0),
        )
        trace_id = "feedbeef" * 4
        want = {
            "http.request", "http.write", "service.submit",
            "service.queue", "service.batch", "service.assemble",
            "engine.fanout", "engine.run", "service.merge",
            "service.scatter",
        }
        try:
            with ServiceGateway(service=service, port=0) as gateway:
                host, port = gateway.address
                connection = http.client.HTTPConnection(
                    host, port, timeout=30
                )
                try:
                    connection.request(
                        "POST", "/simulate",
                        json.dumps(
                            request_to_wire(SimRequest(cycles=24))
                        ).encode("utf-8"),
                        {
                            "Content-Type": "application/json",
                            TRACE_HEADER: trace_id,
                        },
                    )
                    response = connection.getresponse()
                    assert response.status == 200
                    # The wire trace id is echoed back to the client.
                    assert response.headers[TRACE_HEADER] == trace_id
                    response.read()
                finally:
                    connection.close()
                spans = self._wait_for_trace(
                    trace_path, trace_id, want
                )
        finally:
            exporter.close()

        by_id = {span["span_id"]: span for span in spans}
        names = {span["name"] for span in spans}
        assert want <= names

        def parent_name(span):
            parent = by_id.get(span["parent_id"])
            return None if parent is None else parent["name"]

        tree = {
            span["name"]: parent_name(span) for span in spans
        }
        assert tree["http.request"] is None
        assert tree["http.write"] == "http.request"
        assert tree["service.submit"] == "http.request"
        assert tree["service.queue"] == "service.submit"
        assert tree["service.batch"] == "service.queue"
        for phase in (
            "service.assemble", "engine.fanout", "engine.run",
            "service.merge", "service.scatter",
        ):
            assert tree[phase] == "service.batch", phase
        # Fleet execution attributes shard children under engine.run.
        shard_spans = [
            span for span in spans if span["name"] == "engine.shard"
        ]
        for shard in shard_spans:
            assert parent_name(shard) == "engine.run"
            assert shard["attrs"]["synthetic"] is True
        # Every span is well-formed: non-negative duration, same trace.
        for span in spans:
            assert span["trace_id"] == trace_id
            assert span["duration_s"] >= 0.0
