"""HTTP gateway: wire model, status mapping, and HTTP/in-process parity.

The pinned contract: a reducer dict served over the JSON wire is
**bit-identical** to the same request resolved in process — JSON float
round-trips are exact for binary64, and the gateway adds no arithmetic
of its own.
"""

import http.client
import json
import socket
import struct
import threading
import time
from dataclasses import replace

import pytest

from repro.service import (
    AdmissionError,
    DeadlineExceeded,
    ServiceConfig,
    ServiceGateway,
    SimRequest,
    SimulationService,
    WorkloadSpec,
    request_from_wire,
    request_to_wire,
)

WIRE_REQUESTS = (
    SimRequest(cycles=40),
    SimRequest(
        cycles=32,
        corner="SS",
        nmos_vth_shift=-0.013,
        pmos_vth_shift=0.02,
        workload=WorkloadSpec(kind="poisson", rate=1.5e5, seed=77),
        tenant="acme",
        priority=3,
        deadline_s=12.5,
        reducers=("energy_total", "mean_voltage"),
    ),
    SimRequest(
        cycles=6,
        workload=WorkloadSpec(
            kind="explicit", arrivals=(0, 1, 2, 0, 1, 3)
        ),
        schedule_codes=(1, 2, 3, 4, 5, 6),
        compensation_enabled=False,
        feedback="delay_servo",
        device_model="tabulated",
    ),
)


class TestWireModel:
    @pytest.mark.parametrize(
        "request_", WIRE_REQUESTS, ids=("default", "qos", "explicit")
    )
    def test_json_roundtrip_reconstructs_the_request(self, request_):
        wire = json.loads(json.dumps(request_to_wire(request_)))
        rebuilt = request_from_wire(wire)
        assert rebuilt == request_
        assert rebuilt.cache_key() == request_.cache_key()

    def test_unknown_fields_are_rejected(self):
        with pytest.raises(ValueError, match="unknown request fields"):
            request_from_wire({"cycles": 10, "cylces": 20})
        with pytest.raises(ValueError, match="unknown workload fields"):
            request_from_wire(
                {"cycles": 10, "workload": {"kind": "none", "rat": 1}}
            )

    def test_malformed_shapes_are_rejected(self):
        with pytest.raises(ValueError, match="JSON object"):
            request_from_wire([1, 2, 3])
        with pytest.raises(ValueError, match="workload must be"):
            request_from_wire({"cycles": 10, "workload": "constant"})
        with pytest.raises(ValueError, match="schedule_codes"):
            request_from_wire({"cycles": 10, "schedule_codes": "abc"})


@pytest.fixture(scope="module")
def gateway(library):
    service = SimulationService(
        library=library, config=ServiceConfig(tick_interval_s=0.001)
    )
    with ServiceGateway(service=service, port=0) as running:
        yield running


def _exchange(gateway, method, path, payload=None):
    host, port = gateway.address
    connection = http.client.HTTPConnection(host, port, timeout=60)
    try:
        body = None
        headers = {}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers = {"Content-Type": "application/json"}
        connection.request(method, path, body, headers)
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


class TestEndpoints:
    def test_healthz(self, gateway):
        assert _exchange(gateway, "GET", "/healthz") == (
            200,
            {"status": "ok"},
        )

    def test_stats_carries_service_and_gateway_counters(self, gateway):
        status, stats = _exchange(gateway, "GET", "/stats")
        assert status == 200
        for key in (
            "submitted", "completed", "batches", "cache_hits",
            "persist_hits", "tenants", "http_requests", "http_errors",
        ):
            assert key in stats, key

    def test_unknown_paths_404(self, gateway):
        assert _exchange(gateway, "GET", "/nope")[0] == 404
        assert _exchange(gateway, "POST", "/nope", {})[0] == 404

    def test_simulate_matches_in_process_results(self, gateway, library):
        request = replace(WIRE_REQUESTS[0], corner="FS")
        status, payload = _exchange(
            gateway, "POST", "/simulate", request_to_wire(request)
        )
        assert status == 200
        with SimulationService(library=library) as local:
            expected = local.submit(request).result()
        assert payload["key"] == expected.key
        assert payload["values"] == expected.values
        assert payload["batch_size"] >= 1

    def test_repeat_request_serves_from_cache(self, gateway):
        request = replace(WIRE_REQUESTS[0], corner="SS")
        first = _exchange(
            gateway, "POST", "/simulate", request_to_wire(request)
        )[1]
        status, second = _exchange(
            gateway, "POST", "/simulate", request_to_wire(request)
        )
        assert status == 200
        assert second["cached"] is True
        assert second["values"] == first["values"]

    def test_concurrent_clients_get_identical_answers(self, gateway):
        request = replace(WIRE_REQUESTS[0], nmos_vth_shift=0.004)
        wire = request_to_wire(request)
        payloads = []
        lock = threading.Lock()
        barrier = threading.Barrier(6)

        def client():
            barrier.wait()
            status, payload = _exchange(
                gateway, "POST", "/simulate", wire
            )
            with lock:
                payloads.append((status, payload["values"]))

        threads = [
            threading.Thread(target=client) for _ in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(status == 200 for status, _ in payloads)
        first = payloads[0][1]
        assert all(values == first for _, values in payloads)


class TestStatusMapping:
    def test_malformed_body_maps_to_400(self, gateway):
        host, port = gateway.address
        connection = http.client.HTTPConnection(host, port, timeout=60)
        try:
            connection.request(
                "POST", "/simulate", b"{not json",
                {"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            assert response.status == 400
            assert "error" in json.loads(response.read())
        finally:
            connection.close()

    def test_unknown_field_maps_to_400(self, gateway):
        status, payload = _exchange(
            gateway, "POST", "/simulate", {"cycles": 10, "oops": 1}
        )
        assert status == 400
        assert "oops" in payload["error"]

    @pytest.mark.parametrize(
        ("exc", "status"),
        (
            (AdmissionError("queue at capacity"), 429),
            (DeadlineExceeded("shed"), 504),
            (TimeoutError("still pending"), 504),
            (RuntimeError("engine exploded"), 500),
        ),
        ids=("admission", "deadline", "timeout", "failure"),
    )
    def test_service_errors_map_to_statuses(
        self, gateway, monkeypatch, exc, status
    ):
        def rejecting_submit(request):
            raise exc

        monkeypatch.setattr(
            gateway.service, "submit", rejecting_submit
        )
        got, payload = _exchange(
            gateway, "POST", "/simulate", {"cycles": 10}
        )
        assert got == status
        assert "error" in payload

    def test_closing_gateway_maps_to_503(self, gateway, monkeypatch):
        monkeypatch.setattr(gateway, "_closing", True)
        got, payload = _exchange(
            gateway, "POST", "/simulate", {"cycles": 10}
        )
        assert got == 503
        assert "shutting down" in payload["error"]


def _post_on(connection, path, payload):
    """POST one JSON body over an already-open keep-alive connection."""
    connection.request(
        "POST", path, json.dumps(payload).encode("utf-8"),
        {"Content-Type": "application/json"},
    )
    response = connection.getresponse()
    return response.status, json.loads(response.read())


class TestKeepAliveReuse:
    """Error responses must not poison a persistent connection.

    Every case drives a single HTTP/1.1 connection through an error
    exchange and then a normal ``/simulate`` on the *same* socket — if
    the error path left request-body bytes unread (or closed the
    socket), the follow-up request would fail or misparse.
    """

    def _open(self, gateway):
        host, port = gateway.address
        return http.client.HTTPConnection(host, port, timeout=60)

    def test_connection_survives_429_then_serves(
        self, gateway, monkeypatch
    ):
        connection = self._open(gateway)
        try:
            with monkeypatch.context() as patched:
                def rejecting_submit(request):
                    raise AdmissionError("queue at capacity")

                patched.setattr(
                    gateway.service, "submit", rejecting_submit
                )
                status, _ = _post_on(
                    connection, "/simulate", {"cycles": 10}
                )
                assert status == 429
            status, payload = _post_on(
                connection, "/simulate", {"cycles": 10}
            )
            assert status == 200
            assert "values" in payload
        finally:
            connection.close()

    def test_connection_survives_504_then_serves(
        self, gateway, monkeypatch
    ):
        connection = self._open(gateway)
        try:
            with monkeypatch.context() as patched:
                def shedding_submit(request):
                    raise DeadlineExceeded("shed")

                patched.setattr(
                    gateway.service, "submit", shedding_submit
                )
                status, _ = _post_on(
                    connection, "/simulate", {"cycles": 12}
                )
                assert status == 504
            status, payload = _post_on(
                connection, "/simulate", {"cycles": 12}
            )
            assert status == 200
            assert "values" in payload
        finally:
            connection.close()

    def test_connection_survives_post_404_with_body_then_serves(
        self, gateway
    ):
        # The 404 short-circuit happens before request parsing; the
        # handler must still consume the posted body or these bytes
        # would prefix the next request on this connection.
        connection = self._open(gateway)
        try:
            status, _ = _post_on(
                connection, "/nope", {"cycles": 10, "junk": "x" * 512}
            )
            assert status == 404
            status, payload = _post_on(
                connection, "/simulate", {"cycles": 14}
            )
            assert status == 200
            assert "values" in payload
        finally:
            connection.close()

    def test_connection_survives_503_then_serves(
        self, gateway, monkeypatch
    ):
        connection = self._open(gateway)
        try:
            with monkeypatch.context() as patched:
                patched.setattr(gateway, "_closing", True)
                status, _ = _post_on(
                    connection, "/simulate", {"cycles": 16}
                )
                assert status == 503
            status, payload = _post_on(
                connection, "/simulate", {"cycles": 16}
            )
            assert status == 200
            assert "values" in payload
        finally:
            connection.close()


def _disconnects(gateway):
    snapshot = gateway.service.metrics_snapshot()
    return snapshot.value("repro_gateway_disconnects_total")


class TestClientDisconnects:
    """A client that resets its connection is counted, not printed."""

    def test_reset_mid_request_is_counted_without_traceback(
        self, gateway, monkeypatch, capfd
    ):
        entered = threading.Event()
        reset = threading.Event()

        def gated_submit(request):
            # Hold the handler until the client has reset, so the
            # reply is written to a dead connection.
            entered.set()
            reset.wait(timeout=10)
            raise AdmissionError("queue at capacity")

        before = _disconnects(gateway)
        body = json.dumps({"cycles": 10}).encode("utf-8")
        with monkeypatch.context() as patched:
            patched.setattr(gateway.service, "submit", gated_submit)
            for _ in range(3):
                entered.clear()
                reset.clear()
                client = socket.create_connection(gateway.address, 10)
                client.sendall(
                    b"POST /simulate HTTP/1.1\r\n"
                    b"Content-Type: application/json\r\n"
                    + f"Content-Length: {len(body)}\r\n\r\n".encode()
                    + body
                )
                assert entered.wait(timeout=10)
                client.setsockopt(
                    socket.SOL_SOCKET, socket.SO_LINGER,
                    struct.pack("ii", 1, 0),
                )
                client.close()  # linger 0: the kernel sends RST
                reset.set()
            deadline = time.monotonic() + 10
            while (
                _disconnects(gateway) == before
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
        assert _disconnects(gateway) >= before + 1
        assert _exchange(gateway, "GET", "/healthz") == (
            200,
            {"status": "ok"},
        )
        assert "Traceback" not in capfd.readouterr().err

    def test_other_handler_errors_keep_the_default_report(
        self, gateway, capfd
    ):
        before = _disconnects(gateway)
        try:
            raise ValueError("a server fault")
        except ValueError:
            gateway._server.handle_error(None, ("127.0.0.1", 0))
        err = capfd.readouterr().err
        assert "Traceback" in err and "a server fault" in err
        assert _disconnects(gateway) == before
