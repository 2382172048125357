"""The gateway process of ``gateway_mix``.

Serves :class:`~repro.service.server.ServiceGateway` over a
:class:`~repro.service.core.SimulationService` with the same config as
``repro-serve --listen`` (background coalescer, memory-only cache,
direct execution), in a process of its own.  The benchmark client
drives it over a control pipe: one JSON command per line on standard
input, one JSON reply per line on standard output.

Commands: ``warm`` (simulate and cache the hot set in process),
``trace_on`` / ``trace_off`` (wrap the program's entry points; the reply
carries the per-layer totals), ``stats`` (peak RSS and cache-tier
facts) and ``close``.
"""

from __future__ import annotations

import json
import os
import sys

from common import bootstrap, peak_rss_mb


def _reply(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def _in_service_times(spans) -> dict:
    """Per request (handler thread request id): time inside the service
    (``submit`` + ``ServiceFuture.result``), keyed by outcome."""
    from tracing import END, NAME, PARENT, REQUEST, START, TAG

    inside: dict = {}
    outcome: dict = {}
    for span in spans:
        if span[PARENT] >= 0:
            continue
        name, request = span[NAME], span[REQUEST]
        if name in ("service.submit", "service.result"):
            inside[request] = inside.get(request, 0.0) + span[END] - span[START]
        elif name == "gateway.wire_encode":
            outcome[request] = span[TAG]
    times: dict = {"hit": [], "miss": []}
    for request in sorted(outcome):
        times[outcome[request]].append(inside.get(request, 0.0))
    return times


def main() -> int:
    bootstrap()
    import layers
    from repro.service.core import ServiceConfig, SimulationService
    from repro.service.server import ServiceGateway, request_from_wire
    from tracing import Tracer, layer_totals, program_targets

    service = SimulationService(config=ServiceConfig())
    gateway = ServiceGateway(service=service, host="127.0.0.1", port=0)
    gateway.start()
    tracer = None
    before = None
    try:
        _reply({"port": gateway.address[1], "pid": os.getpid()})
        for line in sys.stdin:
            command = json.loads(line)
            kind = command["cmd"]
            if kind == "warm":
                requests = [
                    request_from_wire(json.loads(body))
                    for body in command["bodies"]
                ]
                results = service.run(requests)
                _reply({"warmed": len(results)})
            elif kind == "trace_on":
                before = layers.service_counters(service.metrics_snapshot())
                tracer = Tracer()
                tracer.install(program_targets())
                _reply({"tracing": True})
            elif kind == "trace_off":
                tracer.uninstall()
                after = layers.service_counters(service.metrics_snapshot())
                totals = layer_totals(tracer.spans)
                _reply(
                    {
                        "totals": {
                            name: [t.calls, t.total_s, t.self_s, t.size]
                            for name, t in totals.items()
                        },
                        "delta": layers.counters_delta(before, after),
                        "in_service": _in_service_times(tracer.spans),
                    }
                )
                tracer = None
            elif kind == "stats":
                _reply(
                    {
                        "rss_mb": peak_rss_mb([os.getpid()]),
                        "persist_dir": service.config.persist_dir,
                        "evictions": service.cache.evictions,
                    }
                )
            elif kind == "close":
                break
    finally:
        gateway.close()
    _reply({"closed": True})
    return 0


if __name__ == "__main__":
    sys.exit(main())
