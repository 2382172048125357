"""``gateway_mix``: hot-set hits and fresh misses over keep-alive HTTP.

The gateway runs in its own process (``gateway_proc.py``), as under
``repro-serve --listen``; a hot set of 256 scenarios is simulated and
cached there in setup.  One client process holds 2 keep-alive
connections, each a closed loop (send, read the full response, send the
next).  Requests follow the seed's plan: each block of ten holds
exactly one fresh scenario (a miss) and nine hot-set scenarios (hits),
all exact-model at 100 cycles.
"""

from __future__ import annotations

import http.client
import json
import os
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional

import inputs
import layers
from common import ROOT, Stopwatch, log, require, values_match
from tracing import LayerTotals

CONNECTIONS = 2


class _Phase:
    """Per-request records of one closed-loop phase."""

    def __init__(self, plan: inputs.GatewayPlan) -> None:
        self.plan = plan
        self.latency: List[float] = []
        self.index: List[int] = []
        self.status: List[int] = []
        self.body: List[bytes] = []
        self.seconds = 0.0


class GatewayMix:
    name = "gateway_mix"
    min_samples = 20
    trace_min_samples = 1000
    """A traced run's untraced phase holds enough requests for a p99."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.process: Optional[subprocess.Popen] = None
        self.connections: List[http.client.HTTPConnection] = []
        self.phases: List[_Phase] = []

    def generate(self) -> None:
        self.inputs = inputs.gateway_inputs(self.seed)

    # -- control pipe ----------------------------------------------------
    def _command(self, payload: dict) -> dict:
        self.process.stdin.write(json.dumps(payload) + "\n")
        self.process.stdin.flush()
        line = self.process.stdout.readline()
        require(bool(line), f"gateway process died on {payload['cmd']}")
        return json.loads(line)

    def setup(self, tracer) -> None:
        self.process = subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "gateway_proc.py")],
            cwd=str(ROOT),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        ready = self.process.stdout.readline()
        require(bool(ready), "gateway process failed to start")
        ready = json.loads(ready)
        require(
            ready["pid"] != os.getpid() and ready["pid"] == self.process.pid,
            "the client must not share a process with the gateway",
        )
        warmed = self._command(
            {"cmd": "warm",
             "bodies": [body.decode("utf-8") for body in self.inputs["hot"]]}
        )
        require(warmed["warmed"] == inputs.GATEWAY_HOT_SET, "hot set not warmed")
        self.connections = [
            http.client.HTTPConnection("127.0.0.1", ready["port"], timeout=120)
            for _ in range(CONNECTIONS)
        ]
        self._drive(self.inputs["warmup"], seconds=None, min_requests=None)

    # -- closed-loop load --------------------------------------------------
    def _drive(self, plan, seconds: Optional[float],
               min_requests: Optional[int]) -> _Phase:
        """Run the plan over the connections, each a closed loop.

        ``seconds=None`` sends the whole plan; otherwise the phase stops
        taking new requests once ``seconds`` have passed and at least
        ``min_requests`` were sent (or the plan runs out).
        """
        require(len(self.connections) <= CONNECTIONS, "too many connections")
        phase = _Phase(plan)
        lock = threading.Lock()
        cursor = [0]
        errors: List[str] = []
        watch = Stopwatch()

        def take() -> int:
            with lock:
                index = cursor[0]
                if index >= len(plan):
                    return -1
                if seconds is not None and index >= min_requests and (
                    time.perf_counter() - started >= seconds
                ):
                    return -1
                cursor[0] = index + 1
                return index

        def loop(connection: http.client.HTTPConnection) -> None:
            try:
                while True:
                    index = take()
                    if index < 0:
                        return
                    body = plan.body(index)
                    t0 = time.perf_counter()
                    connection.request(
                        "POST", "/simulate", body,
                        {"Content-Type": "application/json"},
                    )
                    response = connection.getresponse()
                    payload = response.read()
                    elapsed = time.perf_counter() - t0
                    with lock:
                        phase.latency.append(elapsed)
                        phase.index.append(index)
                        phase.status.append(response.status)
                        phase.body.append(payload)
            except Exception as exc:  # the run reports, never hangs
                errors.append(f"{type(exc).__name__}: {exc}")

        threads = [
            threading.Thread(target=loop, args=(connection,))
            for connection in self.connections
        ]
        watch.start()
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        phase.seconds = watch.stop()
        require(not errors, f"gateway client failed: {errors[:1]}")
        self.phases.append(phase)
        return phase

    def _outcomes(self, phase: _Phase) -> List[bool]:
        """Whether each answered request was served from the cache;
        checks the realised hit/miss sequence against the plan."""
        cached = []
        for index, status, body in zip(phase.index, phase.status, phase.body):
            hit = status == 200 and json.loads(body)["cached"]
            require(
                status != 200 or bool(phase.plan.hit[index]) == hit,
                f"request {index} planned as "
                f"{'hit' if phase.plan.hit[index] else 'miss'} was served "
                f"as {'hit' if hit else 'miss'}",
            )
            cached.append(hit)
        misses = len(cached) - sum(cached)
        planned = len(cached) / inputs.GATEWAY_BLOCK
        require(
            abs(misses - planned) <= 1,
            f"realised misses {misses} differ from the plan's {planned:.1f}",
        )
        return cached

    def timed(self, seconds: float, min_samples: int) -> dict:
        phase = self._drive(self.inputs["timed"], seconds, min_samples)
        cached = self._outcomes(phase)
        misses = len(cached) - sum(cached)
        stats = self._command({"cmd": "stats"})
        require(stats["persist_dir"] is None, "the disk cache tier is in use")
        require(stats["evictions"] == 0, "the cache evicted hot entries")
        self.rss_mb = stats["rss_mb"]
        return {
            "seconds": phase.seconds,
            "samples": phase.latency,
            "requests": len(phase.latency),
            "die_cycles": misses * inputs.GATEWAY_CYCLES,
            "cached": cached,
        }

    def traced(self, tracer, untraced: dict) -> dict:
        self._command({"cmd": "trace_on"})
        phase = self._drive(self.inputs["traced"], seconds=None,
                            min_requests=None)
        self._outcomes(phase)
        report = self._command({"cmd": "trace_off"})
        totals: Dict[str, LayerTotals] = {}
        for name, (calls, total_s, self_s, size) in report["totals"].items():
            entry = totals[name] = LayerTotals()
            entry.calls, entry.total_s = calls, total_s
            entry.self_s, entry.size = self_s, size
        engine_part = layers.engine_metrics(totals)
        in_service = report["in_service"]
        service_call_s = sum(in_service["hit"]) + sum(in_service["miss"])
        hits = [t for t, c in zip(untraced["samples"], untraced["cached"]) if c]
        misses = [
            t for t, c in zip(untraced["samples"], untraced["cached"]) if not c
        ]
        untraced_rate = untraced["requests"] / untraced["seconds"]
        traced_rate = len(phase.latency) / phase.seconds
        return layers.assemble(
            engine_part,
            layers.per_request_metrics(totals, len(phase.latency)),
            layers.service_metrics(
                report["delta"],
                engine_run_s=engine_part["engine.run_s"],
                service_call_s=service_call_s,
            ),
            layers.gateway_metrics(
                hits, misses, untraced["samples"], in_service["hit"]
            ),
            overhead=untraced_rate / traced_rate - 1.0,
        )

    def check(self) -> tuple:
        """Every HTTP answer against ``simulate_requests`` over the
        unique scenarios sent (hot set and every fresh miss)."""
        from repro.service.core import SimulationService
        from repro.service.server import request_from_wire

        answers = []
        for phase in self.phases:
            for index, status, body in zip(
                phase.index, phase.status, phase.body
            ):
                answers.append((phase.plan.body(index), status, body))
        unique = sorted(
            {request for request, _, _ in answers} | set(self.inputs["hot"])
        )
        requests = [request_from_wire(json.loads(body)) for body in unique]
        with SimulationService() as oracle:
            expected = oracle.simulate_requests(requests)
        reference = {
            body: (request.cache_key(), values)
            for body, request, values in zip(unique, requests, expected)
        }
        failed = 0
        for request, status, body in answers:
            key, values = reference[request]
            payload = json.loads(body) if status == 200 else None
            if (
                payload is None
                or payload["key"] != key
                or not values_match(payload["values"], values)
            ):
                failed += 1
        hot = [reference[body][1] for body in self.inputs["hot"]]
        energy = sum(v["energy_total"] for v in hot)
        operations = sum(v["operations_total"] for v in hot)
        log(
            f"gateway_mix invariants (hot set): energy/op="
            f"{energy / operations!r} J compensated_fraction="
            f"{sum(v['lut_correction'] != 0 for v in hot) / len(hot)!r} "
            f"mean_settle_cycle="
            f"{sum(v['settle_cycle'] for v in hot) / len(hot)!r}"
        )
        return len(answers), failed

    def close(self) -> None:
        for connection in self.connections:
            connection.close()
        self.connections = []
        if self.process is not None:
            try:
                if self.process.poll() is None:
                    self._command({"cmd": "close"})
                self.process.wait(timeout=60)
            finally:
                if self.process.poll() is None:
                    self.process.kill()
                    self.process.wait()
                self.process.stdin.close()
                self.process.stdout.close()
                self.process = None
