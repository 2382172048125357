"""Background coalescer: lifecycle, threaded parity, fair queuing.

The tentpole invariant, fuzz-pinned here: results served by the
**background batching thread** — fed concurrently from many submitter
threads — are bit-identical to one standalone engine batch over the
same requests (the same reference the caller-driven coalescing parity
suite pins).  Plus the scheduling semantics that only exist in service
space: weighted round-robin across tenants and priority-before-FIFO
within one tenant.
"""

import math
import threading
from dataclasses import replace

import numpy as np
import pytest

from repro.service import (
    ServiceConfig,
    SimRequest,
    SimulationService,
    WorkloadSpec,
)
from repro.testing import fuzz_seeds, replay_message

SEEDS = fuzz_seeds()

CORNERS = ("SS", "TT", "FS")

ALT_COMBOS = (
    {"device_model": "tabulated"},
    {"execution": "serial"},
    {"step_kernel": "legacy", "execution": "serial"},
    {"device_model": "tabulated", "execution": "process"},
)


def assert_values_identical(actual, expected, message):
    assert set(actual) == set(expected), message
    for name, value in expected.items():
        got = actual[name]
        if isinstance(value, float) and math.isnan(value):
            assert isinstance(got, float) and math.isnan(got), (
                f"{name}: {got!r} != NaN {message}"
            )
        else:
            assert got == value, (
                f"{name}: {got!r} != {value!r} {message}"
            )


def draw_requests(seed, count=None):
    """A coalescible randomized request set (mixed corners, shifts and
    workloads; one duplicate to exercise dedup through the thread
    path)."""
    rng = np.random.default_rng(seed)
    dies = int(rng.integers(3, 8)) if count is None else count
    cycles = int(rng.integers(20, 51))
    requests = []
    for i in range(dies):
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
            )
        )
    requests.append(requests[int(rng.integers(0, dies))])
    return rng, requests


def submit_from_threads(service, requests, threads, rng):
    """Submit a shuffled split of ``requests`` from ``threads`` threads;
    return futures indexed like ``requests``."""
    order = [int(i) for i in rng.permutation(len(requests))]
    futures = {}
    lock = threading.Lock()
    barrier = threading.Barrier(threads)
    errors = []

    def submitter(slice_index):
        try:
            barrier.wait()
            for i in order[slice_index::threads]:
                future = service.submit(requests[i])
                with lock:
                    futures[i] = future
        except Exception as exc:  # surfaced below, never swallowed
            errors.append(exc)

    pool = [
        threading.Thread(target=submitter, args=(t,))
        for t in range(threads)
    ]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()
    assert not errors, errors
    return futures


def check_threaded_parity(library, requests, execution, rng, message):
    reference = SimulationService(
        library=library,
        config=ServiceConfig(execution=execution, workers=2),
    ).simulate_requests(requests)
    service = SimulationService(
        library=library,
        config=ServiceConfig(
            execution=execution,
            workers=2,
            max_batch_dies=int(rng.integers(1, len(requests) + 1)),
            tick_interval_s=0.001,
        ),
    )
    service.start()
    try:
        futures = submit_from_threads(
            service, requests, threads=4, rng=rng
        )
        for i, future in futures.items():
            assert_values_identical(
                future.result(timeout=120).values,
                reference[i],
                f"(threaded submit, request {i}) {message}",
            )
    finally:
        service.close()


@pytest.mark.parametrize("seed", SEEDS)
def test_threaded_background_parity_fuzz(seed, library):
    """N submitter threads + the background coalescer vs one standalone
    batch — bit-identical, across executor x device_model combos."""
    message = replay_message(seed, "tests/service/test_background.py")
    rng, requests = draw_requests(seed)
    check_threaded_parity(library, requests, "direct", rng, message)

    combo = ALT_COMBOS[seed % len(ALT_COMBOS)]
    combo_requests = [replace(r, **{
        knob: value for knob, value in combo.items()
        if knob != "execution"
    }) for r in requests]
    check_threaded_parity(
        library,
        combo_requests,
        combo.get("execution", "direct"),
        rng,
        f"(combo {combo}) {message}",
    )


class TestLifecycle:
    def test_start_is_idempotent_and_stop_restores_ticking(
        self, library
    ):
        service = SimulationService(library=library)
        assert service.start() is service
        thread = service._bg_thread
        service.start()
        assert service._bg_thread is thread
        request = SimRequest(cycles=25)
        result = service.submit(request).result(timeout=60)
        assert result.values["operations_total"] >= 0

        service.stop()
        # Caller-driven mode again: a distinct scenario ticks inline.
        future = service.submit(replace(request, corner="SS"))
        assert future.result().values["operations_total"] >= 0
        service.close()

    def test_external_tick_raises_while_background_owns_the_drain(
        self, library
    ):
        service = SimulationService(library=library)
        service.start()
        try:
            with pytest.raises(RuntimeError, match="background"):
                service.tick()
        finally:
            service.close()

    def test_close_drains_pending_futures(self, library):
        """Futures admitted before close() must resolve, even when the
        batching window would have held them far longer."""
        service = SimulationService(
            library=library,
            config=ServiceConfig(tick_interval_s=30.0),
        )
        service.start()
        futures = [
            service.submit(SimRequest(cycles=25, corner=corner))
            for corner in CORNERS
        ]
        service.close()
        for future in futures:
            assert future.done
            assert future.result().values["operations_total"] >= 0

    def test_max_batch_trigger_flushes_before_the_window(self, library):
        """With a huge batching window, hitting max_batch_dies must
        flush immediately — otherwise these futures would wait 30s."""
        service = SimulationService(
            library=library,
            config=ServiceConfig(
                tick_interval_s=30.0, max_batch_dies=3
            ),
        )
        service.start()
        try:
            futures = [
                service.submit(
                    SimRequest(cycles=25, nmos_vth_shift=0.001 * i)
                )
                for i in range(3)
            ]
            for future in futures:
                assert (
                    future.result(timeout=60).values["operations_total"]
                    >= 0
                )
        finally:
            service.close()

    def test_run_backpressures_against_the_background_drain(
        self, library
    ):
        requests = [
            SimRequest(cycles=25, nmos_vth_shift=0.001 * i)
            for i in range(12)
        ]
        service = SimulationService(
            library=library,
            config=ServiceConfig(
                max_queue_depth=2,
                max_batch_dies=2,
                tick_interval_s=0.001,
            ),
        )
        service.start()
        try:
            results = service.run(requests)
            reference = SimulationService(
                library=library
            ).simulate_requests(requests)
            for result, expected in zip(results, reference):
                assert_values_identical(
                    result.values, expected, "(backpressured run)"
                )
        finally:
            service.close()


class TestFairQueuing:
    def _distinct(self, count, **kwargs):
        return [
            SimRequest(
                cycles=25, nmos_vth_shift=0.001 * (i + 1), **kwargs
            )
            for i in range(count)
        ]

    def test_weighted_round_robin_with_priorities(self, library):
        """Dequeue order: tenants rotate in first-seen order, a tenant
        with weight k yields k requests per turn, highest priority
        first within a tenant, FIFO among equals."""
        service = SimulationService(
            library=library,
            config=ServiceConfig(tenant_weights={"a": 2}),
        )
        submissions = [
            ("a", 0), ("a", 5), ("a", 1),
            ("b", 2), ("b", 0),
            ("c", 0),
        ]
        for index, (tenant, priority) in enumerate(submissions):
            service.submit(
                SimRequest(
                    cycles=25,
                    nmos_vth_shift=0.001 * (index + 1),
                    tenant=tenant,
                    priority=priority,
                )
            )
        with service._lock:
            drained = [
                (p.request.tenant, p.request.priority)
                for p in service._drain_scheduling_order()
            ]
        assert drained == [
            ("a", 5), ("a", 1),   # a's first turn: weight 2
            ("b", 2),             # b's turn
            ("c", 0),             # c's turn
            ("a", 0),             # a again
            ("b", 0),
        ]
        assert service.queue_depth == 0

    def test_fifo_within_equal_priority(self, library):
        service = SimulationService(library=library)
        requests = self._distinct(4, tenant="t")
        for request in requests:
            service.submit(request)
        with service._lock:
            drained = [
                p.request.nmos_vth_shift
                for p in service._drain_scheduling_order()
            ]
        assert drained == [r.nmos_vth_shift for r in requests]

    def test_single_tenant_default_degenerates_to_fifo(self, library):
        """No tenants/priorities configured: scheduling must reduce to
        the historical FIFO, and results stay bit-identical."""
        requests = self._distinct(5)
        reference = SimulationService(
            library=library
        ).simulate_requests(requests)
        service = SimulationService(
            library=library, config=ServiceConfig(max_batch_dies=2)
        )
        futures = [service.submit(r) for r in requests]
        results = [f.result() for f in futures]
        service.close()
        for result, expected in zip(results, reference):
            assert_values_identical(
                result.values, expected, "(default FIFO)"
            )

    def test_tenant_fairness_under_contention(self, library):
        """A flood from one tenant must not starve another: with
        single-die batches, the light tenant's lone request rides the
        second tick, not the last."""
        service = SimulationService(
            library=library,
            config=ServiceConfig(max_batch_dies=1),
        )
        heavy = [
            service.submit(r)
            for r in self._distinct(6, tenant="heavy")
        ]
        light = service.submit(
            SimRequest(
                cycles=25, nmos_vth_shift=-0.005, tenant="light"
            )
        )
        service.tick()   # heavy's first request
        service.tick()   # fairness: light's turn
        assert light.done
        assert sum(1 for f in heavy if f.done) == 1
        while service.tick():
            pass
        assert all(f.done for f in heavy)
        service.close()
