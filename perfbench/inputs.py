"""Seeded input generator: everything the program receives comes from here.

Each workload's inputs are a pure function of ``--seed``: the same seed
gives byte-identical request bodies, arrival matrices and hit/miss
sequences, and different seeds give different ones
(``perfbench/test_perfbench.py`` pins both).  Generation never runs on
the benchmark's clock.
"""

from __future__ import annotations

import json
from typing import List, Tuple

import numpy as np

CORNERS = ("TT", "SS", "FF", "FS", "SF")
"""The five process corners requests are drawn over."""

MC_DIES = 4096
MC_CYCLES = 200
MC_ARRIVAL_MATRICES = 2
MC_SAMPLE_RATE = 1e5

BULK_REQUESTS_PER_CALL = 512
BULK_CYCLES = 60

GATEWAY_HOT_SET = 256
GATEWAY_CYCLES = 100
GATEWAY_BLOCK = 10
"""Each block of ten gateway requests holds exactly one miss."""
GATEWAY_PLAN_BLOCKS = 4000
GATEWAY_WARMUP_BLOCKS = 4
GATEWAY_TRACED_BLOCKS = 30

# Stream tags: one independent generator per input family.
_MC, _BULK, _HOT, _PLAN = 1, 2, 3, 4
_MISS_WARMUP, _MISS_TIMED, _MISS_TRACED = 5, 6, 7


def _rng(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *tags]))


def random_request(rng: np.random.Generator, cycles: int):
    """One exact-model scenario, drawn like ``repro-serve``'s generator:
    constant or Poisson traffic, a random corner, random Vth shifts."""
    from repro.service.request import SimRequest, WorkloadSpec

    kind = ("constant", "poisson")[int(rng.integers(0, 2))]
    workload = WorkloadSpec(
        kind=kind,
        rate=float(rng.uniform(2e4, 2e5)),
        seed=int(rng.integers(0, 2**31)) if kind == "poisson" else None,
    )
    return SimRequest(
        cycles=cycles,
        corner=CORNERS[int(rng.integers(0, len(CORNERS)))],
        nmos_vth_shift=float(rng.normal(0.0, 0.015)),
        pmos_vth_shift=float(rng.normal(0.0, 0.015)),
        workload=workload,
    )


# ----------------------------------------------------------------------
# mc_fleet
# ----------------------------------------------------------------------
def mc_fleet_inputs(seed: int) -> Tuple[object, List[np.ndarray]]:
    """Monte Carlo threshold shifts of the fleet and its arrival matrices.

    Returns ``(samples, matrices)``: the shifts come from the paper's
    variation model
    (:class:`~repro.devices.variation.MonteCarloSampler`), each matrix is
    ``(MC_DIES, MC_CYCLES)`` independent Poisson streams.
    """
    from repro.core.config import ControllerConfig
    from repro.devices.variation import MonteCarloSampler
    from repro.workloads.batch import poisson_arrival_matrix

    stream = _rng(seed, _MC)
    sampler = MonteCarloSampler(seed=int(stream.integers(0, 2**31)))
    samples = sampler.draw_arrays(MC_DIES)
    period = ControllerConfig().system_cycle_period
    matrices = [
        poisson_arrival_matrix(
            np.full(MC_DIES, MC_SAMPLE_RATE),
            period,
            MC_CYCLES,
            seeds=int(stream.integers(0, 2**31)),
        )
        for _ in range(MC_ARRIVAL_MATRICES)
    ]
    return samples, matrices


# ----------------------------------------------------------------------
# bulk_cold
# ----------------------------------------------------------------------
def bulk_call_requests(seed: int, call: int) -> list:
    """The 512 never-seen requests of one ``run()`` call."""
    rng = _rng(seed, _BULK, call)
    return [
        random_request(rng, BULK_CYCLES)
        for _ in range(BULK_REQUESTS_PER_CALL)
    ]


# ----------------------------------------------------------------------
# gateway_mix
# ----------------------------------------------------------------------
def wire_body(request) -> bytes:
    from repro.service.server import request_to_wire

    return json.dumps(request_to_wire(request)).encode("utf-8")


class GatewayPlan:
    """One request sequence: exactly one miss per block of ten.

    ``hit[i]`` says whether request ``i`` is planned to hit; ``body(i)``
    is its wire body (a hot-set scenario, or a fresh scenario never sent
    before).
    """

    def __init__(self, seed: int, blocks: int, miss_tag: int,
                 hot_bodies: List[bytes]) -> None:
        rng = _rng(seed, _PLAN, miss_tag)
        size = blocks * GATEWAY_BLOCK
        # One seeded slot for every block: misses sit exactly ten
        # requests apart, so two misses never wait on each other.
        miss_slot = int(rng.integers(0, GATEWAY_BLOCK))
        hit = np.ones(size, dtype=bool)
        hit[np.arange(blocks) * GATEWAY_BLOCK + miss_slot] = False
        self.hit = hit
        self.hot_index = rng.integers(0, len(hot_bodies), size=size)
        misses = _rng(seed, miss_tag)
        self.miss_bodies = [
            wire_body(random_request(misses, GATEWAY_CYCLES))
            for _ in range(blocks)
        ]
        self._miss_rank = np.cumsum(~hit) - 1
        self._hot = hot_bodies

    def __len__(self) -> int:
        return int(self.hit.size)

    def body(self, index: int) -> bytes:
        if self.hit[index]:
            return self._hot[int(self.hot_index[index])]
        return self.miss_bodies[int(self._miss_rank[index])]


def gateway_inputs(seed: int):
    """Hot set plus the warm-up, timed and traced request plans."""
    hot_rng = _rng(seed, _HOT)
    hot = [
        wire_body(random_request(hot_rng, GATEWAY_CYCLES))
        for _ in range(GATEWAY_HOT_SET)
    ]
    return {
        "hot": hot,
        "warmup": GatewayPlan(seed, GATEWAY_WARMUP_BLOCKS, _MISS_WARMUP, hot),
        "timed": GatewayPlan(seed, GATEWAY_PLAN_BLOCKS, _MISS_TIMED, hot),
        "traced": GatewayPlan(seed, GATEWAY_TRACED_BLOCKS, _MISS_TRACED, hot),
    }
