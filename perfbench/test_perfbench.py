"""Tests of the benchmark's own machinery (not of the program).

Run from the root of a checkout::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np
import pytest

import common
import inputs
import layers
from common import ROOT, SelfCheckError
from tracing import Tracer, Target, layer_totals

common.bootstrap()


def _digest(*chunks: bytes) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(len(chunk).to_bytes(8, "little"))
        digest.update(chunk)
    return digest.hexdigest()


def _mc_fleet_bytes(seed: int) -> str:
    samples, matrices = inputs.mc_fleet_inputs(seed)
    return _digest(
        np.ascontiguousarray(samples.nmos_vth_shift).tobytes(),
        np.ascontiguousarray(samples.pmos_vth_shift).tobytes(),
        *(matrix.tobytes() for matrix in matrices),
    )


def _bulk_bytes(seed: int) -> str:
    return _digest(
        *(
            inputs.wire_body(request)
            for call in (0, 1)
            for request in inputs.bulk_call_requests(seed, call)
        )
    )


def _gateway_bytes(seed: int) -> str:
    data = inputs.gateway_inputs(seed)
    chunks = list(data["hot"])
    for name in ("warmup", "timed", "traced"):
        plan = data[name]
        chunks.append(plan.hit.tobytes())
        chunks.append(plan.hot_index.tobytes())
        chunks.extend(plan.body(i) for i in range(len(plan)))
    return _digest(*chunks)


@pytest.mark.parametrize(
    "generate", [_mc_fleet_bytes, _bulk_bytes, _gateway_bytes],
    ids=["mc_fleet", "bulk_cold", "gateway_mix"],
)
def test_same_seed_same_bytes_other_seed_other_bytes(generate):
    assert generate(7) == generate(7)
    assert generate(7) != generate(8)


def test_gateway_plan_has_one_miss_per_block():
    plan = inputs.gateway_inputs(3)["timed"]
    blocks = plan.hit.reshape(-1, inputs.GATEWAY_BLOCK)
    assert np.all((~blocks).sum(axis=1) == 1)
    misses = [plan.body(i) for i in range(len(plan)) if not plan.hit[i]]
    assert len(set(misses)) == len(misses)
    assert not set(misses) & set(inputs.gateway_inputs(3)["hot"])


def test_bulk_requests_are_never_repeated():
    first = [inputs.wire_body(r) for r in inputs.bulk_call_requests(5, 0)]
    second = [inputs.wire_body(r) for r in inputs.bulk_call_requests(5, 1)]
    assert len(set(first + second)) == 2 * inputs.BULK_REQUESTS_PER_CALL


def test_corrupted_answer_counts_as_failure():
    answers = np.arange(12, dtype=float).reshape(4, 3)
    answers[1, 2] = math.nan
    oracle = answers.copy()
    assert common.mismatched_rows(answers, oracle) == 0
    corrupted = answers.copy()
    corrupted[2, 0] = np.nextafter(corrupted[2, 0], np.inf)
    assert common.mismatched_rows(corrupted, oracle) == 1


def test_corrupted_wire_answer_counts_as_failure():
    expected = {"energy_total": 1.5e-12, "settle_cycle": 7,
                "energy_per_operation": math.nan}
    wire = json.loads(json.dumps(expected))
    assert common.values_match(wire, expected)
    wire["energy_total"] = 1.5000000000000002e-12
    assert not common.values_match(wire, expected)


def test_percentile_refuses_thin_tails():
    values = list(range(1000))
    assert common.percentile(values, 99, "test") == pytest.approx(989.01)
    with pytest.raises(SelfCheckError):
        common.percentile(values[:999], 99, "test")


class _Owner:
    def outer(self, n):
        return self.inner(n) + 1

    def inner(self, n):
        return n

    @classmethod
    def build(cls):
        return cls()


def test_spans_nest_and_self_time_excludes_children():
    originals = dict(_Owner.__dict__)
    tracer = Tracer()
    tracer.install(
        [
            Target(_Owner, "outer", "outer", new_request=True),
            Target(_Owner, "inner", "inner", size=lambda args, _: args[1]),
            Target(_Owner, "build", "build"),
        ]
    )
    try:
        owner = _Owner.build()
        assert owner.outer(3) == 4
        assert owner.outer(5) == 6
    finally:
        tracer.uninstall()
    for name in ("outer", "inner", "build"):
        assert _Owner.__dict__[name] is originals[name]
    totals = layer_totals(tracer.spans)
    assert totals["outer"].calls == 2 and totals["inner"].size == 8
    outer, inner = totals["outer"], totals["inner"]
    assert outer.self_s == pytest.approx(outer.total_s - inner.total_s)
    requests = {span[4] for span in tracer.spans if span[0] != "build"}
    assert len(requests) == 2


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(layers.PER_LAYER)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == [
        "mc_fleet", "bulk_cold", "gateway_mix"
    ]
