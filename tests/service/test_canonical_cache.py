"""Cache-key canonicalization and byte-budget eviction.

The contract: **equal scenarios must collide, unequal must not** — no
matter how the payload was spelled (dtype, memory order, NaN payloads,
dict ordering); and the LRU must hold its byte budget by evicting the
least recently used entries.
"""

import numpy as np
import pytest

from repro.service import (
    ResultCache,
    SimRequest,
    WorkloadSpec,
    canonical_bytes,
    content_hash,
    estimate_entry_bytes,
)


class TestCanonicalization:
    def test_integer_dtype_normalisation(self):
        values = [1, 5, 9]
        for dtype in (np.int8, np.int16, np.int32, np.int64, np.uint16):
            assert content_hash(np.array(values, dtype=dtype)) == (
                content_hash(np.array(values, dtype=np.int64))
            )

    def test_float_widening_is_exact_not_lossy(self):
        # float32 values widen exactly, so equal *values* collide...
        half = np.array([0.5, 0.25], dtype=np.float32)
        assert content_hash(half) == content_hash(
            half.astype(np.float64)
        )
        # ...but float32(0.1) is a different value than float64(0.1)
        # and must not collide.
        assert content_hash(np.array([0.1], dtype=np.float32)) != (
            content_hash(np.array([0.1], dtype=np.float64))
        )

    def test_array_order_normalisation(self):
        c_order = np.arange(12, dtype=float).reshape(3, 4)
        f_order = np.asfortranarray(c_order)
        strided = np.arange(24, dtype=float).reshape(3, 8)[:, ::2]
        assert content_hash(c_order) == content_hash(f_order)
        assert content_hash(strided) == content_hash(strided.copy())
        # Same data, different shape: must not collide.
        assert content_hash(c_order) != content_hash(
            c_order.reshape(4, 3)
        )
        assert content_hash(c_order) != content_hash(c_order.ravel())

    def test_nan_and_signed_zero_handling(self):
        # Every NaN bit pattern folds to one canonical NaN.
        quiet = np.array([float("nan")])
        weird = np.frombuffer(
            np.array([0x7FF8_0000_0000_BEEF], dtype=np.uint64).tobytes(),
            dtype=np.float64,
        )
        assert np.isnan(weird[0])
        assert content_hash(quiet) == content_hash(weird)
        # -0.0 folds to +0.0 (they compare equal everywhere).
        assert content_hash(np.array([-0.0])) == content_hash(
            np.array([0.0])
        )
        assert content_hash(-0.0) == content_hash(0.0)
        assert content_hash(float("nan")) == content_hash(weird[0])
        # Infinities stay distinct values.
        assert content_hash(np.array([np.inf])) != content_hash(
            np.array([-np.inf])
        )
        assert content_hash(np.array([np.inf])) != content_hash(quiet)

    def test_dict_ordering_and_structure(self):
        a = {"corner": "TT", "rate": 1e5, "cycles": 400}
        b = {"cycles": 400, "corner": "TT", "rate": 1e5}
        assert content_hash(a) == content_hash(b)
        assert content_hash(a) != content_hash(
            {**a, "cycles": 401}
        )
        # Structurally different payloads never collide by coincidence.
        assert content_hash(1) != content_hash("1")
        assert content_hash([1]) != content_hash(1)
        assert content_hash([1, 2]) != content_hash([[1], 2])
        assert content_hash(True) != content_hash(1)
        assert content_hash(None) != content_hash(0)
        # Lists and tuples are both just ordered values.
        assert content_hash((1, 2)) == content_hash([1, 2])

    def test_unsupported_types_are_rejected(self):
        with pytest.raises(TypeError):
            canonical_bytes(object())
        with pytest.raises(TypeError):
            content_hash(np.array(["a", "b"]))


class TestRequestKeys:
    def test_equal_requests_collide(self):
        a = SimRequest(cycles=100, corner="SS", nmos_vth_shift=0.01)
        b = SimRequest(cycles=100, corner="SS", nmos_vth_shift=0.01)
        assert a.cache_key() == b.cache_key()

    def test_qos_fields_do_not_change_the_key(self):
        base = SimRequest(cycles=100)
        assert base.cache_key() == SimRequest(
            cycles=100, deadline_s=0.5, reducers=("energy_total",)
        ).cache_key()

    def test_content_fields_change_the_key(self):
        base = SimRequest(cycles=100)
        variants = [
            SimRequest(cycles=101),
            SimRequest(cycles=100, corner="SS"),
            SimRequest(cycles=100, nmos_vth_shift=1e-6),
            SimRequest(cycles=100, temperature_c=26.0),
            SimRequest(cycles=100, compensation_enabled=False),
            SimRequest(cycles=100, averaging_window=3),
            SimRequest(cycles=100, initial_correction=1),
            SimRequest(cycles=100, device_model="tabulated"),
            SimRequest(cycles=100, sample_rate=2e5),
            SimRequest(
                cycles=100, workload=WorkloadSpec(kind="none")
            ),
            SimRequest(
                cycles=100,
                workload=WorkloadSpec(kind="poisson", rate=1e5, seed=7),
            ),
            SimRequest(cycles=100, schedule_codes=(3,) * 100),
        ]
        keys = {v.cache_key() for v in variants}
        assert len(keys) == len(variants)
        assert base.cache_key() not in keys

    def test_workload_seed_distinguishes_poisson_streams(self):
        a = SimRequest(
            cycles=50, workload=WorkloadSpec(kind="poisson", seed=1)
        )
        b = SimRequest(
            cycles=50, workload=WorkloadSpec(kind="poisson", seed=2)
        )
        assert a.cache_key() != b.cache_key()


class TestResultCache:
    def _value(self, i):
        return {"energy_total": float(i), "operations_total": i}

    def test_lru_eviction_under_byte_budget(self):
        probe = estimate_entry_bytes("k" * 64, self._value(0))
        cache = ResultCache(max_bytes=3 * probe)
        keys = [f"{i:064d}" for i in range(4)]
        for i, key in enumerate(keys[:3]):
            cache.put(key, self._value(i))
        assert len(cache) == 3
        # Touch key 0 so key 1 becomes the LRU victim.
        assert cache.get(keys[0]) == self._value(0)
        cache.put(keys[3], self._value(3))
        assert len(cache) == 3
        assert keys[1] not in cache
        assert keys[0] in cache and keys[2] in cache and keys[3] in cache
        assert cache.evictions == 1
        assert cache.current_bytes <= cache.max_bytes

    def test_oversized_entry_is_not_stored(self):
        cache = ResultCache(max_bytes=8)
        cache.put("key", self._value(1))
        assert len(cache) == 0
        assert cache.get("key") is None

    def test_zero_budget_disables_storage(self):
        cache = ResultCache(max_bytes=0)
        cache.put("key", self._value(1))
        assert len(cache) == 0

    def test_get_returns_a_copy(self):
        cache = ResultCache()
        cache.put("key", self._value(1))
        fetched = cache.get("key")
        fetched["energy_total"] = -1.0
        assert cache.get("key")["energy_total"] == 1.0

    def test_refresh_replaces_and_reaccounts(self):
        cache = ResultCache()
        cache.put("key", self._value(1))
        before = cache.current_bytes
        cache.put("key", self._value(2))
        assert cache.get("key") == self._value(2)
        assert cache.current_bytes == before
        assert len(cache) == 1

    def test_hit_rate(self):
        cache = ResultCache()
        assert cache.hit_rate() == 0.0
        cache.put("key", self._value(1))
        cache.get("key")
        cache.get("missing")
        assert cache.hit_rate() == 0.5
