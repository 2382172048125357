"""Tests of the shared test-harness helpers in :mod:`repro.testing`.

``assert_bit_identical`` backs every bit-exact parity claim in the
suite, so a lenient comparison would let those claims pass vacuously;
``interleaved_best`` backs every same-host speed bar, and
``trailing_run`` is the vote-streak oracle.
"""

import numpy as np
import pytest

from repro.testing import assert_bit_identical, interleaved_best, trailing_run


class TestAssertBitIdentical:
    def test_identical_bits_pass(self):
        values = np.array([0.1, -2.5, np.inf, np.nan, -0.0])
        assert_bit_identical(values, values.copy())
        assert_bit_identical(np.arange(5), np.arange(5))
        # Strided views compare by value, not by memory layout.
        grid = np.arange(12.0).reshape(3, 4)
        assert_bit_identical(grid[:, ::2], grid[:, ::2].copy())

    def test_last_bit_difference_fails(self):
        expected = np.array([1.0, 0.3])
        actual = expected.copy()
        actual[1] = np.nextafter(0.3, 1.0)
        # A relative tolerance lets a 1-ULP drift through ...
        np.testing.assert_allclose(actual, expected, rtol=1e-12)
        # ... the integer view does not.
        with pytest.raises(AssertionError, match="channel x"):
            assert_bit_identical(actual, expected, err_msg="channel x")

    def test_signed_zero_fails(self):
        with pytest.raises(AssertionError):
            assert_bit_identical(np.array([0.0]), np.array([-0.0]))

    def test_dtype_mismatch_fails(self):
        with pytest.raises(AssertionError, match="dtype"):
            assert_bit_identical(np.arange(3), np.arange(3.0))
        with pytest.raises(AssertionError, match="dtype"):
            assert_bit_identical(
                np.zeros(2, dtype=np.float32), np.zeros(2, dtype=np.float64)
            )


class TestInterleavedBest:
    def test_rounds_interleave_and_keep_each_minimum(self):
        calls = []

        def timer(name, readings):
            readings = iter(readings)

            def run():
                calls.append(name)
                return next(readings)

            return run

        best = interleaved_best(
            {"a": timer("a", [3.0, 1.0, 2.0]), "b": timer("b", [5.0, 6.0, 4.0])},
            rounds=3,
        )
        assert calls == ["a", "b"] * 3
        assert best == {"a": 1.0, "b": 4.0}


def test_trailing_run_counts_the_final_run_of_equal_values():
    assert trailing_run([]) == 0
    assert trailing_run([4, 6]) == 1
    assert trailing_run([5, 5]) == 2
    assert trailing_run([4, 5, 5, 5, 5]) == 4
