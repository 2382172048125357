"""Tests of the EKV-style MOSFET model."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices.mosfet import Mosfet, MosfetParameters, ekv_inversion, thermal_voltage
from repro.devices.technology import Technology, default_technology
from repro.testing import assert_bit_identical


@pytest.fixture(scope="module")
def technology() -> Technology:
    return default_technology()


@pytest.fixture(scope="module")
def nmos(technology) -> Mosfet:
    return Mosfet(technology, MosfetParameters(width_um=1.0, polarity="nmos"))


class TestThermalVoltage:
    def test_room_temperature_value(self):
        assert thermal_voltage(25.0) == pytest.approx(0.0257, rel=1e-2)

    def test_increases_with_temperature(self):
        assert thermal_voltage(85.0) > thermal_voltage(25.0)

    def test_rejects_below_absolute_zero(self):
        with pytest.raises(ValueError):
            thermal_voltage(-300.0)


class TestEkvInversion:
    def test_strong_inversion_limit(self):
        # For large x the interpolation approaches (x/2)**2.
        assert ekv_inversion(20.0) == pytest.approx(100.0, rel=0.05)

    def test_subthreshold_limit(self):
        # For very negative x the interpolation approaches exp(x).
        assert ekv_inversion(-10.0) == pytest.approx(math.exp(-10.0), rel=0.05)

    def test_vectorised_matches_scalar(self):
        """Scalar and array evaluation agree bit for bit: the scalar
        device stack (``run_reference``) and the batched engine both
        rest on this function, so a last-bit difference here becomes an
        ``energies`` difference between them."""
        xs = np.random.default_rng(20090000).uniform(-10.0, 10.0, 20000)
        scalar = np.array([ekv_inversion(float(x)) for x in xs])
        assert_bit_identical(ekv_inversion(xs), scalar)

    @given(st.floats(min_value=-30, max_value=30))
    @settings(max_examples=50, deadline=None)
    def test_always_positive(self, x):
        assert ekv_inversion(x) > 0.0

    @given(
        st.floats(min_value=-20, max_value=20),
        st.floats(min_value=0.01, max_value=5.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_monotonic_in_overdrive(self, x, delta):
        assert ekv_inversion(x + delta) > ekv_inversion(x)


class TestMosfetParameters:
    def test_aspect_ratio(self):
        params = MosfetParameters(width_um=1.3, length_um=0.13)
        assert params.aspect_ratio == pytest.approx(10.0)

    def test_rejects_non_positive_dimensions(self):
        with pytest.raises(ValueError):
            MosfetParameters(width_um=0.0)
        with pytest.raises(ValueError):
            MosfetParameters(length_um=-1.0)

    def test_rejects_unknown_polarity(self):
        with pytest.raises(ValueError):
            MosfetParameters(polarity="qmos")

    def test_polarity_flags(self):
        assert MosfetParameters(polarity="nmos").is_nmos
        assert not MosfetParameters(polarity="pmos").is_nmos


class TestDrainCurrent:
    def test_on_current_positive(self, nmos):
        assert nmos.on_current(1.2) > 0.0

    def test_off_current_much_smaller_than_on(self, nmos):
        ratio = nmos.on_current(1.2) / nmos.off_current(1.2)
        assert ratio > 1e3

    def test_subthreshold_exponential_slope(self, nmos, technology):
        """Current decades per Vgs follow n*Vt*ln(10) in deep subthreshold."""
        v1, v2 = 0.02, 0.08
        i1 = nmos.drain_current(v1, 0.3)
        i2 = nmos.drain_current(v2, 0.3)
        measured_swing = (v2 - v1) / math.log10(i2 / i1)
        expected_swing = nmos.subthreshold_swing_mv_per_decade(25.0) * 1e-3
        assert measured_swing == pytest.approx(expected_swing, rel=0.10)

    def test_current_scales_with_width(self, technology):
        narrow = Mosfet(technology, MosfetParameters(width_um=1.0))
        wide = Mosfet(technology, MosfetParameters(width_um=2.0))
        assert wide.on_current(0.3) == pytest.approx(
            2.0 * narrow.on_current(0.3), rel=1e-9
        )

    def test_vth_shift_reduces_current(self, technology):
        nominal = Mosfet(technology)
        slow = nominal.with_vth_shift(+0.015)
        assert slow.on_current(0.25) < nominal.on_current(0.25)
        assert slow.off_current(0.25) < nominal.off_current(0.25)

    def test_temperature_increases_subthreshold_current(self, nmos):
        assert nmos.drain_current(0.2, 0.2, temperature_c=85.0) > (
            nmos.drain_current(0.2, 0.2, temperature_c=25.0)
        )

    def test_dibl_increases_leakage_with_vds(self, nmos):
        assert nmos.off_current(1.2) > nmos.off_current(0.3)

    def test_vectorised_vgs(self, nmos):
        vgs = np.linspace(0.1, 1.2, 12)
        currents = nmos.drain_current(vgs, 1.2)
        assert currents.shape == vgs.shape
        assert np.all(np.diff(currents) > 0)

    @given(st.floats(min_value=0.05, max_value=1.2))
    @settings(max_examples=40, deadline=None)
    def test_current_monotonic_in_vgs(self, vdd):
        nmos = Mosfet(default_technology())
        low = nmos.drain_current(vdd * 0.5, vdd)
        high = nmos.drain_current(vdd, vdd)
        assert high > low

    def test_gate_capacitance_scales_with_width(self, technology):
        small = Mosfet(technology, MosfetParameters(width_um=0.5))
        large = Mosfet(technology, MosfetParameters(width_um=1.5))
        assert large.gate_capacitance() == pytest.approx(
            3.0 * small.gate_capacitance()
        )

    def test_threshold_voltage_reports_corner_shift(self, technology):
        device = Mosfet(technology, vth_shift=0.015)
        assert device.threshold_voltage() == pytest.approx(
            technology.nmos.vth0 + 0.015, abs=1e-9
        )

    def test_threshold_voltage_dibl_term(self, nmos, technology):
        zero_vds = nmos.threshold_voltage(vds=0.0)
        high_vds = nmos.threshold_voltage(vds=1.2)
        expected_drop = technology.nmos.dibl_coefficient * 1.2
        assert zero_vds - high_vds == pytest.approx(expected_drop)


class TestPaperAnchors:
    """Threshold voltages quoted in the paper's Section II."""

    def test_typical_nmos_vth(self, technology):
        assert technology.nmos.vth0 == pytest.approx(0.287, abs=1e-3)

    def test_corner_vth_spread(self):
        from repro.devices.corners import default_corner_library

        library = default_corner_library()
        technology = default_technology()
        slow = library.technology_at(technology, "SS")
        fast = library.technology_at(technology, "FF")
        assert slow.nmos.vth0 == pytest.approx(0.302, abs=1e-3)
        assert fast.nmos.vth0 == pytest.approx(0.272, abs=1e-3)
