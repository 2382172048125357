"""EKV-style MOSFET drain-current model.

The model is intentionally compact: the EKV interpolation function

``I_D = I_spec * (W/L) * ln(1 + exp((Vgs - Vth)/(2 n Vt)))**2
        * (1 - exp(-Vds / Vt))``

is continuous from deep subthreshold (where it reduces to the familiar
exponential ``exp((Vgs - Vth)/(n Vt))``) through moderate inversion to
strong inversion (where it approaches a square law).  This matters for
the reproduction because the paper's minimum energy points sit at
200-250 mV, i.e. right in moderate inversion for a 287 mV threshold,
while the leakage that shapes the MEP bathtub is deep-subthreshold.

Temperature enters through the thermal voltage, a linear Vth reduction
and a mobility power law (see :mod:`repro.devices.temperature`), and
DIBL enters as an effective Vth reduction proportional to ``Vds``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.devices.technology import Technology, TechnologyParameters
from repro.devices.temperature import (
    ROOM_TEMPERATURE_C,
    TemperatureModel,
    thermal_voltage_at,
)

__all__ = ["Mosfet", "MosfetParameters", "thermal_voltage", "ekv_inversion"]


def thermal_voltage(temperature_c: float = ROOM_TEMPERATURE_C) -> float:
    """Return the thermal voltage ``kT/q`` (volts) at ``temperature_c``."""
    return thermal_voltage_at(temperature_c)


def ekv_inversion(normalized_overdrive):
    """EKV interpolation function ``ln(1 + exp(x/2))**2``.

    Accepts scalars or numpy arrays.  Implemented with ``logaddexp`` so it
    does not overflow for large positive overdrive nor underflow to an
    exact zero for large negative overdrive.  Squared as ``value * value``:
    ``** 2`` on a numpy scalar goes through C ``pow()``, which can differ
    in the last bit from the ``x*x`` numpy uses for arrays, and the
    scalar and batched device stacks must agree bit for bit.
    """
    x = np.asarray(normalized_overdrive, dtype=float)
    value = np.logaddexp(0.0, x / 2.0)
    value = value * value
    if np.isscalar(normalized_overdrive):
        return float(value)
    return value


@dataclass(frozen=True)
class MosfetParameters:
    """Instance parameters of a single MOSFET."""

    width_um: float = 1.0
    length_um: float = 0.13
    polarity: str = "nmos"

    def __post_init__(self) -> None:
        if self.width_um <= 0 or self.length_um <= 0:
            raise ValueError("transistor dimensions must be positive")
        if self.polarity.lower() not in ("nmos", "pmos", "n", "p"):
            raise ValueError(f"unknown polarity {self.polarity!r}")

    @property
    def aspect_ratio(self) -> float:
        """Return W/L."""
        return self.width_um / self.length_um

    @property
    def is_nmos(self) -> bool:
        """Return True for an NMOS instance."""
        return self.polarity.lower() in ("nmos", "n")


class Mosfet:
    """A single MOSFET evaluated against a technology parameter set.

    All terminal voltages are expressed in the device's own frame: for a
    PMOS, callers should pass ``|Vgs|`` and ``|Vds|`` (the model is
    symmetric in that convention, matching how the delay and leakage
    models use it).
    """

    def __init__(
        self,
        technology: Technology,
        instance: Optional[MosfetParameters] = None,
        vth_shift: float = 0.0,
    ) -> None:
        self._technology = technology
        self._instance = instance or MosfetParameters()
        self._device = technology.device(self._instance.polarity)
        self._vth_shift = float(vth_shift)

    @property
    def instance(self) -> MosfetParameters:
        """Return the instance (W, L, polarity) parameters."""
        return self._instance

    @property
    def device_parameters(self) -> TechnologyParameters:
        """Return the underlying technology parameters for this polarity."""
        return self._device

    @property
    def technology(self) -> Technology:
        """Return the technology this device was built from."""
        return self._technology

    @property
    def vth_shift(self) -> float:
        """Return the static threshold-voltage shift applied (volts)."""
        return self._vth_shift

    def _temperature_model(self) -> TemperatureModel:
        return self._technology.temperature_model

    def threshold_voltage(
        self, temperature_c: float = ROOM_TEMPERATURE_C, vds: float = 0.0
    ) -> float:
        """Return the effective threshold voltage (V).

        Includes the static shift (process corner / Monte Carlo), the
        temperature coefficient and DIBL lowering for the given ``vds``.
        """
        base = self._device.vth0 + self._vth_shift
        base += self._temperature_model().threshold_shift(temperature_c)
        base -= self._device.dibl_coefficient * abs(vds)
        return base

    def subthreshold_swing_mv_per_decade(
        self, temperature_c: float = ROOM_TEMPERATURE_C
    ) -> float:
        """Return the subthreshold swing ``n * Vt * ln(10)`` in mV/decade."""
        n = self._device.subthreshold_slope_factor
        return n * thermal_voltage(temperature_c) * math.log(10.0) * 1e3

    def drain_current(
        self,
        vgs,
        vds,
        temperature_c: float = ROOM_TEMPERATURE_C,
    ):
        """Return the drain current in amperes.

        Accepts scalar or array ``vgs`` / ``vds``.  Current is always
        returned as a positive magnitude (the convention used by the
        delay and energy models).
        """
        vgs_arr = np.asarray(vgs, dtype=float)
        vds_arr = np.asarray(vds, dtype=float)
        vt = thermal_voltage(temperature_c)
        n = self._device.subthreshold_slope_factor
        vth = (
            self._device.vth0
            + self._vth_shift
            + self._temperature_model().threshold_shift(temperature_c)
            - self._device.dibl_coefficient * np.abs(vds_arr)
        )
        mobility = self._temperature_model().mobility_scale(temperature_c)
        i_spec = (
            self._device.specific_current
            * mobility
            * self._instance.aspect_ratio
        )
        overdrive = (vgs_arr - vth) / (n * vt)
        forward = ekv_inversion(overdrive)
        saturation = 1.0 - np.exp(-np.abs(vds_arr) / vt)
        current = i_spec * forward * saturation
        if np.isscalar(vgs) and np.isscalar(vds):
            return float(current)
        return current

    def on_current(
        self, vdd, temperature_c: float = ROOM_TEMPERATURE_C
    ):
        """Return the on-current at ``Vgs = Vds = Vdd`` (amperes)."""
        return self.drain_current(vdd, vdd, temperature_c=temperature_c)

    def off_current(
        self, vdd, temperature_c: float = ROOM_TEMPERATURE_C
    ):
        """Return the off-state leakage at ``Vgs = 0, Vds = Vdd`` (amperes).

        A small width-proportional junction/gate leakage floor is added so
        that leakage does not collapse to zero at very low supplies.
        """
        subthreshold = self.drain_current(0.0, vdd, temperature_c=temperature_c)
        floor = self._device.junction_leakage_per_um * self._instance.width_um
        return self._device.leakage_multiplier * subthreshold + floor

    def gate_capacitance(self) -> float:
        """Return the gate capacitance of this instance (farads)."""
        return self._device.gate_capacitance_per_um * self._instance.width_um

    def with_vth_shift(self, shift: float) -> "Mosfet":
        """Return a copy of this device with an additional Vth shift."""
        return Mosfet(
            self._technology,
            self._instance,
            vth_shift=self._vth_shift + shift,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"Mosfet({self._instance.polarity}, W={self._instance.width_um}um, "
            f"L={self._instance.length_um}um, vth_shift={self._vth_shift:+.3f}V)"
        )
