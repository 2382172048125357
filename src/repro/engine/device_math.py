"""Vectorised device physics for populations of dies.

The scalar model stack (:mod:`repro.devices.mosfet`,
:mod:`repro.delay.gate_delay`, :mod:`repro.delay.energy`) evaluates one
die at a time: every :class:`~repro.devices.mosfet.Mosfet` carries a
single threshold shift and every :class:`~repro.delay.gate_delay.GateDelayModel`
a single technology.  This module re-expresses the exact same equations
as struct-of-arrays math so a whole population of dies — each with its
own corner parameters and Monte Carlo threshold shifts — is evaluated in
one numpy pass.

Numerical contract: every function mirrors the scalar implementation's
operation *order*, so a batch of one reproduces the scalar models
bit-for-bit.  The parity tests in ``tests/engine`` pin this down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.delay.energy import LoadCharacteristics
from repro.delay.gate_delay import (
    _STAGE_INPUT_CAP_FACTOR,
    _STAGE_PARASITIC_FACTOR,
    _STAGE_SIZING,
    StageKind,
)
from repro.devices.technology import Technology
from repro.devices.temperature import (
    BOLTZMANN,
    CELSIUS_TO_KELVIN,
    ELECTRON_CHARGE,
    ROOM_TEMPERATURE_C,
)

MOSFET_LENGTH_UM = 0.13
"""Channel length of every device in the standard-cell set (um)."""


def _softplus(values: np.ndarray) -> np.ndarray:
    """``ln(1 + exp(x))`` via vectorised ``exp``/``log1p``.

    Same piecewise expression the ``np.logaddexp(0, x)`` ufunc evaluates
    (``max(x, 0) + log1p(exp(-|x|))``), but using numpy's elementwise
    kernels with in-place workspaces (~2-3x faster on the energy-grid
    shapes).  Agrees with ``np.logaddexp`` to within a couple of ULPs,
    which is why it is only used on the analog analysis path — the
    closed-loop engine keeps the bit-exact ufunc so a batch of one stays
    cycle-identical to the scalar controller.  ``values`` is consumed as
    workspace.
    """
    tail = np.abs(values)
    np.negative(tail, out=tail)
    np.exp(tail, out=tail)
    np.log1p(tail, out=tail)
    head = np.maximum(values, 0.0, out=values)
    head += tail
    return head


def _column(values, supply: np.ndarray) -> np.ndarray:
    """Broadcast a per-die (N,) parameter against a supply grid.

    Supplies come in as ``(N,)`` (one operating point per die) or
    ``(N, S)`` (a grid of S points per die); per-die parameters need an
    extra axis in the latter case.
    """
    arr = np.asarray(values, dtype=float)
    if supply.ndim > arr.ndim:
        return arr[..., np.newaxis]
    return arr


@dataclass(frozen=True)
class PolarityArrays:
    """Per-die technology parameters of one device polarity.

    Every field is an ``(N,)`` float array; ``vth_base`` already folds in
    the die's static threshold shift (corner + Monte Carlo), matching the
    ``vth0 + vth_shift`` sum the scalar :class:`Mosfet` performs first.
    """

    vth_base: np.ndarray
    slope_factor: np.ndarray
    specific_current: np.ndarray
    dibl_coefficient: np.ndarray
    gate_capacitance_per_um: np.ndarray
    junction_leakage_per_um: np.ndarray
    leakage_multiplier: np.ndarray
    switched_capacitance_scale: np.ndarray


@dataclass(frozen=True)
class TemperatureArrays:
    """Per-die temperature-model coefficients (``(N,)`` float arrays)."""

    reference_temperature_c: np.ndarray
    vth_temperature_coefficient: np.ndarray
    mobility_exponent: np.ndarray

    def threshold_shift(self, temperature_c, supply: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`TemperatureModel.threshold_shift`."""
        delta_t = np.asarray(temperature_c, dtype=float) - self.reference_temperature_c
        return _column(-self.vth_temperature_coefficient * delta_t, supply)

    def mobility_scale(self, temperature_c, supply: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`TemperatureModel.mobility_scale`."""
        t_ratio = (np.asarray(temperature_c, dtype=float) + CELSIUS_TO_KELVIN) / (
            self.reference_temperature_c + CELSIUS_TO_KELVIN
        )
        return _column(t_ratio ** self.mobility_exponent, supply)


def _stack(technologies: Sequence[Technology], polarity: str, shifts) -> PolarityArrays:
    devices = [tech.device(polarity) for tech in technologies]
    shifts = np.zeros(len(devices)) if shifts is None else np.asarray(shifts, float)
    return PolarityArrays(
        vth_base=np.array([d.vth0 for d in devices]) + shifts,
        slope_factor=np.array([d.subthreshold_slope_factor for d in devices]),
        specific_current=np.array([d.specific_current for d in devices]),
        dibl_coefficient=np.array([d.dibl_coefficient for d in devices]),
        gate_capacitance_per_um=np.array(
            [d.gate_capacitance_per_um for d in devices]
        ),
        junction_leakage_per_um=np.array(
            [d.junction_leakage_per_um for d in devices]
        ),
        leakage_multiplier=np.array([d.leakage_multiplier for d in devices]),
        switched_capacitance_scale=np.array(
            [d.switched_capacitance_scale for d in devices]
        ),
    )


class BatchDeviceSet:
    """Vectorised counterpart of :class:`GateDelayModel` for N dies.

    Holds the per-die NMOS/PMOS parameter arrays plus the shared fitted
    delay constant, and evaluates delays / currents / capacitances for
    the whole population at once.
    """

    def __init__(
        self,
        nmos: PolarityArrays,
        pmos: PolarityArrays,
        temperature: TemperatureArrays,
        delay_constant: float,
    ) -> None:
        if delay_constant <= 0:
            raise ValueError("delay_constant must be positive")
        self.nmos = nmos
        self.pmos = pmos
        self.temperature = temperature
        self.delay_constant = float(delay_constant)
        self.n = int(nmos.vth_base.shape[0])

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_technologies(
        cls,
        technologies: Sequence[Technology],
        delay_constant: float,
        nmos_vth_shifts=None,
        pmos_vth_shifts=None,
    ) -> "BatchDeviceSet":
        """Stack a list of technologies (one per die) into arrays."""
        if not technologies:
            raise ValueError("technologies must not be empty")
        temp = TemperatureArrays(
            reference_temperature_c=np.array(
                [t.temperature_model.reference_temperature_c for t in technologies]
            ),
            vth_temperature_coefficient=np.array(
                [t.temperature_model.vth_temperature_coefficient for t in technologies]
            ),
            mobility_exponent=np.array(
                [t.temperature_model.mobility_exponent for t in technologies]
            ),
        )
        return cls(
            nmos=_stack(technologies, "nmos", nmos_vth_shifts),
            pmos=_stack(technologies, "pmos", pmos_vth_shifts),
            temperature=temp,
            delay_constant=delay_constant,
        )

    @classmethod
    def from_technology(
        cls,
        technology: Technology,
        delay_constant: float,
        nmos_vth_shifts=None,
        pmos_vth_shifts=None,
        n: Optional[int] = None,
    ) -> "BatchDeviceSet":
        """Broadcast one shared technology over a population of dies.

        The population size is taken from the shift arrays (or ``n`` when
        no shifts are given).
        """
        if nmos_vth_shifts is not None:
            count = len(np.atleast_1d(nmos_vth_shifts))
        elif n is not None:
            count = int(n)
        else:
            count = 1
        nshift = (
            np.zeros(count)
            if nmos_vth_shifts is None
            else np.atleast_1d(np.asarray(nmos_vth_shifts, dtype=float))
        )
        pshift = (
            np.zeros(count)
            if pmos_vth_shifts is None
            else np.atleast_1d(np.asarray(pmos_vth_shifts, dtype=float))
        )
        if nshift.shape != pshift.shape:
            raise ValueError("nmos and pmos shift arrays must have equal length")
        size = len(nshift)

        def broadcast(device, shifts) -> PolarityArrays:
            return PolarityArrays(
                vth_base=np.full(size, device.vth0) + shifts,
                slope_factor=np.full(size, device.subthreshold_slope_factor),
                specific_current=np.full(size, device.specific_current),
                dibl_coefficient=np.full(size, device.dibl_coefficient),
                gate_capacitance_per_um=np.full(
                    size, device.gate_capacitance_per_um
                ),
                junction_leakage_per_um=np.full(
                    size, device.junction_leakage_per_um
                ),
                leakage_multiplier=np.full(size, device.leakage_multiplier),
                switched_capacitance_scale=np.full(
                    size, device.switched_capacitance_scale
                ),
            )

        temp_model = technology.temperature_model
        return cls(
            nmos=broadcast(technology.nmos, nshift),
            pmos=broadcast(technology.pmos, pshift),
            temperature=TemperatureArrays(
                reference_temperature_c=np.full(
                    size, temp_model.reference_temperature_c
                ),
                vth_temperature_coefficient=np.full(
                    size, temp_model.vth_temperature_coefficient
                ),
                mobility_exponent=np.full(size, temp_model.mobility_exponent),
            ),
            delay_constant=delay_constant,
        )

    @classmethod
    def from_delay_model(cls, model, n: int = 1) -> "BatchDeviceSet":
        """Lift a scalar :class:`GateDelayModel` into a batch of ``n`` dies."""
        return cls.from_technology(
            model.technology,
            model.delay_constant,
            nmos_vth_shifts=np.full(n, model.nmos_vth_shift),
            pmos_vth_shifts=np.full(n, model.pmos_vth_shift),
        )

    def shard(self, index: slice) -> "BatchDeviceSet":
        """Return the device arrays of a contiguous die shard.

        The shard shares memory with the parent arrays (numpy views);
        the engine never mutates device parameters, so views are safe to
        share between shard engines.
        """
        from dataclasses import fields

        def cut(params: PolarityArrays) -> PolarityArrays:
            return PolarityArrays(
                **{
                    f.name: getattr(params, f.name)[index]
                    for f in fields(PolarityArrays)
                }
            )

        temperature = TemperatureArrays(
            reference_temperature_c=(
                self.temperature.reference_temperature_c[index]
            ),
            vth_temperature_coefficient=(
                self.temperature.vth_temperature_coefficient[index]
            ),
            mobility_exponent=self.temperature.mobility_exponent[index],
        )
        return BatchDeviceSet(
            nmos=cut(self.nmos),
            pmos=cut(self.pmos),
            temperature=temperature,
            delay_constant=self.delay_constant,
        )

    # ------------------------------------------------------------------
    # Device currents (mirrors Mosfet.drain_current)
    # ------------------------------------------------------------------
    def _drain_current(
        self,
        params: PolarityArrays,
        width_um: float,
        vgs,
        vds,
        temperature_c,
    ) -> np.ndarray:
        vds_arr = np.asarray(vds, dtype=float)
        vgs_arr = np.asarray(vgs, dtype=float)
        # kT/q with the exact operation order of thermal_voltage_at so a
        # batch of one is bit-identical to the scalar Mosfet model.
        temp_arr = np.asarray(temperature_c, dtype=float)
        vt = _column(
            BOLTZMANN * (temp_arr + CELSIUS_TO_KELVIN) / ELECTRON_CHARGE,
            vds_arr,
        )
        n = _column(params.slope_factor, vds_arr)
        vth = (
            _column(params.vth_base, vds_arr)
            + self.temperature.threshold_shift(temperature_c, vds_arr)
            - _column(params.dibl_coefficient, vds_arr) * np.abs(vds_arr)
        )
        mobility = self.temperature.mobility_scale(temperature_c, vds_arr)
        aspect_ratio = width_um / MOSFET_LENGTH_UM
        i_spec = (
            _column(params.specific_current, vds_arr) * mobility * aspect_ratio
        )
        overdrive = (vgs_arr - vth) / (n * vt)
        forward = np.logaddexp(0.0, overdrive / 2.0) ** 2
        saturation = 1.0 - np.exp(-np.abs(vds_arr) / vt)
        return i_spec * forward * saturation

    def on_current(
        self, params: PolarityArrays, width_um: float, vdd, temperature_c
    ) -> np.ndarray:
        """Vectorised :meth:`Mosfet.on_current` (``Vgs = Vds = Vdd``)."""
        return self._drain_current(params, width_um, vdd, vdd, temperature_c)

    def on_and_off_currents(
        self,
        params: PolarityArrays,
        width_um: float,
        vdd,
        temperature_c,
        fast: bool = False,
    ):
        """Fused on-current and off-state subthreshold current.

        Both operating points share ``Vds = Vdd``, so the threshold,
        saturation and mobility terms are identical; computing them once
        roughly halves the EKV cost of an energy-grid evaluation.  With
        ``fast=False`` each returned value is bit-identical to the
        corresponding standalone call (the shared subexpressions are the
        same expressions); ``fast=True`` swaps the ``logaddexp`` ufunc
        for the SIMD :func:`_softplus` (couple-of-ULP agreement), which
        the analog MEP analyses use.
        """
        vdd_arr = np.asarray(vdd, dtype=float)
        temp_arr = np.asarray(temperature_c, dtype=float)
        vt = _column(
            BOLTZMANN * (temp_arr + CELSIUS_TO_KELVIN) / ELECTRON_CHARGE,
            vdd_arr,
        )
        n = _column(params.slope_factor, vdd_arr)
        mobility = self.temperature.mobility_scale(temperature_c, vdd_arr)
        aspect_ratio = width_um / MOSFET_LENGTH_UM
        i_spec = (
            _column(params.specific_current, vdd_arr) * mobility * aspect_ratio
        )
        denominator = n * vt
        vth_head = _column(params.vth_base, vdd_arr) + self.temperature.threshold_shift(
            temperature_c, vdd_arr
        )
        abs_vdd = np.abs(vdd_arr)
        if fast:
            # In-place pipeline: same expressions as the exact branch,
            # evaluated into reusable workspaces (multiplication reorders
            # are commutativity-only, so values match to the ULP).
            vth = _column(params.dibl_coefficient, vdd_arr) * abs_vdd
            np.subtract(np.broadcast_to(vth_head, vth.shape), vth, out=vth)
            saturation = np.divide(abs_vdd, vt)
            np.negative(saturation, out=saturation)
            np.exp(saturation, out=saturation)
            np.subtract(1.0, saturation, out=saturation)
            overdrive_on = np.subtract(vdd_arr, vth)
            np.divide(overdrive_on, denominator, out=overdrive_on)
            overdrive_on /= 2.0
            on_forward = _softplus(overdrive_on)
            np.square(on_forward, out=on_forward)
            overdrive_off = np.negative(vth, out=vth)
            np.divide(overdrive_off, denominator, out=overdrive_off)
            overdrive_off /= 2.0
            off_forward = _softplus(overdrive_off)
            np.square(off_forward, out=off_forward)
            on = np.multiply(on_forward, i_spec, out=on_forward)
            np.multiply(on, saturation, out=on)
            off = np.multiply(off_forward, i_spec, out=off_forward)
            np.multiply(off, saturation, out=off)
            return on, off
        vth = vth_head - _column(params.dibl_coefficient, vdd_arr) * abs_vdd
        saturation = 1.0 - np.exp(-abs_vdd / vt)
        on_forward = (
            np.logaddexp(0.0, ((vdd_arr - vth) / denominator) / 2.0) ** 2
        )
        off_forward = (
            np.logaddexp(0.0, ((0.0 - vth) / denominator) / 2.0) ** 2
        )
        return i_spec * on_forward * saturation, i_spec * off_forward * saturation

    def off_current(
        self, params: PolarityArrays, width_um: float, vdd, temperature_c
    ) -> np.ndarray:
        """Vectorised :meth:`Mosfet.off_current` (``Vgs = 0, Vds = Vdd``)."""
        vdd_arr = np.asarray(vdd, dtype=float)
        subthreshold = self._drain_current(
            params, width_um, 0.0, vdd_arr, temperature_c
        )
        floor = _column(params.junction_leakage_per_um * width_um, vdd_arr)
        return _column(params.leakage_multiplier, vdd_arr) * subthreshold + floor

    # ------------------------------------------------------------------
    # Capacitances (mirrors GateDelayModel)
    # ------------------------------------------------------------------
    def inverter_input_capacitance(self) -> np.ndarray:
        """Per-die inverter input capacitance (farads, shape ``(N,)``)."""
        sizing = _STAGE_SIZING[StageKind.INVERTER]
        return (
            self.nmos.gate_capacitance_per_um * sizing["wn"]
            + self.pmos.gate_capacitance_per_um * sizing["wp"]
        )

    def input_capacitance(self, stage: StageKind) -> np.ndarray:
        """Per-die input capacitance of ``stage`` (farads)."""
        return self.inverter_input_capacitance() * _STAGE_INPUT_CAP_FACTOR[stage]

    def parasitic_capacitance(self, stage: StageKind) -> np.ndarray:
        """Per-die intrinsic output capacitance of ``stage`` (farads)."""
        return self.inverter_input_capacitance() * _STAGE_PARASITIC_FACTOR[stage]

    def load_capacitance(
        self,
        stage: StageKind,
        fanout: float = 1.0,
        load_stage: StageKind = StageKind.INVERTER,
        extra_load: float = 0.0,
    ) -> np.ndarray:
        """Per-die switched load capacitance driven by ``stage`` (farads)."""
        if fanout < 0 or extra_load < 0:
            raise ValueError("fanout and extra_load must be non-negative")
        return (
            self.parasitic_capacitance(stage)
            + fanout * self.input_capacitance(load_stage)
            + extra_load
        )

    # ------------------------------------------------------------------
    # Delay and leakage (mirrors GateDelayModel)
    # ------------------------------------------------------------------
    def drive_currents(self, stage: StageKind, supply, temperature_c):
        """Return per-die ``(pull_down, pull_up)`` currents (amperes)."""
        sizing = _STAGE_SIZING[stage]
        pull_down = (
            self.on_current(self.nmos, sizing["wn"], supply, temperature_c)
            / sizing["stack_n"]
        )
        pull_up = (
            self.on_current(self.pmos, sizing["wp"], supply, temperature_c)
            / sizing["stack_p"]
        )
        return pull_down, pull_up

    def propagation_delay(
        self,
        stage: StageKind,
        supply,
        temperature_c=ROOM_TEMPERATURE_C,
        fanout: float = 1.0,
        load_stage: StageKind = StageKind.INVERTER,
        extra_load: float = 0.0,
    ) -> np.ndarray:
        """Per-die average propagation delay (seconds)."""
        supply_arr = np.asarray(supply, dtype=float)
        if np.any(supply_arr <= 0):
            raise ValueError("supply must be positive")
        c_load = _column(
            self.load_capacitance(stage, fanout, load_stage, extra_load),
            supply_arr,
        )
        pull_down, pull_up = self.drive_currents(stage, supply_arr, temperature_c)
        fall = self.delay_constant * c_load * supply_arr / pull_down
        rise = self.delay_constant * c_load * supply_arr / pull_up
        return 0.5 * (rise + fall)

    def stage_delay_inv_nor(
        self, supply, temperature_c=ROOM_TEMPERATURE_C
    ) -> np.ndarray:
        """Per-die INV + NOR replica-cell delay (the TDC's unit delay)."""
        inv = self.propagation_delay(
            StageKind.INVERTER,
            supply,
            temperature_c=temperature_c,
            load_stage=StageKind.NOR2,
        )
        nor = self.propagation_delay(
            StageKind.NOR2,
            supply,
            temperature_c=temperature_c,
            load_stage=StageKind.INVERTER,
        )
        return inv + nor

    def leakage_current(
        self, stage: StageKind, supply, temperature_c=ROOM_TEMPERATURE_C
    ) -> np.ndarray:
        """Per-die state-averaged off current of ``stage`` (amperes)."""
        sizing = _STAGE_SIZING[stage]
        nmos_off = self.off_current(self.nmos, sizing["wn"], supply, temperature_c)
        pmos_off = self.off_current(self.pmos, sizing["wp"], supply, temperature_c)
        return 0.5 * (nmos_off + pmos_off)


class BatchEnergyModel:
    """Vectorised counterpart of :class:`repro.delay.energy.EnergyModel`.

    One shared :class:`LoadCharacteristics` evaluated on N dies at once;
    ``supply`` arguments may be ``(N,)`` (one point per die) or ``(N, S)``
    (an energy grid per die).
    """

    def __init__(self, devices: BatchDeviceSet, load: LoadCharacteristics) -> None:
        self.devices = devices
        self.load = load
        # Per-die constants of the representative stage (cached once; the
        # device arrays are never mutated after construction).
        self._switched_capacitance = self.switched_capacitance()
        self._stage_c_load = devices.load_capacitance(
            load.representative_stage,
            fanout=load.average_fanout,
            load_stage=load.representative_stage,
        )

    @property
    def n(self) -> int:
        """Return the population size."""
        return self.devices.n

    def switched_capacitance(self) -> np.ndarray:
        """Per-die total switched capacitance (farads, shape ``(N,)``)."""
        per_gate = self.devices.load_capacitance(
            self.load.representative_stage,
            fanout=self.load.average_fanout,
            load_stage=self.load.representative_stage,
        )
        corner_scale = 0.5 * (
            self.devices.nmos.switched_capacitance_scale
            + self.devices.pmos.switched_capacitance_scale
        )
        return (
            per_gate
            * self.load.gate_count
            * self.load.capacitance_scale
            * corner_scale
        )

    def leakage_current(
        self, supply, temperature_c=ROOM_TEMPERATURE_C
    ) -> np.ndarray:
        """Per-die total leakage current of the load (amperes)."""
        per_gate = self.devices.leakage_current(
            self.load.representative_stage, supply, temperature_c
        )
        return per_gate * self.load.gate_count * self.load.leakage_scale

    def cycle_time(self, supply, temperature_c=ROOM_TEMPERATURE_C) -> np.ndarray:
        """Per-die critical-path (cycle) time (seconds)."""
        stage_delay = self.devices.propagation_delay(
            self.load.representative_stage,
            supply,
            temperature_c=temperature_c,
            fanout=self.load.average_fanout,
            load_stage=self.load.representative_stage,
        )
        return stage_delay * self.load.logic_depth

    def dynamic_energy(self, supply) -> np.ndarray:
        """Per-die switched-capacitance energy per cycle (joules)."""
        supply_arr = np.asarray(supply, dtype=float)
        return (
            self.load.switching_activity
            * _column(self._switched_capacitance, supply_arr)
            * supply_arr ** 2
        )

    def _fused_queries(self, supply: np.ndarray, temperature_c, fast=False):
        """Fused ``(cycle_time, leakage_current)`` of the load.

        Evaluates the representative stage's pull currents and off
        currents with shared EKV subexpressions; with ``fast=False``
        every returned value is bit-identical to the standalone
        :meth:`cycle_time` / :meth:`leakage_current` results.
        """
        devices = self.devices
        stage = self.load.representative_stage
        sizing = _STAGE_SIZING[stage]
        on_n, off_sub_n = devices.on_and_off_currents(
            devices.nmos, sizing["wn"], supply, temperature_c, fast=fast
        )
        on_p, off_sub_p = devices.on_and_off_currents(
            devices.pmos, sizing["wp"], supply, temperature_c, fast=fast
        )
        # Delay path (mirrors BatchDeviceSet.propagation_delay).  The
        # intermediates are consumed in place; every value matches the
        # out-of-place expressions (reorders are commutativity-only).
        numerator = (
            devices.delay_constant * _column(self._stage_c_load, supply)
        ) * supply
        np.divide(on_n, sizing["stack_n"], out=on_n)
        np.divide(on_p, sizing["stack_p"], out=on_p)
        fall = np.divide(numerator, on_n, out=on_n)
        rise = np.divide(numerator, on_p, out=on_p)
        cycle_time = np.add(rise, fall, out=fall)
        cycle_time *= 0.5
        cycle_time *= self.load.logic_depth
        # Leakage path (mirrors BatchDeviceSet.leakage_current).
        np.multiply(
            off_sub_n, _column(devices.nmos.leakage_multiplier, supply),
            out=off_sub_n,
        )
        off_sub_n += _column(
            devices.nmos.junction_leakage_per_um * sizing["wn"], supply
        )
        np.multiply(
            off_sub_p, _column(devices.pmos.leakage_multiplier, supply),
            out=off_sub_p,
        )
        off_sub_p += _column(
            devices.pmos.junction_leakage_per_um * sizing["wp"], supply
        )
        leakage_current = np.add(off_sub_n, off_sub_p, out=off_sub_n)
        leakage_current *= 0.5
        leakage_current *= self.load.gate_count
        leakage_current *= self.load.leakage_scale
        return cycle_time, leakage_current

    def leakage_energy(self, supply, temperature_c=ROOM_TEMPERATURE_C) -> np.ndarray:
        """Per-die leakage energy per cycle (joules)."""
        supply_arr = np.asarray(supply, dtype=float)
        return (
            supply_arr
            * self.leakage_current(supply_arr, temperature_c)
            * self.cycle_time(supply_arr, temperature_c)
        )

    def total_energy(self, supply, temperature_c=ROOM_TEMPERATURE_C) -> np.ndarray:
        """Per-die total per-cycle energy (joules).

        This is the one call the batched Monte Carlo / sweep analyses
        make: an ``(N, S)`` supply grid in, an ``(N, S)`` energy surface
        out — replacing N scalar bathtub sweeps.
        """
        supply_arr = np.asarray(supply, dtype=float)
        dynamic = self.dynamic_energy(supply_arr)
        cycle_time, leakage_current = self._fused_queries(
            supply_arr, temperature_c, fast=True
        )
        leakage = supply_arr * leakage_current * cycle_time
        return dynamic * (1.0 + self.load.short_circuit_fraction) + leakage

    def current_draw(
        self,
        supply,
        temperature_c=ROOM_TEMPERATURE_C,
        operations_per_second: Optional[float] = None,
    ) -> np.ndarray:
        """Per-die supply current drawn by the load (amperes).

        Mirrors :meth:`repro.circuits.loads.DigitalLoad.current_draw`
        including its non-positive-supply guard, so it can sit inside the
        power-stage integration loop.
        """
        supply_arr = np.asarray(supply, dtype=float)
        positive = supply_arr > 0
        safe = np.where(positive, supply_arr, 1.0)
        cycle_time, leakage = self._fused_queries(safe, temperature_c)
        max_rate = 1.0 / cycle_time
        if operations_per_second is None:
            rate = max_rate
        else:
            rate = np.minimum(operations_per_second, max_rate)
        dynamic_charge = (
            self.dynamic_energy(safe)
            * (1.0 + self.load.short_circuit_fraction)
            / safe
        )
        return np.where(positive, leakage + dynamic_charge * rate, 0.0)


def batch_measure_tdc_counts(
    sensor: BatchDeviceSet,
    supply,
    temperature_c,
    measurement_window: float,
    max_count: int,
    minimum_supply: float,
):
    """Vectorised counter-mode TDC measurement.

    Mirrors :meth:`TimeToDigitalConverter.measure`: per-die replica cell
    delay at the present supply, accumulated over the measurement window,
    saturated at ``max_count``.  Returns ``(counts, reliable)`` arrays.
    """
    supply_arr = np.asarray(supply, dtype=float)
    alive = supply_arr >= minimum_supply
    safe = np.where(alive, supply_arr, 1.0)
    cell = sensor.stage_delay_inv_nor(safe, temperature_c=temperature_c)
    raw = (measurement_window / cell).astype(np.int64)
    counts = np.where(alive, np.minimum(max_count, raw), 0)
    reliable = alive & (counts < max_count) & (counts > 0)
    return counts, reliable


def codes_from_counts(expected_counts: np.ndarray, counts) -> np.ndarray:
    """Vectorised :meth:`TdcCalibration.code_from_count`.

    For each die, return the supply code whose reference-corner expected
    count is closest to the measured count (first match on ties, exactly
    like ``np.argmin`` in the scalar path).
    """
    counts_arr = np.asarray(counts, dtype=float)
    differences = np.abs(
        expected_counts[np.newaxis, :] - counts_arr[:, np.newaxis]
    )
    return np.argmin(differences, axis=1).astype(np.int64)
