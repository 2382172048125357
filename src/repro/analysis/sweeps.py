"""Supply-voltage sweeps across corners and temperatures (Fig. 1-3).

These drivers regenerate the data behind the paper's three
characterisation figures:

* Fig. 1 — total energy versus Vdd for the SS/TT/FS corners at
  ``alpha = 0.1`` (the minimum energy point and its corner shift),
* Fig. 2 — the same sweep versus temperature (25/85/115 C),
* Fig. 3 — delay versus Vdd for the corners (the exponential
  subthreshold delay blow-up the TDC exploits).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.delay.energy import LoadCharacteristics
from repro.delay.gate_delay import StageKind
from repro.delay.mep import (
    MepPoint,
    MepSweep,
    energy_spread_percent,
    vopt_spread_percent,
)
from repro.devices.temperature import ROOM_TEMPERATURE_C
from repro.library import OperatingCondition, SubthresholdLibrary, default_library

FIG1_CORNERS = ("SS", "TT", "FS")
FIG2_TEMPERATURES = (25.0, 85.0, 115.0)
FIG3_CORNERS = ("SS", "TT", "FS")


@dataclass(frozen=True)
class CornerSweepResult:
    """Energy-versus-supply sweeps per process corner (Fig. 1)."""

    sweeps: Dict[str, MepSweep]
    switching_activity: float
    temperature_c: float

    @property
    def minima(self) -> Dict[str, MepPoint]:
        """Return the minimum energy point per corner."""
        return {name: sweep.minimum for name, sweep in self.sweeps.items()}

    def vopt_spread_percent(self) -> float:
        """Return the corner-to-corner spread of the MEP supply (%)."""
        return vopt_spread_percent(list(self.minima.values()))

    def energy_spread_percent(self) -> float:
        """Return the corner-to-corner spread of the MEP energy (%).

        Computed relative to the *smallest* minimum, matching how the
        paper arrives at its "energy variation of 55 %" figure
        ((2.65 - 1.7) / 1.7).
        """
        energies = np.array(
            [point.minimum_energy for point in self.minima.values()]
        )
        return float(100.0 * (energies.max() - energies.min()) / energies.min())

    def energy_spread_of_maximum_percent(self) -> float:
        """Return the spread relative to the largest minimum (%)."""
        return energy_spread_percent(list(self.minima.values()))


@dataclass(frozen=True)
class TemperatureSweepResult:
    """Energy-versus-supply sweeps per temperature (Fig. 2)."""

    sweeps: Dict[float, MepSweep]
    corner: str
    switching_activity: float

    @property
    def minima(self) -> Dict[float, MepPoint]:
        """Return the minimum energy point per temperature."""
        return {temp: sweep.minimum for temp, sweep in self.sweeps.items()}

    def energy_increase_percent(
        self, cold_c: float = 25.0, hot_c: float = 85.0
    ) -> float:
        """Return the MEP energy increase from ``cold_c`` to ``hot_c`` (%)."""
        cold = self.minima[cold_c].minimum_energy
        hot = self.minima[hot_c].minimum_energy
        return float(100.0 * (hot - cold) / cold)

    def vopt_shift_mv(self, cold_c: float = 25.0, hot_c: float = 85.0) -> float:
        """Return the MEP supply shift from ``cold_c`` to ``hot_c`` (mV)."""
        return float(
            1e3
            * (
                self.minima[hot_c].optimal_supply
                - self.minima[cold_c].optimal_supply
            )
        )


@dataclass(frozen=True)
class DelaySweepResult:
    """Delay-versus-supply sweeps per corner (Fig. 3)."""

    supplies: np.ndarray
    delays: Dict[str, np.ndarray]
    temperature_c: float

    def delay_at(self, corner: str, supply: float) -> float:
        """Return the interpolated delay of a corner at ``supply``."""
        return float(
            np.interp(supply, self.supplies, self.delays[corner])
        )

    def delay_ratio(self, corner: str, reference: str, supply: float) -> float:
        """Return the delay of ``corner`` relative to ``reference``."""
        return self.delay_at(corner, supply) / self.delay_at(reference, supply)

    def sensitivity_percent(
        self, corner: str, supply: float, supply_variation: float = 0.1
    ) -> float:
        """Return the delay change (%) for a relative supply variation.

        The paper observes that a 10 % supply variation causes up to a
        30 % delay change in the subthreshold region.
        """
        nominal = self.delay_at(corner, supply)
        lowered = self.delay_at(corner, supply * (1.0 - supply_variation))
        return float(100.0 * (lowered - nominal) / nominal)


def _batched_sweeps(
    library: SubthresholdLibrary,
    conditions: Sequence[OperatingCondition],
    load: LoadCharacteristics,
    labels: Sequence[str],
    supplies: Optional[np.ndarray],
    temperature_c,
) -> Sequence[MepSweep]:
    """Evaluate many bathtub sweeps as one (N, S) energy-grid pass."""
    from repro.delay.mep import DEFAULT_SUPPLY_GRID, find_minimum_energy_points
    from repro.engine.mep import batch_energy_model, batched_energy_surface

    grid = np.asarray(
        DEFAULT_SUPPLY_GRID if supplies is None else supplies, dtype=float
    )
    model = batch_energy_model(library, conditions, load)
    # batched_energy_surface validates the grid (1-D, >= 3 points, > 0).
    surface = batched_energy_surface(model, grid, temperature_c)
    minima = find_minimum_energy_points(grid, surface, temperature_c, labels)
    return [
        MepSweep(
            supplies=grid,
            energies=surface[i],
            minimum=minima[i],
            label=labels[i],
        )
        for i in range(len(conditions))
    ]


def corner_energy_sweep(
    library: Optional[SubthresholdLibrary] = None,
    corners: Sequence[str] = FIG1_CORNERS,
    load: Optional[LoadCharacteristics] = None,
    switching_activity: float = 0.1,
    temperature_c: float = ROOM_TEMPERATURE_C,
    supplies: Optional[np.ndarray] = None,
) -> CornerSweepResult:
    """Regenerate Fig. 1: MEP versus process corner.

    All corners are evaluated in one vectorised ``(corners, supplies)``
    energy-grid pass through :mod:`repro.engine`.
    """
    library = library or default_library()
    base_load = load or library.ring_oscillator_load
    base_load = base_load.with_activity(switching_activity)
    conditions = [
        OperatingCondition(corner=corner, temperature_c=temperature_c)
        for corner in corners
    ]
    batched = _batched_sweeps(
        library, conditions, base_load, list(corners), supplies, temperature_c
    )
    return CornerSweepResult(
        sweeps=dict(zip(corners, batched)),
        switching_activity=switching_activity,
        temperature_c=temperature_c,
    )


def temperature_energy_sweep(
    library: Optional[SubthresholdLibrary] = None,
    temperatures: Sequence[float] = FIG2_TEMPERATURES,
    corner: str = "TT",
    load: Optional[LoadCharacteristics] = None,
    switching_activity: float = 0.1,
    supplies: Optional[np.ndarray] = None,
) -> TemperatureSweepResult:
    """Regenerate Fig. 2: MEP versus temperature.

    One batched energy-grid pass with a per-row temperature vector.
    """
    library = library or default_library()
    base_load = load or library.ring_oscillator_load
    base_load = base_load.with_activity(switching_activity)
    conditions = [
        OperatingCondition(corner=corner, temperature_c=temperature)
        for temperature in temperatures
    ]
    batched = _batched_sweeps(
        library,
        conditions,
        base_load,
        [f"T={temperature:g}C" for temperature in temperatures],
        supplies,
        np.asarray(temperatures, dtype=float),
    )
    return TemperatureSweepResult(
        sweeps={
            float(temperature): sweep
            for temperature, sweep in zip(temperatures, batched)
        },
        corner=corner,
        switching_activity=switching_activity,
    )


def delay_sweep(
    library: Optional[SubthresholdLibrary] = None,
    corners: Sequence[str] = FIG3_CORNERS,
    supplies: Optional[np.ndarray] = None,
    temperature_c: float = ROOM_TEMPERATURE_C,
    stage: StageKind = StageKind.NAND2,
    stages_on_path: int = 1,
) -> DelaySweepResult:
    """Regenerate Fig. 3: delay versus supply per corner.

    All corners are evaluated as one ``(corners, supplies)`` batched
    propagation-delay pass.
    """
    from repro.engine.device_math import BatchDeviceSet

    library = library or default_library()
    grid = (
        np.linspace(0.1, 1.2, 111) if supplies is None
        else np.asarray(supplies, dtype=float)
    )
    conditions = [
        OperatingCondition(corner=corner, temperature_c=temperature_c)
        for corner in corners
    ]
    devices = BatchDeviceSet.from_technologies(
        [library.technology_at(condition) for condition in conditions],
        library.reference_delay_model.delay_constant,
    )
    per_stage = devices.propagation_delay(
        stage,
        np.broadcast_to(grid, (len(conditions), grid.size)),
        temperature_c=temperature_c,
        load_stage=stage,
    )
    delays: Dict[str, np.ndarray] = {
        corner: per_stage[i] * stages_on_path
        for i, corner in enumerate(corners)
    }
    return DelaySweepResult(
        supplies=grid, delays=delays, temperature_c=temperature_c
    )


@dataclass(frozen=True)
class ClosedLoopCornerResult:
    """Closed-loop controller outcome per process corner.

    Produced by :func:`closed_loop_corner_sweep`, which runs the full
    adaptive loop on one die per corner as a sharded fleet with
    streaming telemetry.
    """

    corners: Sequence[str]
    cycles: int
    telemetry: object
    """The merged :class:`~repro.engine.trace.StreamingTrace`."""

    energy_per_operation: Dict[str, float]
    """Average energy per completed operation per corner (joules)."""

    final_voltage: Dict[str, float]
    """Mean tail output voltage per corner (volts)."""

    settle_cycle: Dict[str, int]
    """1-based cycle of the last comparator trim per corner (0 = never)."""

    lut_correction: Dict[str, int]
    """Final LUT correction per corner (LSBs)."""

    def correction_spread_lsb(self) -> int:
        """Return the corner-to-corner spread of the LUT correction."""
        values = list(self.lut_correction.values())
        return int(max(values) - min(values))


def closed_loop_corner_sweep(
    library: Optional[SubthresholdLibrary] = None,
    corners: Sequence[str] = FIG1_CORNERS,
    cycles: int = 1200,
    sample_rate: float = 1e5,
    temperature_c: float = ROOM_TEMPERATURE_C,
    fleet=None,
    device_model: str = "exact",
    executor: Optional[str] = None,
) -> ClosedLoopCornerResult:
    """Run the full adaptive loop on one die per corner (Fig. 1 corners).

    The corner characterisation sweeps above ask where the MEP sits;
    this asks what the *controller* does about it: each corner die runs
    the complete FIFO -> rate controller -> DC-DC -> compensation loop
    under the same constant traffic, and the result reports the
    settle time, converged supply and LUT correction per corner.  Runs
    as a :class:`~repro.engine.fleet.FleetEngine` with streaming
    telemetry by default; ``device_model="tabulated"`` swaps the exact
    per-cycle device math for interpolated response tables, and
    ``executor`` picks the fleet backend (``"serial"``/``"process"`` —
    bit-identical results).
    """
    if cycles <= 0:
        raise ValueError("cycles must be positive")
    from dataclasses import replace

    from repro.circuits.loads import DigitalLoad
    from repro.core.rate_controller import program_lut_for_load
    from repro.engine.engine import BatchPopulation
    from repro.engine.fleet import FleetConfig, FleetEngine
    from repro.workloads.batch import constant_arrival_matrix

    library = library or default_library()
    population = BatchPopulation.from_corners(
        library, corners, temperature_c=temperature_c
    )
    reference_load = DigitalLoad(
        library.ring_oscillator_load, library.reference_delay_model
    )
    lut = program_lut_for_load(reference_load, sample_rate=sample_rate)
    # The settle/voltage reductions below need streaming reducers, so a
    # caller-supplied FleetConfig (worker count, shard size) is honoured
    # but its telemetry mode is forced to streaming.
    fleet = replace(
        fleet or FleetConfig(), telemetry="streaming"
    )
    if executor is not None:
        fleet = replace(fleet, executor=executor)
    engine = FleetEngine(
        population, lut, fleet=fleet, device_model=device_model
    )
    arrivals = constant_arrival_matrix(
        np.full(len(corners), sample_rate),
        engine.config.system_cycle_period,
        cycles,
    )
    try:
        sink = engine.run(arrivals, cycles)
        epo = sink.energy_per_operation()
        final_voltage = sink.final_voltage()
        settle = sink.settle_cycle
        correction = engine.final_correction()
    finally:
        engine.close()
    return ClosedLoopCornerResult(
        corners=tuple(corners),
        cycles=cycles,
        telemetry=sink,
        energy_per_operation={
            corner: float(epo[i]) for i, corner in enumerate(corners)
        },
        final_voltage={
            corner: float(final_voltage[i])
            for i, corner in enumerate(corners)
        },
        settle_cycle={
            corner: int(settle[i]) for i, corner in enumerate(corners)
        },
        lut_correction={
            corner: int(correction[i]) for i, corner in enumerate(corners)
        },
    )
