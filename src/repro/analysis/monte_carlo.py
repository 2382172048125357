"""Monte Carlo variation analysis of the minimum energy point.

Corner analysis (Fig. 1) brackets the systematic process spread; the
statistical counterpart asks how the MEP moves under random threshold
variation and how much energy an *uncompensated* design loses compared
with a compensated one.  This is the quantitative backing for the
ablation bench A2 in DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.delay.energy import LoadCharacteristics
from repro.delay.mep import MepPoint, find_minimum_energy_point
from repro.devices.temperature import ROOM_TEMPERATURE_C
from repro.devices.variation import MonteCarloSampler, VariationModel
from repro.digital.signals import code_to_voltage, voltage_to_code
from repro.library import OperatingCondition, SubthresholdLibrary, default_library


@dataclass(frozen=True)
class MonteCarloResult:
    """MEP and penalty numbers for one Monte Carlo sample."""

    index: int
    nmos_vth_shift: float
    pmos_vth_shift: float
    mep: MepPoint
    uncompensated_energy: float
    compensated_energy: float

    @property
    def penalty_percent(self) -> float:
        """Return the energy penalty of ignoring the variation (%)."""
        return 100.0 * (
            self.uncompensated_energy - self.compensated_energy
        ) / self.compensated_energy


@dataclass(frozen=True)
class MonteCarloSummary:
    """Aggregate statistics across all samples."""

    results: List[MonteCarloResult]
    nominal_mep: MepPoint

    @property
    def count(self) -> int:
        """Return the number of samples analysed."""
        return len(self.results)

    def vopt_sigma_mv(self) -> float:
        """Return the standard deviation of the MEP supply (mV)."""
        supplies = np.array([r.mep.optimal_supply for r in self.results])
        return float(supplies.std(ddof=1) * 1e3) if len(supplies) > 1 else 0.0

    def energy_sigma_percent(self) -> float:
        """Return the MEP energy sigma relative to the nominal MEP (%)."""
        energies = np.array([r.mep.minimum_energy for r in self.results])
        if len(energies) < 2:
            return 0.0
        return float(
            100.0 * energies.std(ddof=1) / self.nominal_mep.minimum_energy
        )

    def mean_penalty_percent(self) -> float:
        """Return the average uncompensated energy penalty (%).

        Order audit (repro-lint RL002/RL003 sweep): every reduction in
        this summary runs over ``self.results``, whose order and length
        are fixed by the sample index / ``samples`` argument — never by
        batch composition — so numpy's width-dependent pairwise
        summation cannot leak anything here.
        """
        return float(np.mean([r.penalty_percent for r in self.results]))

    def worst_penalty_percent(self) -> float:
        """Return the worst-case uncompensated energy penalty (%)."""
        return float(np.max([r.penalty_percent for r in self.results]))

    def compensation_gain_percent(self) -> float:
        """Return the mean energy saved by compensation across samples (%)."""
        uncompensated = np.array(
            [r.uncompensated_energy for r in self.results]
        )
        compensated = np.array([r.compensated_energy for r in self.results])
        return float(
            100.0 * np.mean((uncompensated - compensated) / uncompensated)
        )


@dataclass(frozen=True)
class ClosedLoopFleetResult:
    """Population statistics of a closed-loop Monte Carlo fleet run."""

    dies: int
    cycles: int
    telemetry: object
    """The merged telemetry sink (a
    :class:`~repro.engine.trace.StreamingTrace` by default, a
    :class:`~repro.engine.trace.BatchTrace` in dense mode, ``None`` in
    null mode)."""

    energy: np.ndarray
    """Total load energy per die (joules, ``(N,)``)."""

    operations: np.ndarray
    """Completed load operations per die (``(N,)``)."""

    drops: np.ndarray
    """Input samples lost to FIFO overflow per die (``(N,)``)."""

    lut_correction: np.ndarray
    """Final LUT correction per die (LSBs, ``(N,)``)."""

    def energy_per_operation(self) -> np.ndarray:
        """Return the average energy per operation per die (``(N,)``)."""
        from repro.engine.trace import energy_per_operation_arrays

        return energy_per_operation_arrays(self.energy, self.operations)

    def mean_energy_per_operation(self) -> float:
        """Return the fleet-mean energy per operation (joules)."""
        return float(np.nanmean(self.energy_per_operation()))

    def compensated_fraction(self) -> float:
        """Return the fraction of dies that applied a LUT correction."""
        return float(np.mean(self.lut_correction != 0))


def monte_carlo_closed_loop(
    dies: int = 64,
    cycles: int = 1000,
    library: Optional[SubthresholdLibrary] = None,
    variation: Optional[VariationModel] = None,
    corner: str = "TT",
    temperature_c: float = ROOM_TEMPERATURE_C,
    seed: int = 2009,
    sample_rate: float = 1e5,
    fleet=None,
    device_model: str = "exact",
    executor: Optional[str] = None,
) -> ClosedLoopFleetResult:
    """Run a Monte Carlo *closed-loop* fleet: N varied dies, full loop.

    Where :func:`monte_carlo_mep` asks where the MEP moves under
    variation, this drives the complete adaptive-controller loop on a
    fleet of varied dies under independent Poisson input traffic (the
    scalar ``seed`` is spawned into per-die streams) and reports the
    population outcome: per-die energy, throughput, overflow drops and
    the LUT corrections the compensation path converged to.

    ``fleet`` is an optional :class:`~repro.engine.fleet.FleetConfig`;
    the default uses streaming telemetry, so arbitrarily long runs stay
    within a fixed memory budget.  ``device_model="tabulated"`` trades
    bit-exact device math for interpolated response tables — the right
    choice for very large fleets or very long horizons (see
    :mod:`repro.engine.response_tables`).  ``executor`` overrides the
    fleet's executor backend: ``"serial"`` (the default, in-process) or
    ``"process"`` (parallel, for large fleets); both produce
    bit-identical results, so the choice is purely a throughput
    decision.
    """
    if dies <= 0 or cycles <= 0:
        raise ValueError("dies and cycles must be positive")
    from dataclasses import replace

    from repro.circuits.loads import DigitalLoad
    from repro.core.rate_controller import program_lut_for_load
    from repro.engine.engine import BatchPopulation
    from repro.engine.fleet import FleetConfig, FleetEngine
    from repro.workloads.batch import poisson_arrival_matrix

    library = library or default_library()
    sampler = MonteCarloSampler(variation or VariationModel(), seed=seed)
    population = BatchPopulation.from_samples(
        library,
        sampler.draw_arrays(dies),
        corner=corner,
        temperature_c=temperature_c,
    )
    reference_load = DigitalLoad(
        library.ring_oscillator_load, library.reference_delay_model
    )
    lut = program_lut_for_load(reference_load, sample_rate=sample_rate)
    fleet = fleet or FleetConfig(telemetry="streaming")
    if executor is not None:
        fleet = replace(fleet, executor=executor)
    engine = FleetEngine(
        population,
        lut,
        fleet=fleet,
        device_model=device_model,
    )
    arrivals = poisson_arrival_matrix(
        np.full(dies, sample_rate),
        engine.config.system_cycle_period,
        cycles,
        seeds=seed,
    )
    try:
        telemetry = engine.run(arrivals, cycles)
        return ClosedLoopFleetResult(
            dies=dies,
            cycles=cycles,
            telemetry=telemetry,
            energy=engine.total_energy(),
            operations=engine.total_operations(),
            drops=engine.total_drops(),
            lut_correction=engine.final_correction(),
        )
    finally:
        engine.close()


def monte_carlo_mep(
    samples: int = 50,
    library: Optional[SubthresholdLibrary] = None,
    load: Optional[LoadCharacteristics] = None,
    variation: Optional[VariationModel] = None,
    corner: str = "TT",
    temperature_c: float = ROOM_TEMPERATURE_C,
    seed: int = 2009,
    method: str = "batched",
) -> MonteCarloSummary:
    """Run a Monte Carlo MEP analysis.

    For every sample the load's MEP is located on the *varied* silicon;
    the uncompensated design operates at the nominal (no-variation) MEP
    code, the compensated design at the sample's own MEP code — the same
    single-LSB-granularity decision the adaptive controller makes.

    ``method="batched"`` (the default) evaluates one
    ``(N_samples, N_supplies)`` energy surface through the vectorised
    :mod:`repro.engine` math; ``method="scalar"`` keeps the original
    per-sample solve, preserved as the throughput-bench baseline and the
    parity reference.
    """
    if samples <= 0:
        raise ValueError("samples must be positive")
    if method not in ("batched", "scalar"):
        raise ValueError("method must be 'batched' or 'scalar'")
    library = library or default_library()
    load = load or library.ring_oscillator_load
    nominal_condition = OperatingCondition(
        corner=corner, temperature_c=temperature_c
    )
    nominal_model = library.energy_model(nominal_condition, load)
    nominal_mep = find_minimum_energy_point(
        nominal_model, temperature_c=temperature_c, label="nominal"
    )
    nominal_code = voltage_to_code(nominal_mep.optimal_supply)
    nominal_supply_q = code_to_voltage(nominal_code)

    sampler = MonteCarloSampler(variation or VariationModel(), seed=seed)
    if method == "batched":
        results = _monte_carlo_batched(
            sampler, samples, library, load, corner, temperature_c,
            nominal_supply_q,
        )
    else:
        results = _monte_carlo_scalar(
            sampler, samples, library, load, corner, temperature_c,
            nominal_supply_q,
        )
    return MonteCarloSummary(results=results, nominal_mep=nominal_mep)


def _monte_carlo_batched(
    sampler: MonteCarloSampler,
    samples: int,
    library: SubthresholdLibrary,
    load: LoadCharacteristics,
    corner: str,
    temperature_c: float,
    nominal_supply_q: float,
) -> List[MonteCarloResult]:
    """One vectorised energy-grid pass over the whole sample population."""
    from repro.delay.mep import DEFAULT_SUPPLY_GRID, MepPoint, refine_minima_grid
    from repro.engine.device_math import BatchDeviceSet, BatchEnergyModel

    batch = sampler.draw_arrays(samples)
    technology = library.technology_at(
        OperatingCondition(corner=corner, temperature_c=temperature_c)
    )
    devices = BatchDeviceSet.from_technology(
        technology,
        library.reference_delay_model.delay_constant,
        nmos_vth_shifts=batch.nmos_vth_shift,
        pmos_vth_shifts=batch.pmos_vth_shift,
    )
    model = BatchEnergyModel(devices, load)
    grid = DEFAULT_SUPPLY_GRID
    surface = model.total_energy(
        np.broadcast_to(grid, (samples, grid.size)), temperature_c
    )
    v_opt, e_min = refine_minima_grid(grid, surface)
    # Quantise each die's MEP onto the 18.75 mV DC-DC grid (vectorised
    # voltage_to_code / code_to_voltage round trip).
    from repro.devices.technology import DCDC_RESOLUTION_BITS, NOMINAL_SUPPLY_V

    levels = 1 << DCDC_RESOLUTION_BITS
    codes = np.clip(
        np.rint(v_opt * levels / NOMINAL_SUPPLY_V).astype(np.int64),
        0,
        levels - 1,
    )
    compensated_supplies = codes * NOMINAL_SUPPLY_V / levels
    uncompensated = model.total_energy(
        np.full(samples, nominal_supply_q), temperature_c
    )
    compensated = model.total_energy(compensated_supplies, temperature_c)
    return [
        MonteCarloResult(
            index=int(batch.indices[i]),
            nmos_vth_shift=float(batch.nmos_vth_shift[i]),
            pmos_vth_shift=float(batch.pmos_vth_shift[i]),
            mep=MepPoint(
                optimal_supply=float(v_opt[i]),
                minimum_energy=float(e_min[i]),
                temperature_c=temperature_c,
                label=f"mc-{int(batch.indices[i])}",
            ),
            uncompensated_energy=float(uncompensated[i]),
            compensated_energy=float(compensated[i]),
        )
        for i in range(samples)
    ]


def _monte_carlo_scalar(
    sampler: MonteCarloSampler,
    samples: int,
    library: SubthresholdLibrary,
    load: LoadCharacteristics,
    corner: str,
    temperature_c: float,
    nominal_supply_q: float,
) -> List[MonteCarloResult]:
    """The original one-die-at-a-time loop (bench baseline / parity ref)."""
    results: List[MonteCarloResult] = []
    for sample in sampler.draw(samples):
        condition = OperatingCondition(
            corner=corner,
            temperature_c=temperature_c,
            nmos_vth_shift=sample.nmos_vth_shift,
            pmos_vth_shift=sample.pmos_vth_shift,
        )
        model = library.energy_model(condition, load)
        mep = find_minimum_energy_point(
            model, temperature_c=temperature_c, label=f"mc-{sample.index}"
        )
        compensated_supply = code_to_voltage(
            voltage_to_code(mep.optimal_supply)
        )
        results.append(
            MonteCarloResult(
                index=sample.index,
                nmos_vth_shift=sample.nmos_vth_shift,
                pmos_vth_shift=sample.pmos_vth_shift,
                mep=mep,
                uncompensated_energy=float(
                    model.total_energy(nominal_supply_q, temperature_c)
                ),
                compensated_energy=float(
                    model.total_energy(compensated_supply, temperature_c)
                ),
            )
        )
    return results
