"""Tolerance-pinned parity of ``device_model="tabulated"`` vs ``"exact"``.

The tabulated response trades the bit-exact EKV pipeline for per-die
interpolants; these tests pin how much it is allowed to drift:

* the minimum energy point recovered from the tables sits within one
  table grid step of the exact model's,
* a closed-loop Monte Carlo run converges to the same final voltage to
  tight rtol,
* the corner-sweep population (the PR-2 closed-loop corner analysis)
  converges to **identical** LUT corrections — the TDC staircase is
  tabulated at its exact step positions, not interpolated.

The build itself is pinned bit for bit to live oracles: every channel
table equals the exact device model's answer on the grid, and every TDC
breakpoint equals an unblocked reference bisection over the
``propagation_delay`` sum of the replica cell.
"""

import numpy as np
import pytest

from repro.circuits.loads import DigitalLoad
from repro.core.config import ControllerConfig, TdcConfig
from repro.core.rate_controller import program_lut_for_load
from repro.delay.gate_delay import StageKind
from repro.devices.variation import MonteCarloSampler, VariationModel
from repro.engine import (
    BatchEngine,
    BatchPopulation,
    ResponseTables,
)
from repro.engine.device_math import (
    batch_measure_tdc_counts,
    codes_from_counts,
)
from repro.engine.response_tables import TdcCodeTables
from repro.workloads.batch import constant_arrival_matrix


@pytest.fixture(scope="module")
def reference_lut(library):
    reference_load = DigitalLoad(
        library.ring_oscillator_load, library.reference_delay_model
    )
    return program_lut_for_load(reference_load, sample_rate=1e5)


@pytest.fixture(scope="module")
def mc_population(library):
    samples = MonteCarloSampler(
        VariationModel(global_sigma_v=0.02), seed=31
    ).draw_arrays(12)
    return BatchPopulation.from_samples(library, samples)


@pytest.fixture(scope="module")
def mc_tables(mc_population):
    return ResponseTables.from_population(mc_population, ControllerConfig())


class TestResponseTableAccuracy:
    def test_mep_within_one_grid_step(self, mc_population, mc_tables):
        """Tabulated MEP supply within one table grid step of exact."""
        from repro.delay.mep import DEFAULT_SUPPLY_GRID

        grid = DEFAULT_SUPPLY_GRID
        n = mc_population.n
        supplies = np.broadcast_to(grid, (n, grid.size))
        exact = mc_population.energy.total_energy(
            supplies, mc_population.temperature_c
        )
        tabulated = mc_tables.total_energy(supplies)
        exact_vopt = grid[np.argmin(exact, axis=1)]
        tab_vopt = grid[np.argmin(tabulated, axis=1)]
        table_step = mc_tables.grid[1] - mc_tables.grid[0]
        assert np.all(np.abs(tab_vopt - exact_vopt) <= table_step + 1e-12)

    def test_channel_interpolation_accuracy(self, mc_population, mc_tables):
        """Every channel tracks the exact model to <= 1e-3 relative on
        the loop's operating range."""
        rng = np.random.default_rng(5)
        n = mc_population.n
        supply = rng.uniform(0.1, 1.0, size=n)
        energy = mc_population.energy
        temp = mc_population.temperature_c
        checks = {
            "current_draw": energy.current_draw(supply, temp),
            "cycle_time": energy.cycle_time(supply, temp),
            "leakage_current": energy.leakage_current(supply, temp),
            "dynamic_energy": energy.dynamic_energy(supply),
        }
        for channel, exact in checks.items():
            out = np.empty(n)
            getattr(mc_tables, channel)(supply, out=out)
            np.testing.assert_allclose(
                out, exact, rtol=1e-3, err_msg=channel
            )

    def test_shard_views_match_full_tables(self, mc_tables):
        supply = np.linspace(0.15, 0.9, mc_tables.n)
        full = mc_tables.current_draw(supply.copy())
        shard = mc_tables.shard(slice(4, 9))
        np.testing.assert_array_equal(
            shard.current_draw(supply[4:9].copy()), full[4:9]
        )

    def test_tdc_staircase_exact_with_saturating_counter(self, library):
        """A counter too narrow for the top expected counts saturates;
        the tabulated staircase must clamp exactly like the exact path
        (codes match even unmasked, as delay-servo sensing consumes
        them), including below the replica's minimum supply."""
        config = ControllerConfig(tdc=TdcConfig(counter_bits=9))
        samples = MonteCarloSampler(seed=19).draw_arrays(6)
        population = BatchPopulation.from_samples(
            library, samples, config=config
        )
        tables = ResponseTables.from_population(population, config)
        cfg = config.tdc
        rng = np.random.default_rng(23)
        for _ in range(8):
            vout = rng.uniform(0.01, 1.15, size=population.n)
            counts, reliable = batch_measure_tdc_counts(
                population.sensor_devices,
                vout,
                population.temperature_c,
                cfg.measurement_window,
                cfg.max_count,
                cfg.minimum_supply,
            )
            expected = codes_from_counts(
                population.expected_counts, counts
            )
            codes, table_reliable = tables.tdc.lookup(vout)
            np.testing.assert_array_equal(codes, expected)
            np.testing.assert_array_equal(table_reliable, reliable)

    def test_tdc_staircase_is_exact(self, mc_population, mc_tables):
        """Tabulated TDC codes/reliability == the exact measurement."""
        cfg = ControllerConfig().tdc
        rng = np.random.default_rng(11)
        for _ in range(8):
            vout = rng.uniform(0.02, 1.1, size=mc_population.n)
            counts, reliable = batch_measure_tdc_counts(
                mc_population.sensor_devices,
                vout,
                mc_population.temperature_c,
                cfg.measurement_window,
                cfg.max_count,
                cfg.minimum_supply,
            )
            expected = codes_from_counts(
                mc_population.expected_counts, counts
            )
            codes, table_reliable = mc_tables.tdc.lookup(vout)
            np.testing.assert_array_equal(table_reliable, reliable)
            np.testing.assert_array_equal(
                codes[reliable], expected[reliable]
            )



def _assert_bits_equal(actual, expected, label=""):
    """Bit-for-bit equality: the int64 views compare +-inf, NaN and
    -0.0 exactly, where float equality would not."""
    actual = np.ascontiguousarray(actual, dtype=float)
    expected = np.ascontiguousarray(expected, dtype=float)
    assert actual.shape == expected.shape, label
    np.testing.assert_array_equal(
        actual.view(np.int64), expected.view(np.int64), err_msg=label
    )


def _replica_cell_oracle(devices, supply, temperature_c):
    """The TDC replica cell as two live propagation delays."""
    return devices.propagation_delay(
        StageKind.INVERTER,
        supply,
        temperature_c=temperature_c,
        load_stage=StageKind.NOR2,
    ) + devices.propagation_delay(
        StageKind.NOR2,
        supply,
        temperature_c=temperature_c,
        load_stage=StageKind.INVERTER,
    )


def _reference_breaks(sensor, temperature_c, tdc_config, expected, v_max):
    """Unblocked bisection of every TDC step edge: the (N, levels + 1)
    breakpoints ``TdcCodeTables`` must reproduce, codes first, then the
    ``counts > 0`` and ``counts < max_count`` edges."""
    window = tdc_config.measurement_window
    max_count = tdc_config.max_count
    counts_axis = np.arange(max_count + 1, dtype=float)
    code_of_count = np.argmin(
        np.abs(expected[np.newaxis, :] - counts_axis[:, np.newaxis]), axis=1
    )
    code_thresholds = np.searchsorted(
        code_of_count,
        np.arange(code_of_count[0] + 1, expected.shape[0]),
        side="left",
    )
    thresholds = np.concatenate(
        [code_thresholds, [1, max_count]]
    ).astype(float)
    always_on = thresholds <= 0
    never_on = thresholds > max_count
    delay_bounds = np.where(
        ~always_on & ~never_on, window / np.maximum(thresholds, 1), np.inf
    )
    shape = (sensor.n, thresholds.size)
    lo = np.full(shape, TdcCodeTables._V_FLOOR)
    hi = np.full(shape, max(float(v_max), 1.0))

    def crossed(supply):
        cell = _replica_cell_oracle(sensor, supply, temperature_c)
        return cell <= delay_bounds

    at_floor = crossed(lo)
    at_ceiling = crossed(hi)
    for _ in range(TdcCodeTables._BISECT_ITERATIONS):
        mid = 0.5 * (lo + hi)
        hit = crossed(mid)
        hi = np.where(hit, mid, hi)
        lo = np.where(hit, lo, mid)
    hi[at_floor] = -np.inf
    hi[~at_ceiling] = np.inf
    hi[:, always_on] = -np.inf
    hi[:, never_on] = np.inf
    return hi


# (dies, corner, temperature): every corner at every temperature, plus
# one die and 1001 dies.  No size is a multiple of a build block (the
# channel build takes 32 dies at a time, the TDC build 504).
BUILD_SCENARIOS = [
    (37, corner, temperature_c)
    for corner in ("SS", "FF", "FS", "SF")
    for temperature_c in (-20.0, 25.0, 60.0, 85.0)
] + [(1, "SS", -20.0), (1001, "FS", 60.0)]


def _build_population(library, dies, corner, temperature_c, config=None):
    samples = MonteCarloSampler(seed=dies).draw_arrays(dies)
    return BatchPopulation.from_samples(
        library,
        samples,
        corner=corner,
        temperature_c=temperature_c,
        config=config,
    )


class TestBuildMatchesLiveOracles:
    @pytest.mark.parametrize("dies,corner,temperature_c", BUILD_SCENARIOS)
    def test_replica_cell_matches_propagation_delay_sum(
        self, library, dies, corner, temperature_c
    ):
        sensor = _build_population(
            library, dies, corner, temperature_c
        ).sensor_devices
        rng = np.random.default_rng(dies)
        for shape in ((dies,), (dies, 65)):
            supply = rng.uniform(1e-3, 1.2, size=shape)
            _assert_bits_equal(
                sensor.stage_delay_inv_nor(supply, temperature_c),
                _replica_cell_oracle(sensor, supply, temperature_c),
                f"supply shape {shape}",
            )
        for bad in (0.0, -0.1):
            supply = np.full(dies, 0.4)
            supply[-1] = bad
            with pytest.raises(ValueError):
                sensor.stage_delay_inv_nor(supply, temperature_c)

    @pytest.mark.parametrize("throughput", [None, 1e5])
    @pytest.mark.parametrize("dies,corner,temperature_c", BUILD_SCENARIOS)
    def test_channel_tables_match_device_model(
        self, library, dies, corner, temperature_c, throughput
    ):
        population = _build_population(library, dies, corner, temperature_c)
        energy = population.energy
        tables = ResponseTables.from_population(
            population, ControllerConfig(), nominal_throughput=throughput
        )
        grid = np.broadcast_to(tables.grid, (dies, tables.points))
        positive = np.where(grid > 0.0, grid, tables.grid[1])
        expected = {
            "current_draw": energy.current_draw(
                grid, temperature_c, operations_per_second=throughput
            ),
            "cycle_time": energy.cycle_time(positive, temperature_c),
            "leakage_current": energy.leakage_current(
                positive, temperature_c
            ),
            "dynamic_energy": energy.dynamic_energy(grid),
        }
        for channel, table in expected.items():
            _assert_bits_equal(tables._tables[channel], table, channel)

    @pytest.mark.parametrize(
        "dies,corner,temperature_c,counter_bits",
        [scenario + (None,) for scenario in BUILD_SCENARIOS]
        + [(37, "SS", 85.0, 9)],
    )
    def test_tdc_breaks_match_reference_bisection(
        self, library, dies, corner, temperature_c, counter_bits
    ):
        config = (
            ControllerConfig()
            if counter_bits is None
            else ControllerConfig(tdc=TdcConfig(counter_bits=counter_bits))
        )
        population = _build_population(
            library, dies, corner, temperature_c, config=config
        )
        v_max = config.power_stage.battery_voltage
        tdc = ResponseTables.from_population(population, config).tdc
        breaks = _reference_breaks(
            population.sensor_devices,
            temperature_c,
            config.tdc,
            np.asarray(population.expected_counts, dtype=float),
            v_max,
        )
        _assert_bits_equal(tdc.code_breaks, breaks[:, :-2], "code_breaks")
        _assert_bits_equal(tdc.positive_break, breaks[:, -2], "positive")
        _assert_bits_equal(tdc.saturation_break, breaks[:, -1], "saturation")
        if counter_bits is not None:
            # The saturating counter leaves codes that can never fire.
            assert np.isposinf(tdc.code_breaks).all(axis=0).any()


class TestClosedLoopParity:
    def test_final_voltage_within_rtol(
        self, library, reference_lut, mc_population
    ):
        cycles = 600
        arrivals = constant_arrival_matrix(
            np.full(mc_population.n, 1e5), 1e-6, cycles
        )
        exact = BatchEngine(mc_population, lut=reference_lut).run(
            arrivals, cycles
        )
        tabulated = BatchEngine(
            mc_population, lut=reference_lut, device_model="tabulated"
        ).run(arrivals, cycles)
        np.testing.assert_allclose(
            tabulated.final_voltage(), exact.final_voltage(), rtol=1e-6
        )
        np.testing.assert_allclose(
            tabulated.energy_per_operation(),
            exact.energy_per_operation(),
            rtol=1e-2,
        )

    def test_sharded_tabulated_matches_single_shard(
        self, library, reference_lut, mc_population
    ):
        """Fleet-shared table views keep the shard-merge bit-identity."""
        from repro.engine import FleetConfig, FleetEngine

        cycles = 120
        arrivals = constant_arrival_matrix(
            np.full(mc_population.n, 1e5), 1e-6, cycles
        )
        single = BatchEngine(
            mc_population, lut=reference_lut, device_model="tabulated"
        ).run(arrivals, cycles)
        sharded = FleetEngine(
            mc_population,
            reference_lut,
            fleet=FleetConfig(shard_size=5, workers=2),
            device_model="tabulated",
        ).run(arrivals, cycles)
        for channel in (
            "output_voltages",
            "desired_codes",
            "duty_values",
            "energies",
            "lut_corrections",
        ):
            np.testing.assert_array_equal(
                getattr(sharded, channel),
                getattr(single, channel),
                err_msg=channel,
            )

    def test_corner_sweep_corrections_identical(self, library):
        """PR-2 corner-sweep population: converged LUT corrections match
        the exact device model exactly."""
        from repro.analysis.sweeps import closed_loop_corner_sweep

        exact = closed_loop_corner_sweep(library, cycles=900)
        tabulated = closed_loop_corner_sweep(
            library, cycles=900, device_model="tabulated"
        )
        assert exact.lut_correction == tabulated.lut_correction
        assert any(value != 0 for value in exact.lut_correction.values())
        assert exact.settle_cycle == tabulated.settle_cycle


class TestValidation:
    def test_tabulated_requires_fused_kernel(
        self, mc_population, reference_lut
    ):
        with pytest.raises(ValueError):
            BatchEngine(
                mc_population,
                lut=reference_lut,
                device_model="tabulated",
                step_kernel="legacy",
            )

    def test_unknown_modes_rejected(self, mc_population, reference_lut):
        with pytest.raises(ValueError):
            BatchEngine(
                mc_population, lut=reference_lut, device_model="nope"
            )
        with pytest.raises(ValueError):
            BatchEngine(
                mc_population, lut=reference_lut, step_kernel="nope"
            )

    def test_mismatched_tables_rejected(
        self, library, mc_population, mc_tables, reference_lut
    ):
        small = BatchPopulation.from_samples(
            library, MonteCarloSampler(seed=3).draw_arrays(4)
        )
        engine = BatchEngine(
            small,
            lut=reference_lut,
            device_model="tabulated",
            response_tables=mc_tables,
        )
        with pytest.raises(ValueError):
            engine.run(None, 2, scheduled_codes=np.full(2, 11))
