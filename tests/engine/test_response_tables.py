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
    ReplicaCell,
    batch_measure_tdc_counts,
    codes_from_counts,
)
from repro.engine.response_tables import ExactDeviceResponse, TdcCodeTables
from repro.testing import assert_bit_identical
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


CHANNELS = ("current_draw", "cycle_time", "leakage_current", "dynamic_energy")


def _row_major_lookup(rows, points, v_max, supply):
    """Interpolate ``(n, points)`` row-major tables at one supply per
    die, in the lookup's operation order (the independent reference for
    the grid-major gathers)."""
    pos = supply * ((points - 1) / v_max)
    pos = np.minimum(np.maximum(pos, 0.0), points - 1)
    idx = np.minimum(pos.astype(np.int64), points - 2)
    frac = pos - idx
    flat = np.ascontiguousarray(rows).reshape(-1)
    offsets = np.arange(rows.shape[0], dtype=np.int64) * points
    left = flat[idx + offsets]
    right = flat[idx + offsets + 1]
    return left + (right - left) * frac


def _edge_queries(tables):
    """Supply vectors that put every edge value on every die: negative,
    zero, exact grid points, midpoints, v_max, above it and the 1.0
    sentinel of unpowered dies."""
    grid = tables.grid
    values = np.array(
        [
            -0.2, -0.0, 0.0, grid[1], grid[517], grid[-2],
            0.5 * (grid[0] + grid[1]), 0.5 * (grid[300] + grid[301]),
            0.5 * (grid[-2] + grid[-1]), 0.2371, tables.v_max,
            tables.v_max + 0.3, 1.0,
        ]
    )
    return [
        np.resize(np.roll(values, shift), tables.n)
        for shift in range(values.size)
    ]


@pytest.fixture(scope="module")
def odd_tables(library):
    """Grid-major tables (with TDC breaks) over an odd population."""
    samples = MonteCarloSampler(
        VariationModel(global_sigma_v=0.02), seed=41
    ).draw_arrays(13)
    population = BatchPopulation.from_samples(library, samples)
    return ResponseTables.from_population(
        population, ControllerConfig(), nominal_throughput=1e5
    )


# First, interior and last shards, and a one-die shard, of 13 dies.
ODD_SHARDS = (slice(0, 5), slice(5, 9), slice(9, 13), slice(6, 7))


def _fresh_adopt(tables):
    """Re-adopt fresh copies of the full arrays: the process-worker path
    (a worker adopts the shared-memory block, then shards it)."""
    tdc = tables.tdc
    return ResponseTables.adopt(
        {channel: table.copy() for channel, table in tables._tables.items()},
        temperature_c=tables.temperature_c,
        nominal_throughput=tables.nominal_throughput,
        points=tables.points,
        v_max=tables.v_max,
        short_circuit_fraction=tables.short_circuit_fraction,
        tdc=TdcCodeTables.adopt(
            code_breaks=tdc.code_breaks.copy(),
            positive_break=tdc.positive_break.copy(),
            saturation_break=tdc.saturation_break.copy(),
            minimum_supply=tdc.minimum_supply,
            base_code=tdc.base_code,
        ),
    )


class TestGridMajorLayout:
    """Tables are stored ``(points, N)``; every lookup, on full tables,
    shards and re-adopted arrays, must equal a row-major reference
    interpolation over the transposed tables bit for bit."""

    def _assert_lookups_match(self, tables, rows, label):
        for query in _edge_queries(tables):
            for channel in CHANNELS:
                expected = _row_major_lookup(
                    rows[channel], tables.points, tables.v_max, query
                )
                before = query.copy()
                out = np.full(tables.n, np.nan)
                result = getattr(tables, channel)(query, out=out)
                assert result is out
                assert_bit_identical(result, expected, f"{label} {channel}")
                assert_bit_identical(query, before, f"{label} input")

    def test_full_tables_match_row_major_reference(self, odd_tables):
        rows = {c: odd_tables._tables[c].T for c in CHANNELS}
        self._assert_lookups_match(odd_tables, rows, "full")

    @pytest.mark.parametrize("index", ODD_SHARDS, ids=str)
    def test_shards_match_row_major_reference(self, odd_tables, index):
        rows = {c: odd_tables._tables[c].T[index] for c in CHANNELS}
        self._assert_lookups_match(
            odd_tables.shard(index), rows, f"shard {index}"
        )

    @pytest.mark.parametrize("index", (None,) + ODD_SHARDS, ids=str)
    def test_adopted_copies_match_row_major_reference(
        self, odd_tables, index
    ):
        adopted = _fresh_adopt(odd_tables)
        rows = {c: odd_tables._tables[c].T for c in CHANNELS}
        if index is not None:
            adopted = adopted.shard(index)
            rows = {c: table[index] for c, table in rows.items()}
        self._assert_lookups_match(adopted, rows, f"adopted {index}")

    def test_one_die_population_shards_and_adopts(self, library):
        """A one-die build is grid-major with unit-stride dies too (a
        one-column transpose is C-contiguous in numpy's eyes whatever
        its die stride), so the fleet can shard and re-adopt it."""
        population = _build_population(library, 1, "SS", -20.0)
        tables = ResponseTables.from_population(population, ControllerConfig())
        rows = {c: tables._tables[c].T for c in CHANNELS}
        for adopted in (
            tables.shard(slice(0, 1)),
            _fresh_adopt(tables),
            _fresh_adopt(tables).shard(slice(0, 1)),
        ):
            assert adopted.tdc.code_breaks.strides[1] == 8
            self._assert_lookups_match(adopted, rows, "one die")

    def test_shards_are_column_views(self, odd_tables):
        for index in ODD_SHARDS:
            shard = odd_tables.shard(index)
            count = index.stop - index.start
            for channel in CHANNELS:
                view = shard._tables[channel]
                assert view.shape == (odd_tables.points, count)
                assert np.shares_memory(view, odd_tables._tables[channel])
            assert np.shares_memory(
                shard.tdc.code_breaks, odd_tables.tdc.code_breaks
            )
            assert shard.table_bytes() == (
                len(CHANNELS) * odd_tables.points * count * 8
            )
        assert odd_tables.table_bytes() == (
            len(CHANNELS) * odd_tables.points * odd_tables.n * 8
        )

    def test_adopt_rejects_other_layouts(self, odd_tables):
        meta = dict(
            temperature_c=odd_tables.temperature_c,
            nominal_throughput=odd_tables.nominal_throughput,
            points=odd_tables.points,
            v_max=odd_tables.v_max,
            short_circuit_fraction=odd_tables.short_circuit_fraction,
        )
        grid_major = {c: odd_tables._tables[c].copy() for c in CHANNELS}
        ResponseTables.adopt(grid_major, **meta)
        # Row-major (n, points) tables passed in as their transposes have
        # the right shape and one shared row stride, but strided dies.
        transposed = {
            c: np.ascontiguousarray(table.T).T
            for c, table in grid_major.items()
        }
        with pytest.raises(ValueError):
            ResponseTables.adopt(transposed, **meta)
        # Channels whose shapes do not match.
        narrow = dict(grid_major)
        narrow["leakage_current"] = grid_major["leakage_current"][:, :-1]
        with pytest.raises(ValueError):
            ResponseTables.adopt(narrow, **meta)
        short = dict(grid_major)
        short["dynamic_energy"] = grid_major["dynamic_energy"][:-1]
        with pytest.raises(ValueError):
            ResponseTables.adopt(short, **meta)
        # Row strides that differ between channels.
        wide = np.empty((odd_tables.points, odd_tables.n + 3))
        wide[:, : odd_tables.n] = grid_major["current_draw"]
        strided = dict(grid_major)
        strided["current_draw"] = wide[:, : odd_tables.n]
        with pytest.raises(ValueError):
            ResponseTables.adopt(strided, **meta)
        # Rows that run backwards.
        reversed_rows = dict(grid_major)
        for channel in CHANNELS:
            reversed_rows[channel] = grid_major[channel][::-1]
        with pytest.raises(ValueError):
            ResponseTables.adopt(reversed_rows, **meta)

    def test_tdc_adopt_rejects_other_layouts(self, odd_tables):
        tdc = odd_tables.tdc
        edges = dict(
            positive_break=tdc.positive_break,
            saturation_break=tdc.saturation_break,
            minimum_supply=tdc.minimum_supply,
            base_code=tdc.base_code,
        )
        TdcCodeTables.adopt(code_breaks=tdc.code_breaks.copy(), **edges)
        row_major = np.ascontiguousarray(tdc.code_breaks.T)
        with pytest.raises(ValueError):
            TdcCodeTables.adopt(code_breaks=row_major.T, **edges)
        with pytest.raises(ValueError):
            TdcCodeTables.adopt(code_breaks=row_major, **edges)
        with pytest.raises(ValueError):
            TdcCodeTables.adopt(
                code_breaks=tdc.code_breaks[:, :-1].copy(), **edges
            )


class TestTdcCounterWidth:
    """The staircase count runs in the narrowest unsigned dtype that
    holds every break; codes must stay exact up to 511 breaks (9-bit
    resolution), where a uint8 counter would wrap."""

    @pytest.mark.parametrize("resolution_bits", [6, 8, 9])
    def test_codes_equal_break_count(self, library, resolution_bits):
        config = ControllerConfig(resolution_bits=resolution_bits)
        population = _build_population(library, 9, "TT", 25.0, config)
        tables = ResponseTables.from_population(population, config)
        assert tables.tdc.code_breaks.shape == (
            (1 << resolution_bits) - 1, population.n
        )
        rng = np.random.default_rng(resolution_bits)
        queries = [rng.uniform(-0.1, 1.3, size=population.n) for _ in range(6)]
        queries.append(np.linspace(0.0, 1.2, population.n))
        queries.append(np.full(population.n, 1.15))
        top = 0
        for tdc, dies in [(tables.tdc, slice(None))] + [
            (tables.tdc.shard(index), index)
            for index in (slice(0, 4), slice(4, 9), slice(8, 9))
        ]:
            for vout in queries:
                vout = vout[dies].copy()
                expected = (vout[:, None] >= tdc.code_breaks.T).sum(1)
                expected += tdc.base_code
                expected[vout < tdc.minimum_supply] = tdc.base_code
                reliable = (
                    (vout >= tdc.minimum_supply)
                    & (vout >= tdc.positive_break)
                    & (vout < tdc.saturation_break)
                )
                codes, table_reliable = tdc.lookup(vout)
                assert_bit_identical(codes, expected.astype(np.int64))
                assert_bit_identical(table_reliable, reliable)
                top = max(top, int(codes.max()))
        # The queries climb past the staircase's midpoint: past 255 at
        # 9 bits.
        assert top > (tables.tdc.code_breaks.shape[0] + 1) // 2


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
            _assert_bits_equal(tables._tables[channel].T, table, channel)

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
        tdc = _assert_tdc_breaks_match_reference(
            library, dies, corner, temperature_c, config
        )
        if counter_bits is not None:
            # The saturating counter leaves codes that can never fire.
            assert np.isposinf(tdc.code_breaks).all(axis=1).any()

    def test_tdc_breaks_match_reference_bisection_at_9_bit_resolution(
        self, library
    ):
        """512 levels: the count -> code map is built over many blocks
        of counts.  A 12-bit counter keeps the reference's one-shot
        (max_count + 1, levels) map at 16 MiB."""
        config = ControllerConfig(
            resolution_bits=9, tdc=TdcConfig(counter_bits=12)
        )
        tdc = _assert_tdc_breaks_match_reference(
            library, 7, "FS", 60.0, config
        )
        assert tdc.code_breaks.shape == (511, 7)
        assert np.isfinite(tdc.code_breaks).all(axis=1).sum() > 255


def _assert_tdc_breaks_match_reference(
    library, dies, corner, temperature_c, config
):
    """Build a population's TDC breaks and pin them bit for bit to the
    unblocked reference bisection; returns the built tables."""
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
    _assert_bits_equal(tdc.code_breaks.T, breaks[:, :-2], "code_breaks")
    _assert_bits_equal(tdc.positive_break, breaks[:, -2], "positive")
    _assert_bits_equal(tdc.saturation_break, breaks[:, -1], "saturation")
    return tdc


# (dies, corner, temperature) of the exact-response oracle tests: a cold,
# a typical and a hot corner, at one die, an odd size and above 1000.
EXACT_SCENARIOS = [
    (dies, corner, temperature_c)
    for dies in (1, 37, 1001)
    for corner, temperature_c in (("SS", -20.0), ("TT", 25.0), ("FF", 85.0))
]


def _edge_supplies(rng, dies, battery):
    """Random loop supplies with the edges forced in: non-positive
    values, the 0.05 V runnable floor and supplies above the battery."""
    supply = rng.uniform(0.0, battery, size=dies)
    edges = np.array([0.0, -0.0, -0.1, 0.05, battery, battery + 0.3])
    picks = rng.random(dies) < 0.4
    supply[picks] = rng.choice(edges, size=int(picks.sum()))
    return supply


class TestExactResponseMatchesLiveOracles:
    """``ExactDeviceResponse`` caches its supply-independent terms and
    stacks its EKV passes; every answer must still equal the live
    ``BatchEnergyModel`` / ``BatchDeviceSet`` methods bit for bit."""

    @pytest.mark.parametrize("throughput", [None, 1e5])
    @pytest.mark.parametrize("dies,corner,temperature_c", EXACT_SCENARIOS)
    def test_channels_match_energy_model(
        self, library, dies, corner, temperature_c, throughput
    ):
        population = _build_population(library, dies, corner, temperature_c)
        energy = population.energy
        response = ExactDeviceResponse(
            energy, temperature_c, nominal_throughput=throughput
        )
        battery = ControllerConfig().power_stage.battery_voltage
        rng = np.random.default_rng(dies)
        for _ in range(4):
            supply = _edge_supplies(rng, dies, battery)
            # Cycle time refuses non-positive supplies; the loop asks it
            # at the runnable floor and above.
            positive = np.where(supply > 0.0, supply, 0.05)
            expected = {
                "current_draw": (supply, energy.current_draw(
                    supply, temperature_c, operations_per_second=throughput
                )),
                "cycle_time": (
                    positive, energy.cycle_time(positive, temperature_c)
                ),
                "leakage_current": (
                    supply, energy.leakage_current(supply, temperature_c)
                ),
                "dynamic_energy": (supply, energy.dynamic_energy(supply)),
            }
            for channel, (query, oracle) in expected.items():
                before = query.copy()
                out = np.full(dies, np.nan)
                result = getattr(response, channel)(query, out=out)
                assert result is out, channel
                assert_bit_identical(result, oracle, channel)
                assert_bit_identical(query, before, f"{channel} input")
                assert_bit_identical(
                    getattr(response, channel)(query), oracle, channel
                )
                aliased = query.copy()
                getattr(response, channel)(aliased, out=aliased)
                assert_bit_identical(aliased, oracle, f"{channel} in place")

    @pytest.mark.parametrize("dies,corner,temperature_c", EXACT_SCENARIOS)
    def test_replica_cell_matches_stage_delay(
        self, library, dies, corner, temperature_c
    ):
        sensor = _build_population(
            library, dies, corner, temperature_c
        ).sensor_devices
        cell = ReplicaCell(sensor, temperature_c)
        battery = ControllerConfig().power_stage.battery_voltage
        rng = np.random.default_rng(dies + 1)
        for _ in range(4):
            supply = _edge_supplies(rng, dies, battery)
            supply = np.where(supply > 0.0, supply, 1e-3)
            before = supply.copy()
            out = np.empty(dies)
            result = cell.stage_delay_inv_nor(supply, temperature_c, out=out)
            assert result is out
            assert_bit_identical(
                result, sensor.stage_delay_inv_nor(supply, temperature_c)
            )
            assert_bit_identical(supply, before)
        for bad in (0.0, -0.1):
            supply = np.full(dies, 0.4)
            supply[-1] = bad
            with pytest.raises(ValueError):
                cell.stage_delay_inv_nor(supply, temperature_c)
        with pytest.raises(ValueError):
            cell.stage_delay_inv_nor(np.full(dies, 0.4), temperature_c + 1.0)

    def test_cycle_time_refuses_non_positive_supply(self, library):
        population = _build_population(library, 3, "TT", 25.0)
        response = ExactDeviceResponse(population.energy, 25.0)
        for bad in (0.0, -0.2):
            with pytest.raises(ValueError):
                response.cycle_time(np.array([0.3, bad, 0.4]))

    def test_reset_onto_new_silicon_matches_cold_engine(
        self, library, reference_lut
    ):
        """A warm engine swapped onto another corner and temperature
        answers from terms cached for the new population."""
        dies, cycles = 5, 150
        arrivals = constant_arrival_matrix(
            np.full(dies, 1e5), 1e-6, cycles
        )
        first = _build_population(library, dies, "TT", 25.0)
        second = _build_population(library, dies, "SS", 85.0)
        warm = BatchEngine(first, lut=reference_lut, nominal_throughput=1e5)
        warm.run(arrivals, cycles)
        warm.reset(population=second)
        swapped = warm.run(arrivals, cycles)
        cold = BatchEngine(
            second, lut=reference_lut, nominal_throughput=1e5
        ).run(arrivals, cycles)
        for channel in (
            "output_voltages",
            "desired_codes",
            "duty_values",
            "operations_completed",
            "energies",
            "lut_corrections",
        ):
            assert_bit_identical(
                getattr(swapped, channel), getattr(cold, channel), channel
            )


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
    def test_unknown_modes_rejected(self, mc_population, reference_lut):
        with pytest.raises(ValueError):
            BatchEngine(
                mc_population, lut=reference_lut, device_model="nope"
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
