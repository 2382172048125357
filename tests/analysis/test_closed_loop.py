"""Closed-loop fleet analyses built on the sharded engine + telemetry."""

import numpy as np
import pytest

from repro.analysis.monte_carlo import monte_carlo_closed_loop
from repro.analysis.sweeps import closed_loop_corner_sweep
from repro.engine import FleetConfig, StreamingTrace


class TestMonteCarloClosedLoop:
    def test_population_shapes_and_totals(self, library):
        result = monte_carlo_closed_loop(
            dies=6,
            cycles=150,
            library=library,
            fleet=FleetConfig(shard_size=2, workers=2, telemetry="streaming"),
        )
        assert result.dies == 6
        assert result.cycles == 150
        assert isinstance(result.telemetry, StreamingTrace)
        assert result.energy.shape == (6,)
        assert np.all(result.energy > 0)
        assert np.all(result.operations >= 0)
        assert result.telemetry.cycles == 150
        assert np.isfinite(result.mean_energy_per_operation())
        assert 0.0 <= result.compensated_fraction() <= 1.0

    def test_seed_determinism_across_shardings(self, library):
        kwargs = dict(dies=5, cycles=120, library=library, seed=77)
        a = monte_carlo_closed_loop(
            fleet=FleetConfig(shard_size=5, workers=1, telemetry="null"),
            **kwargs,
        )
        b = monte_carlo_closed_loop(
            fleet=FleetConfig(shard_size=2, workers=2, telemetry="null"),
            **kwargs,
        )
        np.testing.assert_array_equal(a.energy, b.energy)
        np.testing.assert_array_equal(a.operations, b.operations)
        np.testing.assert_array_equal(a.lut_correction, b.lut_correction)

    def test_validation(self, library):
        with pytest.raises(ValueError):
            monte_carlo_closed_loop(dies=0, library=library)
        with pytest.raises(ValueError):
            monte_carlo_closed_loop(cycles=0, library=library)

    def test_executor_backends_agree(self, library):
        """The executor= plumbing must not change any result: serial
        and process fleets produce identical populations."""
        kwargs = dict(dies=5, cycles=100, library=library, seed=31)
        reference = monte_carlo_closed_loop(executor="serial", **kwargs)
        for executor in ("serial", "process"):
            result = monte_carlo_closed_loop(
                executor=executor,
                fleet=FleetConfig(
                    shard_size=2, workers=2, telemetry="streaming"
                ),
                **kwargs,
            )
            np.testing.assert_array_equal(result.energy, reference.energy)
            np.testing.assert_array_equal(
                result.operations, reference.operations
            )
            np.testing.assert_array_equal(
                result.lut_correction, reference.lut_correction
            )


class TestClosedLoopCornerSweep:
    def test_one_result_per_corner(self, library):
        result = closed_loop_corner_sweep(library=library, cycles=250)
        assert result.corners == ("SS", "TT", "FS")
        for mapping in (
            result.energy_per_operation,
            result.final_voltage,
            result.settle_cycle,
            result.lut_correction,
        ):
            assert set(mapping) == {"SS", "TT", "FS"}
        assert all(v > 0 for v in result.final_voltage.values())
        assert result.correction_spread_lsb() >= 0

    def test_non_streaming_fleet_config_is_coerced(self, library):
        """Regression: a caller tuning workers/shards gets the default
        telemetry='dense' FleetConfig, which the sweep's reductions
        cannot use — the sweep must force streaming, not crash."""
        from repro.engine import FleetConfig

        result = closed_loop_corner_sweep(
            library=library,
            cycles=120,
            fleet=FleetConfig(shard_size=2, workers=2),
        )
        assert isinstance(result.telemetry, StreamingTrace)
        assert set(result.settle_cycle) == {"SS", "TT", "FS"}

    def test_slow_corner_gets_positive_correction(self, library):
        """The paper's headline behaviour: slow silicon's LUT entry is
        corrected upward relative to the typical corner."""
        result = closed_loop_corner_sweep(library=library, cycles=400)
        assert result.lut_correction["SS"] >= result.lut_correction["TT"]

    def test_validation(self, library):
        with pytest.raises(ValueError):
            closed_loop_corner_sweep(library=library, cycles=0)
