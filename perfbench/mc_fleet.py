"""``mc_fleet``: a closed-loop Monte Carlo fleet on the process executor.

4096 varied TT dies at 25 °C run the tabulated device model on a
2-worker process :class:`~repro.engine.fleet.FleetEngine` with streaming
telemetry.  The response tables are built once in setup and passed in.
The timed phase is back-to-back ``reset()`` + ``run()`` horizons of 200
cycles from one caller (closed loop, concurrency 1); each horizon gets a
fresh copy of a pre-drawn arrival matrix.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional

import numpy as np

import inputs
import layers
from common import Stopwatch, child_pids, log, mismatched_rows, peak_rss_mb
from tracing import LayerTotals, Tracer, installed, layer_totals

WORKERS = 2
TRACED_HORIZONS = 4

_ANSWER_FIELDS = ("energy_total", "operations_total", "drops_total",
                  "lut_correction")


def _answers(engines) -> np.ndarray:
    """Per-die run totals of a (fleet of) engine(s): one float64 row
    per die, in die order."""
    return np.stack(
        [
            np.concatenate([getattr(e.state, name) for e in engines])
            for name in _ANSWER_FIELDS
        ],
        axis=1,
    ).astype(float)


class McFleet:
    name = "mc_fleet"
    min_samples = trace_min_samples = 20

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.fleet = None
        self.answers: List[tuple] = []  # (matrix index, per-die answers)
        self.setup_layers: Dict[str, LayerTotals] = {}

    def generate(self) -> None:
        self.samples, self.matrices = inputs.mc_fleet_inputs(self.seed)

    def setup(self, tracer: Optional[Tracer]) -> None:
        from repro.circuits.loads import DigitalLoad
        from repro.core.config import ControllerConfig
        from repro.core.rate_controller import program_lut_for_load
        from repro.engine.engine import BatchPopulation
        from repro.engine.fleet import FleetConfig, FleetEngine
        from repro.engine.response_tables import ResponseTables
        from repro.library import default_library

        library = default_library()
        self.population = BatchPopulation.from_samples(
            library, self.samples, corner="TT", temperature_c=25.0
        )
        self.lut = program_lut_for_load(
            DigitalLoad(
                library.ring_oscillator_load, library.reference_delay_model
            ),
            sample_rate=inputs.MC_SAMPLE_RATE,
        )
        # Tracing covers the table and fleet builds but not the warm-up
        # run: workers fork at the first run and must start untraced.
        with installed(tracer):
            self.tables = ResponseTables.from_population(
                self.population, ControllerConfig()
            )
            self.fleet = FleetEngine(
                self.population,
                self.lut,
                fleet=FleetConfig(
                    executor="process", workers=WORKERS,
                    telemetry="streaming",
                ),
                device_model="tabulated",
                response_tables=self.tables,
            )
        if tracer is not None:
            self.setup_layers = layer_totals(tracer.spans)
            tracer.clear()
        self._horizon(0)

    def _horizon(self, index: int, watch: Optional[Stopwatch] = None):
        matrix = self.matrices[index % len(self.matrices)].copy()
        if watch is not None:
            watch.start()
        self.fleet.reset()
        sink = self.fleet.run(matrix, inputs.MC_CYCLES)
        if watch is not None:
            watch.stop()
        self.answers.append(
            (index % len(self.matrices), _answers(self.fleet.engines))
        )
        return sink

    def timed(self, seconds: float, min_samples: int) -> dict:
        watch = Stopwatch()
        self.answers = []
        index = 0
        while watch.total < seconds or len(watch.samples) < min_samples:
            self._horizon(index, watch)
            index += 1
        horizons = len(watch.samples)
        self.rss_mb = peak_rss_mb([os.getpid(), *child_pids()])
        return {
            "seconds": watch.total,
            "samples": watch.samples,
            "requests": horizons,
            "die_cycles": horizons * inputs.MC_DIES * inputs.MC_CYCLES,
        }

    def traced(self, tracer: Tracer, untraced: dict) -> dict:
        from repro.engine.fleet import FleetConfig, FleetEngine

        # The process fleet, traced from the parent: dispatch, merge and
        # the workers' own shard timings.
        timings = []
        with installed(tracer):
            for index in range(TRACED_HORIZONS):
                with tracer.span("bench.horizon", new_request=True):
                    self._horizon(index)
                timings.append(self.fleet.last_timings)
        fleet_part = layers.fleet_metrics(layer_totals(tracer.spans), timings)
        fleet_part["fleet.build_s"] = _total(self.setup_layers, "fleet.build")
        tracer.clear()
        # Workers are separate interpreters, so the kernel/device split
        # comes from passes over the same shards on the serial executor,
        # alternately untraced and traced; the faster pass of each kind
        # gives the tracing overhead.
        serial = FleetEngine(
            self.population,
            self.lut,
            fleet=FleetConfig(
                executor="serial", workers=WORKERS, telemetry="streaming"
            ),
            device_model="tabulated",
            response_tables=self.tables,
        )
        try:
            passes = {None: [], tracer: []}
            for trace_pass in (None, tracer, None, tracer):
                matrix = self.matrices[0].copy()
                watch = Stopwatch()
                with installed(trace_pass):
                    watch.start()
                    serial.reset()
                    serial.run(matrix, inputs.MC_CYCLES)
                    watch.stop()
                passes[trace_pass].append(watch.total)
                self.answers.append((0, _answers(serial.engines)))
        finally:
            serial.close()
        engine_part = layers.engine_metrics(layer_totals(tracer.spans))
        build = _total(self.setup_layers, "device.tables_build")
        engine_part["device.tables_build_s"] = build
        engine_part["device.tables_share_of_setup"] = build / self.setup_s
        overhead = min(passes[tracer]) / min(passes[None]) - 1.0
        return layers.assemble(engine_part, fleet_part, overhead=overhead)

    def check(self) -> tuple:
        """Every die of every horizon against one plain ``BatchEngine``
        batch over the same population, tables and arrivals."""
        from repro.engine.engine import BatchEngine
        from repro.engine.trace import StreamingTrace

        oracle = {}
        for index, matrix in enumerate(self.matrices):
            engine = BatchEngine(
                self.population, self.lut, device_model="tabulated",
                response_tables=self.tables,
            )
            sink = StreamingTrace()
            engine.run(matrix, inputs.MC_CYCLES, sink=sink)
            oracle[index] = _answers([engine])
            if index == 0:
                self._invariants(oracle[0], sink)
        failed = sum(
            mismatched_rows(got, oracle[index])
            for index, got in self.answers
        )
        return len(self.answers) * inputs.MC_DIES, failed

    def _invariants(self, answers, sink) -> None:
        column = dict(zip(_ANSWER_FIELDS, answers.T))
        energy = float(np.sum(column["energy_total"]))
        operations = float(np.sum(column["operations_total"]))
        log(
            f"mc_fleet invariants: energy/op={energy / operations!r} J "
            f"compensated_fraction="
            f"{float(np.mean(column['lut_correction'] != 0))!r} "
            f"mean_settle_cycle={float(np.mean(sink.settle_cycle))!r}"
        )

    def close(self) -> None:
        if self.fleet is not None:
            self.fleet.close()
            self.fleet = None


def _total(totals: Dict[str, LayerTotals], name: str) -> float:
    entry = totals.get(name)
    return 0.0 if entry is None else entry.total_s
