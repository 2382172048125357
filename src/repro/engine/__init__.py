"""Batched, vectorised simulation engine.

This subpackage is the scale layer of the reproduction: it represents a
*population* of dies/controllers as struct-of-arrays numpy state and
advances (or analyses) all of them simultaneously.

``device_math``      vectorised EKV / delay / energy math over die arrays
``state``            :class:`BatchState` — per-die controller state arrays
``trace``            :class:`BatchTrace` + the :class:`TraceSink` telemetry
                     layer (dense / streaming / null)
``engine``           :class:`BatchEngine` — the closed-loop population simulator
``kernels``          :class:`CycleKernel` — the fused per-cycle hot path
                     (preallocated scratch, ring-buffered history)
``response_tables``  :class:`ResponseTables` — tabulated per-die device
                     response (opt-in ``device_model="tabulated"``)
``fleet``            :class:`FleetEngine` — sharded execution on a
                     serial / process executor backend
``procfleet``        the process backend: shared-memory population
                     state + worker-pool shard execution
``mep``              batched minimum-energy-point grid analysis

The scalar :class:`~repro.core.controller.AdaptiveController` is a thin
batch-of-one wrapper over :class:`BatchEngine`, and the analysis modules
(:mod:`repro.analysis.monte_carlo`, :mod:`repro.analysis.sweeps`) use
the batched MEP helpers for their statistical sweeps.
"""

from repro.engine.device_math import (
    BatchDeviceSet,
    BatchEnergyModel,
    PolarityArrays,
    batch_measure_tdc_counts,
    codes_from_counts,
)
from repro.engine.engine import (
    BatchEngine,
    BatchPopulation,
    expand_schedule,
    normalise_arrivals,
)
from repro.engine.fleet import EXECUTORS, FleetConfig, FleetEngine
from repro.engine.kernels import CycleKernel, ScratchBuffers

_PROCFLEET_EXPORTS = (
    "ProcessFleetBackend",
    "SharedArrayBlock",
    "SharedBlockSpec",
)


def __getattr__(name: str):
    # The process backend (multiprocessing / shared_memory machinery)
    # loads lazily: serial-only users never pay its import cost,
    # matching the deferred import inside FleetEngine.__init__.
    if name in _PROCFLEET_EXPORTS:
        from repro.engine import procfleet

        return getattr(procfleet, name)
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}"
    )
from repro.engine.response_tables import (
    ExactDeviceResponse,
    ResponseTables,
)
from repro.engine.mep import (
    batch_energy_model,
    batched_energy_surface,
    batched_minimum_energy_points,
)
from repro.engine.state import BatchState
from repro.engine.trace import (
    BatchTrace,
    DenseTrace,
    NullTrace,
    StreamingTrace,
    TraceSink,
)

__all__ = [
    "BatchDeviceSet",
    "BatchEnergyModel",
    "BatchEngine",
    "BatchPopulation",
    "BatchState",
    "BatchTrace",
    "CycleKernel",
    "DenseTrace",
    "EXECUTORS",
    "ExactDeviceResponse",
    "FleetConfig",
    "FleetEngine",
    "NullTrace",
    "ProcessFleetBackend",
    "SharedArrayBlock",
    "SharedBlockSpec",
    "PolarityArrays",
    "ResponseTables",
    "ScratchBuffers",
    "StreamingTrace",
    "TraceSink",
    "batch_energy_model",
    "batch_measure_tdc_counts",
    "batched_energy_surface",
    "batched_minimum_energy_points",
    "codes_from_counts",
    "expand_schedule",
    "normalise_arrivals",
]
