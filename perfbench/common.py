"""Shared helpers of the benchmark: paths, clocks, percentiles, checks.

Nothing here imports the program; ``bootstrap()`` puts the checkout's
``src/`` on ``sys.path`` first, so every later ``import repro`` loads
the program built from this checkout's source.
"""

from __future__ import annotations

import json
import math
import os
import struct
import sys
import time
from pathlib import Path
from typing import Dict, List, Mapping, Sequence

ROOT = Path(__file__).resolve().parent.parent
"""Root of the checkout the benchmark runs in."""

PERCENTILE_TAIL_FLOOR = 10
"""Samples a reported percentile must have beyond it."""


class SelfCheckError(RuntimeError):
    """A benchmark self-check failed; the run is invalid."""


def bootstrap() -> None:
    """Make the checkout's ``src/`` importable, or fail loudly."""
    package = ROOT / "src" / "repro" / "__init__.py"
    if not package.is_file():
        raise SelfCheckError(
            f"no program source at {package.parent}; run the benchmark "
            f"from the root of a full checkout"
        )
    source = str(ROOT / "src")
    if sys.path[0] != source:
        sys.path.insert(0, source)


def require(condition: bool, message: str) -> None:
    """Fail the run loudly when a self-check does not hold."""
    if not condition:
        raise SelfCheckError(message)


class Stopwatch:
    """Accumulates the timed phase, one closed-loop operation at a time.

    Input generation asserts ``not running`` so no input is ever built
    on the clock.
    """

    def __init__(self) -> None:
        self.total = 0.0
        self.samples: List[float] = []
        self.running = False
        self._started = 0.0

    def start(self) -> None:
        require(not self.running, "stopwatch started twice")
        self.running = True
        self._started = time.perf_counter()

    def stop(self) -> float:
        elapsed = time.perf_counter() - self._started
        require(self.running, "stopwatch stopped while idle")
        self.running = False
        self.total += elapsed
        self.samples.append(elapsed)
        return elapsed


def percentile(
    values: Sequence[float], q: float, what: str
) -> float:
    """Return the ``q``-th percentile, refusing thin tails.

    The check behind every percentile the benchmark reports: at least
    :data:`PERCENTILE_TAIL_FLOOR` samples must lie beyond it, so a tail
    is never read off a handful of samples.
    """
    n = len(values)
    beyond = n * (100 - q) / 100
    require(
        beyond >= PERCENTILE_TAIL_FLOOR,
        f"{what}: p{q:g} over {n} samples has {beyond:.1f} beyond it "
        f"(need {PERCENTILE_TAIL_FLOOR})",
    )
    ordered = sorted(values)
    rank = (n - 1) * q / 100.0
    low = int(math.floor(rank))
    high = min(low + 1, n - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    return ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


def _bits(value: float) -> bytes:
    return struct.pack("<d", float(value))


def values_match(
    got: Mapping[str, float], expected: Mapping[str, float]
) -> bool:
    """Bit-for-bit equality of two reducer dicts (NaN equals NaN)."""
    if set(got) != set(expected):
        return False
    return all(_bits(got[name]) == _bits(expected[name]) for name in expected)


def mismatched_rows(got, want) -> int:
    """Rows of ``got`` that differ bit for bit from ``want``'s.

    Both are float64 ``(answers, values)`` arrays; integer values are
    exact in float64, and equal NaNs compare equal.
    """
    import numpy as np

    require(got.shape == want.shape, "answers and oracle differ in shape")
    differ = got.view(np.int64) != want.view(np.int64)
    return int(np.any(differ, axis=1).sum())


def peak_rss_mb(pids: Sequence[int]) -> float:
    """Summed peak resident set (``VmHWM``) of live processes, in MB.

    Pages shared between the processes (fork, shared memory) count once
    per process that maps them.
    """
    total_kb = 0
    for pid in pids:
        status = Path(f"/proc/{pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
                break
        else:
            raise SelfCheckError(f"no VmHWM for process {pid}")
    return total_kb / 1024.0


def child_pids() -> List[int]:
    """Direct child processes of this process (all threads)."""
    pids: List[int] = []
    for task in Path(f"/proc/{os.getpid()}/task").iterdir():
        children = (task / "children").read_text().split()
        pids.extend(int(pid) for pid in children)
    return sorted(set(pids))


def stop_resource_tracker() -> None:
    """Stop this process's multiprocessing resource tracker and reap it.

    Shared memory (the process fleet) starts the tracker on first use,
    and the tracker exits only once its pipe closes, which is after
    this interpreter has exited: it would outlive the run as an orphan.
    A no-op when no tracker was started.
    """
    module = sys.modules.get("multiprocessing.resource_tracker")
    if module is not None:
        module._resource_tracker._stop()


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``; 0 when the denominator layer is idle."""
    return numerator / denominator if denominator else 0.0


def emit(
    correct: bool,
    attempted: int,
    failed: int,
    metrics: Dict[str, tuple],
) -> None:
    """Print the result line: the last line of standard output."""
    payload = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    sys.stdout.flush()
    print(json.dumps(payload), flush=True)


def log(message: str) -> None:
    """Diagnostic line on standard error (never the result line)."""
    print(f"perfbench: {message}", file=sys.stderr, flush=True)
