"""Benchmark entry point: one workload, one seed, one result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload mc_fleet --seed 1 --seconds 20 --trace 0

``--trace 0`` sets up, times a warmed closed loop for ``--seconds`` and
prints every end-to-end metric; set-up is repeated twice more in fresh
interpreters and ``setup_s`` is the median of the three.  ``--trace 1``
times the same untraced loop, then runs a fixed amount of traced work
and prints every per-layer metric.  Either way every answer is checked
against the program's own oracle, and the last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
Diagnostics go to standard error.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

from common import (  # noqa: E402
    ROOT,
    bootstrap,
    emit,
    log,
    median,
    require,
    stop_resource_tracker,
)

WORKLOADS = ("mc_fleet", "bulk_cold", "gateway_mix")
SETUP_SAMPLES = 3
"""Set-ups per ``--trace 0`` run; ``setup_s`` is their median."""


def _workload(name: str, seed: int):
    if name == "mc_fleet":
        from mc_fleet import McFleet

        return McFleet(seed)
    if name == "bulk_cold":
        from bulk_cold import BulkCold

        return BulkCold(seed)
    from gateway_mix import GatewayMix

    return GatewayMix(seed)


def _setup_in_child(args) -> float:
    """One more set-up, from a fresh interpreter."""
    child = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", args.workload, "--seed", str(args.seed),
         "--setup-only"],
        cwd=str(ROOT),
        stdout=subprocess.PIPE,
        text=True,
        timeout=150,
        check=True,
    )
    return json.loads(child.stdout.strip().splitlines()[-1])["setup_s"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="set up, tear down and print {\"setup_s\": ...}",
    )
    args = parser.parse_args(argv)
    require(args.seconds > 0, "--seconds must be positive")
    bootstrap()

    import numpy  # noqa: F401  (imports count towards set-up)
    import repro  # noqa: F401

    workload = _workload(args.workload, args.seed)
    generating = time.perf_counter()
    workload.generate()
    generated = time.perf_counter() - generating

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    try:
        workload.setup(tracer)
        setup_s = time.perf_counter() - _STARTED - generated
        workload.setup_s = setup_s
        if args.setup_only:
            workload.close()
            print(json.dumps({"setup_s": setup_s}), flush=True)
            return 0
        import gc

        gc.collect()
        untraced = workload.timed(
            args.seconds,
            workload.trace_min_samples if args.trace else workload.min_samples,
        )
        log(
            f"{args.workload}: {untraced['requests']} requests in "
            f"{untraced['seconds']:.3f}s timed, set-up {setup_s:.3f}s"
        )
        per_layer = workload.traced(tracer, untraced) if args.trace else None
        attempted, failed = workload.check()
    finally:
        workload.close()

    if args.trace:
        metrics = per_layer
    else:
        samples = [setup_s] + [
            _setup_in_child(args) for _ in range(SETUP_SAMPLES - 1)
        ]
        log(f"{args.workload}: set-up samples {samples}")
        seconds = untraced["seconds"]
        metrics = {
            "setup_s": (median(samples), "s"),
            "die_cycles_per_s": (untraced["die_cycles"] / seconds, "1/s"),
            "requests_per_s": (untraced["requests"] / seconds, "1/s"),
            "peak_rss_mb": (workload.rss_mb, "MB"),
        }
    log(f"{args.workload}: {failed} of {attempted} answers wrong")
    emit(failed == 0, attempted, failed, metrics)
    return 0


if __name__ == "__main__":
    try:
        code = main()
    finally:
        stop_resource_tracker()
    sys.exit(code)
