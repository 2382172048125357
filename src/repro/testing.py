"""Shared test-harness utilities (fuzz seeds, oracles, bench timing).

The engine's differential fuzz harness established a seed protocol the
whole repository now reuses: a contiguous seed budget sized by
``REPRO_FUZZ_SCENARIOS`` and based at ``REPRO_FUZZ_BASE_SEED``, with an
explicit ``REPRO_FUZZ_SEEDS`` list overriding both so a CI failure can
be replayed locally from the seed printed in the assertion message.
This module hosts that protocol so every fuzz suite (engine, analysis,
service) draws its seeds — and formats its replay messages — the same
way instead of re-implementing the environment parsing.
"""

from __future__ import annotations

import os
import time
from typing import Callable, Dict, List

import numpy as np

SCENARIOS_ENV = "REPRO_FUZZ_SCENARIOS"
"""How many seeds the contiguous budget covers (tier-1 default: 8)."""

BASE_SEED_ENV = "REPRO_FUZZ_BASE_SEED"
"""First seed of the contiguous budget."""

SEEDS_ENV = "REPRO_FUZZ_SEEDS"
"""Comma/space-separated explicit seed list, overriding the budget."""

DEFAULT_SCENARIOS = 8
DEFAULT_BASE_SEED = 20090000


def fuzz_seeds(
    default_scenarios: int = DEFAULT_SCENARIOS,
    default_base_seed: int = DEFAULT_BASE_SEED,
) -> List[int]:
    """Return the seed list a fuzz suite should parametrise over.

    ``REPRO_FUZZ_SEEDS`` (explicit list) wins over the contiguous
    ``REPRO_FUZZ_BASE_SEED + range(REPRO_FUZZ_SCENARIOS)`` budget.
    """
    explicit = os.environ.get(SEEDS_ENV)
    if explicit:
        return [int(seed) for seed in explicit.replace(",", " ").split()]
    scenarios = int(os.environ.get(SCENARIOS_ENV, str(default_scenarios)))
    base = int(os.environ.get(BASE_SEED_ENV, str(default_base_seed)))
    return [base + i for i in range(scenarios)]


def replay_message(seed: int, test_path: str) -> str:
    """Return the standard replay instruction for a failing seed.

    Embedded in every fuzz assertion message so the failure line itself
    tells the reader how to reproduce it locally.
    """
    return (
        f"[fuzz seed {seed}] replay with "
        f"{SEEDS_ENV}={seed} pytest {test_path}"
    )


def assert_bit_identical(actual, expected, err_msg: str = "") -> None:
    """Assert two arrays are equal bit for bit, not merely in value.

    Float arrays are compared through same-width integer views, so a
    last-bit difference or ``-0.0`` against ``0.0`` fails; other arrays
    compare directly.  The dtypes must match.
    """
    actual = np.ascontiguousarray(actual)
    expected = np.ascontiguousarray(expected)
    if actual.dtype != expected.dtype:
        raise AssertionError(
            f"dtype {actual.dtype} != {expected.dtype} {err_msg}"
        )
    if actual.dtype.kind == "f":
        bits = f"i{actual.dtype.itemsize}"
        actual, expected = actual.view(bits), expected.view(bits)
    np.testing.assert_array_equal(actual, expected, err_msg=err_msg)


def interleaved_best(
    timers: Dict[str, Callable[[], float]], rounds: int
) -> Dict[str, float]:
    """Return the best of ``rounds`` seconds per named timer.

    Each timer does its own set-up and returns the seconds it measured,
    so set-up stays untimed.  Every round runs every timer once, so a
    transient host slowdown hits all series alike instead of all of one
    — what a ratio between the series needs.
    """
    best: Dict[str, float] = {}
    for _ in range(rounds):
        for name, timer in timers.items():
            elapsed = timer()
            best[name] = min(best.get(name, elapsed), elapsed)
    return best


def timed(thunk: Callable[[], object]) -> Callable[[], float]:
    """Return a timer for :func:`interleaved_best` that times all of
    ``thunk``."""

    def timer() -> float:
        start = time.perf_counter()
        thunk()
        return time.perf_counter() - start

    return timer


def trailing_run(votes) -> int:
    """Return how many equal values a sequence ends with (0 if empty).

    The compensation vote's oracle: a scalar signature list's trailing
    run, capped at K, is what the engine keeps as ``vote_streak``.
    """
    return next(
        (i for i, v in enumerate(reversed(votes)) if v != votes[-1]),
        len(votes),
    )
