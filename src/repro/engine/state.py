"""Struct-of-arrays state of a controller population.

Every field of :class:`BatchState` is an ``(N,)`` array (or the small
``(N, W)`` occupancy-history ring) holding one value per simulated die,
so the engine advances the entire population with elementwise numpy ops
instead of N Python objects.  The fields map onto the mutable state
scattered across the scalar stack: FIFO occupancy, rate-controller
averaging history, PWM duty register, power-stage filter state, the
work/energy accumulators and the variation-compensation vote streak.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from repro.core.config import ControllerConfig


@dataclass
class BatchState:
    """Dynamic state of N concurrently simulated controller/die pairs."""

    queue_length: np.ndarray
    """FIFO occupancy per die (int, ``(N,)``)."""

    history: np.ndarray
    """Rate-controller queue-length window (int, ``(N, W)``)."""

    history_filled: int
    """How many of the W history columns are valid (shared across dies)."""

    duty_value: np.ndarray
    """PWM duty register per die (int, ``(N,)``)."""

    cycles_since_duty_update: np.ndarray
    """System cycles since the last duty trim per die (int, ``(N,)``)."""

    last_desired: np.ndarray
    """Previous desired word per die (int, ``(N,)``)."""

    has_last_desired: np.ndarray
    """Whether a desired word has been seen yet (bool, ``(N,)``)."""

    inductor_current: np.ndarray
    """Buck filter inductor current per die (float, ``(N,)``)."""

    output_voltage: np.ndarray
    """Converter output voltage per die (float, ``(N,)``)."""

    work_accumulator: np.ndarray
    """Fractional load-operation progress per die (float, ``(N,)``)."""

    lut_correction: np.ndarray
    """Cumulative LUT compensation per die (int LSBs, ``(N,)``)."""

    last_vote: np.ndarray
    """Latest variation signature per die (int, ``(N,)``; stale, and
    ignored, while ``vote_streak`` is 0)."""

    vote_streak: np.ndarray
    """Consecutive equal signatures ending at ``last_vote`` per die, capped
    at K = ``compensation_interval_cycles`` (int, ``(N,)``)."""

    cycles: int = 0
    """System cycles simulated so far (shared across dies)."""

    history_pos: int = 0
    """Next ring slot the occupancy history writes (shared across dies;
    the history is appended unconditionally every cycle)."""

    history_sum: np.ndarray = field(default=None)
    """Rolling sum of the valid history columns per die (int, ``(N,)``).
    Integer arithmetic, so the rolling update is exactly equal to
    re-summing the window — what keeps the ring buffer bit-identical to
    the scalar rate controller's re-summed list."""

    energy_total: np.ndarray = field(default=None)
    """Accumulated load energy per die (float joules, ``(N,)``)."""

    operations_total: np.ndarray = field(default=None)
    """Completed load operations per die (int, ``(N,)``)."""

    drops_total: np.ndarray = field(default=None)
    """Input samples lost to FIFO overflow per die (int, ``(N,)``)."""

    accepted_total: np.ndarray = field(default=None)
    """Input samples accepted into the FIFO per die (int, ``(N,)``)."""

    peak_queue: np.ndarray = field(default=None)
    """Highest post-push FIFO occupancy seen this run per die (int, ``(N,)``)."""

    decision_up_total: np.ndarray = field(default=None)
    """Comparator UP decisions this run per die (int, ``(N,)``)."""

    decision_hold_total: np.ndarray = field(default=None)
    """Comparator HOLD decisions this run per die (int, ``(N,)``)."""

    decision_down_total: np.ndarray = field(default=None)
    """Comparator DOWN decisions this run per die (int, ``(N,)``)."""

    @property
    def n(self) -> int:
        """Return the population size."""
        return int(self.queue_length.shape[0])

    # ------------------------------------------------------------------
    # Chronological window access
    # ------------------------------------------------------------------
    def history_window(self) -> np.ndarray:
        """Return the valid occupancy history, oldest first (``(N, filled)``).

        ``history`` is a ring buffer written at ``history_pos``.  While it
        is partially filled its entries sit chronologically in columns
        ``0..filled-1``; once full, the ring wraps at ``history_pos``.
        """
        window = self.history.shape[1]
        filled = self.history_filled
        if filled < window:
            return self.history[:, :filled]
        index = (self.history_pos + np.arange(window)) % window
        return self.history[:, index]

    def die_vote_tail(self, die: int) -> list:
        """Return the votes that still decide one die's next correction.

        That is the run of equal signatures ending at the latest one,
        oldest first: ``[last_vote] * vote_streak`` (at most K votes).
        """
        return [int(self.last_vote[die])] * int(self.vote_streak[die])

    # ------------------------------------------------------------------
    # Chronological window seeding (the scalar wrapper's hand-off)
    # ------------------------------------------------------------------
    def seed_history(self, values) -> None:
        """Load a chronological occupancy window shared by every die.

        ``values`` is a 1-D chronological sequence of at most ``window``
        entries (the scalar rate controller's history).  Entries land in
        columns ``0..k-1`` with the ring write position parked just past
        them.
        """
        values = np.asarray(values, dtype=np.int64)
        window = self.history.shape[1]
        k = int(values.shape[-1]) if values.ndim else int(values.size)
        if k > window:
            raise ValueError("history seed longer than the window")
        self.history_filled = k
        self.history_pos = k % window
        if k:
            self.history[:, :k] = values
            self.history_sum[:] = self.history[:, :k].sum(axis=1)
        else:
            self.history_sum[:] = 0

    def seed_votes(self, votes, window: int) -> None:
        """Load a chronological signature list into every die.

        Only the list's latest value and the run of equal values ending
        there, capped at ``window`` (K), decide any later correction, so
        those two are all that is kept.
        """
        streak = 0
        for value in reversed(votes[-window:]):
            if value != votes[-1]:
                break
            streak += 1
        self.last_vote[:] = votes[-1] if streak else 0
        self.vote_streak[:] = streak

    # ------------------------------------------------------------------
    # Array/scalar field partition (the process fleet's shared-memory
    # hand-off: arrays live in shared blocks, scalars travel per task)
    # ------------------------------------------------------------------
    def array_fields(self) -> dict:
        """Return every per-die array field as ``{name: ndarray}``.

        This is the exact set of arrays a process-fleet run places in a
        shared-memory block; together with :meth:`scalar_fields` it
        covers the whole dataclass (pinned by the procfleet tests so a
        new field cannot silently escape the shared state).
        """
        return {
            name: getattr(self, name) for name in STATE_ARRAY_FIELDS
        }

    def scalar_fields(self) -> dict:
        """Return the shared-across-dies scalars as plain Python values.

        These advance identically in every shard (the engine bumps them
        once per cycle regardless of die values), so a worker receives
        them by value per task and the parent re-adopts any one worker's
        result after the run.  Derived from ``STATE_SCALAR_FIELDS`` so a
        newly added scalar automatically joins the hand-off.
        """
        return {
            name: getattr(self, name) for name in STATE_SCALAR_FIELDS
        }

    def apply_scalars(self, scalars: dict) -> None:
        """Adopt the scalar fields a worker reported after its run."""
        for name in STATE_SCALAR_FIELDS:
            setattr(self, name, scalars[name])

    def snapshot(self) -> dict:
        """Return a private deep copy of the full state (arrays + scalars).

        Fault recovery restores a failed shard from the snapshot taken
        at epoch start and replays the epoch's commands; the copies are
        plain in-memory arrays, independent of any shared-memory
        backing.
        """
        arrays = {
            name: None if array is None else np.array(array)
            for name, array in self.array_fields().items()
        }
        return {"arrays": arrays, "scalars": self.scalar_fields()}

    def restore(self, snap: dict) -> None:
        """Write a :meth:`snapshot` back *in place*.

        Array contents are assigned element-wise so shared-memory shard
        views (and any aliases other components hold) stay valid; the
        scalars are re-adopted by value.
        """
        for name, saved in snap["arrays"].items():
            if saved is None:
                continue
            getattr(self, name)[...] = saved
        self.apply_scalars(snap["scalars"])

    @classmethod
    def from_arrays(cls, arrays: dict, scalars: dict) -> "BatchState":
        """Rebuild a state from an array dict + scalar dict.

        The arrays are adopted as-is (typically zero-copy views into a
        shared-memory block), so mutations made through the returned
        state are visible to every other attachment of the same block.
        """
        return cls(**arrays, **scalars)

    def shard_view(self, index: slice) -> "BatchState":
        """Return a state over row views of a contiguous die shard.

        Every array field is sliced along the die axis (axis 0) without
        copying; the shared scalars are copied by value.  Mutating the
        view mutates the parent arrays — which is the point: process
        workers and the parent observe one set of arrays.
        """
        return BatchState.from_arrays(
            {
                name: array[index]
                for name, array in self.array_fields().items()
            },
            self.scalar_fields(),
        )

    def detach(self) -> None:
        """Replace every array field with a private in-memory copy.

        Called before a shared-memory backing is closed/unlinked so the
        state object stays safely readable afterwards (gather methods,
        post-mortem inspection) without referencing unmapped memory.
        """
        for name in STATE_ARRAY_FIELDS:
            setattr(self, name, np.array(getattr(self, name)))

    @classmethod
    def initial(
        cls,
        n: int,
        config: ControllerConfig,
        averaging_window: int = 4,
        initial_correction=0,
    ) -> "BatchState":
        """Return the power-on state of ``n`` dies (mirrors the scalar stack).

        The duty register starts at the counter's lower bound, the output
        filter at the configured initial voltage, and every accumulator
        at zero — exactly how ``AdaptiveController.__init__`` leaves its
        component objects.
        """
        if n <= 0:
            raise ValueError("population size must be positive")
        if averaging_window <= 0:
            raise ValueError("averaging_window must be positive")
        correction = np.broadcast_to(
            np.asarray(initial_correction, dtype=np.int64), (n,)
        ).copy()
        return cls(
            queue_length=np.zeros(n, dtype=np.int64),
            history=np.zeros((n, averaging_window), dtype=np.int64),
            history_filled=0,
            duty_value=np.full(n, config.code_lower_bound, dtype=np.int64),
            cycles_since_duty_update=np.zeros(n, dtype=np.int64),
            last_desired=np.zeros(n, dtype=np.int64),
            has_last_desired=np.zeros(n, dtype=bool),
            inductor_current=np.zeros(n, dtype=float),
            output_voltage=np.full(
                n, config.power_stage.initial_output_voltage, dtype=float
            ),
            work_accumulator=np.zeros(n, dtype=float),
            lut_correction=correction,
            last_vote=np.zeros(n, dtype=np.int64),
            vote_streak=np.zeros(n, dtype=np.int64),
            cycles=0,
            history_pos=0,
            history_sum=np.zeros(n, dtype=np.int64),
            energy_total=np.zeros(n, dtype=float),
            operations_total=np.zeros(n, dtype=np.int64),
            drops_total=np.zeros(n, dtype=np.int64),
            accepted_total=np.zeros(n, dtype=np.int64),
            peak_queue=np.zeros(n, dtype=np.int64),
            decision_up_total=np.zeros(n, dtype=np.int64),
            decision_hold_total=np.zeros(n, dtype=np.int64),
            decision_down_total=np.zeros(n, dtype=np.int64),
        )


STATE_SCALAR_FIELDS = ("history_filled", "cycles", "history_pos")
"""The :class:`BatchState` fields shared across dies as plain scalars."""

STATE_ARRAY_FIELDS = tuple(
    f.name for f in fields(BatchState)
    if f.name not in STATE_SCALAR_FIELDS
)
"""Every per-die array field, derived from the dataclass so a newly
added field automatically joins the shared-memory hand-off."""
