"""Structured fault injection and recovery policy.

The execution stack (``repro.engine.fleet`` / ``repro.engine.procfleet``
/ ``repro.service``) is deterministic by contract; this package makes
its *failure handling* testable with the same rigor.  A
:class:`FaultPlan` is a typed schedule of faults — crash a worker at a
shard:cycle point, hang it, slow it down, corrupt an ack, fail a
shared-memory attach, corrupt a cache entry — and a
:class:`FaultInjector` fires each spec against runtime events while
counting down its budget.  Plans are installable three ways:

* from tests, via :func:`install` (highest precedence),
* from the environment, via ``REPRO_FAULTS``,
* from the CLI, via ``repro-serve --chaos``.

``REPRO_FAULTS`` grammar — comma-separated items of::

    [scope/]kind[@shard[:cycle[:seconds[:times]]]]

where ``shard`` is an integer or ``*`` (any shard), ``times <= 0``
means unlimited, and scope defaults per kind (``shm_attach`` implies
``attach``, ``cache_corrupt`` implies ``cache``, everything else
``fleet``).  Examples: ``crash@1:20``, ``hang@*:0:30``,
``service/raise``, ``cache_corrupt``.

Determinism note: fault *matching* is pure — a spec fires as a function
of (scope, shard, start cycle, command, executor) and its remaining
budget, never of wall clock or RNG.  Fleet shards poll at the start of
each run, so a fleet-scope spec fires at the first run whose start
cycle is at or after its ``cycle``; a caller that wants a fault
mid-horizon splits the horizon over sequential runs.  The recovery
layers built on top (``RecoveryPolicy`` in the fleet,
``ResiliencePolicy`` in the service) guarantee that a recovered run is
bit-identical to a fault-free one.

Backend semantics: the process backend honors every kind (``crash`` is
``os._exit`` in the worker); the serial backend treats ``crash`` and
``hang`` as raises (the calling thread cannot be killed or exited
without taking the interpreter down) and honors ``slow`` as a sleep.  A
respawned process worker is born fault-free — its injected fault
already fired, and re-arming it would make recovery impossible by
construction.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Mapping, Optional, Tuple

FAULTS_ENV = "REPRO_FAULTS"

FAULT_KINDS = (
    "crash",
    "raise",
    "hang",
    "slow",
    "ack_corrupt",
    "shm_attach",
    "cache_corrupt",
)
FAULT_SCOPES = ("fleet", "attach", "cache", "service")
FAULT_COMMANDS = ("run", "close", "any")

_IMPLIED_SCOPE: Mapping[str, str] = {
    "shm_attach": "attach",
    "cache_corrupt": "cache",
}
_DEFAULT_SECONDS: Mapping[str, float] = {"hang": 60.0, "slow": 0.02}


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault.

    ``shard=None`` matches any shard, ``cycle`` is the start cycle at or
    after which the spec arms (a fleet spec fires at the start of the
    first run that begins at or after it), ``times <= 0`` means an
    unlimited firing budget, and ``executor`` restricts the spec to one
    backend (``"process"``/``"serial"``/service mode names) so a
    chaos plan can force-fail one rung of a degradation ladder without
    touching the others.
    """

    kind: str
    scope: str = ""
    shard: Optional[int] = None
    cycle: int = 0
    seconds: float = 0.0
    times: int = 1
    command: str = "run"
    executor: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{FAULT_KINDS}"
            )
        scope = self.scope or _IMPLIED_SCOPE.get(self.kind, "fleet")
        if scope not in FAULT_SCOPES:
            raise ValueError(
                f"unknown fault scope {scope!r}; expected one of "
                f"{FAULT_SCOPES}"
            )
        implied = _IMPLIED_SCOPE.get(self.kind)
        if implied is not None and scope != implied:
            raise ValueError(
                f"fault kind {self.kind!r} implies scope {implied!r}, "
                f"got {scope!r}"
            )
        if self.command not in FAULT_COMMANDS:
            raise ValueError(
                f"unknown fault command {self.command!r}; expected one "
                f"of {FAULT_COMMANDS}"
            )
        object.__setattr__(self, "scope", scope)
        if self.seconds <= 0.0:
            object.__setattr__(
                self, "seconds", _DEFAULT_SECONDS.get(self.kind, 0.0)
            )
        if self.cycle < 0:
            raise ValueError("fault cycle must be >= 0")

    def matches(
        self,
        *,
        scope: str,
        shard: Optional[int],
        cycle: int,
        command: str,
        executor: Optional[str],
    ) -> bool:
        if self.scope != scope:
            return False
        if self.shard is not None and shard != self.shard:
            return False
        if cycle < self.cycle:
            return False
        if self.command != "any" and command != self.command:
            return False
        if self.executor is not None and executor != self.executor:
            return False
        return True


def _parse_item(item: str) -> FaultSpec:
    text = item.strip()
    scope = ""
    if "/" in text:
        scope, text = text.split("/", 1)
        scope = scope.strip()
    shard: Optional[int] = None
    cycle = 0
    seconds = 0.0
    times = 1
    if "@" in text:
        kind, _, rest = text.partition("@")
        fields = rest.split(":")
        if fields[0] not in ("", "*"):
            shard = int(fields[0])
        if len(fields) > 1 and fields[1]:
            cycle = int(fields[1])
        if len(fields) > 2 and fields[2]:
            seconds = float(fields[2])
        if len(fields) > 3 and fields[3]:
            times = int(fields[3])
        if len(fields) > 4:
            raise ValueError(f"too many fields in fault item {item!r}")
    else:
        kind = text
    return FaultSpec(
        kind=kind.strip(),
        scope=scope,
        shard=shard,
        cycle=cycle,
        seconds=seconds,
        times=times,
    )


@dataclass(frozen=True)
class FaultPlan:
    """An immutable schedule of :class:`FaultSpec` entries."""

    specs: Tuple[FaultSpec, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))
        for spec in self.specs:
            if not isinstance(spec, FaultSpec):
                raise TypeError(f"expected FaultSpec, got {type(spec)!r}")

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse the ``REPRO_FAULTS`` grammar (see module docstring)."""
        specs = [
            _parse_item(item)
            for item in text.split(",")
            if item.strip()
        ]
        return cls(specs=tuple(specs))

    @classmethod
    def from_env(
        cls, environ: Optional[Mapping[str, str]] = None
    ) -> Optional["FaultPlan"]:
        """Build a plan from ``REPRO_FAULTS``; None when it is unset or
        empty."""
        env = os.environ if environ is None else environ
        raw = env.get(FAULTS_ENV)
        if not raw:
            return None
        plan = cls.parse(raw)
        return plan if plan.specs else None


class FaultInjector:
    """Fires the specs of one plan against runtime events.

    Each spec carries a firing budget (``times``); ``poll`` returns the
    first armed spec matching the event and decrements its budget.
    One injector instance counts independently — the process backend
    builds one per worker process from the payload, so a per-shard
    spec's budget is scoped to the worker that owns the shard.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._fired = [0] * len(plan.specs)

    def poll(
        self,
        *,
        scope: str = "fleet",
        shard: Optional[int] = None,
        cycle: int = 0,
        command: str = "run",
        executor: Optional[str] = None,
    ) -> Optional[FaultSpec]:
        for position, spec in enumerate(self.plan.specs):
            if 0 < spec.times <= self._fired[position]:
                continue
            if not spec.matches(
                scope=scope,
                shard=shard,
                cycle=cycle,
                command=command,
                executor=executor,
            ):
                continue
            self._fired[position] += 1
            return spec
        return None

    @property
    def fired(self) -> Tuple[int, ...]:
        return tuple(self._fired)


def injected_error(shard: Optional[int], kind: str) -> RuntimeError:
    """The canonical injected-fault exception (the ``injected worker
    fault`` message prefix is pinned by the fleet crash tests)."""
    where = "" if shard is None else f" on shard {shard}"
    return RuntimeError(f"injected worker fault{where} ({kind})")


@dataclass(frozen=True)
class RecoveryPolicy:
    """Fleet-level recovery knobs.

    ``max_restarts`` bounds worker respawns (serial path: shard
    re-attempts) over the backend's lifetime; ``command_timeout_s``
    arms hung-worker detection on the process backend's command pipes
    (None keeps blocking recv, the fail-fast default).
    """

    max_restarts: int = 1
    command_timeout_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")
        if self.command_timeout_s is not None and not (
            self.command_timeout_s > 0.0
        ):
            raise ValueError("command_timeout_s must be positive or None")


_installed: Optional[FaultPlan] = None
_env_key: Optional[str] = None
_env_plan: Optional[FaultPlan] = None
_shared: Optional[FaultInjector] = None


def install(plan: Optional[FaultPlan]) -> None:
    """Install a plan process-wide (wins over the environment)."""
    global _installed, _shared
    if plan is not None and not isinstance(plan, FaultPlan):
        raise TypeError(f"expected FaultPlan or None, got {type(plan)!r}")
    _installed = plan
    _shared = None


def clear() -> None:
    """Remove any installed plan (environment plans become visible)."""
    install(None)


def active_plan() -> Optional[FaultPlan]:
    """The installed plan, else the environment plan, else None.

    Environment parses are cached on the raw env string so repeated
    calls return the *same* plan object and the shared injector's
    budgets survive across polls.
    """
    if _installed is not None:
        return _installed
    global _env_key, _env_plan
    key = os.environ.get(FAULTS_ENV)
    if key != _env_key:
        _env_key = key
        _env_plan = FaultPlan.from_env()
    return _env_plan


def shared_injector() -> Optional[FaultInjector]:
    """The process-wide injector over :func:`active_plan`.

    Used by in-process fault sites (serial fleet shards, the
    service retry loop, the cache probe) so one plan's budgets are
    shared across them; the process backend instead ships the plan in
    the worker payload and builds a per-worker injector.
    """
    global _shared
    plan = active_plan()
    if plan is None:
        _shared = None
        return None
    if _shared is None or _shared.plan is not plan:
        _shared = FaultInjector(plan)
    return _shared


__all__ = [
    "FAULTS_ENV",
    "FAULT_COMMANDS",
    "FAULT_KINDS",
    "FAULT_SCOPES",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "RecoveryPolicy",
    "active_plan",
    "clear",
    "injected_error",
    "install",
    "shared_injector",
]
