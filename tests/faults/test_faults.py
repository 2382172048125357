"""The fault-plan registry: grammar, matching, budgets, precedence.

``repro.faults`` is the foundation the chaos axis stands on, so its own
semantics are pinned tightly: the ``REPRO_FAULTS`` env grammar, spec
matching (scope / shard wildcard / cycle arming / command / executor
filters), per-spec firing budgets,
and the install-beats-environment precedence of :func:`active_plan`.
"""

import pytest

from repro import faults
from repro.faults import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    RecoveryPolicy,
)


@pytest.fixture(autouse=True)
def clean_registry():
    faults.clear()
    yield
    faults.clear()


class TestSpecValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            FaultSpec(kind="meltdown")

    def test_unknown_scope_rejected(self):
        with pytest.raises(ValueError, match="scope"):
            FaultSpec(kind="raise", scope="cosmic")

    def test_scope_implied_by_kind(self):
        assert FaultSpec(kind="shm_attach").scope == "attach"
        assert FaultSpec(kind="cache_corrupt").scope == "cache"
        assert FaultSpec(kind="crash").scope == "fleet"

    def test_conflicting_implied_scope_rejected(self):
        with pytest.raises(ValueError, match="implies"):
            FaultSpec(kind="shm_attach", scope="fleet")

    def test_default_seconds_per_kind(self):
        assert FaultSpec(kind="hang").seconds == 60.0
        assert FaultSpec(kind="slow").seconds == 0.02
        assert FaultSpec(kind="hang", seconds=3.0).seconds == 3.0
        assert FaultSpec(kind="crash").seconds == 0.0

    def test_negative_cycle_rejected(self):
        with pytest.raises(ValueError, match="cycle"):
            FaultSpec(kind="crash", cycle=-1)


class TestGrammar:
    def test_full_item(self):
        (spec,) = FaultPlan.parse("crash@1:20:0:2").specs
        assert spec == FaultSpec(
            kind="crash", shard=1, cycle=20, times=2
        )

    def test_wildcard_shard_and_seconds(self):
        (spec,) = FaultPlan.parse("hang@*:0:30").specs
        assert spec.shard is None
        assert spec.seconds == 30.0

    def test_scope_prefix(self):
        (spec,) = FaultPlan.parse("service/raise").specs
        assert spec.scope == "service"
        assert spec.shard is None

    def test_comma_separated_plan(self):
        plan = FaultPlan.parse("crash@0, slow@*:5 ,cache_corrupt")
        assert [spec.kind for spec in plan.specs] == [
            "crash", "slow", "cache_corrupt",
        ]

    def test_too_many_fields_rejected(self):
        with pytest.raises(ValueError, match="too many fields"):
            FaultPlan.parse("crash@1:2:3:4:5")

    def test_empty_text_is_empty_plan(self):
        assert FaultPlan.parse("").specs == ()


class TestEnvironment:
    def test_faults_env(self):
        plan = FaultPlan.from_env({"REPRO_FAULTS": "crash@1:20"})
        assert plan.specs == (FaultSpec(kind="crash", shard=1, cycle=20),)

    def test_empty_environment_is_none(self):
        assert FaultPlan.from_env({}) is None


class TestMatching:
    def test_shard_and_cycle_arming(self):
        spec = FaultSpec(kind="crash", shard=1, cycle=20)
        event = dict(scope="fleet", command="run", executor="process")
        assert not spec.matches(shard=0, cycle=20, **event)
        assert not spec.matches(shard=1, cycle=19, **event)
        assert spec.matches(shard=1, cycle=20, **event)
        assert spec.matches(shard=1, cycle=35, **event)

    def test_wildcard_shard(self):
        spec = FaultSpec(kind="slow")
        assert spec.matches(
            scope="fleet", shard=7, cycle=0, command="run", executor=None
        )

    def test_executor_filter(self):
        spec = FaultSpec(kind="raise", executor="process")
        event = dict(scope="fleet", shard=None, cycle=0, command="run")
        assert spec.matches(executor="process", **event)
        assert not spec.matches(executor="serial", **event)

    def test_command_filter_and_any(self):
        close_spec = FaultSpec(kind="hang", command="close")
        any_spec = FaultSpec(kind="hang", command="any")
        event = dict(scope="fleet", shard=None, cycle=0, executor=None)
        assert not close_spec.matches(command="run", **event)
        assert close_spec.matches(command="close", **event)
        assert any_spec.matches(command="run", **event)
        assert any_spec.matches(command="close", **event)


class TestInjectorBudgets:
    def test_budget_counts_down(self):
        injector = FaultInjector(
            FaultPlan((FaultSpec(kind="raise", times=2),))
        )
        assert injector.poll() is not None
        assert injector.poll() is not None
        assert injector.poll() is None
        assert injector.fired == (2,)

    def test_unlimited_budget(self):
        injector = FaultInjector(
            FaultPlan((FaultSpec(kind="raise", times=0),))
        )
        for _ in range(5):
            assert injector.poll() is not None

    def test_first_matching_spec_wins(self):
        plan = FaultPlan(
            (
                FaultSpec(kind="crash", shard=1),
                FaultSpec(kind="slow"),
            )
        )
        injector = FaultInjector(plan)
        assert injector.poll(shard=0).kind == "slow"
        assert injector.poll(shard=1).kind == "crash"


class TestRegistry:
    def test_install_wins_over_environment(self, monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV, "slow@*")
        plan = FaultPlan((FaultSpec(kind="crash"),))
        faults.install(plan)
        assert faults.active_plan() is plan
        faults.clear()
        assert faults.active_plan().specs[0].kind == "slow"

    def test_env_plan_object_is_cached(self, monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV, "raise@0")
        first = faults.active_plan()
        assert faults.active_plan() is first

    def test_shared_injector_tracks_plan_and_budget(self, monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV, "raise@*:0:0:1")
        injector = faults.shared_injector()
        assert faults.shared_injector() is injector
        assert injector.poll() is not None
        assert faults.shared_injector().poll() is None
        faults.install(FaultPlan((FaultSpec(kind="slow"),)))
        assert faults.shared_injector() is not injector

    def test_no_plan_means_no_injector(self):
        assert faults.active_plan() is None
        assert faults.shared_injector() is None

    def test_install_rejects_non_plan(self):
        with pytest.raises(TypeError):
            faults.install("crash@0")


class TestRecoveryPolicy:
    def test_defaults(self):
        policy = RecoveryPolicy()
        assert policy.max_restarts == 1
        assert policy.command_timeout_s is None

    def test_validation(self):
        with pytest.raises(ValueError):
            RecoveryPolicy(max_restarts=-1)
        with pytest.raises(ValueError):
            RecoveryPolicy(command_timeout_s=0.0)
        RecoveryPolicy(max_restarts=0, command_timeout_s=1.5)
