"""Supervisor tests: crashes are caught, counted, and state survives."""

import pytest

from repro.obs import Telemetry
from repro.resilience import Supervisor


class TestSupervisor:
    def test_crash_is_caught_and_counted(self):
        supervisor = Supervisor()

        def poll():
            raise RuntimeError("boom")

        wrapped = supervisor.supervise(poll, role="worker-0")
        assert wrapped() == 0
        assert supervisor.restarts_by_role["worker-0"] == 1
        assert supervisor.total_restarts == 1
        assert supervisor.crash_log == [("worker-0", "RuntimeError('boom')")]

    def test_worker_state_survives_crashes(self):
        supervisor = Supervisor()
        state = {"count": 0, "crash_next": False}

        def poll():
            if state["crash_next"]:
                state["crash_next"] = False
                raise RuntimeError("injected")
            state["count"] += 1
            return 1

        wrapped = supervisor.supervise(poll, role="w")
        assert wrapped() == 1
        state["crash_next"] = True
        assert wrapped() == 0  # crash swallowed
        assert wrapped() == 1  # same closure state, work continues
        assert state["count"] == 2
        assert supervisor.total_restarts == 1

    def test_roles_counted_independently(self):
        supervisor = Supervisor()

        def crash():
            raise ValueError("x")

        a = supervisor.supervise(crash, role="a")
        b = supervisor.supervise(crash, role="b")
        a(), a(), b()
        assert supervisor.restarts_by_role == {"a": 2, "b": 1}

    def test_restart_budget_exhaustion_reraises(self):
        supervisor = Supervisor(max_restarts_per_role=2)

        def crash():
            raise RuntimeError("always")

        wrapped = supervisor.supervise(crash, role="w")
        wrapped()
        wrapped()
        with pytest.raises(RuntimeError, match="exceeded 2 restarts"):
            wrapped()

    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ValueError):
            Supervisor(max_restarts_per_role=0)

    def test_registry_exposes_restarts_by_role(self):
        telemetry = Telemetry()
        supervisor = Supervisor()
        supervisor.bind_registry(telemetry.registry)

        def crash():
            raise RuntimeError("x")

        wrapped = supervisor.supervise(crash, role="rx-worker-q0")
        wrapped()
        text = telemetry.registry.exposition()
        assert 'ruru_supervisor_restarts_total{role="rx-worker-q0"} 1' in text


class TestBudgetExhaustion:
    """The re-raise path: once a role blows its budget, every further
    crash escalates — the supervisor never resumes swallowing."""

    def _always_crash(self, supervisor, role="w"):
        def crash():
            raise ValueError("persistent fault")

        return supervisor.supervise(crash, role=role)

    def test_reraise_chains_the_original_exception(self):
        supervisor = Supervisor(max_restarts_per_role=1)
        wrapped = self._always_crash(supervisor)
        wrapped()
        with pytest.raises(RuntimeError) as excinfo:
            wrapped()
        assert isinstance(excinfo.value.__cause__, ValueError)
        assert "persistent fault" in str(excinfo.value)
        assert "'w'" in str(excinfo.value)

    def test_every_crash_past_the_budget_reraises(self):
        supervisor = Supervisor(max_restarts_per_role=1)
        wrapped = self._always_crash(supervisor)
        wrapped()
        for _ in range(3):
            with pytest.raises(RuntimeError, match="exceeded 1 restarts"):
                wrapped()
        # A refused crash is not a restart: the role spent its one.
        assert supervisor.restarts_by_role["w"] == 1
        assert supervisor.budget.exhausted("w")

    def test_exhaustion_is_per_role(self):
        supervisor = Supervisor(max_restarts_per_role=1)
        a = self._always_crash(supervisor, role="a")
        b = self._always_crash(supervisor, role="b")
        a()
        with pytest.raises(RuntimeError):
            a()
        assert b() == 0  # b's budget is untouched

    def test_success_after_exhaustion_still_returns_normally(self):
        supervisor = Supervisor(max_restarts_per_role=1)
        state = {"crash": True}

        def flaky():
            if state["crash"]:
                raise ValueError("x")
            return 7

        wrapped = supervisor.supervise(flaky, role="w")
        wrapped()
        with pytest.raises(RuntimeError):
            wrapped()
        state["crash"] = False
        assert wrapped() == 7  # only crashes escalate, not calls

    def test_the_budget_is_the_shared_restart_policy(self):
        """One supervision policy: the lcore supervisor spends the same
        RestartBudget the shard supervisor does, keyed by role."""
        from repro.resilience import RestartBudget

        supervisor = Supervisor(max_restarts_per_role=2)
        assert isinstance(supervisor.budget, RestartBudget)
        wrapped = self._always_crash(supervisor, role="rx-worker-q0")
        wrapped()
        assert supervisor.budget.remaining("rx-worker-q0") == 1
        wrapped()
        with pytest.raises(RuntimeError, match="exceeded 2 restarts"):
            wrapped()
        assert supervisor.total_restarts == supervisor.budget.total_spent == 2

    def test_crash_log_is_bounded(self):
        supervisor = Supervisor()

        def crash():
            raise ValueError("x")

        wrapped = supervisor.supervise(crash, role="w")
        for _ in range(300):
            wrapped()
        assert len(supervisor.crash_log) == 256
        assert supervisor.restarts_by_role["w"] == 300


class TestRestartBudget:
    """The counting half extracted for process shards (repro.shard)."""

    def test_consume_until_exhausted(self):
        from repro.resilience import RestartBudget

        budget = RestartBudget(max_restarts=2)
        assert budget.consume("shard-0") is True
        assert budget.consume("shard-0") is True
        assert budget.consume("shard-0") is False
        assert budget.exhausted("shard-0")
        assert budget.remaining("shard-0") == 0

    def test_keys_are_independent(self):
        from repro.resilience import RestartBudget

        budget = RestartBudget(max_restarts=1)
        assert budget.consume("a") is True
        assert budget.consume("a") is False
        assert budget.consume("b") is True
        assert budget.spent_by_key == {"a": 1, "b": 1}
        assert budget.total_spent == 2

    def test_zero_budget_never_allows(self):
        from repro.resilience import RestartBudget

        budget = RestartBudget(max_restarts=0)
        assert budget.consume("x") is False
        assert budget.exhausted("x")

    def test_negative_budget_rejected(self):
        from repro.resilience import RestartBudget

        with pytest.raises(ValueError):
            RestartBudget(max_restarts=-1)

    def test_remaining_before_any_consume(self):
        from repro.resilience import RestartBudget

        assert RestartBudget(max_restarts=3).remaining("fresh") == 3
