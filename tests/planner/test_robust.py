"""Unit tests for the graceful-degradation ladder (solve_robust)."""

import pytest

from repro.domains import media
from repro.model import Leveling, LevelSpec
from repro.network import chain_network
from repro.obs import Telemetry
from repro.planner import (
    PlannerConfig,
    ResourceInfeasible,
    SearchBudgetExceeded,
    SolveOutcome,
    Unsolvable,
    coarsen_leveling,
    solve_robust,
)
from repro.planner import RungAttempt
from repro.planner import robust as robust_mod

LEV = media.proportional_leveling((30, 70, 90, 100))


def chain_instance():
    net = chain_network([(150, "LAN"), (150, "LAN")], cpu=30.0)
    return media.build_app("n0", "n2"), net


class TestCoarsenLeveling:
    def test_halves_and_keeps_highest(self):
        lev = Leveling({"M.ibw": LevelSpec((30.0, 70.0, 90.0, 100.0))}, name="d")
        coarse = coarsen_leveling(lev)
        assert coarse.specs["M.ibw"].cutpoints == (70.0, 100.0)
        assert coarse.name == "d-coarse"

    def test_two_cutpoints_collapse_to_highest(self):
        lev = Leveling({"M.ibw": LevelSpec((90.0, 100.0))}, name="c")
        assert coarsen_leveling(lev).specs["M.ibw"].cutpoints == (100.0,)

    def test_nothing_to_coarsen_returns_none(self):
        lev = Leveling({"M.ibw": LevelSpec((100.0,))}, name="b")
        assert coarsen_leveling(lev) is None
        assert coarsen_leveling(Leveling({}, name="empty")) is None

    def test_single_cutpoint_specs_survive_untouched(self):
        lev = Leveling(
            {"M.ibw": LevelSpec((100.0,)), "T.ibw": LevelSpec((35.0, 70.0))},
            name="mixed",
        )
        coarse = coarsen_leveling(lev)
        assert coarse.specs["M.ibw"].cutpoints == (100.0,)
        assert coarse.specs["T.ibw"].cutpoints == (70.0,)


class TestSolveRobust:
    def test_easy_instance_wins_on_full_rung(self):
        app, net = chain_instance()
        tele = Telemetry()
        outcome = solve_robust(app, net, LEV, telemetry=tele)
        assert outcome.solved and not outcome.degraded
        assert outcome.rung == "full"
        assert [a.rung for a in outcome.attempts] == ["full"]
        names = {m["name"] for m in tele.metrics.snapshot()}
        assert "robust.attempt.full" in names
        assert "robust.fallback.full" in names

    def test_budget_cut_wins_on_anytime_rung(self):
        app, net = chain_instance()
        tele = Telemetry()
        outcome = solve_robust(
            app, net, LEV, config=PlannerConfig(rg_node_budget=1), telemetry=tele
        )
        assert outcome.solved and outcome.degraded
        assert outcome.rung == "anytime"
        assert outcome.plan.incumbent
        assert "(incumbent)" in outcome.attempts[0].detail
        names = {m["name"] for m in tele.metrics.snapshot()}
        assert "robust.fallback.anytime" in names

    def test_unsolvable_stops_ladder_without_retries(self):
        # The client's link is starved below any useful stream: no rung
        # can fix an unreachable goal, so the ladder stops after one try.
        net = chain_network([(150, "LAN"), (10, "LAN")], cpu=30.0)
        app = media.build_app("n0", "n2")
        outcome = solve_robust(app, net, LEV)
        assert not outcome.solved
        assert outcome.rung == ""
        assert len(outcome.attempts) == 1
        assert outcome.attempts[0].error_type in ("Unsolvable", "ResourceInfeasible")

    def test_each_attempt_runs_under_a_rung_span(self):
        app, net = chain_instance()
        tele = Telemetry()
        solve_robust(app, net, LEV, config=PlannerConfig(rg_node_budget=1), telemetry=tele)
        rung_spans = [sp for sp in tele.spans.spans if sp.name == "robust.rung"]
        assert [(sp.attrs["rung"], sp.attrs["ok"]) for sp in rung_spans] == [("full", True)]
        compile_span = next(sp for sp in tele.spans.spans if sp.name == "compile")
        assert compile_span.parent == rung_spans[0].id

    def test_describe_names_winning_rung(self):
        app, net = chain_instance()
        outcome = solve_robust(app, net, LEV)
        assert "rung 'full'" in outcome.describe()

    def test_outcome_with_no_attempts_reports_unsolved(self):
        outcome = SolveOutcome(plan=None)
        assert not outcome.solved and not outcome.degraded
        assert "no plan" in outcome.describe()


def ok(rung):
    return RungAttempt(rung=rung, succeeded=True)


def failed(rung, error_type):
    return RungAttempt(rung=rung, succeeded=False, error_type=error_type)


class TestAcceptanceRule:
    """The one rule both the sequential walk and the race apply."""

    def test_lower_fatal_verdict_decides_nothing_while_full_runs(self):
        # The greedy rung's ResourceInfeasible lands first (as it does on
        # every Table-2 cell); the full rung is still unresolved.
        attempts = [None, None, failed("greedy", "ResourceInfeasible")]
        assert robust_mod._accept(attempts) == (False, None)
        attempts[0] = ok("full")
        assert robust_mod._accept(attempts) == (True, 0)

    def test_lower_plan_waits_for_higher_rungs(self):
        assert robust_mod._accept([None, ok("coarsened"), None]) == (False, None)
        attempts = [failed("full", "SearchBudgetExceeded"), ok("coarsened"), None]
        assert robust_mod._accept(attempts) == (True, 1)

    def test_fatal_verdict_in_priority_order_ends_the_walk(self):
        for fatal in ("Unsolvable", "ResourceInfeasible"):
            attempts = [failed("full", fatal), ok("coarsened"), None]
            assert robust_mod._accept(attempts) == (True, None)

    def test_crashes_and_budget_cuts_pass_down_the_ladder(self):
        attempts = [
            failed("full", "WorkerCrashed"),
            failed("coarsened", "DeadlineExceeded"),
            ok("greedy"),
        ]
        assert robust_mod._accept(attempts) == (True, 2)
        assert robust_mod._accept(attempts[:2]) == (True, None)


class TestLadderWalk:
    """Rung ordering and stop conditions, with planner failures injected
    deterministically via a stub Planner."""

    @pytest.fixture
    def fake_planner(self, monkeypatch):
        calls = []

        class FakePlan:
            incumbent = False
            cost_lb = 5.0
            actions = ("a",)

            def __len__(self):
                return 1

        class FakePlanner:
            fail_levelings: dict[str, Exception] = {}

            def __init__(self, config):
                self.config = config

            def solve(self, app, network):
                name = self.config.leveling.name if self.config.leveling else "none"
                calls.append(name)
                exc = self.fail_levelings.get(name)
                if exc is not None:
                    raise exc
                return FakePlan()

        monkeypatch.setattr(robust_mod, "Planner", FakePlanner)
        FakePlanner.fail_levelings = {}
        return FakePlanner, calls

    def test_coarsened_rung_wins_when_full_exhausts(self, fake_planner):
        FakePlanner, calls = fake_planner
        lev = Leveling({"M.ibw": LevelSpec((30.0, 70.0, 90.0, 100.0))}, name="d")
        FakePlanner.fail_levelings = {"d": SearchBudgetExceeded(budget=1)}
        tele = Telemetry()
        outcome = solve_robust(object(), object(), lev, telemetry=tele)
        assert outcome.rung == "coarsened"
        assert calls == ["d", "d-coarse"]
        assert [a.succeeded for a in outcome.attempts] == [False, True]
        names = {m["name"] for m in tele.metrics.snapshot()}
        assert "robust.fallback.coarsened" in names
        assert [
            (sp.attrs["rung"], sp.attrs["ok"])
            for sp in tele.spans.spans if sp.name == "robust.rung"
        ] == [("full", False), ("coarsened", True)]

    def test_greedy_rung_is_last_resort(self, fake_planner):
        FakePlanner, calls = fake_planner
        lev = Leveling({"M.ibw": LevelSpec((30.0, 70.0, 90.0, 100.0))}, name="d")
        FakePlanner.fail_levelings = {
            "d": SearchBudgetExceeded(budget=1),
            "d-coarse": SearchBudgetExceeded(budget=1),
        }
        outcome = solve_robust(object(), object(), lev)
        assert outcome.rung == "greedy"
        assert calls == ["d", "d-coarse", "greedy-trivial"]
        assert outcome.attempts[-1].succeeded

    def test_uncoarsenable_leveling_skips_straight_to_greedy(self, fake_planner):
        FakePlanner, calls = fake_planner
        lev = Leveling({"M.ibw": LevelSpec((100.0,))}, name="b")
        FakePlanner.fail_levelings = {"b": SearchBudgetExceeded(budget=1)}
        outcome = solve_robust(object(), object(), lev)
        assert outcome.rung == "greedy"
        assert calls == ["b", "greedy-trivial"]

    def test_resource_infeasible_stops_descent(self, fake_planner):
        FakePlanner, calls = fake_planner
        lev = Leveling({"M.ibw": LevelSpec((30.0, 70.0, 90.0, 100.0))}, name="d")
        FakePlanner.fail_levelings = {"d": ResourceInfeasible("no capacity")}
        tele = Telemetry()
        outcome = solve_robust(object(), object(), lev, telemetry=tele)
        assert not outcome.solved
        assert calls == ["d"]
        assert outcome.attempts[0].error_type == "ResourceInfeasible"
        names = {m["name"] for m in tele.metrics.snapshot()}
        assert "robust.failed" in names

    def test_every_rung_failing_reports_all_attempts(self, fake_planner):
        FakePlanner, calls = fake_planner
        lev = Leveling({"M.ibw": LevelSpec((30.0, 70.0, 90.0, 100.0))}, name="d")
        FakePlanner.fail_levelings = {
            "d": SearchBudgetExceeded(budget=1),
            "d-coarse": SearchBudgetExceeded(budget=1),
            "greedy-trivial": Unsolvable("nope"),
        }
        outcome = solve_robust(object(), object(), lev)
        assert not outcome.solved
        assert [a.rung for a in outcome.attempts] == ["full", "coarsened", "greedy"]
