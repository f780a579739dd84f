"""Tests for the rule database, conflict checker and priority manager."""

import pytest

from repro.core.condition import AndCondition, DiscreteAtom, TrueAtom
from repro.core.conflict import ConflictChecker
from repro.core.database import RuleDatabase
from repro.core.priority import PriorityManager, PriorityOrder
from repro.errors import DuplicateRuleError, RuleError, UnknownRuleError
from repro.solver.linear import Relation

from tests.core.conftest import (
    FakeContext,
    action,
    humid_above,
    in_room,
    make_rule,
    numeric_atom,
    on_air,
    temp_above,
)


class TestRuleDatabase:
    def test_add_get_remove(self):
        db = RuleDatabase()
        rule = make_rule("r1", "Tom", in_room("Tom"), action())
        db.add(rule)
        assert len(db) == 1
        assert db.get("r1") is rule
        removed = db.remove("r1")
        assert removed is rule
        assert len(db) == 0

    def test_duplicate_name_rejected(self):
        db = RuleDatabase()
        db.add(make_rule("r1", "Tom", in_room("Tom"), action()))
        with pytest.raises(DuplicateRuleError):
            db.add(make_rule("r1", "Alan", in_room("Alan"), action()))

    def test_unknown_name_raises(self):
        db = RuleDatabase()
        with pytest.raises(UnknownRuleError):
            db.get("ghost")
        with pytest.raises(UnknownRuleError):
            db.remove("ghost")

    def test_device_index(self):
        db = RuleDatabase()
        db.add(make_rule("tv-rule", "Tom", in_room("Tom"), action(device="tv-1")))
        db.add(make_rule("ac-rule", "Tom", temp_above(28), action(device="ac-1")))
        assert [r.name for r in db.rules_for_device("tv-1")] == ["tv-rule"]
        assert db.rules_for_device("stereo-1") == []

    def test_device_index_includes_fallback(self):
        db = RuleDatabase()
        rule = make_rule(
            "r", "Alan", in_room("Alan"), action(device="tv-1"),
            fallback=action(device="recorder-1", act="Record"),
        )
        db.add(rule)
        assert [r.name for r in db.rules_for_device("recorder-1")] == ["r"]

    def test_scan_matches_index(self):
        db = RuleDatabase()
        for i in range(30):
            db.add(make_rule(f"r{i}", "Tom", in_room("Tom"),
                             action(device=f"dev-{i % 3}")))
        assert {r.name for r in db.rules_for_device("dev-1")} == {
            r.name for r in db.all_rules() if "dev-1" in r.devices()
        }

    def test_owner_index(self):
        db = RuleDatabase()
        db.add(make_rule("r1", "Tom", in_room("Tom"), action()))
        db.add(make_rule("r2", "Alan", in_room("Alan"), action()))
        assert [r.name for r in db.rules_of_owner("Alan")] == ["r2"]

    def test_variable_index(self):
        db = RuleDatabase()
        db.add(make_rule("r1", "Tom", temp_above(28), action()))
        db.add(make_rule("r2", "Tom", in_room("Tom"), action()))
        readers = db.rules_reading_variable("thermo:t:temperature")
        assert [r.name for r in readers] == ["r1"]

    def test_variable_index_cleaned_on_remove(self):
        db = RuleDatabase()
        db.add(make_rule("r1", "Tom", temp_above(28), action()))
        db.remove("r1")
        assert db.rules_reading_variable("thermo:t:temperature") == []

    def test_until_variables_indexed(self):
        db = RuleDatabase()
        db.add(make_rule("r1", "Tom", in_room("Tom"), action(),
                         until=temp_above(30)))
        readers = db.rules_reading_variable("thermo:t:temperature")
        assert [r.name for r in readers] == ["r1"]

    def test_iteration_snapshot(self):
        db = RuleDatabase()
        db.add(make_rule("r1", "Tom", in_room("Tom"), action()))
        names = [rule.name for rule in db]
        assert names == ["r1"]


class TestConflictChecker:
    def _db_with_tv_rules(self):
        db = RuleDatabase()
        alan = make_rule(
            "alan-tv", "Alan",
            AndCondition([in_room("Alan"), on_air("baseball game")]),
            action(device="tv-1", act="ShowProgram", keyword="baseball game"),
        )
        db.add(alan)
        return db, alan

    def test_same_device_overlapping_conditions_conflict(self):
        db, alan = self._db_with_tv_rules()
        checker = ConflictChecker(db)
        emily = make_rule(
            "emily-tv", "Emily",
            AndCondition([in_room("Emily"), on_air("movie")]),
            action(device="tv-1", act="ShowProgram", keyword="movie"),
        )
        reports = checker.find_conflicts(emily)
        assert len(reports) == 1
        assert reports[0].existing_rule == "alan-tv"
        assert reports[0].device_udn == "tv-1"

    def test_different_devices_no_conflict(self):
        db, _ = self._db_with_tv_rules()
        checker = ConflictChecker(db)
        rule = make_rule("stereo-rule", "Tom", in_room("Tom"),
                         action(device="stereo-1", act="PlayMusic"))
        assert checker.find_conflicts(rule) == []

    def test_identical_effect_no_conflict(self):
        db, _ = self._db_with_tv_rules()
        checker = ConflictChecker(db)
        same = make_rule(
            "alan-tv-2", "Emily",
            in_room("Emily"),
            action(device="tv-1", act="ShowProgram", keyword="baseball game"),
        )
        assert checker.find_conflicts(same) == []

    def test_mutually_exclusive_conditions_no_conflict(self):
        db = RuleDatabase()
        cold = make_rule(
            "cold", "Tom",
            AndCondition([
                numeric_atom("t", Relation.GT, 0),
                numeric_atom("t", Relation.LT, 10),
            ]),
            action(device="ac-1", act="Heat"),
        )
        db.add(cold)
        checker = ConflictChecker(db)
        hot = make_rule(
            "hot", "Tom",
            AndCondition([
                numeric_atom("t", Relation.GT, 28),
                numeric_atom("t", Relation.LT, 40),
            ]),
            action(device="ac-1", act="Cool"),
        )
        assert checker.find_conflicts(hot) == []

    def test_fallback_device_counts(self):
        db, _ = self._db_with_tv_rules()
        checker = ConflictChecker(db)
        rule = make_rule(
            "emily-movie", "Emily", in_room("Emily"),
            action(device="projector-1", act="Show"),
            fallback=action(device="tv-1", act="ShowProgram", keyword="movie"),
        )
        reports = checker.find_conflicts(rule)
        assert len(reports) == 1

    def test_extraction_excludes_self(self):
        db, alan = self._db_with_tv_rules()
        checker = ConflictChecker(db)
        assert checker.extract_same_device_rules(alan) == []

    def test_disabled_rules_skipped(self):
        db, alan = self._db_with_tv_rules()
        alan.enabled = False
        checker = ConflictChecker(db)
        emily = make_rule(
            "emily-tv", "Emily", in_room("Emily"),
            action(device="tv-1", act="ShowProgram", keyword="movie"),
        )
        assert checker.find_conflicts(emily) == []

    def test_unindexed_mode_matches_indexed(self):
        db, _ = self._db_with_tv_rules()
        emily = make_rule(
            "emily-tv", "Emily", in_room("Emily"),
            action(device="tv-1", act="ShowProgram", keyword="movie"),
        )
        checker = ConflictChecker(db)
        # The reference scans every rule instead of the device index.
        scanned = [
            report.existing_rule
            for rule in sorted(db.all_rules(), key=lambda r: r.rule_id)
            if rule.enabled and rule.devices() & emily.devices()
            and (report := checker.conflicts_with(emily, rule)) is not None
        ]
        assert scanned == ["alan-tv"]
        assert [r.existing_rule for r in checker.find_conflicts(emily)] \
            == scanned

    def test_paper_e2_shape_two_inequalities_each(self):
        """E2: each condition is a conjunction of 2 inequalities; the
        pairwise check therefore evaluates a product of 4 inequalities."""
        db = RuleDatabase()
        existing = make_rule(
            "existing", "Alan",
            AndCondition([temp_above(25), humid_above(60)]),
            action(device="ac-1", act="Cool", temperature=24),
        )
        db.add(existing)
        checker = ConflictChecker(db)
        new = make_rule(
            "new", "Tom",
            AndCondition([temp_above(26), humid_above(65)]),
            action(device="ac-1", act="Cool", temperature=25),
        )
        reports = checker.find_conflicts(new)
        assert len(reports) == 1


class TestPlanStaging:
    """A validated registration checks the plan the database then keeps;
    a rejected one keeps nothing, and the errors keep their order."""

    def _stack(self):
        from repro.core.server import build_rule_stack
        from repro.sim.events import Simulator

        return build_rule_stack(Simulator(), dispatch=lambda spec: None)

    def _impossible(self):
        return AndCondition([
            temp_above(30), numeric_atom("thermo:t:temperature",
                                         Relation.LT, 20)])

    def test_errors_keep_their_order_and_leave_no_plan(self):
        from repro.core.access import AccessDeniedError
        from repro.errors import InconsistentRuleError

        stack = self._stack()
        stack.pipeline.register(make_rule("r1", "Tom", in_room("Tom"),
                                          action(device="tv-1")))
        stack.access.grant("Alan", "ac-1")
        cached = dict(stack.database._plans)
        with pytest.raises(AccessDeniedError):
            stack.pipeline.register(make_rule(
                "r2", "Tom", self._impossible(), action(device="ac-1")))
        with pytest.raises(InconsistentRuleError):
            stack.pipeline.register(make_rule(
                "r1", "Tom", self._impossible(), action(device="tv-1")))
        with pytest.raises(DuplicateRuleError):
            stack.pipeline.register(make_rule(
                "r1", "Alan", in_room("Alan"), action(device="tv-1")))
        assert stack.database._plans == cached

    def test_boxes_built_once_and_never_on_the_bulk_path(self):
        stack = self._stack()
        bulk = make_rule("bulk", "Tom", temp_above(20),
                         action(device="ac-1", act="Cool"))
        stack.pipeline.register(bulk, validate=False)
        plan = stack.database.plan_of("bulk")
        assert plan._boxes is None
        reports = stack.pipeline.register(make_rule(
            "checked", "Alan", temp_above(25),
            action(device="ac-1", act="Heat")))
        assert [report.existing_rule for report in reports] == ["bulk"]
        boxes = plan._boxes
        assert boxes is not None and plan.boxes() is boxes
        checked = stack.database.plan_of("checked")
        assert checked._boxes is not None
        stack.pipeline.remove("checked")
        assert checked.source_key not in stack.database._plans


class TestPriorityManager:
    def _ctx(self, discrete=None):
        return FakeContext(discrete=discrete or {})

    def test_order_validation(self):
        with pytest.raises(RuleError):
            PriorityOrder("tv-1", ())
        with pytest.raises(RuleError):
            PriorityOrder("tv-1", ("Alan", "Alan"))

    def test_rank_of(self):
        order = PriorityOrder("tv-1", ("Emily", "Alan", "Tom"))
        assert order.rank_of("Emily") == 0
        assert order.rank_of("Tom") == 2
        assert order.rank_of("Stranger") is None

    def test_arbitrate_single_rule_wins_without_order(self):
        manager = PriorityManager()
        rule = make_rule("r", "Tom", in_room("Tom"), action())
        winner, order = manager.arbitrate("tv-1", [rule], self._ctx())
        assert winner is rule
        assert order is None

    def test_arbitrate_uses_ranking(self):
        manager = PriorityManager()
        manager.add_order(PriorityOrder("tv-1", ("Alan", "Tom")))
        tom = make_rule("tom", "Tom", in_room("Tom"), action(device="tv-1"))
        alan = make_rule("alan", "Alan", in_room("Alan"), action(device="tv-1"))
        winner, order = manager.arbitrate("tv-1", [tom, alan], self._ctx())
        assert winner is alan
        assert order is not None

    def test_context_scoped_order(self):
        manager = PriorityManager()
        manager.add_order(
            PriorityOrder(
                "tv-1", ("Alan", "Tom"),
                context=DiscreteAtom("person:Alan:last_arrival", "work"),
                label="Alan got home from work",
            )
        )
        tom = make_rule("tom", "Tom", in_room("Tom"), action(device="tv-1"))
        alan = make_rule("alan", "Alan", in_room("Alan"), action(device="tv-1"))
        # Context off: no applicable order.
        winner, order = manager.arbitrate("tv-1", [tom, alan], self._ctx())
        assert winner is None and order is None
        # Context on: Alan wins.
        ctx = self._ctx({"person:Alan:last_arrival": "work"})
        winner, _ = manager.arbitrate("tv-1", [tom, alan], ctx)
        assert winner is alan

    def test_later_order_checked_first(self):
        manager = PriorityManager()
        manager.add_order(PriorityOrder("tv-1", ("Alan", "Tom")))
        manager.add_order(PriorityOrder("tv-1", ("Tom", "Alan")))  # newest
        tom = make_rule("tom", "Tom", in_room("Tom"), action(device="tv-1"))
        alan = make_rule("alan", "Alan", in_room("Alan"), action(device="tv-1"))
        winner, _ = manager.arbitrate("tv-1", [tom, alan], self._ctx())
        assert winner is tom

    def test_unranked_owner_skipped(self):
        manager = PriorityManager()
        manager.add_order(PriorityOrder("tv-1", ("Emily",)))
        tom = make_rule("tom", "Tom", in_room("Tom"), action(device="tv-1"))
        emily = make_rule("emily", "Emily", in_room("Emily"), action(device="tv-1"))
        winner, _ = manager.arbitrate("tv-1", [tom, emily], self._ctx())
        assert winner is emily

    def test_has_order_covering(self):
        manager = PriorityManager()
        manager.add_order(PriorityOrder("tv-1", ("Emily", "Alan", "Tom")))
        assert manager.has_order_covering("tv-1", {"Alan", "Tom"})
        assert not manager.has_order_covering("tv-1", {"Alan", "Stranger"})
        assert not manager.has_order_covering("stereo-1", {"Alan"})

    def test_remove_order(self):
        manager = PriorityManager()
        order = manager.add_order(PriorityOrder("tv-1", ("Alan",)))
        manager.remove_order(order.order_id)
        assert manager.orders_for_device("tv-1") == []
        with pytest.raises(RuleError):
            manager.remove_order(order.order_id)

    def test_arbitrate_empty_raises(self):
        with pytest.raises(RuleError):
            PriorityManager().arbitrate("tv-1", [], self._ctx())
