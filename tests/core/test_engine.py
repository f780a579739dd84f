"""Tests for the rule-execution engine: edges, arbitration, preemption,
fallbacks, durations, until-conditions and re-granting."""

import pytest

from repro.core.condition import (
    AndCondition,
    DiscreteAtom,
    DurationAtom,
    EventAtom,
    TimeWindowAtom,
)
from repro.core.database import RuleDatabase
from repro.core.engine import RuleEngine, RuleState
from repro.core.priority import PriorityManager, PriorityOrder
from repro.errors import RuleError
from repro.sim.clock import hhmm
from repro.sim.events import Simulator

from tests.core.conftest import (
    action,
    evening,
    in_room,
    make_rule,
    temp_above,
)


class Harness:
    """Engine + fake dispatcher capturing issued commands."""

    def __init__(self, prompt_policy=None, incremental=True):
        self.simulator = Simulator()
        self.database = RuleDatabase()
        self.priorities = PriorityManager()
        self.dispatched = []
        self.engine = RuleEngine(
            self.database,
            self.priorities,
            self.simulator,
            dispatch=self.dispatched.append,
            prompt_policy=prompt_policy,
            incremental=incremental,
        )

    def add_rule(self, rule):
        self.database.add(rule)
        self.engine.rule_added(rule)
        return rule

    def commands(self):
        return [(spec.device_udn, spec.action_name) for spec in self.dispatched]


@pytest.fixture
def harness():
    return Harness()


class TestEdgeTriggering:
    def test_rising_edge_fires_action(self, harness):
        harness.add_rule(make_rule("r", "Tom", in_room("Tom"), action()))
        harness.engine.ingest("person:Tom:place", "living room")
        assert harness.commands() == [("tv-1", "TurnOn")]
        assert harness.engine.rule_state("r") is RuleState.ACTIVE

    def test_level_does_not_refire(self, harness):
        harness.add_rule(make_rule("r", "Tom", temp_above(28), action()))
        harness.engine.ingest("thermo:t:temperature", 30.0)
        harness.engine.ingest("thermo:t:temperature", 31.0)  # still true
        assert len(harness.dispatched) == 1

    def test_refires_after_falling_edge(self, harness):
        harness.add_rule(make_rule("r", "Tom", temp_above(28), action()))
        harness.engine.ingest("thermo:t:temperature", 30.0)
        harness.engine.ingest("thermo:t:temperature", 20.0)
        harness.engine.ingest("thermo:t:temperature", 29.0)
        assert len(harness.dispatched) == 2

    def test_rule_true_at_registration_fires_immediately(self, harness):
        harness.engine.ingest("person:Tom:place", "living room")
        harness.add_rule(make_rule("r", "Tom", in_room("Tom"), action()))
        assert harness.commands() == [("tv-1", "TurnOn")]

    def test_disabled_rule_never_fires(self, harness):
        rule = make_rule("r", "Tom", in_room("Tom"), action())
        rule.enabled = False
        harness.add_rule(rule)
        harness.engine.ingest("person:Tom:place", "living room")
        assert harness.dispatched == []

    def test_falling_edge_releases_device(self, harness):
        harness.add_rule(make_rule("r", "Tom", in_room("Tom"), action()))
        harness.engine.ingest("person:Tom:place", "living room")
        assert harness.engine.holder_of("tv-1") is not None
        harness.engine.ingest("person:Tom:place", "kitchen")
        assert harness.engine.holder_of("tv-1") is None
        assert harness.engine.rule_state("r") is RuleState.IDLE

    def test_stop_action_on_falling_edge(self, harness):
        harness.add_rule(
            make_rule("r", "Tom", in_room("Tom"), action(),
                      stop_action=action(act="TurnOff"))
        )
        harness.engine.ingest("person:Tom:place", "living room")
        harness.engine.ingest("person:Tom:place", "kitchen")
        assert harness.commands() == [("tv-1", "TurnOn"), ("tv-1", "TurnOff")]


class TestEvents:
    def test_event_rule_fires_once(self, harness):
        harness.add_rule(
            make_rule("r", "any", EventAtom("returns home"), action())
        )
        harness.engine.post_event("returns home", "Alan")
        assert len(harness.dispatched) == 1
        # Event atoms are transient: truth falls back after the step.
        assert harness.engine.rule_truth("r") is False

    def test_event_subject_filter(self, harness):
        harness.add_rule(
            make_rule("r", "Alan", EventAtom("returns home", subject="Alan"),
                      action())
        )
        harness.engine.post_event("returns home", "Emily")
        assert harness.dispatched == []
        harness.engine.post_event("returns home", "Alan")
        assert len(harness.dispatched) == 1

    def test_event_combined_with_state(self, harness):
        condition = AndCondition([
            EventAtom("returns home"),
            DiscreteAtom("hall:light:dark", "true", text="the hall is dark"),
        ])
        harness.add_rule(make_rule("r", "any", condition, action(device="hall-light",
                                                                 act="TurnOn")))
        harness.engine.post_event("returns home", "Tom")
        assert harness.dispatched == []  # hall not dark (unknown)
        harness.engine.ingest("hall:light:dark", "true")
        harness.engine.post_event("returns home", "Tom")
        assert harness.commands() == [("hall-light", "TurnOn")]


class TestArbitration:
    def _setup_tv_contest(self, harness):
        tom = make_rule("tom-tv", "Tom", in_room("Tom"),
                        action(device="tv-1", act="ShowJazzChannel"))
        alan = make_rule("alan-tv", "Alan", in_room("Alan"),
                         action(device="tv-1", act="ShowBaseball"))
        harness.add_rule(tom)
        harness.add_rule(alan)
        return tom, alan

    def test_simultaneous_requests_resolved_by_priority(self, harness):
        harness.priorities.add_order(PriorityOrder("tv-1", ("Alan", "Tom")))
        self._setup_tv_contest(harness)
        # Both conditions become true in one ingest batch (same variable
        # would be unusual; use two ingests but check final holder).
        harness.engine.ingest("person:Tom:place", "living room")
        harness.engine.ingest("person:Alan:place", "living room")
        holder = harness.engine.holder_of("tv-1")
        assert holder is not None and holder[0] == "alan-tv"

    def test_preemption_by_higher_priority(self, harness):
        harness.priorities.add_order(PriorityOrder("tv-1", ("Alan", "Tom")))
        self._setup_tv_contest(harness)
        harness.engine.ingest("person:Tom:place", "living room")
        assert harness.engine.holder_of("tv-1")[0] == "tom-tv"
        harness.engine.ingest("person:Alan:place", "living room")
        assert harness.engine.holder_of("tv-1")[0] == "alan-tv"
        assert harness.engine.rule_state("tom-tv") is RuleState.DENIED
        kinds = [entry.kind for entry in harness.engine.trace]
        assert "preempt" in kinds

    def test_lower_priority_cannot_steal(self, harness):
        harness.priorities.add_order(PriorityOrder("tv-1", ("Alan", "Tom")))
        self._setup_tv_contest(harness)
        harness.engine.ingest("person:Alan:place", "living room")
        harness.engine.ingest("person:Tom:place", "living room")
        assert harness.engine.holder_of("tv-1")[0] == "alan-tv"
        assert harness.engine.rule_state("tom-tv") is RuleState.DENIED

    def test_no_order_keeps_status_quo(self, harness):
        self._setup_tv_contest(harness)
        harness.engine.ingest("person:Tom:place", "living room")
        harness.engine.ingest("person:Alan:place", "living room")
        # Default prompt policy keeps the current holder (Tom).
        assert harness.engine.holder_of("tv-1")[0] == "tom-tv"
        kinds = [entry.kind for entry in harness.engine.trace]
        assert "conflict" in kinds

    def test_prompt_policy_decides(self):
        def choose_alan(device_udn, competing):
            return next(r for r in competing if r.owner == "Alan")

        harness = Harness(prompt_policy=choose_alan)
        tom = make_rule("tom-tv", "Tom", in_room("Tom"),
                        action(device="tv-1", act="ShowJazzChannel"))
        alan = make_rule("alan-tv", "Alan", in_room("Alan"),
                         action(device="tv-1", act="ShowBaseball"))
        harness.add_rule(tom)
        harness.add_rule(alan)
        harness.engine.ingest("person:Tom:place", "living room")
        harness.engine.ingest("person:Alan:place", "living room")
        assert harness.engine.holder_of("tv-1")[0] == "alan-tv"

    def test_context_scoped_priority(self, harness):
        harness.priorities.add_order(
            PriorityOrder(
                "tv-1", ("Alan", "Tom"),
                context=DiscreteAtom("person:Alan:last_arrival", "work"),
            )
        )
        self._setup_tv_contest(harness)
        harness.engine.ingest("person:Tom:place", "living room")
        harness.engine.ingest("person:Alan:place", "living room")
        # Context not set: order not applicable, Tom keeps the TV.
        assert harness.engine.holder_of("tv-1")[0] == "tom-tv"
        # Context becomes true and Alan's rule retries (DENIED retry path).
        harness.engine.ingest("person:Alan:last_arrival", "work")
        harness.engine.reevaluate(["alan-tv"])
        assert harness.engine.holder_of("tv-1")[0] == "alan-tv"


TEMP = "thermo:t:temperature"


class TestReArbitrationTriggers:
    """A DENIED rule whose condition stays true re-requests its device
    only when the device is released, an order for it is added or
    removed, or the context of one of its orders flips — on both
    engine configurations."""

    @pytest.fixture(params=(True, False), ids=("fast", "oracle"))
    def incremental(self, request):
        return request.param

    @staticmethod
    def _tv(harness, alan_condition):
        harness.add_rule(make_rule("tom-tv", "Tom", in_room("Tom"),
                                   action(act="ShowJazzChannel")))
        harness.add_rule(make_rule("alan-tv", "Alan", alan_condition,
                                   action(act="ShowBaseball")))

    def test_writes_to_a_denied_rules_variable_do_not_retry(
            self, incremental):
        asked = []

        def counting_prompt(device_udn, competing):
            asked.append((device_udn, sorted(r.name for r in competing)))
            return None  # keep the status quo

        harness = Harness(prompt_policy=counting_prompt,
                          incremental=incremental)
        self._tv(harness, temp_above(20.0))
        harness.engine.ingest("person:Tom:place", "living room")
        for step in range(50):
            harness.engine.ingest(TEMP, 21.0 + step)
        assert harness.engine.rule_state("alan-tv") is RuleState.DENIED
        assert [e.kind for e in harness.engine.trace].count("deny") == 1
        assert asked == [("tv-1", ["alan-tv", "tom-tv"])]

    def test_context_flip_retries_a_rule_that_does_not_read_it(
            self, incremental):
        """``test_context_scoped_priority`` without its explicit
        ``reevaluate``: the write that makes the order's context true is
        the trigger, though Alan's rule never reads that variable."""
        harness = Harness(incremental=incremental)
        harness.priorities.add_order(PriorityOrder(
            "tv-1", ("Alan", "Tom"),
            context=DiscreteAtom("person:Alan:last_arrival", "work")))
        self._tv(harness, in_room("Alan"))
        harness.engine.ingest("person:Tom:place", "living room")
        harness.engine.ingest("person:Alan:place", "living room")
        assert harness.engine.holder_of("tv-1")[0] == "tom-tv"
        assert harness.engine._denied_on(("tv-1",)) == {"alan-tv"}
        harness.engine.ingest("person:Alan:last_arrival", "work")
        assert harness.engine.holder_of("tv-1")[0] == "alan-tv"
        assert harness.engine._denied_on(("tv-1",)) == {"tom-tv"}
        # The context turning false again retries Tom, who loses to the
        # holder under the keep-status-quo prompt.
        harness.engine.ingest("person:Alan:last_arrival", "shop")
        assert harness.engine.holder_of("tv-1")[0] == "alan-tv"
        assert [e.kind for e in harness.engine.trace][-2:] == \
            ["conflict", "deny"]

    def test_clock_context_flips_at_the_tick(self, incremental):
        harness = Harness(incremental=incremental)
        harness.priorities.add_order(PriorityOrder(
            "tv-1", ("Alan", "Tom"), context=evening(), label="evening"))
        self._tv(harness, in_room("Alan"))
        harness.simulator.run_until(hhmm(16))
        harness.engine.ingest("person:Tom:place", "living room")
        harness.engine.ingest("person:Alan:place", "living room")
        assert harness.engine.holder_of("tv-1")[0] == "tom-tv"
        harness.simulator.run_until(hhmm(17, 0, 30))
        harness.engine.clock_tick()  # the first tick past 17:00
        assert harness.engine.holder_of("tv-1")[0] == "alan-tv"
        assert harness.engine.trace[-1].detail.endswith(
            "(order: Alan > Tom (when evening))")

    def test_event_context_applies_at_each_occurrence(self, incremental):
        """A context naming an event is evaluated with the event visible
        and settles back after it, so every occurrence is a flip."""
        harness = Harness(incremental=incremental)
        harness.priorities.add_order(PriorityOrder(
            "tv-1", ("Alan", "Tom"),
            context=EventAtom("returns home", subject="Alan"),
            label="Alan returns home"))
        self._tv(harness, in_room("Alan"))
        for _ in range(2):
            harness.engine.ingest("person:Tom:place", "living room")
            harness.engine.ingest("person:Alan:place", "living room")
            assert harness.engine.holder_of("tv-1")[0] == "tom-tv"
            harness.engine.post_event("returns home", "Alan")
            assert harness.engine.holder_of("tv-1")[0] == "alan-tv"
            assert harness.engine._denied_on(("tv-1",)) == {"tom-tv"}
            harness.engine.ingest("person:Alan:place", "hall")
            harness.engine.ingest("person:Tom:place", "hall")
        assert [e.kind for e in harness.engine.trace].count("preempt") == 2

    def test_add_priority_order_re_arbitrates_at_once(self, incremental):
        harness = Harness(incremental=incremental)
        self._tv(harness, in_room("Alan"))
        harness.engine.ingest("person:Tom:place", "living room")
        harness.engine.ingest("person:Alan:place", "living room")
        assert harness.engine.holder_of("tv-1")[0] == "tom-tv"
        order = harness.priorities.add_order(
            PriorityOrder("tv-1", ("Alan", "Tom")))
        assert harness.engine.holder_of("tv-1")[0] == "alan-tv"
        assert harness.engine.rule_state("tom-tv") is RuleState.DENIED
        harness.priorities.remove_order(order.order_id)
        # Removal retries Tom; no order applies and the prompt keeps
        # the status quo.
        assert harness.engine.holder_of("tv-1")[0] == "alan-tv"
        assert [e.kind for e in harness.engine.trace][-2:] == \
            ["conflict", "deny"]

    def test_preemption_is_not_a_trigger(self, incremental):
        """Kid loses to Tom; Alan then preempts Tom.  Kid ranks below
        both, so the holder change does not retry Kid."""
        harness = Harness(incremental=incremental)
        harness.priorities.add_order(
            PriorityOrder("tv-1", ("Alan", "Tom", "Kid")))
        self._tv(harness, in_room("Alan"))
        harness.add_rule(make_rule("kid-tv", "Kid", in_room("Kid"),
                                   action(act="ShowCartoons")))
        harness.engine.ingest("person:Tom:place", "living room")
        harness.engine.ingest("person:Kid:place", "living room")
        harness.engine.ingest("person:Alan:place", "living room")
        assert harness.engine.holder_of("tv-1")[0] == "alan-tv"
        assert [(e.kind, e.rule) for e in harness.engine.trace
                if e.kind == "deny"] == [("deny", "kid-tv")]
        assert harness.engine._denied_on(("tv-1",)) == {"tom-tv", "kid-tv"}


class TestFallbacks:
    def _alan_with_recorder(self, harness):
        return harness.add_rule(
            make_rule(
                "alan-tv", "Alan", in_room("Alan"),
                action(device="tv-1", act="ShowBaseball"),
                fallback=action(device="recorder-1", name="video recorder",
                                act="Record"),
            )
        )

    def test_loser_runs_fallback(self, harness):
        harness.priorities.add_order(PriorityOrder("tv-1", ("Emily", "Alan")))
        emily = make_rule("emily-tv", "Emily", in_room("Emily"),
                          action(device="tv-1", act="ShowMovie"))
        harness.add_rule(emily)
        self._alan_with_recorder(harness)
        harness.engine.ingest("person:Emily:place", "living room")
        harness.engine.ingest("person:Alan:place", "living room")
        assert harness.engine.holder_of("tv-1")[0] == "emily-tv"
        assert harness.engine.holder_of("recorder-1")[0] == "alan-tv"
        assert harness.engine.rule_state("alan-tv") is RuleState.FALLBACK
        assert ("recorder-1", "Record") in harness.commands()

    def test_preempted_holder_runs_fallback(self, harness):
        harness.priorities.add_order(PriorityOrder("tv-1", ("Emily", "Alan")))
        self._alan_with_recorder(harness)
        emily = make_rule("emily-tv", "Emily", in_room("Emily"),
                          action(device="tv-1", act="ShowMovie"))
        harness.add_rule(emily)
        harness.engine.ingest("person:Alan:place", "living room")
        assert harness.engine.holder_of("tv-1")[0] == "alan-tv"
        harness.engine.ingest("person:Emily:place", "living room")
        assert harness.engine.holder_of("tv-1")[0] == "emily-tv"
        assert harness.engine.holder_of("recorder-1")[0] == "alan-tv"

    def test_regrant_upgrades_fallback_to_primary(self, harness):
        harness.priorities.add_order(PriorityOrder("tv-1", ("Emily", "Alan")))
        self._alan_with_recorder(harness)
        emily = make_rule("emily-tv", "Emily", in_room("Emily"),
                          action(device="tv-1", act="ShowMovie"))
        harness.add_rule(emily)
        harness.engine.ingest("person:Alan:place", "living room")
        harness.engine.ingest("person:Emily:place", "living room")
        # Emily leaves: the TV frees up; Alan upgrades from recorder to TV.
        harness.engine.ingest("person:Emily:place", "hall")
        assert harness.engine.holder_of("tv-1")[0] == "alan-tv"
        assert harness.engine.holder_of("recorder-1") is None
        assert harness.engine.rule_state("alan-tv") is RuleState.ACTIVE

    def test_preempt_fallback_regrant_keeps_holdings_index(self, harness):
        """Preempt -> fallback -> regrant -> release: every step leaves
        the rule -> held-devices index equal to the holder table."""
        engine = harness.engine

        def assert_index_matches():
            by_rule = {}
            for udn, (name, _) in engine._holders.items():
                by_rule.setdefault(name, []).append(udn)
            assert {name: sorted(held) for name, held in
                    engine._held_by.items()} == \
                {name: sorted(held) for name, held in by_rule.items()}

        harness.priorities.add_order(PriorityOrder("tv-1", ("Emily", "Alan")))
        self._alan_with_recorder(harness)
        harness.add_rule(make_rule("emily-tv", "Emily", in_room("Emily"),
                                   action(device="tv-1", act="ShowMovie")))
        engine.ingest("person:Alan:place", "living room")
        assert_index_matches()
        engine.ingest("person:Emily:place", "living room")  # preempt
        assert engine.holder_of("recorder-1")[0] == "alan-tv"
        assert engine.rule_state("alan-tv") is RuleState.FALLBACK
        assert_index_matches()
        engine.ingest("person:Emily:place", "hall")  # regrant upgrades
        assert engine.holder_of("tv-1")[0] == "alan-tv"
        assert engine.holder_of("recorder-1") is None
        assert_index_matches()
        engine.ingest("person:Alan:place", "hall")  # release
        assert engine.holder_of("tv-1") is None
        assert engine._held_by == {}
        engine.ingest("person:Emily:place", "living room")
        assert engine.holder_of("tv-1")[0] == "emily-tv"
        assert [entry.kind for entry in engine.trace].count("preempt") == 1
        assert_index_matches()

    def test_denied_without_fallback(self, harness):
        harness.priorities.add_order(PriorityOrder("tv-1", ("Emily", "Tom")))
        tom = make_rule("tom-tv", "Tom", in_room("Tom"),
                        action(device="tv-1", act="ShowJazzChannel"))
        emily = make_rule("emily-tv", "Emily", in_room("Emily"),
                          action(device="tv-1", act="ShowMovie"))
        harness.add_rule(emily)
        harness.add_rule(tom)
        harness.engine.ingest("person:Emily:place", "living room")
        harness.engine.ingest("person:Tom:place", "living room")
        assert harness.engine.rule_state("tom-tv") is RuleState.DENIED
        deny_entries = [e for e in harness.engine.trace if e.kind == "deny"]
        assert deny_entries


class TestDurationsAndTime:
    def test_duration_atom_fires_after_hold(self, harness):
        unlocked = DiscreteAtom("door:lock:locked", "false")
        rule = make_rule(
            "alarm", "any",
            DurationAtom(unlocked, 3600.0),
            action(device="alarm-1", act="TurnOn"),
        )
        harness.add_rule(rule)
        harness.engine.ingest("door:lock:locked", "false")
        assert harness.dispatched == []  # not held long enough yet
        harness.simulator.run_until(3700.0)
        assert harness.commands() == [("alarm-1", "TurnOn")]

    def test_duration_reset_by_interruption(self, harness):
        unlocked = DiscreteAtom("door:lock:locked", "false")
        rule = make_rule(
            "alarm", "any",
            DurationAtom(unlocked, 3600.0),
            action(device="alarm-1", act="TurnOn"),
        )
        harness.add_rule(rule)
        harness.engine.ingest("door:lock:locked", "false")
        harness.simulator.run_until(1800.0)
        harness.engine.ingest("door:lock:locked", "true")   # re-locked
        harness.simulator.run_until(4000.0)
        assert harness.dispatched == []

    def test_until_condition_stops_rule(self, harness):
        rule = make_rule(
            "r", "Tom", in_room("Tom"), action(),
            until=temp_above(30), stop_action=action(act="TurnOff"),
        )
        harness.add_rule(rule)
        harness.engine.ingest("person:Tom:place", "living room")
        assert harness.engine.rule_state("r") is RuleState.ACTIVE
        harness.engine.ingest("thermo:t:temperature", 31.0)
        assert harness.engine.rule_state("r") is RuleState.IDLE
        assert harness.commands() == [("tv-1", "TurnOn"), ("tv-1", "TurnOff")]

    def test_time_window_with_clock(self, harness):
        window = TimeWindowAtom(hhmm(17), hhmm(21))
        rule = make_rule(
            "evening-lamp", "Tom",
            AndCondition([in_room("Tom"), window]),
            action(device="lamp-1", act="TurnOn"),
        )
        harness.add_rule(rule)
        harness.engine.ingest("person:Tom:place", "living room")
        assert harness.dispatched == []  # it is 00:00
        harness.simulator.run_until(hhmm(18))
        harness.engine.reevaluate(["evening-lamp"])  # clock tick stand-in
        assert harness.commands() == [("lamp-1", "TurnOn")]


class TestRemovalAndIntrospection:
    def test_remove_active_rule_releases_device(self, harness):
        harness.add_rule(make_rule("r", "Tom", in_room("Tom"), action()))
        harness.engine.ingest("person:Tom:place", "living room")
        assert harness.engine.holder_of("tv-1") is not None
        harness.database.remove("r")
        harness.engine.rule_removed("r")
        assert harness.engine.holder_of("tv-1") is None

    def test_ingest_unknown_type_rejected(self, harness):
        with pytest.raises(RuleError):
            harness.engine.ingest("x", object())

    def test_trace_entries_describe(self, harness):
        harness.add_rule(make_rule("r", "Tom", in_room("Tom"), action()))
        harness.engine.ingest("person:Tom:place", "living room")
        text = harness.engine.trace[0].describe()
        assert "fire" in text and "r" in text
