"""Property test: the incremental engine is observably identical to the
seed full-re-evaluation path.

A seeded random event stream (sensor drift, place changes, EPG feeds,
instantaneous events, clock ticks, mid-stream rule churn) is driven
through two engines over identically-built rule populations — one
incremental, one with ``incremental=False`` (the seed path) — asserting
after every step that rule truth, rule states and device holders agree,
and at the end that the full trace sequences match entry for entry.

The TV is contested under a context-free order plus a presence-context
and a time-window-context order, so context flips re-arbitrate DENIED
rules (the fast path through the context index and wheel, the oracle by
scanning every order).
"""

import random

import pytest

from repro.core.action import ActionSpec, Setting
from repro.core.condition import (
    AndCondition,
    DiscreteAtom,
    DurationAtom,
    EventAtom,
    MembershipAtom,
    NumericAtom,
    OrCondition,
    TimeWindowAtom,
)
from repro.core.database import RuleDatabase
from repro.core.engine import RuleEngine
from repro.core.priority import PriorityManager, PriorityOrder
from repro.core.rule import Rule
from repro.sim.clock import hhmm
from repro.sim.events import Simulator
from repro.solver.linear import LinearConstraint, LinearExpr, Relation

TEMP = "thermo:t:temperature"
HUMID = "hygro:h:humidity"
LUX = "lux:l:illuminance"
NUMERIC_VARS = (TEMP, HUMID, LUX)
# A discrete grid so equality atoms and exact threshold boundaries are
# actually hit by the stream.
VALUE_GRID = [15.0 + 0.5 * i for i in range(60)]
PEOPLE = ("Tom", "Alan", "Emily")
ROOMS = ("living room", "kitchen", "bedroom", "hall")
KEYWORDS = ("baseball", "news", "movie", "jazz")
EVENTS = ("returns home", "leaves home")


def num(variable: str, relation: Relation, bound: float) -> NumericAtom:
    return NumericAtom(
        LinearConstraint.make(LinearExpr.var(variable), relation, bound)
    )


def place(person: str, room: str, negated: bool = False) -> DiscreteAtom:
    return DiscreteAtom(f"person:{person}:place", room, negated=negated)


def act(device: str, name: str = "Set") -> ActionSpec:
    return ActionSpec(
        device_udn=device, device_name=device, service_id="svc",
        action_name=name, settings=(Setting("level", 1),),
    )


def build_rules() -> list[Rule]:
    """Fresh condition objects on every call (engines must not share
    memoized state through shared condition instances)."""
    evening = TimeWindowAtom(hhmm(17), hhmm(21), label="evening")
    sunday_noon = TimeWindowAtom(hhmm(11), hhmm(14), weekday=6)
    rules = [
        Rule(name="cool", owner="Tom",
             condition=num(TEMP, Relation.GT, 26.0),
             action=act("aircon-1"), stop_action=act("aircon-1", "Off")),
        Rule(name="fan", owner="Tom",
             condition=AndCondition([num(TEMP, Relation.GT, 28.0),
                                     num(HUMID, Relation.GT, 24.0)]),
             action=act("fan-1")),
        Rule(name="heat", owner="Alan",
             condition=num(TEMP, Relation.LT, 20.0),
             action=act("heater-1"),
             until=num(TEMP, Relation.GT, 24.0),
             stop_action=act("heater-1", "Off")),
        Rule(name="tom-tv", owner="Tom",
             condition=OrCondition([place("Tom", "living room"),
                                    place("Alan", "living room")]),
             action=act("tv-1", "ShowJazz")),
        Rule(name="emily-tv", owner="Emily",
             condition=place("Emily", "living room"),
             action=act("tv-1", "ShowMovie"),
             fallback=act("recorder-1", "Record")),
        Rule(name="lamp", owner="Tom",
             condition=AndCondition([place("Tom", "kitchen", negated=True),
                                     num(LUX, Relation.LT, 30.0)]),
             action=act("lamp-1")),
        Rule(name="ballgame", owner="Alan",
             condition=MembershipAtom("epg:guide:keywords", "baseball"),
             action=act("tv-2", "ShowBaseball")),
        Rule(name="quiet", owner="Emily",
             condition=AndCondition([
                 MembershipAtom("epg:guide:keywords", "news", negated=True),
                 num(TEMP, Relation.GT, 25.0)]),
             action=act("stereo-1")),
        Rule(name="evening-lamp", owner="Tom",
             condition=AndCondition([evening, place("Tom", "living room")]),
             action=act("lamp-2")),
        Rule(name="hall-light", owner="Tom",
             condition=EventAtom("returns home"),
             action=act("hall-light-1")),
        Rule(name="alan-arrives", owner="Alan",
             condition=AndCondition([
                 EventAtom("returns home", subject="Alan"),
                 DiscreteAtom("hall:sensor:dark", "true")]),
             action=act("hall-light-2")),
        Rule(name="door-alarm", owner="Emily",
             condition=DurationAtom(
                 DiscreteAtom("door:lock:locked", "false"), 600.0),
             action=act("alarm-1"), stop_action=act("alarm-1", "Off")),
        Rule(name="muggy", owner="Alan",
             condition=NumericAtom(LinearConstraint.make(
                 LinearExpr.var(TEMP) - LinearExpr.var(HUMID),
                 Relation.GT, 5.0)),
             action=act("dehumid-1")),
        Rule(name="exact-lux", owner="Emily",
             condition=num(LUX, Relation.EQ, 42.0),
             action=act("indicator-1")),
        Rule(name="sunday-brunch", owner="Emily",
             condition=AndCondition([sunday_noon,
                                     place("Emily", "kitchen")]),
             action=act("stereo-2"),
             until=MembershipAtom("epg:guide:keywords", "news")),
        Rule(name="alan-news", owner="Alan",
             condition=MembershipAtom("epg:guide:keywords", "news"),
             action=act("tv-1", "ShowNews")),
    ]
    return rules


def context_orders() -> list[PriorityOrder]:
    """The TV's context-attached orders (fresh objects per engine)."""
    return [
        PriorityOrder("tv-1", ("Tom", "Alan", "Emily"),
                      context=place("Alan", "kitchen"),
                      label="Alan is in the kitchen"),
        PriorityOrder("tv-1", ("Alan", "Emily", "Tom"),
                      context=TimeWindowAtom(hhmm(6), hhmm(9)),
                      label="morning"),
    ]


def churn_rule() -> Rule:
    """A rule added mid-stream (exercises live registration/pruning)."""
    return Rule(
        name="late-comer", owner="Tom",
        condition=AndCondition([num(TEMP, Relation.GT, 22.0),
                                place("Alan", "bedroom")]),
        action=act("lamp-3"),
    )


class Twin:
    """The same home driven through both evaluation strategies."""

    def __init__(self) -> None:
        self.sides = []
        for incremental in (True, False):
            simulator = Simulator()
            database = RuleDatabase()
            priorities = PriorityManager()
            priorities.add_order(PriorityOrder("tv-1", ("Emily", "Tom")))
            engine = RuleEngine(
                database, priorities, simulator,
                dispatch=lambda spec: None,
                incremental=incremental,
            )
            for rule in build_rules():
                database.add(rule)
                engine.rule_added(rule)
            for order in context_orders():
                priorities.add_order(order)
            self.sides.append((simulator, database, engine))
        self.devices = sorted({
            udn
            for rule in build_rules()
            for udn in rule.devices()
        })
        self.now = 0.0

    def ingest(self, variable, value) -> None:
        for _sim, _db, engine in self.sides:
            engine.ingest(variable, value)

    def post_event(self, event_type, subject) -> None:
        for _sim, _db, engine in self.sides:
            engine.post_event(event_type, subject)

    def advance(self, seconds: float) -> None:
        """Advance both clocks and run the server's clock tick."""
        self.now += seconds
        for simulator, _database, engine in self.sides:
            simulator.run_until(self.now)
            engine.clock_tick()

    def add_rule(self, make) -> None:
        for _sim, database, engine in self.sides:
            rule = make()
            database.add(rule)
            engine.rule_added(rule)

    def remove_rule(self, name: str) -> None:
        for _sim, database, engine in self.sides:
            database.remove(name)
            engine.rule_removed(name)

    def set_enabled(self, name: str, enabled: bool) -> None:
        for _sim, database, _engine in self.sides:
            database.get(name).enabled = enabled

    def check(self, step) -> None:
        _, db_a, eng_a = self.sides[0]
        _, db_b, eng_b = self.sides[1]
        names = sorted(r.name for r in db_a.all_rules())
        assert names == sorted(r.name for r in db_b.all_rules())
        for name in names:
            assert eng_a.rule_truth(name) == eng_b.rule_truth(name), \
                f"step {step}: truth of {name!r} diverged"
            assert eng_a.rule_state(name) == eng_b.rule_state(name), \
                f"step {step}: state of {name!r} diverged"
        for udn in self.devices:
            holder_a = eng_a.holder_of(udn)
            holder_b = eng_b.holder_of(udn)
            assert (holder_a is None) == (holder_b is None), \
                f"step {step}: holder presence of {udn!r} diverged"
            if holder_a is not None:
                assert holder_a[0] == holder_b[0], \
                    f"step {step}: holder of {udn!r} diverged"

    def check_traces(self) -> None:
        trace_a = [(e.time, e.kind, e.rule, e.device, e.detail)
                   for e in self.sides[0][2].trace]
        trace_b = [(e.time, e.kind, e.rule, e.device, e.detail)
                   for e in self.sides[1][2].trace]
        assert trace_a == trace_b


@pytest.mark.parametrize("seed", (20260730, 5, 77))
def test_random_stream_equivalence(seed):
    rng = random.Random(seed)
    twin = Twin()
    twin.check("initial")
    for step in range(260):
        op = rng.random()
        if op < 0.45:
            twin.ingest(rng.choice(NUMERIC_VARS), rng.choice(VALUE_GRID))
        elif op < 0.60:
            person = rng.choice(PEOPLE)
            twin.ingest(f"person:{person}:place", rng.choice(ROOMS))
        elif op < 0.68:
            members = frozenset(
                kw for kw in KEYWORDS if rng.random() < 0.4
            )
            twin.ingest("epg:guide:keywords", members)
        elif op < 0.74:
            twin.ingest("door:lock:locked",
                        rng.choice(("true", "false")))
        elif op < 0.78:
            twin.ingest("hall:sensor:dark", rng.random() < 0.5)
        elif op < 0.86:
            twin.post_event(rng.choice(EVENTS), rng.choice(PEOPLE))
        else:
            twin.advance(rng.choice((30.0, 120.0, 660.0, 3_600.0)))
        if step == 80:
            twin.set_enabled("cool", False)
        if step == 120:
            twin.remove_rule("fan")
        if step == 140:
            twin.set_enabled("cool", True)
        if step == 160:
            twin.add_rule(churn_rule)
        twin.check(step)
    assert len(twin.sides[0][2].trace) > 0, "stream never fired a rule"
    twin.check_traces()


def test_stream_exercises_all_trace_kinds():
    """The equivalence stream is only convincing if it actually walks the
    interesting paths: fires, stops, arbitration conflicts."""
    kinds = set()
    details = set()
    for seed in (20260730, 5, 77):
        rng = random.Random(seed)
        twin = Twin()
        for step in range(260):
            op = rng.random()
            if op < 0.45:
                twin.ingest(rng.choice(NUMERIC_VARS), rng.choice(VALUE_GRID))
            elif op < 0.60:
                person = rng.choice(PEOPLE)
                twin.ingest(f"person:{person}:place", rng.choice(ROOMS))
            elif op < 0.68:
                members = frozenset(
                    kw for kw in KEYWORDS if rng.random() < 0.4
                )
                twin.ingest("epg:guide:keywords", members)
            elif op < 0.74:
                twin.ingest("door:lock:locked",
                            rng.choice(("true", "false")))
            elif op < 0.78:
                twin.ingest("hall:sensor:dark", rng.random() < 0.5)
            elif op < 0.86:
                twin.post_event(rng.choice(EVENTS), rng.choice(PEOPLE))
            else:
                twin.advance(rng.choice((30.0, 120.0, 660.0, 3_600.0)))
        kinds |= {e.kind for e in twin.sides[0][2].trace}
        details |= {e.detail for e in twin.sides[0][2].trace}
    assert {"fire", "stop"} <= kinds
    assert kinds & {"deny", "preempt", "fallback", "conflict"}
    # Both context-attached orders decided some grant.
    for label in ("Alan is in the kitchen", "morning"):
        assert any(detail.endswith(f"(when {label}))")
                   for detail in details), label
