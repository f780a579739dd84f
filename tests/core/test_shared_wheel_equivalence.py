"""Property tests: the fast path's clause sharing and time-window wheel
are observably identical to the seed oracle under real clock ticks.

Two twin harnesses mirror ``test_incremental_equivalence``, each
driving the fast path (default engine) against ``incremental=False``
with time advanced tick by tick through :meth:`RuleEngine.clock_tick`
exactly as the server facades do:

* the **shared pair** drives the mixed-atom household stream, whose
  rules share atoms and clause slots in the columnar state;
* the **wheel pair** drives a window-heavy population — boundaries that
  fall mid-tick, windows wrapping midnight, weekday restrictions,
  durations and untils over windows — where the fast path wakes rules
  only at window boundaries and the oracle re-evaluates every clock
  reader each tick.

Both suites churn rules mid-stream (add, disable/enable, remove-while-
scheduled) and assert truth/state/holders after every step and traces
entry for entry at the end.
"""

import random

import pytest

from repro.core.condition import (
    AndCondition,
    DiscreteAtom,
    DurationAtom,
    OrCondition,
    TimeWindowAtom,
)
from repro.core.database import RuleDatabase
from repro.core.engine import RuleEngine
from repro.core.priority import PriorityManager, PriorityOrder
from repro.core.rule import Rule
from repro.sim.clock import SECONDS_PER_DAY, hhmm
from repro.sim.events import Simulator

from tests.core.test_incremental_equivalence import (
    EVENTS,
    KEYWORDS,
    NUMERIC_VARS,
    PEOPLE,
    ROOMS,
    TEMP,
    VALUE_GRID,
    act,
    build_rules,
    churn_rule,
    num,
    place,
)
from repro.solver.linear import Relation

TICK_PERIOD = 60.0


class AblationTwin:
    """One home driven through two engine configurations in lock-step,
    with clock ticks delivered through the real ``clock_tick`` path.
    The second configuration is the ablation (the seed oracle)."""

    def __init__(self, kwargs_a: dict, kwargs_b: dict, rules) -> None:
        self.sides = []
        self.build_rules = rules
        for kwargs in (kwargs_a, kwargs_b):
            simulator = Simulator()
            database = RuleDatabase()
            priorities = PriorityManager()
            priorities.add_order(PriorityOrder("tv-1", ("Emily", "Tom")))
            engine = RuleEngine(
                database, priorities, simulator,
                dispatch=lambda spec: None, **kwargs,
            )
            for rule in rules():
                database.add(rule)
                engine.rule_added(rule)
            self.sides.append((simulator, database, engine))
        self.devices = sorted({
            udn for rule in rules() for udn in rule.devices()
        })
        self.now = 0.0
        self.next_tick = TICK_PERIOD

    def ingest(self, variable, value) -> None:
        for _sim, _db, engine in self.sides:
            engine.ingest(variable, value)

    def post_event(self, event_type, subject) -> None:
        for _sim, _db, engine in self.sides:
            engine.post_event(event_type, subject)

    def advance(self, seconds: float) -> None:
        """Advance both homes, firing the periodic tick on both engines
        at every TICK_PERIOD multiple crossed (the server cadence)."""
        target = self.now + seconds
        while self.next_tick <= target:
            for simulator, _db, engine in self.sides:
                simulator.run_until(self.next_tick)
                engine.clock_tick()
            self.next_tick += TICK_PERIOD
        for simulator, _db, _engine in self.sides:
            simulator.run_until(target)
        self.now = target

    def add_rule(self, make) -> None:
        for _sim, database, engine in self.sides:
            rule = make()
            database.add(rule)
            engine.rule_added(rule)

    def remove_rule(self, name: str) -> None:
        for _sim, database, engine in self.sides:
            if name in database:
                database.remove(name)
                engine.rule_removed(name)

    def set_enabled(self, name: str, enabled: bool) -> None:
        for _sim, database, _engine in self.sides:
            if name in database:
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
        trace_a = [(e.time, e.kind, e.rule, e.device)
                   for e in self.sides[0][2].trace]
        trace_b = [(e.time, e.kind, e.rule, e.device)
                   for e in self.sides[1][2].trace]
        assert trace_a == trace_b


ORACLE = {"incremental": False}


# -- shared-network pair -------------------------------------------------------


@pytest.mark.parametrize("seed", (20260730, 11, 42))
def test_shared_network_stream_equivalence(seed):
    rng = random.Random(seed)
    twin = AblationTwin({}, ORACLE, build_rules)
    twin.check("initial")
    for step in range(240):
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
            twin.ingest("door:lock:locked", rng.choice(("true", "false")))
        elif op < 0.78:
            twin.ingest("hall:sensor:dark", rng.random() < 0.5)
        elif op < 0.86:
            twin.post_event(rng.choice(EVENTS), rng.choice(PEOPLE))
        else:
            twin.advance(rng.choice((30.0, 120.0, 660.0, 3_600.0)))
        if step == 70:
            twin.set_enabled("cool", False)
        if step == 110:
            twin.remove_rule("fan")
        if step == 130:
            twin.set_enabled("cool", True)
        if step == 150:
            twin.add_rule(churn_rule)
        twin.check(step)
    assert len(twin.sides[0][2].trace) > 0, "stream never fired a rule"
    twin.check_traces()


# -- wheel pair ----------------------------------------------------------------


def build_window_rules() -> list:
    """A window-heavy household: boundaries off the tick grid, midnight
    wraps, weekday restrictions, shared windows, durations and untils
    over windows."""
    def window_rule(name, start, end, weekday=None, person="Tom",
                    device=None):
        return Rule(
            name=name, owner=person,
            condition=AndCondition([
                TimeWindowAtom(start, end, weekday=weekday),
                place(person, "living room"),
            ]),
            action=act(device or f"{name}-dev"),
        )

    rules = [
        # Boundaries that fall mid-tick (ticks land on whole minutes).
        window_rule("offgrid", hhmm(17, 0, 30), hhmm(18, 30, 15)),
        # Midnight-wrapping "at night" window.
        window_rule("night", hhmm(21), hhmm(6), person="Alan"),
        # Weekday-restricted window (weekday flips at midnight).
        window_rule("sunday", hhmm(11), hhmm(14), weekday=6,
                    person="Emily"),
        # Two rules sharing one window atom (wheel dedup path).
        window_rule("shared-a", hhmm(7), hhmm(8)),
        window_rule("shared-b", hhmm(7), hhmm(8), person="Alan"),
        # Bare window, no static conjunct: fires on the boundary alone.
        Rule(name="lone-window", owner="Tom",
             condition=TimeWindowAtom(hhmm(12, 15), hhmm(12, 45)),
             action=act("lone-dev"),
             stop_action=act("lone-dev", "Off")),
        # Window inside a duration atom (stateful plan woken via wheel).
        Rule(name="held-evening", owner="Emily",
             condition=DurationAtom(
                 AndCondition([TimeWindowAtom(hhmm(19), hhmm(23)),
                               place("Emily", "kitchen")]),
                 900.0),
             action=act("held-dev")),
        # Clock-reading until: stop checked every tick while holding.
        Rule(name="until-window", owner="Tom",
             condition=num(TEMP, Relation.GT, 26.0),
             action=act("until-dev"),
             until=TimeWindowAtom(hhmm(22), hhmm(23)),
             stop_action=act("until-dev", "Off")),
        # Disjunction of two windows sharing static structure.
        Rule(name="either-window", owner="Alan",
             condition=OrCondition([
                 AndCondition([TimeWindowAtom(hhmm(6), hhmm(9)),
                               place("Alan", "kitchen")]),
                 AndCondition([TimeWindowAtom(hhmm(17), hhmm(21)),
                               place("Alan", "kitchen")]),
             ]),
             action=act("either-dev")),
        # Contested device so arbitration paths run under the wheel.
        Rule(name="tv-evening", owner="Tom",
             condition=TimeWindowAtom(hhmm(18), hhmm(22)),
             action=act("tv-1", "ShowJazz")),
        Rule(name="tv-emily", owner="Emily",
             condition=place("Emily", "living room"),
             action=act("tv-1", "ShowMovie"),
             fallback=act("recorder-1", "Record")),
    ]
    return rules


def churn_window_rule() -> Rule:
    return Rule(
        name="late-window", owner="Tom",
        condition=AndCondition([TimeWindowAtom(hhmm(10, 30), hhmm(11, 45)),
                                DiscreteAtom("hall:sensor:dark", "false")]),
        action=act("late-dev"),
    )


@pytest.mark.parametrize("seed", (20260730, 13, 99))
@pytest.mark.parametrize("ablation", (ORACLE,))
def test_wheel_stream_equivalence(seed, ablation):
    rng = random.Random(seed)
    twin = AblationTwin({}, ablation, build_window_rules)
    twin.check("initial")
    for step in range(220):
        op = rng.random()
        if op < 0.50:
            # Mostly advance time: ticks are the behaviour under test.
            twin.advance(rng.choice(
                (60.0, 60.0, 300.0, 1_800.0, 7_200.0, 25_200.0)))
        elif op < 0.70:
            person = rng.choice(PEOPLE)
            twin.ingest(f"person:{person}:place", rng.choice(ROOMS))
        elif op < 0.85:
            twin.ingest(TEMP, rng.choice(VALUE_GRID))
        else:
            twin.ingest("hall:sensor:dark",
                        rng.choice(("true", "false")))
        if step == 60:
            twin.remove_rule("night")       # removed while scheduled
        if step == 90:
            twin.set_enabled("offgrid", False)
        if step == 120:
            twin.add_rule(churn_window_rule)
        if step == 140:
            twin.set_enabled("offgrid", True)
        if step == 170:
            twin.remove_rule("late-window")
        twin.check(step)
    # The stream must cross enough days to exercise weekday roll-overs.
    assert twin.now > 2 * SECONDS_PER_DAY
    assert len(twin.sides[0][2].trace) > 0, "stream never fired a rule"
    twin.check_traces()
