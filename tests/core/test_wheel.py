"""Tests for the time-window wheel: boundary arithmetic (mid-day,
midnight wrap, weekday restrictions, degenerate windows), tick-driven
advancement, atom dedup across rules, and removal while scheduled."""

from repro.core.condition import AndCondition, TimeWindowAtom
from repro.core.database import RuleDatabase
from repro.core.engine import RuleEngine
from repro.core.priority import PriorityManager
from repro.core.wheel import TimeWheel, next_boundary
from repro.sim.clock import SECONDS_PER_DAY, hhmm
from repro.sim.events import Simulator

from tests.core.conftest import action, in_room, make_rule


def window(start, end, weekday=None):
    return TimeWindowAtom(start, end, weekday=weekday)


class TestNextBoundary:
    def test_before_start_arms_start(self):
        atom = window(hhmm(17), hhmm(21))
        assert next_boundary(atom, hhmm(9)) == hhmm(17)

    def test_inside_window_arms_end(self):
        atom = window(hhmm(17), hhmm(21))
        assert next_boundary(atom, hhmm(18)) == hhmm(21)

    def test_after_end_arms_next_day_start(self):
        atom = window(hhmm(17), hhmm(21))
        assert next_boundary(atom, hhmm(22)) == SECONDS_PER_DAY + hhmm(17)

    def test_exactly_on_boundary_is_strictly_after(self):
        atom = window(hhmm(17), hhmm(21))
        assert next_boundary(atom, hhmm(17)) == hhmm(21)
        assert next_boundary(atom, hhmm(21)) == SECONDS_PER_DAY + hhmm(17)

    def test_midnight_wrapping_window(self):
        atom = window(hhmm(21), hhmm(6))  # "at night"
        assert next_boundary(atom, hhmm(22)) == SECONDS_PER_DAY + hhmm(6)
        assert next_boundary(atom, hhmm(3)) == hhmm(6)
        assert next_boundary(atom, hhmm(7)) == hhmm(21)

    def test_multi_day_absolute_times(self):
        atom = window(hhmm(17), hhmm(21))
        day3 = 3 * SECONDS_PER_DAY
        assert next_boundary(atom, day3 + hhmm(20)) == day3 + hhmm(21)

    def test_weekday_window_includes_midnight_candidate(self):
        atom = window(hhmm(11), hhmm(14), weekday=6)
        # From Saturday 23:00 the nearest candidate is Sunday midnight
        # (the weekday roll-over), before the 11:00 start.
        assert next_boundary(atom, hhmm(23)) == SECONDS_PER_DAY
        assert next_boundary(atom, SECONDS_PER_DAY) == SECONDS_PER_DAY + hhmm(11)

    def test_end_stored_as_full_day_maps_to_midnight(self):
        atom = window(hhmm(22), SECONDS_PER_DAY)
        assert next_boundary(atom, hhmm(23)) == SECONDS_PER_DAY

    def test_degenerate_full_day_window_still_arms(self):
        atom = window(hhmm(8), hhmm(8))  # wraps: the whole day
        assert next_boundary(atom, hhmm(8)) == SECONDS_PER_DAY + hhmm(8)


class TestTimeWheel:
    def test_advance_wakes_only_crossed_atoms(self):
        wheel = TimeWheel()
        wheel.subscribe("early", [window(hhmm(6), hhmm(9))], now=0.0)
        wheel.subscribe("late", [window(hhmm(17), hhmm(21))], now=0.0)
        assert wheel.advance(hhmm(5)) == set()
        assert wheel.advance(hhmm(6)) == {"early"}
        assert wheel.advance(hhmm(7)) == set()   # re-armed for 9:00
        assert wheel.advance(hhmm(18)) == {"early", "late"}  # 9:00 + 17:00

    def test_shared_atom_scheduled_once_wakes_all_subscribers(self):
        wheel = TimeWheel()
        shared = window(hhmm(6), hhmm(9))
        wheel.subscribe("a", [shared], now=0.0)
        wheel.subscribe("b", [window(hhmm(6), hhmm(9))], now=0.0)
        assert len(wheel) == 1
        assert wheel.advance(hhmm(6)) == {"a", "b"}

    def test_unsubscribe_while_scheduled(self):
        wheel = TimeWheel()
        keys = wheel.subscribe("r", [window(hhmm(6), hhmm(9))], now=0.0)
        wheel.unsubscribe("r", keys)
        assert len(wheel) == 0
        assert wheel.advance(hhmm(10)) == set()  # stale heap entry skipped
        assert wheel.peek() is None

    def test_partial_unsubscribe_keeps_other_subscriber(self):
        wheel = TimeWheel()
        keys = wheel.subscribe("a", [window(hhmm(6), hhmm(9))], now=0.0)
        wheel.subscribe("b", [window(hhmm(6), hhmm(9))], now=0.0)
        wheel.unsubscribe("a", keys)
        assert wheel.advance(hhmm(6)) == {"b"}

    def test_resubscribe_after_removal_rearms(self):
        wheel = TimeWheel()
        keys = wheel.subscribe("r", [window(hhmm(6), hhmm(9))], now=0.0)
        wheel.unsubscribe("r", keys)
        wheel.subscribe("r2", [window(hhmm(6), hhmm(9))], now=hhmm(7))
        # Re-registered mid-window: next boundary is the end.
        assert wheel.peek() == hhmm(9)
        assert wheel.advance(hhmm(9)) == {"r2"}

    def test_jump_over_several_crossings_wakes_once(self):
        wheel = TimeWheel()
        wheel.subscribe("r", [window(hhmm(6), hhmm(9))], now=0.0)
        # One coarse tick past both start and end: a single wake, then
        # re-armed for the next day's start.
        assert wheel.advance(hhmm(12)) == {"r"}
        assert wheel.peek() == SECONDS_PER_DAY + hhmm(6)


class TestEngineClockTick:
    def _harness(self, **kwargs):
        simulator = Simulator()
        database = RuleDatabase()
        dispatched = []
        engine = RuleEngine(database, PriorityManager(), simulator,
                            dispatch=dispatched.append, **kwargs)
        return simulator, database, engine, dispatched

    def _tick_to(self, simulator, engine, time):
        simulator.run_until(time)
        engine.clock_tick()

    def test_window_rule_fires_and_stops_at_boundaries(self):
        simulator, database, engine, dispatched = self._harness()
        rule = make_rule("evening", "Tom",
                         TimeWindowAtom(hhmm(17), hhmm(21)), action(),
                         stop_action=action(act="TurnOff"))
        database.add(rule)
        engine.rule_added(rule)
        for hour in (9, 16):
            self._tick_to(simulator, engine, hhmm(hour))
            assert engine.rule_truth("evening") is False
        self._tick_to(simulator, engine, hhmm(17))
        assert engine.rule_truth("evening") is True
        assert len(dispatched) == 1
        self._tick_to(simulator, engine, hhmm(21))
        assert engine.rule_truth("evening") is False
        assert len(dispatched) == 2  # stop action

    def test_mid_tick_boundary_observed_at_next_tick(self):
        """A 17:00:30 start with minute ticks flips at 17:01 — exactly
        when the seed's per-tick path would have seen it."""
        for incremental in (True, False):
            simulator, database, engine, _ = self._harness(
                incremental=incremental)
            rule = make_rule(
                "r", "Tom",
                TimeWindowAtom(hhmm(17, 0, 30), hhmm(21)), action())
            database.add(rule)
            engine.rule_added(rule)
            self._tick_to(simulator, engine, hhmm(17, 0))
            assert engine.rule_truth("r") is False, incremental
            self._tick_to(simulator, engine, hhmm(17, 1))
            assert engine.rule_truth("r") is True, incremental

    def test_removed_rule_never_woken_by_stale_schedule(self):
        simulator, database, engine, dispatched = self._harness()
        rule = make_rule("r", "Tom", TimeWindowAtom(hhmm(17), hhmm(21)),
                         action())
        database.add(rule)
        engine.rule_added(rule)
        database.remove("r")
        engine.rule_removed("r")
        assert len(engine._time_wheel) == 0
        self._tick_to(simulator, engine, hhmm(18))
        assert dispatched == []

    def test_wheel_skips_unaffected_rules(self):
        """The tick-cost property: a tick with no crossing evaluates no
        window rule at all."""
        simulator, database, engine, _ = self._harness()
        for index in range(8):
            start = hhmm(6 + index)
            rule = make_rule(
                f"r{index}", "Tom",
                AndCondition([TimeWindowAtom(start, start + 1800.0),
                              in_room("Tom")]),
                action(device=f"d{index}"))
            database.add(rule)
            engine.rule_added(rule)
        calls = []
        original = engine._evaluate_rules

        def spy(names, *retry):
            names = list(names)
            calls.append(names)
            return original(names, *retry)

        engine._evaluate_rules = spy
        self._tick_to(simulator, engine, hhmm(5))
        assert calls == []      # no crossing yet
        self._tick_to(simulator, engine, hhmm(6))
        assert calls == [["r0"]]  # only the crossed window's subscriber
