"""Wheel-aware tick scheduling: a fast-path shard sleeps until the next
armed window boundary instead of waking every period — and stays
trace-identical to the oracle shard's fixed cadence, because adaptive
wakes land exactly on the fixed cadence grid and every skipped tick
would have been a no-op.

The fixed cadence must survive whenever a tick can do work without a
boundary crossing: tick-stateful duration-over-window plans, holders
with a clock-reading ``until``, and disabled-skipped clock rules.  A
DENIED clock-watcher adds no demand: it re-requests its device only on
a re-arbitration trigger.  Demand growing mid-sleep (a freshly
registered window rule) must pull the next wake in through the
engine's clock-demand hook.
"""

import pytest

from repro.cluster.shard import EngineShard
from repro.core.action import ActionSpec, Setting
from repro.core.condition import (
    AndCondition,
    DiscreteAtom,
    DurationAtom,
    NumericAtom,
    TimeWindowAtom,
)
from repro.core.engine import RuleState
from repro.core.priority import PriorityOrder
from repro.core.rule import Rule
from repro.sim.clock import hhmm
from repro.sim.events import Simulator
from repro.solver.linear import LinearConstraint, LinearExpr, Relation

HOME = "home-0000"
TEMP = f"{HOME}/thermo:svc:temperature"
PLACE = f"{HOME}/locator:svc:place"

PERIOD = 60.0


def num(variable, relation, bound):
    return NumericAtom(
        LinearConstraint.make(LinearExpr.var(variable), relation, bound)
    )


def act(device, name="Set"):
    return ActionSpec(
        device_udn=device, device_name=device, service_id="svc",
        action_name=name, settings=(Setting("level", 1),),
    )


def window_rule(name="evening", start=17, end=21, device=f"{HOME}/lamp"):
    return Rule(
        name=name, owner="Tom",
        condition=TimeWindowAtom(hhmm(start), hhmm(end)),
        action=act(device),
    )


def make_shard(incremental=True):
    """A fast-path shard (adaptive ticks) or, with ``incremental=False``,
    an oracle shard (fixed cadence)."""
    simulator = Simulator()
    shard = EngineShard(0, simulator, incremental=incremental,
                        clock_tick_period=PERIOD)
    return simulator, shard


class TestSleeping:
    def test_no_clock_rules_means_no_ticks(self):
        simulator, shard = make_shard()
        shard.register_rule(Rule(name="hot", owner="Tom",
                                 condition=num(TEMP, Relation.GT, 26.0),
                                 action=act(f"{HOME}/aircon")))
        simulator.run_until(hhmm(6))  # six idle hours
        assert shard.ticks == 0
        shard.shutdown()

    def test_sleeps_to_window_boundary_on_the_grid(self):
        simulator, shard = make_shard()
        shard.register_rule(window_rule())
        simulator.run_until(hhmm(16, 59))
        assert shard.ticks == 0  # hours before the window: no wakes
        simulator.run_until(hhmm(17, 30))
        # One wake at the start boundary (17:00, on the minute grid).
        assert shard.ticks == 1
        assert shard.engine.rule_truth("evening") is True
        shard.shutdown()

    def test_fixed_cadence_fallback_ticks_every_period(self):
        """The oracle has no wheel to sleep on, so it ticks every
        period."""
        simulator, shard = make_shard(incremental=False)
        shard.register_rule(window_rule())
        simulator.run_until(hhmm(2))
        assert shard.ticks == int(hhmm(2) / PERIOD)
        assert shard.tick_sleeps == 0
        shard.shutdown()

    def test_adaptive_ticks_disabled_without_the_wheel(self):
        """Without a time wheel the shard installs no clock-demand hook,
        so it cannot sleep: the hours before the window are ticked one
        period at a time."""
        simulator, shard = make_shard(incremental=False)
        assert shard.engine.on_clock_demand_changed is None
        shard.register_rule(window_rule())
        simulator.run_until(hhmm(1))
        assert shard.ticks == int(hhmm(1) / PERIOD)
        assert shard.tick_sleeps == 0
        shard.shutdown()

    def test_off_grid_boundary_observed_at_next_grid_tick(self):
        """A 09:10:30 boundary lands mid-minute; both schedules must
        observe it at the 09:11:00 tick."""
        simulator, shard = make_shard()
        shard.register_rule(Rule(
            name="offgrid", owner="Tom",
            condition=TimeWindowAtom(hhmm(9, 10, 30), hhmm(10, 0)),
            action=act(f"{HOME}/lamp"),
        ))
        simulator.run_until(hhmm(9, 10, 29))
        assert shard.engine.rule_truth("offgrid") is False
        simulator.run_until(hhmm(9, 10, 59))
        assert shard.engine.rule_truth("offgrid") is False  # mid-minute
        simulator.run_until(hhmm(9, 11))
        assert shard.engine.rule_truth("offgrid") is True
        shard.shutdown()


class TestDemandGrowth:
    def test_registration_mid_sleep_pulls_the_wake_in(self):
        simulator, shard = make_shard()
        shard.register_rule(window_rule("late", start=20, end=23))
        simulator.run_until(hhmm(10))
        assert shard.ticks == 0
        # A rule whose window opens at 11:00 arrives while the shard
        # sleeps toward 20:00; the demand hook must re-arm.
        shard.register_rule(window_rule("soon", start=11, end=12,
                                        device=f"{HOME}/lamp2"))
        simulator.run_until(hhmm(11, 30))
        assert shard.engine.rule_truth("soon") is True
        assert shard.ticks >= 1
        shard.shutdown()

    def test_denied_clock_watcher_restores_every_tick_retry(self):
        """A DENIED windowed rule no longer retries arbitration each
        tick, so the shard sleeps through it to the window's end."""
        simulator, shard = make_shard()
        shard.register_rule(Rule(
            name="tom-tv", owner="Tom",
            condition=TimeWindowAtom(0.0, hhmm(23, 59)),
            action=act(f"{HOME}/tv"),
        ))
        shard.register_rule(Rule(
            name="alan-tv", owner="Alan",
            condition=TimeWindowAtom(0.0, hhmm(23, 59)),
            action=act(f"{HOME}/tv"),
        ))
        shard.add_priority_order(PriorityOrder(f"{HOME}/tv",
                                               ("Tom", "Alan")))
        simulator.run_until(PERIOD)  # both fired at registration; Alan lost
        assert shard.engine.rule_state("alan-tv") is RuleState.DENIED
        denies = [e.kind for e in shard.engine.trace].count("deny")
        simulator.run_until(PERIOD + 10 * PERIOD)
        assert shard.ticks == 0  # asleep until the 23:59 boundary
        assert shard.engine.clock_demand() == hhmm(23, 59)
        assert [e.kind for e in shard.engine.trace].count("deny") == denies
        shard.shutdown()

    def test_duration_over_window_keeps_fixed_cadence(self):
        simulator, shard = make_shard()
        shard.register_rule(Rule(
            name="linger", owner="Tom",
            condition=DurationAtom(
                AndCondition([TimeWindowAtom(0.0, hhmm(23, 59)),
                              DiscreteAtom(PLACE, "living room")]),
                600.0),
            action=act(f"{HOME}/lamp"),
        ))
        simulator.run_until(5 * PERIOD)
        assert shard.ticks == 5  # tick-stateful: held() samples per tick
        shard.shutdown()


class TestTraceEquivalence:
    @pytest.mark.parametrize("seed", (3, 11))
    def test_adaptive_and_fixed_shards_trace_identically(self, seed):
        """Twin shards (fast path with adaptive ticks vs the oracle's
        fixed cadence) fed one scripted stream — window edges,
        contention, churn, long idle gaps — must produce identical
        traces at identical times."""
        import random
        rng = random.Random(seed)
        twins = [make_shard(), make_shard(incremental=False)]

        def both(operation):
            for simulator, shard in twins:
                operation(simulator, shard)

        def rules():
            return [
                window_rule("evening", 17, 21),
                window_rule("early", 6, 9, device=f"{HOME}/lamp-b"),
                Rule(name="warm-evening", owner="Alan",
                     condition=AndCondition([
                         TimeWindowAtom(hhmm(17), hhmm(21)),
                         num(TEMP, Relation.GT, 24.0)]),
                     action=act(f"{HOME}/fan"),
                     until=num(TEMP, Relation.GT, 35.0),
                     stop_action=act(f"{HOME}/fan", "Off")),
                Rule(name="contender", owner="Emily",
                     condition=TimeWindowAtom(hhmm(17), hhmm(22)),
                     action=act(f"{HOME}/lamp")),
            ]

        both(lambda s, sh: [sh.register_rule(r) for r in rules()])
        now = 0.0
        removed = False
        for step in range(120):
            op = rng.random()
            if op < 0.45:
                value = rng.choice([15.0 + i for i in range(25)])
                both(lambda s, sh, v=value: sh.ingest(TEMP, v))
            elif op < 0.6:
                room = rng.choice(("living room", "kitchen"))
                both(lambda s, sh, r=room: sh.ingest(PLACE, r))
            else:
                delta = rng.choice((30.0, 90.0, 600.0, 3_600.0, 7_200.0))
                now += delta
                both(lambda s, sh, t=now: s.run_until(t))
            if step == 60 and not removed:
                both(lambda s, sh: sh.remove_rule("early"))
                removed = True
        fixed_trace = [
            (e.time, e.kind, e.rule, e.device)
            for e in twins[1][1].engine.trace
        ]
        adaptive_trace = [
            (e.time, e.kind, e.rule, e.device)
            for e in twins[0][1].engine.trace
        ]
        assert adaptive_trace == fixed_trace
        assert fixed_trace, "stream never produced a trace entry"
        # The adaptive shard must actually have slept through idle time.
        assert twins[0][1].ticks < twins[1][1].ticks
        both(lambda s, sh: sh.shutdown())

    def test_shutdown_cancels_the_adaptive_wake(self):
        simulator, shard = make_shard()
        shard.register_rule(window_rule())
        shard.shutdown()
        simulator.run()  # nothing left scheduled
        assert shard.ticks == 0
