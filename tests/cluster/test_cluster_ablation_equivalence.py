"""Property test: a cluster on the fast path (columnar state, time
wheel, wheel-aware adaptive ticks) is observably identical to one on
the seed oracle.

Two :class:`~repro.cluster.ClusterServer`\\ s — one default, one built
with ``incremental=False`` (the ablation) — serve the same multi-home
stream (sensor bursts, place changes, EPG feeds, events, time advances
across window boundaries, mid-stream rule churn) with coalescing off,
so traces must match entry for entry per home; truth, states and
holders are asserted after every settled step.

Together with the single-home twins in
``tests/core/test_shared_wheel_equivalence.py`` this pins the fast path
end-to-end: the flag rides through ``ClusterServer`` → ``EngineShard``
→ ``build_rule_stack`` → ``RuleEngine``, and the shard clock tasks
drive the wheel through the same ``clock_tick`` the single-home server
uses.
"""

import random

import pytest

from repro.cluster import ClusterServer
from repro.core.condition import AndCondition, TimeWindowAtom
from repro.core.priority import PriorityOrder
from repro.core.rule import Rule
from repro.sim.clock import hhmm
from repro.sim.events import Simulator

from tests.cluster.test_cluster_equivalence import (
    EVENTS,
    HOMES,
    KEYWORDS,
    PEOPLE,
    ROOMS,
    VALUE_GRID,
    act,
    build_home_rules,
    dark_var,
    door_var,
    epg_var,
    humid,
    late_rule,
    lux,
    place,
    place_var,
    temp,
)


def build_rules_with_windows(home):
    """The standard per-home set plus wheel-exercising extras: an
    off-tick-grid window and a midnight wrapper."""
    extra = [
        Rule(name=f"{home}-offgrid", owner="Tom",
             condition=AndCondition([
                 TimeWindowAtom(hhmm(9, 10, 30), hhmm(10, 40, 15)),
                 place(home, "Tom", "living room"),
             ]),
             action=act(f"{home}/offgrid-dev")),
        Rule(name=f"{home}-night", owner="Alan",
             condition=TimeWindowAtom(hhmm(21), hhmm(6)),
             action=act(f"{home}/night-dev"),
             stop_action=act(f"{home}/night-dev", "Off")),
    ]
    return build_home_rules(home) + extra


class ClusterAblationTwin:
    """The same fleet through a default cluster and one built with the
    ``ablation`` keyword arguments."""

    def __init__(self, ablation: dict) -> None:
        self.sides = []
        self.rule_names = {home: [] for home in HOMES}
        for kwargs in ({}, ablation):
            simulator = Simulator()
            cluster = ClusterServer(
                simulator, shard_count=3, coalesce=False, **kwargs,
            )
            self.sides.append((simulator, cluster))
        self.devices = {}
        for home in HOMES:
            for _simulator, cluster in self.sides:
                for rule in build_rules_with_windows(home):
                    cluster.register_rule(rule)
                cluster.add_priority_order(
                    PriorityOrder(f"{home}/tv", ("Emily", "Tom")))
            self.rule_names[home] = [
                rule.name for rule in build_rules_with_windows(home)
            ]
            self.devices[home] = sorted({
                udn for rule in build_rules_with_windows(home)
                for udn in rule.devices()
            })
        self.now = 0.0

    def ingest(self, variable, value):
        for _simulator, cluster in self.sides:
            cluster.ingest(variable, value)

    def post_event(self, home, event_type, subject):
        for _simulator, cluster in self.sides:
            cluster.post_event(event_type, subject, home=home)

    def advance(self, seconds):
        self.now += seconds
        for simulator, _cluster in self.sides:
            simulator.run_until(self.now)

    def add_late_rule(self, home):
        for _simulator, cluster in self.sides:
            cluster.register_rule(late_rule(home))
        self.rule_names[home].append(late_rule(home).name)

    def remove_rule(self, home, name):
        for _simulator, cluster in self.sides:
            cluster.remove_rule(name)
        self.rule_names[home].remove(name)

    def set_enabled(self, name, enabled):
        for _simulator, cluster in self.sides:
            shard = cluster.shards[cluster.shard_of_rule(name)]
            shard.database.get(name).enabled = enabled

    def settle_and_check(self, step):
        for _simulator, cluster in self.sides:
            cluster.flush()
        _, full = self.sides[0]
        _, ablated = self.sides[1]
        for home in HOMES:
            for name in self.rule_names[home]:
                assert full.rule_truth(name) == ablated.rule_truth(name), \
                    f"step {step}: truth of {name!r} diverged"
                assert full.rule_state(name) == ablated.rule_state(name), \
                    f"step {step}: state of {name!r} diverged"
            for udn in self.devices[home]:
                holder_full = full.holder_of(udn)
                holder_ablated = ablated.holder_of(udn)
                assert (holder_full is None) == (holder_ablated is None), \
                    f"step {step}: holder presence of {udn!r} diverged"
                if holder_full is not None:
                    assert holder_full[0] == holder_ablated[0], \
                        f"step {step}: holder of {udn!r} diverged"

    def check_traces(self):
        _, full = self.sides[0]
        _, ablated = self.sides[1]
        for home in HOMES:
            trace_full = [(e.time, e.kind, e.rule, e.device)
                          for e in full.trace(home=home)]
            trace_ablated = [(e.time, e.kind, e.rule, e.device)
                             for e in ablated.trace(home=home)]
            assert trace_full == trace_ablated, f"trace of {home} diverged"

    def shutdown(self):
        for _simulator, cluster in self.sides:
            cluster.shutdown()


@pytest.mark.parametrize("seed", (7, 20260730))
@pytest.mark.parametrize("ablation", (
    {"incremental": False},  # the seed oracle: neither sharing nor wheel
), ids=("neither",))
def test_cluster_ablation_equivalence(seed, ablation):
    rng = random.Random(seed)
    twin = ClusterAblationTwin(ablation)
    fired_any = False
    try:
        for step in range(130):
            home = HOMES[rng.randrange(len(HOMES))]
            op = rng.random()
            if op < 0.35:
                variable = rng.choice((temp(home), humid(home), lux(home)))
                for value in rng.sample(VALUE_GRID,
                                        rng.choice((1, 1, 3))):
                    twin.ingest(variable, value)
            elif op < 0.50:
                person = rng.choice(PEOPLE)
                twin.ingest(place_var(home, person), rng.choice(ROOMS))
            elif op < 0.58:
                members = frozenset(
                    keyword for keyword in KEYWORDS if rng.random() < 0.4
                )
                twin.ingest(epg_var(home), members)
            elif op < 0.64:
                twin.ingest(door_var(home), rng.choice(("true", "false")))
            elif op < 0.68:
                twin.ingest(dark_var(home), rng.random() < 0.5)
            elif op < 0.76:
                twin.post_event(home, rng.choice(EVENTS),
                                rng.choice(PEOPLE))
            else:
                twin.advance(rng.choice(
                    (60.0, 300.0, 1_800.0, 3_600.0, 14_400.0)))
            if step == 40:
                twin.set_enabled("home-0002-night", False)
            if step == 55:
                twin.remove_rule("home-0001", "home-0001-offgrid")
            if step == 75:
                twin.set_enabled("home-0002-night", True)
            if step == 90:
                twin.add_late_rule("home-0003")
            twin.settle_and_check(step)
            fired_any = fired_any or len(twin.sides[0][1].trace()) > 0
        assert fired_any, "stream never fired a rule"
        twin.check_traces()
    finally:
        twin.shutdown()
