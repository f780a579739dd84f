"""Rule churn on a contested cluster leaves no reference cycles.

The cyclic collector's pauses on a churning, contested cluster are the
walk over the live heap, not garbage: every collection in a profiled
churn-contested closed loop found nothing to free.  This pins that
property where it is made: with the collector off, a run of validated
register/remove ticks beside sensor writes, on contested devices under
context-attached priority orders, leaves nothing for ``gc.collect()``.
It also pins that the long-lived decision trace adds nothing to that
walk: after such a run, the collector tracks no ring record.
"""

import gc
import random

from repro.cluster import ClusterServer
from repro.core.action import ActionSpec, Setting
from repro.core.condition import AndCondition, DiscreteAtom, NumericAtom, TrueAtom
from repro.core.priority import PriorityOrder
from repro.core.rule import Rule
from repro.sim.events import Simulator
from repro.solver.linear import LinearConstraint, LinearExpr, Relation
from tests.life import HOMES, ROOMS

SENSORS = ("temperature", "humidity", "illuminance")
RESIDENTS = 3
DEVICES = 4
TICKS = 300


def sensor(home, name):
    return f"{home}/{name}:svc:{name}"


def presence(home):
    return f"{home}/locator:svc:presence"


def contested_rule(name, home, owner, udn, rng):
    bound = rng.choice((18.0, 20.0, 22.0, 24.0))
    condition = NumericAtom(LinearConstraint.make(
        LinearExpr.var(sensor(home, rng.choice(SENSORS))),
        rng.choice((Relation.GT, Relation.LT)), bound))
    if rng.random() < 0.3:
        condition = AndCondition([
            DiscreteAtom(presence(home), rng.choice(ROOMS)), condition])
    return Rule(name=name, owner=owner, condition=condition,
                action=ActionSpec(
                    device_udn=udn, device_name=udn, service_id="svc",
                    action_name="Set",
                    settings=(Setting("level", rng.randrange(5)),)))


def test_validated_churn_on_contested_devices_leaves_no_cycles():
    rng = random.Random(7)
    cluster = ClusterServer(Simulator(), shard_count=2)
    live = {}
    try:
        for home in HOMES:
            owners = [f"{home}-res-{r}" for r in range(RESIDENTS)]
            for device in range(DEVICES):
                udn = f"{home}/dev-{device}"
                live[udn] = {}
                for owner in owners:
                    name = f"{udn}-{owner}-0"
                    cluster.register_rule(
                        contested_rule(name, home, owner, udn, rng))
                    live[udn][owner] = name
                cluster.add_priority_order(PriorityOrder(
                    udn, tuple(rng.sample(owners, len(owners))),
                    context=TrueAtom()))
                cluster.add_priority_order(PriorityOrder(
                    udn, tuple(rng.sample(owners, len(owners))),
                    context=DiscreteAtom(presence(home), rng.choice(ROOMS))))
        cluster.flush()
        devices = sorted(live)
        gc.collect()
        gc.disable()
        try:
            for tick in range(1, TICKS + 1):
                for _ in range(4):
                    home = rng.choice(HOMES)
                    if rng.random() < 0.2:
                        cluster.ingest(presence(home), rng.choice(ROOMS))
                    else:
                        cluster.ingest(sensor(home, rng.choice(SENSORS)),
                                       rng.choice((16.0, 19.0, 21.0, 23.0,
                                                   25.0)))
                udn = devices[rng.randrange(len(devices))]
                owner = rng.choice(sorted(live[udn]))
                fresh = f"{udn}-{owner}-{tick}"
                cluster.register_rule(contested_rule(
                    fresh, udn.split("/")[0], owner, udn, rng))
                cluster.remove_rule(live[udn][owner])
                live[udn][owner] = fresh
                cluster.flush()
            assert gc.collect() == 0
        finally:
            gc.enable()
    finally:
        cluster.shutdown()


def test_trace_ring_records_are_untracked_after_churn():
    """Every decision record holds only atomic values — an action's
    text, not its ``ActionSpec`` — so after a churn run and a full
    collection the collector tracks no ring record, fire and fallback
    records included."""
    rng = random.Random(11)
    cluster = ClusterServer(Simulator(), shard_count=2)

    def with_fallback(rule, udn):
        if rng.random() < 0.5:
            rule.fallback = ActionSpec(
                device_udn=f"{udn}-alt", device_name=f"{udn}-alt",
                service_id="svc", action_name="Set",
                settings=(Setting("level", rng.randrange(5)),))
        return rule

    live = {}
    try:
        for home in HOMES:
            owners = [f"{home}-res-{r}" for r in range(RESIDENTS)]
            for device in range(DEVICES):
                udn = f"{home}/dev-{device}"
                live[udn] = {}
                for owner in owners:
                    name = f"{udn}-{owner}-0"
                    cluster.register_rule(with_fallback(
                        contested_rule(name, home, owner, udn, rng), udn))
                    live[udn][owner] = name
                cluster.add_priority_order(PriorityOrder(
                    udn, tuple(rng.sample(owners, len(owners))),
                    context=TrueAtom()))
        devices = sorted(live)
        for tick in range(1, TICKS + 1):
            for _ in range(4):
                home = rng.choice(HOMES)
                cluster.ingest(sensor(home, rng.choice(SENSORS)),
                               rng.choice((16.0, 19.0, 21.0, 23.0, 25.0)))
            udn = devices[rng.randrange(len(devices))]
            owner = rng.choice(sorted(live[udn]))
            fresh = f"{udn}-{owner}-{tick}"
            cluster.register_rule(with_fallback(contested_rule(
                fresh, udn.split("/")[0], owner, udn, rng), udn))
            cluster.remove_rule(live[udn][owner])
            live[udn][owner] = fresh
            cluster.flush()
        gc.collect()
        kinds = set()
        for shard in cluster.shards:
            for record in shard.engine._trace_ring:
                kinds.add(record[1])
                assert not gc.is_tracked(record), record
        assert {"fire", "fallback", "stop"} <= kinds
    finally:
        cluster.shutdown()
