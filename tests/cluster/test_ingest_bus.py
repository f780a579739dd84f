"""Unit tests for the batched async ingest bus: FIFO order, batch
scheduling, coalescing safety, event barriers and shutdown."""

import pytest

from repro.cluster.bus import IngestBus
from repro.cluster.router import ShardRouter
from repro.cluster.server import ClusterServer
from repro.cluster.shard import EngineShard
from repro.core.action import ActionSpec, Setting
from repro.core.condition import AndCondition, DiscreteAtom, DurationAtom, NumericAtom
from repro.core.priority import PriorityOrder
from repro.core.rule import Rule
from repro.sim.events import Simulator
from repro.solver.linear import LinearConstraint, LinearExpr, Relation

HOME = "home-0000"
TEMP = f"{HOME}/thermo:svc:temperature"
DOOR = f"{HOME}/door:svc:locked"


def num(variable, relation, bound):
    return NumericAtom(
        LinearConstraint.make(LinearExpr.var(variable), relation, bound)
    )


def act(device, name="Set"):
    return ActionSpec(
        device_udn=device, device_name=device, service_id="svc",
        action_name=name, settings=(Setting("level", 1),),
    )


def hot_rule(name="hot", device=f"{HOME}/aircon", **kwargs):
    return Rule(name=name, owner="Tom",
                condition=num(TEMP, Relation.GT, 26.0),
                action=act(device), **kwargs)


@pytest.fixture
def rig():
    simulator = Simulator()
    router = ShardRouter(1)
    shard = EngineShard(0, simulator)
    bus = IngestBus(simulator, [shard], router)
    return simulator, shard, bus


class TestBatching:
    def test_publish_defers_until_drain(self, rig):
        simulator, shard, bus = rig
        shard.register_rule(hot_rule())
        bus.publish(TEMP, 30.0)
        assert bus.pending(0) == 1
        assert shard.engine.rule_truth("hot") is False  # not applied yet
        simulator.run_until(simulator.now)  # the scheduled drain fires
        assert bus.pending(0) == 0
        assert shard.engine.rule_truth("hot") is True

    def test_flush_applies_immediately(self, rig):
        _, shard, bus = rig
        shard.register_rule(hot_rule())
        bus.publish(TEMP, 30.0)
        bus.flush()
        assert shard.engine.rule_truth("hot") is True
        assert bus.stats.batches == 1

    def test_one_drain_per_burst(self, rig):
        simulator, shard, bus = rig
        shard.register_rule(hot_rule())
        for value in (27.0, 28.0, 29.0):
            bus.publish(f"{HOME}/other:svc:x", value)
        assert simulator.pending_events() >= 1
        before = bus.stats.batches
        simulator.run_until(simulator.now)
        assert bus.stats.batches == before + 1

    def test_fifo_order_within_a_batch(self, rig):
        """Writes apply in publish order, and only *consecutive* writes
        to one variable merge — an interleaved write must not be pulled
        ahead of another variable's write (that would manufacture world
        states the synchronous path never visited)."""
        _, shard, bus = rig
        seen = []
        shard.engine.ingest = lambda var, val: seen.append((var, val))
        a, b = f"{HOME}/a:svc:x", f"{HOME}/b:svc:y"
        bus.publish(a, 1.0)
        bus.publish(b, 2.0)
        bus.publish(a, 3.0)  # not adjacent to the first a-write: kept
        bus.flush()
        assert seen == [(a, 1.0), (b, 2.0), (a, 3.0)]


class TestCoalescing:
    def test_safe_variable_coalesces_to_latest_value(self, rig):
        _, shard, bus = rig
        shard.register_rule(hot_rule())
        for value in (27.0, 19.0, 31.0):
            bus.publish(TEMP, value)
        assert bus.pending(0) == 1
        bus.flush()
        assert bus.stats.coalesced == 2
        assert bus.stats.applied == 1
        assert shard.engine.rule_truth("hot") is True

    def test_until_rule_disables_coalescing(self, rig):
        _, shard, bus = rig
        shard.register_rule(hot_rule(until=num(TEMP, Relation.GT, 35.0)))
        for value in (27.0, 36.0, 27.0):
            bus.publish(TEMP, value)
        assert bus.pending(0) == 3
        bus.flush()
        assert bus.stats.coalesced == 0
        # The intermediate 36.0 triggered the until: rule stopped even
        # though the settled value satisfies the condition again.
        assert shard.engine.rule_truth("hot") is True
        assert shard.engine.holder_of(f"{HOME}/aircon") is None

    def test_duration_rule_disables_coalescing(self, rig):
        _, shard, bus = rig
        alarm = Rule(
            name="alarm", owner="Emily",
            condition=DurationAtom(DiscreteAtom(DOOR, "false"), 600.0),
            action=act(f"{HOME}/alarm"),
        )
        shard.register_rule(alarm)
        bus.publish(DOOR, "false")
        bus.publish(DOOR, "true")
        assert bus.pending(0) == 2

    def test_contested_device_disables_coalescing(self, rig):
        _, shard, bus = rig
        shard.register_rule(hot_rule("tom-cool"))
        shard.register_rule(
            Rule(name="alan-cool", owner="Alan",
                 condition=num(TEMP, Relation.GT, 30.0),
                 action=act(f"{HOME}/aircon")))
        bus.publish(TEMP, 27.0)
        bus.publish(TEMP, 31.0)
        assert bus.pending(0) == 2

    def test_rule_churn_invalidates_safety_cache(self, rig):
        _, shard, bus = rig
        shard.register_rule(hot_rule())
        bus.publish(TEMP, 27.0)
        bus.publish(TEMP, 28.0)   # caches TEMP as safe, merges
        bus.flush()
        shard.register_rule(hot_rule("hot2", until=num(TEMP, Relation.GT, 35.0)))
        bus.publish(TEMP, 29.0)
        bus.publish(TEMP, 30.0)   # epoch bumped: TEMP now unsafe
        assert bus.pending(0) == 2

    def test_event_is_a_coalescing_barrier(self, rig):
        _, shard, bus = rig
        shard.register_rule(hot_rule())
        bus.publish(TEMP, 27.0)
        bus.publish_event("returns home", "Tom", shard=0)
        bus.publish(TEMP, 31.0)  # must not merge across the barrier
        assert bus.pending(0) == 3

    def test_interleaved_writes_never_create_phantom_states(self):
        """Regression: with condition ``a > 2 and b > 5``, settled state
        (a=0, b=10) and batch [a=1, b=2, a=3], batch-wide coalescing
        would apply a=3 while b is still 10 and fire the rule on a
        state the synchronous path never produced.  Consecutive-only
        coalescing must dispatch nothing."""
        simulator = Simulator()
        dispatched = []
        shard = EngineShard(0, simulator, dispatch=dispatched.append)
        bus = IngestBus(simulator, [shard], ShardRouter(1))
        a, b = f"{HOME}/sa:svc:x", f"{HOME}/sb:svc:y"
        shard.register_rule(Rule(
            name="both-high", owner="Tom",
            condition=AndCondition([num(a, Relation.GT, 2.0),
                                    num(b, Relation.GT, 5.0)]),
            action=act(f"{HOME}/siren"),
        ))
        bus.publish(a, 0.0)
        bus.publish(b, 10.0)
        bus.flush()
        assert dispatched == []
        bus.publish(a, 1.0)
        bus.publish(b, 2.0)
        bus.publish(a, 3.0)
        bus.flush()
        assert dispatched == []
        assert shard.engine.rule_truth("both-high") is False

    def test_coalesce_off_keeps_every_write(self):
        simulator = Simulator()
        shard = EngineShard(0, simulator)
        bus = IngestBus(simulator, [shard], ShardRouter(1), coalesce=False)
        shard.register_rule(hot_rule())
        bus.publish(TEMP, 27.0)
        bus.publish(TEMP, 28.0)
        assert bus.pending(0) == 2


class TestMirrorRoutes:
    """Cross-shard variable mirroring at the bus level: fan-out order,
    coalescing exclusion, and route pruning."""

    def two_shard_rig(self):
        simulator = Simulator()
        shards = [EngineShard(i, simulator) for i in range(2)]
        router = ShardRouter(2)
        bus = IngestBus(simulator, shards, router)
        owner = router.shard_of(TEMP)
        return simulator, shards, bus, owner

    def test_write_fans_out_to_subscriber_after_owner(self):
        _, shards, bus, owner = self.two_shard_rig()
        other = 1 - owner
        bus.add_mirror_route(TEMP, other)
        seen = []
        for shard in shards:
            shard.engine.ingest = (
                lambda var, val, _id=shard.shard_id:
                seen.append((_id, var, val))
            )
        bus.publish(TEMP, 30.0)
        bus.flush()
        assert seen == [(owner, TEMP, 30.0), (other, TEMP, 30.0)]
        assert bus.stats.mirrored == 1

    def test_mirrored_variable_never_coalesces(self):
        _, shards, bus, owner = self.two_shard_rig()
        shards[owner].register_rule(hot_rule())
        bus.publish(TEMP, 27.0)
        bus.publish(TEMP, 28.0)
        assert bus.stats.coalesced == 1  # safe while unmirrored
        bus.flush()
        bus.add_mirror_route(TEMP, 1 - owner)
        bus.publish(TEMP, 29.0)
        bus.publish(TEMP, 30.0)
        assert bus.stats.coalesced == 1  # no further merges
        assert bus.pending(owner) == 2
        assert bus.pending(1 - owner) == 2

    def test_subscriber_fifo_preserves_global_publish_order(self):
        """A mirrored write enqueued between the subscriber's own writes
        must be observed in publish order — fan-out happens at publish
        time, not drain time."""
        _, shards, bus, owner = self.two_shard_rig()
        other = 1 - owner
        bus.add_mirror_route(TEMP, other)
        local = None
        # find a variable the *other* shard owns
        for index in range(200):
            candidate = f"home-{index:04d}/x:svc:y"
            if bus.router.shard_of(candidate) == other:
                local = candidate
                break
        assert local is not None
        seen = []
        shards[other].engine.ingest = \
            lambda var, val: seen.append((var, val))
        bus.publish(local, 1.0)
        bus.publish(TEMP, 2.0)
        bus.publish(local, 3.0)
        bus.flush()
        assert seen == [(local, 1.0), (TEMP, 2.0), (local, 3.0)]

    def test_removed_route_stops_fanning_out(self):
        _, shards, bus, owner = self.two_shard_rig()
        other = 1 - owner
        bus.add_mirror_route(TEMP, other)
        bus.publish(TEMP, 30.0)
        bus.flush()
        bus.remove_mirror_route(TEMP, other)
        assert bus.mirror_routes_of(TEMP) == ()
        assert bus.mirror_route_count() == 0
        bus.publish(TEMP, 40.0)
        bus.flush()
        assert shards[other].engine.world.value_of(TEMP) == 30.0
        assert shards[owner].engine.world.value_of(TEMP) == 40.0


class TestEventsAndShutdown:
    def test_broadcast_event_reaches_every_shard(self):
        simulator = Simulator()
        shards = [EngineShard(i, simulator) for i in range(3)]
        bus = IngestBus(simulator, shards, ShardRouter(3))
        fired = []
        for shard in shards:
            shard.engine.post_event = (
                lambda et, subj, _id=shard.shard_id, **kwargs:
                fired.append(_id)
            )
        bus.publish_event("alarm", None)
        bus.flush()
        assert sorted(fired) == [0, 1, 2]
        assert bus.stats.events == 3

    def test_shutdown_drops_queued_entries(self, rig):
        simulator, shard, bus = rig
        shard.register_rule(hot_rule())
        bus.publish(TEMP, 30.0)
        bus.shutdown()
        simulator.run_until(simulator.now)
        assert bus.stats.applied == 0
        assert shard.engine.rule_truth("hot") is False

    def test_shutdown_mid_drain_stops_the_rest_of_the_batch(self):
        """A dispatch callback may shut the bus down while a drain is
        applying; the closed flag keeps the rest of that batch out."""
        simulator = Simulator()
        bus = None

        def dispatch(spec):
            bus.shutdown()

        shard = EngineShard(0, simulator, dispatch=dispatch)
        bus = IngestBus(simulator, [shard], ShardRouter(1))
        shard.register_rule(hot_rule())
        bus.publish(TEMP, 30.0)    # fires "hot": its dispatch shuts down
        bus.publish_event("alarm", None)
        bus.publish(DOOR, "locked")
        bus.flush()
        assert bus.stats.applied == 1
        assert bus.applied_counts == [1]
        assert shard.engine.world.value_of(DOOR) is None


class TestOrderContextsAndCoalescing:
    """A skipped value of a variable that a priority order's context
    reads can be exactly the context flip that re-arbitrates a DENIED
    rule, so such a variable is never coalesced, and order churn moves
    the shard epoch the safety cache is keyed on."""

    EMILY = f"{HOME}/locator:svc:place-Emily"

    def _contest(self, cluster):
        for name, owner in (("tom-tv", "Tom"), ("alan-tv", "Alan")):
            cluster.register_rule(Rule(
                name=name, owner=owner,
                condition=DiscreteAtom(f"{HOME}/locator:svc:place-{owner}",
                                       "living room"),
                action=act(f"{HOME}/tv", f"Show-{owner}")))
        cluster.add_priority_order(PriorityOrder(
            f"{HOME}/tv", ("Alan", "Tom"),
            context=DiscreteAtom(self.EMILY, "kitchen"),
            label="Emily is in the kitchen"))

    def test_context_only_variable_run_matches_uncoalesced(self):
        outcomes = {}
        for coalesce in (True, False):
            cluster = ClusterServer(Simulator(), shard_count=1,
                                    coalesce=coalesce)
            try:
                self._contest(cluster)
                cluster.ingest(self.EMILY, "hall")
                cluster.ingest(f"{HOME}/locator:svc:place-Tom",
                               "living room")
                cluster.ingest(f"{HOME}/locator:svc:place-Alan",
                               "living room")
                cluster.flush()
                # One run: Emily passes through the kitchen.  The flip
                # hands Alan the TV, the flip back retries Tom, and the
                # keep-status-quo prompt leaves it with Alan.
                for room in ("hall", "kitchen", "bedroom"):
                    cluster.ingest(self.EMILY, room)
                cluster.flush()
                outcomes[coalesce] = (
                    cluster.holder_of(f"{HOME}/tv")[0],
                    [(e.time, e.kind, e.rule, e.device, e.detail)
                     for e in cluster.trace(home=HOME)],
                    cluster.bus.stats.coalesced)
            finally:
                cluster.shutdown()
        assert outcomes[True][:2] == outcomes[False][:2]
        assert outcomes[True][0] == "alan-tv"
        assert outcomes[True][2] == 0

    @pytest.mark.parametrize("backend", ("thread", "process"))
    def test_order_churn_invalidates_safety_cache(self, backend):
        cluster = ClusterServer(Simulator(), shard_count=1, backend=backend)
        try:
            def pending_after_run():
                cluster.ingest(self.EMILY, "hall")
                cluster.ingest(self.EMILY, "kitchen")
                pending = cluster.bus.pending(0)
                cluster.flush()
                return pending

            assert pending_after_run() == 1  # no reader: merged
            order = cluster.add_priority_order(PriorityOrder(
                f"{HOME}/tv", ("Alan", "Tom"),
                context=DiscreteAtom(self.EMILY, "kitchen")))
            assert pending_after_run() == 2
            cluster.remove_priority_order(order)
            assert pending_after_run() == 1
        finally:
            cluster.shutdown()
