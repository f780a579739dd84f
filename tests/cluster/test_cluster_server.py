"""Unit tests for the ClusterServer facade: placement, routing,
introspection, priority orders and lifecycle."""

import gc
import weakref

import pytest

from repro.cluster import ClusterServer
from repro.core.condition import (
    AndCondition,
    DiscreteAtom,
    EventAtom,
    TimeWindowAtom,
)
from repro.core.engine import RuleState
from repro.core.priority import PriorityOrder
from repro.core.rule import Rule
from repro.core.server import HomeServer
from repro.errors import DuplicateRuleError, RuleError, UnknownRuleError
from repro.net.bus import NetworkBus
from repro.sim.clock import hhmm
from repro.sim.events import Simulator
from repro.solver.linear import Relation
from tests.life import act, num


def cool_rule(home, name=None, owner="Tom", bound=26.0, level=1):
    return Rule(
        name=name or f"{home}-cool", owner=owner,
        condition=num(f"{home}/thermo:svc:temperature", Relation.GT, bound),
        action=act(f"{home}/aircon", level=level),
    )


@pytest.fixture
def cluster():
    server = ClusterServer(Simulator(), shard_count=3)
    yield server
    server.shutdown()


class TestPlacement:
    def test_rule_lands_on_its_homes_shard(self, cluster):
        rule = cool_rule("home-0001")
        cluster.register_rule(rule)
        expected = cluster.router.shard_of_key("home-0001")
        assert cluster.shard_of_rule(rule.name) == expected
        assert rule.name in cluster.shards[expected].database

    def test_home_of_uses_condition_and_devices(self, cluster):
        rule = Rule(
            name="evening-lamp", owner="Tom",
            condition=TimeWindowAtom(hhmm(17), hhmm(21)),
            action=act("home-0005/lamp"),
        )
        assert cluster.home_of(rule) == "home-0005"

    def test_cross_home_rule_homed_on_device_shard(self, cluster):
        """A rule reading one home's sensor but driving another home's
        device registers (PR 5): homed with its device, the foreign
        sensor mirrored in — unless the two homes happen to share a
        shard, in which case no mirror plumbing is needed (the shard
        already owns the authoritative copy)."""
        variable = "home-0001/thermo:svc:temperature"
        straddler = Rule(
            name="straddler", owner="Tom",
            condition=num(variable, Relation.GT, 20.0),
            action=act("home-0002/aircon"),
        )
        cluster.register_rule(straddler)
        home_shard = cluster.router.shard_of_key("home-0002")
        assert cluster.shard_of_rule("straddler") == home_shard
        assert cluster.mirrors_of_rule("straddler") == frozenset({variable})
        shard = cluster.shards[home_shard]
        if cluster.router.shard_of(variable) == home_shard:
            # Co-located homes: the variable is owned, not mirrored.
            assert shard.mirror_variables() == frozenset()
            assert not shard.engine.world.is_mirrored(variable)
            assert cluster.bus.mirror_routes_of(variable) == ()
        else:
            assert shard.mirror_variables() == frozenset({variable})
            assert shard.engine.world.is_mirrored(variable)
            assert cluster.bus.mirror_routes_of(variable) == (home_shard,)
        # Either way the rule serves: the foreign sensor fires it.
        cluster.ingest(variable, 25.0)
        cluster.flush()
        assert cluster.rule_truth("straddler") is True

    def test_colocated_and_remote_mirrors_both_serve(self):
        """Pin one of each shape explicitly: home-0001/home-0002 share a
        shard under the 3-shard ring, lobby lives elsewhere."""
        cluster = ClusterServer(Simulator(), shard_count=3)
        try:
            colocated = cluster.router.shard_of_key("home-0001") == \
                cluster.router.shard_of_key("home-0002")
            assert colocated, "ring changed; pick co-located homes anew"
            cluster.register_rule(Rule(
                name="neighbour", owner="Tom",
                condition=num("home-0001/thermo:svc:temperature",
                              Relation.GT, 20.0),
                action=act("home-0002/fan"),
            ))
            cluster.register_rule(building_rule())  # lobby: remote mirrors
            assert cluster.shards[
                cluster.shard_of_rule("neighbour")
            ].mirror_variables() == frozenset()
            lobby_shard = cluster.shard_of_rule("lobby-unlock")
            assert cluster.shards[lobby_shard].mirror_variables()
            cluster.ingest("home-0001/thermo:svc:temperature", 25.0)
            cluster.ingest("home-0001/smoke:svc:level", 80.0)
            cluster.flush()
            assert cluster.rule_truth("neighbour") is True
            assert cluster.rule_truth("lobby-unlock") is True
        finally:
            cluster.shutdown()

    def test_anchor_spanning_homes_still_rejected(self, cluster):
        two_faced = Rule(
            name="two-faced", owner="Tom",
            condition=num("home-0001/thermo:svc:temperature",
                          Relation.GT, 20.0),
            action=act("home-0001/aircon"),
            fallback=act("home-0002/aircon"),
        )
        with pytest.raises(RuleError, match="anchors to multiple homes"):
            cluster.register_rule(two_faced)
        assert two_faced.name not in cluster._shard_of_rule

    def test_duplicate_name_rejected_cluster_wide(self, cluster):
        cluster.register_rule(cool_rule("home-0001", name="dup"))
        with pytest.raises(DuplicateRuleError):
            cluster.register_rule(cool_rule("home-0002", name="dup"))


class TestLifecycle:
    def test_remove_rule_round_trip(self, cluster):
        rule = cool_rule("home-0001")
        cluster.register_rule(rule)
        removed = cluster.remove_rule(rule.name)
        assert removed is rule
        with pytest.raises(UnknownRuleError):
            cluster.shard_of_rule(rule.name)
        with pytest.raises(UnknownRuleError):
            cluster.remove_rule(rule.name)

    def test_rule_count_and_describe(self, cluster):
        for index in range(4):
            cluster.register_rule(cool_rule(f"home-{index:04d}"))
        assert cluster.rule_count() == 4
        lines = cluster.describe_shards()
        assert len(lines) == 3
        assert sum(int(line.split()[2]) for line in lines) == 4

    def test_shutdown_cancels_clock_and_drains(self):
        simulator = Simulator()
        cluster = ClusterServer(simulator, shard_count=2)
        cluster.register_rule(cool_rule("home-0001"))
        cluster.ingest("home-0001/thermo:svc:temperature", 30.0)
        cluster.shutdown()
        simulator.run()  # nothing left: clock ticks and drains cancelled
        assert cluster.rule_truth("home-0001-cool") is False

    def test_validated_registration_compiles_the_condition_once(
            self, cluster, monkeypatch):
        """Placement reads the condition's memoized variables; the
        shard's database is the one place a registration compiles."""
        from repro.core.plan import CompiledPlan

        compiled = []
        original = CompiledPlan.__init__

        def counting(self, *args, **kwargs):
            compiled.append(args[0] if args else kwargs["source_key"])
            original(self, *args, **kwargs)

        rule = building_rule()
        monkeypatch.setattr(CompiledPlan, "__init__", counting)
        cluster.register_rule(rule)
        assert compiled == [rule.condition.key()]

    def test_home_map_holds_exactly_the_live_rules(self, cluster):
        """Removal forgets a rule's home, so register/remove churn with
        fresh names does not grow the map."""
        live = []
        for index in range(40):
            home = f"home-{index % 4:04d}"
            rule = cool_rule(home, name=f"{home}-cool-{index}",
                             bound=20.0 + index % 7)
            cluster.register_rule(rule)
            live.append(rule.name)
            if len(live) > 4:
                cluster.remove_rule(live.pop(0))
        assert sorted(cluster._home_of_rule) == sorted(live)

    @pytest.mark.parametrize("facade", ["home-server", "thread-cluster"])
    def test_registration_keeps_no_conflict_reports(self, facade):
        """A registration returns its conflict reports and keeps none:
        once the caller drops them they are garbage, so validated churn
        does not grow the long-lived heap."""
        simulator = Simulator()
        if facade == "home-server":
            server = HomeServer(simulator, NetworkBus(simulator))
        else:
            server = ClusterServer(simulator, shard_count=1, backend="thread")
        try:
            server.register_rule(cool_rule("home-0001", name="cool-0"))
            reports = server.register_rule(
                cool_rule("home-0001", name="cool-1", level=2))
            assert [report.existing_rule for report in reports] == ["cool-0"]
            dropped = weakref.ref(reports[0])
            del reports
            gc.collect()
            assert dropped() is None
        finally:
            server.shutdown()


class TestServing:
    def test_ingest_fires_rules_after_flush(self, cluster):
        rule = cool_rule("home-0001")
        cluster.register_rule(rule)
        cluster.ingest("home-0001/thermo:svc:temperature", 30.0)
        cluster.flush()
        assert cluster.rule_truth(rule.name) is True
        assert cluster.rule_state(rule.name) is RuleState.ACTIVE
        holder = cluster.holder_of("home-0001/aircon")
        assert holder is not None and holder[0] == rule.name

    def test_conflicting_rules_same_home_arbitrate_with_order(self, cluster):
        tom = cool_rule("home-0001", name="tom-cool", owner="Tom", level=1)
        alan = cool_rule("home-0001", name="alan-cool", owner="Alan",
                         bound=24.0, level=9)
        reports = []
        reports += cluster.register_rule(tom)
        reports += cluster.register_rule(alan)
        assert reports, "same-device rules must report a conflict"
        cluster.add_priority_order(
            PriorityOrder("home-0001/aircon", ("Alan", "Tom"))
        )
        cluster.ingest("home-0001/thermo:svc:temperature", 30.0)
        cluster.flush()
        holder = cluster.holder_of("home-0001/aircon")
        assert holder is not None and holder[0] == "alan-cool"
        assert cluster.rule_state("tom-cool") is RuleState.DENIED

    @pytest.mark.parametrize("backend", ("thread", "process"))
    def test_order_churn_re_arbitrates_at_once(self, backend):
        """Adding or removing an order reaches the shard's engine (in
        the worker, on the process backend) and re-arbitrates the
        device's DENIED rules without waiting for a write."""
        server = ClusterServer(Simulator(), shard_count=2, backend=backend)
        try:
            server.register_rule(
                cool_rule("home-0001", name="tom-cool", owner="Tom"))
            server.register_rule(cool_rule(
                "home-0001", name="alan-cool", owner="Alan", bound=24.0))
            server.ingest("home-0001/thermo:svc:temperature", 30.0)
            server.flush()
            assert server.holder_of("home-0001/aircon")[0] == "tom-cool"
            assert server.rule_state("alan-cool") is RuleState.DENIED
            order = server.add_priority_order(
                PriorityOrder("home-0001/aircon", ("Alan", "Tom")))
            assert server.holder_of("home-0001/aircon")[0] == "alan-cool"
            assert server.rule_state("tom-cool") is RuleState.DENIED
            server.remove_priority_order(order)
            assert [(e.kind, e.rule) for e in
                    server.trace(home="home-0001")][-2:] == [
                ("conflict", "tom-cool"), ("deny", "tom-cool")]
        finally:
            server.shutdown()

    def test_post_event_routed_to_home(self, cluster):
        rule = Rule(
            name="hall-light", owner="Tom",
            condition=EventAtom("returns home"),
            action=act("home-0001/hall-light"),
        )
        cluster.register_rule(rule)
        cluster.post_event("returns home", "Tom", home="home-0001")
        cluster.flush()
        trace = cluster.trace(home="home-0001")
        assert any(entry.kind == "fire" and entry.rule == "hall-light"
                   for entry in trace)

    def test_trace_merges_across_shards_in_time_order(self, cluster):
        for index in range(3):
            cluster.register_rule(cool_rule(f"home-{index:04d}"))
            cluster.ingest(f"home-{index:04d}/thermo:svc:temperature", 30.0)
        cluster.flush()
        entries = cluster.trace()
        assert len(entries) == 3
        assert [e.time for e in entries] == sorted(e.time for e in entries)
        only = cluster.trace(home="home-0001")
        assert {e.rule for e in only} == {"home-0001-cool"}

    def test_registration_is_an_ingest_barrier(self, cluster):
        """A rule registered while writes sit coalesced in the queue must
        not retroactively observe (or miss) merged values: pending
        batches settle before the rule exists, matching the synchronous
        order publish → publish → register."""
        cluster.register_rule(cool_rule("home-0001"))  # makes TEMP live
        variable = "home-0001/thermo:svc:temperature"
        cluster.ingest(variable, 30.0)
        cluster.ingest(variable, 10.0)  # coalesces with the write above
        shard = cluster.router.shard_of_key("home-0001")
        assert cluster.bus.pending(shard) == 1
        until_rule = Rule(
            name="windowed", owner="Alan",
            condition=num(variable, Relation.GT, 20.0),
            action=act("home-0001/vent"),
            until=num(variable, Relation.LT, 20.0),
        )
        cluster.register_rule(until_rule)
        assert cluster.bus.pending(shard) == 0  # batch settled first
        assert cluster.rule_truth("windowed") is False

    def test_set_unit_coercion_matches_home_server(self, cluster):
        from repro.core.condition import MembershipAtom
        rule = Rule(
            name="ballgame", owner="Alan",
            condition=MembershipAtom("home-0001/epg:svc:keywords",
                                     "baseball"),
            action=act("home-0001/tv"),
        )
        cluster.register_rule(rule)
        cluster.set_variable_unit("home-0001/epg:svc:keywords", "set")
        cluster.ingest("home-0001/epg:svc:keywords", "baseball, news")
        cluster.flush()
        assert cluster.rule_truth("ballgame") is True

    def test_trace_attribution_survives_name_reuse_across_homes(self,
                                                                cluster):
        first = cool_rule("home-0001", name="night-lamp")
        cluster.register_rule(first)
        cluster.ingest("home-0001/thermo:svc:temperature", 30.0)
        cluster.flush()
        assert len(cluster.trace(home="home-0001")) == 1
        cluster.remove_rule("night-lamp")
        cluster.simulator.run_until(cluster.simulator.now + 60.0)
        second = cool_rule("home-0002", name="night-lamp")
        cluster.register_rule(second)
        cluster.ingest("home-0002/thermo:svc:temperature", 30.0)
        cluster.flush()
        old_home = cluster.trace(home="home-0001")
        new_home = cluster.trace(home="home-0002")
        assert [e.device for e in old_home] == ["home-0001/aircon"]
        assert [e.device for e in new_home] == ["home-0002/aircon"]

    def test_event_for_unknown_home_is_a_quiet_no_op(self, cluster):
        cluster.post_event("returns home", "Tom", home="no-such-home")
        cluster.flush()
        assert cluster.trace() == []
        assert "no-such-home" not in cluster._rules_of_home

    def test_discrete_and_set_values_route_and_apply(self, cluster):
        rule = Rule(
            name="present", owner="Tom",
            condition=DiscreteAtom("home-0001/presence:svc:room",
                                   "living room"),
            action=act("home-0001/lamp"),
        )
        cluster.register_rule(rule)
        cluster.ingest("home-0001/presence:svc:room", "living room")
        cluster.flush()
        assert cluster.rule_truth("present") is True


def building_rule(name="lobby-unlock", owner="manager", *, bound=50.0,
                  level=1, **kwargs):
    """A cross-home rule: apartment smoke sensors drive a lobby device."""
    from repro.core.condition import OrCondition
    return Rule(
        name=name, owner=owner,
        condition=OrCondition([
            num("home-0001/smoke:svc:level", Relation.GT, bound),
            num("home-0002/smoke:svc:level", Relation.GT, bound),
        ]),
        action=act("lobby/door", level=level),
        **kwargs,
    )


class TestCrossHomeServing:
    """Acceptance for the PR-5 tentpole: previously rejected cross-home
    rules register, fire on mirrored ingest, arbitrate, and prune their
    mirror plumbing on removal."""

    def test_fires_on_mirrored_ingest(self, cluster):
        cluster.register_rule(building_rule())
        home_shard = cluster.shard_of_rule("lobby-unlock")
        cluster.ingest("home-0001/smoke:svc:level", 80.0)
        cluster.flush()
        assert cluster.rule_truth("lobby-unlock") is True
        assert cluster.rule_state("lobby-unlock") is RuleState.ACTIVE
        holder = cluster.holder_of("lobby/door")
        assert holder is not None and holder[0] == "lobby-unlock"
        # The decision is attributed to the anchor home's trace slice.
        assert any(e.rule == "lobby-unlock" and e.kind == "fire"
                   for e in cluster.trace(home="lobby"))
        # Falling smoke stops it again, through the same mirror.
        cluster.ingest("home-0001/smoke:svc:level", 10.0)
        cluster.flush()
        assert cluster.rule_truth("lobby-unlock") is False
        assert cluster.holder_of("lobby/door") is None
        owner_shard = cluster.router.shard_of(
            "home-0001/smoke:svc:level")
        if owner_shard != home_shard:
            assert cluster.stats().mirrored > 0

    def test_mirror_seeded_from_owner_at_registration(self, cluster):
        """A cross-home rule registered after the foreign sensor already
        reported must see the current value immediately — the mirror is
        seeded from the owner shard's world."""
        cluster.ingest("home-0001/smoke:svc:level", 90.0)
        cluster.flush()
        cluster.register_rule(building_rule())
        assert cluster.rule_truth("lobby-unlock") is True

    def test_cross_home_rules_arbitrate_with_priority_order(self, cluster):
        manager = building_rule("mgr-door", owner="manager", level=1)
        chief = building_rule("chief-door", owner="fire-chief",
                              bound=40.0, level=9)
        reports = []
        reports += cluster.register_rule(manager)
        reports += cluster.register_rule(chief)
        assert reports, "same-device building rules must report a conflict"
        cluster.add_priority_order(
            PriorityOrder("lobby/door", ("fire-chief", "manager"))
        )
        cluster.ingest("home-0002/smoke:svc:level", 70.0)
        cluster.flush()
        holder = cluster.holder_of("lobby/door")
        assert holder is not None and holder[0] == "chief-door"
        assert cluster.rule_state("mgr-door") is RuleState.DENIED

    def test_until_reads_anchor_home(self, cluster):
        cluster.register_rule(building_rule(
            until=num("lobby/reset:svc:pressed", Relation.GT, 0.5),
        ))
        cluster.ingest("home-0001/smoke:svc:level", 80.0)
        cluster.flush()
        assert cluster.rule_state("lobby-unlock") is RuleState.ACTIVE
        cluster.ingest("lobby/reset:svc:pressed", 1.0)
        cluster.flush()
        assert cluster.holder_of("lobby/door") is None

    def test_home_scoped_event_wakes_remote_watchers(self, cluster):
        """An event scoped to an apartment must wake the building rule
        mirroring that apartment, homed on another shard."""
        watcher = Rule(
            name="evac", owner="manager",
            condition=AndCondition([
                EventAtom("alarm"),
                num("home-0001/smoke:svc:level", Relation.GT, 10.0),
            ]),
            action=act("lobby/siren"),
        )
        cluster.register_rule(watcher)
        cluster.ingest("home-0001/smoke:svc:level", 50.0)
        cluster.flush()
        cluster.post_event("alarm", home="home-0001")
        cluster.flush()
        assert any(e.rule == "evac" and e.kind == "fire"
                   for e in cluster.trace())

    def test_removal_prunes_mirrors_mid_stream(self, cluster):
        """Satellite regression: removing a cross-home rule mid-stream
        prunes its mirror subscriptions and bus routes — later writes to
        the foreign variable no longer reach the old home shard."""
        cluster.register_rule(building_rule())
        variable = "home-0001/smoke:svc:level"
        home_shard = cluster.shard_of_rule("lobby-unlock")
        owner_shard = cluster.router.shard_of(variable)
        assert cluster.bus.mirror_routes_of(variable) == (home_shard,) \
            or owner_shard == home_shard
        cluster.ingest(variable, 30.0)
        cluster.ingest(variable, 35.0)  # mirrored vars never coalesce
        if owner_shard != home_shard:
            assert cluster.bus.pending(home_shard) == 2
        cluster.remove_rule("lobby-unlock")
        shard = cluster.shards[home_shard]
        assert shard.mirror_variables() == frozenset()
        assert cluster.bus.mirror_routes_of(variable) == ()
        assert not shard.engine.world.is_mirrored(variable)
        # A write after removal stays on the owner shard only.
        cluster.ingest(variable, 99.0)
        cluster.flush()
        if owner_shard != home_shard:
            assert shard.engine.world.value_of(variable) == 35.0
        assert cluster.shards[owner_shard].engine.world \
            .value_of(variable) == 99.0
        # Re-registration re-seeds the mirror from the owner's world.
        cluster.register_rule(building_rule("lobby-unlock-2"))
        assert cluster.rule_truth("lobby-unlock-2") is True

    def test_shared_mirror_survives_sibling_removal(self, cluster):
        """Refcounting: two building rules reading the same foreign
        sensor share one subscription; removing one keeps it alive."""
        cluster.register_rule(building_rule("first"))
        cluster.register_rule(building_rule("second", bound=60.0))
        variable = "home-0001/smoke:svc:level"
        home_shard = cluster.shard_of_rule("first")
        cluster.remove_rule("first")
        assert variable in cluster.shards[home_shard].mirror_variables()
        cluster.ingest(variable, 80.0)
        cluster.flush()
        assert cluster.rule_truth("second") is True

    def test_home_scoped_event_with_custom_key_extractor(self):
        """Regression: watcher bookkeeping must use the router's
        configurable ``key_of``, not the default parser — a custom
        naming scheme must still route home-scoped events to the
        cross-home rules watching that home."""
        from repro.cluster import ShardRouter
        router = ShardRouter(3, key_of=lambda ident: ident.split("|")[0])
        cluster = ClusterServer(Simulator(), router=router)
        try:
            watcher = Rule(
                name="zone-evac", owner="manager",
                condition=AndCondition([
                    EventAtom("alarm"),
                    num("zoneB|smoke", Relation.GT, 10.0),
                ]),
                action=act("zoneA|siren"),
            )
            cluster.register_rule(watcher)
            assert cluster.mirrors_of_rule("zone-evac") == \
                frozenset({"zoneB|smoke"})
            cluster.ingest("zoneB|smoke", 50.0)
            cluster.flush()
            cluster.post_event("alarm", home="zoneB")
            cluster.flush()
            assert any(e.rule == "zone-evac" and e.kind == "fire"
                       for e in cluster.trace())
        finally:
            cluster.shutdown()

    def test_failed_registration_rolls_back_mirrors(self, cluster):
        """A rule rejected by the validation pipeline must not leave
        mirror routes behind."""
        from repro.errors import InconsistentRuleError
        variable = "home-0001/smoke:svc:level"
        impossible = Rule(
            name="impossible", owner="manager",
            condition=AndCondition([
                num(variable, Relation.GT, 80.0),
                num(variable, Relation.LT, 20.0),
            ]),
            action=act("lobby/door"),
        )
        with pytest.raises(InconsistentRuleError):
            cluster.register_rule(impossible)
        assert cluster.bus.mirror_routes_of(variable) == ()
        for shard in cluster.shards:
            assert shard.mirror_variables() == frozenset()
