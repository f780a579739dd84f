"""The cluster facade: multi-home serving behind one `HomeServer`-shaped API.

A :class:`ClusterServer` owns a :class:`~repro.cluster.router.ShardRouter`,
N independent :class:`~repro.cluster.shard.EngineShard`\\ s and one
:class:`~repro.cluster.bus.IngestBus`, and mirrors the single-home
:class:`~repro.core.server.HomeServer` surface — ``register_rule``,
``remove_rule``, ``ingest``, ``post_event``, ``trace``, ``shutdown`` —
so application code written against one home scales to a fleet by
swapping the facade.

Placement is a two-phase plan
(:meth:`~repro.cluster.router.ShardRouter.placement_plan`): a rule is
**homed** on the shard owning its action devices and ``until``
variables, and every condition variable owned by another home is
**mirrored** into that shard via an ingest-bus subscription.  A
building-wide rule ("if any apartment's smoke sensor fires, unlock the
lobby door") therefore registers like any other — its foreign sensors
simply arrive through the normal ingest path as mirrored writes.  Only
the *anchor* (actions + until) must stay within one home key.

Ingestion: ``ingest``/``post_event`` publish to the bus, which applies
them on the simulator in per-shard FIFO batches; call :meth:`flush` (or
run the simulator) to settle.  With coalescing on, bursty repeated
writes collapse to their latest value wherever the owning shard proves
that safe — mirrored variables never coalesce (the owner shard cannot
vouch for readers it does not host).
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator

from repro.cluster.bus import BusStats, IngestBus
from repro.cluster.router import PlacementPlan, ShardRouter
from repro.cluster.shard import EngineShard
from repro.core.action import ActionSpec
from repro.core.conflict import ConflictReport
from repro.core.engine import DEFAULT_MAX_TRACE, PromptPolicy, RuleState, TraceEntry
from repro.core.priority import PriorityOrder
from repro.core.rule import Rule
from repro.core.server import ConflictPolicy, coerce_reading
from repro.errors import DuplicateRuleError, UnknownRuleError
from repro.obs.metrics import MetricsRegistry, merge_snapshots
from repro.obs.prom import render_prometheus
from repro.sim.events import Simulator


class _LiveUnion:
    """Read-through union of live rule-name sets.

    Handed to the bus as an event's ``only`` scope when one shard hosts
    both a home's own rules and cross-home watchers of that home: rule
    churn between publish and drain stays visible, exactly as it does
    for a single live membership set.
    """

    __slots__ = ("_groups",)

    def __init__(self, groups: Iterable[Iterable[str]]) -> None:
        self._groups = tuple(groups)

    def __contains__(self, name: object) -> bool:
        return any(name in group for group in self._groups)

    def __iter__(self) -> Iterator[str]:
        seen: set[str] = set()
        for group in self._groups:
            for name in group:
                if name not in seen:
                    seen.add(name)
                    yield name

    def __len__(self) -> int:
        return sum(1 for _ in self)


class ClusterServer:
    """Sharded multi-home rule serving with a batched async ingest bus."""

    def __init__(
        self,
        simulator: Simulator,
        *,
        shard_count: int = 4,
        router: ShardRouter | None = None,
        dispatch: Callable[[ActionSpec], None] | None = None,
        backend: str = "thread",
        coalesce: bool = True,
        prompt_policy: PromptPolicy | None = None,
        conflict_policy: ConflictPolicy | None = None,
        incremental: bool = True,
        max_trace: int | None = DEFAULT_MAX_TRACE,
        clock_tick_period: float = 60.0,
        telemetry: bool = True,
        durability=None,
    ) -> None:
        if backend not in ("thread", "process"):
            raise ValueError(
                f"backend must be 'thread' or 'process': {backend!r}")
        self.simulator = simulator
        self.backend = backend
        self.router = router if router is not None else ShardRouter(shard_count)
        # Construction config, recorded verbatim in the durability
        # manifest so restore_cluster can rebuild an identically
        # configured cluster (hash-based ShardRouter placement is a pure
        # function of shard_count; custom routers are not snapshotted).
        self._config = {
            "shard_count": self.router.shard_count,
            "backend": backend,
            "coalesce": coalesce,
            "incremental": incremental,
            "max_trace": max_trace,
            "clock_tick_period": clock_tick_period,
            "telemetry": telemetry,
        }
        # One Telemetry per shard (its own registry + span recorder, so
        # shards never contend) plus one cluster registry for the bus;
        # telemetry() folds them into per-shard and aggregate views.
        self.telemetry_enabled = telemetry
        self._bus_registry = MetricsRegistry()
        # One shard configuration for both backends; a process shard
        # ships it to its worker in the HELLO.
        shard_config = {
            "prompt_policy": prompt_policy,
            "conflict_policy": conflict_policy,
            "incremental": incremental,
            "max_trace": max_trace,
            "clock_tick_period": clock_tick_period,
            "telemetry": telemetry,
        }
        if backend == "process":
            from repro.cluster.worker import ShardClient
            self.shards = []
            try:
                for index in range(self.router.shard_count):
                    self.shards.append(ShardClient(
                        index, simulator,
                        config=shard_config, dispatch=dispatch,
                    ))
            except BaseException:
                for client in self.shards:
                    client.shutdown()
                raise
        else:
            self.shards = [
                EngineShard(index, simulator, dispatch=dispatch,
                            **shard_config)
                for index in range(self.router.shard_count)
            ]
        self.bus = IngestBus(
            simulator, self.shards, self.router,
            coalesce=coalesce, registry=self._bus_registry,
        )
        self._shard_of_rule: dict[str, int] = {}
        self._home_of_rule: dict[str, str] = {}
        self._variable_units: dict[str, str] = {}
        # Live membership sets handed to home-scoped events (see
        # IngestBus._Event.only); pruned on removal.
        self._rules_of_home: dict[str, set[str]] = {}
        # Cross-home rules watching a foreign home, grouped by the shard
        # hosting them: home -> shard index -> live rule-name set.  A
        # home-scoped event must wake these too — a lobby rule reading
        # apartment 3's smoke sensor is "of" apartment 3 for events.
        self._remote_watchers: dict[str, dict[int, set[str]]] = {}
        self._mirrors_of_rule: dict[str, frozenset[str]] = {}
        # Trace attribution that survives removal *and* name reuse:
        # (registration time, home) spans per rule name — an entry
        # belongs to the home whose span covers its timestamp.
        self._home_spans: dict[str, list[tuple[float, str]]] = {}
        self._shutdown = False
        self.durability = None
        if durability is not None:
            self.attach_durability(durability)

    # -- durability ------------------------------------------------------------

    def attach_durability(self, plane) -> None:
        """Install a :class:`~repro.cluster.durability.DurabilityPlane`:
        binds its metrics to the bus registry, hooks WAL logging into
        the drain path, and takes the initial checkpoint.  For bulk
        loads, register rules first and attach after — every subsequent
        rule add/remove re-checkpoints eagerly (snapshots must agree
        with their WAL's rule epoch)."""
        self.durability = plane
        plane.bind(self)
        self.bus.attach_durability(plane)
        plane.checkpoint()

    def checkpoint(self) -> dict:
        """Force a snapshot generation now (the WAL tail folds into it);
        returns the committed manifest."""
        if self.durability is None:
            raise RuntimeError("no durability plane attached")
        return self.durability.checkpoint()

    # -- rule lifecycle --------------------------------------------------------

    def placement_of(self, rule: Rule) -> PlacementPlan:
        """The two-phase placement a rule would get: its home key plus
        the foreign variables to mirror into the home shard.

        The footprint is the condition's memoized variable set — the
        set its compiled plan keeps, without compiling here (the
        shard's database compiles once, at registration) — plus the
        until variables and action devices.  Raises
        :class:`~repro.errors.RuleError` when the *anchor* (actions +
        until) spans homes — only condition variables may."""
        variables = rule.condition.referenced_variables()
        until_variables: frozenset[str] = frozenset()
        if rule.until is not None:
            until_variables = frozenset(rule.until.referenced_variables())
            variables = variables | until_variables
        return self.router.placement_plan(
            variables, rule.devices(),
            until_variables=until_variables, rule_name=rule.name,
        )

    def home_of(self, rule: Rule) -> str:
        """The home key a rule would be placed under."""
        return self.placement_of(rule).home

    def register_rule(
        self, rule: Rule, *, validate: bool = True
    ) -> list[ConflictReport]:
        """Place and register a rule on the shard owning its home.

        Runs the same registration pipeline as `HomeServer` (access,
        consistency, conflict extraction, priority prompt); the conflict
        scope stays per-home because a rule's devices all live under its
        home key.  A rule whose condition reads other homes' variables
        registers all the same: each foreign variable is mirrored into
        the home shard — the bus subscription fans its writes out, and
        the current value is seeded from the owner shard so the rule
        evaluates against live context immediately.  ``validate=False``
        is the bulk-load path.
        """
        if rule.name in self._shard_of_rule:
            raise DuplicateRuleError(
                f"rule name already registered in the cluster: {rule.name!r}"
            )
        placement = self.placement_of(rule)
        home = placement.home
        index = self.router.shard_of_key(home)
        # Registration is an ingest barrier: pending batches settle
        # first, so a write coalesced while this rule did not exist can
        # never hide an intermediate value from it (a new until/duration
        # /contesting rule would retroactively invalidate the merge).
        self.bus.flush(shard=index)
        if placement.mirrors:
            self._install_mirrors(rule.name, placement.mirrors, index)
        try:
            reports = self.shards[index].register_rule(rule, validate=validate)
        except Exception:
            # Roll back the mirror plumbing a rejected registration
            # (consistency/access/duplicate) already installed.
            self._uninstall_mirrors(rule.name, index)
            raise
        self._shard_of_rule[rule.name] = index
        self._home_of_rule[rule.name] = home
        self._rules_of_home.setdefault(home, set()).add(rule.name)
        self._mirrors_of_rule[rule.name] = placement.mirrors
        for foreign in {self.router.key_of(v) for v in placement.mirrors}:
            self._remote_watchers.setdefault(foreign, {}) \
                .setdefault(index, set()).add(rule.name)
        self._home_spans.setdefault(rule.name, []).append(
            (self.simulator.now, home)
        )
        if self.durability is not None:
            # Rule churn changes what a WAL record means (epochs, rule
            # ids, placement); re-checkpoint eagerly so the snapshot
            # and its WAL always agree.
            self.durability.checkpoint()
        return reports

    def _install_mirrors(
        self, rule_name: str, mirrors: frozenset[str], index: int
    ) -> None:
        """Subscribe the home shard to a rule's foreign variables and
        seed each newly mirrored one with the owner's current value (the
        owner's pending batch settles first, so the seed is what a
        synchronous reader would observe).

        Foreign variables whose owning home happens to hash to the home
        shard need no mirror at all: the shard already owns the
        authoritative copy, and its own coalesce-safety proof covers
        the new reader — so they never enter the refcounts, the world's
        mirrored marks, or the bus routes."""
        remote = frozenset(
            variable for variable in mirrors
            if self.router.shard_of(variable) != index
        )
        for variable in self.shards[index].adopt_mirrors(rule_name, remote):
            owner = self.router.shard_of(variable)
            # Route first, then settle: a write published re-entrantly
            # *during* the owner's drain already fans out to the new
            # mirror, so the seed (read from the owner's settled world,
            # which such a write joins only at its own later drain) can
            # never leapfrog or shadow it — the mirror converges to the
            # authoritative value in apply order.
            self.bus.add_mirror_route(variable, index)
            self.bus.flush(shard=owner)
            value = self.shards[owner].variable_value(variable)
            if value is not None:
                # Seed before the rule registers: a fresh mirror has no
                # other reader on this shard, so nothing else wakes.
                self.shards[index].ingest(variable, value)

    def _uninstall_mirrors(self, rule_name: str, index: int) -> None:
        """Drop a rule's mirror refcounts and prune the bus routes whose
        last reader it was."""
        for variable in self.shards[index].release_mirrors(rule_name):
            self.bus.remove_mirror_route(variable, index)

    def remove_rule(self, name: str) -> Rule:
        index = self._shard_of_rule.pop(name, None)
        if index is None:
            raise UnknownRuleError(f"no rule named {name!r} in the cluster")
        self.bus.flush(shard=index)  # apply what the rule should still see
        members = self._rules_of_home.get(self._home_of_rule.pop(name))
        if members is not None:
            members.discard(name)
        rule = self.shards[index].remove_rule(name)
        self._uninstall_mirrors(name, index)
        for foreign in {self.router.key_of(v) for v in
                        self._mirrors_of_rule.pop(name, frozenset())}:
            shards = self._remote_watchers.get(foreign)
            if shards is None:
                continue
            watchers = shards.get(index)
            if watchers is not None:
                watchers.discard(name)
                if not watchers:
                    del shards[index]
            if not shards:
                del self._remote_watchers[foreign]
        if self.durability is not None:
            self.durability.checkpoint()
        return rule

    def add_priority_order(self, order: PriorityOrder) -> PriorityOrder:
        """Route a priority order to the shard owning its device's home
        (after settling that shard's pending batch, so the new order
        only governs arbitration from this point on).  The shard
        re-arbitrates the device's DENIED rules at once."""
        index = self.router.shard_of(order.device_udn)
        self.bus.flush(shard=index)
        order = self.shards[index].add_priority_order(order)
        self._orders_changed()
        return order

    def remove_priority_order(self, order: PriorityOrder) -> None:
        """Remove an order from the shard owning its device; the device's
        DENIED rules are re-arbitrated at once."""
        index = self.router.shard_of(order.device_udn)
        self.bus.flush(shard=index)
        self.shards[index].remove_priority_order(order.order_id)
        self._orders_changed()

    def _orders_changed(self) -> None:
        if self.durability is not None:
            # Like rule churn: the re-arbitration and the shard's new
            # epoch belong in a snapshot, not in a WAL written before.
            self.durability.checkpoint()

    # -- world-state feeds -----------------------------------------------------

    def set_variable_unit(self, variable: str, unit: str) -> None:
        """Declare a variable's unit, mirroring what `HomeServer` learns
        from UPnP discovery — ``"set"`` variables then accept the
        comma-joined string form on :meth:`ingest`."""
        self._variable_units[variable] = unit

    def ingest(self, variable: str, value: Any) -> None:
        """Publish one sensor reading onto the ingest bus (applied on the
        next drain; call :meth:`flush` or run the simulator to settle).
        Readings are unit-coerced exactly like `HomeServer.ingest`."""
        self.bus.publish(
            variable, coerce_reading(value, self._variable_units.get(variable))
        )

    def post_event(
        self, event_type: str, subject: str | None = None,
        *, home: str | None = None,
    ) -> None:
        """Publish an instantaneous event — scoped to one home's rules
        when ``home`` is given (a shard hosts several homes, and Alan
        returning to one apartment must not light the neighbours'
        halls), broadcast to every shard otherwise.

        A home-scoped event reaches the home's own rules *and* every
        cross-home rule mirroring that home's variables, wherever those
        watchers are homed — apartment 3's smoke event must wake the
        lobby's building rule.  Membership sets stay live (churn between
        publish and drain is honoured); when one shard hosts both
        groups they are joined through a read-through union."""
        if home is None:
            self.bus.publish_event(event_type, subject)
            return
        groups_by_shard: dict[int, list] = {}
        members = self._rules_of_home.get(home)
        if members is not None:
            groups_by_shard.setdefault(
                self.router.shard_of_key(home), []
            ).append(members)
        for shard_index, watchers in \
                self._remote_watchers.get(home, {}).items():
            groups_by_shard.setdefault(shard_index, []).append(watchers)
        for shard_index in sorted(groups_by_shard):
            groups = groups_by_shard[shard_index]
            only = groups[0] if len(groups) == 1 else _LiveUnion(groups)
            self.bus.publish_event(
                event_type, subject, shard=shard_index, only=only,
            )

    def flush(self) -> None:
        """Drain every shard's pending ingest batch immediately.

        On the process backend this is also the counter barrier.  Each
        worker gets one packet — its drained batch record followed by
        the barrier call — and every packet is sent before any reply is
        awaited, so the workers apply in parallel.  Their accumulated
        batch counter deltas, and the bytes they logged, fold into the
        bus registry (the thread backend folds them at apply time)."""
        if self.backend != "process":
            self.bus.flush()
            return
        self.bus.flush(send=False)
        registry = self.bus.registry
        error: Exception | None = None
        posted = []
        for shard in self.shards:
            try:
                shard.post_barrier()
                posted.append(shard)
            except Exception as exc:
                error = error or exc
        # Await every posted reply even after a failure, so no reply is
        # left unread on a healthy worker's stream.
        for shard in posted:
            try:
                flips, touched = shard.barrier()
            except Exception as exc:
                error = error or exc
                continue
            if flips:
                registry.counter("bus.atoms_flipped").inc(flips)
            if touched:
                registry.counter("bus.clauses_touched").inc(touched)
        for shard in self.shards:
            logged = shard.take_logged_bytes()
            if logged:
                registry.counter("recovery.wal_bytes").inc(logged)
        if error is not None:
            raise error

    # -- introspection ---------------------------------------------------------

    def shard_of_rule(self, name: str) -> int:
        index = self._shard_of_rule.get(name)
        if index is None:
            raise UnknownRuleError(f"no rule named {name!r} in the cluster")
        return index

    def mirrors_of_rule(self, name: str) -> frozenset[str]:
        """The rule's *plan-level* mirror set: every condition variable
        owned by a foreign home.  Variables whose owning home happens to
        hash to the rule's own shard need no live mirror (the shard
        already owns them), so the bus/world plumbing can be a subset —
        :meth:`EngineShard.mirrors_of_rule` on the rule's shard reports
        the actually hosted set."""
        if name not in self._shard_of_rule:
            raise UnknownRuleError(f"no rule named {name!r} in the cluster")
        return self._mirrors_of_rule.get(name, frozenset())

    def rule_truth(self, name: str) -> bool:
        return self.shards[self.shard_of_rule(name)].rule_truth(name)

    def rule_state(self, name: str) -> RuleState:
        return self.shards[self.shard_of_rule(name)].rule_state(name)

    def holder_of(self, udn: str) -> tuple[str, ActionSpec] | None:
        return self.shards[self.router.shard_of(udn)].holder_of(udn)

    def _home_at(self, rule_name: str, when: float) -> str | None:
        """The home a rule name belonged to at a point in time (spans
        survive removal and name reuse across homes)."""
        spans = self._home_spans.get(rule_name)
        if not spans:
            return None
        owner = None
        for start, home in spans:
            if start > when:
                break
            owner = home
        return owner

    def trace(self, home: str | None = None) -> list[TraceEntry]:
        """Engine decisions, merged across shards in time order (ties
        broken by shard id, then per-shard order); ``home`` filters to
        one home's rules — an exact per-shard FIFO slice, since every
        rule of a home (cross-home rules included: they are attributed
        to the *anchor* home owning their devices) lives on that home's
        shard.  Entries of removed (or later re-registered) rules stay
        attributed to the home that owned the name when they were
        recorded."""
        tagged = [
            (entry.time, index, position, entry)
            for index, shard in enumerate(self.shards)
            for position, entry in enumerate(shard.trace())
        ]
        tagged.sort(key=lambda item: item[:3])
        entries = [entry for _, _, _, entry in tagged]
        if home is not None:
            entries = [
                entry for entry in entries
                if self._home_at(entry.rule, entry.time) == home
            ]
        return entries

    def stats(self) -> BusStats:
        return self.bus.stats

    def telemetry(self) -> dict:
        """The cluster's merged health snapshot, JSON-ready.

        ``shards`` holds one registry snapshot per shard (ingest latency
        percentiles, span-stage histograms, queue depth, tick/epoch/wheel
        /columnar counters, the recent-spans ring) tagged with its shard
        id; ``aggregate`` is their fold — counters and gauges summed,
        histograms merged bucket-for-bucket with percentiles recomputed;
        ``bus`` carries the cluster-wide ingest counters plus derived
        coalesce/mirror/batched-write rates.  With ``telemetry=False``
        the shard views are empty but the bus section still reports."""
        shard_snapshots = [
            snapshot
            for shard in self.shards
            if (snapshot := shard.telemetry_snapshot(
                queue_depth=self.bus.pending(shard.shard_id))) is not None
        ]
        bus = self.bus.registry.snapshot()
        published = bus["counters"].get("bus.published", 0)
        applied = bus["counters"].get("bus.applied", 0)
        bus["rates"] = {
            "coalesce": (
                bus["counters"].get("bus.coalesced", 0) / published
                if published else 0.0
            ),
            "mirror": (
                bus["counters"].get("bus.mirrored", 0) / published
                if published else 0.0
            ),
            "batched_write": (
                bus["counters"].get("bus.batched_writes", 0) / applied
                if applied else 0.0
            ),
        }
        return {
            "enabled": self.telemetry_enabled,
            "shards": shard_snapshots,
            "aggregate": merge_snapshots(shard_snapshots),
            "bus": bus,
        }

    def prometheus(self) -> str:
        """The cluster snapshot in Prometheus text exposition format:
        every shard's samples labelled ``shard="<id>"`` plus the bus's
        cluster-wide counters, one scrape-ready document."""
        snapshot = self.telemetry()
        parts = [
            render_prometheus(
                shard_snapshot,
                extra_labels={"shard": str(shard_snapshot["shard"])},
            )
            for shard_snapshot in snapshot["shards"]
        ]
        parts.append(render_prometheus(snapshot["bus"]))
        return "".join(parts)

    def rule_count(self) -> int:
        return len(self._shard_of_rule)

    def describe_shards(self) -> list[str]:
        """One summary line per shard (rules, hosted mirrors, pending
        queue depth)."""
        return [
            f"shard {shard.shard_id}: {shard.rule_count()} rules, "
            f"{len(shard.mirror_variables())} mirrors, "
            f"{self.bus.pending(shard.shard_id)} queued"
            for shard in self.shards
        ]

    def shutdown(self) -> None:
        """Stop the cluster.  Idempotent — a second call is a no-op.

        Order matters on the process backend: scheduled drains are
        cancelled first, then the durability plane closes (its WAL
        close/fsync RPCs must reach workers that are still alive), and
        only then are the shards stopped — which, for worker processes,
        joins them with a deadline and escalates to terminate/kill so no
        child is ever leaked."""
        if self._shutdown:
            return
        self._shutdown = True
        self.bus.shutdown()
        if self.durability is not None:
            self.durability.close()
        for shard in self.shards:
            shard.shutdown()
