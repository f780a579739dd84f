"""One shard: an independent rule engine serving a subset of homes.

An :class:`EngineShard` owns a full vertical slice of the single-home
framework — :class:`~repro.core.database.RuleDatabase`,
:class:`~repro.core.priority.PriorityManager`,
:class:`~repro.core.access.AccessPolicy`, the registration checkers and
a :class:`~repro.core.engine.RuleEngine` — and shares nothing mutable
with its siblings.  That independence is the scaling property the
cluster layer sells: shards drain their ingest queues with no cross-
shard locking, so N shards on N cores serve N× the event rate.

Registration runs through the same :class:`~repro.core.server.RulePipeline`
as the single-home :class:`~repro.core.server.HomeServer`; the periodic
clock tick is the same :meth:`~repro.core.engine.RuleEngine.clock_tick`.
A shard therefore behaves observably like a `HomeServer` for the homes
it owns — the property the cluster equivalence tests pin down.
"""

from __future__ import annotations

import json
import math
from time import perf_counter_ns
from typing import Any, Callable, Collection

from repro.cluster.wire import WireEncoder
from repro.core.action import ActionSpec
from repro.core.conflict import ConflictReport
from repro.core.engine import DEFAULT_MAX_TRACE, PromptPolicy
from repro.core.priority import PriorityOrder
from repro.core.rule import Rule
from repro.core.server import ConflictPolicy, build_rule_stack
from repro.obs.metrics import DEFAULT_LATENCY_BOUNDS_MS, SIZE_BOUNDS
from repro.sim.events import Simulator
from repro.support.fsio import atomic_write_bytes
from repro.support.wal import WalWriter

Dispatch = Callable[[ActionSpec], None]


def _discard_dispatch(spec: ActionSpec) -> None:
    """Default action sink; cluster deployments plug real transports in."""


class EngineShard:
    """A self-contained rule engine for the homes one shard owns.

    The public methods below form the **shard surface** — the contract
    :class:`~repro.cluster.worker.ShardClient` re-implements over the
    wire so the bus, facade and durability plane route to in-thread and
    out-of-process shards uniformly.  Code above this class must not
    reach into ``shard.engine``/``shard.database`` directly.
    """

    #: Which side of the process boundary this shard runs on; the
    #: out-of-process proxy (`ShardClient`) reports ``"process"``.
    backend = "thread"

    def __init__(
        self,
        shard_id: int,
        simulator: Simulator,
        *,
        dispatch: Dispatch | None = None,
        prompt_policy: PromptPolicy | None = None,
        conflict_policy: ConflictPolicy | None = None,
        prefer_intervals: bool = True,
        incremental: bool = True,
        shared: bool = True,
        wheel: bool = True,
        columnar: bool = True,
        adaptive_ticks: bool = True,
        max_trace: int | None = DEFAULT_MAX_TRACE,
        clock_tick_period: float = 60.0,
        telemetry=None,
    ) -> None:
        self.shard_id = shard_id
        self.simulator = simulator
        # Observability seam: a repro.obs.trace.Telemetry (or None).
        # Latency histograms are bound once here; when telemetry is off
        # every ingest pays one None check and no clock reads.
        self.telemetry = telemetry
        if telemetry is not None and telemetry.enabled:
            registry = telemetry.registry
            self._write_hist = registry.histogram(
                "ingest.write_ms", DEFAULT_LATENCY_BOUNDS_MS)
            self._batch_hist = registry.histogram(
                "ingest.batch_ms", DEFAULT_LATENCY_BOUNDS_MS)
            self._batch_sizes = registry.histogram(
                "ingest.batch_size", SIZE_BOUNDS)
        else:
            self._write_hist = None
            self._batch_hist = None
            self._batch_sizes = None
        stack = build_rule_stack(
            simulator,
            dispatch=dispatch if dispatch is not None else _discard_dispatch,
            prompt_policy=prompt_policy,
            conflict_policy=conflict_policy,
            prefer_intervals=prefer_intervals,
            incremental=incremental,
            shared=shared,
            wheel=wheel,
            columnar=columnar,
            max_trace=max_trace,
            telemetry=telemetry,
        )
        self.database = stack.database
        self.priorities = stack.priorities
        self.access = stack.access
        self.consistency = stack.consistency
        self.conflicts = stack.conflicts
        self.engine = stack.engine
        self.pipeline = stack.pipeline
        # Bumped on every rule add/remove; the ingest bus keys its
        # coalesce-safety caches on it so churn invalidates them.
        self.epoch = 0
        # Mirrors hosted on this shard: cross-home rules homed here that
        # read variables another shard owns.  Refcounted per rule so
        # removal prunes a subscription exactly when its last reader
        # goes (matching every other index's pruning guarantee).
        self._mirror_rules: dict[str, set[str]] = {}    # variable -> rules
        self._rule_mirrors: dict[str, frozenset[str]] = {}
        # This shard's WAL writer (None while durability is detached);
        # owned here so the process backend appends in-worker.  Logged
        # batches are encoded with a key table of the WAL's own, so each
        # generation decodes on its own.
        self._wal: WalWriter | None = None
        self._wal_encoder = WireEncoder()
        # -- clock ticks -----------------------------------------------------
        # With the time wheel on, a tick at a non-boundary time with no
        # DENIED/until/disabled/stateful clock-watchers is a no-op, so
        # the shard sleeps until the wheel's next armed boundary instead
        # of waking every period.  Wakes stay snapped to the fixed
        # cadence grid (anchor + k*period) so observable tick times — and
        # therefore traces — are identical to a fixed-cadence shard.
        self.clock_tick_period = clock_tick_period
        self.adaptive_ticks = adaptive_ticks and self.engine.wheel
        self.ticks = 0  # clock_tick invocations (scheduling observability)
        self.tick_sleeps = 0  # adaptive re-arms that skipped ≥1 grid tick
        self._tick_anchor = simulator.now
        self._tick_deadline: float | None = None
        self._tick_handle = None
        self._stopped = False
        if self.adaptive_ticks:
            self.engine.on_clock_demand_changed = self._on_clock_demand_changed
        self._arm_clock()

    # -- rule lifecycle --------------------------------------------------------

    def register_rule(
        self, rule: Rule, *, validate: bool = True
    ) -> list[ConflictReport]:
        reports = self.pipeline.register(rule, validate=validate)
        self.epoch += 1
        return reports

    def remove_rule(self, name: str) -> Rule:
        rule = self.pipeline.remove(name)
        self.epoch += 1
        return rule

    def add_priority_order(self, order: PriorityOrder) -> PriorityOrder:
        return self.priorities.add_order(order)

    @property
    def conflict_log(self) -> list[ConflictReport]:
        return self.pipeline.conflict_log

    def rule_count(self) -> int:
        return len(self.database)

    # -- engine reads ----------------------------------------------------------

    def rule_truth(self, name: str) -> bool:
        return self.engine.rule_truth(name)

    def rule_state(self, name: str):
        return self.engine.rule_state(name)

    def holder_of(self, udn: str):
        return self.engine.holder_of(udn)

    # -- world-state feeds -----------------------------------------------------

    def ingest(self, variable: str, value: Any) -> None:
        hist = self._write_hist
        if hist is None:
            self.engine.ingest(variable, value)
            return
        start = perf_counter_ns()
        self.engine.ingest(variable, value)
        hist.observe((perf_counter_ns() - start) / 1e6)

    def ingest_batch(self, writes: "list[tuple[str, Any]]") -> tuple[int, int]:
        """Apply a drained run of writes through the engine's bulk entry
        point (per-event semantics preserved); returns the batch's
        ``(atoms_flipped, clauses_touched)`` counter deltas."""
        hist = self._batch_hist
        if hist is None:
            return self.engine.ingest_batch(writes)
        start = perf_counter_ns()
        result = self.engine.ingest_batch(writes)
        hist.observe((perf_counter_ns() - start) / 1e6)
        self._batch_sizes.observe(len(writes))
        return result

    def post_event(
        self,
        event_type: str,
        subject: str | None = None,
        *,
        only: Collection[str] | None = None,
    ) -> None:
        """Fire an event; ``only`` scopes it to one home's rules (a
        shard hosts several homes, and a home-targeted event must not
        wake a co-located neighbour's rules)."""
        self.engine.post_event(event_type, subject, only=only)

    def end_batch(self, *, send: bool = True) -> None:
        """The bus finished feeding one drained batch.  An in-thread
        shard applied it already; the process proxy ships it here."""

    def barrier(self) -> tuple[int, int]:
        """Settle every feed sent so far and return the accumulated
        ``(atoms_flipped, clauses_touched)`` deltas not yet reported.

        An in-thread shard applies synchronously and returns its batch
        counters from :meth:`ingest_batch` directly, so here this is a
        no-op returning zeros; the process proxy pipelines its feeds and
        folds the worker-side counters back through this call."""
        return (0, 0)

    # -- coalescing safety -----------------------------------------------------

    def coalesce_safe(self, variable: str) -> bool:
        """Whether batched writes to ``variable`` may be coalesced to the
        latest value without changing observable truth/state/holders.

        This is the per-variable half of the proof; the bus supplies
        the other half by merging only *consecutive* runs of writes
        (see :mod:`repro.cluster.bus`).  Intermediate values are
        invisible after coalescing, so every
        rule reading the variable must have state that is a pure
        function of the *settled* world:

        * no ``until`` postcondition — an intermediate value (or even a
          repeated write acting as an until-check trigger) can stop the
          rule in a way the settled value cannot reproduce;
        * no duration atoms — a transient dip resets the held-since
          bookkeeping, which coalescing would skip;
        * no contested devices — with competitors, transient edges cause
          preempt/regrant handoffs whose outcome is history-dependent
          (the keep-status-quo prompt favours whoever fired first).

        Disabled rules count as live: re-enabling mid-batch must not
        retroactively make an applied coalescing unsound.
        """
        for rule in self.database.rules_reading_variable(variable):
            if rule.until is not None:
                return False
            if self.database.plan_of(rule.name).has_duration:
                return False
            for udn in rule.devices():
                if len(self.database.rules_for_device(udn)) > 1:
                    return False
        return True

    # -- mirror hosting (cross-shard rules) ------------------------------------

    def adopt_mirrors(self, rule_name: str,
                      variables: Collection[str]) -> list[str]:
        """Refcount a rule's mirror subscriptions; returns the variables
        newly mirrored into this shard (0→1 transitions), for which the
        caller must install bus routes and seed the current value."""
        fresh: list[str] = []
        footprint = frozenset(variables)
        for variable in sorted(footprint):
            readers = self._mirror_rules.get(variable)
            if readers is None:
                readers = self._mirror_rules[variable] = set()
                self.engine.world.mark_mirrored(variable, True)
                fresh.append(variable)
            readers.add(rule_name)
        if footprint:
            self._rule_mirrors[rule_name] = footprint
        return fresh

    def release_mirrors(self, rule_name: str) -> list[str]:
        """Drop a rule's mirror refcounts; returns the variables no rule
        on this shard still mirrors (the caller prunes their bus
        routes).  The last value stays in the world — harmless without
        readers, and a re-registration re-seeds from the owner."""
        freed: list[str] = []
        for variable in sorted(self._rule_mirrors.pop(rule_name, frozenset())):
            readers = self._mirror_rules.get(variable)
            if readers is None:
                continue
            readers.discard(rule_name)
            if not readers:
                del self._mirror_rules[variable]
                self.engine.world.mark_mirrored(variable, False)
                freed.append(variable)
        return freed

    def mirrors_of_rule(self, rule_name: str) -> frozenset[str]:
        return self._rule_mirrors.get(rule_name, frozenset())

    def mirror_variables(self) -> frozenset[str]:
        """Variables mirrored into this shard (hosted copies)."""
        return frozenset(self._mirror_rules)

    def variable_value(self, variable: str) -> Any:
        """Current world value (the mirror-seeding read)."""
        return self.engine.world.value_of(variable)

    # -- clock ticks -----------------------------------------------------------

    def _next_grid(self, at_or_after: float) -> float:
        """The first fixed-cadence grid point strictly after now and no
        earlier than ``at_or_after`` — adaptive wakes land exactly where
        a fixed-cadence shard would tick, so traces stay identical."""
        period = self.clock_tick_period
        anchor = self._tick_anchor
        steps = math.floor((self.simulator.now - anchor) / period + 1e-9) + 1
        target = anchor + steps * period
        if at_or_after > target:
            steps = math.ceil((at_or_after - anchor) / period - 1e-9)
            target = anchor + steps * period
        return target

    def _run_tick(self) -> None:
        self._tick_handle = None
        self._tick_deadline = None
        self.ticks += 1
        self.engine.clock_tick()
        self._arm_clock()

    def _arm_clock(self) -> None:
        """Full (re)schedule: from construction and after each tick."""
        if self._stopped:
            return
        if self._tick_handle is not None:
            self._tick_handle.cancel()
            self._tick_handle = None
        self._tick_deadline = None
        demand = (
            self.engine.clock_demand() if self.adaptive_ticks
            else self.simulator.now
        )
        if demand == math.inf:
            self.tick_sleeps += 1
            return  # nothing clock-driven; the demand hook re-arms us
        self._tick_deadline = self._next_grid(demand)
        if self.adaptive_ticks \
                and self._tick_deadline > self._next_grid(self.simulator.now):
            self.tick_sleeps += 1
        self._tick_handle = self.simulator.call_at(
            self._tick_deadline, self._run_tick
        )

    def _on_clock_demand_changed(self) -> None:
        """Pull the next wake earlier when tick demand grows; demand
        shrinking is left to the already-scheduled (no-op) tick."""
        if self._stopped:
            return
        demand = self.engine.clock_demand()
        if demand == math.inf:
            return
        target = self._next_grid(demand)
        if self._tick_deadline is not None and self._tick_deadline <= target:
            return
        if self._tick_handle is not None:
            self._tick_handle.cancel()
        self._tick_deadline = target
        self._tick_handle = self.simulator.call_at(target, self._run_tick)

    # -- telemetry -------------------------------------------------------------

    def telemetry_snapshot(self, *, queue_depth: int | None = None) -> dict | None:
        """One JSON-ready health snapshot of this shard (None when the
        shard runs without telemetry).

        Folds the cheap plain-int counters the hot paths maintain
        anyway (ticks, adaptive-tick sleeps, rule-churn epochs, wheel
        arming, columnar sweep counters) into the shard's registry at
        snapshot time — instrumenting those loops live would buy nothing
        but overhead — then returns the registry snapshot tagged with
        the shard id and the recent-spans ring."""
        telemetry = self.telemetry
        if telemetry is None or not telemetry.enabled:
            return None
        registry = telemetry.registry
        registry.counter("shard.ticks").value = self.ticks
        registry.counter("shard.tick_sleeps").value = self.tick_sleeps
        registry.counter("shard.epochs").value = self.epoch
        registry.gauge("shard.rules").set(float(len(self.database)))
        registry.gauge("shard.mirror_variables").set(
            float(len(self._mirror_rules)))
        if queue_depth is not None:
            registry.gauge("bus.queue_depth").set(float(queue_depth))
        wheel = self.engine.wheel_stats()
        if wheel is not None:
            registry.gauge("wheel.armed").set(float(wheel["armed"]))
            registry.counter("wheel.armed_total").value = wheel["armed_total"]
        columnar = self.engine.columnar_stats
        if columnar is not None:
            for field in ("writes", "batches", "batch_writes",
                          "atoms_flipped", "clauses_touched",
                          "vector_sweeps", "scalar_sweeps"):
                registry.counter(f"columnar.{field}").value = \
                    getattr(columnar, field)
        snapshot = registry.snapshot()
        snapshot["shard"] = self.shard_id
        snapshot["spans"] = [
            {"stage": span.stage, "at": span.at, "ms": span.ms,
             "home": span.home, "size": span.size}
            for span in telemetry.spans.recent()
        ]
        return snapshot

    # -- durability ------------------------------------------------------------

    def snapshot_state(self) -> dict:
        """JSON-ready snapshot of this shard's runtime state — the
        engine's durable core plus the shard-level scheduling identity
        (epoch, tick anchor, counters) a restore must carry to keep the
        rule-churn caches and the fixed-cadence tick grid aligned."""
        return {
            "engine": self.engine.runtime_snapshot(),
            "epoch": self.epoch,
            "tick_anchor": self._tick_anchor,
            "ticks": self.ticks,
            "tick_sleeps": self.tick_sleeps,
        }

    def restore_world(self, state: dict) -> None:
        """Recovery phase 1: overlay the engine's world from a
        :meth:`snapshot_state` dict *before* rules re-register."""
        self.engine.restore_world(state["engine"])

    def set_recovery_hooks(self, disarmed: bool) -> None:
        """Disarm (or rearm) the engine's outward side effects —
        dispatch and held-timer arming — around recovery's
        re-registration pass."""
        if disarmed:
            self.engine.disarm_side_effects()
        else:
            self.engine.rearm_side_effects()

    def wal_open(
        self,
        path: str,
        *,
        fsync_interval: int = 16,
        faults=None,
    ) -> None:
        """(Re)open this shard's write-ahead log at ``path`` — the WAL
        lives behind the shard surface so the process backend appends
        (and fsyncs) in the worker, parallelizing durability I/O with
        the other shards' drains.  Any previous generation's writer is
        closed first."""
        self.wal_close()
        self._wal = WalWriter(path, fsync_interval=fsync_interval,
                              faults=faults)
        self._wal_encoder.reset()

    def wal_log(self, seq: int, epoch: int, entries) -> int:
        """Append one drained batch — ``(variable, value)`` pairs and
        :class:`~repro.cluster.wire.Event` entries — as a batch record,
        before the bus applies it; returns the bytes appended."""
        encoder = self._wal_encoder
        encoder.seq = seq
        encoder.epoch = epoch
        return self._wal.append(
            encoder.encode_record(self.simulator.now, entries))

    def wal_append(self, record: bytes) -> int:
        """Append one encoded batch record (a worker logs the BATCH
        payload it received); returns the bytes appended."""
        return self._wal.append(record)

    def wal_sync(self) -> None:
        if self._wal is not None:
            self._wal.sync()

    def wal_close(self) -> None:
        if self._wal is not None:
            self._wal.close()
            self._wal = None

    def wal_arm_faults(self, faults) -> None:
        """Swap the crash-point injector on the live WAL writer."""
        if self._wal is not None:
            self._wal.faults = faults

    def snapshot_to(self, path: str) -> dict:
        """Serialize :meth:`snapshot_state` and write it atomically at
        ``path`` (in-worker for the process backend, so snapshot I/O
        parallelizes); returns ``{"epoch", "bytes"}`` for the caller's
        manifest bookkeeping."""
        state = self.snapshot_state()
        data = json.dumps(state, separators=(",", ":")).encode("utf-8")
        atomic_write_bytes(path, data)
        return {"epoch": state["epoch"], "bytes": len(data)}

    def recover(self, state: dict) -> None:
        """Recovery phase 2 for this shard: overlay the engine runtime
        (truth/states/holders/trace/wheel/held timers — rules must have
        been re-registered against the phase-1 world first), restore
        shard identity and re-arm the clock on the original grid.

        The restored shard may fire extra no-op grid ticks the original
        run slept through (adaptive-tick sleep decisions are not
        replayed); those are trace-invisible by the adaptive-tick
        equivalence argument, so observable behaviour matches.
        """
        self.engine.restore_runtime(state["engine"])
        self.epoch = state["epoch"]
        self._tick_anchor = state["tick_anchor"]
        self.ticks = state["ticks"]
        self.tick_sleeps = state["tick_sleeps"]
        self._arm_clock()

    # -- lifecycle -------------------------------------------------------------

    def trace(self) -> list:
        return list(self.engine.trace)

    def shutdown(self) -> None:
        self._stopped = True
        self.wal_close()
        if self._tick_handle is not None:
            self._tick_handle.cancel()
            self._tick_handle = None
        self._tick_deadline = None
