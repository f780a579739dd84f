"""Batched asynchronous ingest bus.

Sensor events are *published* to per-shard FIFO queues and *applied*
later by a drain callback scheduled on the shared discrete-event
:class:`~repro.sim.events.Simulator` — ingestion is decoupled from
arbitration exactly as a production front door decouples accept from
process.  Three properties matter:

FIFO per shard
    A shard's queue preserves publish order across writes *and*
    instantaneous events, so the engine observes the same sequence a
    synchronous caller would have produced — the incremental/seed
    equivalence from PR 1 carries over to the cluster unchanged.

Batch drain
    The first publish to an idle shard schedules one drain at the
    current simulated time; every further publish before it runs joins
    the same batch.  A burst of M events costs one scheduler round-trip
    instead of M.  On bursty streams that made the batched, coalescing
    bus 3.5x faster than a per-event dispatcher (one simulator callback
    per publish) in benchmark A6's last comparison, whose ledger rows
    A6's docstring cites.

Write coalescing
    A write whose variable matches the *tail* of the pending queue
    merges into that entry (latest value wins) — runs of consecutive
    writes from one chatty sensor collapse to their settled value.
    Only consecutive writes merge: skipping the intermediate values of
    an unbroken run can only suppress world states the synchronous
    path also visited, never combine one variable's stale value with
    another's fresh one (which batch-wide merging would, firing rules
    on states that never existed).  Even then a variable must be
    *coalesce-safe* per its owning shard
    (:meth:`~repro.cluster.shard.EngineShard.coalesce_safe`): no
    until-postconditions, no duration atoms, no contested devices among
    the readers, and no priority-order context reading it.  Unsafe
    variables are applied write-for-write, so
    history-dependent semantics never observe a skipped value.  An
    instantaneous event breaks any run, so writes never merge across
    it.

Mirror routes (cross-shard rules)
    A rule homed on one shard may read variables owned by another home
    (see :meth:`~repro.cluster.router.ShardRouter.placement_plan`); the
    cluster registers a **mirror route** for each such variable.  A
    publish then fans the write out: the owner shard's queue first,
    then every subscribed shard's queue, so each shard observes its
    relevant writes in global publish order (per-shard FIFO is
    preserved *across* variables, which is what makes cluster traces
    match a merged-home oracle).  Mirrored variables are excluded from
    coalescing entirely — the owner shard cannot prove a skipped
    intermediate value harmless for rules it does not host, and that
    one value could be exactly the edge that fires a cross-home rule.
"""

from __future__ import annotations

from typing import Any, Collection, Sequence

from repro.cluster.router import ShardRouter
from repro.cluster.shard import EngineShard
from repro.cluster.wire import Event
from repro.obs.metrics import MetricsRegistry
from repro.sim.events import EventHandle, Simulator


class _Write:
    """A queued sensor write (mutable: coalescing updates ``value``)."""

    __slots__ = ("variable", "value")

    def __init__(self, variable: str, value: Any) -> None:
        self.variable = variable
        self.value = value


class _Event:
    """A queued instantaneous event (a coalescing barrier).

    ``only`` is a *live* rule-name collection (or None for unscoped):
    the publisher hands in its per-home membership set, so rule churn
    between publish and drain is reflected at apply time — matching the
    synchronous path, where churn always happens between applications.
    """

    __slots__ = ("event_type", "subject", "only")

    def __init__(
        self,
        event_type: str,
        subject: str | None,
        only: Collection[str] | None = None,
    ) -> None:
        self.event_type = event_type
        self.subject = subject
        self.only = only


class BusStats:
    """Observability counters for dashboards and the A6 benchmark.

    Since the telemetry PR this is a *view* over ``bus.<field>``
    counters in a :class:`~repro.obs.metrics.MetricsRegistry` — the
    historical attribute API (``stats.batches`` etc.) reads through
    unchanged, but the counters themselves live in the registry, where
    the Prometheus formatter and cluster aggregation see them and where
    they survive bus re-creation over re-registered shards (pass the old
    bus's ``registry`` to the new one) instead of silently resetting.
    The attributes are read-only; the bus increments the registry
    counters directly.
    """

    FIELDS = (
        "published",        # writes accepted
        "events",           # instantaneous events accepted (per target shard)
        "coalesced",        # writes merged into a pending entry
        "applied",          # engine ingests actually performed
        "batches",          # drain callbacks that applied at least one entry
        "mirrored",         # mirror fan-outs (one per subscriber shard copy)
        # -- columnar batch observability (see repro.core.columnar) -----
        "batched_writes",   # writes applied through shard.ingest_batch
        "atoms_flipped",    # atom truth flips inside batched runs
        "clauses_touched",  # clause counter updates inside batched runs
    )

    __slots__ = ("registry",)

    def __init__(self, registry: MetricsRegistry | None = None,
                 **initial: int) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        for field, value in initial.items():
            if field not in self.FIELDS:
                raise TypeError(f"BusStats has no counter {field!r}")
            self.registry.counter(f"bus.{field}").value = value

    def describe(self) -> str:
        return " ".join(
            f"{field}={getattr(self, field)}" for field in self.FIELDS
        )


def _stat_property(field: str) -> property:
    name = "bus." + field

    def _get(self: BusStats) -> int:
        return self.registry.counter(name).value

    return property(_get)


for _field in BusStats.FIELDS:
    setattr(BusStats, _field, _stat_property(_field))
del _field


class IngestBus:
    """Queues sensor events per shard and drains them in batches."""

    def __init__(
        self,
        simulator: Simulator,
        shards: Sequence[EngineShard],
        router: ShardRouter,
        *,
        coalesce: bool = True,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.simulator = simulator
        self.shards = list(shards)
        self.router = router
        self.coalesce = coalesce
        # The bus's counters live in a registry (passed in to survive bus
        # re-creation over re-registered shards); BusStats is a reading
        # view and the hot paths below increment bound counters directly.
        self.registry = registry if registry is not None else MetricsRegistry()
        self.stats = BusStats(self.registry)
        self._published = self.registry.counter("bus.published")
        self._events = self.registry.counter("bus.events")
        self._coalesced = self.registry.counter("bus.coalesced")
        self._applied = self.registry.counter("bus.applied")
        self._batches = self.registry.counter("bus.batches")
        self._mirrored = self.registry.counter("bus.mirrored")
        self._batched_writes = self.registry.counter("bus.batched_writes")
        self._atoms_flipped = self.registry.counter("bus.atoms_flipped")
        self._clauses_touched = self.registry.counter("bus.clauses_touched")
        count = len(self.shards)
        self._queues: list[list[_Write | _Event]] = [[] for _ in range(count)]
        self._drain_handles: list[EventHandle | None] = [None] * count
        self._closed = False
        # Preallocated drain scratch: detached queues are recycled per
        # shard and the consecutive-write run buffer is shared, so a
        # steady-state drain allocates no per-batch temporaries.
        self._spare_queues: list[list[_Write | _Event] | None] = \
            [None] * count
        self._run_scratch: list[tuple[str, Any]] = []
        # variable → coalesce-safety, valid for the recorded shard epoch
        # (which rule and priority-order churn both move).
        self._safety_epochs: list[int] = [-1] * count
        self._safety: list[dict[str, bool]] = [{} for _ in range(count)]
        # variable → sorted subscriber shard indices (cross-shard rules
        # hosting a mirror of the variable); maintained by the cluster
        # facade as rules register and are removed.
        self._mirror_routes: dict[str, tuple[int, ...]] = {}
        # Durability hook (None when the cluster runs ephemeral): every
        # detached drain batch is logged append-before-apply, and
        # applied_counts[i] counts the entries *actually applied* to
        # shard i — the durable input prefix recovery re-feeds from.
        self._durability = None
        self.applied_counts: list[int] = [0] * count

    # -- durability ------------------------------------------------------------

    def attach_durability(self, plane) -> None:
        """Bind a :class:`~repro.cluster.durability.DurabilityPlane`: each
        drained batch is WAL-logged before it is applied."""
        self._durability = plane

    def apply_entries(self, index: int, entries: Sequence) -> int:
        """Replay one WAL batch through the normal apply machinery.

        ``entries`` are a decoded batch record's entries —
        ``(variable, value)`` pairs and :class:`~repro.cluster.wire.Event`
        entries — applied with the exact drain semantics (consecutive
        writes as one batched run, events as barriers), so replay
        reproduces the counter deltas and evaluation order of the
        original drain.  Returns the number of entries applied."""
        run: list[tuple[str, Any]] = []
        for entry in entries:
            if isinstance(entry, Event):
                self._flush_run(index, run)
                self._apply_event(index, entry)
            else:
                run.append(entry)
        self._flush_run(index, run)
        self.shards[index].end_batch()
        return len(entries)

    # -- mirror routes ---------------------------------------------------------

    def add_mirror_route(self, variable: str, shard: int) -> None:
        """Subscribe a shard to writes of a variable it does not own."""
        targets = set(self._mirror_routes.get(variable, ()))
        targets.add(shard)
        self._mirror_routes[variable] = tuple(sorted(targets))

    def remove_mirror_route(self, variable: str, shard: int) -> None:
        """Drop a shard's mirror subscription (no-op when absent)."""
        targets = set(self._mirror_routes.get(variable, ()))
        targets.discard(shard)
        if targets:
            self._mirror_routes[variable] = tuple(sorted(targets))
        else:
            self._mirror_routes.pop(variable, None)

    def mirror_routes_of(self, variable: str) -> tuple[int, ...]:
        """Subscriber shards of one variable (introspection/tests)."""
        return self._mirror_routes.get(variable, ())

    def mirror_route_count(self) -> int:
        """Number of variables with at least one mirror subscription."""
        return len(self._mirror_routes)

    # -- publishing ------------------------------------------------------------

    def publish(self, variable: str, value: Any) -> int:
        """Queue one sensor write; returns the owning shard index.

        A write to a mirrored variable is enqueued to the owner shard
        first and then to every subscriber shard, so each shard's FIFO
        queue carries its relevant writes in global publish order."""
        index = self.router.shard_of(variable)
        self._published.inc()
        routes = self._mirror_routes.get(variable)
        if self.coalesce and not routes:
            queue = self._queues[index]
            tail = queue[-1] if queue else None
            if (
                isinstance(tail, _Write)
                and tail.variable == variable
                and self._coalesce_safe(index, variable)
            ):
                tail.value = value
                self._coalesced.inc()
                return index
        self._queues[index].append(_Write(variable, value))
        self._schedule_drain(index)
        if routes:
            for target in routes:
                if target == index:
                    continue
                self._mirrored.inc()
                self._queues[target].append(_Write(variable, value))
                self._schedule_drain(target)
        return index

    def publish_event(
        self,
        event_type: str,
        subject: str | None = None,
        *,
        shard: int | None = None,
        only: Collection[str] | None = None,
    ) -> None:
        """Queue an instantaneous event for one shard (optionally scoped
        to the ``only`` rule names) or broadcast to all shards (a
        home-less event — e.g. a whole-building alarm — must reach every
        shard's rules)."""
        targets = range(len(self.shards)) if shard is None else (shard,)
        for index in targets:
            self._events.inc()
            # The event becomes the queue tail, so it naturally breaks
            # any coalescible run of writes.
            self._queues[index].append(_Event(event_type, subject, only))
            self._schedule_drain(index)

    # -- draining --------------------------------------------------------------

    def pending(self, shard: int) -> int:
        """Entries queued but not yet applied for one shard."""
        return len(self._queues[shard])

    def flush(self, shard: int | None = None, *, send: bool = True) -> None:
        """Apply pending batches immediately (all shards by default).

        ``send=False`` leaves a process shard's drained batch queued in
        its proxy, for the caller to send with the call that follows
        (see :meth:`~repro.cluster.server.ClusterServer.flush`)."""
        targets = range(len(self.shards)) if shard is None else (shard,)
        for index in targets:
            handle = self._drain_handles[index]
            if handle is not None:
                handle.cancel()
                self._drain_handles[index] = None
            self._drain(index, send)

    def shutdown(self) -> None:
        """Cancel scheduled drains and drop queued entries; the closed
        flag stops a drain already under way (a dispatch callback may
        shut the cluster down mid-batch) from applying the rest."""
        self._closed = True
        for index, handle in enumerate(self._drain_handles):
            if handle is not None:
                handle.cancel()
                self._drain_handles[index] = None
            self._queues[index].clear()

    def _schedule_drain(self, index: int) -> None:
        if self._drain_handles[index] is None:
            self._drain_handles[index] = self.simulator.call_after(
                0.0, lambda: self._run_drain(index)
            )

    def _run_drain(self, index: int) -> None:
        self._drain_handles[index] = None
        self._drain(index)

    def _drain(self, index: int, send: bool = True) -> None:
        queue = self._queues[index]
        if not queue:
            return
        telemetry = getattr(self.shards[index], "telemetry", None)
        spans = telemetry.spans if telemetry is not None else None
        token = (
            spans.span_begin("drain", size=len(queue))
            if spans is not None else None
        )
        # Detach before applying: ingests can publish follow-up events
        # re-entrantly; those join a fresh batch with a fresh drain.
        # The detached list is recycled as the shard's next queue and
        # the write-run buffer is detached scratch (re-entrant drains
        # simply fall back to fresh lists), so steady-state drains
        # allocate no per-batch temporaries.
        spare = self._spare_queues[index]
        self._spare_queues[index] = None
        self._queues[index] = spare if spare is not None else []
        self._batches.inc()
        shard = self.shards[index]
        plane = self._durability
        if plane is not None:
            # Append-before-apply: once the record is on disk the batch
            # is recoverable no matter where the apply loop dies.
            plane.log_batch(index, shard.epoch, [
                (entry.variable, entry.value) if isinstance(entry, _Write)
                else Event(entry.event_type, entry.subject,
                           None if entry.only is None else sorted(entry.only))
                for entry in queue
            ])
        run = self._run_scratch
        self._run_scratch = []
        for entry in queue:
            if plane is not None:
                plane.fire("drain-apply")
            if isinstance(entry, _Write):
                # Consecutive writes drain as one batched run; an event
                # is a barrier (it must observe the writes before it).
                run.append((entry.variable, entry.value))
                continue
            self._flush_run(index, run)
            self._apply_event(index, entry)
        self._flush_run(index, run)
        shard.end_batch(send=send)
        queue.clear()
        self._spare_queues[index] = queue
        self._run_scratch = run
        if token is not None:
            spans.span_end(token)

    def _flush_run(self, index: int,
                   run: list[tuple[str, Any]]) -> None:
        """Apply a run of consecutive writes; singletons take the plain
        ingest path, longer runs the shard's batch entry point (same
        per-event semantics, vectorized hot path + batch counters)."""
        if not run:
            return
        if self._closed:
            run.clear()
            return
        shard = self.shards[index]
        if len(run) == 1:
            shard.ingest(*run[0])
            self._applied.inc()
            self.applied_counts[index] += 1
        else:
            flips, touched = shard.ingest_batch(run)
            count = len(run)
            self._applied.inc(count)
            self.applied_counts[index] += count
            self._batched_writes.inc(count)
            self._atoms_flipped.inc(flips)
            self._clauses_touched.inc(touched)
        run.clear()

    def _apply_event(self, index: int, event: _Event | Event) -> None:
        if self._closed:
            return
        self.shards[index].post_event(event.event_type, event.subject,
                                      only=event.only)
        self.applied_counts[index] += 1

    def _coalesce_safe(self, index: int, variable: str) -> bool:
        shard = self.shards[index]
        if self._safety_epochs[index] != shard.epoch:
            self._safety_epochs[index] = shard.epoch
            self._safety[index] = {}
        cache = self._safety[index]
        safe = cache.get(variable)
        if safe is None:
            safe = shard.coalesce_safe(variable)
            cache[variable] = safe
        return safe
