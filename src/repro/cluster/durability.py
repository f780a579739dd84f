"""The durability plane: checkpointed shard snapshots + an ingest WAL.

A :class:`DurabilityPlane` bound to a :class:`~repro.cluster.server.ClusterServer`
persists two artifacts per shard under one directory:

Snapshot (``snap-<id>-shard<k>.json``)
    The shard's durable runtime core (see
    :meth:`~repro.cluster.shard.EngineShard.snapshot_state`): the world,
    edge-trigger truth, rule states and device holders, held-since
    bookkeeping with pending recheck timers, the time wheel's armed
    boundaries, enable flags, the trace ring, the rule-churn epoch and
    tick-grid identity.  Deliberately *absent* is every derived index —
    columnar atom/clause columns, shared-network nodes, watch sets,
    mirror routes — because re-registering the rules against the
    restored world rebuilds all of it exactly.

WAL (``wal-<id>-shard<k>.log``)
    Every drained ingest batch as its typed batch record
    (:class:`~repro.cluster.wire.WireEncoder`: a header with a
    cluster-global sequence number, the simulated drain time and the
    shard's rule-churn epoch, then ``u32`` key ids, ``f64`` values and a
    JSON side table for strings, sets and events), CRC-framed
    (:mod:`repro.support.wal`) and appended *before* the batch is
    applied.  On the process backend the record is the BATCH payload
    the worker received, appended by the worker; in-thread, the shard
    encodes the same record.  The key table restarts with every WAL
    generation, so each WAL decodes on its own, and reading one never
    unpickles anything.  Replay merges the per-shard tails back into
    apply order by sequence number.

``MANIFEST.json`` names the current generation's files plus everything
cluster-level a restore needs — the construction config, the rule
registration order, trace home-spans, per-shard applied-entry counts —
and its atomic replacement *is* the checkpoint commit point: a crash
anywhere before it recovers from the previous generation (whose WAL kept
growing through the attempt), a crash after it from the new one (whose
missing/empty WALs read as empty).

Recovery (:func:`restore_cluster`) is snapshot + tail-replay:

1. advance a fresh simulator to the snapshot time;
2. build a cluster from the manifest config and overlay each shard's
   *world* (phase 1);
3. re-register the caller's rules in the original order with dispatch
   and held-timer hooks disarmed — subscription evaluates atoms against
   the restored world, rebuilding every backend index;
4. overlay each shard's *runtime* — truth/states/holders/trace, watch
   sets, wheel schedule, held rechecks, tick grid (phase 2);
5. replay the WAL tails in global sequence order, advancing the
   simulator to each record's drain time so timers interleave as they
   originally did.

Damage is tolerated by truncating to the longest valid prefix: torn
frames and checksum failures stop the disk scan
(:func:`repro.support.wal.read_wal`), and a record whose epoch disagrees
with the snapshot stops replay for that shard.  Both are surfaced per
shard in the returned :class:`RecoveryReport`; only an unusable manifest
or snapshot raises (:class:`~repro.errors.RecoveryError`).  Replayed
batches re-dispatch their device actions — recovery is at-least-once at
the actuator boundary, exactly once for engine state.

Known limitation: replay fires *all* simulator events at or before a
record's drain time before applying the record, so a timer scheduled at
exactly the drain time may observe the batch on the other side compared
to the original run.  The equivalence suite drives ingest at fractional
timestamps to keep batches and whole-second timers unambiguous.

Crash-point injection threads one :class:`~repro.sim.faults.FaultInjector`
through every durability code path: the WAL append (lost / torn /
durable-but-unapplied records), each entry of the bus's apply loop, each
snapshot write, and the manifest commit — :data:`ALL_CRASH_SITES` is the
menu the randomized restart-equivalence suite draws from.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import Callable, Iterable, Sequence

from repro.cluster.server import ClusterServer
from repro.cluster.wire import WireDecoder
from repro.core.action import ActionSpec
from repro.core.priority import PriorityOrder
from repro.core.rule import Rule
from repro.errors import RecoveryError, WorkerCrashed
from repro.obs.metrics import DEFAULT_LATENCY_BOUNDS_MS
from repro.sim.faults import FaultInjector
from repro.sim.events import Simulator
from repro.support.fsio import atomic_write_text
from repro.support.wal import WAL_CRASH_SITES, read_wal

MANIFEST_NAME = "MANIFEST.json"
MANIFEST_FORMAT = "repro-cluster-snapshot/2"

CRASH_DRAIN_APPLY = "drain-apply"
CRASH_SNAPSHOT_WRITE = "snapshot-write"
CRASH_MANIFEST_COMMIT = "manifest-commit"

#: Every instrumented crash point, WAL append sites included — the site
#: menu for FaultInjector.random in the restart-equivalence suite.
ALL_CRASH_SITES = WAL_CRASH_SITES + (
    CRASH_DRAIN_APPLY, CRASH_SNAPSHOT_WRITE, CRASH_MANIFEST_COMMIT,
)


class DurabilityPlane:
    """Snapshot + WAL management for one cluster, rooted at a directory.

    Bind with :meth:`ClusterServer.attach_durability` (which takes the
    initial checkpoint); thereafter the bus logs every drained batch
    through :meth:`log_batch` and rule churn triggers an eager
    re-checkpoint from the facade, keeping snapshot and WAL epochs
    aligned.  ``faults`` arms crash-point injection across every
    durability code path (see :data:`ALL_CRASH_SITES`).
    """

    def __init__(
        self,
        directory: str,
        *,
        fsync_interval: int = 16,
        faults: FaultInjector | None = None,
    ) -> None:
        os.makedirs(directory, exist_ok=True)
        self.directory = directory
        self.fsync_interval = fsync_interval
        self.faults = faults
        self._server: ClusterServer | None = None
        # WAL writers live *behind the shard surface* (the process
        # backend appends in-worker); this flag tracks whether the
        # current generation's logs are open.
        self._wal_ready = False
        self._manifest: dict | None = None
        self._epochs: list[int] = []
        self._wal_seq = 0
        self._checkpointing = False
        # Continue the generation numbering of any previous incarnation
        # over this directory, so file names never collide across a
        # crash/restore cycle.
        self._snapshot_id = 0
        try:
            with open(self._path(MANIFEST_NAME), encoding="utf-8") as handle:
                self._snapshot_id = int(json.load(handle)["snapshot_id"])
        except (OSError, ValueError, TypeError, KeyError):
            pass
        # Metric handles, bound to the cluster's bus registry in bind().
        self._checkpoints = None
        self._snapshot_bytes = None
        self._snapshot_ms = None
        self._wal_records = None
        self._wal_bytes = None

    def _path(self, name: str) -> str:
        return os.path.join(self.directory, name)

    def bind(self, server: ClusterServer) -> None:
        if self.faults is not None and any(
            getattr(shard, "backend", "thread") == "process"
            for shard in server.shards
        ):
            raise RecoveryError(
                "crash-point injection is not supported on the process "
                "backend; crash the worker process instead"
            )
        self._server = server
        registry = server.bus.registry
        self._checkpoints = registry.counter("recovery.checkpoints")
        self._snapshot_bytes = registry.counter("recovery.snapshot_bytes")
        self._snapshot_ms = registry.histogram(
            "recovery.snapshot_ms", DEFAULT_LATENCY_BOUNDS_MS)
        self._wal_records = registry.counter("recovery.wal_records")
        self._wal_bytes = registry.counter("recovery.wal_bytes")

    def fire(self, site: str) -> None:
        """Pass through a named crash point (no-op without faults)."""
        if self.faults is not None:
            self.faults.check(site)

    def arm_faults(self, faults: FaultInjector | None) -> None:
        """Install (or swap) the crash-point injector, reaching into the
        live WAL writers too — test harnesses attach the plane cleanly
        (the initial checkpoint must commit) and arm faults afterwards."""
        self.faults = faults
        if self._server is not None:
            for shard in self._server.shards:
                shard.wal_arm_faults(faults)

    # -- write path ------------------------------------------------------------

    def log_batch(self, index: int, epoch: int, entries: Sequence) -> None:
        """Log one detached drain batch to the shard's WAL, before it is
        applied.  ``entries`` are the batch's ``(variable, value)``
        pairs and :class:`~repro.cluster.wire.Event` entries.

        An epoch disagreeing with the snapshot means rule churn the
        eager churn-checkpoint failed to capture (it crashed, or the
        plane was attached mid-life): re-checkpoint first, so the record
        lands in a WAL whose snapshot it agrees with.  The batch is
        already detached from the queue, so the nested flush cannot
        double-log it, and its effects are not yet in any snapshot.
        Inside a checkpoint's own flush, records go to the *old*
        generation's WAL: their effects land in the snapshot being
        written, and the old WAL only matters if the commit never
        happens — in which case those records are exactly what the old
        generation needs.
        """
        if not self._wal_ready:
            return  # first checkpoint in flight; effects land in it
        if epoch != self._epochs[index] and not self._checkpointing:
            self.checkpoint()
        self._wal_seq += 1
        # An in-thread shard encodes and appends the record here.  A
        # process shard stamps the sequence number on the BATCH record
        # it sends at the end of the drain, which its worker appends
        # before applying (counted in ClusterServer.flush).
        size = self._server.shards[index].wal_log(
            self._wal_seq, epoch, entries)
        if self._wal_records is not None:
            self._wal_records.inc()
            if size:
                self._wal_bytes.inc(size)

    def checkpoint(self) -> dict:
        """Write a full snapshot generation and commit it.

        Sequence: settle every queue (the flushed batches' effects then
        belong to the snapshot), write each shard snapshot atomically,
        clear any stale files at the new WAL names, atomically replace
        the manifest (the commit point), then swap in fresh WAL writers
        and garbage-collect the superseded generation.  A crash strictly
        before the manifest replace leaves the previous generation fully
        recoverable; strictly after, the new one (fresh WALs read as
        empty even if their files were never created).
        """
        server = self._server
        if server is None:
            raise RecoveryError("durability plane is not bound to a cluster")
        if self._checkpointing:
            return self._manifest or {}
        self._checkpointing = True
        try:
            start = perf_counter_ns()
            server.bus.flush()
            snapshot_id = self._snapshot_id + 1
            shard_files: list[dict] = []
            epochs: list[int] = []
            total_bytes = 0
            for index, shard in enumerate(server.shards):
                self.fire(CRASH_SNAPSHOT_WRITE)
                snap_name = f"snap-{snapshot_id}-shard{index}.json"
                # The shard serializes and writes its own snapshot — on
                # the process backend that happens in the worker, so
                # snapshot I/O parallelizes across shards' cores.
                info = shard.snapshot_to(self._path(snap_name))
                epochs.append(info["epoch"])
                total_bytes += info["bytes"]
                shard_files.append({
                    "snapshot": snap_name,
                    "wal": f"wal-{snapshot_id}-shard{index}.log",
                })
            manifest = {
                "format": MANIFEST_FORMAT,
                "snapshot_id": snapshot_id,
                "time": server.simulator.now,
                "wal_seq": self._wal_seq,
                "config": dict(server._config),
                "rules": list(server._shard_of_rule),
                "home_spans": {
                    name: [[when, home] for when, home in spans]
                    for name, spans in server._home_spans.items()
                },
                "applied_counts": list(server.bus.applied_counts),
                "shards": shard_files,
            }
            for entry in shard_files:
                # A crashed previous incarnation may have left content
                # at these names; the new generation's WALs start empty.
                try:
                    os.unlink(self._path(entry["wal"]))
                except OSError:
                    pass
            self.fire(CRASH_MANIFEST_COMMIT)
            atomic_write_text(
                self._path(MANIFEST_NAME),
                json.dumps(manifest, indent=2) + "\n",
            )
            # Committed: swap generations (each shard closes its old
            # writer and opens the new name).
            for shard, entry in zip(server.shards, shard_files):
                shard.wal_close()
                shard.wal_open(
                    self._path(entry["wal"]),
                    fsync_interval=self.fsync_interval,
                    faults=self.faults,
                )
            self._wal_ready = True
            self._manifest = manifest
            self._snapshot_id = snapshot_id
            self._epochs = epochs
            self._collect_garbage(manifest)
            if self._checkpoints is not None:
                self._checkpoints.inc()
                self._snapshot_bytes.inc(total_bytes)
                self._snapshot_ms.observe((perf_counter_ns() - start) / 1e6)
            return manifest
        finally:
            self._checkpointing = False

    def _collect_garbage(self, manifest: dict) -> None:
        """Drop snapshot/WAL files the committed manifest does not
        reference (superseded generations, orphans of crashed
        checkpoints).  Best effort — recovery only ever reads files the
        manifest names, so leftovers are waste, not danger."""
        referenced = {MANIFEST_NAME}
        for entry in manifest["shards"]:
            referenced.add(entry["snapshot"])
            referenced.add(entry["wal"])
        try:
            names = os.listdir(self.directory)
        except OSError:
            return
        for name in names:
            if name in referenced:
                continue
            if name.startswith("snap-") or name.startswith("wal-"):
                try:
                    os.unlink(self._path(name))
                except OSError:
                    pass

    def sync(self) -> None:
        """Force-fsync every shard's WAL (a durability barrier between
        the batched fsync intervals)."""
        if self._server is None:
            return
        for shard in self._server.shards:
            shard.wal_sync()

    def close(self) -> None:
        if self._server is None:
            return
        for shard in self._server.shards:
            try:
                shard.wal_close()
            except WorkerCrashed:
                # A dead worker's WAL is already as durable as it will
                # get; close must not block cluster shutdown.
                pass
        self._wal_ready = False


# -- recovery --------------------------------------------------------------------


@dataclass
class ShardRecovery:
    """One shard's replay outcome inside a :class:`RecoveryReport`."""

    shard: int
    wal_records: int = 0        # valid frames decoded from disk
    records_replayed: int = 0
    entries_replayed: int = 0
    truncated: bool = False
    reason: str = ""


@dataclass
class RecoveryReport:
    """What :func:`restore_cluster` rebuilt and what it had to drop."""

    snapshot_id: int
    snapshot_time: float
    rules_restored: int = 0
    rules_missing: list[str] = field(default_factory=list)
    shards: list[ShardRecovery] = field(default_factory=list)

    def ok(self) -> bool:
        """True when recovery was lossless: every manifest rule was
        supplied and no shard's WAL tail had to be truncated."""
        return not self.rules_missing and not any(
            shard.truncated for shard in self.shards
        )

    def describe(self) -> str:
        parts = [
            f"snapshot {self.snapshot_id} @ t={self.snapshot_time:g}",
            f"rules={self.rules_restored}",
        ]
        if self.rules_missing:
            parts.append(f"missing={len(self.rules_missing)}")
        for shard in self.shards:
            note = f" ({shard.reason})" if shard.truncated else ""
            parts.append(
                f"shard{shard.shard}: {shard.records_replayed} records/"
                f"{shard.entries_replayed} entries{note}"
            )
        return "; ".join(parts)


def restore_cluster(
    directory: str,
    simulator: Simulator,
    rules: Iterable[Rule],
    *,
    priority_orders: Iterable[PriorityOrder] = (),
    dispatch: Callable[[ActionSpec], None] | None = None,
    prompt_policy=None,
    conflict_policy=None,
    fsync_interval: int = 16,
    faults: FaultInjector | None = None,
    attach: bool = True,
    backend: str | None = None,
) -> tuple[ClusterServer, RecoveryReport]:
    """Rebuild a cluster from its durability directory.

    ``simulator`` must be fresh (at or before the snapshot time); it is
    advanced to the snapshot time, then through each replayed record's
    drain time.  ``rules`` supplies the live Rule objects by name — rule
    *definitions* are code, not data, exactly as in
    :func:`repro.support.persistence.restore_household`; manifest rules
    with no supplied definition are skipped and reported.  Returns the
    serving cluster plus a :class:`RecoveryReport`; with ``attach`` a
    fresh :class:`DurabilityPlane` (and an immediate checkpoint folding
    the replayed tail into a new snapshot generation) is installed.

    ``backend`` overrides the manifest's recorded shard backend — a
    cluster that crashed as worker processes may restore in-thread and
    vice versa; the durable state is backend-agnostic.
    """
    start = perf_counter_ns()
    try:
        with open(os.path.join(directory, MANIFEST_NAME),
                  encoding="utf-8") as handle:
            manifest = json.load(handle)
    except FileNotFoundError as exc:
        raise RecoveryError(
            f"no recovery manifest in {directory!r}") from exc
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise RecoveryError(f"undecodable recovery manifest: {exc}") from exc
    if not isinstance(manifest, dict) \
            or manifest.get("format") != MANIFEST_FORMAT:
        found = manifest.get("format") if isinstance(manifest, dict) else None
        raise RecoveryError(f"unsupported snapshot format: {found!r}")
    snapshot_time = manifest["time"]
    if simulator.now > snapshot_time:
        raise RecoveryError(
            f"simulator is already past the snapshot time "
            f"({simulator.now:g} > {snapshot_time:g}); recovery needs a "
            f"fresh simulator"
        )
    simulator.run_until(snapshot_time)
    config = manifest["config"]
    resolved_backend = (
        backend if backend is not None
        else config.get("backend", "thread")
    )
    if faults is not None and resolved_backend == "process":
        raise RecoveryError(
            "crash-point injection is not supported on the process "
            "backend"
        )
    server = ClusterServer(
        simulator,
        shard_count=config["shard_count"],
        backend=resolved_backend,
        dispatch=dispatch,
        coalesce=config["coalesce"],
        batch=config["batch"],
        drain_delay=config["drain_delay"],
        prompt_policy=prompt_policy,
        conflict_policy=conflict_policy,
        prefer_intervals=config["prefer_intervals"],
        incremental=config["incremental"],
        shared=config["shared"],
        wheel=config["wheel"],
        columnar=config["columnar"],
        adaptive_ticks=config["adaptive_ticks"],
        max_trace=config["max_trace"],
        clock_tick_period=config["clock_tick_period"],
        telemetry=config["telemetry"],
    )
    states: list[dict] = []
    for entry in manifest["shards"]:
        try:
            with open(os.path.join(directory, entry["snapshot"]),
                      encoding="utf-8") as handle:
                states.append(json.load(handle))
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise RecoveryError(
                f"unreadable shard snapshot {entry['snapshot']!r}: {exc}"
            ) from exc
    report = RecoveryReport(
        snapshot_id=manifest["snapshot_id"], snapshot_time=snapshot_time)
    # Phase 1: worlds first, so re-registration subscribes every backend
    # against the restored values.
    for shard, state in zip(server.shards, states):
        shard.restore_world(state)
    # Re-register in the original order (shard-local rule ids, and with
    # them evaluation order, depend on it) with side-effect hooks
    # disarmed: restored holders already reflect pre-crash dispatches,
    # and held timers are restored verbatim in phase 2.
    for shard in server.shards:
        shard.set_recovery_hooks(True)
    try:
        by_name = {rule.name: rule for rule in rules}
        for name in manifest["rules"]:
            rule = by_name.get(name)
            if rule is None:
                report.rules_missing.append(name)
                continue
            server.register_rule(rule, validate=False)
            report.rules_restored += 1
        for order in priority_orders:
            server.add_priority_order(order)
    finally:
        for shard in server.shards:
            shard.set_recovery_hooks(False)
    # Registration stamped fresh home spans at the snapshot time;
    # overlay the recorded history (it also covers removed rules).
    server._home_spans = {
        name: [(when, home) for when, home in spans]
        for name, spans in manifest["home_spans"].items()
    }
    server.bus.applied_counts = list(manifest["applied_counts"])
    # Phase 2: runtime overlay (truth/states/holders/trace/wheel/held
    # timers/tick grid) erases registration-time side effects.
    for shard, state in zip(server.shards, states):
        shard.recover(state)
    # WAL tails: per shard, keep the longest prefix that is both
    # structurally valid on disk and epoch-consistent with the snapshot.
    kept_records: list[list] = []
    for index, entry in enumerate(manifest["shards"]):
        records, read_report = read_wal(
            os.path.join(directory, entry["wal"]),
            WireDecoder().decode_record)
        shard_report = ShardRecovery(shard=index, wal_records=len(records))
        epoch = states[index]["epoch"]
        kept: list = []
        for record in records:
            if not record.seq:
                continue  # unlogged batch kept only for its key definitions
            if record.epoch != epoch:
                shard_report.truncated = True
                shard_report.reason = (
                    f"epoch mismatch: record epoch {record.epoch}"
                    f" != snapshot epoch {epoch}"
                )
                break
            kept.append(record)
        else:
            if read_report.truncated:
                shard_report.truncated = True
                shard_report.reason = read_report.reason
        kept_records.append(kept)
        report.shards.append(shard_report)
    merged = sorted(
        ((record.seq, index, record)
         for index, records in enumerate(kept_records)
         for record in records),
        key=lambda item: item[:2],
    )
    for _, index, record in merged:
        if record.t > simulator.now:
            # Fire timers up to the drain time first — the original run
            # interleaved them the same way (batches drained at t after
            # events strictly before t).
            simulator.run_until(record.t)
        server.bus.apply_entries(index, record.entries)
        shard_report = report.shards[index]
        shard_report.records_replayed += 1
        shard_report.entries_replayed += len(record.entries)
    registry = server.bus.registry
    registry.counter("recovery.replayed_records").inc(
        sum(shard.records_replayed for shard in report.shards))
    registry.counter("recovery.replayed_entries").inc(
        sum(shard.entries_replayed for shard in report.shards))
    registry.counter("recovery.truncated_wals").inc(
        sum(1 for shard in report.shards if shard.truncated))
    registry.histogram(
        "recovery.restore_ms", DEFAULT_LATENCY_BOUNDS_MS
    ).observe((perf_counter_ns() - start) / 1e6)
    if attach:
        server.attach_durability(DurabilityPlane(
            directory, fsync_interval=fsync_interval, faults=faults))
    return server, report


__all__ = [
    "ALL_CRASH_SITES",
    "CRASH_DRAIN_APPLY",
    "CRASH_MANIFEST_COMMIT",
    "CRASH_SNAPSHOT_WRITE",
    "DurabilityPlane",
    "MANIFEST_FORMAT",
    "MANIFEST_NAME",
    "RecoveryReport",
    "ShardRecovery",
    "restore_cluster",
]
