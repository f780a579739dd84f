"""In-memory span tracing around the cluster's public calls.

The traced run installs wrappers (:func:`install`) on the classes whose
public methods bound each layer, records one span per wrapped call and
computes each layer's *self time* — a span's duration minus the part its
child spans cover.  Spans stay in memory until the run ends.

Every span records its name, start and end (``perf_counter_ns``), the
index of its parent span (``-1`` for a root) and the tick it belongs to
(the request id).  Nothing inside ``src/`` is modified: the wrappers are
installed on the classes at run time and removed by
:meth:`Installation.remove`.
"""

from __future__ import annotations

import functools
import json
from time import perf_counter_ns


class Tracer:
    """Spans as parallel lists (cheap appends on the hot path)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.ticks: list[int] = []
        self.tick = -1
        self._stack: list[int] = []
        # Counters recorded beside spans (bytes encoded, same-device
        # rules checked, ...).
        self.counts: dict[str, int] = {}
        # span index -> shard id, for spans of calls on one shard.
        self.shard_of: dict[int, int] = {}

    def begin(self, name: str) -> int:
        index = len(self.names)
        stack = self._stack
        self.names.append(name)
        self.parents.append(stack[-1] if stack else -1)
        self.ticks.append(self.tick)
        self.ends.append(0)
        stack.append(index)
        self.starts.append(perf_counter_ns())
        return index

    def end(self, index: int) -> None:
        self.ends[index] = perf_counter_ns()
        self._stack.pop()

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def self_times(self) -> list[int]:
        """Per span: its duration minus its direct children's durations
        (children of one parent never overlap: calls nest)."""
        durations = [end - start for start, end in zip(self.starts, self.ends)]
        own = durations[:]
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= durations[index]
        return own

    def write(self, path: str) -> None:
        """One JSON object per span."""
        with open(path, "w", encoding="utf-8") as handle:
            for row in zip(self.names, self.starts, self.ends,
                           self.parents, self.ticks):
                handle.write(json.dumps(row, separators=(",", ":")) + "\n")


def _wrapped(tracer: Tracer, name: str, method):
    @functools.wraps(method)
    def traced(*args, **kwargs):
        index = tracer.begin(name)
        try:
            return method(*args, **kwargs)
        finally:
            tracer.end(index)
    return traced


def _shard_wrapped(tracer: Tracer, name: str, method):
    """Like :func:`_wrapped`, and tags the span with the shard's id."""
    @functools.wraps(method)
    def traced(self, *args, **kwargs):
        index = tracer.begin(name)
        tracer.shard_of[index] = self.shard_id
        try:
            return method(self, *args, **kwargs)
        finally:
            tracer.end(index)
    return traced


def _encode_batch_wrapper(tracer: Tracer, method):
    @functools.wraps(method)
    def traced(self, t, writes):
        index = tracer.begin("wire.encode")
        try:
            frame = method(self, t, writes)
        finally:
            tracer.end(index)
        tracer.count("wire.batches")
        tracer.count("wire.writes", len(writes))
        tracer.count("wire.bytes", len(frame))
        return frame
    return traced


def _find_conflicts_wrapper(tracer: Tracer, method):
    @functools.wraps(method)
    def traced(self, rule):
        index = tracer.begin("register.conflict")
        try:
            reports = method(self, rule)
        finally:
            tracer.end(index)
        tracer.count("register.conflict_reports", len(reports))
        return reports
    return traced


def _extract_wrapper(tracer: Tracer, method):
    @functools.wraps(method)
    def counted(self, rule):
        rules = method(self, rule)
        tracer.count("register.same_device_checked", len(rules))
        return rules
    return counted


def _targets():
    """(class, attribute, span name) for every wrapped public call."""
    from repro.cluster.bus import IngestBus
    from repro.cluster.durability import DurabilityPlane
    from repro.cluster.server import ClusterServer
    from repro.cluster.worker import ShardClient
    from repro.core.access import AccessPolicy
    from repro.core.consistency import ConsistencyChecker
    from repro.core.engine import RuleEngine
    from repro.core.priority import PriorityManager
    from repro.sim.events import Simulator

    targets = [
        (ClusterServer, "ingest", "bus.publish"),
        (ClusterServer, "flush", "bus.flush"),
        (ClusterServer, "register_rule", "register"),
        (ClusterServer, "remove_rule", "remove"),
        (IngestBus, "flush", "bus.drain"),
        (Simulator, "run_until", "sim.run_until"),
        (RuleEngine, "clock_tick", "wheel.tick"),
        (PriorityManager, "arbitrate", "priority.arbitrate"),
        (AccessPolicy, "check_rule", "register.access"),
        (ConsistencyChecker, "require_consistent", "register.consistency"),
        (RuleEngine, "rule_added", "register.activate"),
        (RuleEngine, "rule_removed", "remove.deactivate"),
        (ShardClient, "ingest", "wire.send"),
        (ShardClient, "ingest_batch", "wire.send"),
        (ShardClient, "barrier", "worker.barrier"),
        (DurabilityPlane, "log_batch", "wal.log_batch"),
    ]
    # Every other call into a worker is a synchronous round trip.
    for attr in ("register_rule", "remove_rule", "add_priority_order",
                 "rule_count", "rule_truth", "rule_state", "holder_of",
                 "trace", "coalesce_safe", "adopt_mirrors",
                 "release_mirrors", "mirrors_of_rule", "mirror_variables",
                 "variable_value", "telemetry_snapshot", "wal_sync",
                 "wal_close", "snapshot_to"):
        targets.append((ShardClient, attr, "worker.rpc"))
    return targets


class Installation:
    """The wrappers currently installed; :meth:`remove` restores every
    original attribute."""

    def __init__(self) -> None:
        self._saved: list[tuple[type, str, object]] = []

    def patch(self, cls: type, attr: str, replacement) -> None:
        self._saved.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def remove(self) -> None:
        for cls, attr, original in reversed(self._saved):
            setattr(cls, attr, original)
        self._saved.clear()


def install(tracer: Tracer) -> Installation:
    """Wrap every layer-boundary call so it records a span in
    ``tracer``.  Install after the cluster's workers are forked: worker
    processes must not inherit the wrappers."""
    from repro.cluster.shard import EngineShard
    from repro.cluster.wire import WireEncoder
    from repro.core.conflict import ConflictChecker

    installation = Installation()
    for cls, attr, name in _targets():
        installation.patch(cls, attr,
                           _wrapped(tracer, name, cls.__dict__[attr]))
    for attr, name in (("ingest", "engine.apply"),
                       ("ingest_batch", "engine.apply"),
                       ("register_rule", "register.shard")):
        installation.patch(EngineShard, attr, _shard_wrapped(
            tracer, name, EngineShard.__dict__[attr]))
    installation.patch(WireEncoder, "encode_batch", _encode_batch_wrapper(
        tracer, WireEncoder.__dict__["encode_batch"]))
    installation.patch(ConflictChecker, "find_conflicts",
                       _find_conflicts_wrapper(
                           tracer, ConflictChecker.__dict__["find_conflicts"]))
    installation.patch(ConflictChecker, "extract_same_device_rules",
                       _extract_wrapper(
                           tracer,
                           ConflictChecker.__dict__["extract_same_device_rules"]))
    return installation
