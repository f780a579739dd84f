"""Per-layer metrics of a traced run.

Sources: the benchmark's own spans (self time per layer, call counts),
deltas of ``ClusterServer.telemetry()`` taken around the traced phases
(worker-side histograms and counters), ``gc.callbacks`` and the set-up
timings.  A layer a workload does not exercise reports 0.
"""

from __future__ import annotations

import statistics

from e2ebench.runner import LATE_NS, Phase, late_shares
from e2ebench.stats import percentile
from e2ebench.tracer import Tracer

#: Span name -> layer its self time is charged to.  ``tick`` is the
#: root: its self time is what no layer span covers.
LAYER_OF = {
    "tick": "unaccounted",
    "sim.run_until": "sim",
    "wheel.tick": "wheel",
    "bus.publish": "bus.publish",
    "bus.flush": "bus.drain",
    "bus.drain": "bus.drain",
    "engine.apply": "engine.apply",
    "priority.arbitrate": "priority",
    "action": "action",
    "register": "register",
    "register.shard": "register",
    "register.access": "register.access",
    "register.consistency": "register.consistency",
    "register.conflict": "register.conflict",
    "register.activate": "register.activate",
    "remove": "remove",
    "remove.deactivate": "remove.deactivate",
    "wire.send": "wire",
    "wire.encode": "wire",
    "worker.barrier": "worker.barrier",
    "worker.rpc": "worker.rpc",
    "wal.log_batch": "wal",
}

#: A tick is covered when its layer self times sum to within this share
#: of its wall time.
COVERAGE = 0.10


class _Spans:
    """Per span name: calls, inclusive and self nanoseconds."""

    def __init__(self, tracer: Tracer) -> None:
        self.own = tracer.self_times()
        self.calls: dict[str, int] = {}
        self.total: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        for name, start, end, own in zip(tracer.names, tracer.starts,
                                         tracer.ends, self.own):
            self.calls[name] = self.calls.get(name, 0) + 1
            self.total[name] = self.total.get(name, 0) + end - start
            self.self_ns[name] = self.self_ns.get(name, 0) + own

    def mean_us(self, name: str) -> float:
        calls = self.calls.get(name, 0)
        return self.total[name] / calls / 1e3 if calls else 0.0

    def self_us(self, *names: str) -> float:
        return sum(self.self_ns.get(name, 0) for name in names) / 1e3


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _counter_delta(before: dict, after: dict, section: str, name: str
                   ) -> float:
    def read(snapshot: dict) -> float:
        part = snapshot[section] if section == "bus" \
            else snapshot["aggregate"]
        return part["counters"].get(name, 0)
    return read(after) - read(before)


def _histogram_delta(before: dict, after: dict, name: str
                     ) -> tuple[float, float]:
    """(count, sum) added to an aggregate histogram between snapshots."""
    def read(snapshot: dict) -> tuple[float, float]:
        histogram = snapshot["aggregate"]["histograms"].get(name)
        return (histogram["count"], histogram["sum"]) if histogram \
            else (0, 0.0)
    (count0, sum0), (count1, sum1) = read(before), read(after)
    return count1 - count0, sum1 - sum0


def _mean_us_of_histogram(before: dict, after: dict, name: str) -> float:
    count, total_ms = _histogram_delta(before, after, name)
    return _ratio(total_ms * 1e3, count)


def _p50_ms(latencies_ns: list[int]) -> float:
    try:
        return percentile(latencies_ns, 0.5) / 1e6
    except ValueError:
        return 0.0


def _queue_wait_us(tracer: Tracer) -> float:
    """Mean per tick: first publish start to the tick's flush start."""
    first_publish: dict[int, int] = {}
    waits = []
    for name, start, parent, tick in zip(tracer.names, tracer.starts,
                                         tracer.parents, tracer.ticks):
        if name == "bus.publish":
            first_publish.setdefault(tick, start)
        elif name == "bus.flush" and tick in first_publish \
                and tracer.names[parent] == "tick":
            waits.append(start - first_publish.pop(tick))
    return statistics.fmean(waits) / 1e3 if waits else 0.0


def _barrier_us(tracer: Tracer) -> float:
    """Mean inclusive duration of the bus drains registrations run."""
    durations = [
        end - start
        for name, start, end, parent in zip(tracer.names, tracer.starts,
                                            tracer.ends, tracer.parents)
        if name == "bus.drain" and parent >= 0
        and tracer.names[parent] == "register"
    ]
    return statistics.fmean(durations) / 1e3 if durations else 0.0


def _apply_after_churn_us(tracer: Tracer, own: list[int]) -> float:
    """Mean self time of each shard's first apply after a registration
    on that shard — where the lazily rebuilt columnar index lands."""
    pending: set[int] = set()
    samples = []
    for index, name in enumerate(tracer.names):
        if name == "register.shard":
            pending.add(tracer.shard_of[index])
        elif name == "engine.apply":
            shard = tracer.shard_of[index]
            if shard in pending:
                pending.discard(shard)
                samples.append(own[index])
    return statistics.fmean(samples) / 1e3 if samples else 0.0


def tick_shares(tracer: Tracer, own: list[int]) -> list[float]:
    """Per traced tick: the share of its wall time no layer covers."""
    return [
        own[index] / (tracer.ends[index] - tracer.starts[index])
        for index, name in enumerate(tracer.names)
        if name == "tick" and tracer.ends[index] > tracer.starts[index]
    ]


def tick_breakdown(tracer: Tracer) -> dict[str, float]:
    """Mean self time per tick of every layer, in microseconds."""
    own = tracer.self_times()
    totals: dict[str, int] = {}
    ticks = 0
    for name, span_tick, value in zip(tracer.names, tracer.ticks, own):
        if span_tick < 0:
            continue
        if name == "tick":
            ticks += 1
        layer = LAYER_OF[name]
        totals[layer] = totals.get(layer, 0) + value
    return {layer: total / ticks / 1e3
            for layer, total in sorted(totals.items())} if ticks else {}


def per_layer(*, tracer: Tracer, before: dict, after: dict, dispatched: int,
              baseline: Phase, traced_open: Phase, traced_ticks: int,
              traced_seconds: float, gc_watch, setups: list[dict],
              worker_rss: list[float]) -> dict:
    """Every per-layer metric, as ``name -> (value, unit)``."""
    spans = _Spans(tracer)
    own = spans.own

    def bus(name: str) -> float:
        return _counter_delta(before, after, "bus", name)

    def shards(name: str) -> float:
        return _counter_delta(before, after, "aggregate", name)

    published = bus("bus.published")
    applied = bus("bus.applied")
    columnar_writes = shards("columnar.writes")
    sweeps = shards("columnar.vector_sweeps") + shards("columnar.scalar_sweeps")
    clock_ticks = shards("shard.ticks")
    sleeps = shards("shard.tick_sleeps")
    _, batch_ms = _histogram_delta(before, after, "ingest.batch_ms")
    write_count, write_ms = _histogram_delta(before, after, "ingest.write_ms")
    _, batch_writes = _histogram_delta(before, after, "ingest.batch_size")
    process = bool(worker_rss)
    shares = tick_shares(tracer, own)
    untraced_p50 = _p50_ms(baseline.latencies_ns)
    traced_p50 = _p50_ms(traced_open.latencies_ns)
    first_half, second_half = late_shares(baseline.lags_ns)
    try:
        lag_p99 = percentile(baseline.lags_ns, 0.99) / 1e6
    except ValueError:
        lag_p99 = max(baseline.lags_ns, default=0) / 1e6

    def median_of(key: str) -> float:
        return statistics.median(setup[key] for setup in setups)

    return {
        # cluster.server / cluster.bus
        "bus.publish_us": (spans.mean_us("bus.publish"), "us"),
        "bus.queue_wait_us": (_queue_wait_us(tracer), "us"),
        "bus.drain_us_per_tick": (_ratio(
            spans.self_us("bus.flush", "bus.drain"), traced_ticks),
            "us/tick"),
        "bus.coalesced_share": (
            _ratio(bus("bus.coalesced"), published), "ratio"),
        "bus.mirrored_per_write": (
            _ratio(bus("bus.mirrored"), published), "count/write"),
        "bus.batched_write_share": (
            _ratio(bus("bus.batched_writes"), applied), "ratio"),
        # cluster.shard / core.engine / core.columnar
        "engine.apply_us_per_write": (
            _ratio(spans.self_us("engine.apply"), applied), "us/write"),
        "engine.sweep_us": (
            _mean_us_of_histogram(before, after, "span.sweep_ms"), "us"),
        "engine.fanout_us": (
            _mean_us_of_histogram(before, after, "span.fanout_ms"), "us"),
        "engine.action_us": (
            _mean_us_of_histogram(before, after, "span.action_ms"), "us"),
        "columnar.atoms_flipped_per_write": (_ratio(
            shards("columnar.atoms_flipped"), columnar_writes),
            "count/write"),
        "columnar.clauses_touched_per_write": (_ratio(
            shards("columnar.clauses_touched"), columnar_writes),
            "count/write"),
        "columnar.vector_sweep_share": (
            _ratio(shards("columnar.vector_sweeps"), sweeps), "ratio"),
        "engine.actions_per_write": (
            _ratio(dispatched, applied), "count/write"),
        # core.wheel / sim
        "sim.run_until_us_per_tick": (_ratio(
            spans.self_us("sim.run_until"), traced_ticks), "us/tick"),
        "wheel.tick_us_per_tick": (_ratio(
            spans.self_us("wheel.tick"), traced_ticks), "us/tick"),
        "wheel.wakes_per_tick": (
            _ratio(shards("wheel.wakes"), traced_ticks), "count/tick"),
        "shard.tick_sleep_share": (
            _ratio(sleeps, sleeps + clock_ticks), "ratio"),
        # core.priority
        "priority.arbitrate_us": (
            spans.mean_us("priority.arbitrate"), "us"),
        "priority.arbitrations_per_write": (_ratio(
            spans.calls.get("priority.arbitrate", 0), applied),
            "count/write"),
        # registration
        "register.access_us": (spans.mean_us("register.access"), "us"),
        "register.consistency_us": (
            spans.mean_us("register.consistency"), "us"),
        "register.conflict_us": (spans.mean_us("register.conflict"), "us"),
        "register.conflict_hit_share": (_ratio(
            tracer.counts.get("register.conflict_reports", 0),
            tracer.counts.get("register.same_device_checked", 0)),
            "ratio"),
        "register.activate_us": (spans.mean_us("register.activate"), "us"),
        "register.barrier_us": (_barrier_us(tracer), "us"),
        "remove.deactivate_us": (spans.mean_us("remove.deactivate"), "us"),
        "engine.apply_us_after_churn": (
            _apply_after_churn_us(tracer, own), "us"),
        # cluster.wire / cluster.worker
        "wire.encode_us_per_batch": (spans.mean_us("wire.encode"), "us"),
        "wire.bytes_per_write": (_ratio(
            tracer.counts.get("wire.bytes", 0),
            tracer.counts.get("wire.writes", 0)), "B/write"),
        "worker.barrier_wait_us_per_tick": (_ratio(
            spans.self_us("worker.barrier"), traced_ticks), "us/tick"),
        "worker.apply_us_per_write": (_ratio(
            (batch_ms + write_ms) * 1e3, batch_writes + write_count)
            if process else 0.0, "us/write"),
        "worker.rpc_per_tick": (_ratio(
            spans.calls.get("worker.rpc", 0), traced_ticks), "count/tick"),
        # cluster.durability / support.wal
        "wal.log_batch_us": (spans.mean_us("wal.log_batch"), "us"),
        "wal.bytes_per_write": (
            _ratio(bus("recovery.wal_bytes"), applied), "B/write"),
        "setup.checkpoint_s": (median_of("checkpoint"), "s"),
        # runtime and generator
        "gc.pause_ms_per_s": (
            _ratio(gc_watch.pause_ns / 1e6, traced_seconds), "ms/s"),
        "gc.gen2_per_min": (
            _ratio(gc_watch.full, traced_seconds / 60.0), "1/min"),
        "rss.workers_mb": (sum(worker_rss), "MB"),
        "gen.late_tick_share": (_ratio(
            sum(1 for lag in baseline.lags_ns if lag > LATE_NS),
            len(baseline.lags_ns)), "ratio"),
        "gen.late_share_growth": (second_half - first_half, "ratio"),
        "gen.lag_p99_ms": (lag_p99, "ms"),
        # set-up phases
        "setup.generate_s": (median_of("generate"), "s"),
        "setup.spawn_s": (median_of("spawn"), "s"),
        "setup.register_s": (median_of("register"), "s"),
        # the trace itself
        "trace.overhead_ms": (traced_p50 - untraced_p50, "ms"),
        "trace.unaccounted_share": (_ratio(
            spans.self_ns.get("tick", 0), spans.total.get("tick", 0)),
            "ratio"),
        "trace.ticks_covered_share": (_ratio(
            sum(1 for share in shares if share <= COVERAGE), len(shares)),
            "ratio"),
    }
