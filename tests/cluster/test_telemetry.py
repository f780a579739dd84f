"""Cluster telemetry: snapshot contents, BusStats view, exposition.

Pins the acceptance surface of the observability plane: the merged
:meth:`ClusterServer.telemetry` snapshot covers ingest latency
percentiles, queue depth, coalesce/mirror rates and wheel wake counts;
the Prometheus exposition round-trips; BusStats keeps its historical
attribute API as a registry view whose counters survive bus re-creation
over re-registered shards.
"""

import json
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from repro.cluster import BusStats, ClusterServer, IngestBus
from repro.obs.prom import parse_prometheus
from repro.obs.trace import STAGES, Telemetry
from repro.sim.clock import hhmm
from repro.sim.events import Simulator
from repro.support.console import render_telemetry
from repro.workloads.fleet import build_home_fleet, fleet_event_stream


@pytest.fixture(scope="module")
def settled_cluster():
    simulator = Simulator()
    cluster = ClusterServer(simulator, shard_count=3)
    fleet = build_home_fleet(6, 20, seed="telemetry-fixture")
    for rule in fleet.all_rules():
        cluster.register_rule(rule, validate=False)
    for variable, value in fleet_event_stream(
        fleet, events=600, burst=4, seed="telemetry-stream"
    ):
        cluster.ingest(variable, value)
    cluster.flush()
    simulator.run_until(hhmm(23))  # cross window boundaries -> wheel wakes
    yield cluster
    cluster.shutdown()


def test_snapshot_covers_the_acceptance_surface(settled_cluster):
    snapshot = settled_cluster.telemetry()
    assert snapshot["enabled"]
    assert len(snapshot["shards"]) == 3
    aggregate = snapshot["aggregate"]
    # Ingest latency percentiles (batched writes dominate this stream).
    batch = aggregate["histograms"]["ingest.batch_ms"]
    assert batch["count"] > 0
    assert batch["p50"] is not None
    assert batch["p95"] is not None
    # Queue depth gauge exists per shard and aggregates.
    assert "bus.queue_depth" in aggregate["gauges"]
    for shard_view in snapshot["shards"]:
        assert "bus.queue_depth" in shard_view["gauges"]
    # Coalesce/mirror rates from the bus registry.
    rates = snapshot["bus"]["rates"]
    assert 0.0 <= rates["coalesce"] <= 1.0
    assert 0.0 <= rates["mirror"] <= 1.0
    assert rates["coalesce"] > 0.0  # bursty stream must coalesce some
    # Wheel wake counts: window rules crossed boundaries by 23:00.
    assert aggregate["counters"]["wheel.wakes"] > 0
    assert aggregate["counters"]["shard.ticks"] > 0
    assert aggregate["counters"]["wheel.armed_total"] > 0
    # Columnar counters folded from the engine's stats.
    assert aggregate["counters"]["columnar.writes"] > 0


def test_snapshot_is_strict_json(settled_cluster):
    text = json.dumps(settled_cluster.telemetry())
    assert "Infinity" not in text  # math.inf would serialize as Infinity


def test_span_stages_recorded(settled_cluster):
    snapshot = settled_cluster.telemetry()
    aggregate = snapshot["aggregate"]
    for stage in ("drain", "batch", "sweep", "fanout", "wheel"):
        assert aggregate["histograms"][f"span.{stage}_ms"]["count"] > 0, stage
    ring = [span for view in snapshot["shards"] for span in view["spans"]]
    assert ring
    assert {span["stage"] for span in ring} <= set(STAGES)
    assert all(span["ms"] >= 0.0 for span in ring)


def test_aggregate_is_fold_of_shard_views(settled_cluster):
    snapshot = settled_cluster.telemetry()
    for key in ("shard.ticks", "columnar.writes", "wheel.wakes"):
        assert snapshot["aggregate"]["counters"][key] == sum(
            view["counters"][key] for view in snapshot["shards"]
        )
    assert snapshot["aggregate"]["histograms"]["ingest.batch_ms"]["count"] \
        == sum(view["histograms"]["ingest.batch_ms"]["count"]
               for view in snapshot["shards"])


def test_prometheus_round_trips(settled_cluster):
    samples = parse_prometheus(settled_cluster.prometheus())
    snapshot = settled_cluster.telemetry()
    for view in snapshot["shards"]:
        labels = (("shard", str(view["shard"])),)
        assert samples[("repro_shard_ticks_total", labels)] == \
            view["counters"]["shard.ticks"]
        assert samples[("repro_ingest_batch_ms_count", labels)] == \
            view["histograms"]["ingest.batch_ms"]["count"]
    assert samples[("repro_bus_published_total", ())] == \
        snapshot["bus"]["counters"]["bus.published"]


def test_console_table_renders(settled_cluster):
    table = render_telemetry(settled_cluster.telemetry())
    lines = table.splitlines()
    assert "p95 ms" in lines[0]
    assert sum(1 for line in lines if line.lstrip().startswith(
        ("0 ", "1 ", "2 "))) == 3
    assert any(line.startswith("bus: ") for line in lines)
    assert any(line.startswith("rates: ") for line in lines)


def test_disabled_cluster_reports_empty_shards_but_live_bus():
    simulator = Simulator()
    cluster = ClusterServer(simulator, shard_count=2, telemetry=False)
    try:
        cluster.ingest("home-x/sense:svc:temperature", 21.0)
        cluster.flush()
        snapshot = cluster.telemetry()
        assert not snapshot["enabled"]
        assert snapshot["shards"] == []
        assert snapshot["aggregate"]["counters"] == {}
        assert snapshot["bus"]["counters"]["bus.published"] == 1
        render_telemetry(snapshot)  # table degrades gracefully
    finally:
        cluster.shutdown()


def test_engine_set_telemetry_rebinds_midstream():
    """The observability plane can be attached to (and detached from) a
    running engine — spans land only while a live plane is bound."""
    simulator = Simulator()
    cluster = ClusterServer(simulator, shard_count=1, telemetry=False)
    try:
        plane = Telemetry()
        engine = cluster.shards[0].engine
        engine.set_telemetry(plane)
        cluster.ingest("home-a/sense:svc:temperature", 20.0)
        cluster.ingest("home-a/sense:svc:humidity", 50.0)
        cluster.flush()
        batches = plane.registry.snapshot()["histograms"]["span.batch_ms"]
        recorded = batches["count"]
        assert recorded > 0
        engine.set_telemetry(None)
        cluster.ingest("home-a/sense:svc:temperature", 25.0)
        cluster.ingest("home-a/sense:svc:humidity", 60.0)
        cluster.flush()
        batches = plane.registry.snapshot()["histograms"]["span.batch_ms"]
        assert batches["count"] == recorded  # detached: nothing new
    finally:
        cluster.shutdown()


# -- BusStats view ------------------------------------------------------------


def test_busstats_attribute_api_reads_registry():
    simulator = Simulator()
    cluster = ClusterServer(simulator, shard_count=2)
    try:
        cluster.ingest("home-a/sense:svc:temperature", 20.0)
        cluster.ingest("home-a/sense:svc:temperature", 21.0)
        cluster.flush()
        stats = cluster.stats()
        assert stats.published == 2
        assert stats.applied >= 1
        assert stats.registry.counter("bus.published").value == 2
        described = stats.describe()
        assert "published=2" in described
    finally:
        cluster.shutdown()


def test_busstats_attributes_are_read_only():
    stats = BusStats(published=3)
    with pytest.raises(AttributeError):
        stats.published = 5
    assert stats.published == 3
    assert stats.registry.counter("bus.published").value == 3
    with pytest.raises(TypeError):
        BusStats(nonsense=1)
    seeded = BusStats(published=3, coalesced=1)
    assert seeded.published == 3
    assert seeded.coalesced == 1


def test_bus_counters_survive_bus_recreation_over_reregistered_shards():
    """Re-creating the bus over re-registered shards used to reset the
    stats silently; passing the old registry keeps them monotonic."""
    simulator = Simulator()
    cluster = ClusterServer(simulator, shard_count=2)
    try:
        cluster.ingest("home-a/sense:svc:temperature", 20.0)
        cluster.flush()
        before = cluster.stats().published
        assert before == 1
        rebuilt = IngestBus(
            simulator, cluster.shards, cluster.router,
            registry=cluster.bus.registry,
        )
        assert rebuilt.stats.published == before  # survived re-creation
        rebuilt.publish("home-a/sense:svc:temperature", 21.0)
        rebuilt.flush()
        assert rebuilt.stats.published == before + 1
        rebuilt.shutdown()
    finally:
        cluster.shutdown()


# -- core/obs import hygiene --------------------------------------------------


def test_obs_import_lint_passes():
    root = Path(__file__).resolve().parents[2]
    result = subprocess.run(
        [sys.executable, str(root / "tools" / "check_obs_imports.py")],
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr


def test_core_modules_never_import_live_obs():
    """Belt and braces next to the AST lint: the already-imported core
    modules must not have pulled the live obs machinery in."""
    import repro.core.engine  # noqa: F401  (representative import)

    core_modules = [name for name in sys.modules if
                    name.startswith("repro.core")]
    assert core_modules
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for name in core_modules:
            module = sys.modules[name]
            source_file = getattr(module, "__file__", None)
            if source_file is None:
                continue
            source = Path(source_file).read_text()
            assert "from repro.obs.metrics" not in source, name
            assert "from repro.obs.trace" not in source, name
