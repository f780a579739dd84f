"""Cluster telemetry: snapshot contents, BusStats view, exposition.

Pins the acceptance surface of the observability plane: the merged
:meth:`ClusterServer.telemetry` snapshot covers ingest latency
percentiles, queue depth, coalesce/mirror rates and wheel wake counts;
the Prometheus exposition round-trips; BusStats keeps its historical
attribute API as a registry view whose counters survive bus re-creation
over re-registered shards.
"""

import importlib.util
import json
import os
import subprocess
import sys
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


def test_obs_import_lint_flags_every_obs_module(tmp_path):
    """No obs module is exempt: a core module importing any of them,
    the package itself included, is flagged."""
    root = Path(__file__).resolve().parents[2]
    spec = importlib.util.spec_from_file_location(
        "check_obs_imports", root / "tools" / "check_obs_imports.py")
    lint = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(lint)
    module = tmp_path / "uses_obs.py"
    module.write_text(
        "import repro.obs.noop\n"
        "from repro.obs.noop import NOOP_TELEMETRY\n"
        "from repro.obs import trace\n"
        "def lazy():\n"
        "    import repro.obs.metrics\n"
    )
    assert sorted(lint.violations_in(module)) == [
        "uses_obs.py:1: import repro.obs.noop",
        "uses_obs.py:2: from repro.obs.noop import ...",
        "uses_obs.py:3: from repro.obs import ...",
    ]


_IMPORT_CORE_WITHOUT_OBS = """
import importlib
import pkgutil
import sys


class RefuseObs:
    def find_spec(self, name, path=None, target=None):
        if name == "repro.obs" or name.startswith("repro.obs."):
            raise ImportError(f"refused: {name}")
        return None


sys.meta_path.insert(0, RefuseObs())
import repro.core

for info in pkgutil.iter_modules(repro.core.__path__, "repro.core."):
    importlib.import_module(info.name)
print(" ".join(sorted(name for name in sys.modules
                      if name.startswith("repro.core."))))
"""


def test_core_modules_never_import_live_obs():
    """Every core module imports in a fresh interpreter whose import
    system refuses ``repro.obs*``, so a transitive import (which the
    AST lint cannot see) fails here too."""
    root = Path(__file__).resolve().parents[2]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(root / "src"), env.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, "-c", _IMPORT_CORE_WITHOUT_OBS],
        capture_output=True, text=True, env=env,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    imported = set(result.stdout.split())
    expected = {f"repro.core.{path.stem}"
                for path in (root / "src" / "repro" / "core").glob("*.py")
                if path.stem != "__init__"}
    assert expected <= imported
