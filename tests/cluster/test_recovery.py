"""Unit-level durability tests: checkpoint/restore round trips, WAL
damage tolerance (torn tails, checksum corruption, epoch mismatches),
crash-interrupted checkpoints, churn-driven re-checkpoints, typed
recovery errors and the recovery metrics surface.

The randomized crash-point sweep lives in test_restart_equivalence.py;
this file pins each mechanism down in isolation."""

import json

import pytest

from repro.cluster import DurabilityPlane, restore_cluster
from repro.cluster.durability import (
    CRASH_MANIFEST_COMMIT,
    CRASH_SNAPSHOT_WRITE,
    MANIFEST_NAME,
)
from repro.cluster.wire import Event, WireEncoder
from repro.errors import RecoveryError
from repro.sim.events import Simulator
from repro.sim.faults import FaultInjector, SimulatedCrash
from repro.support.wal import RECORD_PREFIX_SIZE, WalWriter, read_wal
from tests.life import (
    HOME,
    abandon,
    assert_equivalent,
    drive,
    end_time_of,
    entries_of,
    fresh_rules,
    new_cluster,
    observe,
    place_var,
    restore,
    resume_index,
    script,
    settle_at,
    temp,
)


def expected_outcome(ops, **kwargs):
    """Observe the crash-free twin after the full script."""
    twin = new_cluster(Simulator(), **kwargs)
    drive(twin, ops)
    settle_at(twin, end_time_of(ops))
    outcome = observe(twin)
    twin.shutdown()
    return outcome


def durable_cluster(tmp_path, **kwargs):
    server = new_cluster(Simulator(), **kwargs)
    server.attach_durability(DurabilityPlane(str(tmp_path)))
    return server


def manifest_of(tmp_path):
    return json.loads((tmp_path / MANIFEST_NAME).read_text())


def wal_path_of(tmp_path, shard=0):
    return tmp_path / manifest_of(tmp_path)["shards"][shard]["wal"]


def finish(server, ops, start):
    """Re-feed the undurable suffix and settle to the script's end."""
    assert drive(server, ops, start) is None
    settle_at(server, end_time_of(ops))


# -- round trip ------------------------------------------------------------------


def test_round_trip_restores_runtime_exactly(tmp_path):
    ops = script(1)
    expected = expected_outcome(ops)
    server = durable_cluster(tmp_path)
    assert drive(server, ops) is None
    # Abrupt kill: no shutdown — the WAL tail past the last checkpoint
    # is all recovery gets.
    abandon(server)
    restored, report = restore(tmp_path)
    assert report.ok()
    assert report.rules_restored == len(fresh_rules((HOME,)))
    assert not report.rules_missing
    assert report.shards[0].records_replayed == report.shards[0].wal_records
    assert restored.bus.applied_counts[0] == sum(map(entries_of, ops))
    restored.simulator.run_until(end_time_of(ops))
    restored.flush()
    assert_equivalent(observe(restored), expected, "round trip")
    restored.shutdown()


def test_manifest_with_retired_engine_flags_still_restores(tmp_path):
    """Manifests written before the evaluation-backend flags and the
    unused cluster knobs were retired still carry ``shared``/``wheel``/
    ``columnar`` and ``batch``/``drain_delay``/``prefer_intervals``/
    ``adaptive_ticks`` in their config; restore ignores them and serves
    the one fast path."""
    ops = script(1)
    expected = expected_outcome(ops)
    server = durable_cluster(tmp_path)
    assert drive(server, ops) is None
    abandon(server)
    manifest = manifest_of(tmp_path)
    manifest["config"].update(
        shared=False, wheel=False, columnar=False, batch=True,
        drain_delay=0.0, prefer_intervals=True, adaptive_ticks=False)
    (tmp_path / MANIFEST_NAME).write_text(json.dumps(manifest))
    restored, report = restore(tmp_path)
    assert report.ok()
    assert restored.shards[0].engine.columnar_stats is not None
    restored.simulator.run_until(end_time_of(ops))
    restored.flush()
    assert_equivalent(observe(restored), expected, "retired flags")
    restored.shutdown()


def test_restore_surfaces_recovery_metrics(tmp_path):
    ops = script(2)
    server = durable_cluster(tmp_path)
    assert drive(server, ops) is None
    abandon(server)
    restored, report = restore(tmp_path)
    counters = restored.telemetry()["bus"]["counters"]
    assert counters["recovery.replayed_records"] == \
        sum(shard.records_replayed for shard in report.shards)
    assert counters["recovery.replayed_entries"] >= 1
    assert counters["recovery.truncated_wals"] == 0
    assert counters["recovery.checkpoints"] >= 1  # the attach checkpoint
    assert "recovery.restore_ms" in restored.telemetry()["bus"]["histograms"]
    text = restored.prometheus()
    assert "repro_recovery_replayed_records_total" in text
    assert "repro_recovery_checkpoints_total" in text
    assert "repro_recovery_wal_records_total" in text
    restored.shutdown()


# -- WAL damage ------------------------------------------------------------------


def test_torn_tail_resumes_from_surviving_prefix(tmp_path):
    ops = script(3)
    expected = expected_outcome(ops)
    server = durable_cluster(tmp_path)
    last_ckpt = max(i for i, op in enumerate(ops) if op[1] == "ckpt")
    cut = min(last_ckpt + 4, len(ops))
    assert drive(server, ops[:cut]) is None
    abandon(server)
    # The crash tore the final record mid-frame.
    path = wal_path_of(tmp_path)
    path.write_bytes(path.read_bytes()[:-3])
    restored, report = restore(tmp_path)
    assert report.shards[0].truncated
    assert report.shards[0].reason == "torn record payload"
    assert not report.ok()
    finish(restored, ops, resume_index(ops, restored.bus.applied_counts[0]))
    assert_equivalent(observe(restored), expected, "torn tail")
    restored.shutdown()


def test_checksum_corruption_drops_damaged_suffix(tmp_path):
    ops = script(4)
    expected = expected_outcome(ops)
    server = durable_cluster(tmp_path)
    assert drive(server, ops) is None
    abandon(server)
    path = wal_path_of(tmp_path)
    bodies, read_report = read_wal(str(path))
    assert not read_report.truncated and len(bodies) >= 2
    # Flip one byte inside the middle record: it and everything after it
    # must be dropped, then re-fed from the op script.
    middle = len(bodies) // 2
    offset = sum(RECORD_PREFIX_SIZE + len(body) for body in bodies[:middle])
    blob = bytearray(path.read_bytes())
    blob[offset + 10] ^= 0xFF
    path.write_bytes(bytes(blob))
    restored, report = restore(tmp_path)
    assert report.shards[0].truncated
    assert report.shards[0].reason == "checksum mismatch"
    assert report.shards[0].records_replayed == middle
    finish(restored, ops, resume_index(ops, restored.bus.applied_counts[0]))
    assert_equivalent(observe(restored), expected, "checksum corruption")
    restored.shutdown()


def test_epoch_mismatch_stops_replay(tmp_path):
    ops = script(5)
    expected = expected_outcome(ops)
    server = durable_cluster(tmp_path)
    assert drive(server, ops) is None
    abandon(server)
    # Forge a tail record carrying a future rule-churn epoch — as if a
    # crashed churn checkpoint left the WAL ahead of the snapshot.  An
    # event needs no key-table entry, so the forged record decodes.
    encoder = WireEncoder()
    encoder.seq = 10_000
    encoder.epoch = server.shards[0].epoch + 1
    forged = WalWriter(str(wal_path_of(tmp_path)))
    forged.append(encoder.encode_record(
        ops[-1][0] + 1.25, [Event("returns home", "Tom", None)]))
    forged.close()
    restored, report = restore(tmp_path)
    assert report.shards[0].truncated
    assert "epoch mismatch" in report.shards[0].reason
    assert report.shards[0].records_replayed == \
        report.shards[0].wal_records - 1
    # Everything before the forged record was replayed, so the forged
    # event must NOT be visible and the outcome matches the clean twin.
    finish(restored, ops, resume_index(ops, restored.bus.applied_counts[0]))
    assert_equivalent(observe(restored), expected, "epoch mismatch")
    restored.shutdown()


# -- crash-interrupted checkpoints -----------------------------------------------


@pytest.mark.parametrize("site", (CRASH_SNAPSHOT_WRITE,
                                  CRASH_MANIFEST_COMMIT))
def test_checkpoint_crash_recovers_previous_generation(tmp_path, site):
    ops = script(6)
    expected = expected_outcome(ops)
    server = durable_cluster(tmp_path)
    last_ckpt = max(i for i, op in enumerate(ops) if op[1] == "ckpt")
    assert drive(server, ops[:last_ckpt]) is None
    committed = manifest_of(tmp_path)["snapshot_id"]
    server.durability.arm_faults(FaultInjector({site: 1}))
    with pytest.raises(SimulatedCrash):
        server.checkpoint()
    abandon(server)
    # The manifest replace never happened: the previous generation is
    # still the committed one, and its WAL covers every op since.
    assert manifest_of(tmp_path)["snapshot_id"] == committed
    restored, report = restore(tmp_path)
    assert report.ok()
    finish(restored, ops, resume_index(ops, restored.bus.applied_counts[0]))
    assert_equivalent(observe(restored), expected, site)
    restored.shutdown()


# -- rule churn ------------------------------------------------------------------


def test_rule_churn_checkpoints_eagerly(tmp_path):
    server = durable_cluster(tmp_path)
    first = manifest_of(tmp_path)["snapshot_id"]
    extra = fresh_rules(("home-9999",))[0]
    server.register_rule(extra)
    assert manifest_of(tmp_path)["snapshot_id"] == first + 1
    server.remove_rule(extra.name)
    assert manifest_of(tmp_path)["snapshot_id"] == first + 2
    server.shutdown()


def test_stale_epoch_batch_triggers_lazy_checkpoint(tmp_path):
    """Churn the eager checkpoint missed (plane detached at the time)
    must force a re-checkpoint before the batch is logged, keeping every
    WAL record epoch-consistent with its snapshot."""
    server = durable_cluster(tmp_path)
    first = manifest_of(tmp_path)["snapshot_id"]
    plane, server.durability = server.durability, None
    server.register_rule(fresh_rules(("home-9999",))[0])
    server.durability = plane
    server.simulator.run_until(1.25)
    server.ingest(temp(HOME), 30.0)
    server.flush()
    assert manifest_of(tmp_path)["snapshot_id"] == first + 1
    abandon(server)
    restored, report = restore(tmp_path, homes=(HOME, "home-9999"))
    assert report.ok()
    assert restored.rule_truth(f"{HOME}-cool")
    restored.shutdown()


# -- timers across the gap -------------------------------------------------------


def test_window_boundary_after_snapshot_still_fires(tmp_path):
    """A wheel boundary armed before the snapshot but due after it must
    fire exactly once after restore — neither skipped (the re-subscribe
    hazard) nor doubled."""
    ops = [(10.25, "w", place_var(HOME, "Tom"), "living room", None),
           (3000.5, "ckpt", None, None, None)]
    twin = new_cluster(Simulator())
    drive(twin, ops)
    settle_at(twin, 4000.0)
    expected = observe(twin)
    twin.shutdown()
    assert not expected["truth"][f"{HOME}-early-lamp"]  # window closed

    server = durable_cluster(tmp_path)
    assert drive(server, ops) is None
    abandon(server)
    restored, report = restore(tmp_path)
    assert report.ok()
    restored.simulator.run_until(4000.0)
    restored.flush()
    assert_equivalent(observe(restored), expected, "window boundary")
    restored.shutdown()


# -- error paths -----------------------------------------------------------------


def test_restore_without_manifest_raises(tmp_path):
    with pytest.raises(RecoveryError, match="no recovery manifest"):
        restore(tmp_path)


def test_restore_rejects_undecodable_manifest(tmp_path):
    (tmp_path / MANIFEST_NAME).write_bytes(b'{"format": "repro-clu')
    with pytest.raises(RecoveryError, match="undecodable"):
        restore(tmp_path)


def test_restore_rejects_unknown_format(tmp_path):
    (tmp_path / MANIFEST_NAME).write_text(
        json.dumps({"format": "somebody-else/9"}))
    with pytest.raises(RecoveryError, match="unsupported snapshot format"):
        restore(tmp_path)


def test_restore_refuses_format_1_directory(tmp_path):
    """A directory from before typed WAL records (format /1, JSON WAL
    bodies) must be refused, not replayed as an empty tail."""
    server = durable_cluster(tmp_path)
    server.shutdown()
    manifest = manifest_of(tmp_path)
    manifest["format"] = "repro-cluster-snapshot/1"
    (tmp_path / MANIFEST_NAME).write_text(json.dumps(manifest))
    old_wal = WalWriter(str(wal_path_of(tmp_path)))
    old_wal.append(json.dumps({
        "seq": 1, "t": 1.25, "epoch": manifest_of(tmp_path)["snapshot_id"],
        "n": [["w", temp(HOME), 30.0]],
    }).encode())
    old_wal.close()
    with pytest.raises(RecoveryError, match="unsupported snapshot format"):
        restore(tmp_path)


def test_restore_needs_a_fresh_simulator(tmp_path):
    server = durable_cluster(tmp_path)
    server.simulator.run_until(100.25)
    server.checkpoint()
    stale = Simulator()
    stale.run_until(5_000.0)
    with pytest.raises(RecoveryError, match="past the snapshot time"):
        restore_cluster(str(tmp_path), stale, fresh_rules((HOME,)))
    server.shutdown()


def test_missing_rule_definitions_are_reported(tmp_path):
    server = durable_cluster(tmp_path)
    server.simulator.run_until(1.25)
    server.ingest(temp(HOME), 30.0)
    server.flush()
    abandon(server)
    rules = [rule for rule in fresh_rules((HOME,))
             if rule.name != f"{HOME}-cool"]
    restored, report = restore_cluster(
        str(tmp_path), Simulator(), rules)
    assert report.rules_missing == [f"{HOME}-cool"]
    assert not report.ok()
    assert report.rules_restored == len(rules)
    # The surviving population still serves.
    assert restored.rule_state(f"{HOME}-heat") is not None
    restored.shutdown()

