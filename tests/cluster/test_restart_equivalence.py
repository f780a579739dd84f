"""Randomized crash/restart equivalence.

The acceptance property of the durability plane: for an arbitrary
fault-injected crash point — before/during/after a WAL append, mid
apply-loop, mid snapshot write, at the manifest commit — snapshot +
tail-replay recovery followed by re-feeding the undurable op suffix is
observably identical (truth, states, holders, full traces) to an
uninterrupted twin that ran the same script, across both the columnar
and the ablation (per-rule) backends.

Single-shard runs draw crash points from the full site menu and resume
from the restored cluster's durable applied-entry count (one entry per
op, coalescing off).  Multi-shard runs crash at checkpoint sites —
there every shard's durable prefix is the whole history, so the resume
point is exact without per-shard op accounting.
"""

import pytest

from repro.cluster import ALL_CRASH_SITES, DurabilityPlane
from repro.cluster.durability import (
    CRASH_MANIFEST_COMMIT,
    CRASH_SNAPSHOT_WRITE,
)
from repro.sim.events import Simulator
from repro.sim.faults import FaultInjector
from tests.cluster.recovery_stack import (
    HOME,
    HOMES,
    assert_equivalent,
    abandon,
    drive_durable,
    drive_uninterrupted,
    end_time_of,
    new_cluster,
    observe,
    restore,
    resume_index,
    script,
)

CHECKPOINT_SITES = (CRASH_SNAPSHOT_WRITE, CRASH_MANIFEST_COMMIT)


def run_crash_twin(tmp_path, seed, *, homes=(HOME,), shard_count=1,
                   columnar=True, sites=ALL_CRASH_SITES, max_restarts=4):
    """Drive the script through a durable cluster with a seeded crash
    plan, restoring and resuming after every simulated power cut, and
    assert the outcome matches the crash-free twin.  Returns the number
    of restarts taken."""
    ops = script(seed, homes=homes)
    end_time = end_time_of(ops)

    twin = new_cluster(Simulator(), homes,
                       shard_count=shard_count, columnar=columnar)
    drive_uninterrupted(twin, ops, end_time)
    expected = observe(twin, homes)
    twin.shutdown()

    server = new_cluster(Simulator(), homes,
                         shard_count=shard_count, columnar=columnar)
    server.attach_durability(DurabilityPlane(str(tmp_path)))
    # Armed only after the attach checkpoint committed: a real fleet
    # enables durability healthy and crashes later.
    faults = FaultInjector.random(seed, sites)
    server.durability.arm_faults(faults)
    start, restarts = 0, 0
    while True:
        crashed = drive_durable(server, ops, start)
        if crashed is None:
            break
        restarts += 1
        assert restarts <= max_restarts, "crash/restore loop did not converge"
        abandon(server)
        server, report = restore(tmp_path, homes)
        assert not report.rules_missing
        # Keep the (now spent) injector installed: the restored plane
        # walks the same crash points, proving they pass clean.
        server.durability.arm_faults(faults)
        if shard_count == 1:
            start = resume_index(ops, server.bus.applied_counts[0])
        else:
            # Checkpoint-site crash: the op itself was a checkpoint and
            # every prior op had already settled into the WAL.
            assert ops[crashed][1] == "ckpt"
            start = crashed + 1
    assert faults.spent, f"crash plan never fired: {faults.describe()}"
    server.simulator.run_until(end_time)
    server.flush()
    actual = observe(server, homes)
    server.shutdown()
    assert_equivalent(actual, expected, f"seed {seed}, {faults.describe()}")
    return restarts


@pytest.mark.parametrize("seed", range(8))
def test_single_shard_any_crash_point(tmp_path, seed):
    restarts = run_crash_twin(tmp_path, seed)
    assert restarts >= 1


@pytest.mark.parametrize("seed", (2, 5))
def test_single_shard_ablation_backend(tmp_path, seed):
    """Same property with the columnar backend off (per-rule engine
    path): recovery must not depend on backend internals."""
    restarts = run_crash_twin(tmp_path, seed, columnar=False)
    assert restarts >= 1


@pytest.mark.parametrize("seed", (1, 3, 7))
def test_multi_shard_checkpoint_crashes(tmp_path, seed):
    restarts = run_crash_twin(
        tmp_path, seed, homes=HOMES, shard_count=4,
        sites=CHECKPOINT_SITES,
    )
    assert restarts >= 1


def test_two_crashes_in_one_life(tmp_path):
    """A second power cut after the first recovery (fresh injector armed
    on the restored plane) still converges to the twin."""
    seed = 11
    ops = script(seed)
    end_time = end_time_of(ops)
    twin = new_cluster(Simulator())
    drive_uninterrupted(twin, ops, end_time)
    expected = observe(twin)
    twin.shutdown()

    server = new_cluster(Simulator())
    server.attach_durability(DurabilityPlane(str(tmp_path)))
    plans = [FaultInjector.random(seed, ALL_CRASH_SITES),
             FaultInjector.random(seed + 1, ALL_CRASH_SITES)]
    server.durability.arm_faults(plans[0])
    start, crashes = 0, 0
    while True:
        crashed = drive_durable(server, ops, start)
        if crashed is None:
            break
        crashes += 1
        assert crashes <= 6
        abandon(server)
        server, report = restore(tmp_path)
        assert not report.rules_missing
        if plans:
            plans.pop(0)
        if plans:
            server.durability.arm_faults(plans[0])
        start = resume_index(ops, server.bus.applied_counts[0])
    assert crashes >= 2
    server.simulator.run_until(end_time)
    server.flush()
    actual = observe(server)
    server.shutdown()
    assert_equivalent(actual, expected, "two crashes")
