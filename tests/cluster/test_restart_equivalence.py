"""Randomized crash/restart against the oracle.

The acceptance property of the durability plane: a durable thread
cluster crashes at a seeded fault-injected point (before, during or
after a WAL append, mid apply-loop, mid snapshot write, at the manifest
commit), restores from snapshot plus WAL tail, re-feeds the undurable
op suffix and resumes, and after every settled step matches the
``incremental=False`` oracle that never crashed: truth, states,
holders, and full traces at the end.  This holds whether the crashing
cluster runs the fast path or the seed interpreter.

Single-shard lives draw crash points from the full site menu and
resume from the restored cluster's durable applied-entry count.
Four-shard lives, building rules included, crash at checkpoint sites,
where every shard's durable prefix is the whole history.
"""

import pytest

from repro.cluster.durability import CRASH_MANIFEST_COMMIT, CRASH_SNAPSHOT_WRITE
from tests.life import HOMES, Crashes, judge, script

CHECKPOINT_SITES = (CRASH_SNAPSHOT_WRITE, CRASH_MANIFEST_COMMIT)


@pytest.mark.parametrize("seed", range(8))
def test_single_shard_any_crash_point(tmp_path, seed):
    """One shard on the fast path, one crash at any site."""
    crashes = Crashes(tmp_path, [seed])
    judge(script(seed), crashes)
    assert crashes.restarts >= 1


@pytest.mark.parametrize("seed", (1, 2, 3, 5))
def test_single_shard_ablation_backend(tmp_path, seed):
    """The seed interpreter crashing and restoring matches the oracle:
    recovery must not depend on evaluation internals."""
    crashes = Crashes(tmp_path, [seed], incremental=False)
    judge(script(seed), crashes)
    assert crashes.restarts >= 1


@pytest.mark.parametrize("seed", (1, 3, 7))
def test_multi_shard_checkpoint_crashes(tmp_path, seed):
    """Four shards and four homes with building rules, one crash at a
    checkpoint site."""
    crashes = Crashes(tmp_path, [seed], sites=CHECKPOINT_SITES,
                      shard_count=4)
    judge(script(seed, HOMES), crashes, homes=HOMES)
    assert crashes.restarts >= 1


def test_two_crashes_in_one_life(tmp_path):
    """A second power cut after the first recovery (a fresh plan armed
    on the restored plane) still converges to the oracle."""
    crashes = Crashes(tmp_path, [12, 13])
    judge(script(12, steps=96), crashes)
    assert crashes.restarts >= 2
