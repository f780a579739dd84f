"""The thread cluster against the oracle where building rules mirror
across shards.

Each seed's four-home life carries building rules whose conditions read
other homes' sensors: any-of and all-of conditions, a two-home
aggregate, a window with a foreign place, an event with a foreign
sensor, two rules contesting a lobby display under a priority order,
and an ``until`` anchored in one home.  The life churns them too.  The
oracle serves every home from one ``incremental=False`` engine, where
home-prefixed variables are just names, and scopes home events through
``post_event(only=…)`` to the rules the cluster wakes.  Shards run the
wheel-aware adaptive tick schedule while the oracle ticks every 60 s,
so trace equality also pins adaptive ticks as trace-invisible; the
trace-exact lives cross two midnights.
"""

import pytest

from repro.sim.clock import SECONDS_PER_DAY
from tests.life import HOMES, JUMPS, LONG_JUMPS, cluster, judge, script


def life(seed, steps=80, jumps=JUMPS):
    return script(seed, HOMES, steps, ckpt_every=None, churn=True,
                  toggles=True, jumps=jumps)


@pytest.mark.parametrize("seed", (7, 20260730))
@pytest.mark.parametrize("shard_count", (1, 4))
def test_cluster_with_cross_home_rules_matches_merged_oracle(
        seed, shard_count):
    """Coalescing on: truth, states and holders; on 4 shards some
    mirrored write must have crossed a shard boundary."""
    judge(life(seed), cluster(shard_count=shard_count, coalesce=True),
          homes=HOMES)


@pytest.mark.parametrize("seed", (7, 20260730))
def test_cross_home_traces_match_without_coalescing(seed):
    """Coalescing off, over a life that advances hours at a time across
    two midnights: each anchor home's trace slice, the lobby's
    included, equals the oracle's entry for entry, so the shards'
    adaptive ticks sleep across window boundaries, midnight and weekday
    rollovers without a visible trace difference."""
    ops = life(seed, steps=110, jumps=LONG_JUMPS)
    assert ops[-1][0] > 2 * SECONDS_PER_DAY
    judge(ops, cluster(shard_count=4), homes=HOMES)
