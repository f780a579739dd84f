"""The thread cluster against the oracle over four-home lives.

A :class:`~repro.cluster.ClusterServer` with 1 or 3 shards behind its
batching, coalescing ingest bus serves each seed's four-home life
(:func:`tests.life.script`, with building rules that mirror other
homes' variables, and churn of rules, a priority order and
``enabled``) beside the ``incremental=False`` oracle serving the merged
homes.  The judge compares truth, states and holders after every
settled step and, with coalescing off, each home's trace entry for
entry.  (The ids name the per-home servers the cluster was once
compared with.)
"""

import math

import pytest

from tests.life import HOMES, cluster, judge, script, temp


def life(seed, steps=80):
    return script(seed, HOMES, steps, ckpt_every=None, churn=True,
                  toggles=True)


@pytest.mark.parametrize("seed", (11, 20260730))
@pytest.mark.parametrize("shard_count", (1, 3))
def test_cluster_matches_independent_home_servers(seed, shard_count):
    """Coalescing on (the production default): truth, states and
    holders, and the life must have coalesced some write."""
    judge(life(seed), cluster(shard_count=shard_count, coalesce=True),
          homes=HOMES)


@pytest.mark.parametrize("seed", (11, 20260730))
def test_cluster_traces_match_without_coalescing(seed):
    """Coalescing off: every intermediate edge survives, so each home's
    trace equals the oracle's entry for entry."""
    judge(life(seed), cluster(shard_count=3), homes=HOMES)


def test_enabled_flips_after_a_burst_has_settled():
    """A burst holding a NaN, then ``enabled`` flipped right after it:
    the flip happens at a settled point, so the cluster has applied the
    burst before the flip, as the oracle has."""
    ops = life(2, steps=24)
    t, home = ops[-1][0], HOMES[-1]
    ops += [(t + 0.25, "burst", temp(home), (27.0, math.nan, 30.0), None),
            (t + 0.5, "toggle", f"{home}-cool", False, None),
            (t + 0.75, "w", temp(home), 31.0, None)]
    twin = judge(ops, cluster(shard_count=3), homes=HOMES)
    assert twin.ops[-2][1] == "toggle"
