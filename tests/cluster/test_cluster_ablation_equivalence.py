"""The ``incremental=False`` cluster against the engine-level oracle.

The seed interpreter rides through ``ClusterServer`` → ``EngineShard``
→ ``build_rule_stack`` → ``RuleEngine`` and runs on shard clocks with
the fixed tick cadence; it must match the single-engine oracle over
four-home lives with coalescing off, traces entry for entry.  (The id
names the deleted ablation this suite once paired with the fast path.)
"""

import pytest

from tests.life import HOMES, cluster, judge, script


@pytest.mark.parametrize("seed", (7, 20260730))
@pytest.mark.parametrize("ablation", (
    {"incremental": False},
), ids=("neither",))
def test_cluster_ablation_equivalence(seed, ablation):
    """A 3-shard ``incremental=False`` cluster against the oracle."""
    ops = script(seed, HOMES, steps=80, ckpt_every=None, churn=True,
                 toggles=True)
    judge(ops, cluster(shard_count=3, **ablation), homes=HOMES)
