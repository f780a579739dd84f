"""Telemetry never perturbs evaluation.

A telemetry-enabled and a telemetry-disabled thread cluster serve the
same four-home life, each judged against the oracle: truth, states and
holders after every settled step, traces entry for entry at the end.
The enabled side must have recorded something, so the equivalence is
not vacuous.
"""

import pytest

from tests.life import HOMES, cluster, judge, script


@pytest.mark.parametrize("seed", (11, 20260807))
def test_telemetry_on_off_equivalence(seed):
    """Telemetry on and off, each 3-shard cluster against the oracle."""
    ops = script(seed, HOMES, steps=80, ckpt_every=None, churn=True,
                 toggles=True)
    twin = judge(ops, cluster(shard_count=3),
                 cluster(shard_count=3, telemetry=False), homes=HOMES)
    enabled, disabled = twin.sides
    snapshot = enabled.telemetry()
    histograms = snapshot["aggregate"]["histograms"]
    assert snapshot["enabled"]
    assert histograms["ingest.write_ms"]["count"] \
        + histograms["ingest.batch_ms"]["count"] > 0
    assert not disabled.telemetry()["enabled"]
    assert disabled.telemetry()["shards"] == []
