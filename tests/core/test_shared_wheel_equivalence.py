"""The engine fast path against the oracle over two more life shapes.

* The **shared** lives serve all four homes and their building rules
  from one engine, so many rules share atoms and clause slots in one
  columnar state.  (The id names a deleted clause-sharing ablation.)
* The **wheel** lives advance hours at a time across several
  midnights, so windows off the tick grid, across midnight and on a
  weekday open and close under the fast path's wheel, and a window
  inside a duration and a clock-reading ``until`` are re-examined on
  every tick, while the oracle re-evaluates every clock reader each
  tick.  ``ablation`` keeps the id it had when it named a deleted
  ablation; it now holds the engine's keyword arguments: none, the
  default fast path.
"""

import pytest

from repro.sim.clock import SECONDS_PER_DAY
from tests.life import HOMES, LONG_JUMPS, engine, judge, script


@pytest.mark.parametrize("seed", (20260730, 11, 42))
def test_shared_network_stream_equivalence(seed):
    """The default engine serving four homes against the oracle."""
    ops = script(seed, HOMES, steps=120, ckpt_every=None, churn=True,
                 toggles=True)
    judge(ops, engine(), homes=HOMES)


@pytest.mark.parametrize("seed", (20260730, 13, 99))
@pytest.mark.parametrize("ablation", ({},))
def test_wheel_stream_equivalence(seed, ablation):
    """The default engine against the oracle over a multi-day life."""
    ops = script(seed, steps=160, ckpt_every=None, churn=True, toggles=True,
                 jumps=LONG_JUMPS)
    assert ops[-1][0] > 2 * SECONDS_PER_DAY
    judge(ops, engine(**ablation))
