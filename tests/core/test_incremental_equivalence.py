"""The engine fast path against the oracle over single-home lives.

Each seed's life (:func:`tests.life.script`: sensor writes and bursts,
place changes, EPG sets, events, clock advances, churn of held, DENIED
and late rules, of a priority order and of ``enabled``) runs through
the default engine beside the ``incremental=False`` oracle.  The judge
compares truth, states and holders after every settled step and full
traces at the end.  The tv's context orders make context flips
re-arbitrate DENIED rules: the fast path through its context index and
wheel, the oracle by scanning every order.
"""

import pytest

from tests.life import CONTEXT_LABELS, context_labels, engine, judge, script

SEEDS = (20260730, 5, 77)


def life(seed):
    return script(seed, steps=260, ckpt_every=None, churn=True, toggles=True)


@pytest.mark.parametrize("seed", SEEDS)
def test_random_stream_equivalence(seed):
    """The default engine against the oracle over one 260-step life."""
    judge(life(seed), engine())


def test_stream_exercises_all_trace_kinds():
    """The lives above convince only if they walk the interesting
    paths: every decision kind, grants decided by both context orders,
    and churn of a held and of a DENIED rule."""
    kinds, labels, churned = set(), set(), set()
    for seed in SEEDS:
        twin = judge(life(seed))
        trace = twin.oracle.trace()
        kinds |= {entry.kind for entry in trace}
        labels |= context_labels(trace)
        churned |= twin.churned
    assert kinds >= {"fire", "stop", "deny", "preempt", "fallback",
                     "conflict"}
    assert labels == CONTEXT_LABELS
    assert churned == {"drop-held", "drop-denied"}
