"""Worker processes against the oracle.

A cluster whose shards live in worker processes behind the wire
protocol serves seeded lives (:func:`tests.life.script`, with building
rules whose mirrored writes cross the socket and churn of rules and a
priority order) beside the ``incremental=False`` oracle.  The judge
compares truth, states and holders after every settled step and, with
coalescing off, full per-home traces at the end: the wire's one-way
pipelining, the per-frame clock catch-up and the counter barrier must
together reproduce the oracle's ordering.  The steps are multiples of
0.25 s, so some ops land on whole seconds and a few on the 60-s tick
grid.  The ``incremental=False`` flag rides the HELLO config into the
worker, and a durability directory written by worker processes
restores onto either backend.
"""

import pytest

from repro.cluster import DurabilityPlane
from repro.core.condition import OrCondition
from repro.core.rule import Rule
from repro.sim.events import Simulator
from repro.solver.linear import Relation
from tests.life import (
    CONTEXT_LABELS,
    HOME,
    HOMES,
    act,
    assert_equivalent,
    cluster,
    context_labels,
    judge,
    new_cluster,
    num,
    observe,
    restore,
    script,
    settle_at,
    temp,
)

pytestmark = pytest.mark.hard_timeout(300)

BACKENDS = ("thread", "process")
HOMES2 = HOMES[:2]


def life(seed, homes=HOMES2, steps=32):
    return script(seed, homes, steps, ckpt_every=None, churn=True)


def workers(**kwargs):
    return cluster(shard_count=2, backend="process", **kwargs)


@pytest.mark.parametrize("seed", range(6))
def test_multihome_exact_traces(seed):
    """Coalescing off: every intermediate edge survives into the trace
    on the far side of the socket as it does in the oracle."""
    judge(life(seed), workers(), homes=HOMES2)


@pytest.mark.parametrize("seed", (1, 4))
def test_with_coalescing(seed):
    """Coalescing on: truth, states and holders; merged writes
    legitimately drop intermediate edges from the traces."""
    judge(life(seed, steps=48), workers(coalesce=True), homes=HOMES2)


def test_ablation_backend_non_incremental():
    """incremental=False: full re-evaluation per ingest, behind the
    wire."""
    judge(life(3), workers(incremental=False), homes=HOMES2)


#: Lives in which both of the tv's context-attached orders decide grants
#: and context flips at writes and at ticks re-arbitrate DENIED rules.
#: At 128 steps each of them catches a fast path that skips the retries.
CONTEXT_LIVES = (((HOME,), 1), ((HOME,), 3), ((HOME,), 13),
                 (HOMES2, 5), (HOMES2, 13), (HOMES2, 15))
CONTEXT_STEPS = 128


@pytest.mark.parametrize("homes, seed", CONTEXT_LIVES)
def test_fast_path_in_thread_matches_oracle_in_workers(homes, seed):
    """The in-thread fast path and the ``incremental=False`` cluster in
    worker processes, each against the oracle, over lives whose tv
    orders carry presence and time-window contexts: context-flip
    re-arbitration must agree entry for entry."""
    judge(life(seed, homes, CONTEXT_STEPS), cluster(shard_count=2),
          workers(incremental=False), homes=homes)


def test_context_lives_reach_both_context_orders():
    """The twin above judges context-flip re-arbitration only if its
    lives reach it: both context-attached orders decide some grant."""
    labels = set()
    for homes, seed in CONTEXT_LIVES:
        twin = judge(life(seed, homes, CONTEXT_STEPS), homes=homes)
        labels |= context_labels(twin.oracle.trace())
    assert labels == CONTEXT_LABELS


def test_cross_home_mirror_rule_over_the_wire():
    """A rule reading two homes' sensors: its foreign variable mirrors
    through BATCH frames to the hosting worker, and its truth tracks
    the remote sensor exactly as the in-thread twin's does."""
    sides = {}
    foreign = None
    for backend in BACKENDS:
        simulator = Simulator()
        server = new_cluster(simulator, HOMES, shard_count=3,
                             backend=backend)
        if foreign is None:
            # Pick a foreign home that genuinely lives on another shard,
            # so the rule's remote reads must mirror across the socket.
            anchor_shard = server.router.shard_of(temp(HOMES[0]))
            foreign = next(
                home for home in HOMES[1:]
                if server.router.shard_of(temp(home)) != anchor_shard)
        try:
            server.register_rule(Rule(
                name=f"{HOMES[0]}-any-hot", owner="manager",
                condition=OrCondition([
                    num(temp(HOMES[0]), Relation.GT, 26.0),
                    num(temp(foreign), Relation.GT, 26.0)]),
                action=act(f"{HOMES[0]}/vent"),
                stop_action=act(f"{HOMES[0]}/vent", "Off")))
            log = []
            for step, (home, value) in enumerate([
                    (HOMES[0], 20.0), (foreign, 30.0), (foreign, 20.0),
                    (HOMES[0], 31.0), (HOMES[0], 19.0), (foreign, 27.5)]):
                simulator.run_until(step + 0.5)
                server.ingest(temp(home), value)
                server.flush()
                log.append((server.rule_truth(f"{HOMES[0]}-any-hot"),
                            server.holder_of(f"{HOMES[0]}/vent")
                            is not None))
            mirrors = frozenset().union(
                *(shard.mirror_variables() for shard in server.shards))
            sides[backend] = (log, mirrors)
        finally:
            server.shutdown()
    assert sides["process"] == sides["thread"]
    # The foreign sensor really was mirrored (not co-located by luck).
    assert temp(foreign) in sides["process"][1]
    # The truth actually toggled with the remote sensor.
    assert {entry[0] for entry in sides["process"][0]} == {True, False}


@pytest.mark.parametrize("restore_backend", BACKENDS)
def test_durable_process_cluster_restores_onto_either_backend(
        tmp_path, restore_backend):
    """Worker processes own the WAL/snapshot files (I/O runs in-worker);
    the durable process cluster matches the oracle through its life, and
    a restore from its directory, onto thread shards or fresh worker
    processes, matches the oracle's end state."""
    def durable(homes):
        server = new_cluster(Simulator(), homes, shard_count=2,
                             backend="process")
        server.attach_durability(DurabilityPlane(str(tmp_path)))
        return server

    ops = script(7, HOMES2)
    twin = judge(ops, durable, homes=HOMES2)
    restored, report = restore(tmp_path, HOMES2, backend=restore_backend)
    try:
        assert not report.rules_missing
        assert restored.backend == restore_backend
        settle_at(restored, twin.oracle.simulator.now)
        assert_equivalent(observe(restored, HOMES2), twin.expected,
                          f"restored onto {restore_backend}")
    finally:
        restored.shutdown()
