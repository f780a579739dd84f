"""Randomized backend equivalence: process workers vs in-thread shards.

The acceptance property of the process plane: a cluster whose shards
live in worker processes behind the wire protocol is observably
identical — rule truth, rule states, device holders, and (with
coalescing off) full per-home traces — to the in-thread cluster
serving the same scripted life.  The wire's one-way pipelining, the
per-frame clock catch-up, and the counter barrier must together
reproduce exactly the ordering an in-process drain produces.

Scripts come from :mod:`tests.cluster.recovery_stack` — the same
seeded multi-home lives the durability suites replay, with fractional
timestamps so no ingest ever ties with a whole-second timer.  Runs
cover the fast path and the ``incremental=False`` oracle (the flag
rides the HELLO config into the worker), plus cross-home mirror rules
whose fan-out
crosses the socket, and a durability round-trip where WAL/snapshot
files written by worker processes restore onto either backend.
"""

import pytest

from repro.cluster import DurabilityPlane
from repro.core.condition import OrCondition
from repro.core.rule import Rule
from repro.sim.events import Simulator
from repro.solver.linear import Relation
from tests.cluster.recovery_stack import (
    HOME,
    HOMES,
    act,
    assert_equivalent,
    drive_durable,
    drive_uninterrupted,
    end_time_of,
    new_cluster,
    num,
    observe,
    restore,
    script,
    temp,
)

pytestmark = pytest.mark.hard_timeout(300)

BACKENDS = ("thread", "process")


def run_twins(seed, *, homes=(HOME,), shard_count=2, coalesce=False,
              **engine_kwargs):
    """The same scripted life through both backends; returns
    ``{backend: observation}``."""
    ops = script(seed, homes=homes)
    end_time = end_time_of(ops)
    results = {}
    for backend in BACKENDS:
        server = new_cluster(
            Simulator(), homes, shard_count=shard_count,
            coalesce=coalesce, backend=backend, **engine_kwargs,
        )
        try:
            drive_uninterrupted(server, ops, end_time)
            results[backend] = observe(server, homes)
        finally:
            server.shutdown()
    return results


@pytest.mark.parametrize("seed", range(6))
def test_multihome_exact_traces(seed):
    """Coalescing off: every intermediate edge must survive into the
    trace identically on both sides of the socket."""
    results = run_twins(seed, homes=HOMES, shard_count=2)
    assert_equivalent(results["process"], results["thread"],
                      f"seed {seed}, columnar")


@pytest.mark.parametrize("seed", (1, 4))
def test_with_coalescing(seed):
    """Coalescing on: settled observables (truth, states, holders) must
    agree; traces are exempt — merged writes legitimately drop
    intermediate edges."""
    results = run_twins(seed, homes=HOMES, shard_count=2, coalesce=True)
    for side in results.values():
        side["traces"] = {}
    assert_equivalent(results["process"], results["thread"],
                      f"seed {seed}, coalesced")


def test_ablation_backend_non_incremental():
    """incremental=False: full re-evaluation per ingest, behind the
    wire."""
    results = run_twins(3, homes=HOMES[:2], shard_count=2,
                        incremental=False)
    assert_equivalent(results["process"], results["thread"],
                      "seed 3, incremental off")


#: Lives in which both of the tv's context-attached orders decide grants
#: and context flips at writes and at ticks re-arbitrate DENIED rules.
CONTEXT_LIVES = (((HOME,), 1), ((HOME,), 3), ((HOME,), 13),
                 (HOMES, 5), (HOMES, 13), (HOMES, 15))


@pytest.mark.parametrize("homes, seed", CONTEXT_LIVES)
def test_fast_path_in_thread_matches_oracle_in_workers(homes, seed):
    """The in-thread fast path against the ``incremental=False`` oracle
    in worker processes, over lives whose tv orders carry presence and
    time-window contexts: context-flip re-arbitration (index and context
    wheel vs a scan of every order) must agree entry for entry across
    both the configuration and the socket."""
    ops = script(seed, homes=homes)
    end_time = end_time_of(ops)
    results = {}
    for backend, incremental in (("thread", True), ("process", False)):
        server = new_cluster(Simulator(), homes, shard_count=2,
                             backend=backend, incremental=incremental)
        try:
            drive_uninterrupted(server, ops, end_time)
            results[backend] = observe(server, homes)
        finally:
            server.shutdown()
    assert_equivalent(results["process"], results["thread"],
                      f"seed {seed}, fast thread vs oracle process")


def test_context_lives_reach_both_context_orders():
    """The twin above judges context-flip re-arbitration only if its
    lives reach it: both context-attached orders decide some grant."""
    labels = set()
    for homes, seed in CONTEXT_LIVES:
        ops = script(seed, homes=homes)
        server = new_cluster(Simulator(), homes, shard_count=2)
        try:
            drive_uninterrupted(server, ops, end_time_of(ops))
            for home in homes:
                labels |= {
                    entry.detail.rsplit("(when ", 1)[1][:-2]
                    for entry in server.trace(home=home)
                    if "(when " in entry.detail
                }
        finally:
            server.shutdown()
    assert labels == {"Tom is in the kitchen", "after midnight"}


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
    a restore from that directory — onto thread shards or fresh worker
    processes — matches the crash-free in-thread twin."""
    seed = 7
    ops = script(seed, homes=HOMES[:2])
    end_time = end_time_of(ops)

    twin = new_cluster(Simulator(), HOMES[:2], shard_count=2)
    drive_uninterrupted(twin, ops, end_time)
    expected = observe(twin, HOMES[:2])
    twin.shutdown()

    durable = new_cluster(Simulator(), HOMES[:2], shard_count=2,
                          backend="process")
    try:
        durable.attach_durability(DurabilityPlane(str(tmp_path)))
        assert drive_durable(durable, ops) is None  # no faults, no crash
        durable.simulator.run_until(end_time)
        durable.flush()
        assert_equivalent(observe(durable, HOMES[:2]), expected,
                          "durable process run")
    finally:
        durable.shutdown()

    restored, report = restore(tmp_path, HOMES[:2],
                               backend=restore_backend)
    try:
        assert not report.rules_missing
        assert restored.backend == restore_backend
        restored.simulator.run_until(end_time)
        restored.flush()
        assert_equivalent(observe(restored, HOMES[:2]), expected,
                          f"restored onto {restore_backend}")
    finally:
        restored.shutdown()
