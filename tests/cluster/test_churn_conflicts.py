"""The registration checks on a contested churn stream, against the
Simplex path.

Before each validated registration on a thread cluster, a second
:class:`~repro.core.conflict.ConflictChecker` with ``prefer_intervals``
off (every numeric part through the two-phase Simplex) checks the same
rule against the same shard database.  Its reports must equal, in
order, the ones ``register_rule`` returns from the clause-box path.  A
deliberately inconsistent rule must raise the same
:class:`~repro.errors.InconsistentRuleError` on both paths and leave no
plan cached.
"""

import random

import pytest

from repro.cluster import ClusterServer
from repro.core.condition import AndCondition, DiscreteAtom, NumericAtom, TrueAtom
from repro.core.conflict import ConflictChecker
from repro.core.consistency import ConsistencyChecker
from repro.core.priority import PriorityOrder
from repro.core.rule import Rule
from repro.errors import InconsistentRuleError
from repro.sim.events import Simulator
from repro.solver.linear import LinearConstraint, LinearExpr, Relation

from tests.cluster.test_churn_garbage import (
    DEVICES,
    HOMES,
    RESIDENTS,
    ROOMS,
    SENSORS,
    contested_rule,
    presence,
    sensor,
)

TICKS = 200


def impossible_rule(name, home, owner, udn, rng):
    """A rule whose numeric band is empty (``t > hi`` and ``t < lo``)."""
    variable = sensor(home, rng.choice(SENSORS))
    low = rng.choice((18.0, 20.0))
    band = AndCondition([
        NumericAtom(LinearConstraint.make(
            LinearExpr.var(variable), Relation.GT, low + 4.0)),
        NumericAtom(LinearConstraint.make(
            LinearExpr.var(variable), Relation.LT, low)),
    ])
    template = contested_rule(name, home, owner, udn, rng)
    return Rule(name=name, owner=owner, condition=band,
                action=template.action)


def shard_database(cluster, rule):
    return cluster.shards[
        cluster.router.shard_of_key(cluster.home_of(rule))].database


@pytest.mark.parametrize("seed", (7, 19))
def test_box_reports_equal_simplex_reports_on_churn(seed):
    rng = random.Random(seed)
    cluster = ClusterServer(Simulator(), shard_count=2)
    live = {}
    checked = conflicting = rejected = 0

    def register(rule):
        nonlocal checked, conflicting
        database = shard_database(cluster, rule)
        expected = ConflictChecker(
            database, prefer_intervals=False).find_conflicts(rule)
        assert cluster.register_rule(rule) == expected
        checked += 1
        conflicting += bool(expected)

    try:
        for home in HOMES:
            owners = [f"{home}-res-{r}" for r in range(RESIDENTS)]
            for device in range(DEVICES):
                udn = f"{home}/dev-{device}"
                live[udn] = {}
                for owner in owners:
                    name = f"{udn}-{owner}-0"
                    register(contested_rule(name, home, owner, udn, rng))
                    live[udn][owner] = name
                cluster.add_priority_order(PriorityOrder(
                    udn, tuple(rng.sample(owners, len(owners))),
                    context=TrueAtom()))
                cluster.add_priority_order(PriorityOrder(
                    udn, tuple(rng.sample(owners, len(owners))),
                    context=DiscreteAtom(presence(home), rng.choice(ROOMS))))
        devices = sorted(live)
        for tick in range(1, TICKS + 1):
            home = rng.choice(HOMES)
            cluster.ingest(sensor(home, rng.choice(SENSORS)),
                           rng.choice((16.0, 19.0, 21.0, 23.0, 25.0)))
            udn = devices[rng.randrange(len(devices))]
            owner = rng.choice(sorted(live[udn]))
            home = udn.split("/")[0]
            if tick % 10 == 0:
                doomed = impossible_rule(
                    f"{udn}-{owner}-bad-{tick}", home, owner, udn, rng)
                database = shard_database(cluster, doomed)
                cached = len(database._plans)
                with pytest.raises(InconsistentRuleError) as simplex:
                    ConsistencyChecker(prefer_intervals=False) \
                        .require_consistent(doomed)
                with pytest.raises(InconsistentRuleError) as boxes:
                    cluster.register_rule(doomed)
                assert str(boxes.value) == str(simplex.value)
                assert len(database._plans) == cached
                rejected += 1
            fresh = f"{udn}-{owner}-{tick}"
            register(contested_rule(fresh, home, owner, udn, rng))
            cluster.remove_rule(live[udn][owner])
            live[udn][owner] = fresh
            cluster.flush()
    finally:
        cluster.shutdown()
    assert rejected == TICKS // 10
    # The stream must exercise both verdicts of the pair check.
    assert 0 < conflicting < checked
