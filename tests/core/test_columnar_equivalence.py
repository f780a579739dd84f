"""The columnar fast path against the oracle, sweep strategies and
batch boundaries included, plus columnar churn hygiene.

Every life-driven test here runs single-home lives
(:func:`tests.life.script`) through one or more engine configurations,
each judged against the ``incremental=False`` oracle:

* **columnar vs oracle**: the default fast path;
* **vector vs scalar sweeps**: ``vector_min=0`` (every window takes the
  numpy path) and ``use_numpy=False`` (every window takes the stdlib
  loop), each against the oracle, so the two ``satisfied_by`` replicas
  agree with the spec and with each other;
* **batch boundaries**: the fast path applying each settled step's
  writes with one ``ingest_batch``, against the oracle's writes one at
  a time, so batching changes no observable state.

Plus churn hygiene: removing every rule must release every interned
slot (freelists full, indexes empty), and re-registration must read a
fresh world; and threshold churn, which updates a variable's sorted
columns in place, must leave atom truth equal to a state rebuilt from
the live atoms.
"""

import random

import pytest

from repro.core.columnar import VECTOR_MIN, ColumnarState
from repro.core.condition import NumericAtom
from repro.core.database import RuleDatabase
from repro.core.engine import RuleEngine
from repro.core.plan import CompiledPlan, compile_condition
from repro.core.priority import PriorityManager
from repro.sim.events import Simulator
from repro.solver.linear import LinearConstraint, LinearExpr, Relation
from tests.life import HOME, MergedServer, build_rules, engine, \
    entries_of, judge, script, temp


def life(seed):
    return script(seed, steps=160, ckpt_every=None, churn=True, toggles=True)


@pytest.mark.parametrize("seed", (20260807, 13, 99))
def test_columnar_vs_oracle_stream(seed):
    """The default engine, columnar state in place, against the oracle."""
    twin = judge(life(seed), engine())
    assert twin.sides[0].engine._columnar is not None
    assert twin.oracle.engine._columnar is None


def force_vector(engine):
    engine._columnar.vector_min = 0


def force_scalar(engine):
    engine._columnar.use_numpy = False


@pytest.mark.parametrize("seed", (20260807, 42))
def test_vector_vs_scalar_sweeps(seed):
    """Forced numpy windows and forced stdlib loops, each against the
    oracle; each side must actually take its forced path."""
    twin = judge(life(seed), engine(tune=force_vector),
                 engine(tune=force_scalar))
    vector_stats = twin.sides[0].engine.columnar_stats
    scalar_stats = twin.sides[1].engine.columnar_stats
    assert vector_stats.vector_sweeps > 0
    assert vector_stats.scalar_sweeps == 0
    assert scalar_stats.vector_sweeps == 0
    assert scalar_stats.scalar_sweeps > 0


@pytest.mark.parametrize("seed", (11, 404))
def test_batch_boundary_equivalence(seed):
    """Each settled step's writes through one ``ingest_batch`` against
    the oracle's per-write ingest; the batch return values must account
    for exactly the stats the backend recorded."""
    ops = life(seed)
    twin = judge(ops, engine(batch=True))
    side = twin.sides[0]
    stats = side.engine.columnar_stats
    writes = sum(entries_of(op) for op in twin.ops if op[1] != "e")
    assert stats.batch_writes == writes
    # ``writes`` counts sweeps actually run: value-unchanged entries
    # short-circuit in the engine before reaching the backend.
    assert stats.writes <= writes
    assert [stats.atoms_flipped, stats.clauses_touched] == side.batch_deltas


def test_object_path_batch_returns_zero_stats():
    """``ingest_batch`` on the seed path (condition-tree objects, no
    columns) runs the ingest loop and reports no columnar counters."""
    simulator = Simulator()
    database = RuleDatabase()
    engine = RuleEngine(
        database, PriorityManager(), simulator,
        dispatch=lambda spec: None, incremental=False,
    )
    for rule in build_rules(HOME):
        database.add(rule)
        engine.rule_added(rule)
    assert engine.ingest_batch([(temp(HOME), 30.0)]) == (0, 0)
    assert engine.rule_truth(f"{HOME}-cool") is True
    assert engine.columnar_stats is None


# -- churn hygiene -------------------------------------------------------------


def test_unsubscribe_releases_every_slot():
    """Removing every rule must drain the interners (freelists full,
    all indexes empty) and re-registration must read a fresh world."""
    server = MergedServer()
    database, engine = server.database, server.engine
    state = engine._columnar
    assert state._tables
    atom_capacity = state._atoms.capacity
    clause_capacity = state._clauses.capacity
    assert atom_capacity > 0 and clause_capacity > 0
    engine.ingest(temp(HOME), 30.0)  # "cool" fires and holds
    for rule in list(database.all_rules()):
        database.remove(rule.name)
        engine.rule_removed(rule.name)
    assert not state._tables
    assert not state._rule_atoms
    assert not state._num_index
    assert not state._discrete_index
    assert not state._set_index
    assert len(state._atoms) == 0
    assert len(state._clauses) == 0
    assert len(state._atoms.free) == atom_capacity
    assert len(state._clauses.free) == clause_capacity
    # World changes while nothing subscribes, then re-registration must
    # evaluate against the *current* world, not recycled slot state.
    engine.ingest(temp(HOME), 10.0)
    for rule in build_rules(HOME):
        database.add(rule)
        engine.rule_added(rule)
    assert engine.rule_truth(f"{HOME}-cool") is False
    assert engine.rule_truth(f"{HOME}-heat") is True


# -- threshold churn -----------------------------------------------------------


class _NumericWorld:
    """Just the numeric part of an evaluation context."""

    def __init__(self) -> None:
        self.values: dict[str, float] = {}

    def numeric(self, variable):
        return self.values.get(variable)


_THRESHOLDS = (-1.0, 0.0, 0.5, 1.0, 2.0)


def _threshold_atom(rng, variable):
    """One atom on ``variable`` with a threshold from a small grid, so
    equal thresholds meet, or NaN.  Every relation: LT/LE as written,
    GE/GT canonicalized by ``make`` (a negated coefficient) and also
    built directly, and EQ (no single-threshold structure: rechecked)."""
    coef = rng.choice((1.0, 2.0, -1.0))
    relation = rng.choice(tuple(Relation))
    bound = rng.choice(_THRESHOLDS + (float("nan"),))
    if relation in (Relation.GE, Relation.GT) and rng.random() < 0.3:
        return NumericAtom(LinearConstraint(
            LinearExpr.var(variable, coef), relation, bound))
    return NumericAtom(LinearConstraint.make(
        LinearExpr.var(variable, coef), relation, bound))


@pytest.mark.parametrize("vector_min", (0, VECTOR_MIN))
@pytest.mark.parametrize("seed", (3, 71, 2026))
def test_threshold_churn_matches_a_rebuilt_state(seed, vector_min):
    """Random inserts and deletes of threshold atoms on one variable
    update its sorted columns in place.  After every write — exactly on
    a threshold, NaN, or the variable's first — atom truth must equal
    that of a state rebuilt from the live atoms, and the columns must
    stay sorted by (threshold, aid)."""
    rng = random.Random(seed)
    world = _NumericWorld()
    state = ColumnarState(vector_min=vector_min)
    live: dict[str, CompiledPlan] = {}
    values = list(_THRESHOLDS) + [-3.0, 0.25, 5.0, float("nan")]
    old = None
    for step in range(400):
        roll = rng.random()
        if roll < 0.35 or not live:
            name = f"r{step}"
            live[name] = compile_condition(_threshold_atom(rng, "v"))
            state.subscribe(name, live[name], world)
        elif roll < 0.6:
            name = rng.choice(sorted(live))
            state.unsubscribe(name)
            del live[name]
        else:
            new = rng.choice(values)
            world.values["v"] = new
            state.numeric_write("v", old, new, world)
            old = new
        rebuilt = ColumnarState()
        for name, plan in live.items():
            rebuilt.subscribe(name, plan, world)
        for plan in live.values():
            for _bit, key, atom in plan.static_slots:
                assert state.atom_truth(key) == rebuilt.atom_truth(key) \
                    == bool(atom.evaluate(world)), f"step {step}: {key}"
        index = state._num_index.get("v")
        if index is not None:
            pairs = list(zip(index.thresholds, index.aids))
            assert pairs == sorted(pairs)
            assert index.recheck_aids == sorted(index.recheck_aids)
    assert live
