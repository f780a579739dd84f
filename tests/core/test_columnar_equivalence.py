"""Property tests: the columnar fast path is observably identical to the
seed oracle, batch boundaries included.

Three equivalence axes, each driven by seeded random streams over the
same mixed rule population as the incremental suite:

* **columnar vs oracle** — the array-backed fast path against the
  ``incremental=False`` seed interpreter, full mixed stream with
  mid-stream rule churn;
* **vector vs scalar sweeps** — ``vector_min=0`` (every window takes the
  numpy path) against ``use_numpy=False`` (every window takes the
  stdlib loop), proving the two ``satisfied_by`` replicas agree
  bit for bit;
* **batch boundaries** — the same writes applied one ``ingest`` at a
  time against one big ``ingest_batch``, proving batching changes no
  observable state (per-event edge-trigger semantics are preserved
  write by write).

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
from repro.core.priority import PriorityManager, PriorityOrder
from repro.sim.events import Simulator
from repro.solver.linear import LinearConstraint, LinearExpr, Relation

from tests.core.test_incremental_equivalence import (
    EVENTS,
    KEYWORDS,
    NUMERIC_VARS,
    PEOPLE,
    ROOMS,
    VALUE_GRID,
    build_rules,
    churn_rule,
)


class BackendTwin:
    """The same home driven through two engine configurations.

    ``sides`` is a sequence of ``(engine_kwargs, tune)`` pairs; ``tune``
    (may be None) adjusts the freshly built engine before any rule is
    registered — used to force the columnar sweep strategy.
    """

    def __init__(self, sides) -> None:
        self.sides = []
        for engine_kwargs, tune in sides:
            simulator = Simulator()
            database = RuleDatabase()
            priorities = PriorityManager()
            priorities.add_order(PriorityOrder("tv-1", ("Emily", "Tom")))
            engine = RuleEngine(
                database, priorities, simulator,
                dispatch=lambda spec: None, **engine_kwargs,
            )
            if tune is not None:
                tune(engine)
            for rule in build_rules():
                database.add(rule)
                engine.rule_added(rule)
            self.sides.append((simulator, database, engine))
        self.devices = sorted({
            udn
            for rule in build_rules()
            for udn in rule.devices()
        })
        self.now = 0.0

    def ingest(self, variable, value) -> None:
        for _sim, _db, engine in self.sides:
            engine.ingest(variable, value)

    def post_event(self, event_type, subject) -> None:
        for _sim, _db, engine in self.sides:
            engine.post_event(event_type, subject)

    def advance(self, seconds: float) -> None:
        self.now += seconds
        for simulator, database, engine in self.sides:
            simulator.run_until(self.now)
            dirty = [
                r.name
                for r in database.rules_reading_variable("clock:time_of_day")
            ]
            if dirty:
                engine.reevaluate(dirty)

    def add_rule(self, make) -> None:
        for _sim, database, engine in self.sides:
            rule = make()
            database.add(rule)
            engine.rule_added(rule)

    def remove_rule(self, name: str) -> None:
        for _sim, database, engine in self.sides:
            database.remove(name)
            engine.rule_removed(name)

    def set_enabled(self, name: str, enabled: bool) -> None:
        for _sim, database, _engine in self.sides:
            database.get(name).enabled = enabled

    def check(self, step) -> None:
        _, db_a, eng_a = self.sides[0]
        _, db_b, eng_b = self.sides[1]
        names = sorted(r.name for r in db_a.all_rules())
        assert names == sorted(r.name for r in db_b.all_rules())
        for name in names:
            assert eng_a.rule_truth(name) == eng_b.rule_truth(name), \
                f"step {step}: truth of {name!r} diverged"
            assert eng_a.rule_state(name) == eng_b.rule_state(name), \
                f"step {step}: state of {name!r} diverged"
        for udn in self.devices:
            holder_a = eng_a.holder_of(udn)
            holder_b = eng_b.holder_of(udn)
            assert (holder_a is None) == (holder_b is None), \
                f"step {step}: holder presence of {udn!r} diverged"
            if holder_a is not None:
                assert holder_a[0] == holder_b[0], \
                    f"step {step}: holder of {udn!r} diverged"

    def check_traces(self) -> None:
        trace_a = [(e.time, e.kind, e.rule, e.device)
                   for e in self.sides[0][2].trace]
        trace_b = [(e.time, e.kind, e.rule, e.device)
                   for e in self.sides[1][2].trace]
        assert trace_a == trace_b


def drive_stream(twin: BackendTwin, rng: random.Random,
                 steps: int = 260) -> None:
    """The incremental suite's mixed stream, churn points included."""
    twin.check("initial")
    for step in range(steps):
        op = rng.random()
        if op < 0.45:
            twin.ingest(rng.choice(NUMERIC_VARS), rng.choice(VALUE_GRID))
        elif op < 0.60:
            person = rng.choice(PEOPLE)
            twin.ingest(f"person:{person}:place", rng.choice(ROOMS))
        elif op < 0.68:
            members = frozenset(
                kw for kw in KEYWORDS if rng.random() < 0.4
            )
            twin.ingest("epg:guide:keywords", members)
        elif op < 0.74:
            twin.ingest("door:lock:locked", rng.choice(("true", "false")))
        elif op < 0.78:
            twin.ingest("hall:sensor:dark", rng.random() < 0.5)
        elif op < 0.86:
            twin.post_event(rng.choice(EVENTS), rng.choice(PEOPLE))
        else:
            twin.advance(rng.choice((30.0, 120.0, 660.0, 3_600.0)))
        if step == 80:
            twin.set_enabled("cool", False)
        if step == 120:
            twin.remove_rule("fan")
        if step == 140:
            twin.set_enabled("cool", True)
        if step == 160:
            twin.add_rule(churn_rule)
        twin.check(step)
    assert len(twin.sides[0][2].trace) > 0, "stream never fired a rule"
    twin.check_traces()


@pytest.mark.parametrize("seed", (20260807, 13, 99))
def test_columnar_vs_oracle_stream(seed):
    twin = BackendTwin([
        ({}, None),
        ({"incremental": False}, None),
    ])
    assert twin.sides[0][2]._columnar is not None
    assert twin.sides[1][2]._columnar is None
    drive_stream(twin, random.Random(seed))


@pytest.mark.parametrize("seed", (20260807, 42))
def test_vector_vs_scalar_sweeps(seed):
    """Forced numpy windows against forced stdlib loops — the same
    stream must produce identical observable state, and each side must
    actually take its forced path."""
    def force_vector(engine):
        engine._columnar.vector_min = 0

    def force_scalar(engine):
        engine._columnar.use_numpy = False

    twin = BackendTwin([
        ({}, force_vector),
        ({}, force_scalar),
    ])
    drive_stream(twin, random.Random(seed))
    vector_stats = twin.sides[0][2].columnar_stats
    scalar_stats = twin.sides[1][2].columnar_stats
    assert vector_stats.vector_sweeps > 0
    assert vector_stats.scalar_sweeps == 0
    assert scalar_stats.vector_sweeps == 0
    assert scalar_stats.scalar_sweeps > 0


# -- batch boundaries ----------------------------------------------------------


def _columnar_stack():
    simulator = Simulator()
    database = RuleDatabase()
    priorities = PriorityManager()
    priorities.add_order(PriorityOrder("tv-1", ("Emily", "Tom")))
    engine = RuleEngine(
        database, priorities, simulator, dispatch=lambda spec: None,
    )
    for rule in build_rules():
        database.add(rule)
        engine.rule_added(rule)
    return database, engine


@pytest.mark.parametrize("seed", (11, 404))
def test_batch_boundary_equivalence(seed):
    """The same writes, one ``ingest`` at a time vs chunked through
    ``ingest_batch``, must agree after every chunk — and the batch
    return values must account for exactly the stats the backend
    recorded."""
    rng = random.Random(seed)
    db_a, eng_a = _columnar_stack()
    db_b, eng_b = _columnar_stack()
    returned_flips = returned_touched = total_writes = 0
    for chunk_index in range(60):
        chunk = [
            (rng.choice(NUMERIC_VARS), rng.choice(VALUE_GRID))
            for _ in range(rng.randrange(1, 8))
        ]
        for variable, value in chunk:
            eng_a.ingest(variable, value)
        flips, touched = eng_b.ingest_batch(chunk)
        returned_flips += flips
        returned_touched += touched
        total_writes += len(chunk)
        names = sorted(r.name for r in db_a.all_rules())
        assert names == sorted(r.name for r in db_b.all_rules())
        for name in names:
            assert eng_a.rule_truth(name) == eng_b.rule_truth(name), \
                f"chunk {chunk_index}: truth of {name!r} diverged"
            assert eng_a.rule_state(name) == eng_b.rule_state(name), \
                f"chunk {chunk_index}: state of {name!r} diverged"
    trace_a = [(e.time, e.kind, e.rule, e.device) for e in eng_a.trace]
    trace_b = [(e.time, e.kind, e.rule, e.device) for e in eng_b.trace]
    assert trace_a == trace_b
    assert len(trace_a) > 0, "stream never fired a rule"
    stats = eng_b.columnar_stats
    assert stats.batches == 60
    assert stats.batch_writes == total_writes
    # ``writes`` counts sweeps actually run: value-unchanged entries
    # short-circuit in the engine before reaching the backend.
    assert stats.writes <= total_writes
    assert returned_flips == stats.atoms_flipped
    assert returned_touched == stats.clauses_touched


def test_object_path_batch_returns_zero_stats():
    """``ingest_batch`` on the seed path (condition-tree objects, no
    columns) runs the ingest loop and reports no columnar counters."""
    simulator = Simulator()
    database = RuleDatabase()
    engine = RuleEngine(
        database, PriorityManager(), simulator,
        dispatch=lambda spec: None, incremental=False,
    )
    for rule in build_rules():
        database.add(rule)
        engine.rule_added(rule)
    assert engine.ingest_batch([(NUMERIC_VARS[0], 30.0)]) == (0, 0)
    assert engine.rule_truth("cool") is True
    assert engine.columnar_stats is None


# -- churn hygiene -------------------------------------------------------------


def test_unsubscribe_releases_every_slot():
    """Removing every rule must drain the interners (freelists full,
    all indexes empty) and re-registration must read a fresh world."""
    database, engine = _columnar_stack()
    state = engine._columnar
    assert state._tables
    atom_capacity = state._atoms.capacity
    clause_capacity = state._clauses.capacity
    assert atom_capacity > 0 and clause_capacity > 0
    engine.ingest(NUMERIC_VARS[0], 30.0)  # "cool" fires and holds
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
    engine.ingest(NUMERIC_VARS[0], 10.0)
    for rule in build_rules():
        database.add(rule)
        engine.rule_added(rule)
    assert engine.rule_truth("cool") is False
    assert engine.rule_truth("heat") is True


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
