"""Tests for the write indexes that pick which atoms a world write can
flip (owned by :class:`~repro.core.columnar.ColumnarState`), the
database's plan sharing and index pruning, and the engine's incremental
bookkeeping (trace ring buffer, watch-set and bucket pruning, the
DENIED rules waiting for each device)."""

import pytest

from repro.core.condition import (
    AndCondition,
    DiscreteAtom,
    DurationAtom,
    NumericAtom,
)
from repro.core.database import RuleDatabase
from repro.core.engine import RuleEngine, RuleState
from repro.core.plan import numeric_threshold
from repro.core.priority import PriorityManager, PriorityOrder
from repro.sim.events import Simulator

from tests.core.conftest import (
    action,
    in_room,
    make_rule,
    numeric_atom,
    on_air,
    temp_above,
)
from repro.solver.linear import LinearConstraint, LinearExpr, Relation

TEMP = "thermo:t:temperature"
HUMID = "hygro:h:humidity"
PLACE = "person:Tom:place"
KEYWORDS = "epg:guide:keywords"


def add(db, name, condition, device="tv-1", **kwargs):
    rule = make_rule(name, "Tom", condition,
                     action(device=device), **kwargs)
    db.add(rule)
    return rule


class Harness:
    def __init__(self, **engine_kwargs):
        self.simulator = Simulator()
        self.database = RuleDatabase()
        self.priorities = PriorityManager()
        self.dispatched = []
        self.engine = RuleEngine(
            self.database, self.priorities, self.simulator,
            dispatch=self.dispatched.append, **engine_kwargs,
        )

    def add_rule(self, rule):
        self.database.add(rule)
        self.engine.rule_added(rule)
        return rule

    def add(self, name, condition, device="tv-1"):
        return self.add_rule(make_rule(name, "Tom", condition,
                                       action(device=device)))

    def remove(self, name):
        self.database.remove(name)
        self.engine.rule_removed(name)


class Checked:
    """Records every atom the columnar state verifies for a write: the
    numeric threshold window, the recheck bucket and the discrete/set
    candidates.  Windows are forced onto the scalar loop so one spy
    sees them all."""

    def __init__(self, engine):
        state = engine._columnar
        state.vector_min = 1 << 30
        self.atoms = []
        verify, window = state._verify, state._scalar_window

        def spy_verify(aids, world, woken):
            aids = list(aids)
            self.atoms.extend(state._atom_objs[aid] for aid in aids)
            return verify(aids, world, woken)

        def spy_window(snapshot, lo_i, hi_i, value, woken):
            self.atoms.extend(state._atom_objs[aid]
                              for aid in snapshot.aids[lo_i:hi_i])
            return window(snapshot, lo_i, hi_i, value, woken)

        state._verify = spy_verify
        state._scalar_window = spy_window

    def take(self):
        atoms, self.atoms = self.atoms, []
        return atoms


class TestThresholdIndex:
    def test_candidates_narrow_to_crossed_thresholds(self):
        harness = Harness()
        for i, bound in enumerate((10.0, 20.0, 30.0, 40.0)):
            harness.add(f"r{i}", temp_above(bound), device=f"d{i}")
        checked = Checked(harness.engine)
        harness.engine.ingest(TEMP, 15.0)
        checked.take()
        harness.engine.ingest(TEMP, 35.0)
        thresholds = sorted(numeric_threshold(atom)[2]
                            for atom in checked.take())
        assert thresholds == [20.0, 30.0]
        assert [harness.engine.rule_truth(f"r{i}") for i in range(4)] \
            == [True, True, True, False]

    def test_first_ingest_considers_everything(self):
        harness = Harness()
        harness.add("r0", temp_above(10.0), device="d0")
        harness.add("r1", numeric_atom(TEMP, Relation.LT, 50.0), device="d1")
        checked = Checked(harness.engine)
        harness.engine.ingest(TEMP, 25.0)
        assert len(checked.take()) == 2
        # NaN breaks the window ordering: every atom is checked again.
        harness.engine.ingest(TEMP, float("nan"))
        assert len(checked.take()) == 2
        harness.engine.ingest(TEMP, 30.0)
        assert len(checked.take()) == 2

    def test_exact_boundary_is_candidate(self):
        harness = Harness()
        harness.add("r0", temp_above(28.0))
        checked = Checked(harness.engine)
        harness.engine.ingest(TEMP, 27.5)
        checked.take()
        harness.engine.ingest(TEMP, 28.0)  # onto the boundary: still false
        assert checked.take()
        assert harness.engine.rule_truth("r0") is False
        harness.engine.ingest(TEMP, 28.5)  # off the boundary: flips
        assert checked.take()
        assert harness.engine.rule_truth("r0") is True
        harness.engine.ingest(TEMP, 28.0)  # back onto it: flips back
        assert checked.take()
        assert harness.engine.rule_truth("r0") is False

    def test_equality_and_multivar_always_rechecked(self):
        harness = Harness()
        eq_atom = NumericAtom(LinearConstraint.make(
            LinearExpr.var(TEMP), Relation.EQ, 42.0))
        sum_atom = NumericAtom(LinearConstraint.make(
            LinearExpr.var(TEMP) + LinearExpr.var(HUMID), Relation.LE,
            100.0))
        harness.add("eq", eq_atom, device="d0")
        harness.add("sum", sum_atom, device="d1")
        checked = Checked(harness.engine)
        harness.engine.ingest(TEMP, 1.0)
        checked.take()
        # A change far away from 42 must still recheck both atoms.
        harness.engine.ingest(TEMP, 2.0)
        assert {atom.key() for atom in checked.take()} \
            == {eq_atom.key(), sum_atom.key()}
        # The sum atom reads HUMID too, so its writes recheck it alone.
        harness.engine.ingest(HUMID, 99.0)
        assert [atom.key() for atom in checked.take()] == [sum_atom.key()]
        assert harness.engine.rule_truth("sum") is False
        harness.engine.ingest(TEMP, 42.0)
        assert harness.engine.rule_truth("eq") is True

    def test_shared_atom_single_entry_two_subscribers(self):
        harness = Harness()
        harness.add("a", temp_above(28.0), device="d0")
        harness.add("b", AndCondition([temp_above(28.0), in_room("Tom")]),
                    device="d1")
        state = harness.engine._columnar
        aid = state._atoms.get(temp_above(28.0).key())
        assert state._atom_refs[aid] == 2
        checked = Checked(harness.engine)
        harness.engine.ingest(TEMP, 27.0)
        checked.take()
        harness.engine.ingest(TEMP, 29.0)
        assert [atom.key() for atom in checked.take()] \
            == [temp_above(28.0).key()]


class TestDiscreteAndSetIndex:
    def test_discrete_candidates_keyed_by_value(self):
        harness = Harness()
        harness.add("lr", in_room("Tom", "living room"), device="d0")
        harness.add("kt", in_room("Tom", "kitchen"), device="d1")
        harness.add("bed", in_room("Tom", "bedroom"), device="d2")
        checked = Checked(harness.engine)
        harness.engine.ingest(PLACE, "hall")  # first write: every atom
        assert len(checked.take()) == 3
        harness.engine.ingest(PLACE, "living room")
        assert {atom.value for atom in checked.take()} == {"living room"}
        harness.engine.ingest(PLACE, "kitchen")
        assert {atom.value for atom in checked.take()} \
            == {"living room", "kitchen"}
        assert harness.engine.rule_truth("kt") is True
        assert harness.engine.rule_truth("lr") is False

    def test_negated_discrete_waking(self):
        harness = Harness()
        harness.add("r", DiscreteAtom(PLACE, "kitchen", negated=True))
        checked = Checked(harness.engine)
        harness.engine.ingest(PLACE, "kitchen")
        checked.take()
        assert harness.engine.rule_truth("r") is False
        harness.engine.ingest(PLACE, "hall")
        assert checked.take()
        assert harness.engine.rule_truth("r") is True
        harness.engine.ingest(PLACE, "bedroom")
        assert not checked.take()
        assert harness.engine.rule_truth("r") is True

    def test_membership_candidates_from_symmetric_difference(self):
        harness = Harness()
        harness.add("ball", on_air("baseball"), device="d0")
        harness.add("news", on_air("news"), device="d1")
        checked = Checked(harness.engine)
        harness.engine.ingest(KEYWORDS, frozenset({"baseball"}))
        assert {atom.member for atom in checked.take()} == {"baseball"}
        harness.engine.ingest(KEYWORDS, frozenset({"baseball", "news"}))
        assert {atom.member for atom in checked.take()} == {"news"}
        assert harness.engine.rule_truth("news") is True
        assert harness.engine.rule_truth("ball") is True


class TestPlanSharingAndPruning:
    def test_equal_conditions_share_one_plan(self):
        db = RuleDatabase()
        add(db, "a", temp_above(28.0), device="d0")
        add(db, "b", temp_above(28.0), device="d1")
        assert db.plan_of("a") is db.plan_of("b")

    def test_removal_prunes_every_index(self):
        harness = Harness()
        harness.add("a", AndCondition([temp_above(28.0), in_room("Tom"),
                                       on_air("baseball")]), device="d0")
        harness.add("b", numeric_atom(TEMP, Relation.LT, 10.0), device="d1")
        state = harness.engine._columnar
        assert state._num_index and state._discrete_index \
            and state._set_index
        harness.remove("a")
        harness.remove("b")
        db = harness.database
        assert not db._plans
        assert not db._plan_refs
        assert not db._var_watch
        assert len(db._by_variable) == 0
        assert len(db._by_device) == 0
        assert len(db._by_owner) == 0
        assert not state._num_index
        assert not state._discrete_index
        assert not state._set_index
        assert len(state._atoms) == 0
        assert len(state._clauses) == 0

    def test_shared_atom_survives_partial_removal(self):
        harness = Harness()
        harness.add("a", temp_above(28.0), device="d0")
        harness.add("b", temp_above(28.0), device="d1")
        harness.remove("a")
        state = harness.engine._columnar
        aid = state._atoms.get(temp_above(28.0).key())
        assert state._atom_refs[aid] == 1
        harness.engine.ingest(TEMP, 29.0)
        assert harness.engine.rule_truth("b") is True

    def test_var_watch_registers_stateful_and_volatile_rules(self):
        db = RuleDatabase()
        add(db, "held", DurationAtom(in_room("Tom"), 60.0), device="d0")
        assert "held" in db.variable_watchers("person:Tom:place")
        add(db, "plain", in_room("Alan"), device="d1")
        assert "plain" not in db.variable_watchers("person:Alan:place")

    def test_presorted_bucket_tracks_mutation(self):
        db = RuleDatabase()
        r0 = add(db, "a", temp_above(28.0), device="d0")
        r1 = add(db, "b", temp_above(20.0), device="d1")
        assert db.rules_reading_variable(TEMP) == [r0, r1]
        db.remove("a")
        assert db.rules_reading_variable(TEMP) == [r1]
        r2 = add(db, "c", temp_above(25.0), device="d2")
        assert db.rules_reading_variable(TEMP) == [r1, r2]


class TestEngineBookkeeping:
    def test_trace_is_a_capped_ring_buffer(self):
        harness = Harness(max_trace=5)
        harness.add_rule(make_rule("r", "Tom", temp_above(28.0), action()))
        for i in range(10):
            harness.engine.ingest(TEMP, 30.0 + i)  # no-op edges
            harness.engine.ingest(TEMP, 20.0)      # falling
            harness.engine.ingest(TEMP, 30.0)      # rising
        assert len(harness.engine.trace) == 5
        # Newest entries survive.
        assert harness.engine.trace[-1].kind in ("fire", "stop")

    def test_max_trace_must_be_positive(self):
        from repro.errors import RuleError
        with pytest.raises(RuleError):
            Harness(max_trace=0)

    def test_held_buckets_pruned_on_removal(self):
        harness = Harness()
        rule = make_rule(
            "alarm", "Tom",
            DurationAtom(DiscreteAtom("door:lock:locked", "false"), 60.0),
            action(device="alarm-1"),
        )
        harness.add_rule(rule)
        assert harness.engine._held_atom_rules
        harness.database.remove("alarm")
        harness.engine.rule_removed("alarm")
        assert not harness.engine._held_atom_rules

    def test_engine_state_pruned_on_removal(self):
        harness = Harness()
        harness.add_rule(make_rule("r", "Tom", temp_above(28.0), action()))
        harness.engine.ingest(TEMP, 30.0)
        harness.database.remove("r")
        harness.engine.rule_removed("r")
        assert not harness.engine._plans
        assert not harness.engine._columnar._tables
        assert len(harness.engine._columnar._atoms) == 0
        assert not harness.engine._watch_vars
        assert harness.engine._denied_on(("tv-1",)) == set()
        assert not harness.engine._until_watch

    def test_denied_watch_follows_state(self):
        harness = Harness()
        harness.priorities.add_order(PriorityOrder("tv-1", ("Alan", "Tom")))
        harness.add_rule(make_rule("tom", "Tom", in_room("Tom"), action()))
        harness.add_rule(
            make_rule("alan", "Alan", in_room("Alan"),
                      action(act="ShowBaseball")))
        harness.engine.ingest("person:Alan:place", "living room")
        harness.engine.ingest("person:Tom:place", "living room")
        assert harness.engine.rule_state("tom") is RuleState.DENIED
        assert harness.engine._denied_on(("tv-1",)) == {"tom"}
        harness.engine.ingest("person:Tom:place", "kitchen")
        assert harness.engine._denied_on(("tv-1",)) == set()

    def test_until_watch_follows_holding_state(self):
        harness = Harness()
        harness.add_rule(
            make_rule("r", "Tom", in_room("Tom"), action(),
                      until=temp_above(30.0),
                      stop_action=action(act="TurnOff")))
        harness.engine.ingest("person:Tom:place", "living room")
        assert any("r" in bucket
                   for bucket in harness.engine._until_watch.values())
        harness.engine.ingest(TEMP, 31.0)  # until fires, rule stops
        assert harness.engine.rule_state("r") is RuleState.IDLE
        assert not any("r" in bucket
                       for bucket in harness.engine._until_watch.values())

    def test_nan_ingest_flips_threshold_atoms(self):
        """NaN defeats the bisect window ordering; it must fall back to
        rechecking every atom so active rules stop like the seed path."""
        for incremental in (True, False):
            harness = Harness(incremental=incremental)
            harness.add_rule(
                make_rule("r", "Tom", temp_above(28.0), action()))
            harness.engine.ingest(TEMP, 35.0)
            assert harness.engine.rule_truth("r") is True
            harness.engine.ingest(TEMP, float("nan"))
            assert harness.engine.rule_truth("r") is False, incremental
            assert harness.engine.holder_of("tv-1") is None
            harness.engine.ingest(TEMP, 35.0)
            assert harness.engine.rule_truth("r") is True, incremental

    def test_reenabled_rule_fires_like_seed_path(self):
        """A rule whose atoms flipped while it was disabled must fire on
        the next relevant change after re-enabling, as the seed does."""
        results = {}
        for incremental in (True, False):
            harness = Harness(incremental=incremental)
            rule = make_rule("r", "Tom", temp_above(26.0), action())
            harness.add_rule(rule)
            harness.engine.ingest(TEMP, 20.0)
            rule.enabled = False
            harness.engine.ingest(TEMP, 30.0)  # flips while disabled
            assert harness.engine.rule_truth("r") is False
            rule.enabled = True
            harness.engine.ingest(TEMP, 31.0)  # no flip, but relevant
            results[incremental] = (
                harness.engine.rule_truth("r"),
                harness.engine.rule_state("r"),
                len(harness.dispatched),
            )
        assert results[True] == results[False]
        assert results[True] == (True, RuleState.ACTIVE, 1)

    def test_rule_registered_disabled_then_enabled(self):
        """Registered-disabled rules never evaluated; enabling them must
        still see the current world on the next wake."""
        results = {}
        for incremental in (True, False):
            harness = Harness(incremental=incremental)
            harness.engine.ingest(TEMP, 30.0)  # already hot
            rule = make_rule("r", "Tom", temp_above(26.0), action())
            rule.enabled = False
            harness.add_rule(rule)
            rule.enabled = True
            harness.engine.ingest(TEMP, 30.5)  # relevant, no flip
            results[incremental] = (
                harness.engine.rule_truth("r"),
                len(harness.dispatched),
            )
        assert results[True] == results[False] == (True, 1)

    def test_direct_constraint_with_constant_indexes_correctly(self):
        """Constraints built without LinearConstraint.make may carry an
        expr constant; the threshold must account for it."""
        atom = NumericAtom(LinearConstraint(
            expr=LinearExpr(coefficients=((TEMP, 2.0),), constant=3.0),
            relation=Relation.LE, bound=10.0,
        ))  # 2t + 3 <= 10  <=>  t <= 3.5
        _, kind, threshold, _ = numeric_threshold(atom)
        assert (kind, threshold) == ("below", pytest.approx(3.5))
        harness = Harness()
        harness.add_rule(make_rule("r", "Tom", atom, action()))
        harness.engine.ingest(TEMP, 3.0)
        assert harness.engine.rule_truth("r") is True
        harness.engine.ingest(TEMP, 4.0)  # crosses 3.5, not bound/coef=5.0
        assert harness.engine.rule_truth("r") is False

    def test_nearby_thresholds_never_share_identity(self):
        """Atom keys must be exact: %g display formatting collides at 6
        significant digits and would evaluate one rule with another
        rule's constraint."""
        low, high = 28.1234559, 28.1234561
        atom_low, atom_high = temp_above(low), temp_above(high)
        assert atom_low.key() != atom_high.key()
        results = {}
        for incremental in (True, False):
            harness = Harness(incremental=incremental)
            harness.add_rule(make_rule("low", "Tom", temp_above(low),
                                       action(device="d0")))
            harness.add_rule(make_rule("high", "Tom", temp_above(high),
                                       action(device="d1")))
            harness.engine.ingest(TEMP, 28.1234560)
            results[incremental] = (harness.engine.rule_truth("low"),
                                    harness.engine.rule_truth("high"))
        assert results[True] == results[False] == (True, False)

    def test_engine_attached_to_prepopulated_database(self):
        """The seed pattern of constructing an engine over an existing
        database must work incrementally too — no silent dead engine."""
        results = {}
        for incremental in (True, False):
            database = RuleDatabase()
            for i, bound in enumerate((10.0, 20.0, 30.0)):
                database.add(make_rule(f"r{i}", "Tom", temp_above(bound),
                                       action(device=f"d{i}")))
            engine = RuleEngine(database, PriorityManager(), Simulator(),
                                dispatch=lambda spec: None,
                                incremental=incremental)
            engine.ingest(TEMP, 25.0)
            results[incremental] = [engine.rule_truth(f"r{i}")
                                    for i in range(3)]
        assert results[True] == results[False] == [True, True, False]

    def test_incremental_flag_off_restores_seed_path(self):
        harness = Harness(incremental=False)
        harness.add_rule(make_rule("r", "Tom", temp_above(28.0), action()))
        harness.engine.ingest(TEMP, 30.0)
        assert harness.engine.rule_truth("r") is True
        # No incremental state kept.
        assert not harness.engine._plans
        assert harness.engine._columnar is None
        assert harness.engine._time_wheel is None
