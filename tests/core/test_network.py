"""Tests for the engine's shared evaluation network — the clause slots of
:class:`~repro.core.columnar.ColumnarState`: identical clauses deduped
across rules, atom flips fanning out only through clause-truth
crossings, refcounted subscriptions and removal pruning (including the
remove-mid-stream / re-registration staleness regression), plus spot
checks of the fast path against the seed oracle."""

import pytest

from repro.core.condition import (
    AndCondition,
    FalseAtom,
    OrCondition,
    TimeWindowAtom,
    TrueAtom,
)
from repro.core.database import RuleDatabase
from repro.core.engine import RuleEngine, RuleState
from repro.core.priority import PriorityManager, PriorityOrder
from repro.sim.clock import hhmm
from repro.sim.events import Simulator

from tests.core.conftest import (
    action,
    humid_above,
    in_room,
    make_rule,
    temp_above,
)

TEMP = "thermo:t:temperature"
HUMID = "hygro:h:humidity"


class Harness:
    def __init__(self, **engine_kwargs):
        self.simulator = Simulator()
        self.database = RuleDatabase()
        self.dispatched = []
        self.engine = RuleEngine(
            self.database, PriorityManager(), self.simulator,
            dispatch=self.dispatched.append, **engine_kwargs,
        )

    def add_rule(self, rule):
        self.database.add(rule)
        self.engine.rule_added(rule)
        return rule

    def remove_rule(self, name):
        self.database.remove(name)
        self.engine.rule_removed(name)

    @property
    def network(self):
        return self.engine._columnar


def hot_and_occupied(threshold=28.0, person="Tom"):
    """The templated two-atom conjunction the network dedupes."""
    return AndCondition([temp_above(threshold), in_room(person)])


def only_clause(state):
    """The clause slot of a network holding exactly one clause."""
    (cid,) = state._clauses.ids.values()
    return cid


class TestClauseSharing:
    def test_identical_clauses_share_one_node(self):
        harness = Harness()
        for index in range(5):
            harness.add_rule(make_rule(
                f"r{index}", "Tom", hot_and_occupied(),
                action(device=f"d{index}")))
        state = harness.network
        assert len(state) == 1
        assert set(state._clause_subs[only_clause(state)]) == {
            f"r{index}" for index in range(5)
        }
        # The two atoms are interned once, each referenced by all five.
        assert len(state._atoms) == 2
        assert sorted(state._atom_refs[aid]
                      for aid in state._atoms.ids.values()) == [5, 5]

    def test_distinct_clauses_get_distinct_nodes(self):
        harness = Harness()
        harness.add_rule(make_rule("a", "Tom", hot_and_occupied(28.0),
                                   action(device="d0")))
        harness.add_rule(make_rule("b", "Tom", hot_and_occupied(29.0),
                                   action(device="d1")))
        assert len(harness.network) == 2

    def test_atom_flip_without_clause_flip_wakes_no_rule(self):
        """The A7 scaling property: a temperature flip inside a clause
        whose occupancy conjunct is false must not touch any rule."""
        harness = Harness()
        for index in range(10):
            harness.add_rule(make_rule(
                f"r{index}", "Tom", hot_and_occupied(),
                action(device=f"d{index}")))
        calls = []
        original = harness.engine._evaluate_rules

        def spy(names):
            names = list(names)
            calls.append(names)
            return original(names)

        harness.engine._evaluate_rules = spy
        state = harness.network
        hot_key = temp_above(28.0).key()
        harness.engine.ingest(TEMP, 30.0)  # occupancy unknown: clause false
        assert state.atom_truth(hot_key) is True
        harness.engine.ingest(TEMP, 20.0)
        assert state.atom_truth(hot_key) is False
        assert calls == []  # atom flipped twice, no rule was woken
        assert state._clause_false[only_clause(state)] == 2
        assert state.stats.atoms_flipped == 2

    def test_clause_flip_wakes_every_subscriber_once(self):
        harness = Harness()
        for index in range(4):
            harness.add_rule(make_rule(
                f"r{index}", "Tom", hot_and_occupied(),
                action(device=f"d{index}")))
        harness.engine.ingest(TEMP, 30.0)
        harness.engine.ingest("person:Tom:place", "living room")
        for index in range(4):
            assert harness.engine.rule_truth(f"r{index}") is True
            assert harness.engine.rule_state(f"r{index}") is RuleState.ACTIVE
        assert len(harness.dispatched) == 4

    def test_shared_static_part_across_or_clauses_is_refcounted(self):
        """(A∧B∧evening) ∨ (A∧B∧night) references the clause (A,B) twice
        from one rule; removal must drop both references and the slot."""
        harness = Harness()
        condition = OrCondition([
            AndCondition([temp_above(28.0), in_room("Tom"),
                          TimeWindowAtom(hhmm(17), hhmm(21))]),
            AndCondition([temp_above(28.0), in_room("Tom"),
                          TimeWindowAtom(hhmm(21), hhmm(6))]),
        ])
        harness.add_rule(make_rule("r", "Tom", condition, action()))
        state = harness.network
        assert len(state) == 1
        cid = only_clause(state)
        assert state._clause_subs[cid] == {"r": 2}
        assert state._clause_refs[cid] == 2
        harness.remove_rule("r")
        assert len(state) == 0
        assert len(state._atoms) == 0
        assert not state._tables
        assert not state._rule_atoms

    def test_constant_true_and_false_conditions(self):
        harness = Harness()
        harness.add_rule(make_rule("always", "Tom", TrueAtom(),
                                   action(device="d0")))
        harness.add_rule(make_rule("never", "Tom", FalseAtom(),
                                   action(device="d1")))
        assert harness.engine.rule_truth("always") is True
        assert harness.engine.rule_truth("never") is False
        # Constants take no atom or clause slot: truth is the table alone.
        assert len(harness.network) == 0
        assert len(harness.network._atoms) == 0


class TestRemovalPruning:
    def test_removal_prunes_network_and_atom_truth(self):
        harness = Harness()
        harness.add_rule(make_rule("a", "Tom", hot_and_occupied(),
                                   action(device="d0")))
        harness.add_rule(make_rule("b", "Tom", hot_and_occupied(),
                                   action(device="d1")))
        harness.engine.ingest(TEMP, 30.0)
        state = harness.network
        hot_key = temp_above(28.0).key()
        harness.remove_rule("a")
        assert len(state) == 1  # b still subscribes
        assert state.atom_truth(hot_key) is True
        harness.remove_rule("b")
        assert len(state) == 0
        assert state.atom_truth(hot_key) is None
        assert not state._tables
        assert not state._num_index
        assert not state._discrete_index

    def test_remove_mid_stream_then_reregister_reads_fresh_world(self):
        """Regression: a removed rule's cached atom truth (and clause
        slot) must not survive to poison a later re-registration.  The
        world changes while no rule subscribes the atom — no index
        generates candidates then, so a stale slot would be trusted
        forever."""
        harness = Harness()
        harness.add_rule(make_rule("r", "Tom", temp_above(25.0), action()))
        harness.engine.ingest(TEMP, 30.0)       # atom true, rule fires
        assert harness.engine.rule_truth("r") is True
        harness.remove_rule("r")
        # Released with the last subscriber.
        assert harness.network.atom_truth(temp_above(25.0).key()) is None
        harness.engine.ingest(TEMP, 20.0)       # unobserved: no subscribers
        harness.add_rule(make_rule("r", "Tom", temp_above(25.0), action()))
        assert harness.engine.rule_truth("r") is False  # fresh evaluation
        assert not harness.dispatched[1:]       # re-registration cannot fire

    def test_remove_mid_stream_per_rule_ablation_matches(self):
        """The same regression through the seed oracle, which evaluates
        each rule's condition tree on its own (the per-rule ablation)."""
        harness = Harness(incremental=False)
        harness.add_rule(make_rule("r", "Tom", temp_above(25.0), action()))
        harness.engine.ingest(TEMP, 30.0)
        assert harness.engine.rule_truth("r") is True
        harness.remove_rule("r")
        harness.engine.ingest(TEMP, 20.0)
        harness.add_rule(make_rule("r", "Tom", temp_above(25.0), action()))
        assert harness.engine.rule_truth("r") is False

    def test_network_absent_without_incremental_or_shared(self):
        """The oracle shares nothing across rules: no network, no wheel."""
        assert Harness().network is not None
        oracle = Harness(incremental=False)
        assert oracle.network is None
        assert oracle.engine._time_wheel is None


class TestSharedAblationSpotChecks:
    """Cheap behavioural parity checks between the fast path and the
    seed oracle (the randomized stream suites do the heavy lifting)."""

    @pytest.mark.parametrize("incremental", (True, False))
    def test_denied_retry_and_fallback(self, incremental):
        harness = Harness(incremental=incremental)
        harness.engine.priorities.add_order(
            PriorityOrder("tv-1", ("Alan", "Tom")))
        harness.add_rule(make_rule("tom", "Tom", in_room("Tom"), action()))
        harness.add_rule(make_rule(
            "alan", "Alan", in_room("Alan"), action(act="ShowBaseball")))
        harness.engine.ingest("person:Alan:place", "living room")
        harness.engine.ingest("person:Tom:place", "living room")
        assert harness.engine.rule_state("tom") is RuleState.DENIED
        harness.engine.ingest("person:Alan:place", "kitchen")
        assert harness.engine.rule_state("tom") is RuleState.ACTIVE

    @pytest.mark.parametrize("incremental", (True, False))
    def test_multi_clause_or_condition(self, incremental):
        harness = Harness(incremental=incremental)
        condition = OrCondition([
            AndCondition([temp_above(28.0), in_room("Tom")]),
            humid_above(60.0),
        ])
        harness.add_rule(make_rule("r", "Tom", condition, action()))
        harness.engine.ingest(HUMID, 70.0)
        assert harness.engine.rule_truth("r") is True
        harness.engine.ingest(HUMID, 50.0)
        assert harness.engine.rule_truth("r") is False
        harness.engine.ingest(TEMP, 30.0)
        assert harness.engine.rule_truth("r") is False
        harness.engine.ingest("person:Tom:place", "living room")
        assert harness.engine.rule_truth("r") is True
