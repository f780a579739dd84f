"""Unit tests for condition compilation (CompiledPlan)."""

import random

import pytest

from repro.core.condition import (
    AndCondition,
    DurationAtom,
    EventAtom,
    FalseAtom,
    OrCondition,
    TimeWindowAtom,
    TrueAtom,
)
from repro.core.plan import compile_condition, numeric_threshold
from repro.sim.clock import hhmm
from repro.solver.linear import LinearConstraint, LinearExpr, Relation

from tests.core.conftest import (
    FakeContext,
    in_room,
    numeric_atom,
    on_air,
    temp_above,
)


def bits_for(plan, ctx):
    bits = 0
    for slot, atom in enumerate(plan.atoms):
        if atom.evaluate(ctx):
            bits |= 1 << slot
    return bits


class TestCompilation:
    def test_atoms_deduplicated_by_key(self):
        condition = OrCondition([
            AndCondition([temp_above(28), in_room("Tom")]),
            AndCondition([temp_above(28), in_room("Alan")]),
        ])
        plan = compile_condition(condition)
        assert len(plan.atoms) == 3  # shared temp atom gets one slot
        assert len(plan.clauses) == 2

    def test_subsumed_clause_dropped(self):
        shared = temp_above(28)
        condition = OrCondition([
            shared,
            AndCondition([temp_above(28), in_room("Tom")]),
        ])
        plan = compile_condition(condition)
        # (temp) subsumes (temp AND room): one clause survives.
        assert len(plan.clauses) == 1

    def test_true_atom_contributes_no_slot(self):
        condition = AndCondition([TrueAtom(), temp_above(28)])
        plan = compile_condition(condition)
        assert len(plan.atoms) == 1

    def test_false_conjunction_dropped(self):
        condition = OrCondition([
            AndCondition([FalseAtom(), temp_above(28)]),
            in_room("Tom"),
        ])
        plan = compile_condition(condition)
        assert len(plan.clauses) == 1
        assert not plan.truth(0)

    def test_constant_conditions(self):
        assert compile_condition(TrueAtom()).truth(0) is True
        assert compile_condition(FalseAtom()).truth(0) is False

    def test_volatile_classification(self):
        condition = AndCondition([
            temp_above(28),
            TimeWindowAtom(hhmm(17), hhmm(21)),
            EventAtom("returns home"),
        ])
        plan = compile_condition(condition)
        assert len(plan.static_slots) == 1
        assert len(plan.volatile_slots) == 2
        assert not plan.has_duration

    def test_duration_marks_plan_stateful(self):
        condition = DurationAtom(in_room("Tom"), 60.0)
        plan = compile_condition(condition)
        assert plan.has_duration

    def test_variable_footprint_cached(self):
        condition = AndCondition([temp_above(28), in_room("Tom")])
        plan = compile_condition(condition)
        assert plan.variables == frozenset(
            {"thermo:t:temperature", "person:Tom:place"}
        )


class TestTruthEquivalence:
    def test_random_conditions_agree_with_tree_evaluation(self):
        rng = random.Random(7)
        pool = [
            temp_above(20), temp_above(25),
            numeric_atom("hygro:h:humidity", Relation.LT, 60),
            in_room("Tom"), in_room("Alan", "kitchen"),
            on_air("baseball"),
        ]

        def random_condition(depth=0):
            roll = rng.random()
            if depth >= 2 or roll < 0.4:
                return rng.choice(pool)
            combiner = AndCondition if roll < 0.7 else OrCondition
            return combiner([
                random_condition(depth + 1)
                for _ in range(rng.randint(2, 3))
            ])

        for _ in range(200):
            condition = random_condition()
            plan = compile_condition(condition)
            ctx = FakeContext(
                numeric={
                    "thermo:t:temperature": rng.uniform(10, 35),
                    "hygro:h:humidity": rng.uniform(30, 90),
                },
                discrete={
                    "person:Tom:place": rng.choice(
                        ("living room", "kitchen")),
                    "person:Alan:place": rng.choice(
                        ("living room", "kitchen")),
                },
                sets={"epg:guide:keywords":
                      rng.choice(((), ("baseball",)))},
            )
            assert plan.truth(bits_for(plan, ctx)) == condition.evaluate(ctx)


class TestNumericThreshold:
    def make(self, expr, relation, bound):
        from repro.core.condition import NumericAtom
        return NumericAtom(LinearConstraint.make(expr, relation, bound))

    def test_less_than_is_below(self):
        atom = self.make(LinearExpr.var("t"), Relation.LT, 28.0)
        variable, kind, threshold, guard = numeric_threshold(atom)
        assert (variable, kind) == ("t", "below")
        assert threshold == pytest.approx(28.0)
        assert guard > 0

    def test_greater_than_is_above(self):
        atom = self.make(LinearExpr.var("t"), Relation.GT, 28.0)
        _, kind, threshold, _ = numeric_threshold(atom)
        assert kind == "above"
        assert threshold == pytest.approx(28.0)

    def test_negative_coefficient_flips_kind(self):
        atom = self.make(LinearExpr.var("t") * -2.0, Relation.LT, -50.0)
        _, kind, threshold, _ = numeric_threshold(atom)
        # -2t < -50  ==  t > 25: true above.
        assert kind == "above"
        assert threshold == pytest.approx(25.0)

    def test_equality_needs_recheck(self):
        atom = self.make(LinearExpr.var("t"), Relation.EQ, 28.0)
        assert numeric_threshold(atom) is None

    def test_multivariable_needs_recheck(self):
        atom = self.make(
            LinearExpr.var("t") - LinearExpr.var("h"), Relation.GT, 5.0
        )
        assert numeric_threshold(atom) is None

    def test_threshold_truth_matches_evaluation(self):
        """The kind/threshold descriptor must agree with satisfied_by on
        either side of the boundary."""
        rng = random.Random(3)
        for _ in range(100):
            coefficient = rng.choice((-3.0, -1.0, 0.5, 1.0, 2.0))
            relation = rng.choice(
                (Relation.LT, Relation.LE, Relation.GT, Relation.GE))
            bound = rng.uniform(-50, 50)
            atom = self.make(
                LinearExpr.var("x") * coefficient, relation, bound)
            _, kind, threshold, _ = numeric_threshold(atom)
            below = FakeContext(numeric={"x": threshold - 1.0})
            above = FakeContext(numeric={"x": threshold + 1.0})
            if kind == "below":
                assert atom.evaluate(below) and not atom.evaluate(above)
            else:
                assert atom.evaluate(above) and not atom.evaluate(below)
