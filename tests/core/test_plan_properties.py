"""Property tests for condition compilation.

``compile_condition`` rewrites a condition tree three ways — DNF
expansion, key-based slot dedup and clause subsumption reduction — and
PR 6 adds ``sys.intern`` on every atom key and variable name.  These
tests prove the rewrites preserve semantics: for random condition trees
over a deliberately small atom pool (so dedup and subsumption actually
trigger), compiled truth from the slot bitset must equal the tree
evaluator on random worlds, and interning must hand structurally equal
plans pointer-identical key objects.
"""

import random
import sys

import pytest

from repro.core.condition import (
    AndCondition,
    DiscreteAtom,
    EventAtom,
    FalseAtom,
    MembershipAtom,
    NumericAtom,
    OrCondition,
    TimeWindowAtom,
    TrueAtom,
)
from repro.core.plan import compile_condition
from repro.sim.clock import SECONDS_PER_DAY
from repro.solver.linear import LinearConstraint, LinearExpr, Relation

VARS = ("s:temperature", "s:humidity", "s:illuminance")
VALUE_GRID = [10.0 + 2.5 * i for i in range(30)]
ROOMS = ("living room", "kitchen", "bedroom")
PEOPLE = ("Tom", "Alan")
KEYWORDS = ("baseball", "news", "movie")
EVENTS = ("returns home", "leaves home")


class RandomWorld:
    """A random but fixed world snapshot implementing EvaluationContext."""

    def __init__(self, rng: random.Random) -> None:
        self.numerics = {
            variable: rng.choice(VALUE_GRID) if rng.random() < 0.9 else None
            for variable in VARS
        }
        self.discretes = {
            f"person:{person}:place": rng.choice(ROOMS)
            for person in PEOPLE
            if rng.random() < 0.8
        }
        self.members = frozenset(
            keyword for keyword in KEYWORDS if rng.random() < 0.4
        )
        self.tod = rng.uniform(0.0, SECONDS_PER_DAY)
        self.day = rng.randrange(7)
        self.events = {
            (event, person)
            for event in EVENTS
            for person in PEOPLE
            if rng.random() < 0.2
        }

    def numeric(self, variable):
        return self.numerics.get(variable)

    def discrete(self, variable):
        return self.discretes.get(variable)

    def set_members(self, variable):
        return self.members

    def time_of_day(self):
        return self.tod

    def weekday(self):
        return self.day

    def event_fired(self, event_type, subject):
        return any(
            fired_type == event_type
            and (subject is None or fired_subject == subject)
            for fired_type, fired_subject in self.events
        )

    def held(self, key, currently_true, duration):
        raise AssertionError("generator must not produce duration atoms")


def make_atom_factory(rng: random.Random):
    """A zero-arg factory producing *fresh but equal* atoms on each call
    (dedup must work through keys, not shared object identity)."""
    kind = rng.randrange(8)
    if kind < 3:
        variable = rng.choice(VARS)
        relation = rng.choice((Relation.GT, Relation.LT, Relation.EQ))
        bound = rng.choice(VALUE_GRID)
        return lambda: NumericAtom(
            LinearConstraint.make(LinearExpr.var(variable), relation, bound)
        )
    if kind == 3:
        left, right = rng.sample(VARS, 2)
        bound = rng.choice(VALUE_GRID)
        return lambda: NumericAtom(LinearConstraint.make(
            LinearExpr.var(left) - LinearExpr.var(right),
            Relation.GT, bound,
        ))
    if kind == 4:
        person = rng.choice(PEOPLE)
        room = rng.choice(ROOMS)
        negated = rng.random() < 0.3
        return lambda: DiscreteAtom(
            f"person:{person}:place", room, negated=negated
        )
    if kind == 5:
        keyword = rng.choice(KEYWORDS)
        negated = rng.random() < 0.3
        return lambda: MembershipAtom(
            "epg:guide:keywords", keyword, negated=negated
        )
    if kind == 6:
        start = rng.uniform(0.0, SECONDS_PER_DAY)
        end = rng.uniform(0.0, SECONDS_PER_DAY)
        weekday = rng.randrange(7) if rng.random() < 0.3 else None
        return lambda: TimeWindowAtom(start, end, weekday=weekday)
    event = rng.choice(EVENTS)
    subject = rng.choice(PEOPLE) if rng.random() < 0.5 else None
    return lambda: EventAtom(event, subject=subject)


def random_condition(rng: random.Random, factories, depth: int = 0):
    roll = rng.random()
    if depth >= 2 or roll < 0.35:
        if roll < 0.03:
            return TrueAtom()
        if roll < 0.06:
            return FalseAtom()
        return rng.choice(factories)()
    children = [
        random_condition(rng, factories, depth + 1)
        for _ in range(rng.randrange(2, 4))
    ]
    combine = AndCondition if rng.random() < 0.5 else OrCondition
    return combine(children)


def compiled_truth(plan, world) -> bool:
    bits = 0
    for bit, _key, atom in plan.static_slots:
        if atom.evaluate(world):
            bits |= bit
    bits |= plan.volatile_bits(world)
    return plan.truth(bits)


@pytest.mark.parametrize("seed", (1, 2026, 777))
def test_compiled_truth_matches_tree_on_random_worlds(seed):
    rng = random.Random(seed)
    factories = [make_atom_factory(rng) for _ in range(10)]
    for _ in range(40):
        condition = random_condition(rng, factories)
        plan = compile_condition(condition)
        assert not plan.has_duration
        # The subsumption reduction must leave no redundant clause.
        for i, mask in enumerate(plan.clauses):
            for j, other in enumerate(plan.clauses):
                if i != j:
                    assert (mask & other) != other, \
                        f"clause {other:b} subsumes surviving {mask:b}"
        for _ in range(25):
            world = RandomWorld(rng)
            assert compiled_truth(plan, world) == condition.evaluate(world), \
                f"compiled truth diverged for {condition.describe()!r}"


@pytest.mark.parametrize("seed", (5, 909))
def test_structurally_equal_plans_share_interned_keys(seed):
    """Two compilations of fresh-but-equal trees must yield
    pointer-identical atom keys and variable names — the property the
    columnar interner's dict probes rely on."""
    rng_a = random.Random(seed)
    rng_b = random.Random(seed)
    factories_a = [make_atom_factory(rng_a) for _ in range(10)]
    factories_b = [make_atom_factory(rng_b) for _ in range(10)]
    for _ in range(20):
        cond_a = random_condition(rng_a, factories_a)
        cond_b = random_condition(rng_b, factories_b)
        assert cond_a.key() == cond_b.key()
        plan_a = compile_condition(cond_a)
        plan_b = compile_condition(cond_b)
        for (_, key_a, _), (_, key_b, _) in zip(
            plan_a.static_slots, plan_b.static_slots
        ):
            assert key_a is key_b
        for variable in plan_a.variables:
            assert variable is sys.intern(variable)
