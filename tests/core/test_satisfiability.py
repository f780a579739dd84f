"""Tests for conjunction/condition satisfiability and the checkers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.condition import (
    AndCondition,
    DiscreteAtom,
    DurationAtom,
    EventAtom,
    FalseAtom,
    MembershipAtom,
    NumericAtom,
    OrCondition,
    TimeWindowAtom,
    TrueAtom,
)
from repro.core.consistency import ConsistencyChecker
from repro.core.plan import compile_condition
from repro.core.satisfiability import (
    ClauseBox,
    condition_satisfiable,
    conditions_jointly_satisfiable,
    conjunction_satisfiable,
    some_box_satisfiable,
    some_boxes_meet,
)
from repro.errors import InconsistentRuleError
from repro.sim.clock import SECONDS_PER_DAY, hhmm
from repro.solver import feasible
from repro.solver.linear import LinearConstraint, LinearExpr, Relation

from tests.core.conftest import (
    action,
    humid_above,
    in_room,
    make_rule,
    numeric_atom,
    on_air,
    temp_above,
)


class TestConjunctionSatisfiability:
    def test_empty_conjunction(self):
        assert conjunction_satisfiable(())

    def test_false_atom_kills(self):
        assert not conjunction_satisfiable((FalseAtom(), TrueAtom()))

    def test_numeric_band(self):
        sat = (temp_above(20), numeric_atom("thermo:t:temperature", Relation.LT, 30))
        unsat = (temp_above(30), numeric_atom("thermo:t:temperature", Relation.LT, 20))
        assert conjunction_satisfiable(sat)
        assert not conjunction_satisfiable(unsat)

    def test_discrete_same_value_ok(self):
        assert conjunction_satisfiable((in_room("Tom"), in_room("Tom")))

    def test_discrete_two_places_conflict(self):
        atoms = (
            DiscreteAtom("person:Tom:place", "living room"),
            DiscreteAtom("person:Tom:place", "kitchen"),
        )
        assert not conjunction_satisfiable(atoms)

    def test_discrete_positive_vs_negative(self):
        atoms = (
            DiscreteAtom("person:Tom:place", "living room"),
            DiscreteAtom("person:Tom:place", "living room", negated=True),
        )
        assert not conjunction_satisfiable(atoms)

    def test_discrete_negative_only_ok(self):
        atoms = (
            DiscreteAtom("person:Tom:place", "kitchen", negated=True),
            DiscreteAtom("person:Tom:place", "hall", negated=True),
        )
        assert conjunction_satisfiable(atoms)

    def test_two_persons_two_places_ok(self):
        atoms = (in_room("Tom"), DiscreteAtom("person:Alan:place", "kitchen"))
        assert conjunction_satisfiable(atoms)

    def test_membership_two_keywords_ok(self):
        assert conjunction_satisfiable((on_air("movie"), on_air("baseball game")))

    def test_membership_contradiction(self):
        atoms = (
            on_air("movie"),
            MembershipAtom("epg:guide:keywords", "movie", negated=True),
        )
        assert not conjunction_satisfiable(atoms)

    def test_time_windows_overlap(self):
        atoms = (
            TimeWindowAtom(hhmm(17), hhmm(21)),
            TimeWindowAtom(hhmm(20), hhmm(23)),
        )
        assert conjunction_satisfiable(atoms)

    def test_time_windows_disjoint(self):
        atoms = (
            TimeWindowAtom(hhmm(6), hhmm(9)),
            TimeWindowAtom(hhmm(17), hhmm(21)),
        )
        assert not conjunction_satisfiable(atoms)

    def test_wrapping_window_overlaps_morning(self):
        night = TimeWindowAtom(hhmm(21), hhmm(6))
        morning = TimeWindowAtom(hhmm(5), hhmm(9))
        assert conjunction_satisfiable((night, morning))

    def test_weekday_disagreement(self):
        atoms = (
            TimeWindowAtom(0, hhmm(23, 59), weekday=0),
            TimeWindowAtom(0, hhmm(23, 59), weekday=3),
        )
        assert not conjunction_satisfiable(atoms)

    def test_weekday_agreement(self):
        atoms = (
            TimeWindowAtom(hhmm(6), hhmm(12), weekday=0),
            TimeWindowAtom(hhmm(8), hhmm(10), weekday=0),
        )
        assert conjunction_satisfiable(atoms)

    def test_events_and_durations_neutral(self):
        atoms = (
            EventAtom("returns home"),
            DurationAtom(in_room("Tom"), 60.0),
            in_room("Tom"),
        )
        assert conjunction_satisfiable(atoms)

    def test_mixed_kind_independence(self):
        atoms = (temp_above(28), in_room("Tom"), on_air("movie"),
                 TimeWindowAtom(hhmm(17), hhmm(21)))
        assert conjunction_satisfiable(atoms)


class TestConditionSatisfiability:
    def test_or_rescues_unsat_branch(self):
        bad = AndCondition(
            [temp_above(30), numeric_atom("thermo:t:temperature", Relation.LT, 20)]
        )
        cond = OrCondition([bad, in_room("Tom")])
        assert condition_satisfiable(cond)

    def test_all_branches_unsat(self):
        bad1 = AndCondition(
            [temp_above(30), numeric_atom("thermo:t:temperature", Relation.LT, 20)]
        )
        bad2 = AndCondition([
            DiscreteAtom("person:Tom:place", "a"),
            DiscreteAtom("person:Tom:place", "b"),
        ])
        assert not condition_satisfiable(OrCondition([bad1, bad2]))

    def test_duration_inner_contradiction_propagates(self):
        bad_inner = AndCondition(
            [temp_above(30), numeric_atom("thermo:t:temperature", Relation.LT, 20)]
        )
        assert not condition_satisfiable(DurationAtom(bad_inner, 60.0))


class TestJointSatisfiability:
    def test_paper_hot_and_stuffy_overlap(self):
        # Tom: T>26 & H>65; Alan: T>25 & H>60 — both can hold (conflict).
        tom = AndCondition([temp_above(26), humid_above(65)])
        alan = AndCondition([temp_above(25), humid_above(60)])
        assert conditions_jointly_satisfiable(tom, alan)

    def test_disjoint_bands_not_joint(self):
        low = AndCondition(
            [temp_above(10), numeric_atom("thermo:t:temperature", Relation.LT, 15)]
        )
        high = AndCondition(
            [temp_above(20), numeric_atom("thermo:t:temperature", Relation.LT, 25)]
        )
        assert not conditions_jointly_satisfiable(low, high)

    def test_different_rooms_not_joint(self):
        tom_here = in_room("Tom", "living room")
        tom_there = DiscreteAtom("person:Tom:place", "bedroom")
        assert not conditions_jointly_satisfiable(tom_here, tom_there)

    def test_or_branches_explored(self):
        first = OrCondition([
            DiscreteAtom("person:Tom:place", "a"),
            DiscreteAtom("person:Tom:place", "b"),
        ])
        second = DiscreteAtom("person:Tom:place", "b")
        assert conditions_jointly_satisfiable(first, second)


class TestConsistencyChecker:
    def _rule_with(self, condition, until=None):
        return make_rule("r", "Tom", condition, action(), until=until)

    def test_consistent_rule_passes(self):
        checker = ConsistencyChecker()
        rule = self._rule_with(AndCondition([temp_above(28), in_room("Tom")]))
        assert checker.is_consistent(rule)
        checker.require_consistent(rule)  # no raise

    def test_inconsistent_rule_raises(self):
        checker = ConsistencyChecker()
        impossible = AndCondition(
            [temp_above(30), numeric_atom("thermo:t:temperature", Relation.LT, 20)]
        )
        rule = self._rule_with(impossible)
        assert not checker.is_consistent(rule)
        with pytest.raises(InconsistentRuleError, match="trigger condition"):
            checker.require_consistent(rule)

    def test_inconsistent_until_raises(self):
        checker = ConsistencyChecker()
        impossible = AndCondition([
            DiscreteAtom("x", "a"), DiscreteAtom("x", "b"),
        ])
        rule = self._rule_with(in_room("Tom"), until=impossible)
        with pytest.raises(InconsistentRuleError, match="until"):
            checker.require_consistent(rule)

    def test_simplex_only_mode(self):
        checker = ConsistencyChecker(prefer_intervals=False)
        rule = self._rule_with(AndCondition([temp_above(28), humid_above(60)]))
        assert checker.is_consistent(rule)


# -- clause boxes against the concatenated conjunction ------------------------
#
# The reference below is the pre-box decision procedure: split one
# concatenated conjunction by atom type and decide each part.  A clause
# box must reach the same verdict, on its own (``satisfiable``) and
# merged with another (``meets``), under both solver settings.


def reference_conjunction_satisfiable(atoms, *, prefer_intervals=True):
    numeric = []
    positives = {}
    negatives = {}
    member_pos = set()
    member_neg = set()
    windows = []
    for atom in atoms:
        if isinstance(atom, FalseAtom):
            return False
        if isinstance(atom, TrueAtom):
            continue
        if isinstance(atom, NumericAtom):
            numeric.append(atom.constraint)
        elif isinstance(atom, DiscreteAtom):
            if atom.negated:
                negatives.setdefault(atom.variable, set()).add(atom.value)
            else:
                existing = positives.get(atom.variable)
                if existing is not None and existing != atom.value:
                    return False
                positives[atom.variable] = atom.value
        elif isinstance(atom, MembershipAtom):
            pair = (atom.variable, atom.member)
            if atom.negated:
                member_neg.add(pair)
            else:
                member_pos.add(pair)
        elif isinstance(atom, TimeWindowAtom):
            windows.append(atom)
    for variable, value in positives.items():
        if value in negatives.get(variable, ()):
            return False
    if member_pos & member_neg:
        return False
    if windows and not _reference_windows_intersect(windows):
        return False
    if numeric and not feasible(numeric, prefer_intervals=prefer_intervals):
        return False
    return True


def _reference_windows_intersect(windows):
    weekdays = {w.weekday for w in windows if w.weekday is not None}
    if len(weekdays) > 1:
        return False
    arcs = [(0.0, SECONDS_PER_DAY)]
    for window in windows:
        new_arcs = []
        for lo, hi in arcs:
            for wlo, whi in window.arcs():
                start = max(lo, wlo)
                end = min(hi, whi)
                if start < end:
                    new_arcs.append((start, end))
        if not new_arcs:
            return False
        arcs = new_arcs
    return True


_GRID = st.sampled_from((-2.0, -1.0, 0.0, 1.0, 2.0))
_RELATIONS = st.sampled_from(tuple(Relation))


@st.composite
def single_variable_atoms(draw):
    """``coef*x REL bound`` with both coefficient signs; GE/GT come out
    of ``make`` as negated coefficients."""
    coef = draw(st.sampled_from((-2.0, -1.0, 1.0, 2.0)))
    variable = draw(st.sampled_from(("a", "a", "b")))
    return NumericAtom(LinearConstraint.make(
        LinearExpr.var(variable, coef), draw(_RELATIONS), draw(_GRID)))


@st.composite
def ground_atoms(draw):
    return NumericAtom(LinearConstraint.make(
        LinearExpr.const(draw(_GRID)), draw(_RELATIONS), draw(_GRID)))


@st.composite
def two_variable_atoms(draw):
    sign = draw(st.sampled_from((-1.0, 1.0)))
    return NumericAtom(LinearConstraint.make(
        LinearExpr.var("a") + LinearExpr.var("b", sign),
        draw(_RELATIONS), draw(_GRID)))


_HOURS = st.sampled_from((0, 6, 9, 12, 21, 24))


@st.composite
def window_atoms(draw):
    """Windows on a coarse hour grid: equal ends, ends that wrap
    midnight and full days, with or without a weekday."""
    return TimeWindowAtom(
        draw(_HOURS) * 3600.0, draw(_HOURS) * 3600.0,
        weekday=draw(st.sampled_from((None, None, 0, 3))))


_VALUES = st.sampled_from(("x", "y"))

box_atoms = st.one_of(
    single_variable_atoms(),
    single_variable_atoms(),
    ground_atoms(),
    two_variable_atoms(),
    st.builds(DiscreteAtom, st.sampled_from(("p", "q")), _VALUES,
              negated=st.booleans()),
    st.builds(MembershipAtom, st.just("s"), _VALUES, negated=st.booleans()),
    window_atoms(),
    st.just(TrueAtom()),
    st.just(FalseAtom()),
    st.just(EventAtom("returns home")),
    st.builds(DurationAtom, st.just(DiscreteAtom("p", "x")), st.just(60.0)),
)
conjunctions = st.lists(box_atoms, max_size=5).map(tuple)


# Bounds on one variable only, so that equal and strict bounds of the
# two sides meet often.
interval_conjunctions = st.lists(
    st.one_of(single_variable_atoms(), ground_atoms()),
    max_size=3).map(tuple)


@given(st.one_of(conjunctions, interval_conjunctions),
       st.one_of(conjunctions, interval_conjunctions), st.booleans())
@settings(max_examples=600, deadline=None)
def test_boxes_decide_like_the_concatenated_conjunction(
        left, right, prefer_intervals):
    box_left, box_right = ClauseBox(left), ClauseBox(right)
    assert box_left.satisfiable(prefer_intervals=prefer_intervals) \
        == reference_conjunction_satisfiable(
            left, prefer_intervals=prefer_intervals)
    assert box_left.meets(box_right, prefer_intervals=prefer_intervals) \
        == reference_conjunction_satisfiable(
            left + right, prefer_intervals=prefer_intervals)
    assert conjunction_satisfiable(
        left + right, prefer_intervals=prefer_intervals) \
        == reference_conjunction_satisfiable(
            left + right, prefer_intervals=prefer_intervals)


@given(st.lists(conjunctions, min_size=1, max_size=3),
       st.lists(conjunctions, min_size=1, max_size=3), st.booleans())
@settings(max_examples=200, deadline=None)
def test_plan_boxes_decide_like_every_clause_pair(
        lefts, rights, prefer_intervals):
    """A compiled plan's boxes (deduplicated atoms, subsumption-reduced
    clauses) give the verdicts of the raw DNF clauses."""
    def condition(clauses):
        return OrCondition([
            AndCondition(clause) if clause else TrueAtom()
            for clause in clauses
        ])

    first, second = condition(lefts), condition(rights)
    plan_first = compile_condition(first)
    plan_second = compile_condition(second)
    assert some_box_satisfiable(
        plan_first.boxes(), prefer_intervals=prefer_intervals) == any(
        reference_conjunction_satisfiable(
            clause, prefer_intervals=prefer_intervals)
        for clause in first.dnf())
    assert some_boxes_meet(
        plan_first.boxes(), plan_second.boxes(),
        prefer_intervals=prefer_intervals) == any(
        reference_conjunction_satisfiable(
            left + right, prefer_intervals=prefer_intervals)
        for left in first.dnf() for right in second.dnf())


_ONE_VARIABLE = [
    NumericAtom(LinearConstraint.make(
        LinearExpr.var("a", coef), relation, bound))
    for coef in (1.0, -1.0) for relation in Relation for bound in (0.0, 1.0)
]


@pytest.mark.parametrize("prefer_intervals", (True, False))
def test_boxes_meet_like_the_conjunction_on_every_small_bound_triple(
        prefer_intervals):
    """Every pairing of bounds on one variable, equal and strict ones
    included: a two-atom clause against a one-atom clause."""
    for first in _ONE_VARIABLE:
        for third in _ONE_VARIABLE + [TrueAtom()]:
            left = ClauseBox((first, third))
            for second in _ONE_VARIABLE:
                assert left.meets(
                    ClauseBox((second,)), prefer_intervals=prefer_intervals
                ) == reference_conjunction_satisfiable(
                    (first, third, second),
                    prefer_intervals=prefer_intervals,
                ), (first, third, second)
