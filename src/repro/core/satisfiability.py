"""Satisfiability of condition clauses, decided on bounds boxes.

This is the registration-time analysis used by both the consistency
check (Sect. 4.4 "whether the condition can hold") and the conflict
check ("whether there is a value satisfying both conditions
simultaneously").  A condition is satisfiable iff at least one DNF
clause is, and two conditions can hold together iff some pair of their
clauses can.

Each clause is folded once into a :class:`ClauseBox`, split by atom
type:

* numeric atoms → per-variable intervals with strictness on each end
  (:func:`repro.solver.intervals.fold_intervals`), plus the constraint
  list itself;
* discrete atoms → positive values per variable and negated
  ``(variable, value)`` pairs;
* membership atoms → positive and negated ``(variable, member)`` pairs;
* time windows → the arcs on the day circle that every window of the
  clause shares, plus the one weekday they require;
* event and duration-marker atoms impose no further static constraint.

A box is non-empty when none of its parts contradicts itself
(:meth:`ClauseBox.satisfiable`).  Two boxes meet without building the
concatenated conjunction (:meth:`ClauseBox.meets`): intervals intersect
bound for bound, discrete and member contradictions are set lookups,
and arcs intersect.  A box holding a constraint over several variables
is decided by :func:`repro.solver.feasible` over all its numeric
constraints — the two-phase Simplex, the paper's E2 method — and so is
every numeric part when ``prefer_intervals`` is off.  Either way the
verdict is the one the concatenated conjunction gets.

A registered condition keeps its boxes in its compiled plan
(:meth:`repro.core.plan.CompiledPlan.boxes`); the functions here build
them per call.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from repro.core.condition import (
    Atom,
    Condition,
    Conjunction,
    DiscreteAtom,
    DurationAtom,
    EventAtom,
    FalseAtom,
    MembershipAtom,
    NumericAtom,
    TimeWindowAtom,
    TrueAtom,
)
from repro.sim.clock import SECONDS_PER_DAY
from repro.solver import feasible
from repro.solver.intervals import (
    Bounds,
    bounds_empty,
    bounds_meet,
    fold_intervals,
)
from repro.solver.linear import LinearConstraint

_FULL_DAY = ((0.0, SECONDS_PER_DAY),)
_NO_PAIRS: frozenset = frozenset()
_NO_ENTRIES: Mapping = MappingProxyType({})


class ClauseBox:
    """One DNF clause folded for satisfiability.

    Attributes:
        constraints: the clause's numeric constraints, in atom order.
        coupled: some constraint reads several variables, so the
            numeric part is left to :func:`repro.solver.feasible`.
        intervals: per variable, the interval the single-variable
            constraints leave, as ``(low, low_strict, high,
            high_strict)`` (empty when ``coupled``).
        intervals_ok: the interval fold admits a point: no false ground
            constraint and no empty interval (unused when ``coupled``).
        contradicted: a ``FalseAtom``, or a contradiction among the
            discrete, member or window parts.
        positives: variable → the value a discrete atom requires.
        negatives: ``(variable, value)`` pairs negated discrete atoms
            exclude.
        members / non_members: ``(variable, member)`` pairs required
            in / out of a set variable.
        weekday: the weekday some window requires, or None.
        arcs: the ``[start, end)`` time-of-day arcs every window
            admits, or None when the clause has no window.
    """

    __slots__ = ("constraints", "coupled", "intervals", "intervals_ok",
                 "contradicted", "positives", "negatives", "members",
                 "non_members", "weekday", "arcs")

    def __init__(self, atoms: Iterable[Atom]) -> None:
        numeric: list[LinearConstraint] = []
        positives: dict[str, str] = {}
        negatives: set[tuple[str, str]] = set()
        members: set[tuple[str, str]] = set()
        non_members: set[tuple[str, str]] = set()
        weekday: int | None = None
        arcs: tuple[tuple[float, float], ...] | None = None
        contradicted = False
        for atom in atoms:
            if isinstance(atom, NumericAtom):
                numeric.append(atom.constraint)
            elif isinstance(atom, DiscreteAtom):
                if atom.negated:
                    negatives.add((atom.variable, atom.value))
                elif positives.setdefault(atom.variable,
                                          atom.value) != atom.value:
                    contradicted = True  # var == a  and  var == b
            elif isinstance(atom, MembershipAtom):
                pair = (atom.variable, atom.member)
                (non_members if atom.negated else members).add(pair)
            elif isinstance(atom, TimeWindowAtom):
                if atom.weekday is not None:
                    if weekday is None:
                        weekday = atom.weekday
                    elif weekday != atom.weekday:
                        contradicted = True  # an instant has one weekday
                arcs = _meet_arcs(_FULL_DAY if arcs is None else arcs,
                                  atom.arcs())
                if not arcs:
                    contradicted = True
            elif isinstance(atom, FalseAtom):
                contradicted = True
            elif not isinstance(atom, (TrueAtom, EventAtom, DurationAtom)):
                raise TypeError(f"unknown atom type: {type(atom).__name__}")
        if negatives and any((variable, value) in negatives
                             for variable, value in positives.items()):
            contradicted = True  # var == a  and  var != a
        if members and not members.isdisjoint(non_members):
            contradicted = True  # k in S  and  k not in S
        folded = fold_intervals(numeric)
        self.constraints = tuple(numeric)
        self.coupled = folded is None
        self.intervals: Mapping[str, Bounds] = folded or _NO_ENTRIES
        self.intervals_ok = folded is not False and not (
            folded and any(map(bounds_empty, folded.values())))
        self.contradicted = contradicted
        self.positives: Mapping[str, str] = positives or _NO_ENTRIES
        self.negatives = frozenset(negatives) if negatives else _NO_PAIRS
        self.members = frozenset(members) if members else _NO_PAIRS
        self.non_members = \
            frozenset(non_members) if non_members else _NO_PAIRS
        self.weekday = weekday
        self.arcs = arcs

    def satisfiable(self, *, prefer_intervals: bool = True) -> bool:
        """True iff some world state satisfies the clause."""
        if self.contradicted:
            return False
        if not self.constraints:
            return True
        if prefer_intervals and not self.coupled:
            return self.intervals_ok
        return feasible(list(self.constraints),
                        prefer_intervals=prefer_intervals)

    def meets(self, other: "ClauseBox", *,
              prefer_intervals: bool = True) -> bool:
        """True iff some world state satisfies both clauses — the verdict
        of their concatenated conjunction, without building it."""
        if self.contradicted or other.contradicted:
            return False
        for variable, value in self.positives.items():
            if other.positives.get(variable, value) != value \
                    or (variable, value) in other.negatives:
                return False
        if self.negatives:
            for variable, value in other.positives.items():
                if (variable, value) in self.negatives:
                    return False
        if not (self.members.isdisjoint(other.non_members)
                and other.members.isdisjoint(self.non_members)):
            return False
        if self.arcs is not None and other.arcs is not None:
            if self.weekday is not None and other.weekday is not None \
                    and self.weekday != other.weekday:
                return False
            if not _meet_arcs(self.arcs, other.arcs):
                return False
        if not (self.constraints or other.constraints):
            return True
        if prefer_intervals and not (self.coupled or other.coupled):
            if not (self.intervals_ok and other.intervals_ok):
                return False
            small, large = self.intervals, other.intervals
            if len(small) > len(large):
                small, large = large, small
            for variable, bounds in small.items():
                others = large.get(variable)
                if others is not None and not bounds_meet(bounds, others):
                    return False
            return True
        return feasible([*self.constraints, *other.constraints],
                        prefer_intervals=prefer_intervals)


def _meet_arcs(
    arcs: Sequence[tuple[float, float]],
    others: Sequence[tuple[float, float]],
) -> tuple[tuple[float, float], ...]:
    """The non-empty pairwise intersections of two arc sets."""
    return tuple(
        (max(lo, other_lo), min(hi, other_hi))
        for lo, hi in arcs
        for other_lo, other_hi in others
        if max(lo, other_lo) < min(hi, other_hi)
    )


def condition_boxes(condition: Condition) -> list[ClauseBox]:
    """One box per DNF clause of ``condition``, built for this call."""
    return [ClauseBox(conjunct) for conjunct in condition.dnf()]


def some_box_satisfiable(boxes: Iterable[ClauseBox], *,
                         prefer_intervals: bool = True) -> bool:
    """True iff some clause box is non-empty."""
    return any(box.satisfiable(prefer_intervals=prefer_intervals)
               for box in boxes)


def some_boxes_meet(lefts: Sequence[ClauseBox], rights: Sequence[ClauseBox],
                    *, prefer_intervals: bool = True) -> bool:
    """True iff some box of ``lefts`` meets some box of ``rights``."""
    for left in lefts:
        for right in rights:
            if left.meets(right, prefer_intervals=prefer_intervals):
                return True
    return False


def condition_satisfiable(condition: Condition, *,
                          prefer_intervals: bool = True) -> bool:
    """True iff some world state makes ``condition`` hold."""
    return some_box_satisfiable(condition_boxes(condition),
                                prefer_intervals=prefer_intervals)


def conditions_jointly_satisfiable(
    first: Condition, second: Condition, *, prefer_intervals: bool = True
) -> bool:
    """True iff some single world state makes *both* conditions hold —
    the paper's definition of a potential conflict."""
    return some_boxes_meet(condition_boxes(first), condition_boxes(second),
                           prefer_intervals=prefer_intervals)


def conjunction_satisfiable(
    atoms: Conjunction | Sequence[Atom], *, prefer_intervals: bool = True
) -> bool:
    """Decide one conjunction of atoms."""
    return ClauseBox(atoms).satisfiable(prefer_intervals=prefer_intervals)
