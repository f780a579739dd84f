"""Interval propagation for single-variable constraint systems.

Every CADEL atom the paper shows compares one sensor value against one
threshold ("temperature is higher than 28 degrees"), so most
satisfiability questions reduce to intersecting per-variable intervals
— no tableau needed.  An interval is a plain tuple of bounds with
strictness on each end, :data:`Bounds`.

* :func:`fold_intervals` folds a constraint list into one interval per
  variable.  It declines (returns ``None``) as soon as a constraint
  couples two or more variables.  The registration checks keep its
  result in each clause box (:mod:`repro.core.satisfiability`), where
  two clauses meet by intersecting their intervals bound for bound
  (:func:`bounds_meet`).
* :func:`interval_feasible` is that fold plus an emptiness check; it
  returns ``None`` for coupled systems, letting the caller fall back to
  Simplex.  Benchmark A1 compares the two.
"""

from __future__ import annotations

from repro.solver.linear import LinearConstraint, Relation

_INF = float("inf")

Bounds = tuple[float, bool, float, bool]
"""An interval as ``(low, low_strict, high, high_strict)``.  A plain
tuple of numbers, which CPython's cyclic collector stops tracking."""

UNBOUNDED: Bounds = (-_INF, False, _INF, False)


def bounds_empty(bounds: Bounds) -> bool:
    low, low_strict, high, high_strict = bounds
    if low > high:
        return True
    if low == high:
        return low_strict or high_strict
    return False


def bounds_meet(bounds: Bounds, others: Bounds) -> bool:
    """Whether two intervals share a point: the emptiness check of
    tightening one by both bounds of the other."""
    low, low_strict, high, high_strict = bounds
    other_low, other_low_strict, other_high, other_high_strict = others
    if other_low > low or (other_low == low and other_low_strict):
        low, low_strict = other_low, other_low_strict
    if other_high < high or (other_high == high and other_high_strict):
        high, high_strict = other_high, other_high_strict
    return not bounds_empty((low, low_strict, high, high_strict))


def fold_intervals(
    constraints: list[LinearConstraint] | tuple[LinearConstraint, ...],
) -> dict[str, Bounds] | bool | None:
    """Fold constraints into per-variable intervals, in order.

    Returns:
        the intervals by variable (some may be empty);
        False at a false ground constraint;
        None at a constraint over several variables.
    Whichever of the last two comes first in the list decides.
    """
    intervals: dict[str, Bounds] = {}
    for constraint in constraints:
        coefficients = constraint.expr.coefficients
        if len(coefficients) == 1:
            name, coef = coefficients[0]
        else:
            names = constraint.variables()
            if len(names) > 1:
                return None
            if not names:  # ground constraint
                if not constraint.trivially_true():
                    return False
                continue
            name = next(iter(names))
            coef = constraint.expr.as_dict()[name]
        bound = constraint.bound / coef
        low, low_strict, high, high_strict = intervals.get(name, UNBOUNDED)
        relation = constraint.relation
        if relation is Relation.EQ:
            if bound > low:
                low, low_strict = bound, False
            if bound < high:
                high, high_strict = bound, False
        else:
            strict = relation.is_strict
            # coef*x REL bound: dividing by a negative coef mirrors the
            # relation.
            if coef > 0:
                if bound < high or (bound == high and strict):
                    high, high_strict = bound, strict
            elif bound > low or (bound == low and strict):
                low, low_strict = bound, strict
        intervals[name] = (low, low_strict, high, high_strict)
    return intervals


def interval_feasible(constraints: list[LinearConstraint]) -> bool | None:
    """Decide feasibility when every constraint mentions ≤ 1 variable.

    Returns:
        True/False when decidable by interval intersection;
        None when some constraint couples several variables (caller
        should fall back to :func:`repro.solver.simplex.simplex_feasible`).
    """
    folded = fold_intervals(constraints)
    if folded is None or folded is False:
        return folded
    return not any(bounds_empty(bounds) for bounds in folded.values())
