"""Registration-time inconsistency check.

Paper, Sect. 4.4: "Whenever a new rule is described and registered in
the system, the module evaluates the condition in the new rule to check
whether it can hold.  If the condition cannot hold, the module warns the
user to modify the condition in the rule."

A condition can hold iff one of its clause boxes is non-empty
(:mod:`repro.core.satisfiability`).  The registration pipeline hands
over the rule's compiled plan, whose boxes the conflict check reads
next; without one, and for the ``until`` postcondition (which has no
plan), the boxes are built for the call.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.rule import Rule
from repro.core.satisfiability import (
    condition_boxes,
    condition_satisfiable,
    some_box_satisfiable,
)
from repro.errors import InconsistentRuleError

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.core.plan import CompiledPlan


class ConsistencyChecker:
    """Decides whether a rule's condition can ever hold.

    Args:
        prefer_intervals: decide single-variable numeric parts on their
            intervals (off, every numeric part runs the two-phase
            Simplex).
    """

    def __init__(self, prefer_intervals: bool = True):
        self.prefer_intervals = prefer_intervals

    def _failing_part(self, rule: Rule,
                      plan: "CompiledPlan | None") -> str | None:
        boxes = plan.boxes() if plan is not None \
            else condition_boxes(rule.condition)
        if not some_box_satisfiable(
            boxes, prefer_intervals=self.prefer_intervals
        ):
            return "the trigger condition"
        if rule.until is not None and not condition_satisfiable(
            rule.until, prefer_intervals=self.prefer_intervals
        ):
            return "the 'until' postcondition"
        return None

    def is_consistent(self, rule: Rule) -> bool:
        """True iff the rule's condition (and its ``until`` postcondition,
        when present) are each satisfiable."""
        return self._failing_part(rule, None) is None

    def require_consistent(self, rule: Rule,
                           plan: "CompiledPlan | None" = None) -> None:
        """Raise :class:`InconsistentRuleError` when the rule can't hold.
        ``plan`` is the compiled plan of the rule's condition, when the
        caller holds it."""
        part = self._failing_part(rule, plan)
        if part is not None:
            raise InconsistentRuleError(rule.name, part)
