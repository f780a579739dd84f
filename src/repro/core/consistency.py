"""Registration-time inconsistency check.

Paper, Sect. 4.4: "Whenever a new rule is described and registered in
the system, the module evaluates the condition in the new rule to check
whether it can hold.  If the condition cannot hold, the module warns the
user to modify the condition in the rule."
"""

from __future__ import annotations

from repro.core.rule import Rule
from repro.core.satisfiability import condition_satisfiable
from repro.errors import InconsistentRuleError


class ConsistencyChecker:
    """Decides whether a rule's condition can ever hold.

    Args:
        prefer_intervals: use the interval fast path before Simplex
            (off, every check runs the two-phase Simplex).
    """

    def __init__(self, prefer_intervals: bool = True):
        self.prefer_intervals = prefer_intervals

    def is_consistent(self, rule: Rule) -> bool:
        """True iff the rule's condition (and its ``until`` postcondition,
        when present) are each satisfiable."""
        if not condition_satisfiable(
            rule.condition, prefer_intervals=self.prefer_intervals
        ):
            return False
        if rule.until is not None and not condition_satisfiable(
            rule.until, prefer_intervals=self.prefer_intervals
        ):
            return False
        return True

    def require_consistent(self, rule: Rule) -> None:
        """Raise :class:`InconsistentRuleError` when the rule can't hold."""
        if not condition_satisfiable(
            rule.condition, prefer_intervals=self.prefer_intervals
        ):
            raise InconsistentRuleError(rule.name, "the trigger condition")
        if rule.until is not None and not condition_satisfiable(
            rule.until, prefer_intervals=self.prefer_intervals
        ):
            raise InconsistentRuleError(rule.name, "the 'until' postcondition")
