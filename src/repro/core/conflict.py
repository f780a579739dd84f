"""Conflict detection among rules (the paper's E2 path).

Paper, Sect. 4.4, three steps on every registration:

1. extract the registered rules that control the same device as the new
   rule (indexed in :class:`~repro.core.database.RuleDatabase`);
2. for each extracted rule, concatenate the two condition conjunctions;
3. check whether the combined system has a feasible solution.

A pair conflicts when both conditions can hold simultaneously **and**
the two rules would drive the device differently (identical effects are
harmless, which the paper implies by defining conflict as performing
"different actions to the same device").
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.database import RuleDatabase
from repro.core.rule import Rule
from repro.core.satisfiability import conditions_jointly_satisfiable
from repro.errors import RuleError


@dataclass(frozen=True)
class ConflictReport:
    """One detected pairwise conflict."""

    new_rule: str
    existing_rule: str
    device_udn: str
    device_name: str

    def describe(self) -> str:
        return (
            f"rule {self.new_rule!r} conflicts with {self.existing_rule!r} "
            f"over device {self.device_name!r}"
        )


class ConflictChecker:
    """Pairwise conflict detection against a rule database."""

    def __init__(self, database: RuleDatabase, *,
                 prefer_intervals: bool = True):
        self.database = database
        self.prefer_intervals = prefer_intervals

    # -- extraction (step 1) ---------------------------------------------------

    def extract_same_device_rules(self, rule: Rule) -> list[Rule]:
        """Registered rules sharing at least one target device with
        ``rule`` (excluding the rule itself)."""
        candidates: dict[str, Rule] = {}
        for udn in rule.devices():
            for match in self.database.rules_for_device(udn):
                if match.name != rule.name:
                    candidates[match.name] = match
        return sorted(candidates.values(), key=lambda r: r.rule_id)

    # -- pairwise check (steps 2-3) ----------------------------------------------

    def conflicts_with(self, new_rule: Rule, existing: Rule) -> ConflictReport | None:
        """Check one pair; returns a report or None."""
        shared = self._shared_devices(new_rule, existing)
        if not shared:
            return None
        if not self._effects_differ(new_rule, existing, shared):
            return None
        if not conditions_jointly_satisfiable(
            new_rule.condition,
            existing.condition,
            prefer_intervals=self.prefer_intervals,
        ):
            return None
        udn, name = shared[0]
        return ConflictReport(
            new_rule=new_rule.name,
            existing_rule=existing.name,
            device_udn=udn,
            device_name=name,
        )

    def find_conflicts(self, new_rule: Rule) -> list[ConflictReport]:
        """Full registration-time check of ``new_rule`` against the DB."""
        reports = []
        for existing in self.extract_same_device_rules(new_rule):
            if not existing.enabled:
                continue
            report = self.conflicts_with(new_rule, existing)
            if report is not None:
                reports.append(report)
        return reports

    # -- helpers ---------------------------------------------------------------------

    @staticmethod
    def _specs_for(rule: Rule, udn: str):
        specs = []
        if rule.action.device_udn == udn:
            specs.append(rule.action)
        if rule.fallback is not None and rule.fallback.device_udn == udn:
            specs.append(rule.fallback)
        return specs

    def _shared_devices(self, a: Rule, b: Rule) -> list[tuple[str, str]]:
        """UDNs driven by both rules, with a display name for dialogs.

        Only *driving* actions (primary/fallback) count — a stop_action
        that merely reverts a device is not a competing use.
        """
        a_udns = {a.action.device_udn}
        if a.fallback is not None:
            a_udns.add(a.fallback.device_udn)
        shared = []
        for udn in sorted(a_udns):
            b_specs = self._specs_for(b, udn)
            if b_specs:
                name = self._specs_for(a, udn)[0].device_name
                shared.append((udn, name))
        return shared

    def _effects_differ(self, a: Rule, b: Rule,
                        shared: list[tuple[str, str]]) -> bool:
        for udn, _ in shared:
            for spec_a in self._specs_for(a, udn):
                for spec_b in self._specs_for(b, udn):
                    if not spec_a.same_effect_as(spec_b):
                        return True
        return False
