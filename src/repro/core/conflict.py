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

Steps 2 and 3 run on the clause boxes of the compiled plans
(:mod:`repro.core.satisfiability`): each registered condition's boxes
are built once, and a pair check merges boxes instead of concatenating
and re-folding both conjunctions.  A check computes the new rule's
boxes, driving devices and effects once, and each extracted rule's
once.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.database import RuleDatabase
from repro.core.rule import Rule
from repro.core.satisfiability import ClauseBox, some_boxes_meet


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


_Drives = dict[str, tuple[str, list[tuple]]]


def _drives(rule: Rule) -> _Drives:
    """The devices a rule drives: per device, the name it shows in
    dialogs and the effects of the rule's specs on it, primary first."""
    action = rule.action
    drives = {action.device_udn: (action.device_name, [action.effect()])}
    fallback = rule.fallback
    if fallback is not None:
        entry = drives.get(fallback.device_udn)
        if entry is None:
            drives[fallback.device_udn] = (
                fallback.device_name, [fallback.effect()])
        else:
            entry[1].append(fallback.effect())
    return drives


class ConflictChecker:
    """Pairwise conflict detection against a rule database."""

    def __init__(self, database: RuleDatabase, *,
                 prefer_intervals: bool = True):
        self.database = database
        self.prefer_intervals = prefer_intervals

    # -- extraction (step 1) ---------------------------------------------------

    def extract_same_device_rules(self, rule: Rule) -> list[Rule]:
        """Registered rules sharing at least one target device with
        ``rule`` (excluding the rule itself), in ``rule_id`` order."""
        udns = rule.devices()
        if len(udns) == 1:
            # One bucket, which the index already keeps in rule_id order.
            return [match for match in
                    self.database.rules_for_device(next(iter(udns)))
                    if match.name != rule.name]
        candidates: dict[str, Rule] = {}
        for udn in udns:
            for match in self.database.rules_for_device(udn):
                if match.name != rule.name:
                    candidates[match.name] = match
        return sorted(candidates.values(), key=lambda r: r.rule_id)

    # -- pairwise check (steps 2-3) ----------------------------------------------

    def conflicts_with(self, new_rule: Rule, existing: Rule) -> ConflictReport | None:
        """Check one pair; returns a report or None."""
        return self._check(
            new_rule, _drives(new_rule),
            self.database.plan_for(new_rule.condition).boxes(), existing)

    def find_conflicts(self, new_rule: Rule) -> list[ConflictReport]:
        """Full registration-time check of ``new_rule`` against the DB."""
        drives = _drives(new_rule)
        boxes = self.database.plan_for(new_rule.condition).boxes()
        reports = []
        for existing in self.extract_same_device_rules(new_rule):
            if not existing.enabled:
                continue
            report = self._check(new_rule, drives, boxes, existing)
            if report is not None:
                reports.append(report)
        return reports

    def _check(self, new_rule: Rule, drives: _Drives,
               boxes: tuple[ClauseBox, ...],
               existing: Rule) -> ConflictReport | None:
        # Only *driving* actions (primary/fallback) count — a stop_action
        # that merely reverts a device is not a competing use.
        shared: list[str] = []
        differ = False
        for spec in (existing.action, existing.fallback):
            if spec is None:
                continue
            udn = spec.device_udn
            ours = drives.get(udn)
            if ours is None:
                continue
            if udn not in shared:
                shared.append(udn)
            if not differ:
                effect = spec.effect()
                for our_effect in ours[1]:
                    if effect != our_effect:
                        differ = True
                        break
        if not differ:
            return None  # no shared device, or each driven identically
        if not some_boxes_meet(
            boxes, self.database.plan_of(existing.name).boxes(),
            prefer_intervals=self.prefer_intervals,
        ):
            return None
        udn = min(shared)
        return ConflictReport(
            new_rule=new_rule.name,
            existing_rule=existing.name,
            device_udn=udn,
            device_name=drives[udn][0],
        )
