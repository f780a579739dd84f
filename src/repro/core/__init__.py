"""Core framework: rule IR, database, consistency/conflict checking,
priorities and the rule-execution engine.

This package is the paper's home-server brain (Fig. 3):

* :mod:`repro.core.condition` / :mod:`repro.core.action` /
  :mod:`repro.core.rule` — the *rule object* representation CADEL
  sentences compile into ("the rule execution module does not execute
  rules by interpreting CADEL descriptions" — Sect. 4.1).
* :mod:`repro.core.plan` — compiled condition plans (deduplicated atom
  slots + DNF clause bitmasks), the incremental-evaluation IR; each
  also carries the clause bounds boxes the registration checks read.
* :mod:`repro.core.database` — indexed rule storage (device, owner,
  variable and variable-watch indexes; refcounted compiled plans).
* :mod:`repro.core.columnar` — the incremental engine's evaluation
  state: atoms and clauses deduplicated across rules, truth in flat
  arrays, and the write indexes that pick which atoms a write can flip.
* :mod:`repro.core.consistency` — the inconsistency check run at
  registration time (condition can never hold → warn the user).
* :mod:`repro.core.conflict` — same-device extraction + joint
  satisfiability, the paper's E2 experiment.
* :mod:`repro.core.priority` — context-attached priority orders
  (Sect. 3.2 "Avoidance of Device Conflict").
* :mod:`repro.core.wheel` — the time-window wheel waking clock rules
  only at their next window-boundary crossing.
* :mod:`repro.core.engine` — event-driven rule execution with runtime
  arbitration; ``incremental=False`` keeps the seed's full
  re-evaluation path as the executable spec.
* :mod:`repro.core.server` — the :class:`HomeServer` facade wiring all
  modules over the UPnP substrate.
"""

from repro.core.access import AccessDeniedError, AccessPolicy, Grant
from repro.core.action import ActionSpec, Setting
from repro.core.condition import (
    AndCondition,
    Condition,
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
from repro.core.conflict import ConflictChecker, ConflictReport
from repro.core.consistency import ConsistencyChecker
from repro.core.database import RuleDatabase
from repro.core.engine import RuleEngine
from repro.core.plan import CompiledPlan, compile_condition
from repro.core.wheel import TimeWheel, next_boundary
from repro.core.priority import PriorityManager, PriorityOrder
from repro.core.rule import Rule
from repro.core.server import HomeServer

__all__ = [
    "AccessDeniedError",
    "AccessPolicy",
    "Grant",
    "ActionSpec",
    "Setting",
    "AndCondition",
    "Condition",
    "DiscreteAtom",
    "DurationAtom",
    "EventAtom",
    "FalseAtom",
    "MembershipAtom",
    "NumericAtom",
    "OrCondition",
    "TimeWindowAtom",
    "TrueAtom",
    "ConflictChecker",
    "ConflictReport",
    "ConsistencyChecker",
    "RuleDatabase",
    "RuleEngine",
    "TimeWheel",
    "next_boundary",
    "CompiledPlan",
    "compile_condition",
    "PriorityManager",
    "PriorityOrder",
    "Rule",
    "HomeServer",
]
