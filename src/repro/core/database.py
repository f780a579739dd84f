"""Indexed rule database.

The conflict-check path of the paper's E2 experiment starts by
"extract[ing] existing rules which specify the same device as the new
rule"; with 10,000 registered rules that extraction must not scan.  The
database therefore maintains secondary indexes by device UDN, owner and
referenced variable, all with presorted cached buckets.

It also compiles every registered condition once into a refcounted
:class:`~repro.core.plan.CompiledPlan`, shared between rules with equal
conditions.  A validated registration stages the plan first
(:meth:`RuleDatabase.stage_plan`), so its consistency and conflict
checks read the clause boxes of the very plan that :meth:`add` then
takes; a registration that fails leaves nothing cached
(:meth:`RuleDatabase.unstage_plan`).  The database also keeps the
**variable-watch index**: rules the engine
must wake on *any* referenced-variable change (stateful duration plans
and plans with volatile time/event atoms).  Which atoms a write can
flip is the engine's concern — its
:class:`~repro.core.columnar.ColumnarState` keeps those indexes next to
the atom truth they drive.

All buckets are pruned on removal, so a long-running server that churns
rules does not leak index entries.
"""

from __future__ import annotations

from typing import Iterator

from repro.core.condition import Condition
from repro.core.plan import CompiledPlan, compile_condition
from repro.core.rule import Rule
from repro.errors import DuplicateRuleError, UnknownRuleError

_EMPTY: frozenset[str] = frozenset()


class _NameIndex:
    """name-bucket index with cached, rule_id-presorted materialisation."""

    __slots__ = ("_buckets", "_cache")

    def __init__(self) -> None:
        self._buckets: dict[str, set[str]] = {}
        self._cache: dict[str, list[Rule]] = {}

    def add(self, key: str, name: str) -> None:
        self._buckets.setdefault(key, set()).add(name)
        self._cache.pop(key, None)

    def discard(self, key: str, name: str) -> None:
        bucket = self._buckets.get(key)
        if bucket is None:
            return
        bucket.discard(name)
        self._cache.pop(key, None)
        if not bucket:
            del self._buckets[key]

    def sorted_rules(self, key: str, by_name: dict[str, Rule]) -> list[Rule]:
        cached = self._cache.get(key)
        if cached is None:
            cached = sorted(
                (by_name[n] for n in self._buckets.get(key, ())),
                key=lambda r: r.rule_id,
            )
            self._cache[key] = cached
        return list(cached)  # callers own their copy, like the seed's _collect

    def __len__(self) -> int:
        return len(self._buckets)

    def __contains__(self, key: str) -> bool:
        return key in self._buckets


class RuleDatabase:
    """In-memory rule store with device/owner/variable indexes."""

    def __init__(self) -> None:
        self._by_name: dict[str, Rule] = {}
        self._by_device = _NameIndex()
        self._by_owner = _NameIndex()
        self._by_variable = _NameIndex()
        # -- compiled plans and the variable-watch index ----------------------
        self._plans: dict[str, CompiledPlan] = {}       # condition key -> plan
        self._plan_refs: dict[str, int] = {}
        self._plan_by_rule: dict[str, CompiledPlan] = {}
        self._var_watch: dict[str, set[str]] = {}

    def __len__(self) -> int:
        return len(self._by_name)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __iter__(self) -> Iterator[Rule]:
        return iter(list(self._by_name.values()))

    # -- registration ----------------------------------------------------------

    def add(self, rule: Rule) -> None:
        """Register a rule; names are unique."""
        if rule.name in self._by_name:
            raise DuplicateRuleError(f"rule name already registered: {rule.name!r}")
        plan = self._acquire_plan(rule)
        self._by_name[rule.name] = rule
        self._plan_by_rule[rule.name] = plan
        for udn in rule.devices():
            self._by_device.add(udn, rule.name)
        self._by_owner.add(rule.owner, rule.name)
        variables = set(plan.variables)
        if rule.until is not None:
            variables |= rule.until.referenced_variables()
        for variable in variables:
            self._by_variable.add(variable, rule.name)
        if plan.has_duration or plan.volatile_slots:
            # Seed semantics: these rules must wake on every referenced-
            # variable change, not only on static-atom flips.
            for variable in variables:
                self._var_watch.setdefault(variable, set()).add(rule.name)

    def remove(self, name: str) -> Rule:
        """Deregister and return a rule; unknown names raise.

        Every index bucket the rule participated in is pruned when it
        empties — removal must not leak entries.
        """
        rule = self._by_name.pop(name, None)
        if rule is None:
            raise UnknownRuleError(f"no rule named {name!r}")
        plan = self._plan_by_rule.pop(name)
        for udn in rule.devices():
            self._by_device.discard(udn, name)
        self._by_owner.discard(rule.owner, name)
        variables = set(plan.variables)
        if rule.until is not None:
            variables |= rule.until.referenced_variables()
        for variable in variables:
            self._by_variable.discard(variable, name)
            watchers = self._var_watch.get(variable)
            if watchers is not None:
                watchers.discard(name)
                if not watchers:
                    del self._var_watch[variable]
        self._release_plan(plan)
        return rule

    def plan_for(self, condition: Condition) -> CompiledPlan:
        """The cached plan of an equal condition, else a fresh compile
        that is not cached."""
        plan = self._plans.get(condition.key())
        return plan if plan is not None else compile_condition(condition)

    def stage_plan(self, condition: Condition) -> CompiledPlan:
        """The plan :meth:`add` will give a rule with ``condition``: the
        cached one, or a fresh compile cached until a rule takes it or
        :meth:`unstage_plan` forgets it."""
        key = condition.key()
        plan = self._plans.get(key)
        if plan is None:
            plan = self._plans[key] = compile_condition(condition)
        return plan

    def unstage_plan(self, plan: CompiledPlan) -> None:
        """Forget a staged plan that no registered rule took."""
        if plan.source_key not in self._plan_refs:
            self._plans.pop(plan.source_key, None)

    def _acquire_plan(self, rule: Rule) -> CompiledPlan:
        plan = self.stage_plan(rule.condition)
        key = plan.source_key
        self._plan_refs[key] = self._plan_refs.get(key, 0) + 1
        return plan

    def _release_plan(self, plan: CompiledPlan) -> None:
        key = plan.source_key
        refs = self._plan_refs.get(key, 0) - 1
        if refs <= 0:
            self._plan_refs.pop(key, None)
            self._plans.pop(key, None)
        else:
            self._plan_refs[key] = refs

    # -- lookup ----------------------------------------------------------------

    def get(self, name: str) -> Rule:
        rule = self._by_name.get(name)
        if rule is None:
            raise UnknownRuleError(f"no rule named {name!r}")
        return rule

    def all_rules(self) -> list[Rule]:
        return list(self._by_name.values())

    def plan_of(self, name: str) -> CompiledPlan:
        """The compiled plan of a registered rule's condition."""
        plan = self._plan_by_rule.get(name)
        if plan is None:
            raise UnknownRuleError(f"no rule named {name!r}")
        return plan

    # -- indexed extraction ----------------------------------------------------

    def rules_for_device(self, udn: str) -> list[Rule]:
        """Indexed same-device extraction (the E2 step-1 query)."""
        return self._by_device.sorted_rules(udn, self._by_name)

    def rules_of_owner(self, owner: str) -> list[Rule]:
        return self._by_owner.sorted_rules(owner, self._by_name)

    def rules_reading_variable(self, variable: str) -> list[Rule]:
        """Rules whose conditions reference a variable (engine dispatch)."""
        return self._by_variable.sorted_rules(variable, self._by_name)

    def variable_watchers(self, variable: str) -> frozenset[str] | set[str]:
        """Rules that must be woken on any change of ``variable``."""
        return self._var_watch.get(variable, _EMPTY)
