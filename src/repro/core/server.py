"""The home server facade (Fig. 3 of the paper).

Wires every framework module together over the UPnP substrate:

* a :class:`~repro.upnp.control_point.ControlPoint` discovers devices,
  reads sensors (via eventing) and issues appliance commands;
* the :class:`~repro.core.database.RuleDatabase` stores rule objects;
* the :class:`~repro.core.consistency.ConsistencyChecker` and
  :class:`~repro.core.conflict.ConflictChecker` run on every
  registration, exactly in the paper's order (inconsistency first, then
  same-device conflict extraction + satisfiability);
* the :class:`~repro.core.priority.PriorityManager` holds
  context-attached priority orders; when a registration-time conflict
  has no covering order, the pluggable ``conflict_policy`` plays the
  role of the paper's Fig. 7 priority-setup dialog;
* the :class:`~repro.core.engine.RuleEngine` executes rules against the
  live world state.

Sensor readings flow in through UPnP eventing: the server subscribes to
every evented service it discovers and translates variable changes into
engine updates under the canonical naming scheme
``"<udn>:<service_id>:<variable>"``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.core.access import AccessPolicy
from repro.core.conflict import ConflictChecker, ConflictReport
from repro.core.consistency import ConsistencyChecker
from repro.core.database import RuleDatabase
from repro.core.engine import DEFAULT_MAX_TRACE, PromptPolicy, RuleEngine
from repro.core.priority import PriorityManager, PriorityOrder
from repro.core.rule import Rule
from repro.errors import RuleError
from repro.net.bus import NetworkBus
from repro.sim.events import Simulator
from repro.upnp.control_point import ControlPoint
from repro.upnp.registry import DeviceRecord

ConflictPolicy = Callable[[Rule, list[ConflictReport]], PriorityOrder | None]
"""Registration-time conflict hook: may return a new priority order
(the user's dialog answer) or None to register the rule anyway and let
runtime arbitration / prompting handle it."""


def variable_id(udn: str, service_id: str, variable: str) -> str:
    """Canonical world-state variable name for a device state variable."""
    return f"{udn}:{service_id}:{variable}"


def coerce_reading(value: Any, unit: str | None) -> Any:
    """Normalize a raw sensor reading for the engine: ``set``-unit
    variables arrive from UPnP eventing as comma-joined strings and
    become frozensets; everything else passes through."""
    if unit == "set" and isinstance(value, str):
        return frozenset(
            part.strip() for part in value.split(",") if part.strip()
        )
    return value


@dataclass
class RuleStack:
    """One complete rule-serving vertical: storage, checkers, engine and
    the registration pipeline, wired identically for every facade."""

    database: RuleDatabase
    priorities: PriorityManager
    access: AccessPolicy
    consistency: ConsistencyChecker
    conflicts: ConflictChecker
    engine: RuleEngine
    pipeline: RulePipeline


def build_rule_stack(
    simulator: Simulator,
    *,
    dispatch: Callable,
    prompt_policy: PromptPolicy | None = None,
    conflict_policy: ConflictPolicy | None = None,
    incremental: bool = True,
    max_trace: int | None = DEFAULT_MAX_TRACE,
    telemetry=None,
) -> RuleStack:
    """Build the database/checkers/engine/pipeline quartet shared by the
    single-home server and every cluster shard — one wiring site, so an
    engine knob added for one facade cannot silently drift from the
    other."""
    database = RuleDatabase()
    priorities = PriorityManager()
    access = AccessPolicy()
    consistency = ConsistencyChecker()
    conflicts = ConflictChecker(database)
    engine = RuleEngine(
        database,
        priorities,
        simulator,
        dispatch=dispatch,
        prompt_policy=prompt_policy,
        access_check=lambda rule, spec: access.check(
            rule.owner, spec.device_udn, spec.device_name, spec.action_name,
        ),
        incremental=incremental,
        max_trace=max_trace,
        telemetry=telemetry,
    )
    pipeline = RulePipeline(
        database, engine, priorities, access, consistency, conflicts,
        conflict_policy,
    )
    return RuleStack(
        database=database, priorities=priorities, access=access,
        consistency=consistency, conflicts=conflicts, engine=engine,
        pipeline=pipeline,
    )


class RulePipeline:
    """The Sect. 4.4 rule-registration pipeline, factored out of the
    single-home facade so cluster shards run the identical code path:
    access check → consistency → conflict extraction → optional priority
    prompt → database add → engine activation (and the mirror-image
    removal path).

    After the access check, a validated registration stages the rule's
    compiled plan in the database (:meth:`RuleDatabase.stage_plan`):
    consistency reads its clause boxes, the conflict check merges them
    with each same-device rule's, and :meth:`RuleDatabase.add` and the
    engine's columnar state take the same plan.  A registration that
    fails unstages it, so a rejected rule leaves nothing cached.

    The pipeline keeps no conflict reports: :meth:`register` returns
    them to the caller, and they are garbage once the caller drops them.
    """

    def __init__(
        self,
        database: RuleDatabase,
        engine: RuleEngine,
        priorities: PriorityManager,
        access: AccessPolicy,
        consistency: ConsistencyChecker,
        conflicts: ConflictChecker,
        conflict_policy: ConflictPolicy | None = None,
    ) -> None:
        self.database = database
        self.engine = engine
        self.priorities = priorities
        self.access = access
        self.consistency = consistency
        self.conflicts = conflicts
        self.conflict_policy = conflict_policy

    def register(self, rule: Rule, *, validate: bool = True) -> list[ConflictReport]:
        """Run the full registration pipeline; returns conflicts found.

        ``validate=False`` skips the access/consistency/conflict stages —
        the bulk-load path for pre-vetted populations (benchmarks,
        snapshot restores), where re-checking thousands of rules would
        dominate the measurement.
        """
        if not validate:
            self.database.add(rule)
            self.engine.rule_added(rule)
            return []
        self.access.check_rule(rule)
        plan = self.database.stage_plan(rule.condition)
        try:
            self.consistency.require_consistent(rule, plan)
            reports = self.conflicts.find_conflicts(rule)
            if reports:
                self._maybe_prompt_priority(rule, reports)
            self.database.add(rule)
        finally:
            self.database.unstage_plan(plan)
        self.engine.rule_added(rule)
        return reports

    def _maybe_prompt_priority(
        self, rule: Rule, reports: list[ConflictReport]
    ) -> None:
        """Ask the conflict policy for a priority order when no existing
        order already ranks every involved owner (paper: "If it
        conflicts, our framework prompts users to specify the priority
        among the rules")."""
        needs_prompt = []
        for report in reports:
            owners = {rule.owner, self.database.get(report.existing_rule).owner}
            if not self.priorities.has_order_covering(report.device_udn, owners):
                needs_prompt.append(report)
        if needs_prompt and self.conflict_policy is not None:
            order = self.conflict_policy(rule, needs_prompt)
            if order is not None:
                self.priorities.add_order(order)

    def remove(self, name: str) -> Rule:
        rule = self.database.remove(name)
        self.engine.rule_removed(name)
        return rule


class HomeServer:
    """Top-level entry point of the framework."""

    def __init__(
        self,
        simulator: Simulator,
        bus: NetworkBus,
        *,
        name: str = "home-server",
        prompt_policy: PromptPolicy | None = None,
        conflict_policy: ConflictPolicy | None = None,
        clock_tick_period: float = 60.0,
        incremental: bool = True,
        max_trace: int | None = DEFAULT_MAX_TRACE,
        telemetry=None,
    ) -> None:
        self.simulator = simulator
        self.control_point = ControlPoint(bus, simulator, name=name)
        stack = build_rule_stack(
            simulator,
            dispatch=self._dispatch,
            prompt_policy=prompt_policy,
            conflict_policy=conflict_policy,
            incremental=incremental,
            max_trace=max_trace,
            telemetry=telemetry,
        )
        self.database = stack.database
        self.priorities = stack.priorities
        self.access = stack.access
        self.consistency = stack.consistency
        self.conflicts = stack.conflicts
        self.engine = stack.engine
        self._pipeline = stack.pipeline
        self._variable_units: dict[str, str] = {}
        self._subscribed: set[tuple[str, str]] = set()
        self._clock_task = simulator.every(
            clock_tick_period, self.engine.clock_tick
        )

    # -- discovery & sensing --------------------------------------------------------

    def discover(self) -> list[DeviceRecord]:
        """Search the network and subscribe to every evented service of
        every discovered device; returns the discovered records."""
        records = self.control_point.search()
        for record in records:
            self._subscribe_device(record)
        return records

    def _subscribe_device(self, record: DeviceRecord) -> None:
        for service in record.description.get("services", ()):
            service_id = service["service_id"]
            key = (record.udn, service_id)
            evented = [v for v in service.get("variables", ()) if v.get("sends_events")]
            if not evented or key in self._subscribed:
                continue
            for variable in evented:
                vid = variable_id(record.udn, service_id, variable["name"])
                self._variable_units[vid] = variable.get("unit", "")
            self.control_point.subscribe(record.udn, service_id, self._on_device_event)
            self._subscribed.add(key)

    def _on_device_event(
        self, udn: str, service_id: str, changes: dict[str, Any]
    ) -> None:
        for variable, value in changes.items():
            self.ingest(variable_id(udn, service_id, variable), value)

    def ingest(self, variable: str, value: Any) -> None:
        """Feed one world-state reading to the engine — the same path
        device eventing uses, public so external feeds (cluster ingest
        buses, replayed sensor logs) reach the engine identically."""
        self.engine.ingest(
            variable, coerce_reading(value, self._variable_units.get(variable))
        )

    def ingest_batch(
        self, readings: "list[tuple[str, Any]]"
    ) -> tuple[int, int]:
        """Feed a batch of readings in order through the engine's bulk
        entry point (unit coercion per reading, identical semantics to
        per-reading :meth:`ingest`); returns the batch's
        ``(atoms_flipped, clauses_touched)`` counter deltas."""
        units = self._variable_units
        return self.engine.ingest_batch(
            (variable, coerce_reading(value, units.get(variable)))
            for variable, value in readings
        )

    def post_event(self, event_type: str, subject: str | None = None) -> None:
        """Forward an instantaneous event (arrivals etc.) to the engine."""
        self.engine.post_event(event_type, subject)

    # -- rule registration (the Sect. 4.4 pipeline) -------------------------------------

    def register_rule(self, rule: Rule) -> list[ConflictReport]:
        """Register a rule: consistency check, conflict check, optional
        priority prompt, then activation.  Returns the conflicts found
        (empty list = clean registration).

        Raises:
            InconsistentRuleError: the condition can never hold.
            DuplicateRuleError: the rule name is taken.
            AccessDeniedError: the owner lacks privileges for the
                rule's device actions (Sect. 6 security extension).
        """
        return self._pipeline.register(rule)

    def remove_rule(self, name: str) -> Rule:
        return self._pipeline.remove(name)

    @property
    def conflict_policy(self) -> ConflictPolicy | None:
        return self._pipeline.conflict_policy

    @conflict_policy.setter
    def conflict_policy(self, policy: ConflictPolicy | None) -> None:
        self._pipeline.conflict_policy = policy

    def add_priority_order(self, order: PriorityOrder) -> PriorityOrder:
        return self.priorities.add_order(order)

    # -- device control ---------------------------------------------------------------------

    def _dispatch(self, spec) -> None:
        self.control_point.invoke(
            spec.device_udn, spec.service_id, spec.action_name, spec.arguments()
        )

    # -- introspection -----------------------------------------------------------------------

    def trace(self) -> list:
        return self.engine.trace

    def shutdown(self) -> None:
        self._clock_task.cancel()
