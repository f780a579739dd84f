"""Event-driven rule execution with runtime conflict arbitration.

The engine owns the live world state (sensor variables, person places,
EPG keyword sets), evaluates rule conditions edge-triggered, and — when
several rules want the same device at once, or a new rule contests a
device another rule currently holds — arbitrates using the
context-attached priority orders (Sect. 3.2 / Fig. 1 of the paper).

Lifecycle of a rule at runtime::

            condition false→true                 lost arbitration and
    IDLE ────────────────────────▶ requesting ──────────────────────▶ FALLBACK
      ▲                                │ won                             │
      │   condition true→false /       ▼                                 │
      └──── `until` triggered ◀──── ACTIVE ◀──── device freed, re-grant ─┘

A rule whose primary action loses the device runs its ``fallback``
action when it has one (Alan's "if it is impossible to use the TV,
record the game with the video recorder"); when the contested device is
later released, standing rules are re-arbitrated so the strongest
claimant upgrades back to its primary action.

Re-arbitration
--------------

A conflict goes to the priority order whose context holds, or to the
prompt policy (the paper's Fig. 7 dialog) when none applies, so a lost
conflict cannot turn while nothing that decided it changes.  A DENIED
rule whose condition stays true therefore re-requests its device only
when:

* **(a)** the device is released (``_regrant``);
* **(b)** a priority order for the device is added or removed (the
  :attr:`~repro.core.priority.PriorityManager.on_change` hook);
* **(c)** the context of one of the device's orders changes truth.  A
  context is re-evaluated where a rule condition reading the same
  variables would be: at a write to one of them, at a posted event it
  names (with the event visible; it settles back quietly after) and at
  a clock tick if it reads the clock.

A retry that loses again records a ``deny``, so the trace holds one per
trigger, not one per sensor write, and the prompt policy is asked once
per conflict.  A holder change by preemption is deliberately not a
trigger: under ranked orders and the keep-status-quo prompt the new
holder outranks the old one, which outranked the waiting rule, so a
retry could not win.  The oracle finds (c) by scanning every order at
each write, event and tick; the fast path reads the priority manager's
context-variable index, and a second :class:`~repro.core.wheel.TimeWheel`
schedules the window boundaries of clock-reading contexts.  DENIED rules
are found per device through the database's device index.

Evaluation strategy
-------------------

The engine has two configurations.  By default it runs
**incrementally**: each rule's condition is compiled into a
:class:`~repro.core.plan.CompiledPlan` and subscribed to the engine's
:class:`~repro.core.columnar.ColumnarState`, which deduplicates atoms
and DNF clauses across rules and keeps their truth in flat arrays.  An
``ingest()`` hands the write to that state, whose per-variable indexes
pick the atoms whose truth *may* have crossed (sorted threshold arrays
for numeric atoms, value/member keys for discrete and membership
atoms); it verifies each candidate once, flips the changed atoms into
per-clause counters and returns the rules subscribed to clauses whose
truth crossed — work proportional to what changed, not to how many
rules read the variable.  Clock ticks go through the
:class:`~repro.core.wheel.TimeWheel` boundary schedule: a tick wakes
only the rules whose time-window atoms crossed a start/end boundary.

Two small watch sets preserve the seed semantics exactly:

* ``ACTIVE``/``FALLBACK`` rules with an ``until`` evaluate it on any
  relevant change, so they are watched per variable while holding;
* stateful plans (duration atoms, whose ``held()`` bookkeeping is a
  side effect of tree-walk order) and plans with volatile time/event
  atoms wake on any referenced-variable change via the database's
  variable-watch index and keep their original evaluation order.

Constructing the engine with ``incremental=False`` keeps the seed's
full re-evaluation path unchanged — the executable spec the equivalence
suites compare against: every ingest re-walks the condition tree of
every rule reading the variable, and every clock tick re-evaluates
every clock-reading rule and order context.  Both configurations
produce identical truth values, states, holders and traces.

Decision trace
--------------

Every decision lands in a capped ring (``max_trace``) as one flat tuple
``(time, kind, rule, device, detail)``.  A fire/deny/preempt/fallback
decision records ``None`` as its detail and appends the pieces its text
is made of — the granted action's text (built once per
``ActionSpec``), the winner's name, the priority order's text (orders
are mutable, so their text is taken at decision time) — and is
formatted only when read.  A record therefore holds only strings,
numbers and ``None``, and CPython's cyclic collector stops tracking
such a tuple at its first pass over it, so a full ring adds nothing to
the collector's walks.  :attr:`RuleEngine.trace` is a
:class:`TraceView` yielding :class:`TraceEntry` objects, and
:meth:`RuleEngine.runtime_snapshot` writes the formatted strings, so a
decision costs one tuple on the dispatch path and the text is what an
eager formatter would have made.
"""

from __future__ import annotations

import enum
import math
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Collection, Iterable, Iterator, Sequence

from repro.core.action import ActionSpec, Setting
from repro.core.columnar import ColumnarState, ColumnarStats
from repro.core.condition import (
    CLOCK_VARIABLE,
    Condition,
    DurationAtom,
    TimeWindowAtom,
)
from repro.core.database import RuleDatabase
from repro.core.plan import CompiledPlan
from repro.core.priority import PriorityManager, PriorityOrder
from repro.core.wheel import TimeWheel
from repro.core.rule import Rule
from repro.errors import ReproError, RuleError
from repro.sim.events import Simulator

Dispatch = Callable[[ActionSpec], None]
PromptPolicy = Callable[[str, list[Rule]], Rule | None]
"""Called when no priority order resolves a conflict: (device_udn,
competing rules) → chosen rule, or None to keep the status quo."""

_HELD_EPSILON = 1e-6

DEFAULT_MAX_TRACE = 100_000
"""Default trace ring-buffer capacity — generous enough for scenario
time-charts, bounded so long-running homes don't grow without limit."""

# Power-of-two buckets for wake fan-out sizes.  Spelled inline rather
# than imported: core modules may not import any obs module — see
# tools/check_obs_imports.py.
_SIZE_BOUNDS = tuple(float(2 ** i) for i in range(17))

# The per-write stages (sweep, fanout) fire once per ingested value, so
# even token-and-clock-read span cost adds ~2% to a worst-case columnar
# batch.  They are sampled deterministically 1-in-N instead — uniform
# over a stream, so stage percentiles stay representative, while exact
# volume lives in the unsampled counters (columnar.writes etc.).  The
# per-batch / per-tick / per-dispatch stages are never sampled.
_SPAN_SAMPLE = 8

_NO_RETRY: frozenset[str] = frozenset()


def _windows(condition: Condition) -> list[TimeWindowAtom]:
    """The distinct time-window atoms a condition reads."""
    found: dict[str, TimeWindowAtom] = {}
    for conjunction in condition.dnf():
        for atom in conjunction:
            if isinstance(atom, TimeWindowAtom):
                found.setdefault(atom.key(), atom)
    return list(found.values())


class RuleState(enum.Enum):
    IDLE = "idle"
    ACTIVE = "active"       # primary action holds its device
    FALLBACK = "fallback"   # fallback action holds its device
    DENIED = "denied"       # condition true but no device obtained


@dataclass
class TraceEntry:
    """One engine decision, for scenario time-charts and debugging."""

    time: float
    kind: str          # "fire" | "stop" | "preempt" | "deny" | "fallback" | "conflict" | "error"
    rule: str
    device: str = ""
    detail: str = ""

    def describe(self) -> str:
        device = f" [{self.device}]" if self.device else ""
        detail = f" — {self.detail}" if self.detail else ""
        return f"t={self.time:9.1f} {self.kind:<8} {self.rule}{device}{detail}"


def _fire_text(action_text: str, order_text: str | None) -> str:
    if order_text is None:
        return action_text
    return f"{action_text} (order: {order_text})"


def _fallback_text(fallback_text: str, device_name: str | None = None,
                   winner: str | None = None) -> str:
    if winner is None:
        return f"preempted; trying {fallback_text}"
    return f"lost {device_name!r} to {winner!r}; trying {fallback_text}"


#: How a decision of each structured kind turns its detail pieces into
#: text.  Arbitration records the pieces (the granted action's text, the
#: winner's name, the order's text) and the text is built on read.
_DETAIL_TEXT: dict[str, Callable[..., str]] = {
    "fire": _fire_text,
    "deny": "lost to {!r}".format,
    "preempt": "preempted by {!r}".format,
    "fallback": _fallback_text,
}


def _entry(record: tuple) -> TraceEntry:
    """A ring record ``(time, kind, rule, device, detail, *pieces)`` as
    the entry it reads as; a ``None`` detail is made from the pieces of
    a structured kind."""
    time, kind, rule, device, detail = record[:5]
    if detail is None:
        detail = _DETAIL_TEXT[kind](*record[5:])
    return TraceEntry(time, kind, rule, device, detail)


class TraceView:
    """The engine's decision ring, read as :class:`TraceEntry` objects.

    The ring stores each decision as a plain tuple and formats it only
    when read, so a decision costs one tuple on the dispatch path.
    Supports ``len``, iteration (oldest first), indexing and
    ``maxlen`` like the ``deque`` it wraps."""

    __slots__ = ("_ring",)

    def __init__(self, ring: deque) -> None:
        self._ring = ring

    @property
    def maxlen(self) -> int | None:
        return self._ring.maxlen

    def __len__(self) -> int:
        return len(self._ring)

    def __iter__(self) -> Iterator[TraceEntry]:
        return map(_entry, self._ring)

    def __getitem__(self, index: int) -> TraceEntry:
        return _entry(self._ring[index])


class WorldState:
    """Live variable store implementing the EvaluationContext protocol.

    Variables are *owned* by default; the cluster layer marks variables
    that arrive as cross-shard **mirrors** (another shard owns the
    sensor, this engine hosts rules reading it), so traces and
    debugging tools can attribute a value to its authoritative source.
    """

    def __init__(self, simulator: Simulator):
        self._simulator = simulator
        self._numeric: dict[str, float] = {}
        self._discrete: dict[str, str] = {}
        self._sets: dict[str, frozenset[str]] = {}
        self._current_events: set[tuple[str, str | None]] = set()
        self._held_since: dict[str, float] = {}
        self._mirrored: set[str] = set()
        self.on_held_armed: Callable[[str, float], None] | None = None

    # -- EvaluationContext protocol -------------------------------------------

    def numeric(self, variable: str) -> float | None:
        return self._numeric.get(variable)

    def discrete(self, variable: str) -> str | None:
        return self._discrete.get(variable)

    def set_members(self, variable: str) -> frozenset[str]:
        return self._sets.get(variable, frozenset())

    def time_of_day(self) -> float:
        return self._simulator.clock.time_of_day

    def weekday(self) -> int:
        return self._simulator.clock.weekday

    def event_fired(self, event_type: str, subject: str | None) -> bool:
        for fired_type, fired_subject in self._current_events:
            if fired_type != event_type:
                continue
            if subject is None or subject == fired_subject:
                return True
        return False

    def held(self, key: str, currently_true: bool, duration: float) -> bool:
        if not currently_true:
            self._held_since.pop(key, None)
            return False
        since = self._held_since.get(key)
        now = self._simulator.now
        if since is None:
            self._held_since[key] = now
            if self.on_held_armed is not None:
                self.on_held_armed(key, duration)
            return duration <= _HELD_EPSILON
        return (now - since) >= duration - _HELD_EPSILON

    # -- ownership & introspection ---------------------------------------------

    def value_of(self, variable: str) -> Any:
        """The stored value of a variable regardless of type (``None``
        when it was never written) — the cluster reads this to seed a
        freshly subscribed mirror from the owner shard's world."""
        value = self._numeric.get(variable)
        if value is not None:
            return value
        value = self._discrete.get(variable)
        if value is not None:
            return value
        return self._sets.get(variable)

    def is_mirrored(self, variable: str) -> bool:
        """Whether a variable's authoritative copy lives on another
        shard (it arrived through a mirror subscription)."""
        return variable in self._mirrored

    def mark_mirrored(self, variable: str, mirrored: bool) -> None:
        if mirrored:
            self._mirrored.add(variable)
        else:
            self._mirrored.discard(variable)

    # -- mutation (engine-internal) ----------------------------------------------

    def set_numeric(self, variable: str, value: float) -> bool:
        changed = self._numeric.get(variable) != value
        self._numeric[variable] = value
        return changed

    def set_discrete(self, variable: str, value: str) -> bool:
        changed = self._discrete.get(variable) != value
        self._discrete[variable] = value
        return changed

    def set_set(self, variable: str, members: frozenset[str]) -> bool:
        changed = self._sets.get(variable, frozenset()) != members
        self._sets[variable] = members
        return changed

    def begin_events(self, events: set[tuple[str, str | None]]) -> None:
        self._current_events = events

    def end_events(self) -> None:
        self._current_events = set()


def _discard_dispatch(spec: ActionSpec) -> None:
    """Action sink installed by :meth:`RuleEngine.disarm_side_effects`."""


def keep_status_quo_policy(device_udn: str, competing: list[Rule]) -> Rule | None:
    """Default prompt policy: change nothing (the paper would pop the
    Fig. 7 dialog here; headless runs keep the current holder)."""
    return None


def _spec_to_jsonable(spec: ActionSpec) -> dict:
    """ActionSpec → plain JSON dict (snapshot holder serialization)."""
    return {
        "device_udn": spec.device_udn,
        "device_name": spec.device_name,
        "service_id": spec.service_id,
        "action_name": spec.action_name,
        "settings": [[s.parameter, s.value] for s in spec.settings],
        "verb_text": spec.verb_text,
    }


def _spec_from_jsonable(data: dict) -> ActionSpec:
    return ActionSpec(
        device_udn=data["device_udn"],
        device_name=data["device_name"],
        service_id=data["service_id"],
        action_name=data["action_name"],
        settings=tuple(
            Setting(parameter, value) for parameter, value in data["settings"]
        ),
        verb_text=data["verb_text"],
    )


class RuleEngine:
    """Evaluates rules against the world state and drives devices."""

    def __init__(
        self,
        database: RuleDatabase,
        priorities: PriorityManager,
        simulator: Simulator,
        dispatch: Dispatch,
        prompt_policy: PromptPolicy | None = None,
        access_check: Callable[[Rule, ActionSpec], None] | None = None,
        *,
        incremental: bool = True,
        max_trace: int | None = DEFAULT_MAX_TRACE,
        telemetry: Any = None,
    ) -> None:
        self.database = database
        self.priorities = priorities
        self.simulator = simulator
        self.dispatch = dispatch
        self.prompt_policy = prompt_policy or keep_status_quo_policy
        self.access_check = access_check
        self.incremental = incremental
        # Observability seam — duck-typed against repro.obs.trace.Telemetry
        # (this module never imports the obs package; the cluster layer
        # passes a live object in, everyone else gets None).  Instruments
        # are bound once so hot paths never go through the registry, and
        # when disabled every seam degrades to one None check.
        self.set_telemetry(telemetry)
        self.world = WorldState(simulator)
        self.world.on_held_armed = self._arm_held_timer
        if max_trace is not None and max_trace <= 0:
            raise RuleError(f"max_trace must be positive: {max_trace}")
        # Decisions as plain tuples (see TraceView), formatted on read.
        self._trace_ring: deque[tuple] = deque(maxlen=max_trace)
        self.trace = TraceView(self._trace_ring)
        self._truth: dict[str, bool] = {}
        self._state: dict[str, RuleState] = {}
        self._holders: dict[str, tuple[str, ActionSpec]] = {}  # udn -> (rule, spec)
        # rule -> {udn: the udn's insertion rank in _holders}: releasing a
        # rule's devices reads its own entries instead of scanning every
        # held device, and sorting by rank keeps the scan's release order.
        self._held_by: dict[str, dict[str, int]] = {}
        self._holder_rank = 0
        self._held_atom_rules: dict[str, set[str]] = {}  # atom key -> rule names
        # Pending held-duration recheck timers, as (fire time, atom key).
        # Tracked so a snapshot can re-arm the *exact* pending set —
        # including stale timers whose key was since re-held — which is
        # what makes restart traces reproduce DENIED re-arbitrations.
        self._held_timers: list[tuple[float, str]] = []
        # -- incremental-evaluation state (None/empty on the seed path) ----------
        self._plans: dict[str, CompiledPlan] = {}        # rule name -> plan
        self._columnar = ColumnarState() if incremental else None
        self._time_wheel = TimeWheel() if incremental else None
        self._wheel_keys: dict[str, tuple[str, ...]] = {}  # rule -> window keys
        # Stateful clock-reading plans (a duration over a window) stay on
        # the every-tick cadence: held() bookkeeping samples the clock at
        # evaluation time, so waking them only at window boundaries would
        # shift held-expiry observations off the tick grid.
        self._tick_stateful: set[str] = set()
        self._watch_vars: dict[str, frozenset[str]] = {}  # rule -> cond+until vars
        self._has_until: set[str] = set()
        # Rules skipped while disabled: the seed path re-examines them on
        # any relevant change once re-enabled, so they must be woken even
        # when no atom flips.
        self._disabled_dirty: set[str] = set()
        # Fired whenever the set of rules a periodic clock tick must
        # re-examine (until/disabled clock watchers, stateful window
        # plans, armed wheel boundaries) may have *grown* — the shard's
        # wheel-aware tick scheduler listens and pulls its next wake-up
        # in.  Demand shrinking is handled lazily: the already scheduled
        # tick fires as a no-op and re-arms optimally.
        self.on_clock_demand_changed: Callable[[], None] | None = None
        self._until_watch: dict[str, set[str]] = {}      # variable -> holding rules
        if incremental:
            # Attach-to-populated-database pattern: rules registered
            # before the engine existed still need plans/subscriptions/
            # watches or delta propagation would silently never wake them.
            for rule in database.all_rules():
                self._index_rule(rule)
        # Each priority order's context truth when it was last evaluated
        # (order id -> truth): a flip is re-arbitration trigger (c).  On
        # the fast path a second wheel schedules the window boundaries
        # of clock-reading contexts, so ticks between them can sleep.
        self._context_truth: dict[int, bool] = {}
        self._context_wheel = TimeWheel() if incremental else None
        for order in priorities.orders():
            self._track_context(order)
        priorities.on_change = self._order_changed

    # -- rule registration hooks ------------------------------------------------------

    def rule_added(self, rule: Rule) -> None:
        """Index duration atoms and evaluate the rule against the current
        state (a rule whose condition is already true fires immediately,
        which is what a user expects right after registering it)."""
        self._index_rule(rule)
        self._truth[rule.name] = False
        self._state[rule.name] = RuleState.IDLE
        self.reevaluate([rule.name])

    def _index_rule(self, rule: Rule) -> None:
        plan = self.database.plan_of(rule.name)
        if plan.has_duration:
            for atom in plan.atoms:
                if isinstance(atom, DurationAtom):
                    self._held_atom_rules.setdefault(
                        atom.key(), set()).add(rule.name)
        if not self.incremental:
            return
        self._plans[rule.name] = plan
        watch = plan.variables
        if rule.until is not None:
            self._has_until.add(rule.name)
            watch = watch | rule.until.referenced_variables()
        self._watch_vars[rule.name] = watch
        if not plan.has_duration:
            self._columnar.subscribe(rule.name, plan, self.world)
        windows = [
            atom for atom in plan.atoms if isinstance(atom, TimeWindowAtom)
        ] if plan.volatile_slots else ()
        if windows and plan.has_duration:
            self._tick_stateful.add(rule.name)
            self._notify_clock_demand()
        elif windows:
            self._wheel_keys[rule.name] = self._time_wheel.subscribe(
                rule.name, windows, self.simulator.now
            )
            self._notify_clock_demand()

    def rule_removed(self, rule_name: str) -> None:
        self._truth.pop(rule_name, None)
        state = self._state.pop(rule_name, None)
        if state in (RuleState.ACTIVE, RuleState.FALLBACK):
            self._unwatch(rule_name)
        self._plans.pop(rule_name, None)
        self._watch_vars.pop(rule_name, None)
        self._has_until.discard(rule_name)
        self._disabled_dirty.discard(rule_name)
        if self._columnar is not None:
            self._columnar.unsubscribe(rule_name)
        if self._time_wheel is not None:
            self._time_wheel.unsubscribe(
                rule_name, self._wheel_keys.pop(rule_name, ())
            )
            self._tick_stateful.discard(rule_name)
        for key in [k for k, rules in self._held_atom_rules.items()
                    if rule_name in rules]:
            bucket = self._held_atom_rules[key]
            bucket.discard(rule_name)
            if not bucket:
                del self._held_atom_rules[key]
        if state in (RuleState.ACTIVE, RuleState.FALLBACK):
            self._release_holdings(rule_name)

    # -- state bookkeeping -------------------------------------------------------------

    def _set_state(self, rule_name: str, state: RuleState) -> None:
        """State transition, maintaining the per-variable watch set the
        incremental path needs for until checks."""
        previous = self._state.get(rule_name)
        self._state[rule_name] = state
        if not self.incremental or previous is state \
                or rule_name not in self._has_until:
            return
        holding = (RuleState.ACTIVE, RuleState.FALLBACK)
        if previous in holding and state not in holding:
            self._unwatch(rule_name)
        elif state in holding and previous not in holding:
            self._watch(rule_name)
            # A holder whose until watches the clock needs periodic
            # ticks again; tell the wheel-aware scheduler.
            if CLOCK_VARIABLE in self._watch_vars[rule_name]:
                self._notify_clock_demand()

    def _watch(self, rule_name: str) -> None:
        for variable in self._watch_vars.get(rule_name, ()):
            self._until_watch.setdefault(variable, set()).add(rule_name)

    def _unwatch(self, rule_name: str) -> None:
        index = self._until_watch
        for variable in self._watch_vars.get(rule_name, ()):
            bucket = index.get(variable)
            if bucket is not None:
                bucket.discard(rule_name)
                if not bucket:
                    del index[variable]

    # -- re-arbitration triggers -------------------------------------------------------

    def _order_changed(self, order: PriorityOrder, added: bool) -> None:
        """The :attr:`PriorityManager.on_change` hook: track (or drop)
        the order's context, then re-arbitrate the DENIED rules on its
        device at once — trigger (b)."""
        if added:
            self._track_context(order)
        else:
            del self._context_truth[order.order_id]
            if self._context_wheel is not None:
                self._context_wheel.unsubscribe(
                    str(order.order_id),
                    [atom.key() for atom in _windows(order.context)])
        retry = self._denied_on((order.device_udn,))
        if retry:
            self._evaluate_dirty(retry, retry)

    def _track_context(self, order: PriorityOrder) -> None:
        self._context_truth[order.order_id] = order.applies(self.world)
        windows = _windows(order.context)
        if windows and self._context_wheel is not None:
            self._context_wheel.subscribe(
                str(order.order_id), windows, self.simulator.now)
            self._notify_clock_demand()

    def _context_orders(self, variable: str) -> Sequence[PriorityOrder]:
        """The orders whose context reads ``variable``: the manager's
        index on the fast path, a scan of every order on the oracle."""
        if self.incremental:
            return self.priorities.orders_reading(variable)
        return [order for order in self.priorities.orders()
                if variable in order.context.referenced_variables()]

    def _flip_contexts(self, orders: Iterable[PriorityOrder]) -> list[str]:
        """Re-evaluate ``orders``' contexts; returns the devices of those
        whose truth changed since they were last evaluated."""
        truths = self._context_truth
        world = self.world
        flipped = []
        for order in orders:
            truth = order.applies(world)
            if truths[order.order_id] != truth:
                truths[order.order_id] = truth
                flipped.append(order.device_udn)
        return flipped

    def _denied_on(self, devices: Iterable[str]) -> set[str]:
        """The DENIED rules a retry would send to one of ``devices``
        (their primary or fallback target), found through the
        database's device index."""
        state = self._state
        denied = set()
        for udn in devices:
            for rule in self.database.rules_for_device(udn):
                if state.get(rule.name) is RuleState.DENIED and (
                        rule.action.device_udn == udn
                        or (rule.fallback is not None
                            and rule.fallback.device_udn == udn)):
                    denied.add(rule.name)
        return denied

    def _context_retries(self, variable: str) -> set[str]:
        """Trigger (c) at a change of ``variable``: the DENIED rules on
        every device one of whose order contexts (reading the variable)
        changed truth."""
        orders = self._context_orders(variable)
        if not orders:
            return _NO_RETRY
        flipped = self._flip_contexts(orders)
        return self._denied_on(flipped) if flipped else _NO_RETRY

    # -- world-state ingestion ----------------------------------------------------------

    def ingest(self, variable: str, value: Any) -> None:
        """Update one variable from a sensor event and re-evaluate the
        rules whose conditions read it.

        In incremental mode the rules woken are exactly those whose
        observable behaviour can change: subscribers of clauses whose
        truth crossed, plus the DENIED/until/variable-watch sets."""
        world = self.world
        columnar = self._columnar
        if isinstance(value, bool):
            value = "true" if value else "false"
        if isinstance(value, str):
            old_discrete = world.discrete(variable)
            if not world.set_discrete(variable, value):
                return
            if columnar is not None:
                self._finish_wake(variable, columnar.discrete_write(
                    variable, old_discrete, value, world))
                return
        elif isinstance(value, (int, float)):
            old_numeric = world.numeric(variable)
            new_numeric = float(value)
            if not world.set_numeric(variable, new_numeric):
                return
            if columnar is not None:
                spans = self._spans
                token = None
                if spans is not None:
                    self._sweep_tick = tick = \
                        (self._sweep_tick + 1) % _SPAN_SAMPLE
                    if tick == 0:
                        token = spans.span_begin("sweep")
                dirty = columnar.numeric_write(
                    variable, old_numeric, new_numeric, world
                )
                if token is not None:
                    spans.span_end(token, size=len(dirty))
                self._finish_wake(variable, dirty)
                return
        elif isinstance(value, (frozenset, set, list, tuple)):
            old_members = world.set_members(variable)
            new_members = value if isinstance(value, frozenset) \
                else frozenset(value)
            if not world.set_set(variable, new_members):
                return
            if columnar is not None:
                self._finish_wake(variable, columnar.set_write(
                    variable, old_members, new_members, world))
                return
        elif value is None:
            return
        else:
            raise RuleError(f"cannot ingest value of type {type(value).__name__}")
        # The seed path: re-walk every rule reading the variable.
        names = [r.name for r in self.database.rules_reading_variable(variable)]
        retry = self._context_retries(variable)
        if retry:
            self._evaluate_dirty(retry.union(names), retry)
        else:
            self._evaluate_rules(names)

    def ingest_batch(
        self, writes: "Iterable[tuple[str, Any]]"
    ) -> tuple[int, int]:
        """Apply a drained batch of sensor writes in publish order.

        Each write keeps exact per-event semantics — atom flips, wake
        sets and rule evaluations are identical to calling
        :meth:`ingest` per entry (edge-triggered firing forbids
        deferring or merging observable intermediate states; value
        coalescing is the bus's job, gated by ``coalesce_safe``).  What
        the batch entry point buys is batch-level observability: returns
        ``(atoms_flipped, clauses_touched)`` deltas for this batch,
        ``(0, 0)`` on the seed path (which keeps no columnar counters)."""
        spans = self._spans
        token = spans.span_begin("batch") if spans is not None else None
        columnar = self._columnar
        if columnar is None:
            applied = 0
            for variable, value in writes:
                self.ingest(variable, value)
                applied += 1
            if token is not None:
                spans.span_end(token, size=applied)
            return 0, 0
        stats = columnar.stats
        flips_before = stats.atoms_flipped
        touched_before = stats.clauses_touched
        applied = 0
        for variable, value in writes:
            self.ingest(variable, value)
            applied += 1
        stats.batches += 1
        stats.batch_writes += applied
        if token is not None:
            spans.span_end(token, size=applied)
        return (
            stats.atoms_flipped - flips_before,
            stats.clauses_touched - touched_before,
        )

    @property
    def columnar_stats(self) -> "ColumnarStats | None":
        """The columnar state's hot-path counters (None on the seed
        path)."""
        return self._columnar.stats if self._columnar is not None else None

    def set_telemetry(self, telemetry: Any) -> None:
        """(Re)bind the observability plane.  Passing ``None`` detaches
        every instrument, restoring the exact disabled-construction hot
        path; passing a live plane binds its instruments once so the
        seams never touch the registry.  Safe mid-stream: telemetry is
        a pure read-side plane, so toggling it cannot perturb
        evaluation."""
        self.telemetry = telemetry
        self._sweep_tick = 0
        self._fanout_tick = 0
        if telemetry is not None:
            self._spans = telemetry.spans
            self._wheel_wake_counter = telemetry.registry.counter(
                "wheel.wakes")
            self._wheel_wake_sizes = telemetry.registry.histogram(
                "wheel.wake_size", _SIZE_BOUNDS)
        else:
            self._spans = None
            self._wheel_wake_counter = None
            self._wheel_wake_sizes = None

    def wheel_stats(self) -> dict | None:
        """The time wheel's schedule counters (None on the seed path):
        ``armed`` distinct boundaries currently scheduled, ``armed_total``
        boundaries ever armed (subscriptions plus re-arms)."""
        wheel = self._time_wheel
        if wheel is None:
            return None
        return {"armed": len(wheel), "armed_total": wheel.armed_total}

    def _finish_wake(self, variable: str, dirty: set[str]) -> None:
        """Shared tail of every ingest: add the variable's watchers,
        watch sets and context retries to the flip-derived wake set,
        then evaluate."""
        spans = self._spans
        token = None
        if spans is not None:
            self._fanout_tick = tick = (self._fanout_tick + 1) % _SPAN_SAMPLE
            if tick == 0:
                token = spans.span_begin("fanout")
        watchers = self.database.variable_watchers(variable)
        if watchers:
            dirty.update(watchers)
        self._wake_watch_sets(variable, dirty)
        retry = self._context_retries(variable)
        if retry:
            dirty |= retry
        self._evaluate_dirty(dirty, retry)
        if token is not None:
            spans.span_end(token, size=len(dirty))

    def _wake_watch_sets(self, variable: str, dirty: set[str]) -> None:
        """Union in the per-variable sets the seed path re-examined on
        every relevant change: holding rules with a watching ``until``,
        and disabled-skipped rules."""
        holding = self._until_watch.get(variable)
        if holding:
            dirty.update(holding)
        if self._disabled_dirty:
            for name in list(self._disabled_dirty):
                watch = self._watch_vars.get(name)
                if watch is not None and variable in watch:
                    dirty.add(name)

    def _evaluate_dirty(self, dirty: set[str],
                        retry: Collection[str] = ()) -> None:
        """Evaluate a wake set in the seed's deterministic rule_id order
        (skipping names a queued wake outlived)."""
        if not dirty:
            return
        database = self.database
        ordered = sorted(
            (name for name in dirty if name in database),
            key=lambda name: database.get(name).rule_id,
        )
        self._evaluate_rules(ordered, retry)

    def post_event(
        self,
        event_type: str,
        subject: str | None = None,
        *,
        only: Collection[str] | None = None,
    ) -> None:
        """Fire an instantaneous event ("returns home"); rules whose
        conditions mention it are evaluated exactly once with the event
        visible, then their truth settles back without re-triggering
        stop actions (events fire rules; they do not sustain them).

        ``only`` restricts the wake set to the named rules — cluster
        shards host several homes, and a home-scoped event must not leak
        to co-located homes' rules.  Order contexts naming the event are
        evaluated with it visible (a flip retries the DENIED rules on
        the order's device, within ``only``) and settle back quietly
        after it, like rule truth."""
        variable = f"event:{event_type}"
        dirty = [
            r.name
            for r in self.database.rules_reading_variable(variable)
            if only is None or r.name in only
        ]
        orders = self._context_orders(variable)
        self.world.begin_events({(event_type, subject)})
        try:
            flipped = self._flip_contexts(orders) if orders else None
            retry = self._denied_on(flipped) if flipped else _NO_RETRY
            if only is not None and retry:
                retry = {name for name in retry if name in only}
            if retry:
                self._evaluate_dirty(retry.union(dirty), retry)
            else:
                self.reevaluate(dirty)
        finally:
            self.world.end_events()
        if orders:
            self._flip_contexts(orders)
        for name in dirty:
            if name not in self.database:
                continue
            rule = self.database.get(name)
            truth = self._compute_truth(name, rule)
            if self._truth.get(name, False) and not truth:
                self._truth[name] = False
                if self._state.get(name) in (RuleState.ACTIVE, RuleState.FALLBACK):
                    # Fire-and-forget: drop the bookkeeping claim quietly.
                    self._set_state(name, RuleState.IDLE)
                    self._release_holdings(name)
                else:
                    self._set_state(name, RuleState.IDLE)

    def clock_tick(self) -> None:
        """Periodic clock tick — the single code path the home server's
        clock task and the cluster shards share, so window-boundary
        semantics can never drift between the two facades.

        On the seed path every rule and every order context reading the
        clock pseudo-variable is re-evaluated (O(clock rules) per tick).
        Incrementally, the time wheel wakes only rules whose window
        atoms crossed a start/end boundary since the last tick wake —
        plus the sets the blanket wake re-examined every tick as a side
        effect and that genuinely need it: holding rules with a
        clock-reading ``until``, disabled-skipped rules whose next wake
        must re-derive truth, and stateful duration-over-window plans
        whose ``held()`` sampling is tick-sensitive — and the clock
        contexts are re-evaluated only when the context wheel pops one
        of their boundaries.  O(crossings), ~flat in the window
        population.
        """
        if self._time_wheel is None:
            dirty = [
                r.name
                for r in self.database.rules_reading_variable(CLOCK_VARIABLE)
            ]
            retry = self._context_retries(CLOCK_VARIABLE)
            if retry:
                self._evaluate_dirty(retry.union(dirty), retry)
            elif dirty:
                self.reevaluate(dirty)
            return
        spans = self._spans
        token = spans.span_begin("wheel") if spans is not None else None
        now = self.simulator.now
        wake = self._time_wheel.advance(now)
        if self._tick_stateful:
            wake |= self._tick_stateful
        self._wake_watch_sets(CLOCK_VARIABLE, wake)
        retry = _NO_RETRY
        if self._context_wheel.advance(now):
            retry = self._context_retries(CLOCK_VARIABLE)
            wake |= retry
        self._evaluate_dirty(wake, retry)
        if token is not None:
            spans.span_end(token, size=len(wake))
            self._wheel_wake_counter.inc(len(wake))
            self._wheel_wake_sizes.observe(len(wake))

    def clock_demand(self) -> float:
        """The earliest simulated time the next ``clock_tick`` can do
        observable work — the wheel-aware tick scheduler's sleep target.

        Returns ``now`` when every periodic tick matters (the seed path,
        or any tick-stateful plan / until / disabled clock-watcher the
        blanket wake would re-examine each tick), the next armed rule or
        context boundary when only window crossings remain, and ``inf``
        when nothing clock-driven exists at all.  A DENIED rule adds no
        demand: it waits for a trigger, and a clock context's flip is a
        context boundary.  Demand can only move *earlier* through paths
        that fire :attr:`on_clock_demand_changed`, so a scheduler that
        re-arms on that hook never oversleeps; ticks it schedules too
        early are no-ops and therefore trace-invisible.
        """
        if self._time_wheel is None:
            return self.simulator.now
        if self._tick_stateful or self._until_watch.get(CLOCK_VARIABLE):
            return self.simulator.now
        for name in self._disabled_dirty:
            watch = self._watch_vars.get(name)
            if watch is not None and CLOCK_VARIABLE in watch:
                return self.simulator.now
        boundaries = [when for when in (self._time_wheel.peek(),
                                        self._context_wheel.peek())
                      if when is not None]
        return min(boundaries, default=math.inf)

    def _notify_clock_demand(self) -> None:
        if self.on_clock_demand_changed is not None:
            self.on_clock_demand_changed()

    # -- evaluation ------------------------------------------------------------------------

    def reevaluate(self, rule_names: list[str]) -> None:
        """Recompute the truth of the given rules, firing edges."""
        self._evaluate_rules(rule_names)

    def _compute_truth(self, name: str, rule: Rule) -> bool:
        """Current condition truth: the columnar clause counters (kept
        current by every write) combined with freshly evaluated volatile
        atoms.  Stateful plans and the seed path walk the condition tree
        exactly as the seed engine did."""
        plan = self._plans.get(name)
        if plan is None or plan.has_duration:
            return rule.condition.evaluate(self.world)
        volatile_bits = (
            plan.volatile_bits(self.world) if plan.volatile_slots else 0
        )
        return self._columnar.rule_truth(name, volatile_bits)

    def _evaluate_rules(self, rule_names: Iterable[str],
                        retry: Collection[str] = ()) -> None:
        """Shared edge-firing loop of both evaluation paths.  A rule
        requests its device on its condition's rising edge, or — named
        in ``retry`` by a re-arbitration trigger — when it is DENIED and
        its condition still holds."""
        rising: list[Rule] = []
        for name in rule_names:
            if name not in self.database:
                continue
            rule = self.database.get(name)
            if not rule.enabled:
                if self.incremental:
                    self._disabled_dirty.add(name)
                    if CLOCK_VARIABLE in self._watch_vars.get(name, ()):
                        self._notify_clock_demand()
                continue
            if self._disabled_dirty:
                self._disabled_dirty.discard(name)
            truth = self._compute_truth(name, rule)
            previous = self._truth.get(name, False)
            self._truth[name] = truth
            if truth and not previous:
                rising.append(rule)
            elif previous and not truth:
                self._on_condition_fall(rule)
            elif truth and name in retry \
                    and self._state.get(name) is RuleState.DENIED:
                rising.append(rule)
            if (
                truth
                and rule.until is not None
                and self._state.get(name) in (RuleState.ACTIVE, RuleState.FALLBACK)
                and rule.until.evaluate(self.world)
            ):
                self._stop_rule(rule, reason="until condition met")
        if rising:
            self._process_requests(rising)

    # -- request processing & arbitration -----------------------------------------------------

    def _process_requests(self, rules: list[Rule]) -> None:
        """Arbitrate device requests; a bounded cascade lets preempted
        rules fall back and fallback devices be contested in turn."""
        queue: list[tuple[Rule, ActionSpec, bool]] = [
            (rule, rule.action, True) for rule in rules
        ]
        for _ in range(64):  # bound: cascades are short in practice
            if not queue:
                return
            queue = self._arbitration_round(queue)
        raise RuleError("arbitration cascade did not settle within 64 rounds")

    def _arbitration_round(
        self, requests: list[tuple[Rule, ActionSpec, bool]]
    ) -> list[tuple[Rule, ActionSpec, bool]]:
        by_device: dict[str, list[tuple[Rule, ActionSpec, bool]]] = {}
        for request in requests:
            by_device.setdefault(request[1].device_udn, []).append(request)

        next_round: list[tuple[Rule, ActionSpec, bool]] = []
        for udn, wants in sorted(by_device.items()):
            competing = [rule for rule, _, _ in wants]
            holder = self._holders.get(udn)
            holder_rule: Rule | None = None
            if holder is not None and holder[0] not in {r.name for r in competing}:
                if holder[0] in self.database:
                    holder_rule = self.database.get(holder[0])
                    competing = competing + [holder_rule]
            winner, order = self.priorities.arbitrate(udn, competing, self.world)
            if winner is None:
                if len(competing) > 1:
                    self._trace("conflict", competing[0].name, udn,
                                "no applicable priority order; prompting")
                    winner = self.prompt_policy(udn, competing)
                    if winner is None:
                        winner = holder_rule if holder_rule is not None \
                            else competing[0]
                else:
                    winner = competing[0]
            # Grant the device to the winner.
            if holder_rule is not None and winner.name != holder_rule.name:
                next_round.extend(self._preempt(holder_rule, udn, winner, order))
            for rule, spec, is_primary in wants:
                if rule.name == winner.name:
                    self._grant(rule, spec, is_primary, order)
                else:
                    next_round.extend(
                        self._deny(rule, spec, is_primary, winner, udn)
                    )
        return next_round

    def _grant(self, rule: Rule, spec: ActionSpec, is_primary: bool,
               order: PriorityOrder | None) -> None:
        udn = spec.device_udn
        previous = self._holders.get(udn)
        if previous is None:
            self._holder_rank += 1
            rank = self._holder_rank
        else:
            # Overwriting keeps the udn's place in _holders, so it keeps
            # its rank too.
            rank = self._unindex_holder(previous[0], udn)
        self._holders[udn] = (rule.name, spec)
        self._held_by.setdefault(rule.name, {})[udn] = rank
        self._set_state(
            rule.name, RuleState.ACTIVE if is_primary else RuleState.FALLBACK
        )
        # A PriorityOrder is mutable: its text is taken now.
        self._decide("fire", rule.name, udn, spec.describe(),
                     None if order is None else order.describe())
        self._dispatch_safely(rule, spec)

    def _deny(
        self,
        rule: Rule,
        spec: ActionSpec,
        is_primary: bool,
        winner: Rule,
        udn: str,
    ) -> list[tuple[Rule, ActionSpec, bool]]:
        if is_primary and rule.fallback is not None:
            self._decide("fallback", rule.name, udn,
                         rule.fallback.describe(), spec.device_name,
                         winner.name)
            return [(rule, rule.fallback, False)]
        self._set_state(rule.name, RuleState.DENIED)
        self._decide("deny", rule.name, udn, winner.name)
        return []

    def _preempt(
        self, holder_rule: Rule, udn: str, winner: Rule,
        order: PriorityOrder | None,
    ) -> list[tuple[Rule, ActionSpec, bool]]:
        """Take the device away from its current holder."""
        holder_name, holder_spec = self._holders.pop(udn)
        self._unindex_holder(holder_name, udn)
        was_primary = holder_spec == holder_rule.action
        self._decide("preempt", holder_name, udn, winner.name)
        if was_primary and holder_rule.fallback is not None \
                and self._truth.get(holder_name, False):
            self._decide("fallback", holder_name, udn,
                         holder_rule.fallback.describe())
            return [(holder_rule, holder_rule.fallback, False)]
        self._set_state(holder_name, RuleState.DENIED)
        return []

    # -- stopping & release ----------------------------------------------------------------------

    def _on_condition_fall(self, rule: Rule) -> None:
        if self._state.get(rule.name) in (RuleState.ACTIVE, RuleState.FALLBACK):
            self._stop_rule(rule, reason="condition no longer holds")
        else:
            self._set_state(rule.name, RuleState.IDLE)

    def _stop_rule(self, rule: Rule, reason: str) -> None:
        self._trace("stop", rule.name, detail=reason)
        if rule.stop_action is not None:
            self._dispatch_safely(rule, rule.stop_action)
        self._set_state(rule.name, RuleState.IDLE)
        self._release_holdings(rule.name)

    def _dispatch_safely(self, rule: Rule, spec: ActionSpec) -> None:
        """Issue a device command; a failing device (offline, rejected
        action) or a privilege violation is traced but never takes the
        engine down — a home keeps running when one appliance misbehaves.

        The access check here is defence in depth: registration already
        rejects unauthorized rules, but imported/legacy rules must still
        be stopped at the device boundary."""
        spans = self._spans
        token = spans.span_begin("action") if spans is not None else None
        try:
            if self.access_check is not None:
                try:
                    self.access_check(rule, spec)
                except ReproError as exc:
                    self._trace("error", rule.name, spec.device_udn,
                                f"access denied: {exc}")
                    return
            try:
                self.dispatch(spec)
            except ReproError as exc:
                self._trace("error", rule.name, spec.device_udn,
                            f"dispatch failed: {exc}")
        finally:
            if token is not None:
                spans.span_end(token)

    def _unindex_holder(self, rule_name: str, udn: str) -> int:
        """Drop one device from a rule's holdings; returns its rank."""
        held = self._held_by[rule_name]
        rank = held.pop(udn)
        if not held:
            del self._held_by[rule_name]
        return rank

    def _release_holdings(self, rule_name: str) -> None:
        held = self._held_by.pop(rule_name, None)
        if not held:
            return
        freed = sorted(held, key=held.__getitem__) if len(held) > 1 \
            else list(held)
        for udn in freed:
            del self._holders[udn]
        for udn in freed:
            self._regrant(udn)

    def _regrant(self, udn: str) -> None:
        """A device was released: the strongest standing claimant (a rule
        whose condition still holds and whose primary targets this
        device) gets it."""
        standing = [
            rule
            for rule in self.database.rules_for_device(udn)
            if rule.enabled
            and self._truth.get(rule.name, False)
            and rule.action.device_udn == udn
            and self._state.get(rule.name) in (RuleState.DENIED, RuleState.FALLBACK)
        ]
        if not standing:
            return
        winner, order = self.priorities.arbitrate(udn, standing, self.world)
        if winner is None:
            winner = self.prompt_policy(udn, standing) or standing[0]
        # Upgrading from fallback releases the fallback device first.
        if self._state.get(winner.name) is RuleState.FALLBACK:
            self._release_holdings(winner.name)
        self._grant(winner, winner.action, is_primary=True, order=order)

    # -- holders & introspection --------------------------------------------------------------------

    def holder_of(self, udn: str) -> tuple[str, ActionSpec] | None:
        """(rule name, action spec) currently holding a device, if any."""
        return self._holders.get(udn)

    def rule_state(self, rule_name: str) -> RuleState:
        return self._state.get(rule_name, RuleState.IDLE)

    def rule_truth(self, rule_name: str) -> bool:
        return self._truth.get(rule_name, False)

    # -- durability (snapshot / restore) ------------------------------------------------------------

    def disarm_side_effects(self) -> None:
        """Silence the engine's outward effects while rules re-register
        during recovery: dispatched actions already fired before the
        crash, and held-duration timers are restored verbatim in phase
        2.  Must be paired with :meth:`rearm_side_effects`; calls do not
        nest."""
        self._saved_side_effects = (self.dispatch, self.world.on_held_armed)
        self.dispatch = _discard_dispatch
        self.world.on_held_armed = None

    def rearm_side_effects(self) -> None:
        """Restore the dispatch and held-timer hooks
        :meth:`disarm_side_effects` saved."""
        self.dispatch, self.world.on_held_armed = self._saved_side_effects
        del self._saved_side_effects

    def runtime_snapshot(self) -> dict:
        """JSON-ready snapshot of every piece of runtime state that is
        *not* a pure function of (world, registered rules).

        Evaluation state — columnar atom/clause columns and write
        indexes, watch-variable indexes — is deliberately absent:
        re-registering the rules against the restored world rebuilds it
        exactly (subscription evaluates first-seen atoms against the
        world).  What must be carried verbatim is the world
        itself, edge-trigger memory (truth), the arbitration outcome
        (states, holders), held-since bookkeeping with its pending
        recheck timers, the wheel's armed boundaries (a boundary between
        the last tick and the snapshot would otherwise be skipped by
        strictly-after re-subscription), enable flags and the trace ring.
        """
        world = self.world
        now = self.simulator.now
        wheel = self._time_wheel
        return {
            "world": {
                "numeric": dict(world._numeric),
                "discrete": dict(world._discrete),
                "sets": {
                    variable: sorted(members)
                    for variable, members in world._sets.items()
                },
                "held_since": dict(world._held_since),
            },
            "held_timers": [
                [when, key] for when, key in self._held_timers if when >= now
            ],
            "truth": dict(self._truth),
            "state": {
                name: state.value for name, state in self._state.items()
            },
            "holders": {
                udn: [name, _spec_to_jsonable(spec)]
                for udn, (name, spec) in self._holders.items()
            },
            "enabled": {
                rule.name: rule.enabled
                for rule in self.database.all_rules()
            },
            "disabled_dirty": sorted(self._disabled_dirty),
            "trace": [
                [e.time, e.kind, e.rule, e.device, e.detail]
                for e in self.trace
            ],
            "wheel": (
                {"next": dict(wheel._next), "armed_total": wheel.armed_total}
                if wheel is not None else None
            ),
        }

    def restore_world(self, snapshot: dict) -> None:
        """Recovery phase 1: overlay the world *before* rules re-register,
        so registration-time subscription evaluates atoms against the
        restored values and the columnar state rebuilds in its final
        state."""
        world = self.world
        data = snapshot["world"]
        world._numeric.clear()
        world._numeric.update(data["numeric"])
        world._discrete.clear()
        world._discrete.update(data["discrete"])
        world._sets.clear()
        for variable, members in data["sets"].items():
            world._sets[variable] = frozenset(members)
        world._held_since.clear()
        world._held_since.update(data["held_since"])

    def restore_runtime(self, snapshot: dict) -> None:
        """Recovery phase 2, after rules re-registered: overlay truth,
        states, holders and the trace (erasing registration-time firing
        side effects), rebuild the until watch set those states imply,
        re-derive each order context's truth from the restored world,
        restore the wheel schedule and re-arm held rechecks."""
        database = self.database
        for name, enabled in snapshot["enabled"].items():
            if name in database:
                database.get(name).enabled = enabled
        self._truth.clear()
        self._truth.update(snapshot["truth"])
        self._state.clear()
        for name, value in snapshot["state"].items():
            self._state[name] = RuleState(value)
        self._holders.clear()
        self._held_by.clear()
        for rank, (udn, (name, spec)) in enumerate(
                snapshot["holders"].items(), start=self._holder_rank + 1):
            self._holders[udn] = (name, _spec_from_jsonable(spec))
            self._held_by.setdefault(name, {})[udn] = rank
        self._holder_rank += len(self._holders)
        self._disabled_dirty.clear()
        self._disabled_dirty.update(
            name for name in snapshot["disabled_dirty"] if name in database
        )
        # The watch set is exactly what _set_state maintains: a pure
        # function of each rule's restored state and watch variables.
        self._until_watch.clear()
        if self.incremental:
            holding = (RuleState.ACTIVE, RuleState.FALLBACK)
            for name, state in self._state.items():
                if state in holding and name in self._has_until:
                    self._watch(name)
        # Context truths are a function of the world: every write to a
        # context's variables and every tick at one of its boundaries
        # re-evaluated it before the snapshot was taken.
        world = self.world
        self._context_truth = {
            order.order_id: order.applies(world)
            for order in self.priorities.orders()
        }
        self._trace_ring.clear()
        self._trace_ring.extend(map(tuple, snapshot["trace"]))
        wheel_data = snapshot.get("wheel")
        if wheel_data is not None and self._time_wheel is not None:
            self._time_wheel.restore_schedule(
                wheel_data["next"], wheel_data["armed_total"]
            )
        del self._held_timers[:]
        for when, key in snapshot["held_timers"]:
            self._schedule_held_recheck(when, key)

    # -- duration timers --------------------------------------------------------------------------------

    def _arm_held_timer(self, key: str, duration: float) -> None:
        # Same float arithmetic as call_after(now + (duration + eps)):
        # snapshot restores must re-arm at bit-identical times.
        self._schedule_held_recheck(
            self.simulator.now + (duration + _HELD_EPSILON), key
        )

    def _schedule_held_recheck(self, when: float, key: str) -> None:
        entry = (when, key)
        self._held_timers.append(entry)

        def recheck() -> None:
            try:
                self._held_timers.remove(entry)
            except ValueError:
                pass
            rules = list(self._held_atom_rules.get(key, ()))
            if rules:
                self.reevaluate(rules)

        self.simulator.call_at(when, recheck)

    def _trace(self, kind: str, rule: str, device: str = "",
               detail: str = "") -> None:
        """Record one decision with its text."""
        self._trace_ring.append(
            (self.simulator.now, kind, rule, device, detail))

    def _decide(self, kind: str, rule: str, device: str,
                *pieces: str | None) -> None:
        """Record one decision of a structured kind: the pieces its
        ``_DETAIL_TEXT`` formatter turns into text on read."""
        self._trace_ring.append(
            (self.simulator.now, kind, rule, device, None) + pieces)
