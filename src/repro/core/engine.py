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

Evaluation strategy (the incremental core)
------------------------------------------

By default the engine runs **incrementally**: each rule's condition is
compiled into a :class:`~repro.core.plan.CompiledPlan` and the engine
keeps a per-rule atom-truth bitset.  An ``ingest()`` asks the database's
atom-level index for the atoms whose truth *may* have crossed (sorted
threshold lists for numeric atoms, value/member keys for discrete and
membership atoms), verifies each candidate once, flips the subscribed
bits and re-derives truth from the cached DNF clause masks — work
proportional to what changed, not to how many rules read the variable.

Three small watch sets preserve the seed semantics exactly:

* ``DENIED`` rules retry arbitration on *any* relevant change, flipped
  atom or not, so they are watched per variable while denied;
* ``ACTIVE``/``FALLBACK`` rules with an ``until`` evaluate it on any
  relevant change, so they are watched per variable while holding;
* stateful plans (duration atoms, whose ``held()`` bookkeeping is a
  side effect of tree-walk order) and plans with volatile time/event
  atoms wake on any referenced-variable change via the database's
  variable-watch index and keep their original evaluation order.

Constructing the engine with ``incremental=False`` restores the seed's
full re-evaluation path unchanged (the A5 ablation baseline): every
ingest re-walks the condition tree of every rule reading the variable.
Both modes produce identical truth values, states, holders and traces.

Cross-rule sharing (the A7 optimisations)
-----------------------------------------

Two further layers make the hot paths scale with *distinct context*
rather than rule count; both require ``incremental`` and keep the
per-rule machinery as ablation baselines:

* ``shared=True`` (default) deduplicates identical DNF clauses across
  rules, so a flip updates each distinct clause once and only fans out
  to rules whose *clause* truth changed.  ``shared=False`` restores the
  per-rule bitset fan-out.
* ``columnar=True`` (default, requires ``shared``) keeps that clause
  state in the :class:`~repro.core.columnar.ColumnarState` arrays —
  interned atom/clause slots, a remaining-false counter per clause and
  a vectorized threshold sweep per numeric write — plus the
  :meth:`ingest_batch` bulk entry point.  ``columnar=False`` restores
  the object-graph :class:`~repro.core.network.SharedNetwork` (the A9
  ablation baseline); both backends are driven through the same
  verified-flip contract and produce identical wake sets.
* ``wheel=True`` (default) replaces ``clock_tick``'s blanket
  re-evaluation of every clock-reading rule with the
  :class:`~repro.core.wheel.TimeWheel` boundary schedule: a tick wakes
  only the rules whose time-window atoms actually crossed a start/end
  boundary (plus the DENIED / until / disabled watch sets, which the
  per-tick path re-examines every tick by construction).
  ``wheel=False`` restores the blanket wake.
"""

from __future__ import annotations

import enum
import math
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Collection, Iterable

from repro.core.action import ActionSpec, Setting
from repro.core.columnar import ColumnarState, ColumnarStats
from repro.core.condition import CLOCK_VARIABLE, DurationAtom, TimeWindowAtom
from repro.core.database import RuleDatabase
from repro.core.network import SharedNetwork
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

# Power-of-two buckets for wake fan-out sizes.  Spelled inline rather
# than imported: core modules may not import the live obs package (only
# its no-op facade) — see tools/check_obs_imports.py.
_SIZE_BOUNDS = tuple(float(2 ** i) for i in range(17))

# The per-write stages (sweep, fanout) fire once per ingested value, so
# even token-and-clock-read span cost adds ~2% to a worst-case columnar
# batch.  They are sampled deterministically 1-in-N instead — uniform
# over a stream, so stage percentiles stay representative, while exact
# volume lives in the unsampled counters (columnar.writes etc.).  The
# per-batch / per-tick / per-dispatch stages are never sampled.
_SPAN_SAMPLE = 8
"""Default trace ring-buffer capacity — generous enough for scenario
time-charts, bounded so long-running homes don't grow without limit."""


class RuleState(enum.Enum):
    IDLE = "idle"
    ACTIVE = "active"       # primary action holds its device
    FALLBACK = "fallback"   # fallback action holds its device
    DENIED = "denied"       # condition true but no device obtained


@dataclass
class TraceEntry:
    """One engine decision, for scenario time-charts and debugging."""

    time: float
    kind: str          # "fire" | "stop" | "preempt" | "deny" | "fallback" | "conflict"
    rule: str
    device: str = ""
    detail: str = ""

    def describe(self) -> str:
        device = f" [{self.device}]" if self.device else ""
        detail = f" — {self.detail}" if self.detail else ""
        return f"t={self.time:9.1f} {self.kind:<8} {self.rule}{device}{detail}"


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

    def mirrored_variables(self) -> frozenset[str]:
        return frozenset(self._mirrored)

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
        shared: bool = True,
        wheel: bool = True,
        columnar: bool = True,
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
        # Both cross-rule layers ride on the incremental bookkeeping
        # (atom-truth cache, watch sets); the seed path ignores them.
        self.shared = shared and incremental
        self.wheel = wheel and incremental
        # The columnar backend is the array-layout successor of the
        # shared network: same clause dedup, flat storage.
        self.columnar = columnar and self.shared
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
        self.trace: deque[TraceEntry] = deque(maxlen=max_trace)
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
        # -- incremental-evaluation state ----------------------------------------
        # Engine-side plan map, not a shortcut for database.plan_of():
        # rule_removed() runs after the database entry is gone and still
        # needs the plan to prune atom-truth caches.
        self._plans: dict[str, CompiledPlan] = {}        # rule name -> plan
        self._bits: dict[str, int] = {}                  # rule name -> atom bits
        self._atom_truth: dict[str, bool] = {}           # atom key -> cached truth
        self._columnar = ColumnarState() if self.columnar else None
        self._network = (
            SharedNetwork() if self.shared and not self.columnar else None
        )
        self._time_wheel = TimeWheel() if self.wheel else None
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
        # when no atom flips (their bits may have gone stale meanwhile).
        self._disabled_dirty: set[str] = set()
        # Fired whenever the set of rules a periodic clock tick must
        # re-examine (DENIED/until/disabled clock watchers, stateful
        # window plans, armed wheel boundaries) may have *grown* — the
        # shard's wheel-aware tick scheduler listens and pulls its next
        # wake-up in.  Demand shrinking is handled lazily: the already
        # scheduled tick fires as a no-op and re-arms optimally.
        self.on_clock_demand_changed: Callable[[], None] | None = None
        if incremental:
            # Attach-to-populated-database pattern: rules registered
            # before the engine existed still need plans/bits/watches or
            # delta propagation would silently never wake them.
            for rule in database.all_rules():
                self._index_rule(rule)
        self._denied_watch: dict[str, set[str]] = {}     # variable -> DENIED rules
        self._until_watch: dict[str, set[str]] = {}      # variable -> holding rules

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
        for atom in plan.atoms:
            if isinstance(atom, DurationAtom):
                self._held_atom_rules.setdefault(atom.key(), set()).add(rule.name)
        if self.incremental:
            self._plans[rule.name] = plan
            watch = set(plan.variables)
            if rule.until is not None:
                self._has_until.add(rule.name)
                watch |= rule.until.referenced_variables()
            self._watch_vars[rule.name] = frozenset(watch)
            backend = self._columnar if self._columnar is not None \
                else self._network
            if backend is not None and not plan.has_duration:
                backend.subscribe(
                    rule.name, plan, self._atom_truth, self.world
                )
            else:
                self._refresh_static_bits(rule.name)
            if self._time_wheel is not None:
                windows = [
                    atom for atom in plan.atoms
                    if isinstance(atom, TimeWindowAtom)
                ]
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
        if state is RuleState.DENIED:
            self._unwatch(self._denied_watch, rule_name)
        elif state in (RuleState.ACTIVE, RuleState.FALLBACK):
            self._unwatch(self._until_watch, rule_name)
        plan = self._plans.pop(rule_name, None)
        self._bits.pop(rule_name, None)
        self._watch_vars.pop(rule_name, None)
        self._has_until.discard(rule_name)
        self._disabled_dirty.discard(rule_name)
        if self._columnar is not None:
            self._columnar.unsubscribe(rule_name)
        if self._network is not None:
            self._network.unsubscribe(rule_name)
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
        if plan is not None:
            # Drop truth caches for atoms no other rule subscribes to.
            for atom in plan.atoms:
                key = atom.key()
                if key in self._atom_truth and not self.database.has_atom(key):
                    del self._atom_truth[key]
        if state in (RuleState.ACTIVE, RuleState.FALLBACK):
            self._release_holdings(rule_name)

    # -- state bookkeeping -------------------------------------------------------------

    def _set_state(self, rule_name: str, state: RuleState) -> None:
        """State transition, maintaining the per-variable watch sets the
        incremental path needs for DENIED retries and until checks."""
        if not self.incremental:
            self._state[rule_name] = state
            return
        previous = self._state.get(rule_name)
        if previous is state:
            return
        holding = (RuleState.ACTIVE, RuleState.FALLBACK)
        if previous is RuleState.DENIED:
            self._unwatch(self._denied_watch, rule_name)
        elif previous in holding and state not in holding:
            self._unwatch(self._until_watch, rule_name)
        if state is RuleState.DENIED:
            self._watch(self._denied_watch, rule_name)
        elif state in holding and previous not in holding \
                and rule_name in self._has_until:
            self._watch(self._until_watch, rule_name)
        self._state[rule_name] = state
        # A clock-watching rule entering DENIED (retry every tick) or a
        # holding state with a clock-reading until needs periodic ticks
        # again; tell the wheel-aware scheduler.
        if CLOCK_VARIABLE in self._watch_vars.get(rule_name, ()):
            self._notify_clock_demand()

    def _watch(self, index: dict[str, set[str]], rule_name: str) -> None:
        for variable in self._watch_vars.get(rule_name, ()):
            index.setdefault(variable, set()).add(rule_name)

    def _unwatch(self, index: dict[str, set[str]], rule_name: str) -> None:
        for variable in self._watch_vars.get(rule_name, ()):
            bucket = index.get(variable)
            if bucket is not None:
                bucket.discard(rule_name)
                if not bucket:
                    del index[variable]

    # -- world-state ingestion ----------------------------------------------------------

    def ingest(self, variable: str, value: Any) -> None:
        """Update one variable from a sensor event and re-evaluate the
        rules whose conditions read it.

        In incremental mode the rules woken are exactly those whose
        observable behaviour can change: subscribers of atoms whose truth
        flipped, plus the DENIED/until/variable-watch sets."""
        candidates: list | None = None
        if isinstance(value, bool):
            value = "true" if value else "false"
        if isinstance(value, str):
            old_discrete = self.world.discrete(variable)
            if not self.world.set_discrete(variable, value):
                return
            if self.incremental:
                candidates = self.database.discrete_candidates(
                    variable, old_discrete, value)
        elif isinstance(value, (int, float)):
            old_numeric = self.world.numeric(variable)
            new_numeric = float(value)
            if not self.world.set_numeric(variable, new_numeric):
                return
            if self.incremental:
                if self._columnar is not None:
                    # Columnar fast path: the backend owns the threshold
                    # index and verifies the whole candidate window in
                    # one sweep — no per-atom candidate list is built.
                    spans = self._spans
                    token = None
                    if spans is not None:
                        self._sweep_tick = tick = \
                            (self._sweep_tick + 1) % _SPAN_SAMPLE
                        if tick == 0:
                            token = spans.span_begin("sweep")
                    dirty = self._columnar.numeric_write(
                        variable, old_numeric, new_numeric, self.world
                    )
                    if token is not None:
                        spans.span_end(token, size=len(dirty))
                    self._finish_wake(variable, dirty)
                    return
                candidates = self.database.numeric_candidates(
                    variable, old_numeric, new_numeric)
        elif isinstance(value, (frozenset, set, list, tuple)):
            old_members = self.world.set_members(variable)
            new_members = value if isinstance(value, frozenset) \
                else frozenset(value)
            if not self.world.set_set(variable, new_members):
                return
            if self.incremental:
                candidates = self.database.set_candidates(
                    variable, old_members, new_members)
        elif value is None:
            return
        else:
            raise RuleError(f"cannot ingest value of type {type(value).__name__}")

        if not self.incremental:
            dirty = [r.name for r in self.database.rules_reading_variable(variable)]
            self._evaluate_rules(dirty, full=False)
            return
        self._propagate_deltas(variable, candidates)

    def ingest_batch(
        self, writes: "Iterable[tuple[str, Any]]"
    ) -> tuple[int, int]:
        """Apply a drained batch of sensor writes in publish order.

        Each write keeps exact per-event semantics — atom flips, wake
        sets and rule evaluations are identical to calling
        :meth:`ingest` per entry (edge-triggered firing forbids
        deferring or merging observable intermediate states; value
        coalescing is the bus's job, gated by ``coalesce_safe``).  What
        the batch entry point buys is the columnar hot path per write
        (one vectorized threshold sweep instead of a per-atom candidate
        loop) plus batch-level observability: returns ``(atoms_flipped,
        clauses_touched)`` deltas for this batch, ``(0, 0)`` on the
        object-graph paths."""
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
        """The columnar backend's hot-path counters (None when the
        engine runs an object-graph path)."""
        return self._columnar.stats if self._columnar is not None else None

    def set_telemetry(self, telemetry: Any) -> None:
        """(Re)bind the observability plane.  Passing ``None`` (or a
        disabled plane) detaches every instrument, restoring the
        exact disabled-construction hot path; passing a live plane
        binds its instruments once so the seams never touch the
        registry.  Safe mid-stream: telemetry is a pure read-side
        plane, so toggling it cannot perturb evaluation."""
        self.telemetry = telemetry
        self._sweep_tick = 0
        self._fanout_tick = 0
        if telemetry is not None and telemetry.enabled:
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
        """The time wheel's schedule counters (None with the wheel off):
        ``armed`` distinct boundaries currently scheduled, ``armed_total``
        boundaries ever armed (subscriptions plus re-arms)."""
        wheel = self._time_wheel
        if wheel is None:
            return None
        return {"armed": len(wheel), "armed_total": wheel.armed_total}

    def _propagate_deltas(self, variable: str,
                          candidates: Iterable) -> None:
        """Verify candidate atoms, flip subscriber bits, wake watchers."""
        dirty: set[str] = set()
        bits = self._bits
        columnar = self._columnar
        network = self._network
        truth_cache = self._atom_truth
        for entry in candidates:
            new_truth = entry.atom.evaluate(self.world)
            if columnar is not None:
                # Columnar path (discrete/membership candidates; numeric
                # writes take numeric_write): truth is deduplicated and
                # cached in the columns, so the backend both detects the
                # flip and fans it out.
                dirty.update(columnar.atom_flipped(entry.key, new_truth))
                continue
            if truth_cache.get(entry.key, False) == new_truth:
                continue
            truth_cache[entry.key] = new_truth
            if network is not None:
                # Shared path: flip each distinct clause once; only
                # clause-truth flips fan out to rules.
                dirty.update(network.atom_flipped(entry.key, new_truth))
            elif new_truth:
                for name, bit in entry.subscribers.items():
                    current = bits.get(name)
                    if current is not None:
                        bits[name] = current | bit
                        dirty.add(name)
            else:
                for name, bit in entry.subscribers.items():
                    current = bits.get(name)
                    if current is not None:
                        bits[name] = current & ~bit
                        dirty.add(name)
        self._finish_wake(variable, dirty)

    def _finish_wake(self, variable: str, dirty: set[str]) -> None:
        """Shared tail of every ingest: add the variable's watchers and
        watch sets to the flip-derived wake set, then evaluate."""
        spans = self._spans
        token = None
        if spans is not None:
            self._fanout_tick = tick = (self._fanout_tick + 1) % _SPAN_SAMPLE
            if tick == 0:
                token = spans.span_begin("fanout")
        watchers = self.database.variable_watchers(variable)
        if watchers:
            dirty.update(watchers)
        self._wake_watch_sets(variable, dirty, refresh_stale_bits=True)
        self._evaluate_dirty(dirty, full=False)
        if token is not None:
            spans.span_end(token, size=len(dirty))

    def _wake_watch_sets(
        self, variable: str, dirty: set[str], *, refresh_stale_bits: bool
    ) -> None:
        """Union in the per-variable sets the seed path re-examined on
        every relevant change: DENIED rules retrying arbitration,
        holding rules with a watching ``until``, and disabled-skipped
        rules (whose stale per-rule bits are refreshed here when the
        upcoming evaluation will not — shared clause nodes never go
        stale, and a ``full`` evaluation refreshes on its own)."""
        denied = self._denied_watch.get(variable)
        if denied:
            dirty.update(denied)
        holding = self._until_watch.get(variable)
        if holding:
            dirty.update(holding)
        if self._disabled_dirty:
            for name in list(self._disabled_dirty):
                watch = self._watch_vars.get(name)
                if watch is not None and variable in watch:
                    if refresh_stale_bits and self._network is None \
                            and self._columnar is None:
                        self._refresh_static_bits(name)
                    dirty.add(name)

    def _evaluate_dirty(self, dirty: set[str], *, full: bool) -> None:
        """Evaluate a wake set in the seed's deterministic rule_id order
        (skipping names a queued wake outlived)."""
        if not dirty:
            return
        database = self.database
        ordered = sorted(
            (name for name in dirty if name in database),
            key=lambda name: database.get(name).rule_id,
        )
        self._evaluate_rules(ordered, full=full)

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
        to co-located homes' rules."""
        dirty = [
            r.name
            for r in self.database.rules_reading_variable(f"event:{event_type}")
            if only is None or r.name in only
        ]
        self.world.begin_events({(event_type, subject)})
        try:
            self.reevaluate(dirty)
        finally:
            self.world.end_events()
        for name in dirty:
            if name not in self.database:
                continue
            rule = self.database.get(name)
            truth = self._compute_truth(name, rule, full=True)
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

        With the wheel off, every rule reading the clock pseudo-variable
        is re-evaluated (O(clock rules) per tick).  With the wheel on,
        only rules whose window atoms crossed a start/end boundary since
        the last tick wake — plus the sets the blanket wake re-examined
        every tick as a side effect and that genuinely need it: DENIED
        rules retrying arbitration, holding rules with a clock-reading
        ``until``, disabled-skipped rules whose next wake must re-derive
        truth, and stateful duration-over-window plans whose ``held()``
        sampling is tick-sensitive.  O(crossings), ~flat in the window
        population.
        """
        if self._time_wheel is None:
            dirty = [
                r.name
                for r in self.database.rules_reading_variable(CLOCK_VARIABLE)
            ]
            if dirty:
                self.reevaluate(dirty)
            return
        spans = self._spans
        token = spans.span_begin("wheel") if spans is not None else None
        wake = self._time_wheel.advance(self.simulator.now)
        if self._tick_stateful:
            wake |= self._tick_stateful
        self._wake_watch_sets(CLOCK_VARIABLE, wake, refresh_stale_bits=False)
        self._evaluate_dirty(wake, full=True)
        if token is not None:
            spans.span_end(token, size=len(wake))
            self._wheel_wake_counter.inc(len(wake))
            self._wheel_wake_sizes.observe(len(wake))

    def clock_demand(self) -> float:
        """The earliest simulated time the next ``clock_tick`` can do
        observable work — the wheel-aware tick scheduler's sleep target.

        Returns ``now`` when every periodic tick matters (no wheel, or
        any tick-stateful plan / DENIED / until / disabled clock-watcher
        the blanket wake would re-examine each tick), the next armed
        wheel boundary when only window crossings remain, and ``inf``
        when nothing clock-driven exists at all.  Demand can only move
        *earlier* through paths that fire :attr:`on_clock_demand_changed`,
        so a scheduler that re-arms on that hook never oversleeps; ticks
        it schedules too early are no-ops and therefore trace-invisible.
        """
        if self._time_wheel is None:
            return self.simulator.now
        if self._tick_stateful or self._denied_watch.get(CLOCK_VARIABLE) \
                or self._until_watch.get(CLOCK_VARIABLE):
            return self.simulator.now
        for name in self._disabled_dirty:
            watch = self._watch_vars.get(name)
            if watch is not None and CLOCK_VARIABLE in watch:
                return self.simulator.now
        boundary = self._time_wheel.peek()
        return math.inf if boundary is None else boundary

    def _notify_clock_demand(self) -> None:
        if self.on_clock_demand_changed is not None:
            self.on_clock_demand_changed()

    # -- evaluation ------------------------------------------------------------------------

    def reevaluate(self, rule_names: list[str]) -> None:
        """Recompute the truth of the given rules, firing edges."""
        self._evaluate_rules(rule_names, full=True)

    def reevaluate_all(self) -> None:
        self.reevaluate([rule.name for rule in self.database.all_rules()])

    def _compute_truth(self, name: str, rule: Rule, full: bool) -> bool:
        """Current condition truth.

        ``full`` recomputes every atom slot (registration, explicit
        reevaluation, clock ticks); otherwise the cached bits — already
        updated by delta propagation — are combined with freshly
        evaluated volatile atoms.  Stateful plans and the non-incremental
        baseline walk the condition tree exactly as the seed engine did.
        """
        if not self.incremental:
            return rule.condition.evaluate(self.world)
        plan = self._plans.get(name)
        if plan is None or plan.has_duration:
            return rule.condition.evaluate(self.world)
        if self._columnar is not None:
            # Clause counters are maintained by delta propagation and
            # never go stale, so full and partial reads are the same.
            volatile_bits = (
                plan.volatile_bits(self.world) if plan.volatile_slots else 0
            )
            return self._columnar.rule_truth(name, volatile_bits)
        if self._network is not None:
            # Shared clause nodes are maintained by delta propagation and
            # never go stale, so full and partial reads are the same.
            volatile_bits = (
                plan.volatile_bits(self.world) if plan.volatile_slots else 0
            )
            return self._network.rule_truth(name, volatile_bits)
        if full:
            bits = self._refresh_static_bits(name)
        else:
            bits = self._bits.get(name, 0)
        if plan.volatile_slots:
            bits |= plan.volatile_bits(self.world)
        return plan.truth(bits)

    def _refresh_static_bits(self, name: str) -> int:
        """Recompute a fast rule's static atom bits from the world (pure;
        never touches duration state)."""
        plan = self._plans.get(name)
        if plan is None or plan.has_duration:
            return 0
        bits = 0
        truth_cache = self._atom_truth
        for bit, key, atom in plan.static_slots:
            atom_truth = atom.evaluate(self.world)
            if atom_truth:
                bits |= bit
            truth_cache[key] = atom_truth
        self._bits[name] = bits
        return bits

    def _evaluate_rules(self, rule_names: Iterable[str], full: bool) -> None:
        """Shared edge-firing loop of both evaluation paths."""
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
            truth = self._compute_truth(name, rule, full)
            previous = self._truth.get(name, False)
            self._truth[name] = truth
            if truth and not previous:
                rising.append(rule)
            elif previous and not truth:
                self._on_condition_fall(rule)
            elif truth and self._state.get(name) is RuleState.DENIED:
                rising.append(rule)  # retry denied rules on any relevant change
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
        detail = spec.describe()
        if order is not None:
            detail += f" (order: {order.describe()})"
        self._trace("fire", rule.name, spec.device_udn, detail)
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
            self._trace("fallback", rule.name, udn,
                        f"lost {spec.device_name!r} to {winner.name!r}; "
                        f"trying {rule.fallback.describe()}")
            return [(rule, rule.fallback, False)]
        self._set_state(rule.name, RuleState.DENIED)
        self._trace("deny", rule.name, udn, f"lost to {winner.name!r}")
        return []

    def _preempt(
        self, holder_rule: Rule, udn: str, winner: Rule,
        order: PriorityOrder | None,
    ) -> list[tuple[Rule, ActionSpec, bool]]:
        """Take the device away from its current holder."""
        holder_name, holder_spec = self._holders.pop(udn)
        self._unindex_holder(holder_name, udn)
        was_primary = holder_spec == holder_rule.action
        self._trace("preempt", holder_name, udn,
                    f"preempted by {winner.name!r}")
        if was_primary and holder_rule.fallback is not None \
                and self._truth.get(holder_name, False):
            self._trace("fallback", holder_name, udn,
                        f"preempted; trying {holder_rule.fallback.describe()}")
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

        Backend state — columnar atom/clause columns, shared-network
        nodes, per-rule bitsets, watch-variable indexes — is deliberately
        absent: re-registering the rules against the restored world
        rebuilds it exactly (subscription evaluates first-seen atoms
        against the world).  What must be carried verbatim is the world
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
        restored values and every backend rebuilds in its final state."""
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
        side effects), rebuild the DENIED/until watch sets those states
        imply, restore the wheel schedule and re-arm held rechecks."""
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
        # The watch sets are exactly what _set_state maintains: a pure
        # function of each rule's restored state and watch variables.
        self._denied_watch.clear()
        self._until_watch.clear()
        if self.incremental:
            holding = (RuleState.ACTIVE, RuleState.FALLBACK)
            for name, state in self._state.items():
                if name not in database:
                    continue
                if state is RuleState.DENIED:
                    self._watch(self._denied_watch, name)
                elif state in holding and name in self._has_until:
                    self._watch(self._until_watch, name)
        self.trace.clear()
        for time, kind, rule, device, detail in snapshot["trace"]:
            self.trace.append(TraceEntry(time, kind, rule, device, detail))
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

    def _trace(self, kind: str, rule: str, device: str = "", detail: str = "") -> None:
        self.trace.append(
            TraceEntry(
                time=self.simulator.now, kind=kind, rule=rule,
                device=device, detail=detail,
            )
        )
