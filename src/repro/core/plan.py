"""Compiled condition plans — the incremental-evaluation IR.

A registered condition is compiled **once** into a :class:`CompiledPlan`:
a deduplicated table of atom slots plus DNF clause bitmasks.  Rule truth
then reduces to ``any((bits & mask) == mask for mask in clauses)`` over a
atom-truth bitset.  The incremental engine keeps that truth per atom and
per clause in :class:`~repro.core.columnar.ColumnarState` and only
touches what an ingest actually flipped.

Atoms fall into three behavioural classes:

static
    :class:`NumericAtom`, :class:`DiscreteAtom`, :class:`MembershipAtom`
    — truth is a pure function of stored world variables.  Their truth
    is cached globally (atoms are deduplicated by key across rules) and
    flipped through the columnar state's threshold / value-keyed /
    member-keyed write indexes.
volatile
    :class:`TimeWindowAtom`, :class:`EventAtom` — truth depends on
    ambient context (the clock, the current event set) that changes
    without any ingest.  They are re-evaluated fresh on every truth
    computation; evaluation is cheap arithmetic and the atoms are
    deduplicated, so this stays O(atoms-per-rule).
stateful
    A plan containing a :class:`DurationAtom` is *stateful*: ``held()``
    bookkeeping is a side effect of recursive evaluation order, so such
    plans keep the original tree evaluator to stay bit-exact with the
    seed semantics.  The engine wakes them through the variable-watch
    index instead of atom deltas.
"""

from __future__ import annotations

import sys

from repro.core.condition import (
    Atom,
    Condition,
    DurationAtom,
    EvaluationContext,
    EventAtom,
    FalseAtom,
    NumericAtom,
    TimeWindowAtom,
    TrueAtom,
)
from repro.core.satisfiability import ClauseBox
from repro.solver.linear import Relation

VOLATILE_ATOM_TYPES = (TimeWindowAtom, EventAtom)


class CompiledPlan:
    """Flat, immutable evaluation plan for one condition.

    Attributes:
        source_key: the compiled condition's :meth:`Condition.key`.
        atoms: deduplicated atom table; slot ``i`` owns bit ``1 << i``.
        clauses: one bitmask per surviving DNF conjunction, subsumption-
            reduced (a clause implied by a shorter clause is dropped).
        static_slots: ``(bit, atom_key, atom)`` triples for atoms whose
            truth the columnar state caches and indexes.
        volatile_slots: ``(bit, atom)`` pairs re-evaluated fresh on every
            truth computation.
        clause_parts: per surviving clause, ``(static_keys, volatile_mask)``
            — the clause's static conjunction as a *sorted* tuple of atom
            keys (the columnar clause-slot identity, equal across rules
            with equal conjunctions) plus the bitmask of its volatile
            atoms.  Empty for stateful plans, which never join the
            columnar state.
        has_duration: the plan is stateful (see module docstring).
        variables: the cached variable footprint.

    Its clause boxes (:meth:`boxes`) are built on first use: only a
    validated registration, or a check against a registered rule, asks
    for them, so bulk-loaded rules that nothing checks never build them.
    """

    __slots__ = (
        "source_key", "atoms", "clauses", "static_slots", "volatile_slots",
        "clause_parts", "has_duration", "variables", "_boxes",
    )

    def __init__(
        self,
        source_key: str,
        atoms: tuple[Atom, ...],
        clauses: tuple[int, ...],
        static_slots: tuple[tuple[int, str, Atom], ...],
        volatile_slots: tuple[tuple[int, Atom], ...],
        clause_parts: tuple[tuple[tuple[str, ...], int], ...],
        has_duration: bool,
        variables: frozenset[str],
    ) -> None:
        self.source_key = source_key
        self.atoms = atoms
        self.clauses = clauses
        self.static_slots = static_slots
        self.volatile_slots = volatile_slots
        self.clause_parts = clause_parts
        self.has_duration = has_duration
        self.variables = variables
        self._boxes: tuple[ClauseBox, ...] | None = None

    def boxes(self) -> tuple[ClauseBox, ...]:
        """One :class:`~repro.core.satisfiability.ClauseBox` per clause,
        built on the first call.  The clauses are subsumption-reduced,
        which keeps every satisfiability verdict: a dropped clause
        implies a kept one."""
        boxes = self._boxes
        if boxes is None:
            atoms = self.atoms
            every = (1 << len(atoms)) - 1
            boxes = self._boxes = tuple(
                ClauseBox(atoms if mask == every else
                          [atom for slot, atom in enumerate(atoms)
                           if mask >> slot & 1])
                for mask in self.clauses
            )
        return boxes

    def truth(self, bits: int) -> bool:
        """Condition truth given an atom-truth bitset."""
        for mask in self.clauses:
            if (bits & mask) == mask:
                return True
        return False

    def referenced_variables(self) -> frozenset[str]:
        """Every world variable the compiled condition reads (the cluster
        router derives rule→shard placement from this footprint)."""
        return self.variables

    def volatile_bits(self, ctx: EvaluationContext) -> int:
        bits = 0
        for bit, atom in self.volatile_slots:
            if atom.evaluate(ctx):
                bits |= bit
        return bits

    def __repr__(self) -> str:
        return (
            f"<CompiledPlan atoms={len(self.atoms)} "
            f"clauses={len(self.clauses)} stateful={self.has_duration}>"
        )


def _reduce_clauses(clauses: list[int]) -> tuple[int, ...]:
    """Deduplicate and subsumption-reduce clause masks.

    Clause masks are conjunctions: if ``small ⊆ big`` then ``big`` implies
    ``small`` and can be dropped.  Sorting by popcount makes one pass
    sufficient.
    """
    if len(clauses) <= 1:
        return tuple(clauses)
    kept: list[int] = []
    for mask in sorted(set(clauses), key=lambda m: (bin(m).count("1"), m)):
        if any((mask & prior) == prior for prior in kept):
            continue
        kept.append(mask)
    return tuple(kept)


def compile_condition(condition: Condition) -> CompiledPlan:
    """Compile a condition into a :class:`CompiledPlan`.

    ``TrueAtom`` contributes no slot (its bit would always be set) and a
    conjunction containing ``FalseAtom`` is dropped entirely; a plan with
    no surviving clauses is constant-false, a plan containing an empty
    clause mask is constant-true.
    """
    slot_of: dict[str, int] = {}
    atoms: list[Atom] = []
    keys: list[str] = []
    clauses: list[int] = []
    for conjunction in condition.dnf():
        mask = 0
        dead = False
        for atom in conjunction:
            if isinstance(atom, TrueAtom):
                continue
            if isinstance(atom, FalseAtom):
                dead = True
                break
            # Interned keys make cross-rule dedup (the columnar atom and
            # clause interners) use pointer-equal strings: dict probes
            # hit the identity fast path and duplicated templates share
            # one key object.
            key = sys.intern(atom.key())
            slot = slot_of.get(key)
            if slot is None:
                slot = len(atoms)
                slot_of[key] = slot
                atoms.append(atom)
                keys.append(key)
            mask |= 1 << slot
        if not dead:
            clauses.append(mask)

    static_slots: list[tuple[int, str, Atom]] = []
    volatile_slots: list[tuple[int, Atom]] = []
    volatile_mask_all = 0
    has_duration = False
    for slot, atom in enumerate(atoms):
        bit = 1 << slot
        if isinstance(atom, DurationAtom):
            has_duration = True
        elif isinstance(atom, VOLATILE_ATOM_TYPES):
            volatile_slots.append((bit, atom))
            volatile_mask_all |= bit
        else:
            static_slots.append((bit, keys[slot], atom))

    reduced = _reduce_clauses(clauses)
    clause_parts: tuple[tuple[tuple[str, ...], int], ...] = ()
    if not has_duration:
        clause_parts = tuple(
            (
                tuple(sorted(
                    key for bit, key, _atom in static_slots if mask & bit
                )),
                mask & volatile_mask_all,
            )
            for mask in reduced
        )

    return CompiledPlan(
        source_key=condition.key(),
        atoms=tuple(atoms),
        clauses=reduced,
        static_slots=tuple(static_slots),
        volatile_slots=tuple(volatile_slots),
        clause_parts=clause_parts,
        has_duration=has_duration,
        variables=frozenset(
            sys.intern(v) for v in condition.referenced_variables()
        ),
    )


def numeric_threshold(
    atom: NumericAtom,
) -> tuple[str, str, float, float] | None:
    """Threshold-index descriptor for a single-variable inequality atom.

    Returns ``(variable, kind, threshold, guard)`` where ``kind`` is
    ``"below"`` when the atom is true for values *below* the threshold
    and ``"above"`` otherwise, and ``guard`` widens the bisect window so
    the comparison tolerance of :meth:`LinearConstraint.satisfied_by`
    can never hide a flip.  Returns ``None`` for atoms that need generic
    rechecking (multi-variable constraints, equalities, and a NaN
    threshold, which orders with nothing in the sorted columns).
    """
    constraint = atom.constraint
    coefficients = constraint.expr.coefficients
    if len(coefficients) != 1:
        return None
    relation = constraint.relation
    if relation is Relation.EQ:
        return None
    variable, coefficient = coefficients[0]
    if coefficient == 0.0:
        return None
    # make() folds the constant into the bound, but a directly-built
    # constraint may still carry one: coef*v + c REL bound.
    threshold = (constraint.bound - constraint.expr.constant) / coefficient
    if threshold != threshold:
        return None
    guard = 1e-9 / abs(coefficient) + 1e-12
    if relation in (Relation.LE, Relation.LT):
        kind = "below" if coefficient > 0 else "above"
    else:  # GE/GT only appear when a constraint bypassed make()
        kind = "above" if coefficient > 0 else "below"
    return variable, kind, threshold, guard
