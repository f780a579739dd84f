"""Columnar evaluation state — interned slots, array truth, write indexes.

The incremental engine's whole fast path lives here: deduplicated atom
and clause state for every registered rule, plus the per-variable
indexes that decide which atoms a write can flip.

* a :class:`SlotInterner` assigns dense integer ids to deduplicated
  static atoms and clauses at registration time (freed ids are
  recycled, so long-running churn keeps the columns compact); equal
  atoms and equal static conjunctions across rules share one slot;
* atom truth is one global ``bytearray`` (one byte per atom slot);
* clause truth is a *remaining-false-atom counter* per clause in one
  ``array('i')`` — a clause is true exactly when its counter is zero,
  so an atom flip is a ``±1`` on each containing clause and a clause
  truth flip is a zero crossing; only rules subscribed to a crossing
  clause wake;
* the atom→clause fan-out is a CSR-style pair of index arrays
  (``offsets``/``flat``), rebuilt lazily after churn, so a vectorized
  sweep can gather every affected clause of every flipped atom with
  numpy ``repeat``/``unique``/``bincount`` instead of nested Python
  loops.

Three write indexes pick the candidate atoms of a write, each entry
point verifying its candidates and flipping the changed ones:

* :meth:`ColumnarState.numeric_write` — single-threshold numeric atoms
  live in parallel sorted arrays of ``(threshold, coef, const, bound,
  relation)``, which rule churn updates in place (:class:`_VarIndex`);
  a write ``old → new`` selects the guard-widened bisect
  window and verifies **all** candidates in one numpy expression that
  replicates :meth:`~repro.solver.linear.LinearConstraint.satisfied_by`
  bit for bit.  Equalities, multi-variable constraints and NaN
  thresholds are rechecked on every write of a variable they read;
* :meth:`ColumnarState.discrete_write` — discrete atoms keyed by value
  (``x == v`` and ``x != v`` alike), so only atoms naming the old or the
  new value are checked;
* :meth:`ColumnarState.set_write` — membership atoms keyed by member,
  so only members in the symmetric difference are checked.

A variable's first write (and a NaN on either side of a numeric write)
checks every atom of the variable.

numpy is optional: the state probes for it at import time and falls
back to pure-stdlib scalar loops (same arrays, same semantics), and
windows smaller than :data:`VECTOR_MIN` candidates always take the
scalar loop — the numpy round-trip costs more than it saves there.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from repro.core.condition import DiscreteAtom, MembershipAtom, NumericAtom
from repro.core.plan import numeric_threshold
from repro.solver.linear import Relation

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.core.condition import Atom, EvaluationContext
    from repro.core.plan import CompiledPlan

try:  # feature probe: the container may or may not ship numpy
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via use_numpy=False
    _np = None

HAVE_NUMPY = _np is not None

VECTOR_MIN = 32
"""Candidate-window size below which the scalar loop wins: a numpy
round-trip costs ~10µs of fixed overhead, more than 32 scalar checks."""

_NO_CLAUSE = -1
"""Table sentinel for a clause with no static part (constant-true
static conjunction; truth is the volatile mask alone)."""

# Relation codes of the vectorized satisfied_by replica.  Everything
# that is not LE/LT compares as EQ — including the GE/GT shapes that
# bypassed LinearConstraint.make(), which satisfied_by itself treats as
# EQ via its fallthrough branch.
_REL_LE = 0
_REL_LT = 1
_REL_EQ = 2

_TOL = 1e-9  # LinearConstraint.satisfied_by default tolerance


class SlotInterner:
    """Dense integer ids for hashable keys, with freelist recycling.

    ``intern`` returns ``(slot, is_new)``; ``release`` recycles the slot
    for the next intern.  Capacity (``len(self.keys)``) only grows, so
    parallel per-slot columns can be grown once per fresh slot and
    indexed without bounds checks.
    """

    __slots__ = ("ids", "keys", "free")

    def __init__(self) -> None:
        self.ids: dict = {}
        self.keys: list = []      # slot -> key (None when free)
        self.free: list[int] = []

    def __len__(self) -> int:
        return len(self.ids)

    def __contains__(self, key) -> bool:
        return key in self.ids

    def get(self, key) -> int | None:
        return self.ids.get(key)

    def intern(self, key) -> tuple[int, bool]:
        slot = self.ids.get(key)
        if slot is not None:
            return slot, False
        if self.free:
            slot = self.free.pop()
            self.keys[slot] = key
        else:
            slot = len(self.keys)
            self.keys.append(key)
        self.ids[key] = slot
        return slot, True

    def release(self, key) -> int:
        slot = self.ids.pop(key)
        self.keys[slot] = None
        self.free.append(slot)
        return slot

    @property
    def capacity(self) -> int:
        return len(self.keys)


@dataclass
class ColumnarStats:
    """Hot-path counters (cheap increments; read by BusStats / A9)."""

    writes: int = 0           # numeric_write invocations
    batches: int = 0          # ingest_batch invocations
    batch_writes: int = 0     # writes applied through ingest_batch
    atoms_flipped: int = 0    # atom truth flips propagated
    clauses_touched: int = 0  # clause counter updates (one per ±1)
    vector_sweeps: int = 0    # candidate windows verified via numpy
    scalar_sweeps: int = 0    # candidate windows verified via the loop

    def describe(self) -> str:
        return (
            f"writes={self.writes} batches={self.batches} "
            f"batch_writes={self.batch_writes} "
            f"atoms_flipped={self.atoms_flipped} "
            f"clauses_touched={self.clauses_touched} "
            f"sweeps={self.vector_sweeps}v/{self.scalar_sweeps}s"
        )


class _VarIndex:
    """Threshold-indexed numeric atoms of one variable.

    Single-threshold atoms live in parallel columns — ``thresholds``,
    ``aids``, ``coefs``, ``consts``, ``bounds``, ``codes`` — sorted by
    ``(threshold, aid)``.  Registration inserts and removal deletes one
    entry in place, found by bisecting on that pair, so rule churn never
    re-sorts a column.  The columns are mutated without a copy because
    no sweep holds them across a mutation: a sweep only flips truth and
    collects woken rules, and it returns before any dispatch (and so any
    re-entrant registration) runs.

    ``recheck_aids`` (sorted) holds atoms with no single-threshold
    structure (multi-variable constraints, equalities, NaN thresholds).  ``guard`` is
    the largest comparison guard seen; it never shrinks, which can only
    widen candidate windows (a superset is sound).  The numpy copies of
    the columns (:meth:`np_arrays`) are built at the first window large
    enough to sweep vectorized and dropped on any change.
    """

    __slots__ = ("thresholds", "aids", "coefs", "consts", "bounds",
                 "codes", "recheck_aids", "guard", "_np_arrays")

    def __init__(self) -> None:
        self.thresholds: list[float] = []
        self.aids: list[int] = []
        self.coefs: list[float] = []
        self.consts: list[float] = []
        self.bounds: list[float] = []
        self.codes: list[int] = []
        self.recheck_aids: list[int] = []
        self.guard = 0.0
        self._np_arrays = None

    @property
    def empty(self) -> bool:
        return not (self.aids or self.recheck_aids)

    def _position(self, threshold: float, aid: int) -> int:
        """Where ``(threshold, aid)`` sits in the sorted columns."""
        lo = bisect_left(self.thresholds, threshold)
        hi = bisect_right(self.thresholds, threshold, lo)
        return bisect_left(self.aids, aid, lo, hi)

    def insert(self, aid: int, threshold: float, coef: float, const: float,
               bound: float, code: int, guard: float) -> None:
        i = self._position(threshold, aid)
        self.thresholds.insert(i, threshold)
        self.aids.insert(i, aid)
        self.coefs.insert(i, coef)
        self.consts.insert(i, const)
        self.bounds.insert(i, bound)
        self.codes.insert(i, code)
        if guard > self.guard:
            self.guard = guard
        self._np_arrays = None

    def delete(self, aid: int, threshold: float) -> None:
        i = self._position(threshold, aid)
        for column in (self.thresholds, self.aids, self.coefs, self.consts,
                       self.bounds, self.codes):
            del column[i]
        self._np_arrays = None

    def np_arrays(self) -> tuple:
        """``(aids, coefs, consts, bounds, codes)`` as numpy arrays,
        built on first use after a change."""
        arrays = self._np_arrays
        if arrays is None:
            arrays = self._np_arrays = (
                _np.array(self.aids, dtype=_np.int64),
                _np.array(self.coefs, dtype=_np.float64),
                _np.array(self.consts, dtype=_np.float64),
                _np.array(self.bounds, dtype=_np.float64),
                _np.array(self.codes, dtype=_np.int8),
            )
        return arrays


class ColumnarState:
    """Array-backed atom/clause/rule truth state for one engine.

    Truth is engine state (each engine evaluates atoms against its own
    world), so the state lives on the engine: ``subscribe`` /
    ``unsubscribe`` follow rule registration, the three ``*_write``
    entry points apply one world write each and return the woken rules,
    and :meth:`rule_truth` reads a rule's DNF off the clause counters.
    """

    def __init__(self, *, use_numpy: bool = True,
                 vector_min: int = VECTOR_MIN) -> None:
        self.use_numpy = use_numpy and HAVE_NUMPY
        self.vector_min = vector_min
        self.stats = ColumnarStats()
        # -- atom columns ------------------------------------------------------
        self._atoms = SlotInterner()            # atom key -> aid
        self._atom_truth = bytearray()          # aid -> 0/1
        self._atom_refs: list[int] = []         # aid -> subscribing rules
        self._atom_rows: list[list[int]] = []   # aid -> containing cids
        self._atom_objs: list = []              # aid -> Atom (for recheck)
        # -- clause columns ----------------------------------------------------
        self._clauses = SlotInterner()          # ClauseKey -> cid
        self._clause_false = array("i")         # cid -> false-atom count
        self._clause_refs: list[int] = []       # cid -> table-row refs
        self._clause_subs: list[dict[str, int]] = []  # cid -> rule -> mult
        self._clause_atoms: list[list[int]] = []      # cid -> member aids
        # -- rule tables -------------------------------------------------------
        # rule name -> ((cid | _NO_CLAUSE, volatile_mask), ...)
        self._tables: dict[str, tuple[tuple[int, int], ...]] = {}
        self._rule_atoms: dict[str, list[int]] = {}   # rule -> interned aids
        # -- write indexes: which atoms can a write flip? ----------------------
        self._num_index: dict[str, _VarIndex] = {}
        # variable -> value (discrete) / member (set) -> aids
        self._discrete_index: dict[str, dict[str, set[int]]] = {}
        self._set_index: dict[str, dict[str, set[int]]] = {}
        # -- cached numpy views over the live columns --------------------------
        # Dropped before any capacity growth: resizing a bytearray or
        # array('i') with a live buffer view raises BufferError.
        self._truth_view = None
        self._false_view = None
        self._csr_cache = None

    def __len__(self) -> int:
        return len(self._clauses)

    # -- view / capacity discipline -------------------------------------------

    def _release_views(self) -> None:
        self._truth_view = None
        self._false_view = None

    def _truth_np(self):
        if self._truth_view is None:
            self._truth_view = _np.frombuffer(self._atom_truth, _np.uint8)
        return self._truth_view

    def _false_np(self):
        if self._false_view is None:
            self._false_view = _np.frombuffer(self._clause_false, _np.intc)
        return self._false_view

    def _csr(self):
        """Atom→clause fan-out as (offsets, flat) int64 arrays."""
        if self._csr_cache is None:
            rows = self._atom_rows
            counts = _np.fromiter(
                (len(row) for row in rows), _np.int64, len(rows)
            )
            offsets = _np.zeros(len(rows) + 1, _np.int64)
            _np.cumsum(counts, out=offsets[1:])
            flat = _np.fromiter(
                (cid for row in rows for cid in row),
                _np.int64, int(offsets[-1]),
            )
            self._csr_cache = (offsets, flat)
        return self._csr_cache

    # -- registration ----------------------------------------------------------

    def subscribe(self, rule_name: str, plan: "CompiledPlan",
                  world: "EvaluationContext") -> None:
        """Intern the plan's static atoms and clauses, build the rule's
        clause table.  First-seen atoms are evaluated against the world
        once; atoms already interned keep their maintained truth."""
        aid_of: dict[str, int] = {}
        rule_aids: list[int] = []
        for _bit, key, atom in plan.static_slots:
            aid, fresh = self._atoms.intern(key)
            if fresh:
                self._grow_atom(aid, atom, bool(atom.evaluate(world)))
            self._atom_refs[aid] += 1
            aid_of[key] = aid
            rule_aids.append(aid)
        table: list[tuple[int, int]] = []
        for static_keys, volatile_mask in plan.clause_parts:
            if not static_keys:
                table.append((_NO_CLAUSE, volatile_mask))
                continue
            cid, fresh = self._clauses.intern(static_keys)
            if fresh:
                member_aids = [aid_of[key] for key in static_keys]
                false_count = sum(
                    1 for aid in member_aids if not self._atom_truth[aid]
                )
                self._grow_clause(cid, member_aids, false_count)
                for aid in member_aids:
                    self._atom_rows[aid].append(cid)
                self._csr_cache = None
            self._clause_refs[cid] += 1
            subs = self._clause_subs[cid]
            subs[rule_name] = subs.get(rule_name, 0) + 1
            table.append((cid, volatile_mask))
        self._tables[rule_name] = tuple(table)
        self._rule_atoms[rule_name] = rule_aids

    def _grow_atom(self, aid: int, atom, truth: bool) -> None:
        if aid == len(self._atom_refs):
            self._release_views()
            self._atom_truth.append(1 if truth else 0)
            self._atom_refs.append(0)
            self._atom_rows.append([])
            self._atom_objs.append(atom)
        else:  # recycled slot: columns already sized
            self._atom_truth[aid] = 1 if truth else 0
            self._atom_refs[aid] = 0
            self._atom_rows[aid] = []
            self._atom_objs[aid] = atom
        self._index_atom(aid, atom)

    def _grow_clause(self, cid: int, member_aids: list[int],
                     false_count: int) -> None:
        if cid == len(self._clause_refs):
            self._release_views()
            self._clause_false.append(false_count)
            self._clause_refs.append(0)
            self._clause_subs.append({})
            self._clause_atoms.append(member_aids)
        else:
            self._clause_false[cid] = false_count
            self._clause_refs[cid] = 0
            self._clause_subs[cid] = {}
            self._clause_atoms[cid] = member_aids

    def _index_atom(self, aid: int, atom) -> None:
        if isinstance(atom, NumericAtom):
            self._index_numeric(aid, atom)
        elif isinstance(atom, DiscreteAtom):
            self._discrete_index.setdefault(atom.variable, {}) \
                .setdefault(atom.value, set()).add(aid)
        elif isinstance(atom, MembershipAtom):
            self._set_index.setdefault(atom.variable, {}) \
                .setdefault(atom.member, set()).add(aid)

    def _unindex_atom(self, aid: int, atom) -> None:
        if isinstance(atom, NumericAtom):
            self._unindex_numeric(aid, atom)
        elif isinstance(atom, DiscreteAtom):
            _discard_keyed(self._discrete_index, atom.variable, atom.value,
                           aid)
        elif isinstance(atom, MembershipAtom):
            _discard_keyed(self._set_index, atom.variable, atom.member, aid)

    def _index_numeric(self, aid: int, atom: NumericAtom) -> None:
        descriptor = numeric_threshold(atom)
        constraint = atom.constraint
        if descriptor is not None:
            variable, _kind, threshold, guard = descriptor
            relation = constraint.relation
            if relation is Relation.LE:
                code = _REL_LE
            elif relation is Relation.LT:
                code = _REL_LT
            else:  # EQ never reaches here; GE/GT fall through to EQ in
                code = _REL_EQ  # satisfied_by, so replicate that.
            index = self._num_index.get(variable)
            if index is None:
                index = self._num_index[variable] = _VarIndex()
            index.insert(
                aid, threshold, constraint.expr.coefficients[0][1],
                constraint.expr.constant, constraint.bound, code, guard,
            )
        else:
            for variable in atom.referenced_variables():
                index = self._num_index.get(variable)
                if index is None:
                    index = self._num_index[variable] = _VarIndex()
                insort(index.recheck_aids, aid)

    def _unindex_numeric(self, aid: int, atom: NumericAtom) -> None:
        descriptor = numeric_threshold(atom)
        if descriptor is not None:
            variable = descriptor[0]
            index = self._num_index[variable]
            index.delete(aid, descriptor[2])
            if index.empty:
                del self._num_index[variable]
            return
        for variable in atom.referenced_variables():
            index = self._num_index[variable]
            index.recheck_aids.remove(aid)
            if index.empty:
                del self._num_index[variable]

    def unsubscribe(self, rule_name: str) -> None:
        """Drop a rule's table; clauses and atoms with no remaining
        references release their slots back to the interner freelists
        (removal must not leak, nor leave stale state a later
        re-registration could read)."""
        table = self._tables.pop(rule_name, None)
        if table is None:
            return
        for cid, _volatile_mask in table:
            if cid == _NO_CLAUSE:
                continue
            subs = self._clause_subs[cid]
            count = subs.get(rule_name, 0) - 1
            if count > 0:
                subs[rule_name] = count
            else:
                subs.pop(rule_name, None)
            self._clause_refs[cid] -= 1
            if self._clause_refs[cid] == 0:
                for aid in self._clause_atoms[cid]:
                    self._atom_rows[aid].remove(cid)
                self._clause_atoms[cid] = []
                self._clauses.release(self._clauses.keys[cid])
                self._csr_cache = None
        for aid in self._rule_atoms.pop(rule_name, ()):
            self._atom_refs[aid] -= 1
            if self._atom_refs[aid] == 0:
                self._unindex_atom(aid, self._atom_objs[aid])
                self._atom_objs[aid] = None
                self._atoms.release(self._atoms.keys[aid])

    # -- truth reads -----------------------------------------------------------

    def atom_truth(self, key: str) -> bool | None:
        """Cached truth of an interned atom (introspection/tests)."""
        aid = self._atoms.get(key)
        if aid is None:
            return None
        return bool(self._atom_truth[aid])

    def rule_truth(self, rule_name: str, volatile_bits: int) -> bool:
        """Current truth of a subscribed rule: any clause whose static
        counter sits at zero and whose volatile part is satisfied."""
        false_counts = self._clause_false
        for cid, volatile_mask in self._tables.get(rule_name, ()):
            if cid != _NO_CLAUSE and false_counts[cid]:
                continue
            if (volatile_bits & volatile_mask) == volatile_mask:
                return True
        return False

    # -- delta propagation -------------------------------------------------------

    def _flip_atom(self, aid: int, new_truth: bool, woken: set[str]) -> None:
        self._atom_truth[aid] = 1 if new_truth else 0
        delta = -1 if new_truth else 1
        false_counts = self._clause_false
        subs = self._clause_subs
        touched = 0
        for cid in self._atom_rows[aid]:
            old = false_counts[cid]
            false_counts[cid] = old + delta
            touched += 1
            if (old == 0) != (old + delta == 0):
                woken.update(subs[cid])
        self.stats.atoms_flipped += 1
        self.stats.clauses_touched += touched

    def _verify(self, aids: Iterable[int], world: "EvaluationContext",
                woken: set[str]) -> None:
        """Re-evaluate candidate atoms through their atom objects and
        flip the ones whose truth changed."""
        truth = self._atom_truth
        atoms = self._atom_objs
        for aid in aids:
            atom_truth = bool(atoms[aid].evaluate(world))
            if bool(truth[aid]) != atom_truth:
                self._flip_atom(aid, atom_truth, woken)

    def discrete_write(self, variable: str, old: str | None, new: str,
                       world: "EvaluationContext") -> set[str]:
        """Apply one discrete write and return the woken rules.  Only
        atoms keyed by the old or the new value can flip; a first write
        (``old is None``) checks every atom of the variable."""
        woken: set[str] = set()
        by_value = self._discrete_index.get(variable)
        if by_value is None:
            return woken
        if old is None:
            for aids in by_value.values():
                self._verify(aids, world, woken)
            return woken
        for value in (old, new):
            aids = by_value.get(value)
            if aids:
                self._verify(aids, world, woken)
        return woken

    def set_write(self, variable: str, old: frozenset[str],
                  new: frozenset[str],
                  world: "EvaluationContext") -> set[str]:
        """Apply one set-valued write and return the woken rules.  Only
        atoms on members in the symmetric difference can flip."""
        woken: set[str] = set()
        by_member = self._set_index.get(variable)
        if by_member is None:
            return woken
        for member in old ^ new:
            aids = by_member.get(member)
            if aids:
                self._verify(aids, world, woken)
        return woken

    # -- the vectorized numeric sweep ------------------------------------------

    def numeric_write(self, variable: str, old: float | None, new: float,
                      world: "EvaluationContext") -> set[str]:
        """Apply one numeric write: select the candidate window, verify
        every candidate (vectorized when large enough), flip changed
        atoms into the clause counters and return the woken rules.

        Verification replicates ``satisfied_by`` arithmetic exactly
        (``coef*value + const`` is one IEEE addition in both, and
        addition of two operands is commutative), so flips are
        bit-identical to calling each candidate atom's ``evaluate``.
        """
        self.stats.writes += 1
        woken: set[str] = set()
        index = self._num_index.get(variable)
        if index is None:
            return woken
        # Generic shapes re-evaluate through the atom (multi-variable
        # constraints need other values).
        if index.recheck_aids:
            self._verify(index.recheck_aids, world, woken)
        thresholds = index.thresholds
        if not thresholds:
            return woken
        # NaN / first write: compare against every threshold — NaN breaks
        # the ordering the bisect window relies on (vector compares with
        # NaN are all-False, matching scalar satisfied_by).
        if old is None or old != old or new != new:
            lo_i, hi_i = 0, len(thresholds)
        else:
            lo, hi = (old, new) if old <= new else (new, old)
            lo_i = bisect_left(thresholds, lo - index.guard)
            hi_i = bisect_right(thresholds, hi + index.guard)
        count = hi_i - lo_i
        if count <= 0:
            return woken
        if self.use_numpy and count >= self.vector_min:
            self.stats.vector_sweeps += 1
            self._vector_window(index, lo_i, hi_i, new, woken)
        else:
            self.stats.scalar_sweeps += 1
            self._scalar_window(index, lo_i, hi_i, new, woken)
        return woken

    def _scalar_window(self, index: _VarIndex, lo_i: int, hi_i: int,
                       value: float, woken: set[str]) -> None:
        truth = self._atom_truth
        aids = index.aids
        coefs = index.coefs
        consts = index.consts
        bounds = index.bounds
        codes = index.codes
        for i in range(lo_i, hi_i):
            lhs = consts[i] + coefs[i] * value
            code = codes[i]
            if code == _REL_LE:
                atom_truth = lhs <= bounds[i] + _TOL
            elif code == _REL_LT:
                atom_truth = lhs < bounds[i] - _TOL
            else:
                atom_truth = abs(lhs - bounds[i]) <= _TOL
            aid = aids[i]
            if bool(truth[aid]) != atom_truth:
                self._flip_atom(aid, atom_truth, woken)

    def _vector_window(self, index: _VarIndex, lo_i: int, hi_i: int,
                       value: float, woken: set[str]) -> None:
        aids, coefs, consts, bounds, codes = index.np_arrays()
        aids = aids[lo_i:hi_i]
        lhs = coefs[lo_i:hi_i] * value + consts[lo_i:hi_i]
        bounds = bounds[lo_i:hi_i]
        codes = codes[lo_i:hi_i]
        new_truth = _np.where(
            codes == _REL_LE, lhs <= bounds + _TOL,
            _np.where(codes == _REL_LT, lhs < bounds - _TOL,
                      _np.abs(lhs - bounds) <= _TOL),
        )
        old_truth = self._truth_np()[aids] != 0
        changed = new_truth != old_truth
        if not changed.any():
            return
        flipped_aids = aids[changed]
        flipped_truth = new_truth[changed]
        self._truth_np()[flipped_aids] = flipped_truth
        self.stats.atoms_flipped += len(flipped_aids)
        offsets, flat = self._csr()
        starts = offsets[flipped_aids]
        counts = offsets[flipped_aids + 1] - starts
        total = int(counts.sum())
        if total == 0:
            return
        # Ragged gather: positions of every (flipped atom, clause) pair.
        base = _np.repeat(starts - _np.concatenate(
            ([0], _np.cumsum(counts)[:-1])), counts)
        positions = base + _np.arange(total, dtype=_np.int64)
        cids = flat[positions]
        deltas = _np.repeat(_np.where(flipped_truth, -1, 1), counts)
        unique_cids, inverse = _np.unique(cids, return_inverse=True)
        summed = _np.bincount(
            inverse, weights=deltas, minlength=len(unique_cids)
        ).astype(_np.intc)
        false_view = self._false_np()
        old_counts = false_view[unique_cids]
        new_counts = old_counts + summed
        false_view[unique_cids] = new_counts
        self.stats.clauses_touched += total
        crossed = (old_counts == 0) != (new_counts == 0)
        if crossed.any():
            subs = self._clause_subs
            for cid in unique_cids[crossed]:
                woken.update(subs[cid])


def _discard_keyed(index: dict[str, dict[str, set[int]]], variable: str,
                   key: str, aid: int) -> None:
    """Drop one atom from a keyed write index, pruning emptied buckets."""
    by_key = index[variable]
    aids = by_key[key]
    aids.discard(aid)
    if not aids:
        del by_key[key]
        if not by_key:
            del index[variable]
