"""Satisfiability of conjunctions of linear inequalities.

The paper detects rule conflicts by checking whether the conjunction of
two rules' conditions "has feasible solutions or not", solved in the
prototype by a C library implementing the Simplex method.  This package
is the Python equivalent:

* :mod:`repro.solver.linear` — linear-expression and constraint IR.
* :mod:`repro.solver.simplex` — two-phase Simplex feasibility with
  strict-inequality support (gap-variable formulation).
* :mod:`repro.solver.intervals` — the per-variable interval fold that
  decides the (very common) single-variable-per-constraint case without
  building a tableau; the registration checks keep its result in their
  clause boxes, and the A1 ablation benchmark quantifies the gain.

:func:`feasible` is the public entry point; it dispatches to the fast
path when applicable and falls back to Simplex otherwise.
"""

from repro.solver.linear import LinearConstraint, LinearExpr, Relation
from repro.solver.intervals import interval_feasible
from repro.solver.simplex import simplex_feasible


def feasible(
    constraints: list[LinearConstraint], *, prefer_intervals: bool = True
) -> bool:
    """Decide whether a conjunction of linear constraints is satisfiable
    over the reals.

    Args:
        constraints: the conjunction to test (empty conjunction is True).
        prefer_intervals: try interval propagation first; it decides any
            system whose constraints each mention a single variable.

    Returns:
        True iff some real assignment satisfies every constraint.
    """
    if prefer_intervals:
        verdict = interval_feasible(constraints)
        if verdict is not None:
            return verdict
    return simplex_feasible(constraints)


__all__ = [
    "LinearConstraint",
    "LinearExpr",
    "Relation",
    "feasible",
    "interval_feasible",
    "simplex_feasible",
]
