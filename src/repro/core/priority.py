"""Context-attached priority orders.

Paper, Sect. 3.2: "users can define multiple different priorities for
the same device and attach a context to each of them.  For example, to
the TV, our framework can let Alan have a higher priority than Tom in
the context that Alan got home from work, and at the same time it can
give a higher priority to Tom in the context that today is Tom's
birthday."

A :class:`PriorityOrder` is a total order over *owners* (the paper's
Fig. 7 dialog arranges conflicting users' rules top-to-bottom), scoped
to one device and guarded by an optional context condition.  The
:class:`PriorityManager` stores every order and, given a runtime
conflict, returns the first order whose context currently holds.

Adding or removing an order changes who may win a device, so the
manager reports every change through one hook,
:attr:`PriorityManager.on_change`, which the rule engine installs; both
facades reach the engine that way.  The manager also indexes orders by
the variables their contexts read, the engine's way to find the
contexts a write can flip.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

from repro.core.condition import Condition, EvaluationContext, TrueAtom
from repro.core.rule import Rule
from repro.errors import RuleError

_order_ids = itertools.count(1)


@dataclass
class PriorityOrder:
    """A total order over owners for one device, valid under a context.

    Attributes:
        device_udn: the contested device.
        ranking: owners from highest to lowest priority.
        context: the order applies only while this condition holds
            (default: always).
        label: human description ("Alan got home from work").
    """

    device_udn: str
    ranking: tuple[str, ...]
    context: Condition = field(default_factory=TrueAtom)
    label: str = ""
    order_id: int = field(default_factory=lambda: next(_order_ids))
    #: The ranked owners as a set, built once.
    owners: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.ranking:
            raise RuleError("priority order needs at least one owner")
        self.owners = frozenset(self.ranking)
        if len(self.owners) != len(self.ranking):
            raise RuleError(f"duplicate owners in ranking: {self.ranking}")

    def rank_of(self, owner: str) -> int | None:
        """0 is highest priority; None when the owner is unranked."""
        try:
            return self.ranking.index(owner)
        except ValueError:
            return None

    def applies(self, ctx: EvaluationContext) -> bool:
        return self.context.evaluate(ctx)

    def describe(self) -> str:
        text = " > ".join(self.ranking)
        if self.label:
            text += f" (when {self.label})"
        return text


class PriorityManager:
    """All registered priority orders, indexed by device."""

    def __init__(self) -> None:
        self._orders: dict[str, list[PriorityOrder]] = {}
        # context variable -> orders whose context reads it
        self._readers: dict[str, list[PriorityOrder]] = {}
        #: Called as ``on_change(order, added)`` after every add and
        #: every remove.
        self.on_change: Callable[[PriorityOrder, bool], None] | None = None

    def add_order(self, order: PriorityOrder) -> PriorityOrder:
        """Register an order; later-registered orders win ties, matching
        the paper's flow where the user (re)specifies the order when a
        new conflict is reported — newest decision is freshest."""
        self._orders.setdefault(order.device_udn, []).insert(0, order)
        for variable in order.context.referenced_variables():
            self._readers.setdefault(variable, []).append(order)
        if self.on_change is not None:
            self.on_change(order, True)
        return order

    def remove_order(self, order_id: int) -> None:
        for orders in self._orders.values():
            for order in orders:
                if order.order_id == order_id:
                    orders.remove(order)
                    for variable in order.context.referenced_variables():
                        readers = self._readers[variable]
                        readers.remove(order)
                        if not readers:
                            del self._readers[variable]
                    if self.on_change is not None:
                        self.on_change(order, False)
                    return
        raise RuleError(f"no priority order with id {order_id}")

    def orders(self) -> Iterator[PriorityOrder]:
        """Every registered order, device by device."""
        for orders in self._orders.values():
            yield from orders

    def orders_reading(self, variable: str) -> Sequence[PriorityOrder]:
        """The orders whose context reads ``variable`` (shared list;
        callers must not mutate it)."""
        return self._readers.get(variable, ())

    def orders_for_device(self, device_udn: str) -> list[PriorityOrder]:
        return list(self._orders.get(device_udn, ()))

    def has_order_covering(self, device_udn: str, owners: Iterable[str]) -> bool:
        """Is there any order on this device ranking all given owners?
        Used at registration time to decide whether to prompt the user."""
        owner_set = set(owners)
        return any(
            owner_set <= order.owners
            for order in self._orders.get(device_udn, ())
        )

    def arbitrate(
        self,
        device_udn: str,
        competing: Sequence[Rule],
        ctx: EvaluationContext,
    ) -> tuple[Rule | None, PriorityOrder | None]:
        """Pick the winning rule among ``competing`` for a device.

        Returns (winner, order_used).  ``winner`` is None when no
        applicable order ranks any competitor — the caller then falls
        back to its prompt policy (the paper's conflict dialog).
        """
        if not competing:
            raise RuleError("arbitrate called with no competing rules")
        if len(competing) == 1:
            return competing[0], None
        for order in self._orders.get(device_udn, ()):
            if not order.applies(ctx):
                continue
            ranked = [
                (order.rank_of(rule.owner), rule.rule_id, rule)
                for rule in competing
                if order.rank_of(rule.owner) is not None
            ]
            if ranked:
                ranked.sort(key=lambda item: (item[0], item[1]))
                return ranked[0][2], order
        return None, None
