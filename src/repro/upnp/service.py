"""UPnP services: typed state variables and invocable actions.

A service is the unit of control and eventing.  Appliances in
:mod:`repro.home` are built by composing services (a TV has a
``SwitchPower`` service, an ``AVTransport``-like playback service, and a
``Display`` service; a thermometer has a single ``TemperatureSensor``
service whose ``temperature`` variable is evented).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import ActionError, UPnPError


@dataclass
class StateVariable:
    """A named, typed piece of service state.

    Attributes:
        name: variable name, unique within the service.
        data_type: ``"number"``, ``"string"`` or ``"boolean"``.
        value: current value; assigned through ``Service.set_variable``
            so eventing fires.
        sends_events: whether changes are pushed to subscribers.
        allowed_values: for strings, the closed set of legal values
            (None = unconstrained).
        minimum/maximum: for numbers, the legal range (None = open).
        unit: human-readable unit for guidance UIs ("celsius", "%").
    """

    name: str
    data_type: str
    value: Any = None
    sends_events: bool = True
    allowed_values: tuple[str, ...] | None = None
    minimum: float | None = None
    maximum: float | None = None
    unit: str = ""

    _VALID_TYPES = ("number", "string", "boolean")

    def __post_init__(self) -> None:
        if self.data_type not in self._VALID_TYPES:
            raise UPnPError(
                f"state variable {self.name!r}: bad data_type {self.data_type!r}"
            )
        if self.value is not None:
            self.validate(self.value)

    def validate(self, value: Any) -> None:
        """Raise UPnPError if ``value`` is illegal for this variable."""
        if self.data_type == "number":
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise UPnPError(f"{self.name!r} expects a number, got {value!r}")
            if self.minimum is not None and value < self.minimum:
                raise UPnPError(f"{self.name!r}: {value} below minimum {self.minimum}")
            if self.maximum is not None and value > self.maximum:
                raise UPnPError(f"{self.name!r}: {value} above maximum {self.maximum}")
        elif self.data_type == "boolean":
            if not isinstance(value, bool):
                raise UPnPError(f"{self.name!r} expects a boolean, got {value!r}")
        else:  # string
            if not isinstance(value, str):
                raise UPnPError(f"{self.name!r} expects a string, got {value!r}")
            if self.allowed_values is not None and value not in self.allowed_values:
                raise UPnPError(
                    f"{self.name!r}: {value!r} not in allowed values "
                    f"{self.allowed_values}"
                )

    def describe(self) -> dict[str, Any]:
        """Plain-data description, the UPnP SCPD analogue."""
        doc: dict[str, Any] = {
            "name": self.name,
            "data_type": self.data_type,
            "sends_events": self.sends_events,
        }
        if self.allowed_values is not None:
            doc["allowed_values"] = list(self.allowed_values)
        if self.minimum is not None:
            doc["minimum"] = self.minimum
        if self.maximum is not None:
            doc["maximum"] = self.maximum
        if self.unit:
            doc["unit"] = self.unit
        return doc


ActionHandler = Callable[[dict[str, Any]], dict[str, Any]]


@dataclass
class Action:
    """An invocable service action.

    Attributes:
        name: action name, unique within the service.
        handler: callable taking the argument dict and returning the
            output dict; raise :class:`~repro.errors.ActionError` for
            domain rejections.
        in_args: declared input argument names (validated on invoke).
        out_args: declared output argument names (documentation only).
        description: one-line human text shown by the guidance UI.
    """

    name: str
    handler: ActionHandler
    in_args: tuple[str, ...] = ()
    out_args: tuple[str, ...] = ()
    description: str = ""

    def describe(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "in_args": list(self.in_args),
            "out_args": list(self.out_args),
            "description": self.description,
        }


class Service:
    """A collection of state variables and actions under one type URN.

    Args:
        service_type: UPnP-style URN, e.g.
            ``"urn:repro:service:TemperatureSensor:1"``.
        service_id: short id unique within the owning device.
    """

    def __init__(self, service_type: str, service_id: str) -> None:
        self.service_type = service_type
        self.service_id = service_id
        self._variables: dict[str, StateVariable] = {}
        self._actions: dict[str, Action] = {}
        self._change_listeners: list[Callable[[str, str, Any], None]] = []
        self.owner_name: str = "<unattached>"  # set by UPnPDevice.add_service

    # -- schema construction --------------------------------------------------

    def add_variable(self, variable: StateVariable) -> StateVariable:
        if variable.name in self._variables:
            raise UPnPError(f"duplicate state variable {variable.name!r}")
        self._variables[variable.name] = variable
        return variable

    def add_action(self, action: Action) -> Action:
        if action.name in self._actions:
            raise UPnPError(f"duplicate action {action.name!r}")
        self._actions[action.name] = action
        return action

    # -- state access ----------------------------------------------------------

    def variable(self, name: str) -> StateVariable:
        try:
            return self._variables[name]
        except KeyError:
            raise UPnPError(
                f"service {self.service_id!r} has no variable {name!r}"
            ) from None

    def get_variable(self, name: str) -> Any:
        return self.variable(name).value

    def set_variable(self, name: str, value: Any) -> None:
        """Assign a variable; fires change listeners when the value moves."""
        var = self.variable(name)
        var.validate(value)
        if var.value == value:
            return
        var.value = value
        if var.sends_events:
            for listener in list(self._change_listeners):
                listener(self.service_id, name, value)

    def variables(self) -> list[StateVariable]:
        return list(self._variables.values())

    def snapshot(self) -> dict[str, Any]:
        """Current value of every variable (initial eventing payload)."""
        return {name: var.value for name, var in self._variables.items()}

    def on_change(self, listener: Callable[[str, str, Any], None]) -> None:
        """Register ``listener(service_id, variable, value)`` for evented
        variable changes; used by the device's eventing engine."""
        self._change_listeners.append(listener)

    # -- control ----------------------------------------------------------------

    def actions(self) -> list[Action]:
        return list(self._actions.values())

    def invoke(self, action_name: str, args: dict[str, Any] | None = None) -> dict[str, Any]:
        """Run an action handler after validating declared arguments."""
        action = self._actions.get(action_name)
        if action is None:
            raise ActionError(self.owner_name, action_name, "no such action")
        args = dict(args or {})
        unknown = set(args) - set(action.in_args)
        if unknown:
            raise ActionError(
                self.owner_name,
                action_name,
                f"unknown arguments: {sorted(unknown)}",
            )
        return action.handler(args)

    # -- description --------------------------------------------------------------

    def describe(self) -> dict[str, Any]:
        """Plain-data service description document."""
        return {
            "service_type": self.service_type,
            "service_id": self.service_id,
            "variables": [v.describe() for v in self.variables()],
            "actions": [a.describe() for a in self.actions()],
        }
