"""Action intermediate representation.

A compiled CADEL action names the *device* it controls, the *command*
(bound to a concrete UPnP service/action pair at compile time) and its
*settings* ("with 25 degrees of temperature setting").  Two rules
conflict only when they drive the **same device** with **different**
effects, so :class:`ActionSpec` carries a normalized equality notion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.errors import RuleError


@dataclass(frozen=True)
class Setting:
    """One configuration assignment: ``25 of temperature setting``."""

    parameter: str
    value: Any

    def describe(self) -> str:
        return f"{self.value!r} of {self.parameter} setting"


@dataclass(frozen=True)
class ActionSpec:
    """A fully bound device command.

    Attributes:
        device_udn: UPnP UDN of the target device.
        device_name: friendly name (for dialogs and traces).
        service_id: target service on the device.
        action_name: UPnP action to invoke.
        settings: configuration assignments, mapped by the binder onto
            the action's input arguments.
        verb_text: the original CADEL verb ("turn on"), for rendering.
    """

    device_udn: str
    device_name: str
    service_id: str
    action_name: str
    settings: tuple[Setting, ...] = ()
    verb_text: str = ""

    def __post_init__(self) -> None:
        if not self.device_udn:
            raise RuleError("ActionSpec requires a device UDN")
        if not self.action_name:
            raise RuleError("ActionSpec requires an action name")

    def arguments(self) -> dict[str, Any]:
        """Settings as the argument dict passed to the UPnP invoke."""
        return {setting.parameter: setting.value for setting in self.settings}

    def effect(self) -> tuple:
        """What the command does to its device, settings in parameter
        order: two specs on one device drive it identically iff their
        effects are equal — the paper only treats *different* actions on
        the same device as a conflict."""
        settings = self.settings
        settings = tuple(sorted(settings, key=_parameter)) \
            if len(settings) > 1 else tuple(settings)
        return (self.service_id, self.action_name, settings)

    def describe(self) -> str:
        """The command as text, built once per spec: decision traces
        keep this string, not the spec."""
        text = self.__dict__.get("_memo_describe")
        if text is None:
            text = f"{self.verb_text or self.action_name} the {self.device_name}"
            if self.settings:
                text += " with " + " and ".join(
                    s.describe() for s in self.settings)
            object.__setattr__(self, "_memo_describe", text)
        return text


def _parameter(setting: Setting) -> str:
    return setting.parameter
