"""Exception hierarchy shared by every subsystem of the reproduction.

All framework errors derive from :class:`ReproError` so applications can
catch one base class.  Subsystems raise the most specific subclass that
applies; error messages carry enough context (names, positions, values)
to be actionable without a debugger.

Every class here must **pickle round-trip** exactly (type, message and
attributes): the process-distribution layer forwards worker-side
failures to the parent as pickled payloads, and an exception that loses
its arguments in transit would surface as an opaque ``TypeError`` in the
wrong process.  Classes whose ``__init__`` signature differs from the
stored ``args`` therefore define ``__reduce__``;
``tests/test_error_pickling.py`` pins the round-trip for the whole
taxonomy.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class SimulationError(ReproError):
    """Misuse of the discrete-event simulation kernel."""


class NetworkError(ReproError):
    """Simulated-network failures (unknown address, closed bus...)."""


class UPnPError(ReproError):
    """UPnP substrate failures (bad description, unknown action...)."""


class ActionError(UPnPError):
    """An action invocation was rejected by the target service."""

    def __init__(self, device: str, action: str, reason: str):
        super().__init__(f"action {action!r} on device {device!r} failed: {reason}")
        self.device = device
        self.action = action
        self.reason = reason

    def __reduce__(self):
        return (type(self), (self.device, self.action, self.reason))


class SubscriptionError(UPnPError):
    """Eventing subscription could not be established or renewed."""


class HomeModelError(ReproError):
    """Inconsistent virtual-home model (unknown room, bad setpoint...)."""


class CadelError(ReproError):
    """Base class for CADEL language-processing errors."""


class CadelSyntaxError(CadelError):
    """Raised by the lexer/parser with the offending position.

    Attributes:
        text: the full source sentence.
        position: 0-based character offset where the error was detected.
    """

    def __init__(self, message: str, text: str = "", position: int = 0):
        self.message = message
        self.text = text
        self.position = position
        if text:
            pointer = " " * min(position, len(text)) + "^"
            message = f"{message}\n  {text}\n  {pointer}"
        super().__init__(message)

    def __reduce__(self):
        # args holds the pointer-decorated message; re-construct from the
        # raw parts so unpickling never decorates twice.
        return (type(self), (self.message, self.text, self.position))


class CadelBindingError(CadelError):
    """A name in a rule could not be bound to a device, sensor or word."""


class CadelTypeError(CadelError):
    """A bound rule mixes incompatible kinds (e.g. numeric op on a place)."""


class SolverError(ReproError):
    """Internal failure of the satisfiability engine."""


class RuleError(ReproError):
    """Base class for rule-database and rule-engine errors."""


class InconsistentRuleError(RuleError):
    """A newly registered rule has a condition that can never hold.

    Mirrors the paper's inconsistency check: the consistency module
    "evaluates the condition in the new rule to check whether it can
    hold" and warns the user otherwise.
    """

    def __init__(self, rule_name: str, reason: str = ""):
        detail = f": {reason}" if reason else ""
        super().__init__(
            f"rule {rule_name!r} is inconsistent (its condition can never hold){detail}"
        )
        self.rule_name = rule_name
        self.reason = reason

    def __reduce__(self):
        return (type(self), (self.rule_name, self.reason))


class UnresolvedConflictError(RuleError):
    """A conflict was detected and no priority order resolves it."""

    def __init__(self, rule_names: list[str], device: str):
        super().__init__(
            "conflicting rules "
            + ", ".join(repr(n) for n in rule_names)
            + f" target device {device!r} and no priority order applies"
        )
        self.rule_names = list(rule_names)
        self.device = device

    def __reduce__(self):
        return (type(self), (self.rule_names, self.device))


class DuplicateRuleError(RuleError):
    """A rule with the same name is already registered."""


class UnknownRuleError(RuleError):
    """Lookup of a rule name that is not in the database."""


class ArchiveError(RuleError):
    """A household archive could not be decoded: truncated or invalid
    JSON, a missing or unsupported format marker, or a structurally
    malformed document.  Subclasses :class:`RuleError` so existing
    callers catching rule errors around :func:`restore_household`
    keep working."""


class RecoveryError(ReproError):
    """Cluster crash recovery could not proceed at all: missing or
    undecodable manifest, unsupported snapshot format, or a snapshot
    file the manifest references that cannot be read.  Tolerable damage
    (torn WAL tails, checksum failures, epoch mismatches) does *not*
    raise — it truncates replay and is surfaced in the
    ``RecoveryReport`` instead."""


class LookupServiceError(ReproError):
    """Malformed query to the sensor/device lookup service."""


class WireError(ReproError):
    """A malformed frame on the cluster wire protocol: bad length
    prefix, unknown frame type, oversized frame, truncated stream, or a
    key-table reference the connection never defined."""


class WorkerError(ReproError):
    """Base class for shard-worker process failures (spawn, handshake,
    protocol misuse, use after shutdown)."""


class WorkerCrashed(WorkerError):
    """A shard worker process died mid-conversation.  Carries the shard
    id and, when known, the process exit code — a negative code is the
    signal that killed it, mirroring ``Process.exitcode``."""

    def __init__(self, shard_id: int, exitcode: int | None = None,
                 detail: str = ""):
        note = f" (exit code {exitcode})" if exitcode is not None else ""
        extra = f": {detail}" if detail else ""
        super().__init__(
            f"worker process for shard {shard_id} died{note}{extra}"
        )
        self.shard_id = shard_id
        self.exitcode = exitcode
        self.detail = detail

    def __reduce__(self):
        return (type(self), (self.shard_id, self.exitcode, self.detail))
