"""Per-user rule authoring sessions.

An :class:`AuthoringSession` is the programmatic equivalent of the
paper's rule-description dialog (Fig. 4): one user types CADEL text;
word definitions land in the user's personal dictionary (which falls
back to the household's shared dictionary, so everyone benefits from
predefined words — the paper's advantage (a)); rule definitions are
compiled against the live device registry and pushed through the
server's consistency/conflict pipeline.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.cadel.ast import CondDef, CondExpr, ConfDef, RuleDef, SettingNode
from repro.cadel.binding import Binder, HomeDirectory
from repro.cadel.compiler import RuleCompiler
from repro.cadel.parser import CadelParser
from repro.cadel.vocabulary import Vocabulary, english_vocabulary
from repro.cadel.words import WordDictionary
from repro.core.conflict import ConflictReport
from repro.core.condition import Condition
from repro.core.priority import PriorityOrder
from repro.core.rule import Rule
from repro.core.server import HomeServer
from repro.errors import CadelBindingError

_auto_names = itertools.count(1)


class _LayeredWords(WordDictionary):
    """User dictionary with read-through to the household dictionary."""

    def __init__(self, personal: WordDictionary, shared: WordDictionary):
        super().__init__()
        self._personal = personal
        self._shared = shared

    # Definitions land in the personal layer.
    def define_condition(self, word, expr):
        self._personal.define_condition(word, expr)

    def define_configuration(self, word, settings):
        self._personal.define_configuration(word, settings)

    def condition(self, word):
        if self._personal.has_condition(word):
            return self._personal.condition(word)
        return self._shared.condition(word)

    def configuration(self, word):
        if self._personal.has_configuration(word):
            return self._personal.configuration(word)
        return self._shared.configuration(word)

    def has_condition(self, word):
        return self._personal.has_condition(word) or self._shared.has_condition(word)

    def has_configuration(self, word):
        return (self._personal.has_configuration(word)
                or self._shared.has_configuration(word))

    def condition_words(self):
        merged = set(self._personal.condition_words())
        merged.update(self._shared.condition_words())
        return sorted(merged)

    def configuration_words(self):
        merged = set(self._personal.configuration_words())
        merged.update(self._shared.configuration_words())
        return sorted(merged)

    def match_condition_word(self, words):
        personal = self._personal.match_condition_word(words)
        shared = self._shared.match_condition_word(words)
        if personal is None:
            return shared
        if shared is None or len(personal) >= len(shared):
            return personal
        return shared

    def match_configuration_word(self, words):
        personal = self._personal.match_configuration_word(words)
        shared = self._shared.match_configuration_word(words)
        if personal is None:
            return shared
        if shared is None or len(personal) >= len(shared):
            return personal
        return shared


@dataclass
class AuthoringResult:
    """Outcome of submitting one CADEL sentence."""

    kind: str                     # "rule" | "condition-word" | "configuration-word"
    rule: Rule | None = None
    word: str | None = None
    conflicts: list[ConflictReport] | None = None


class AuthoringSession:
    """One user's CADEL front-end onto a home server.

    Args:
        server: the home server (device registry + rule pipeline).
        user: the authoring resident; "I" in sentences binds to them.
        directory: household facts (users, locator, EPG); the session
            clones it with ``current_user`` set.
        shared_words: the household word dictionary (optional).
        vocabulary: CADEL language binding (default English).
    """

    def __init__(
        self,
        server: HomeServer,
        user: str,
        directory: HomeDirectory,
        *,
        shared_words: WordDictionary | None = None,
        vocabulary: Vocabulary | None = None,
    ) -> None:
        self.server = server
        self.user = user
        self.vocabulary = vocabulary or english_vocabulary()
        self.personal_words = WordDictionary()
        self.shared_words = shared_words or WordDictionary()
        self.words = _LayeredWords(self.personal_words, self.shared_words)
        self._directory = HomeDirectory(
            users=list(directory.users),
            current_user=user,
            locator_udn=directory.locator_udn,
            epg_udn=directory.epg_udn,
        )
        self.parser = CadelParser(vocabulary=self.vocabulary, words=self.words)
        binder = Binder(server.control_point.registry, self._directory)
        self.compiler = RuleCompiler(binder, words=self.words,
                                     vocabulary=self.vocabulary)

    # -- submitting sentences ---------------------------------------------------

    def submit(self, text: str, *, rule_name: str | None = None) -> AuthoringResult:
        """Parse one CADEL sentence and act on it: register a rule or
        record a word definition."""
        command = self.parser.parse(text)
        if isinstance(command, CondDef):
            self.words.define_condition(command.word, command.expr)
            return AuthoringResult(kind="condition-word", word=command.word)
        if isinstance(command, ConfDef):
            self.words.define_configuration(command.word, command.settings)
            return AuthoringResult(kind="configuration-word", word=command.word)
        assert isinstance(command, RuleDef)
        rule = self.compile_rule(command, rule_name=rule_name)
        conflicts = self.server.register_rule(rule)
        return AuthoringResult(kind="rule", rule=rule, conflicts=conflicts)

    def compile_rule(self, ruledef: RuleDef, *,
                     rule_name: str | None = None) -> Rule:
        name = rule_name or f"{self.user.lower()}-rule-{next(_auto_names)}"
        return self.compiler.compile_rule(ruledef, name=name, owner=self.user)

    # -- priority orders with CADEL contexts ---------------------------------------

    def compile_context(self, text: str) -> Condition:
        """Compile a CADEL condition fragment ("alan got home from work")
        for use as a priority-order context."""
        return self.compiler.compile_condexpr(self.parser.parse_condition(text))

    def set_priority(
        self,
        device_name: str,
        ranking: list[str],
        *,
        context: str | None = None,
    ) -> PriorityOrder:
        """Register a priority order over owners for a named device —
        the programmatic Fig. 7 dialog."""
        record = self.server.control_point.find_by_name(device_name)
        condition = self.compile_context(context) if context else None
        kwargs = {"label": context or ""}
        if condition is not None:
            kwargs["context"] = condition
        order = PriorityOrder(record.udn, tuple(ranking), **kwargs)
        return self.server.add_priority_order(order)

    # -- word-definition helpers used by GUIs and tests -------------------------------

    def known_words(self) -> dict[str, list[str]]:
        return {
            "conditions": self.words.condition_words(),
            "configurations": self.words.configuration_words(),
        }
