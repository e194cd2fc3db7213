"""String-keyed registry of lint rules.

Mirrors :mod:`repro.seismic.kernels`: rules register an instance under
their code (``QG001``) and callers resolve them by code *or* short name
(``env-access``), case-insensitively.  ``--select`` / ``--ignore`` on the
CLI go through :func:`resolve_rules`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro.analysis.base import Rule

_RULES: Dict[str, Rule] = {}


class RuleError(RuntimeError):
    """Base class for rule registry failures."""


class UnknownRuleError(RuleError, KeyError):
    """Raised when resolving a code/name no rule was registered under."""

    def __init__(self, name: str) -> None:
        self.name = name
        available = ", ".join(sorted(_RULES)) or "<none>"
        super().__init__(
            f"unknown lint rule {name!r}; registered rules: {available}")

    def __str__(self) -> str:  # KeyError would quote the repr of args[0]
        return self.args[0]


class DuplicateRuleError(RuleError, ValueError):
    """Raised when registering a code that is already taken."""

    def __init__(self, code: str) -> None:
        self.code = code
        super().__init__(
            f"lint rule {code!r} is already registered; pass replace=True "
            f"to override it")


def register_rule(rule: Rule, *, replace: bool = False) -> None:
    """Register ``rule`` under its ``code``."""
    if not isinstance(rule, Rule):
        raise TypeError(f"expected a Rule instance, got {type(rule).__name__}")
    if not rule.code or not rule.name:
        raise ValueError("rules must declare a non-empty code and name")
    if rule.code in _RULES and not replace:
        raise DuplicateRuleError(rule.code)
    _RULES[rule.code] = rule


def unregister_rule(code: str) -> None:
    """Remove ``code`` from the registry (mainly for tests)."""
    if code not in _RULES:
        raise UnknownRuleError(code)
    del _RULES[code]


def available_rules() -> List[str]:
    """Sorted codes of every registered rule."""
    return sorted(_RULES)


def all_rules() -> List[Rule]:
    """Every registered rule, in code order."""
    return [_RULES[code] for code in sorted(_RULES)]


def get_rule(spec: str) -> Rule:
    """Resolve a code (``QG001``) or short name (``env-access``) to a rule."""
    if not isinstance(spec, str) or not spec:
        raise TypeError("rule spec must be a non-empty string")
    code = spec.strip().upper()
    if code in _RULES:
        return _RULES[code]
    lowered = spec.strip().lower()
    for rule in _RULES.values():
        if rule.name.lower() == lowered:
            return rule
    raise UnknownRuleError(spec)


def resolve_rules(select: Optional[Iterable[str]] = None,
                  ignore: Optional[Iterable[str]] = None) -> List[Rule]:
    """The rule set for one run: everything (or ``select``) minus ``ignore``.

    Unknown codes in either list raise :class:`UnknownRuleError` so typos
    fail loudly instead of silently linting nothing.
    """
    chosen: Sequence[Rule]
    if select:
        chosen = [get_rule(spec) for spec in select]
    else:
        chosen = all_rules()
    ignored = {get_rule(spec).code for spec in ignore} if ignore else set()
    return [rule for rule in chosen if rule.code not in ignored]
