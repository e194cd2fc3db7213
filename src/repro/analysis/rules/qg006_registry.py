"""QG006 — every registered engine name has a parity-test row.

Contract guarded: the engine registries (acoustic propagators, propagator
kernels, and ``register_backend`` should a backend registry return) each
pair with a parity harness in ``tests/`` — ``tests/test_seismic_batched.py``
parametrizes the kernel x dtype matrix, etc.  A new engine registered
without a parity row can silently diverge from the reference; this rule
makes that a lint failure instead of a review hope.

How coverage is established (walking the test AST, no imports executed):

* a string literal naming the engine inside a ``pytest.mark.parametrize``
  value list — directly, or via a module-level constant such as
  ``BACKENDS``;
* a ``parametrize`` value list built from the registry's own enumerator
  (``available_kernels()`` et al.) — dynamic rows cover *every* name of
  that registry, including future ones;
* a string literal passed to the registry's resolver family in a test
  (``get_backend("einsum")``, ``kernel_available("numba")``, ...) or to a
  ``backend=`` / ``propagator=`` / ``kernel=`` keyword.

There is no exemption: an engine that is not shipped is not registered.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Set

from repro.analysis.base import Project, Rule, SourceFile, call_name
from repro.analysis.findings import Finding
from repro.analysis.registry import register_rule

#: Registration call -> registry kind.
REGISTER_CALLS = {
    "register_backend": "backend",
    "register_propagator": "propagator",
    "register_kernel": "kernel",
}

#: Registry enumerators whose appearance in a parametrize value list means
#: the whole registry is covered dynamically.
AVAILABLE_CALLS = {
    "available_backends": "backend",
    "available_propagators": "propagator",
    "available_kernels": "kernel",
}

#: Test-side calls whose literal string argument exercises a name.
EXERCISE_CALLS = {
    "backend": {"get_backend"},
    "propagator": {"get_propagator", "set_default_propagator",
                   "unregister_propagator"},
    "kernel": {"get_kernel", "kernel_available", "resolve_kernel",
               "unregister_kernel", "default_kernel_name"},
}

#: Keyword arguments whose string value selects an engine.
KEYWORD_COVERAGE = {"backend": "backend", "propagator": "propagator",
                    "kernel": "kernel"}


class Registration(NamedTuple):
    kind: str
    engine: str
    rel_path: str
    line: int
    col: int


def _last_part(name: Optional[str]) -> Optional[str]:
    return name.split(".")[-1] if name else None


def collect_registrations(sf: SourceFile) -> Iterator[Registration]:
    """Engine registrations in one source file."""
    if sf.tree is None:
        return
    for node in ast.walk(sf.tree):
        if not isinstance(node, ast.Call):
            continue
        kind = REGISTER_CALLS.get(_last_part(call_name(node)) or "")
        if kind is None or not node.args:
            continue
        first = node.args[0]
        if not (isinstance(first, ast.Constant) and isinstance(first.value, str)):
            continue
        yield Registration(kind, first.value, sf.rel_path, node.lineno,
                           node.col_offset)


def _module_string_constants(tree: ast.Module) -> Dict[str, List[str]]:
    """Module-level ``NAME = ("a", "b")`` string-sequence assignments."""
    constants: Dict[str, List[str]] = {}
    for stmt in tree.body:
        targets: Sequence[ast.expr]
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        else:
            continue
        if not isinstance(value, (ast.Tuple, ast.List)):
            continue
        items = [el.value for el in value.elts
                 if isinstance(el, ast.Constant) and isinstance(el.value, str)]
        if len(items) != len(value.elts):
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                constants[target.id] = items
    return constants


def collect_test_coverage(sf: SourceFile):
    """``(covered, dynamic)`` sets harvested from one test file."""
    covered: Dict[str, Set[str]] = {kind: set() for kind in
                                    set(REGISTER_CALLS.values())}
    dynamic: Set[str] = set()
    if sf.tree is None:
        return covered, dynamic
    constants = _module_string_constants(sf.tree)
    for node in ast.walk(sf.tree):
        if not isinstance(node, ast.Call):
            continue
        callee_last = _last_part(call_name(node))
        # pytest.mark.parametrize(argnames, values, ...)
        if callee_last == "parametrize":
            for arg in node.args[1:]:
                for sub in ast.walk(arg):
                    if isinstance(sub, ast.Constant) \
                            and isinstance(sub.value, str):
                        for kind in covered:
                            covered[kind].add(sub.value)
                    elif isinstance(sub, ast.Name) and sub.id in constants:
                        for kind in covered:
                            covered[kind].update(constants[sub.id])
                    elif isinstance(sub, ast.Call):
                        kind = AVAILABLE_CALLS.get(
                            _last_part(call_name(sub)) or "")
                        if kind is not None:
                            dynamic.add(kind)
            continue
        # resolver-family calls with a literal name
        for kind, names in EXERCISE_CALLS.items():
            if callee_last in names and node.args:
                first = node.args[0]
                if isinstance(first, ast.Constant) \
                        and isinstance(first.value, str):
                    covered[kind].add(first.value)
        # engine-selecting keywords: backend="einsum"
        for keyword in node.keywords:
            kind = KEYWORD_COVERAGE.get(keyword.arg or "")
            if kind is not None and isinstance(keyword.value, ast.Constant) \
                    and isinstance(keyword.value.value, str):
                covered[kind].add(keyword.value.value)
    return covered, dynamic


class RegistryParityRule(Rule):
    code = "QG006"
    name = "registry-parity"
    description = ("registered backend/kernel/propagator names without a "
                   "parity-test row in tests/")

    def check_project(self, project: Project) -> Iterator[Finding]:
        registrations: List[Registration] = []
        for path in project.source_files():
            registrations.extend(collect_registrations(project.load(path)))
        if not registrations:
            return
        covered: Dict[str, Set[str]] = {kind: set() for kind in
                                        set(REGISTER_CALLS.values())}
        dynamic: Set[str] = set()
        for path in project.test_files():
            file_covered, file_dynamic = collect_test_coverage(
                project.load(path))
            for kind, names in file_covered.items():
                covered[kind].update(names)
            dynamic.update(file_dynamic)
        for reg in sorted(registrations):
            if reg.kind in dynamic or reg.engine in covered[reg.kind]:
                continue
            yield Finding(
                path=reg.rel_path, line=reg.line, col=reg.col,
                rule=self.code,
                message=(f"registered {reg.kind} {reg.engine!r} has no "
                         f"parity-test row in tests/ (add a parametrize row "
                         f"or skip-when-unavailable test)"))


register_rule(RegistryParityRule())
