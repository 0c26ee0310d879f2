"""Instrumentation-conformance rules (OBS3xx).

The observability contract has two halves:

* every detection-engine entrypoint (a public function in
  ``repro/detection`` returning a ``DetectionResult``) must run under an
  obs span, directly or through a delegate in the same module;
* every metric/stat/span name literal the code emits must appear in the
  canonical key tables of ``docs/ALGORITHMS.md`` and
  ``docs/OBSERVABILITY.md`` (parsed by :mod:`repro.analysis.lint.keys`),
  so the docs and the code cannot silently drift apart.

The parsed canonical keys are injected by the engine into
``FileContext.env["canonical_keys"]``; when the docs could not be located
the key rules are skipped (see ``LintConfig.require_docs``).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.lint.core import (
    FileContext,
    Finding,
    Rule,
    Severity,
    register_rule,
)
from repro.analysis.lint.keys import HOLE, CanonicalKeys, key_from_ast

#: Method names on a registry whose first argument is a metric name.
_INSTRUMENT_METHODS = ("counter", "gauge", "histogram")


def _joined(segments: Sequence[str]) -> str:
    return ".".join("{…}" if seg == HOLE else seg for seg in segments)


def _canonical(ctx: FileContext) -> Optional[CanonicalKeys]:
    return ctx.env.get("canonical_keys")


def _docs_list(keys: CanonicalKeys) -> str:
    return " + ".join(keys.sources)


@register_rule
class MissingSpanRule(Rule):
    code = "OBS301"
    name = "missing-span"
    severity = Severity.ERROR
    description = (
        "public detection-engine entrypoint (returns DetectionResult) "
        "never opens an obs span, directly or via a same-module delegate"
    )

    @staticmethod
    def _returns_detection_result(func: ast.FunctionDef) -> bool:
        returns = func.returns
        if isinstance(returns, ast.Name):
            return returns.id == "DetectionResult"
        if isinstance(returns, ast.Attribute):
            return returns.attr == "DetectionResult"
        if isinstance(returns, ast.Constant) and isinstance(
            returns.value, str
        ):
            return returns.value.split(".")[-1] == "DetectionResult"
        return False

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if "detection" not in ctx.posix_parts:
            return
        functions = {
            stmt.name: stmt
            for stmt in ctx.tree.body
            if isinstance(stmt, ast.FunctionDef)
        }
        opens_span: Dict[str, bool] = {}
        local_calls: Dict[str, Set[str]] = {}
        for name, func in functions.items():
            direct = False
            calls: Set[str] = set()
            for node in ast.walk(func):
                if isinstance(node, ast.Call):
                    if (
                        isinstance(node.func, ast.Name)
                        and node.func.id == "span"
                    ):
                        direct = True
                    elif isinstance(node.func, ast.Name):
                        calls.add(node.func.id)
            opens_span[name] = direct
            local_calls[name] = calls

        def reaches_span(name: str, seen: Set[str]) -> bool:
            if name in seen or name not in functions:
                return False
            seen.add(name)
            if opens_span[name]:
                return True
            return any(
                reaches_span(callee, seen)
                for callee in sorted(local_calls[name])
            )

        for name in sorted(functions):
            func = functions[name]
            if name.startswith("_"):
                continue
            if not self._returns_detection_result(func):
                continue
            if not reaches_span(name, set()):
                yield self.finding(
                    ctx,
                    func,
                    f"engine entrypoint {name}() returns a "
                    "DetectionResult but never opens an obs span "
                    '(use `with span("engine.<name>", ...)`) — '
                    "profiling cannot see it",
                )


class _KeyCollector(ast.NodeVisitor):
    """Collect (node, segments, kind) for emitted metric/span names."""

    def __init__(self) -> None:
        self.metrics: List[Tuple[ast.AST, List[str]]] = []
        self.spans: List[Tuple[ast.AST, List[str]]] = []
        #: var name -> namespace segments of its StatCounters binding
        self._stat_vars: Dict[str, List[str]] = {}

    def visit_Assign(self, node: ast.Assign) -> None:
        value = node.value
        if (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id == "StatCounters"
            and value.args
        ):
            namespace = key_from_ast(value.args[0])
            if namespace is not None:
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self._stat_vars[target.id] = namespace
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Name)
            and func.id in ("span", "layer_span")
            and node.args
        ):
            segments = key_from_ast(node.args[0])
            if segments is not None:
                self.spans.append((node, segments))
        elif isinstance(func, ast.Attribute) and node.args:
            if func.attr in _INSTRUMENT_METHODS:
                segments = key_from_ast(node.args[0])
                if segments is not None:
                    self.metrics.append((node, segments))
            elif (
                func.attr in ("inc", "set")
                and isinstance(func.value, ast.Name)
                and func.value.id in self._stat_vars
            ):
                key = key_from_ast(node.args[0])
                if key is not None:
                    namespace = self._stat_vars[func.value.id]
                    self.metrics.append((node, namespace + key))
        self.generic_visit(node)


@register_rule
class UnknownMetricKeyRule(Rule):
    code = "OBS302"
    name = "unknown-metric-key"
    severity = Severity.ERROR
    description = (
        "metric or stat key emitted in code is absent from the canonical "
        "key tables in docs/ALGORITHMS.md / docs/OBSERVABILITY.md — "
        "document it (or fix the typo) so the docs cannot drift"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        keys = _canonical(ctx)
        if keys is None:
            return
        collector = _KeyCollector()
        collector.visit(ctx.tree)
        for node, segments in collector.metrics:
            if keys.match_metric(segments) is None:
                yield self.finding(
                    ctx,
                    node,
                    f"metric key {_joined(segments)!r} is not declared "
                    f"in the canonical key tables ({_docs_list(keys)})",
                )


@register_rule
class UnknownSpanNameRule(Rule):
    code = "OBS303"
    name = "unknown-span-name"
    severity = Severity.ERROR
    description = (
        "span name opened in code is absent from the instrumented-"
        "surfaces table in docs/OBSERVABILITY.md"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        keys = _canonical(ctx)
        if keys is None:
            return
        collector = _KeyCollector()
        collector.visit(ctx.tree)
        for node, segments in collector.spans:
            if keys.match_span(segments) is None:
                yield self.finding(
                    ctx,
                    node,
                    f"span name {_joined(segments)!r} is not declared in "
                    f"the instrumented-surfaces table ({_docs_list(keys)})",
                )
