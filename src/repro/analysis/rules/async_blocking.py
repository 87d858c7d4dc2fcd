"""RPR002 — blocking calls are banned inside ``async def`` bodies.

One blocked coroutine stalls every request multiplexed on the loop: the
gateway's whole design (PR 7) is that solver work leaves the loop thread
through a single-thread executor.  The rule flags the known blocking
surface — ``time.sleep``, sync ``subprocess``/``socket``/``os.system``
calls, ``Connection.recv``-family methods, and the tower's own blocking
service entry points (``solve_many``, ``apply_delta``, ...) — when
called directly from an async function.  Calls inside nested *sync*
functions are fine (those run wherever the caller dispatches them), and
``getattr``-aliased handles are tracked so ``apply = getattr(svc,
"apply_delta", None); apply(delta)`` does not dodge the check.
"""

from __future__ import annotations

import ast

from repro.analysis.engine import Finding, Rule

__all__ = ["AsyncBlockingRule"]

# Dotted module-level calls that always block.
BLOCKING_CALLS = {
    ("time", "sleep"),
    ("subprocess", "run"),
    ("subprocess", "call"),
    ("subprocess", "check_call"),
    ("subprocess", "check_output"),
    ("subprocess", "Popen"),
    ("socket", "create_connection"),
    ("os", "system"),
}

# Method names that block regardless of receiver: the tower's blocking
# service surface plus multiprocessing.Connection I/O.  Kept narrow and
# specific on purpose — a generic name like "read" would drown the rule
# in false positives.
BLOCKING_METHODS = {
    "solve_many",
    "apply_delta",
    "recv",
    "recv_bytes",
    "send_bytes",
}

# Names that only count when reached through a getattr alias (calling
# gateway.stats() counters is non-blocking, but a getattr-fetched
# service stats handle is the blocking backend call).
ALIAS_ONLY_METHODS = {"stats"}


def _dotted(func: ast.expr) -> tuple[str, str] | None:
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        return (func.value.id, func.attr)
    return None


def _getattr_target(value: ast.expr) -> str | None:
    """The attribute name fetched by a ``getattr(obj, "name", ...)``."""
    if (
        isinstance(value, ast.Call)
        and isinstance(value.func, ast.Name)
        and value.func.id == "getattr"
        and len(value.args) >= 2
        and isinstance(value.args[1], ast.Constant)
        and isinstance(value.args[1].value, str)
    ):
        return value.args[1].value
    return None


class AsyncBlockingRule(Rule):
    id = "RPR002"
    severity = "error"
    description = "blocking call on the asyncio loop thread inside async def"
    scope = ("repro/",)
    rationale = (
        "The gateway contract (PR 7): nothing blocks the loop thread — "
        "solver calls go through AsyncGateway's single-thread executor "
        "so a long solve cannot freeze heartbeats, shedding, and every "
        "other in-flight request.  The rule flags time.sleep, sync "
        "subprocess/socket calls, Connection.recv/send_bytes, and the "
        "tower's own blocking service methods (solve_many, apply_delta, "
        "...) when invoked directly from an async def — including "
        "through getattr-fetched aliases.  Deliberate exceptions (e.g. "
        "the executor-less fallback for in-process tests) carry a "
        "checked suppression explaining why they are safe."
    )

    def visit(self, tree: ast.AST, source: str, path: str) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.AsyncFunctionDef):
                findings.extend(self._check_async(node, path))
        return findings

    def _check_async(
        self, func: ast.AsyncFunctionDef, path: str
    ) -> list[Finding]:
        findings: list[Finding] = []
        aliases: dict[str, str] = {}

        def walk(node: ast.AST) -> None:
            # Nested defs have their own execution context; a nested
            # async def is checked by the outer ast.walk pass.
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return
            if isinstance(node, ast.Assign):
                target_name = _getattr_target(node.value)
                if target_name:
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            aliases[target.id] = target_name
            if isinstance(node, ast.Call):
                self._check_call(node, aliases, path, findings)
            for child in ast.iter_child_nodes(node):
                walk(child)

        for statement in func.body:
            walk(statement)
        return findings

    def _check_call(
        self,
        node: ast.Call,
        aliases: dict[str, str],
        path: str,
        findings: list[Finding],
    ) -> None:
        func = node.func
        dotted = _dotted(func)
        if dotted in BLOCKING_CALLS:
            findings.append(
                self.finding(
                    path,
                    node,
                    f"blocking {dotted[0]}.{dotted[1]}() inside async def; "
                    "await the async equivalent or dispatch via the "
                    "executor",
                )
            )
            return
        if isinstance(func, ast.Attribute) and func.attr in BLOCKING_METHODS:
            findings.append(
                self.finding(
                    path,
                    node,
                    f"blocking .{func.attr}() inside async def; route "
                    "through run_in_executor like AsyncGateway does",
                )
            )
            return
        if isinstance(func, ast.Name) and func.id in aliases:
            target = aliases[func.id]
            if target in BLOCKING_METHODS or target in ALIAS_ONLY_METHODS:
                findings.append(
                    self.finding(
                        path,
                        node,
                        f"blocking call through getattr alias "
                        f"{func.id!r} (-> .{target}()) inside async def; "
                        "route through run_in_executor",
                    )
                )
