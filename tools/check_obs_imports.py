#!/usr/bin/env python
"""Lint: the evaluation core must stay importable without the obs plane.

Walks every module under ``src/repro/core/`` and fails if any imports
a ``repro.obs`` module at module top level.  Core modules instead take
a duck-typed ``telemetry`` object (or None) at construction, so the
telemetry subsystem can be absent, stubbed, or broken without taking
rule evaluation down with it.

Run:  python tools/check_obs_imports.py   (exit 1 on violations)
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

CORE = Path(__file__).resolve().parent.parent / "src" / "repro" / "core"


def violations_in(path: Path) -> list[str]:
    """Top-level (non-function-local) obs imports in one module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found: list[str] = []
    # Module top level only: an import inside a function body is lazy
    # and does not break import-without-obs; walk the module's direct
    # statements plus top-level if/try blocks (the usual guard idioms).
    stack: list[ast.stmt] = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.If, ast.Try)):
            stack.extend(node.body)
            stack.extend(getattr(node, "orelse", []))
            stack.extend(getattr(node, "finalbody", []))
            for handler in getattr(node, "handlers", []):
                stack.extend(handler.body)
            continue
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.name
                if name.startswith("repro.obs"):
                    found.append(f"{path.name}:{node.lineno}: import {name}")
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module.startswith("repro.obs"):
                found.append(
                    f"{path.name}:{node.lineno}: from {module} import ..."
                )
    return found


def main() -> int:
    problems: list[str] = []
    for path in sorted(CORE.rglob("*.py")):
        problems.extend(violations_in(path))
    if problems:
        print("repro.core must not import the obs package at module top "
              "level:")
        for problem in problems:
            print(f"  {problem}")
        return 1
    print(f"obs-import lint: {len(list(CORE.rglob('*.py')))} core modules "
          "clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
