"""The storage layer imports nothing above it.

``repro.octdb`` is the OCT substrate every other subsystem builds on, so it
may import only itself and the leaf modules beside it: ``repro.obs``
(metrics, tracing and the audit journal), ``repro.errors`` and
``repro.clock``.  The scan reads every import statement of every module,
function-local ones included, so an import deferred to dodge a cycle still
counts.

``repro.obs.metrics`` is the leaf every module-level instrument handle
comes from, so it imports nothing from ``repro`` but ``repro.errors``; the
tracer imports the registry at module level, never inside a function.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro.obs.metrics
import repro.obs.tracer
import repro.octdb

ALLOWED = ("repro.octdb", "repro.obs", "repro.errors", "repro.clock")


def imported_modules(tree: ast.AST) -> list[tuple[int, str]]:
    """``(line, absolute module name)`` of every import in ``tree``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.level:          # relative: inside repro.octdb
                found.append((node.lineno, "repro.octdb"))
            else:
                found.append((node.lineno, node.module or ""))
    return found


def test_octdb_imports_only_lower_layers():
    package = Path(repro.octdb.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for line, module in imported_modules(tree):
            if module.split(".")[0] != "repro":
                continue                # standard library
            if not any(module == top or module.startswith(top + ".")
                       for top in ALLOWED):
                offenders.append(f"{path.name}:{line} imports {module}")
    assert not offenders, offenders


def function_local_imports(tree: ast.AST) -> list[tuple[int, str]]:
    """The imports of ``tree`` made inside a function body."""
    return sorted({found for node in ast.walk(tree)
                   if isinstance(node, (ast.FunctionDef,
                                        ast.AsyncFunctionDef))
                   for found in imported_modules(node)})


def _tree(module) -> ast.AST:
    path = Path(module.__file__)
    return ast.parse(path.read_text(), filename=str(path))


def test_metrics_imports_only_errors():
    tree = _tree(repro.obs.metrics)
    imports = [module for _, module in imported_modules(tree)
               if module.split(".")[0] == "repro"]
    assert imports == ["repro.errors"], imports


def test_tracer_makes_no_function_local_repro_import():
    offenders = [f"tracer.py:{line} imports {module}" for line, module
                 in function_local_imports(_tree(repro.obs.tracer))
                 if module.split(".")[0] == "repro"]
    assert not offenders, offenders


def test_scan_sees_function_local_imports():
    tree = ast.parse("def f():\n    from repro.core.memo import fingerprint\n")
    assert imported_modules(tree) == [(2, "repro.core.memo")]
    assert function_local_imports(tree) == [(2, "repro.core.memo")]
    assert function_local_imports(ast.parse("import repro.errors\n")) == []
