"""Static checks on the package source, read with ``ast`` (nothing is imported).

- Every module-level import in ``src/dropcompact`` is used in its module
  (a name listed in ``__all__`` counts as used).
- Every top-level function and class in ``src/dropcompact`` is referenced
  somewhere in ``src/`` or ``perfbench/`` outside its own definition, so
  code that lost its last caller is deleted rather than left behind.
  Tests do not count as callers.
- No module but ``data.py`` reads an attribute named ``inputs``: for a
  pixel dataset ``Dataset.inputs`` builds a float64 copy of every row, so
  the package gathers rows from ``Dataset.features`` and converts only those.
"""

import ast
import os
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
PACKAGE = REPO_ROOT / "src" / "dropcompact"
PACKAGE_FILES = sorted(PACKAGE.glob("*.py"))
CALLER_FILES = sorted(
    p for d in (REPO_ROOT / "src", REPO_ROOT / "perfbench") for p in d.rglob("*.py")
    if "tests" not in p.relative_to(d).parts
)


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _names_in(node: ast.AST) -> set[str]:
    """Every identifier that node refers to: names, attributes and imported names."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.add(sub.name.split(".")[-1])
    return found


def _dunder_all(tree: ast.Module) -> set[str]:
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets
        ):
            return {elt.value for elt in stmt.value.elts}
    return set()


def _unused_imports(path: Path) -> list[str]:
    tree = _tree(path)
    used = _dunder_all(tree)
    for sub in ast.walk(tree):
        if isinstance(sub, ast.Name):
            used.add(sub.id)
    unused = []
    for stmt in tree.body:
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
            continue
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            for alias in stmt.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    unused.append(bound)
    return unused


@pytest.mark.parametrize("path", PACKAGE_FILES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert _unused_imports(path) == []


def test_every_top_level_definition_has_a_caller():
    # names referenced by each top-level statement of every caller file
    references = {
        (path, i): _names_in(stmt)
        for path in CALLER_FILES
        for i, stmt in enumerate(_tree(path).body)
    }
    orphans = []
    for path in PACKAGE_FILES:
        for i, stmt in enumerate(_tree(path).body):
            if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not any(
                stmt.name in names for key, names in references.items() if key != (path, i)
            ):
                orphans.append(f"{os.path.relpath(path, REPO_ROOT)}:{stmt.name}")
    assert orphans == []


def test_only_data_reads_inputs():
    reads = [
        f"{os.path.relpath(path, REPO_ROOT)}:{node.lineno}"
        for path in PACKAGE_FILES
        if path.name != "data.py"
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Attribute) and node.attr == "inputs"
    ]
    assert reads == []
