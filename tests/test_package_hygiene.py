"""Static checks on the package source, read with ``ast`` (nothing is imported).

- Every module-level import in ``src/dropcompact`` is used in its module.
- Every top-level function and class in ``src/dropcompact`` is referenced
  somewhere in ``src/`` or ``perfbench/`` outside its own definition, so
  code that lost its last caller is deleted rather than left behind.
  Tests do not count as callers, and neither does the package's
  ``__init__.py``: a re-export is not a use.
- Every method, property and dataclass field of a package class (dunders
  aside) is read as an attribute somewhere in those caller files outside
  its own definition. Members are matched by name alone, so a name that
  several classes or modules share (``lr``, ``count``) counts as read
  wherever any of them is read.
- Every parameter default of a package function or method is overridden
  by some call in those caller files, matched by the callee's name: a
  default that every caller keeps is a knob only tests turn, and belongs
  in a module constant that tests patch.
- No module but ``data.py`` reads an attribute named ``inputs``: for a
  pixel dataset ``Dataset.inputs`` builds a float64 copy of every row, so
  the package gathers rows from ``Dataset.features`` and converts only those.
- No module but ``data.py`` imports ``gzip`` or ``zlib``: ``load_mnist_dir``
  reports the faults of its gzip reads as its own ``DataError``, so no other
  module has a gzip error to catch.
- README's "Config keys" table names exactly the fields of ``TrainConfig``,
  so a key cannot be added or deleted without its row.
- ``tests/conftest.py`` imports only ``GUARD_EPS``, ``PROB_FLOOR`` and
  ``RetentionParams`` from ``dropcompact.retention`` and nothing from
  ``dropcompact.kernels``, so the bit oracles share no estimator code with
  what they check.
"""

import ast
import os
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
PACKAGE = REPO_ROOT / "src" / "dropcompact"
PACKAGE_FILES = sorted(PACKAGE.glob("*.py"))
CALLER_FILES = sorted(
    p for d in (REPO_ROOT / "src", REPO_ROOT / "perfbench") for p in d.rglob("*.py")
    if "tests" not in p.relative_to(d).parts and p != PACKAGE / "__init__.py"
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


def _unused_imports(path: Path) -> list[str]:
    tree = _tree(path)
    used = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
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


def _is_dataclass(cls: ast.ClassDef) -> bool:
    return any("dataclass" in _names_in(d) for d in cls.decorator_list)


def _members(cls: ast.ClassDef):
    """The non-dunder methods, properties and dataclass fields of a class."""
    for stmt in cls.body:
        if isinstance(stmt, ast.FunctionDef):
            name = stmt.name
        elif isinstance(stmt, ast.AnnAssign) and _is_dataclass(cls):
            name = stmt.target.id
        else:
            continue
        if not (name.startswith("__") and name.endswith("__")):
            yield name, stmt


def test_every_class_member_is_read():
    # (file, line, name) of every attribute read in the caller files
    reads = [
        (path, node.lineno, node.attr)
        for path in CALLER_FILES
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    ]
    unread = []
    for path in PACKAGE_FILES:
        for cls in _tree(path).body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for name, stmt in _members(cls):
                own = range(stmt.lineno, stmt.end_lineno + 1)
                if not any(
                    attr == name and not (where == path and line in own)
                    for where, line, attr in reads
                ):
                    unread.append(f"{os.path.relpath(path, REPO_ROOT)}:{cls.name}.{name}")
    assert unread == []


def _package_functions():
    """(path, definition, leading parameters a call does not pass) of every
    top-level function and non-dunder method; a method's self or cls is the
    one it skips (the package has no staticmethod)."""
    for path in PACKAGE_FILES:
        for stmt in _tree(path).body:
            if isinstance(stmt, ast.FunctionDef):
                yield path, stmt, 0
            elif isinstance(stmt, ast.ClassDef):
                for fn in stmt.body:
                    if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("__"):
                        yield path, fn, 1


def _defaults(fn: ast.FunctionDef):
    """(position, name) of each parameter with a default; the position is
    None for a keyword-only one."""
    positional = fn.args.posonlyargs + fn.args.args
    first = len(positional) - len(fn.args.defaults)
    for i, arg in enumerate(positional[first:], first):
        yield i, arg.arg
    for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
        if default is not None:
            yield None, arg.arg


def _passes(call: ast.Call, position, name: str, skipped: int) -> bool:
    """Whether call gives the parameter a value (a * or ** argument may)."""
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    if any(k.arg is None or k.arg == name for k in call.keywords):
        return True
    return position is not None and skipped + len(call.args) > position


def test_every_parameter_default_is_overridden():
    calls: dict[str, list[ast.Call]] = {}
    for path in CALLER_FILES:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                calls.setdefault(name, []).append(node)
    kept = [
        f"{os.path.relpath(path, REPO_ROOT)}:{fn.name}({name})"
        for path, fn, skipped in _package_functions()
        for position, name in _defaults(fn)
        if not any(_passes(c, position, name, skipped) for c in calls.get(fn.name, []))
    ]
    assert kept == []


def test_only_data_reads_inputs():
    reads = [
        f"{os.path.relpath(path, REPO_ROOT)}:{node.lineno}"
        for path in PACKAGE_FILES
        if path.name != "data.py"
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Attribute) and node.attr == "inputs"
    ]
    assert reads == []


def _imported_modules(tree: ast.Module):
    """The top-level package name of every absolute import in tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_only_data_imports_gzip_or_zlib():
    imports = [
        f"{os.path.relpath(path, REPO_ROOT)}:{module}"
        for path in PACKAGE_FILES
        if path.name != "data.py"
        for module in _imported_modules(_tree(path))
        if module in ("gzip", "zlib")
    ]
    assert imports == []


def test_readme_config_table_names_every_field():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Config keys\n", 1)[1].split("\n## ", 1)[0]
    named = {
        key
        for line in section.splitlines() if line.startswith("| `")
        for key in re.findall(r"`(\w+)`", line.split("|")[1])
    }
    config = next(
        stmt for stmt in _tree(PACKAGE / "trainer.py").body
        if isinstance(stmt, ast.ClassDef) and stmt.name == "TrainConfig"
    )
    fields = {stmt.target.id for stmt in config.body if isinstance(stmt, ast.AnnAssign)}
    assert named == fields


def test_conftest_oracles_share_no_estimator_code():
    imported: dict[str, set[str]] = {}
    for node in ast.walk(_tree(REPO_ROOT / "tests" / "conftest.py")):
        if isinstance(node, ast.ImportFrom):
            imported.setdefault(node.module, set()).update(a.name for a in node.names)
        elif isinstance(node, ast.Import):  # a whole module: every name in it
            imported.update({a.name: {"*"} for a in node.names})
    allowed = {"GUARD_EPS", "PROB_FLOOR", "RetentionParams"}
    assert imported.get("dropcompact.retention", set()) <= allowed
    assert "dropcompact.kernels" not in imported
    assert not imported.get("dropcompact", set()) & {"kernels", "retention", "*"}
