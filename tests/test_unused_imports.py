"""No module-level import goes unused in ``src/``, ``tests/`` or ``benchmarks/``.

The CI ``lint`` job runs ``ruff check`` (pyflakes' F401 among its rules),
but tier-1 must hold where ruff is not installed.  This scans each file's
module-level imports with :mod:`ast` and fails on any bound name the file
never reads.  Exempt: package ``__init__.py`` files (they re-export),
names listed in ``__all__``, and names read only inside string
annotations such as ``-> "CompiledProgram"``.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "tests", "benchmarks")


def _module_imports(tree):
    """``(bound name, line)`` for every import statement at module level."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _string_annotation_names(annotation):
    for node in ast.walk(annotation):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                parsed = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            yield from (n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))


def _used_names(tree):
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif isinstance(node, ast.Subscript):  # Union[str, "os.PathLike[str]"]
            annotations.append(node.slice)
        for annotation in annotations:
            if annotation is not None:
                used.update(_string_annotation_names(annotation))
        if (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            used.update(
                e.value for e in node.value.elts
                if isinstance(e, ast.Constant) and isinstance(e.value, str)
            )
    return used


def test_no_unused_module_level_imports():
    scanned = 0
    unused = []
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            if path.name == "__init__.py":
                continue
            scanned += 1
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            used = _used_names(tree)
            for name, line in _module_imports(tree):
                if name not in used:
                    unused.append(f"{path.relative_to(ROOT)}:{line}: {name}")
    assert scanned > 100  # the walk really covered the tree
    assert not unused, "unused imports:\n" + "\n".join(unused)
