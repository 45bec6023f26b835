"""Every import in ``src/repro``, ``tests``, ``benchmarks`` and ``examples`` is used.

An AST scan of each module: a name bound by ``import`` or ``from ...
import`` must be read somewhere in the module, in code, in an annotation
(string annotations included) or in ``__all__``.  Package ``__init__.py``
files re-export by design and are skipped.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Set

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"


def _annotation_names(node: ast.AST) -> Iterator[str]:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                yield from _annotation_names(ast.parse(sub.value, mode="eval"))
            except SyntaxError:
                pass


def _used_names(tree: ast.Module) -> Set[str]:
    used: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            used.update(_annotation_names(node.annotation))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used.update(_annotation_names(node.returns))
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            for element in getattr(node.value, "elts", ()):
                if isinstance(element, ast.Constant):
                    used.add(element.value)
    return used


def unused_imports(source: str) -> List[str]:
    """The names a module imports and never reads, in source order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported.append((node.lineno, (alias.asname or alias.name).split(".")[0]))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.append((node.lineno, alias.asname or alias.name))
    used = _used_names(tree)
    return [f"line {line}: {name}" for line, name in sorted(imported) if name not in used]


def test_the_scan_sees_code_annotations_and_all():
    source = (
        "from typing import Dict, List, Optional\n"
        "import os.path\n"
        "from x import a, b, c, d\n"
        "__all__ = ['c']\n"
        "def f(v: 'Optional[a]') -> Dict:\n"
        "    return os.path.join(v)\n"
    )
    assert unused_imports(source) == ["line 1: List", "line 3: b", "line 3: d"]


def _unused_in(tree: Path) -> Dict[str, List[str]]:
    """Each module under ``tree`` with the names it imports and never reads."""
    modules = sorted(path for path in tree.rglob("*.py") if path.name != "__init__.py")
    assert modules
    return {
        str(path.relative_to(tree)): names
        for path in modules
        if (names := unused_imports(path.read_text()))
    }


def test_no_module_in_src_imports_a_name_it_never_uses():
    assert _unused_in(SRC) == {}


@pytest.mark.parametrize("tree", ["tests", "benchmarks", "examples"])
def test_no_test_benchmark_or_example_imports_a_name_it_never_uses(tree):
    assert _unused_in(ROOT / tree) == {}
