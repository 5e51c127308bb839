"""No module under ``src/repro`` imports a name it never uses.

A static scan with :mod:`ast`, standing in for a linter: for every module
but the package ``__init__`` files (which import to re-export), each name a
module-level import binds must be read somewhere in the module, listed in
its ``__all__``, or named in a string annotation.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, List, Set

import pytest

SOURCE = Path(__file__).resolve().parents[1] / "src" / "repro"
MODULES = sorted(path for path in SOURCE.rglob("*.py") if path.name != "__init__.py")


def _module_level_imports(tree: ast.Module) -> Iterator[ast.stmt]:
    """Import statements at module level, including those under ``if TYPE_CHECKING:``."""
    for statement in tree.body:
        if isinstance(statement, ast.If):
            yield from (
                child for child in statement.body if isinstance(child, (ast.Import, ast.ImportFrom))
            )
        elif isinstance(statement, (ast.Import, ast.ImportFrom)):
            yield statement


def _bound_names(statement: ast.stmt) -> Iterator[str]:
    if isinstance(statement, ast.ImportFrom) and statement.module == "__future__":
        return
    for alias in statement.names:
        if alias.name == "*":
            continue
        yield alias.asname or alias.name.split(".")[0]


def _used_names(tree: ast.Module) -> Set[str]:
    used: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # String annotations ("PairCountLedger") and __all__ entries.
            try:
                expression = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(
                child.id for child in ast.walk(expression) if isinstance(child, ast.Name)
            )
    return used


def unused_imports(path: Path) -> List[str]:
    """``"<line>: <name>"`` for every module-level import ``path`` never uses."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = _used_names(tree)
    return [
        f"{statement.lineno}: {name}"
        for statement in _module_level_imports(tree)
        for name in _bound_names(statement)
        if name not in used
    ]


def test_the_scan_sees_every_module():
    assert len(MODULES) > 50


def test_the_scan_flags_an_unused_import(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import math\n"
        "import numpy as np\n"
        "from typing import Dict, List\n"
        "def f(x: 'Dict') -> List:\n"
        "    return np.zeros(x)\n",
        encoding="utf-8",
    )
    assert unused_imports(module) == ["2: math"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: str(path.relative_to(SOURCE)))
def test_no_unused_module_level_import(path):
    assert unused_imports(path) == []
