"""No module under ``src/repro`` imports :mod:`pickle`.

A static scan with :mod:`ast`: every import statement, at module level or
inside a function, ``__init__`` files included.  The program keeps no
pickled state of its own, so nothing it reads can run code planted by
whoever can write to a file it loads.  (The worker pool still pickles its
tasks between processes it started itself; that goes through
:mod:`multiprocessing`, not through a ``repro`` module.)
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import List

import pytest

SOURCE = Path(__file__).resolve().parents[1] / "src" / "repro"
MODULES = sorted(SOURCE.rglob("*.py"))
BANNED = {"pickle", "_pickle"}


def pickle_imports(source: str) -> List[str]:
    """``"<line>: <module>"`` for every import of a pickle module in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names = [node.module]
        else:
            continue
        found.extend(
            f"{node.lineno}: {name}" for name in names if name.split(".")[0] in BANNED
        )
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda path: str(path.relative_to(SOURCE)))
def test_module_imports_no_pickle(path: Path) -> None:
    assert pickle_imports(path.read_text(encoding="utf-8")) == []


def test_the_scan_sees_every_spelling() -> None:
    source = (
        "import os, pickle\n"
        "def load(blob):\n"
        "    from pickle import loads\n"
        "    import _pickle as fast\n"
        "    return loads(blob)\n"
        "from json import loads\n"
    )
    assert pickle_imports(source) == ["1: pickle", "3: pickle", "4: _pickle"]
