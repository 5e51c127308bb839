#!/usr/bin/env python
"""Which functions under ``src/repro`` do a set of commands never call?

Runs each given shell command from the repository root with a profile
hook installed in every Python process it starts, then lists, per file,
the functions (found through :mod:`ast`) that none of those processes
entered, with their line counts.  The hook is a generated
``sitecustomize`` module on ``PYTHONPATH``; the interpreter imports it at
start-up, so spawn workers and a ``repro serve`` daemon started by the
commands are traced as well.  It records a function the first time any
thread enters it (``sys.setprofile`` plus ``threading.setprofile``) and
appends it to a per-process file at once, so a process that is killed
still leaves its record.

The commands run with the hook directory and ``src`` on ``PYTHONPATH``.
A command that sets ``PYTHONPATH`` itself (``PYTHONPATH=src python -m
repro ...``, as the CI steps do) or whose children reset it
(``perfbench/run.py`` starts its workers with ``PYTHONPATH=src``) needs
``--hook-in-src``, which also writes the hook to ``src/sitecustomize.py``
for the run and removes it afterwards.
A run under ``repro profile`` replaces the hook with cProfile's, so what
that run calls is not recorded.

Usage::

    python scripts/reach.py "python -m repro --list"
    python scripts/reach.py --hook-in-src "PYTHONPATH=src python -m repro lp --nodes 9" \
        "python3 perfbench/run.py --workload paper-batch --seconds 10"

The last line of the report is the total, for example
``reach: 585 of 849 functions called; 264 never called (2209 lines)``.
"""

from __future__ import annotations

import argparse
import ast
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Set, Tuple

REPO_ROOT = Path(__file__).resolve().parents[1]
PACKAGE = REPO_ROOT / "src" / "repro"

_HOOK = '''\
import os
import sys
import threading

_PREFIX = {prefix!r}
_RECORD = os.path.join({record_dir!r}, "reach-%d.txt" % os.getpid())
_seen = set()
_out = None


def _reach_hook(frame, event, arg):
    global _out
    if event != "call":
        return
    code = frame.f_code
    if code in _seen:
        return
    _seen.add(code)
    if code.co_filename.startswith(_PREFIX):
        if _out is None:
            _out = open(_RECORD, "a", buffering=1)
        _out.write("%s\\t%d\\n" % (code.co_filename, code.co_firstlineno))


sys.setprofile(_reach_hook)
threading.setprofile(_reach_hook)
'''


def package_functions(package: Path = PACKAGE) -> Dict[Tuple[str, int], Tuple[str, int, int]]:
    """Every function under ``package``: ``(path, first line) -> (qualname, first, last)``.

    The first line is the one a code object reports: the first decorator's
    line for a decorated function.
    """
    functions: Dict[Tuple[str, int], Tuple[str, int, int]] = {}

    def visit(node: ast.AST, path: str, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                name = f"{scope}{child.name}"
                functions[(path, first)] = (name, first, child.end_lineno)
                visit(child, path, f"{name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{scope}{child.name}.")
            else:
                visit(child, path, scope)

    for source in sorted(package.rglob("*.py")):
        visit(ast.parse(source.read_text(encoding="utf-8")), str(source), "")
    return functions


def called_functions(record_dir: Path) -> Set[Tuple[str, int]]:
    """``(path, first line)`` of every function some traced process entered."""
    called: Set[Tuple[str, int]] = set()
    for record in record_dir.glob("reach-*.txt"):
        for line in record.read_text(encoding="utf-8").splitlines():
            path, _, first = line.rpartition("\t")
            if path:
                called.add((path, int(first)))
    return called


def report(called: Set[Tuple[str, int]]) -> List[str]:
    """Never-called functions per file, then the total line."""
    functions = package_functions()
    by_file: Dict[str, List[Tuple[str, int, int]]] = {}
    for key, function in functions.items():
        if key not in called:
            by_file.setdefault(key[0], []).append(function)
    lines: List[str] = []
    never_lines = 0
    for path in sorted(by_file):
        missed = sorted(by_file[path], key=lambda function: function[1])
        # A never-called function nested in another is counted once.
        spans = {line for _, first, last in missed for line in range(first, last + 1)}
        never_lines += len(spans)
        relative = Path(path).relative_to(REPO_ROOT)
        lines.append(f"{relative}: {len(missed)} never called ({len(spans)} lines)")
        lines.extend(
            f"  {first:5d} {name} ({last - first + 1} lines)" for name, first, last in missed
        )
    never = sum(len(missed) for missed in by_file.values())
    lines.append(
        f"reach: {len(functions) - never} of {len(functions)} functions called; "
        f"{never} never called ({never_lines} lines)"
    )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("commands", nargs="+", help="shell commands, run from the repository root")
    parser.add_argument(
        "--hook-in-src",
        action="store_true",
        help="also place the hook in src/ for the run (commands that reset PYTHONPATH to src)",
    )
    args = parser.parse_args(argv)
    in_src = REPO_ROOT / "src" / "sitecustomize.py"
    if args.hook_in_src and in_src.exists():
        parser.error(f"{in_src} already exists; remove it first")
    with tempfile.TemporaryDirectory(prefix="reach-") as scratch:
        hook_dir, record_dir = Path(scratch, "hook"), Path(scratch, "records")
        hook_dir.mkdir()
        record_dir.mkdir()
        hook = _HOOK.format(prefix=str(PACKAGE) + os.sep, record_dir=str(record_dir))
        (hook_dir / "sitecustomize.py").write_text(hook, encoding="utf-8")
        env = dict(os.environ)
        inherited = [part for part in env.get("PYTHONPATH", "").split(os.pathsep) if part]
        env["PYTHONPATH"] = os.pathsep.join([str(hook_dir), str(REPO_ROOT / "src")] + inherited)
        failed = 0
        try:
            if args.hook_in_src:
                in_src.write_text(hook, encoding="utf-8")
            for command in args.commands:
                completed = subprocess.run(
                    command, shell=True, cwd=REPO_ROOT, env=env,
                    stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                )
                if completed.returncode != 0:
                    failed += 1
                    print(f"reach: exit {completed.returncode}: {command}", file=sys.stderr)
                    print(completed.stderr[-2000:], file=sys.stderr)
        finally:
            if args.hook_in_src:
                in_src.unlink(missing_ok=True)
        called = called_functions(record_dir)
        print("\n".join(report(called)))
    if not called:
        print("reach: no traced process entered src/repro (see --hook-in-src)", file=sys.stderr)
        return 1
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
