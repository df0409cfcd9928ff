#!/usr/bin/env python3
"""Line reach of tier-1 over ``src/wrp``.

Runs the tier-1 suite (pytest over ``tests/``) in this process under a
``sys.settrace`` line collector that records the lines of ``src/wrp``
(``coverage`` is not part of the toolchain), then prints every statement
of ``src/wrp`` that no line event reached as ``file:line: source``.

A statement counts as reached when any line of its header span fires.
The header span of a simple statement is all of its lines; that of a
compound statement (``if``, ``for``, ``def``, ...) runs from its first
decorator or keyword line to the line before its body, because the
interpreter reports a multi-line condition at the line holding the code
it runs, not always at the keyword.  Docstrings run no code and are not
statements here.

Exit status 1 when tier-1 fails, when an unreached statement is not a
``raise`` line that ``ALLOWED_RAISES`` names, or when an entry of
``ALLOWED_RAISES`` names no unreached ``raise`` line; 0 otherwise.

Usage, from the root of a checkout:  python scripts/reach.py [pytest args]
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "wrp"

# The raise statements no tier-1 test reaches, keyed by (file, enclosing
# function, raised exception), each with the reason no input from a
# scenario file, a configuration or the command line reaches it.
ALLOWED_RAISES: dict[tuple[str, str, str], str] = {
    ("cli.py", "", "SystemExit"):
        "runs only when the module is the program (python -m wrp.cli); tier-1 calls "
        "main() in-process, and the line collector does not follow child processes",
}


def header_spans(tree: ast.Module):
    """``(first line, last line, node)`` of every statement of ``tree``
    but docstrings, with the header span the module docstring states."""
    out = []

    def visit(body, docstring_allowed):
        for k, node in enumerate(body):
            if (k == 0 and docstring_allowed and isinstance(node, ast.Expr)
                    and isinstance(node.value, ast.Constant)
                    and isinstance(node.value.value, str)):
                continue
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
            inner = getattr(node, "body", None)
            if isinstance(inner, list) and inner:
                last = max(node.lineno, inner[0].lineno - 1)
            else:
                last = node.end_lineno
            out.append((first, last, node))
            is_scope = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            for field in ("body", "orelse", "finalbody"):
                visit(getattr(node, field, None) or [], is_scope and field == "body")
            for handler in getattr(node, "handlers", None) or []:
                visit(handler.body, False)
            for case in getattr(node, "cases", None) or []:
                visit(case.body, False)

    visit(tree.body, True)
    return out


def unreached(source: str, fired: set[int]) -> list[tuple[int, ast.stmt]]:
    """``(line, node)`` of every statement of ``source`` no line of whose
    header span is in ``fired``, in line order."""
    return sorted(
        ((first, node) for first, last, node in header_spans(ast.parse(source))
         if not fired.intersection(range(first, last + 1))),
        key=lambda item: item[0],
    )


class LineCollector:
    """Records the lines run in files under ``prefix`` while installed.
    Installing chains over the trace function in place, which uninstall
    restores, so a collector may run inside another one."""

    def __init__(self, prefix: Path):
        self.prefix = str(prefix.resolve())
        self.fired: dict[str, set[int]] = defaultdict(set)
        self._previous = None

    def _call(self, frame, event, arg):
        if not frame.f_code.co_filename.startswith(self.prefix):
            return None
        add = self.fired[frame.f_code.co_filename].add

        def line(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return line

        return line

    def __enter__(self):
        self._previous = sys.gettrace()
        threading.settrace(self._call)
        sys.settrace(self._call)
        return self

    def __exit__(self, *exc):
        sys.settrace(self._previous)
        threading.settrace(self._previous)


def raised_name(node: ast.Raise) -> str:
    """The exception a ``raise`` statement names: the class it calls or
    the expression it raises; ``raise`` for a bare re-raise."""
    exc = node.exc
    if exc is None:
        return "raise"
    if isinstance(exc, ast.Call):
        exc = exc.func
    return ast.unparse(exc)


def enclosing_functions(tree: ast.Module) -> dict[int, str]:
    """Line of every statement -> the dotted name of the innermost
    function or class around it ("" at module level)."""
    names = {}

    def visit(node, qual):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{qual}.{child.name}" if qual else child.name)
            else:
                if isinstance(child, ast.stmt):
                    names[child.lineno] = qual
                visit(child, qual)

    visit(tree, "")
    return names


def main(argv: list[str]) -> int:
    import pytest

    # tier-1 runs with src on PYTHONPATH; the scripts it starts need it too
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    with LineCollector(SRC) as collector:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                              str(ROOT / "tests"), *argv])
    if status != 0:
        print(f"reach: tier-1 exited with {int(status)}; reach is not measured", file=sys.stderr)
        return 1
    fired: dict[Path, set[int]] = defaultdict(set)
    for name, lines in collector.fired.items():
        fired[Path(name).resolve()] |= lines
    bad, used, total, missed = 0, set(), 0, 0
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source)
        total += len(header_spans(tree))
        quals = enclosing_functions(tree)
        lines = source.splitlines()
        for line, node in unreached(source, fired[path.resolve()]):
            missed += 1
            key = None
            if isinstance(node, ast.Raise):
                key = (path.name, quals.get(line, ""), raised_name(node))
            note = "" if key in ALLOWED_RAISES else "  <- not allowed"
            if key in ALLOWED_RAISES:
                used.add(key)
            else:
                bad += 1
            print(f"{path.relative_to(ROOT)}:{line}: {lines[line - 1].strip()}{note}")
    for key in sorted(set(ALLOWED_RAISES) - used):
        bad += 1
        print(f"stale allow-list entry {key!r}: no unreached raise matches it")
    print(f"\n{missed} of {total} statements unreached; {bad} not allowed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
