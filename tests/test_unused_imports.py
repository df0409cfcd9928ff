"""Every name a module of ``src/wrp``, ``tests/`` or ``scripts/`` imports
is used in that module.

No linter is part of the toolchain, so this is checked on the syntax
tree: a name counts as used when it appears as an identifier anywhere in
the module or inside a quoted annotation.  Package ``__init__.py``
files re-export what they import and are exempt, as are ``from
__future__`` imports.  ``perfbench/`` is left to the benchmark's own
changes.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "wrp"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
SCRIPTS = sorted(p for d in ("tests", "scripts") for p in (ROOT / d).glob("*.py"))


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import statement in the module."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def used_names(tree: ast.Module) -> set[str]:
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for note in annotations(tree):
        for node in ast.walk(note):
            # a quoted annotation such as "DomainSet" or "tuple[Weight, ...]"
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                inner = ast.parse(node.value, mode="eval")
                used.update(n.id for n in ast.walk(inner) if isinstance(n, ast.Name))
    return used


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = used_names(tree)
    return sorted(f"{name} (line {line})"
                  for name, line in imported_names(tree).items() if name not in used)


def test_modules_found():
    assert len(MODULES) >= 9
    assert {p.parent.name for p in SCRIPTS} == {"tests", "scripts"}


@pytest.mark.parametrize(
    "path", MODULES + SCRIPTS,
    ids=[p.name for p in MODULES] + [p.relative_to(ROOT).as_posix() for p in SCRIPTS],
)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_detector_flags_an_unused_name():
    source = (
        "from __future__ import annotations\n"
        "import math, os.path\n"
        "from .jets import AffineMap, PairMap as PM\n"
        "from .spaces import box\n"
        "def f(x: 'PM') -> float:\n"
        "    return math.pi if x == 'box' else 0.0\n"
    )
    assert unused_imports(source) == ["AffineMap (line 3)", "box (line 4)", "os (line 2)"]
