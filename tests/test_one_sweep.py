"""Every derivative check of ``src/wrp`` runs the one difference-quotient
sweep: ``convergence_report`` is called only from
``derivative_convergence``, so no check fits a slope to a loop of its own.

Checked on the syntax tree: each call to ``convergence_report`` (by name or
as an attribute) is attributed to the innermost enclosing function, and
calls outside ``derivative_convergence`` are flagged with their module,
function and line.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "wrp"
MODULES = sorted(SRC.glob("*.py"))


def convergence_callers(source: str, module: str = "m") -> list[tuple[str, str, int]]:
    """(module, enclosing function or "<module>", line) of every
    ``convergence_report`` call in ``source``."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope
            if isinstance(child, ast.Call):
                f = child.func
                if (isinstance(f, ast.Name) and f.id == "convergence_report") or (
                        isinstance(f, ast.Attribute) and f.attr == "convergence_report"):
                    found.append((module, scope, child.lineno))
            visit(child, inner)

    visit(ast.parse(source), "<module>")
    return found


def test_convergence_report_has_one_caller():
    calls = [c for p in MODULES
             for c in convergence_callers(p.read_text(encoding="utf-8"), p.name)]
    assert [(m, fn) for m, fn, _ in calls] == [("operators.py", "derivative_convergence")], calls


def test_detector_attributes_calls_to_their_function():
    source = (
        "def derivative_convergence(check_id, error_at, steps):\n"
        "    return convergence_report(check_id, steps, [error_at(t) for t in steps])\n"
        "def own_sweep(steps):\n"
        "    def error_at(t):\n"
        "        return t * t\n"
        "    return operators.convergence_report('x', steps, [error_at(t) for t in steps])\n"
        "REPORT = convergence_report('y', [], [])\n"
    )
    assert convergence_callers(source) == [
        ("m", "derivative_convergence", 2), ("m", "own_sweep", 6), ("m", "<module>", 7),
    ]
