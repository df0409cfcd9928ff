"""The statement rule of ``scripts/reach.py``, on a small synthetic module:
a statement is reached when any line of its header span fires, so a
multi-line condition whose first line runs no code still counts."""

import ast
import importlib.util
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location("reach", ROOT / "scripts" / "reach.py")
reach = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(reach)

SOURCE = '''"""Module docstring."""


def f(x):
    """Docstring: no statement."""
    if (
        x > 0
        and x < 10
    ):
        return "small"
    if x < 0:
        raise ValueError("negative")
    return [
        x,
        x + 1,
    ]


def never():
    return 1
'''


def run_synthetic(tmp_path):
    path = tmp_path / "synthetic.py"
    path.write_text(SOURCE, encoding="utf-8")
    spec = importlib.util.spec_from_file_location("synthetic", path)
    module = importlib.util.module_from_spec(spec)
    previous = sys.gettrace()
    with reach.LineCollector(tmp_path) as collector:
        spec.loader.exec_module(module)
        assert module.f(5) == "small" and module.f(20) == [20, 21]
    assert sys.gettrace() is previous
    return collector.fired[str(path.resolve())]


def test_a_statement_is_reached_at_any_line_of_its_header(tmp_path):
    fired = run_synthetic(tmp_path)
    # the interpreter reports the condition at its first line of code, not
    # at ``if (``: a rule that looked at the first line alone would miss it
    assert 6 not in fired and 7 in fired
    missed = [(line, type(node).__name__) for line, node in reach.unreached(SOURCE, fired)]
    assert missed == [(12, "Raise"), (20, "Return")]


def test_docstrings_are_not_statements():
    spans = {first: (last, type(node).__name__)
             for first, last, node in reach.header_spans(ast.parse(SOURCE))}
    assert 1 not in spans and 5 not in spans
    assert spans[6] == (9, "If") and spans[13] == (16, "Return") and spans[4] == (4, "FunctionDef")


def test_raised_names_and_enclosing_functions():
    tree = ast.parse(SOURCE)
    (raise_node,) = [n for n in ast.walk(tree) if isinstance(n, ast.Raise)]
    assert reach.raised_name(raise_node) == "ValueError"
    assert reach.enclosing_functions(tree)[12] == "f"


def test_allow_list_names_raise_statements_with_reasons():
    for (file, function, raised), reason in reach.ALLOWED_RAISES.items():
        assert (reach.SRC / file).is_file() and raised and reason.strip()


def test_src_does_not_import_the_script():
    for path in sorted(reach.SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [a.name for a in node.names] + [getattr(node, "module", None) or ""]
                assert not any("reach" in n for n in names), path
