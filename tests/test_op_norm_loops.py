"""No module of ``src/wrp`` takes operator norms one tensor at a time over
a ``tensors`` stack: ``op_norms`` takes the whole stack.

Checked on the syntax tree.  A stack is a ``.tensors(...)`` call, a name
assigned from one in the same function, or a parameter of a function of
the same module that some call site passes such a stack.  A call to
``op_norm`` inside a ``for`` loop or comprehension iterating over a stack
is flagged, with the line of the call.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "wrp"
MODULES = sorted(SRC.glob("*.py"))


def _is_tensors_call(node) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "tensors")


def _calls_op_norm(node) -> bool:
    f = node.func if isinstance(node, ast.Call) else None
    return (isinstance(f, ast.Name) and f.id == "op_norm") or (
        isinstance(f, ast.Attribute) and f.attr == "op_norm")


def _assigned_stacks(fn) -> set[str]:
    """Names the function binds to a ``.tensors(...)`` call."""
    names = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign) and _is_tensors_call(node.value):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


def _stack_params(functions: dict, stacks: dict) -> dict[str, set[str]]:
    """Parameters of module functions that a call site passes a stack."""
    params = {name: set() for name in functions}
    for caller, fn in functions.items():
        for node in ast.walk(fn):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in functions):
                continue
            callee = functions[node.func.id]
            names = [a.arg for a in callee.args.args]
            for pos, arg in enumerate(node.args):
                if pos < len(names) and (_is_tensors_call(arg) or (
                        isinstance(arg, ast.Name) and arg.id in stacks[caller])):
                    params[node.func.id].add(names[pos])
    return params


def _loops(fn):
    """(iterable, body nodes) of every loop and comprehension generator."""
    for node in ast.walk(fn):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            yield node.iter, node.body
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            elts = [node.key, node.value] if isinstance(node, ast.DictComp) else [node.elt]
            for gen in node.generators:
                yield gen.iter, elts + gen.ifs


def per_tensor_norm_loops(source: str) -> list[int]:
    """Lines of ``op_norm`` calls inside a loop over a ``tensors`` stack."""
    tree = ast.parse(source)
    functions = {n.name: n for n in ast.walk(tree)
                 if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))}
    stacks = {name: _assigned_stacks(fn) for name, fn in functions.items()}
    for name, extra in _stack_params(functions, stacks).items():
        stacks[name] |= extra
    lines = set()
    for name, fn in functions.items():
        for it, body in _loops(fn):
            if not (_is_tensors_call(it) or (isinstance(it, ast.Name) and it.id in stacks[name])):
                continue
            lines.update(n.lineno for part in body for n in ast.walk(part) if _calls_op_norm(n))
    return sorted(lines)


def test_modules_found():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_per_tensor_norm_loop(path):
    assert per_tensor_norm_loops(path.read_text(encoding="utf-8")) == []


def test_detector_flags_the_per_tensor_patterns():
    source = (
        "def grid_norms(t, out_rank):\n"
        "    return [op_norm(MultilinearMap(ti, out_rank)) for ti in t]\n"
        "def seminorm(wf, pts):\n"
        "    t = wf.map.tensors(pts, 1)\n"
        "    return grid_norms(t, 1)\n"
        "def runner(m, grid):\n"
        "    lhs = max(op_norm(MultilinearMap(t, 1)) for t in m.tensors(grid.points, 1))\n"
        "    for t in m.tensors(grid.points, 2):\n"
        "        lhs = max(lhs, jets.op_norm(MultilinearMap(t, 1)))\n"
        "    t2 = m.tensors(grid.points, 2)\n"
        "    return lhs + sum(op_norm(MultilinearMap(t, 1)) for t in t2)\n"
        "def fine(bilinears, m, grid):\n"
        "    sup_b = max(op_norm(MultilinearMap(b, 1)) for b in bilinears)\n"
        "    return sup_b * op_norms(m.tensors(grid.points, 1)).max()\n"
    )
    assert per_tensor_norm_loops(source) == [2, 7, 9, 11]
