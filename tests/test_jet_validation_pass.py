"""The ingest check of the maps is one pass per scenario: no module of
``src/wrp`` runs the jet reference check ``validate_jet_map`` on maps one
at a time in a loop, and ``validate_scenario`` hands all its maps to one
``_entry_bounds`` call.

Checked on the syntax tree.  A call to ``validate_jet_map`` (by name or
attribute) anywhere inside a ``for`` or ``while`` loop or a comprehension
is flagged, with the line of the call.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "wrp"
MODULES = sorted(SRC.glob("*.py"))


def _calls(node, name: str) -> list[ast.Call]:
    """The calls of ``name`` (a bare name or an attribute) under ``node``."""
    return [
        n for n in ast.walk(node)
        if isinstance(n, ast.Call) and (
            (isinstance(n.func, ast.Name) and n.func.id == name)
            or (isinstance(n.func, ast.Attribute) and n.func.attr == name))
    ]


def _loop_bodies(tree):
    """The nodes each loop or comprehension repeats."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
            yield from node.body
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            yield from [node.key, node.value] if isinstance(node, ast.DictComp) else [node.elt]
            for gen in node.generators:
                yield from gen.ifs


def per_map_validation_loops(source: str) -> list[int]:
    """Lines of ``validate_jet_map`` calls inside a loop."""
    tree = ast.parse(source)
    return sorted({c.lineno for body in _loop_bodies(tree)
                   for c in _calls(body, "validate_jet_map")})


def validation_passes(source: str, function: str) -> int:
    """The number of ``_entry_bounds`` calls in ``function``, counting a
    call inside a loop as two: a loop makes one pass per iteration."""
    tree = ast.parse(source)
    fn = next(n for n in ast.walk(tree)
              if isinstance(n, ast.FunctionDef) and n.name == function)
    looped = {id(c) for body in _loop_bodies(fn) for c in _calls(body, "_entry_bounds")}
    return sum(1 + (id(c) in looped) for c in _calls(fn, "_entry_bounds"))


def test_modules_found():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_per_map_validation_loop(path):
    assert per_map_validation_loops(path.read_text(encoding="utf-8")) == []


def test_validate_scenario_makes_one_pass():
    source = (SRC / "verify.py").read_text(encoding="utf-8")
    assert validation_passes(source, "validate_scenario") == 1


def test_detector_flags_the_per_map_patterns():
    source = (
        "def per_map(sc, rng):\n"
        "    for wf in sc.gammas.factors:\n"
        "        validate_jet_map(wf.map, rng)\n"
        "    [jets.validate_jet_map(s, rng) for s in sc.sigmas]\n"
        "    while sc:\n"
        "        if sc.xis:\n"
        "            validate_jet_map(sc.xis[0].xi, rng)\n"
        "def per_group(sc, rng):\n"
        "    for key in KEYS:\n"
        "        _entry_bounds([(wf.map, 0) for wf in getattr(sc, key).factors])\n"
        "def twice(sc, rng):\n"
        "    _entry_bounds([(s, 0) for s in sc.sigmas])\n"
        "    jets._entry_bounds([(op.xi, 0) for op in sc.xis])\n"
        "def once(sc, rng):\n"
        "    validate_jet_map(sc.sigmas[0], rng)\n"
        "    _entry_bounds([(m, ell) for m in maps(sc) for ell in range(3)])\n"
    )
    assert per_map_validation_loops(source) == [3, 4, 7]
    assert validation_passes(source, "per_map") == 0
    assert validation_passes(source, "per_group") == 2
    assert validation_passes(source, "twice") == 2
    assert validation_passes(source, "once") == 1
