"""Every ``FamilyScenario`` field is read by the checks.

A field that no check reads is data the generator draws, ingest parses
and the writer serializes for nothing.  Checked on the syntax tree of
``src/wrp/verify.py``: a field counts as read when ``sc.<field>`` appears
in the ``CHECKS`` table, in a function it names, in a ``_run_*`` function
(``_run_unit`` labels a unit's reports with ``sc.name``) or in a helper
one of them reaches.  A helper is a module-level function that takes the
scenario as ``sc`` and is named (called, or passed on as a product), or
a ``FamilyScenario`` method or property read as ``sc.<name>``, whose own
reads are ``self.<field>``.
"""

import ast
import pathlib

VERIFY = pathlib.Path(__file__).resolve().parent.parent / "src" / "wrp" / "verify.py"


def unread_fields(source: str) -> list[str]:
    """The ``FamilyScenario`` fields of ``source``, in declaration order,
    that no ``_run_*`` function or helper it reaches reads."""
    tree = ast.parse(source)
    cls = next(n for n in tree.body
               if isinstance(n, ast.ClassDef) and n.name == "FamilyScenario")
    fields = [n.target.id for n in cls.body
              if isinstance(n, ast.AnnAssign) and isinstance(n.target, ast.Name)]
    methods = {n.name: n for n in cls.body if isinstance(n, ast.FunctionDef)}
    helpers = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)
               and any(a.arg == "sc" for a in n.args.args)}
    table = [n for n in tree.body if isinstance(n, ast.AnnAssign)
             and isinstance(n.target, ast.Name) and n.target.id == "CHECKS"]
    todo = [(n, "sc") for n in tree.body
            if isinstance(n, ast.FunctionDef) and n.name.startswith("_run_")] + [
        (n.value, "sc") for n in table]
    seen, read = {getattr(n, "name", "CHECKS") for n, _ in todo}, set()
    while todo:
        fn, owner = todo.pop()
        for node in ast.walk(fn):
            reached = None
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == owner):
                read.add(node.attr)
                reached = methods.get(node.attr), "self"
            elif isinstance(node, ast.Name):
                reached = helpers.get(node.id), "sc"
            if reached and reached[0] is not None and reached[0].name not in seen:
                seen.add(reached[0].name)
                todo.append(reached)
    return [f for f in fields if f not in read]


def test_every_scenario_field_is_read_by_a_check():
    assert unread_fields(VERIFY.read_text(encoding="utf-8")) == []


def test_detector_follows_helpers_and_methods():
    source = (
        "class FamilyScenario:\n"
        "    name: str\n"
        "    a: int\n"
        "    b: int\n"
        "    c: int\n"
        "    d: int\n"
        "    e: int\n"
        "    f: int\n"
        "    g: int\n"
        "    h: int\n"
        "    def total(self):\n"
        "        return self.b\n"
        "def _helper(sc, k):\n"
        "    return sc.c + k\n"
        "def not_a_helper(unit):\n"
        "    sc = unit\n"
        "    return sc.d\n"
        "def validate(sc):\n"
        "    return sc.e\n"
        "def _run_one(sc):\n"
        "    return sc.a + sc.total() + _helper(sc, 1) + not_a_helper(sc)\n"
        "def _run_unit(unit):\n"
        "    sc = load(unit)\n"
        "    return sc.name\n"
        "def _product(sc, p, i):\n"
        "    return sc.f[i]\n"
        "def _build(sc, p, cid):\n"
        "    return [p.read(_product, 0)]\n"
        "def _unlisted(sc, p, cid):\n"
        "    return [sc.h]\n"
        "CHECKS: dict = {'x': _build, 'y': lambda sc, p, cid: [sc.g]}\n"
    )
    assert unread_fields(source) == ["d", "e", "h"]
