"""A certified row is looked up only through ``require_row``.

``seminorms.row_bound`` returns None for a missing row.  A check that
called it could turn a missing certificate into a silent per-weight
skip, so only ``require_row``, which raises PreconditionError, may
refer to it; the scenario reader requires its rows by its own rule and
names the pointer of a missing one.  Checked on the syntax trees of
``src/wrp``: every use of the name ``row_bound`` other than its
definition and its imports lies inside ``require_row``.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "wrp"


def row_bound_users(source: str) -> list[str]:
    """The top-level functions (``Class.method`` for a method) of
    ``source`` that use the name ``row_bound``, one entry per use."""
    users = []
    for top in ast.parse(source).body:
        if isinstance(top, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(top, ast.ClassDef):
            bodies = [(f"{top.name}.{n.name}", n) for n in top.body
                      if isinstance(n, ast.FunctionDef)]
        else:
            bodies = [(getattr(top, "name", "<module>"), top)]
        for name, node in bodies:
            users += [name for n in ast.walk(node)
                      if (isinstance(n, ast.Name) and n.id == "row_bound")
                      or (isinstance(n, ast.Attribute) and n.attr == "row_bound")]
    return users


def test_row_bound_is_used_only_by_require_row():
    users = {f"{p.name}:{u}" for p in SRC.glob("*.py")
             for u in row_bound_users(p.read_text(encoding="utf-8"))}
    assert users == {"seminorms.py:require_row"}


def test_detector_finds_every_use():
    source = (
        "from .seminorms import row_bound\n"
        "import wrp.seminorms as sn\n"
        "def require_row(rows, *key):\n"
        "    return row_bound(rows, *key)\n"
        "def superpose(gamma, w):\n"
        "    b = row_bound(gamma.certified, w.name, 0)\n"
        "    return b if b is not None else sn.row_bound((), 1)\n"
        "class Element:\n"
        "    def bound(self, ell):\n"
        "        lookup = row_bound\n"
        "        return lookup(self.certified, ell)\n"
        "FALLBACK = row_bound\n"
    )
    assert row_bound_users(source) == [
        "require_row", "superpose", "superpose", "Element.bound", "<module>",
    ]
