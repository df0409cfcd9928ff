"""Every defaulted parameter of ``src/wrp`` is set by some call.

A parameter whose default no caller overrides is a constant spelled as
an option: it doubles no configuration anyone runs, yet reads as one.
This is checked on the syntax trees of ``src/``, ``tests/``,
``scripts/`` and ``perfbench/``.  A defaulted parameter of a
module-level function, a method or an explicit ``__init__`` counts as
set when some call names it by keyword, reaches it by position or
passes ``*args``/``**kwargs`` that could reach it.  A call is matched to
a function by name alone (``f(...)`` and ``obj.f(...)`` both match every
function or method named ``f``); calling a class calls its
``__init__``, and ``super().__init__(...)`` in a class body calls the
``__init__`` of each base.  Defaults of lambdas and nested functions
bind closure values and are exempt.

A dataclass field with a default is a parameter of the class's
``__init__`` too: it counts as set when some call of the class names it
by keyword, reaches it by position among the ``__init__`` fields or
passes ``*args``/``**kwargs``.  A field is defaulted when its value is
not a ``field(...)`` call, or is one (made directly or returned by a
module-level helper) with ``default`` or ``default_factory``; an
``init=False`` field and a ``ClassVar`` are exempt.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "wrp"
CALLERS = [ROOT / d for d in ("src", "tests", "scripts", "perfbench")]


def _call_name(node) -> str | None:
    if isinstance(node, ast.Call):
        node = node.func
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def dataclass_fields(cls: ast.ClassDef, field_helpers: dict[str, ast.Call]):
    """(name, has default) per ``__init__`` field of ``cls``, in order, or
    nothing if ``cls`` is not a dataclass."""
    if not any(_call_name(d) == "dataclass" for d in cls.decorator_list):
        return
    for item in cls.body:
        if not isinstance(item, ast.AnnAssign) or not isinstance(item.target, ast.Name):
            continue
        if "ClassVar" in ast.unparse(item.annotation):
            continue
        value = item.value
        callee = _call_name(value) if isinstance(value, ast.Call) else None
        spec = value if callee == "field" else field_helpers.get(callee)
        if spec is None:
            yield item.target.id, value is not None
            continue
        keywords = {k.arg: k.value for k in spec.keywords}
        init = keywords.get("init")
        if not (isinstance(init, ast.Constant) and init.value is False):
            yield item.target.id, "default" in keywords or "default_factory" in keywords


def defaulted_parameters(tree: ast.Module, module: str):
    """(label, callee name, positional index or None, keyword) per defaulted parameter."""
    def of_function(fn: ast.FunctionDef, owner: str | None):
        args = fn.args
        positional = args.posonlyargs + args.args
        skip = 1 if owner is not None and not any(
            isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list) else 0
        name = owner if fn.name == "__init__" else fn.name
        label = f"{module}:{owner + '.' if owner else ''}{fn.name}"
        first = len(positional) - len(args.defaults)
        for i, arg in enumerate(positional[first:], start=first):
            keyword = None if arg in args.posonlyargs else arg.arg
            yield f"{label}({arg.arg})", name, i - skip, keyword
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield f"{label}({arg.arg})", name, None, arg.arg

    # module-level functions that return a field(...) call
    field_helpers = {
        fn.name: ret.value for fn in tree.body if isinstance(fn, ast.FunctionDef)
        for ret in ast.walk(fn)
        if isinstance(ret, ast.Return) and _call_name(ret.value) == "field"
    }
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from of_function(node, None)
        elif isinstance(node, ast.ClassDef):
            for i, (name, has_default) in enumerate(dataclass_fields(node, field_helpers)):
                if has_default:
                    yield f"{module}:{node.name}.{name}", node.name, i, name
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield from of_function(item, node.name)


def callee_names(call: ast.Call, bases: list[str]) -> list[str]:
    func = call.func
    if (isinstance(func, ast.Attribute) and func.attr == "__init__"
            and isinstance(func.value, ast.Call) and isinstance(func.value.func, ast.Name)
            and func.value.func.id == "super"):
        return bases
    if isinstance(func, ast.Name):
        return [func.id]
    if isinstance(func, ast.Attribute):
        return [func.attr]
    return []


def calls(tree: ast.Module):
    """(callee name, positional count or None for *args, keywords or None for **kwargs)."""
    def visit(node: ast.AST, bases: list[str]):
        if isinstance(node, ast.ClassDef):
            bases = [b.id if isinstance(b, ast.Name) else getattr(b, "attr", "")
                     for b in node.bases]
        if isinstance(node, ast.Call):
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            keywords = {k.arg for k in node.keywords}
            for name in callee_names(node, bases):
                yield (name, None if starred else len(node.args),
                       None if None in keywords else keywords)
        for child in ast.iter_child_nodes(node):
            yield from visit(child, bases)

    yield from visit(tree, [])


def never_set(sources: dict[str, str], callers: list[str]) -> list[str]:
    """Labels of the defaulted parameters of ``sources`` that no call in ``callers`` sets."""
    by_name: dict[str, list] = {}
    for text in callers:
        for name, n_positional, keywords in calls(ast.parse(text)):
            by_name.setdefault(name, []).append((n_positional, keywords))

    def is_set(name, index, keyword):
        for n_positional, keywords in by_name.get(name, ()):
            if index is not None and (n_positional is None or 0 <= index < n_positional):
                return True
            if keyword is not None and (keywords is None or keyword in keywords):
                return True
        return False

    return sorted(label for module, text in sources.items()
                  for label, name, index, keyword in defaulted_parameters(ast.parse(text), module)
                  if not is_set(name, index, keyword))


def read(paths) -> dict[str, str]:
    return {p.relative_to(ROOT).as_posix(): p.read_text(encoding="utf-8") for p in paths}


SOURCES = read(sorted(SRC.glob("*.py")))
CALLER_TEXTS = list(read(sorted(p for d in CALLERS for p in d.rglob("*.py"))).values())


def test_sources_found():
    assert len(SOURCES) >= 10
    assert sum(1 for text in SOURCES.values()
               for _ in defaulted_parameters(ast.parse(text), "")) > 0


def test_every_default_is_set_by_some_call():
    assert never_set(SOURCES, CALLER_TEXTS) == []


def test_detector_flags_a_default_no_call_sets():
    source = (
        "def f(x, tol=1e-9, *, check_id='a', steps=(1, 2)):\n"
        "    def inner(y, k=x):\n"
        "        return y + k\n"
        "    return (lambda z=tol: z)()\n"
        "class Base:\n"
        "    def __init__(self, a, b=1, c=2):\n"
        "        self.a = a\n"
        "    def m(self, p=0, q=1):\n"
        "        return p\n"
        "    @staticmethod\n"
        "    def s(u=0, v=1):\n"
        "        return u\n"
        "class Child(Base):\n"
        "    def __init__(self, d=3):\n"
        "        super().__init__(d, d)\n"
        "def g(*args, r=0, **kwargs):\n"
        "    return f(*args), Base.s(1), Child(**kwargs)\n"
    )
    caller = "f(1, steps=(3,))\nBase(0).m(5)\ng(r=1)\n"
    assert never_set({"m": source}, [source, caller]) == [
        "m:Base.__init__(c)", "m:Base.m(q)", "m:Base.s(v)", "m:f(check_id)",
    ]


def test_detector_flags_a_dataclass_field_no_call_sets():
    source = (
        "from dataclasses import dataclass, field\n"
        "from typing import ClassVar\n"
        "def tagged(tag):\n"
        "    return field(metadata={'tag': tag})\n"
        "@dataclass(frozen=True)\n"
        "class Spec:\n"
        "    name: str\n"
        "    size: int = 1\n"
        "    scale: float = 0.5\n"
        "    marked: int = tagged('a')\n"
        "    extra: dict = field(default_factory=dict)\n"
        "    cache: dict = field(init=False, default_factory=dict)\n"
        "    limit: ClassVar[int] = 3\n"
        "    note: str = field(default='', compare=False)\n"
        "@dataclass\n"
        "class Plain:\n"
        "    a: int = 0\n"
        "class NotData:\n"
        "    b: int = 0\n"
    )
    caller = "Spec('x', 2, marked=0)\nSpec('y', note='z')\nPlain(**{})\n"
    assert never_set({"m": source}, [source, caller]) == ["m:Spec.extra", "m:Spec.scale"]
