"""The stacked passes carry the bits of their per-object loops.

``crude_sup_bounds`` computes the entry bounds of every polynomial under a
batch of maps in one kernel pass per order, and ``crude_sup_bound`` is a
batch of one; ``weighted_seminorms`` takes the grid seminorms of a family's
factors in one pass over the concatenated grids, and ``weighted_seminorm``,
``family_seminorms`` (several families at one order) and
``decomposition_checks`` build on it.  They are
pinned here against the per-object loop they replace: values, argmax and
witness bit for bit, and the same error on a NaN tensor, a NaN weight or
an overflowing power.  Each polynomial's entry bounds are pinned against a
per-term oracle in Python floats at its box's corner, since the bounds and
the maps' own evaluation share one kernel.

The generator, the operators, the checks and the runners must not fall
back to the loops: in ``jets.py``, ``seminorms.py``, ``restricted.py``,
``operators.py`` and ``verify.py``, a call of ``crude_sup_bound``,
``weighted_seminorm`` or ``op_norm``, or of a ``.tensor`` method, whose
map or function (a seminorm's weight too), tensor or point varies with an
enclosing loop is flagged on the syntax tree.
"""

import ast
import itertools
import math
import pathlib
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wrp import jets
from wrp.errors import DataError
from wrp.jets import (
    DifferentialMap,
    PolynomialMap,
    ScaledMap,
    SumMap,
    crude_sup_bound,
    crude_sup_bounds,
)
from wrp.report import deviation, identity_report
from wrp.restricted import RestrictedElement, family_seminorm, family_seminorms
from wrp.seminorms import (
    WeightedFunction,
    decomposition_checks,
    lattice,
    weighted_seminorm,
    weighted_seminorms,
)
from wrp.spaces import MAX_POWER, FamilyWeight, Weight, box, const_weight, gaussian_weight

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "wrp"


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


# ---------------------------------------------------------------------------
# crude bounds


def _poly_spec(rng, huge: bool):
    m, n, n_terms = (int(rng.integers(1, 4)) for _ in range(3))
    scale = 10.0 ** (int(rng.integers(100, 300)) if huge else int(rng.integers(-3, 4)))
    lo = -scale * rng.uniform(0.5, 2.0, size=m)
    hi = scale * rng.uniform(0.5, 2.0, size=m)
    top = MAX_POWER if rng.random() < 0.3 else 4
    terms = []
    for _ in range(n_terms + 1):
        coef = rng.normal(size=n) * 10.0 ** int(rng.integers(-3, 4))
        coef[rng.random(n) < 0.2] = 0.0  # 0 * an overflowing power is NaN
        terms.append((coef, tuple(int(p) for p in rng.integers(0, top + 1, size=m))))
    return lo, hi, terms


def _build(spec):
    """Fresh maps from a batch spec: nothing cached is shared with another
    build of the same spec."""
    polys = [PolynomialMap(box(lo, hi), terms) for lo, hi, terms in spec["polys"]]
    maps = []
    for kind, i, j, c in spec["maps"]:
        p = polys[i]
        if kind == "poly":
            maps.append(p)
        elif kind == "scaled":
            maps.append(ScaledMap(p, c))
        elif kind == "sum" and polys[j].dim == p.dim and polys[j].out_shape == p.out_shape:
            maps.append(SumMap([p, ScaledMap(polys[j], -1.0)]))
        else:
            maps.append(DifferentialMap(p))
    return maps


@st.composite
def _batches(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    huge = draw(st.booleans())
    n_polys = int(rng.integers(1, 5))
    polys = [_poly_spec(rng, huge and rng.random() < 0.5) for _ in range(n_polys)]
    maps = [
        (str(rng.choice(["poly", "scaled", "sum", "diff"])), int(rng.integers(n_polys)),
         int(rng.integers(n_polys)), float(rng.normal()))
        for _ in range(int(rng.integers(1, 7)))
    ]
    return {"polys": polys, "maps": maps}, draw(st.integers(0, 3))


def _singles(spec, ell):
    """One ``crude_sup_bound`` per map, each on its own fresh build: the
    per-map loop, with an OverflowError in place of a bound."""
    out = []
    for k in range(len(spec["maps"])):
        try:
            out.append(crude_sup_bound(_build(spec)[k], ell))
        except OverflowError as exc:
            out.append(exc)
    return out


@given(_batches())
@settings(max_examples=80, deadline=None, derandomize=True)
def test_crude_sup_bounds_match_the_per_map_loop(batch):
    spec, ell = batch
    with np.errstate(all="ignore"):
        want = _singles(spec, ell)
        if any(isinstance(w, OverflowError) for w in want):
            # libm pow overflows at an order >= 1 as the one-point kernel does
            with pytest.raises(OverflowError):
                crude_sup_bounds(_build(spec), ell)
            return
        got = crude_sup_bounds(_build(spec), ell)
    assert [_bits(g) for g in got] == [_bits(w) for w in want]


def _corner_oracle(pm: PolynomialMap, ell: int) -> list[list[float]]:
    """Per-term oracle in Python floats: the order-``ell`` entries ``(n,
    m**ell)`` of ``pm`` with absolute coefficients at its corner, each
    entry 0.0 plus, term by term, ``|c| * ((fall * x0**e0) * x1**e1 ...)``
    with every power a multiplication chain.  Python floats overflow to
    inf, and 0 * inf is NaN, as IEEE arithmetic gives them."""
    lo, hi = pm.domain.bounding_box()
    corner = [max(abs(float(a)), abs(float(b))) for a, b in zip(lo, hi)]
    m = pm.dim
    ent = [[0.0] * m**ell for _ in range(pm.out_dim)]
    for c, pw in pm.terms:
        for f, jidx in enumerate(itertools.product(range(m), repeat=ell)):
            beta = [jidx.count(a) for a in range(m)]
            if any(b > p for b, p in zip(beta, pw)):
                continue
            scale = float(math.prod(p - k for p, b in zip(pw, beta) for k in range(b)))
            for x, p, b in zip(corner, pw, beta):
                power = 1.0
                for _ in range(p - b):
                    power *= x
                scale *= power
            for o in range(pm.out_dim):
                ent[o][f] += abs(float(c[o])) * scale
    return ent


@given(_batches())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_polynomial_bounds_match_the_per_term_oracle(batch):
    """Each polynomial's cached entry bounds, from one kernel pass over
    the stack, against the per-term oracle at its corner: overflows to
    inf (and NaN from a zero coefficient) included."""
    spec, ell = batch
    polys = [PolynomialMap(box(lo, hi), terms) for lo, hi, terms in spec["polys"]]
    with np.errstate(all="ignore"):
        got = jets._entry_bounds([(pm, ell) for pm in polys])
    for g, pm in zip(got, polys):
        want = np.array(_corner_oracle(pm, ell))
        assert g.shape == want.shape and g.tobytes() == want.tobytes()


def test_huge_boxes_overflow_to_inf_at_order_zero():
    dom = box([-1e300], [1e300])
    pm = PolynomialMap(dom, [(np.array([1.0, 0.0]), (MAX_POWER,))])
    with np.errstate(over="ignore", invalid="ignore"):
        (ent,) = jets._entry_bounds([(pm, 0)])
        bounds = crude_sup_bounds([pm, ScaledMap(pm, 2.0)], 0)
    # a zero coefficient times the infinite power is NaN, and the max of
    # the row sums carries it; the power chain overflows to inf at order 1
    # as at order 0
    assert ent[0, 0] == math.inf and math.isnan(ent[1, 0])
    assert all(math.isnan(b) for b in bounds)
    assert math.isnan(crude_sup_bounds([pm], 1)[0])


def test_one_pass_per_order(monkeypatch):
    """A batch runs the polynomial kernel once per order, and a cached
    order not at all."""
    calls = []
    kernel = jets._poly_tensors
    monkeypatch.setattr(jets, "_poly_tensors",
                        lambda polys, ell: calls.append((len(polys), ell)) or kernel(polys, ell))
    dom = box([-1.0, -2.0], [1.0, 2.0])
    p = PolynomialMap(dom, [(np.array([1.0]), (1, 2)), (np.array([-2.0]), (0, 1))])
    q = PolynomialMap(dom, [(np.array([0.5]), (3, 0))])
    maps = [p, ScaledMap(q, 3.0), SumMap([p, ScaledMap(q, -1.0)]), DifferentialMap(q)]
    crude_sup_bounds(maps, 1)
    assert calls == [(2, 1), (1, 2)]
    crude_sup_bounds(maps, 1)
    assert calls == [(2, 1), (1, 2)]


# ---------------------------------------------------------------------------
# family seminorms


@st.composite
def _families(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = int(rng.integers(1, 6))
    ell = int(rng.integers(0, 3))
    wfs, weights = [], []
    for _ in range(n):
        if wfs and rng.random() < 0.3:
            # an exact copy of an earlier factor: a tie
            k = int(rng.integers(len(wfs)))
            wfs.append(wfs[k])
            weights.append(weights[k])
            continue
        m, out = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        norm = "euclidean" if ell <= 1 and rng.random() < 0.3 else "sup"
        dom = box([-1.0] * m, [float(rng.uniform(0.5, 2.0))] * m, norm)
        terms = [(rng.normal(size=out), tuple(int(p) for p in rng.integers(0, 4, size=m)))
                 for _ in range(int(rng.integers(1, 4)))]
        wfs.append(WeightedFunction(PolynomialMap(dom, terms), lattice(dom, per_axis=3), 2))
        kind = rng.integers(3)
        weights.append(
            const_weight("w", float(rng.uniform(0.0, 2.0))) if kind == 0
            else gaussian_weight("w", float(rng.uniform(0.0, 1.0)), dom) if kind == 1
            else Weight("w", lambda x: math.inf if x[0] > 0.6 else 1.0))
    return wfs, weights, ell


def _decomposition_loop(wfs, weights, ell):
    """The per-map loop: each map's order-(l+1) seminorm against its
    differential's order-l seminorm, one identity report per map."""
    return [
        identity_report(
            "lem:topologische_Zerlegung_von_CFk",
            deviation(weighted_seminorm(wf, w, ell + 1).value,
                      weighted_seminorm(wf.differential(), w, ell).value),
            tolerance=1e-12, detail=f"reduction to lower order at l = {ell}",
        )
        for wf, w in zip(wfs, weights)
    ]


def _family_loop(wfs, weights, ell):
    """The per-factor loop: one seminorm per factor, the first factor with
    the largest value kept."""
    values = [weighted_seminorm(wf, w, ell) for wf, w in zip(wfs, weights)]
    best, arg, witness = -1.0, 0, None
    for i, sv in enumerate(values):
        if sv.value > best:
            best, arg, witness = sv.value, i, sv.witness
    return values, (best, arg, witness)


@given(_families())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_family_seminorm_matches_the_per_factor_loop(family):
    wfs, weights, ell = family
    values, (best, arg, witness) = _family_loop(wfs, weights, ell)
    got = weighted_seminorms(wfs, weights, ell)
    assert [(_bits(s.value), s.witness, s.kind) for s in got] == [
        (_bits(s.value), s.witness, s.kind) for s in values]
    elem, fw = RestrictedElement(tuple(wfs)), FamilyWeight("w", tuple(weights))
    fam = family_seminorm(elem, fw, ell)
    assert (_bits(fam.value), fam.argmax, fam.witness) == (_bits(best), arg, witness)
    # several families in one pass: each as it is alone
    rev = (RestrictedElement(tuple(reversed(wfs))), FamilyWeight("v", tuple(reversed(weights))))
    pairs = [(elem, fw), rev, (RestrictedElement(tuple(wfs[:1])), FamilyWeight("u", fw.factors[:1]))]
    stacked = family_seminorms(pairs, ell)
    assert [(f.weight_name, _bits(f.value), f.argmax, f.witness) for f in stacked] == [
        (f.weight_name, _bits(f.value), f.argmax, f.witness)
        for f in (family_seminorm(e, w, ell) for e, w in pairs)]
    if ell == 0:  # the euclidean norm stops at order 1
        def key(r):  # an infinite weight makes inf - inf: NaN lhs and margin
            return r.status, _bits(r.lhs), _bits(r.rhs), _bits(r.margin), r.detail
        assert [key(r) for r in decomposition_checks(wfs, weights, ell)] == [
            key(r) for r in _decomposition_loop(wfs, weights, ell)]


def test_ties_keep_the_first_factor_and_point():
    dom = box([-1.0], [1.0])
    wf = WeightedFunction(PolynomialMap(dom, [(np.array([1.0]), (2,))]), lattice(dom, per_axis=5), 1)
    fam = family_seminorm(RestrictedElement((wf, wf, wf)),
                          FamilyWeight("one", (const_weight("one", 1.0),) * 3), 0)
    assert (fam.argmax, fam.witness) == (0, tuple(wf.grid.points[0]))
    assert weighted_seminorms([], [], 0) == []


def _nan_family(where: str):
    dom = box([-1.0], [1.0])
    grid = lattice(dom, per_axis=4)
    ok = WeightedFunction(PolynomialMap(dom, [(np.array([1.0]), (1,))]), grid, 1)
    nan_map = WeightedFunction(PolynomialMap(dom, [(np.array([math.nan]), (1,))]), grid, 1)
    one = const_weight("one", 1.0)
    nan_w = Weight("spiky", lambda x: math.nan if x[0] > 0.5 else 1.0)
    if where == "tensor":
        return [ok, nan_map, ok], [one, one, one]
    return [ok, ok, ok], [one, nan_w, one]


@pytest.mark.parametrize("where, message", [
    ("tensor", "order-0 tensor has a NaN entry at grid point [-0.6]"),
    ("weight", "weight 'spiky' evaluated to NaN at [0.6000000000000001]"),
])
def test_nan_raises_what_the_loop_raised(where, message):
    wfs, weights = _nan_family(where)
    with pytest.raises(DataError) as loop:
        _family_loop(wfs, weights, 0)
    with pytest.raises(DataError) as stacked:
        weighted_seminorms(wfs, weights, 0)
    assert str(stacked.value) == str(loop.value) == message


# ---------------------------------------------------------------------------
# no per-object loops


def _names(node) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _bound_names(nodes) -> set[str]:
    """Names that assignments, loops and comprehensions in ``nodes`` bind."""
    out = set()
    for part in nodes:
        for n in ast.walk(part):
            if isinstance(n, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = n.targets if isinstance(n, ast.Assign) else [n.target]
                out.update(x for t in targets for x in _names(t))
            elif isinstance(n, (ast.For, ast.comprehension)):
                out.update(_names(n.target))
            elif isinstance(n, ast.NamedExpr):
                out.update(_names(n.target))
    return out


# the checked arguments: the map or function, a seminorm's weight, the
# tensor of an operator norm and the point of a ``.tensor`` method call (a
# leading dot names a method, called on any object)
CHECKED_ARGS = {"crude_sup_bound": {0}, "weighted_seminorm": {0, 1}, "op_norm": {0},
                ".tensor": {0}}


def _callee(call: ast.Call, positions: dict) -> str | None:
    """The key of ``positions`` a call is checked under: a function called
    by name, or by attribute (``jets.op_norm``), or a method."""
    f = call.func
    keys = ([f.id] if isinstance(f, ast.Name)
            else ["." + f.attr, f.attr] if isinstance(f, ast.Attribute) else [])
    return next((k for k in keys if k in positions), None)


def _call_positions(tree, target: str) -> dict[str, set[int]]:
    """``target`` and every function of the module that passes one of its
    parameters on, directly or through another such function, as the
    argument at a position of ``target`` that is checked."""
    functions = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
    positions = {target: set(CHECKED_ARGS[target])}
    changed = True
    while changed:
        changed = False
        for fn in functions:
            params = [a.arg for a in fn.args.args]
            for call in ast.walk(fn):
                callee = _callee(call, positions) if isinstance(call, ast.Call) else None
                if callee is None or callee == fn.name:
                    continue
                for pos in positions[callee]:
                    if pos >= len(call.args):
                        continue
                    for k, p in enumerate(params):
                        if p in _names(call.args[pos]) and k not in positions.setdefault(
                                fn.name, set()):
                            positions[fn.name].add(k)
                            changed = True
    return positions


def per_object_calls(source: str, target: str) -> list[int]:
    """Lines of calls to ``target`` (or to a module function that passes
    its parameter on to it) whose checked argument varies with an
    enclosing loop or comprehension: it names the loop's target or a name
    the loop binds."""
    tree = ast.parse(source)
    positions = _call_positions(tree, target)
    lines = set()

    def visit(node, varying: set[str]):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            varying = set()
        elif isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
            varying = varying | _bound_names([node])
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            varying = varying | _bound_names(node.generators)
        elif isinstance(node, ast.Call) and (callee := _callee(node, positions)):
            if any(pos < len(node.args) and _names(node.args[pos]) & varying
                   for pos in positions[callee]):
                lines.add(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, varying)

    visit(tree, set())
    return sorted(lines)


@pytest.mark.parametrize("module, target", itertools.product(
    ["verify.py", "restricted.py", "operators.py", "seminorms.py", "jets.py"], CHECKED_ARGS))
def test_no_per_object_loop(module, target):
    assert per_object_calls((SRC / module).read_text(encoding="utf-8"), target) == []


def test_detector_flags_the_per_object_patterns():
    source = (
        "def certified(map_, reads):\n"
        "    return {ell: crude_sup_bound(map_, ell) for _, ell in reads}\n"
        "def generate(factors, sigmas):\n"
        "    for fs in factors:\n"
        "        xi = draw(fs)\n"
        "        sup_1 = [crude_sup_bound(xi, ell) for ell in (1, 2, 3)]\n"
        "        rows = certified(xi, READS)\n"
        "    k = max(crude_sup_bound(s, 1) for s in sigmas)\n"
        "    def add(key, m):\n"
        "        return certified(m, READS[key])\n"
        "    for key in KEYS:\n"
        "        add(key, maps[key])\n"
        "    return k\n"
        "def fine(xi, sigmas, elem, fw):\n"
        "    sup_1 = tuple((ell, crude_sup_bound(xi, ell)) for ell in (1, 2, 3))\n"
        "    ks = {ell: crude_sup_bounds(sigmas, ell) for ell in (1, 2)}\n"
        "    return [sv.value for sv in weighted_seminorms(elem.factors, fw.factors, 0)]\n"
        "def runner(elem, fw):\n"
        "    return max(weighted_seminorm(elem[i], fw.factors[i], 0).value\n"
        "               for i in range(len(elem)))\n"
        "def per_weight(result, weights):\n"
        "    for w in weights:\n"
        "        lhs = weighted_seminorm(result, w, 0).value\n"
        "    return lhs\n"
    )
    assert per_object_calls(source, "crude_sup_bound") == [6, 7, 8, 12]
    assert per_object_calls(source, "weighted_seminorm") == [19, 23]


def test_detector_flags_per_tensor_norms_and_per_point_tensors():
    source = (
        "def sup_b(bilinears):\n"
        "    return max(op_norm(MultilinearMap(b, 1)) for b in bilinears)\n"
        "def normalize(factors, rng):\n"
        "    for fs in factors:\n"
        "        raw = rng.uniform(size=(2, 2, 2))\n"
        "        yield raw / jets.op_norm(MultilinearMap(raw, 1))\n"
        "def partial(xi, point, ell):\n"
        "    return xi.tensor(point, ell)\n"
        "def curve(xi, x, h1):\n"
        "    fd = [partial(xi, x + t * h1, 1) for t in (1e-5, -1e-5)]\n"
        "    for p in (x, -x):\n"
        "        lhs = op_norm(xi.tensor(p, 1))\n"
        "    return fd, lhs\n"
        "def fine(xi, x, pts, bilinears, maps):\n"
        "    one = op_norm(xi.tensor(x, 1))\n"
        "    stack = op_norms(xi.tensors(pts, 1))\n"
        "    sup_b = op_norms_of([MultilinearMap(b, 1) for b in bilinears])\n"
        "    values = [m.tensor(x, 0) for m in maps]\n"
        "    return one, stack, sup_b, values\n"
    )
    assert per_object_calls(source, "op_norm") == [2, 6, 12]
    assert per_object_calls(source, ".tensor") == [10, 12]


def test_detector_ignores_unrelated_calls():
    source = "for m in maps:\n    print(m)\n    crude_sup_bounds([m], 0)\n"
    assert per_object_calls(source, "crude_sup_bound") == []
