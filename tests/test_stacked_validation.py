"""The ingest bound pass evaluates its polynomials in ragged groups.

``validate_scenario`` bounds every map of a file at orders 0..2 by one
``_entry_bounds`` call, which runs the polynomial kernel ``_poly_tensors``
once per order.  The kernel evaluates the polynomials of a stack that
share a number of axes, an output width and a number of points as one
group, whatever their power tables.  Its arrays must hold exactly the
entries of the one-point formula written out below, polynomial by
polynomial, at orders 0..3: on a stack of every polynomial of a scenario
(mixed power tables and widths, each at its own points) and on one stack
built to mix tables, widths, axes and point counts with overflowing,
zero and subnormal coefficients, overflowing and NaN entries included.
Ingest caches bounds and no tensors but the grid values of the gammas
and gamma_alts that ``superpose`` reads next, and the bound pass of a
file makes three kernel calls.
"""

import itertools
import json
import math
import os
import warnings

import numpy as np
import pytest

from wrp import jets
from wrp.jets import PolynomialMap, ScaledMap
from wrp.spaces import box
from wrp.verify import ELEMENT_GRIDS, generate_scenario, scenario_from_dict, scenario_to_dict

FIXTURE = os.path.join(os.path.dirname(__file__), "..", "fixtures", "scenario_seed0.json")
SOURCES = ["fixture", *range(10)]


def _doc(source) -> dict:
    if source == "fixture":
        with open(FIXTURE, encoding="utf-8") as fh:
            return json.load(fh)
    return json.loads(json.dumps(scenario_to_dict(generate_scenario(source))))


def _validated_maps(sc) -> list:
    """The maps ``validate_scenario`` bounds, in its order."""
    return ([wf.map for key in ELEMENT_GRIDS for wf in getattr(sc, key).factors]
            + [op.xi for op in sc.xis] + list(sc.sigmas))


def _leaf(map_) -> PolynomialMap:
    while isinstance(map_, ScaledMap):
        map_ = map_.base
    return map_


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _one_point(pm: PolynomialMap, x, ell: int) -> np.ndarray:
    """Oracle: the order-``ell`` entries ``(n,) + (m,)*ell`` of one
    polynomial at one point, in Python floats.  Per term and multi-index
    j* whose entry survives: the coefficient times ((the falling
    factorials' product times the power of axis 0) times the power of axis
    1 ...), each power a multiplication chain from 1.0, summed over terms
    in term order from 0.0."""
    m = pm.dim
    ent = [[0.0] * m**ell for _ in range(pm.out_dim)]
    for coef, powers in pm.terms:
        for f, jidx in enumerate(itertools.product(range(m), repeat=ell)):
            beta = [jidx.count(a) for a in range(m)]
            if any(b > p for b, p in zip(beta, powers)):
                continue
            scale = float(math.prod(p - k for p, b in zip(powers, beta) for k in range(b)))
            for a in range(m):
                power = 1.0
                for _ in range(powers[a] - beta[a]):
                    power *= float(x[a])
                scale *= power
            for o, c in enumerate(coef.tolist()):
                ent[o][f] += c * scale
    return np.array(ent).reshape((pm.out_dim,) + (m,) * ell)


def _kernel(polys, points, ell: int) -> list[np.ndarray]:
    """One kernel call over ``polys``, each at its points, with each
    polynomial's entries in the shape of ``tensors``."""
    ents = jets._poly_tensors([(jets._poly_table(pm._power_key, ell), pm._coefs, x)
                               for pm, x in zip(polys, points)], ell)
    return [ent.reshape((len(x), pm.out_dim) + (pm.dim,) * ell)
            for pm, x, ent in zip(polys, points, ents)]


def _huge() -> list[PolynomialMap]:
    """Polynomials whose entries overflow to inf, and to NaN where a zero
    coefficient meets the infinite power."""
    return [PolynomialMap(box([-64.0], [64.0]), [([1e308, 1.0], (1,)), ([1e308, 0.0], (300,))]),
            PolynomialMap(box([-2.0, -2.0], [2.0, 2.0]),
                          [([1e300], (0, 1)), ([0.0], (0, 1100)), ([-1e300], (1, 0))])]


@pytest.mark.parametrize("source", SOURCES)
def test_stacked_arrays_hold_the_per_map_tensors(source):
    sc = scenario_from_dict(_doc(source))
    polys = list({id(pm): pm for pm in map(_leaf, _validated_maps(sc))}.values()) + _huge()
    # groups of one and of many, and polynomials of one table at different numbers of points
    tables = [pm._power_key for pm in polys]
    assert len(set(tables)) < len(polys) and len({pm.dim for pm in polys}) > 1
    rng = np.random.default_rng(7)
    points = []
    for g, pm in enumerate(polys):
        lo, hi = pm.domain.bounding_box()
        points.append(rng.uniform(lo, hi, size=(1 + g % 3, pm.dim)))
    non_finite = nan = 0
    for ell in range(4):
        ents = _kernel(polys, points, ell)
        for g, (pm, x, ent) in enumerate(zip(polys, points, ents)):
            want = np.array([_one_point(pm, p, ell) for p in x])
            assert _same_bits(ent, want), (source, g, ell)
            non_finite += int(not np.isfinite(ent).all())
            nan += int(np.isnan(ent).any())
    assert non_finite >= 4 and nan >= 2


def _ragged_stack() -> tuple[list[PolynomialMap], list[np.ndarray]]:
    """Polynomials of several power tables at one number of axes, output
    width and number of points (so one group), of widths 1 and 3, of one
    and two axes and at 1 to 4 points, some polynomials twice at other
    point counts; with coefficients that overflow, are zero or signed
    zero or subnormal, and three terms per polynomial that cancel at
    x = 1 only when added in term order."""
    tiny = 5e-324
    one, two = box([-40.0], [40.0]), box([-30.0, -2.0], [30.0, 2.0])
    polys = [
        PolynomialMap(one, [([1.0, tiny], (3,)), ([1e16, 0.0], (3,)),
                            ([-1e16, -0.0], (3,)), ([0.5, 2.0], (1,))]),
        PolynomialMap(one, [([1e308, 0.0], (250,)), ([2.0, -1.0], (0,))]),
        PolynomialMap(one, [([tiny, -tiny], (2,)), ([3.0, 1.0], (5,))]),
        PolynomialMap(one, [([0.0], (4,)), ([-2.5], (2,)), ([1e-310], (1,))]),
        PolynomialMap(two, [([1.0], (2, 1)), ([1e16], (3, 0)), ([-1e16], (3, 0)),
                            ([tiny], (1, 1))]),
        PolynomialMap(two, [([1e300], (300, 0)), ([0.0], (220, 1)), ([-0.0], (1, 1))]),
        PolynomialMap(two, [([1.0, -2.0, tiny], (1, 2)), ([0.0, 1e308, 3.0], (3, 0)),
                            ([2.0, 2.0, 2.0], (0, 0))]),
        PolynomialMap(two, [([0.5, 0.25, -0.125], (2, 2))]),
    ]
    xs1 = np.array([[1.0], [35.0], [-0.0], [2.5e-3]])
    xs2 = np.array([[1.0, 1.0], [29.0, -1.5], [-0.0, 0.0], [0.5, tiny]])
    picks = [(0, xs1[:3]), (1, xs1[:3]), (2, xs1[:3]), (0, xs1[:1]), (3, xs1[:3]),
             (3, xs1[:2]), (4, xs2[:2]), (5, xs2[:2]), (6, xs2[:2]), (7, xs2[:2]),
             (6, xs2), (4, xs2[:1])]
    return [polys[g] for g, _ in picks], [x for _, x in picks]


@pytest.mark.parametrize("ell", range(4))
def test_one_ragged_kernel_call_holds_the_per_map_tensors(ell):
    polys, points = _ragged_stack()
    groups: dict[tuple, set] = {}
    for pm, x in zip(polys, points):
        groups.setdefault((pm.dim, pm.out_dim, len(x)), set()).add(pm._power_key)
    assert len(groups) < len(polys) and max(map(len, groups.values())) >= 3
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        ents = _kernel(polys, points, ell)
    non_finite = nan = 0
    for g, (pm, x, ent) in enumerate(zip(polys, points, ents)):
        want = np.array([_one_point(pm, p, ell) for p in x])
        assert _same_bits(ent, want), (g, ell)
        non_finite += int(not np.isfinite(ent).all())
        nan += int(np.isnan(ent).any())
    assert non_finite >= 2 and nan >= 1


@pytest.mark.parametrize("source", SOURCES)
def test_validation_caches_no_tensors(source):
    sc = scenario_from_dict(_doc(source))
    leaves = [_leaf(m) for m in _validated_maps(sc)]
    assert leaves and all(type(pm) is PolynomialMap for pm in leaves)
    read = {id(_leaf(wf.map)): wf.grid.points
            for key in ("gammas", "gamma_alts") for wf in getattr(sc, key).factors}
    for pm in leaves:
        assert sorted(pm._bounds_cache) == [0, 1, 2]
        if id(pm) in read:
            # the values on the U grid that superpose reads again: a hit
            (key,) = pm._tensors_cache
            assert pm.tensors(read[id(pm)], 0) is pm._tensors_cache[key]
        else:
            assert not pm._tensors_cache


def test_three_kernel_calls_per_stack_on_seed_zero(monkeypatch):
    doc = _doc(0)
    kernel, calls = jets._poly_tensors, []
    monkeypatch.setattr(jets, "_poly_tensors",
                        lambda polys, ell: calls.append((polys, ell)) or kernel(polys, ell))
    sc = scenario_from_dict(doc)
    leaves = {id(pm): pm for pm in map(_leaf, _validated_maps(sc))}
    # one call per order with every polynomial of the file, then one
    # value read per factor's gammas and one per its gamma_alts
    assert [(len(polys), ell) for polys, ell in calls] == (
        [(len(leaves), ell) for ell in range(3)] + [(1, 0)] * 2 * sc.n_factors)
    groups = {(x.shape[1], coef.shape[1], len(x)) for _, coef, x in calls[0][0]}
    assert len(groups) * 3 < len(leaves)


def test_a_map_of_another_class_keeps_its_own_tensors_calls():
    """The jet reference check evaluates a map by its own ``tensors``: a
    subclass that overrides it is called at the probes at orders 1 and 2,
    then at the stencils at order 0, also under a multiple."""
    seen = []

    class Counted(PolynomialMap):
        def tensors(self, points, ell):
            seen.append(ell)
            return super().tensors(points, ell)

    dom = box([-1.0], [1.0])
    terms = [([1.0], (2,)), ([-0.5], (3,))]
    for map_ in (PolynomialMap(dom, terms), Counted(dom, terms),
                 ScaledMap(Counted(dom, terms), 2.0)):
        jets.validate_jet_map(map_, np.random.default_rng(3))
    assert seen == [1, 2, 0, 1, 2, 0]
