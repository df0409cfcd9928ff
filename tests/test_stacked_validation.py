"""Jet validation evaluates its polynomials in one kernel pass per stack
and order.

``validate_jet_maps`` stacks a scenario's maps by (dimension, compared
orders, out shape).  The maps of a stack that are polynomials, or
multiples of one (``scaled`` over ``poly``), are evaluated by one
``_poly_tensors`` call per order: the coded tensors at the probes and the
values at the leading stencils inside.  The stacked arrays must hold
exactly what each map's own ``tensors`` gives at the same points, nested
multiples and non-finite entries included, no map may cache what
validation evaluated, and a stack of top order 2 makes three kernel calls.
"""

import json
import os

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
    """The maps ``validate_scenario`` validates, in its order."""
    return ([wf.map for key in ELEMENT_GRIDS for wf in getattr(sc, key).factors]
            + [op.xi for op in sc.xis] + list(sc.sigmas))


def _leaf(map_) -> PolynomialMap:
    while isinstance(map_, ScaledMap):
        map_ = map_.base
    return map_


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _recorded_stacks(monkeypatch) -> list:
    """Every ``_FdStack`` that ``validate_jet_maps`` builds from now on."""
    stacks = []

    class Recorded(jets._FdStack):
        def __init__(self, *args):
            super().__init__(*args)
            stacks.append(self)

    monkeypatch.setattr(jets, "_FdStack", Recorded)
    return stacks


def _extra_maps() -> list:
    """Nested multiples of a polynomial, and a polynomial whose coded
    order-1 and order-2 entries overflow to inf (and NaN, where a zero
    coefficient meets the infinite power)."""
    dom = box([-1.0], [1.0])
    pm = PolynomialMap(dom, [([0.5, -1.5], (1,)), ([2.0, 0.25], (3,))])
    huge = PolynomialMap(box([-64.0], [64.0]), [([1e308, 1.0], (1,)), ([1e308, 0.0], (300,))])
    return [ScaledMap(ScaledMap(pm, 0.5), -3.0), ScaledMap(pm, 1e-3), huge,
            ScaledMap(ScaledMap(ScaledMap(huge, 2.0), -1.0), 0.75)]


@pytest.mark.parametrize("source", SOURCES)
def test_stacked_arrays_hold_the_per_map_tensors(source, monkeypatch):
    sc = scenario_from_dict(_doc(source))
    maps = _validated_maps(sc) + _extra_maps()
    stacks = _recorded_stacks(monkeypatch)
    with pytest.raises(jets.PreconditionError), np.errstate(over="ignore", invalid="ignore"):
        # the overflowing map fails its comparison; every map is evaluated
        jets.validate_jet_maps(maps, np.random.default_rng(0))
    assert sum(len(s.jobs) for s in stacks) == len(maps)
    non_finite = nan = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for stack in stacks:
            # every map here is a scaled polynomial, so no map's tensors ran
            assert [g for g, _, _ in stack.polys] == list(range(len(stack.jobs)))
            for g, (k, map_, probes) in enumerate(stack.jobs):
                for ell, exact in enumerate(stack.exact, 1):
                    assert _same_bits(exact[g], map_.tensors(probes, ell)), (source, k, ell)
                    non_finite += int(not np.isfinite(exact[g]).all())
                    nan += int(np.isnan(exact[g]).any())
                n_in = stack.n_in[g]
                want = map_.tensors(stack.stencil[g, :n_in].reshape(-1, stack.m), 0)
                assert _same_bits(stack.vals[g, :n_in],
                                  want.reshape(stack.vals[g, :n_in].shape)), (source, k)
                # stencils from the first one that leaves the domain on are not evaluated
                assert not stack.vals[g, n_in:].any()
    assert non_finite >= 4 and nan >= 2


@pytest.mark.parametrize("source", SOURCES)
def test_validation_caches_no_tensors(source):
    sc = scenario_from_dict(_doc(source))
    leaves = [_leaf(m) for m in _validated_maps(sc)]
    assert leaves and all(type(pm) is PolynomialMap for pm in leaves)
    assert all(not pm._tensors_cache for pm in leaves)


def test_three_kernel_calls_per_stack_on_seed_zero(monkeypatch):
    sc = generate_scenario(0)
    maps = _validated_maps(sc)
    kernel, calls = jets._poly_tensors, []
    monkeypatch.setattr(jets, "_poly_tensors",
                        lambda polys, ell: calls.append((len(polys), ell)) or kernel(polys, ell))
    stacks = _recorded_stacks(monkeypatch)
    jets.validate_jet_maps(maps, np.random.default_rng(0))
    assert len(stacks) >= 2 and all(s.top == 2 for s in stacks)
    want = []
    for s in stacks:
        want += [(len(s.jobs), 1), (len(s.jobs), 2), (int((s.n_in > 0).sum()), 0)]
    assert calls == want
    assert len(calls) == 3 * len(stacks) and len(calls) * 10 < 3 * len(maps)


def test_a_map_of_another_class_keeps_its_own_tensors_calls(monkeypatch):
    """A subclass that overrides ``tensors`` is evaluated by its own
    ``tensors`` inside the stack, next to the stacked polynomials."""
    seen = []

    class Counted(PolynomialMap):
        def tensors(self, points, ell):
            seen.append(ell)
            return super().tensors(points, ell)

    dom = box([-1.0], [1.0])
    terms = [([1.0], (2,)), ([-0.5], (3,))]
    maps = [PolynomialMap(dom, terms), Counted(dom, terms), ScaledMap(Counted(dom, terms), 2.0)]
    stacks = _recorded_stacks(monkeypatch)
    jets.validate_jet_maps(maps, np.random.default_rng(3))
    (stack,) = stacks
    assert [g for g, _, _ in stack.polys] == [0] and stack.others == [1, 2]
    assert seen == [1, 2, 0, 1, 2, 0]
    for g in range(3):
        assert _same_bits(stack.exact[1][g], maps[g].tensors(stack.probes[g], 2))
