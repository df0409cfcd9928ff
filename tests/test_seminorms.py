import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wrp.errors import DataError, OrderError, PreconditionError, ShapeError
from wrp.jets import PairMap, PolynomialMap, TrigPolynomialMap, ConstMap
from wrp.seminorms import (
    WeightedFunction,
    decomposition_check,
    lattice,
    norm_comparison_1U,
    pair_split,
    pair_split_check,
    refine,
    seminorm_axioms_check,
    weighted_seminorm,
)
from wrp.spaces import Weight, ball, box, const_weight, gaussian_weight

ONE = const_weight("one", 1.0)


def wf_poly(terms, dom=None, spacing=0.1, order=3):
    dom = dom or box([-1.0], [1.0])
    return WeightedFunction(PolynomialMap(dom, terms), lattice(dom, spacing=spacing), order)


class _PokedPoly(PolynomialMap):
    """x with every tensor entry at one point replaced by ``poke``."""

    def __init__(self, dom, at, poke):
        super().__init__(dom, [([1.0], (1,))])
        self.at, self.poke = at, poke

    def tensors(self, points, ell):
        t = super().tensors(points, ell).copy()  # a cached result is read-only
        t[(points == self.at).all(axis=1)] = self.poke
        return t


class TestGrids:
    def test_spacing_lattice_is_interior(self):
        g = lattice(box([-1.0], [1.0]), spacing=0.1)
        assert len(g) == 19
        assert g.points.min() == pytest.approx(-0.9)
        assert g.points.max() == pytest.approx(0.9)

    def test_per_axis_default(self):
        g = lattice(box([-1.0], [1.0]))
        assert len(g) == 11

    def test_ball_filtering(self):
        g = lattice(ball([0.0, 0.0], 1.0, norm_kind="euclidean"), per_axis=9)
        assert all(np.linalg.norm(p) < 1.0 for p in g.points)

    def test_refinement_is_pointwise_superset(self):
        g = lattice(box([-1.0, -1.0], [1.0, 1.0]), per_axis=5)
        r = refine(g)
        old = {tuple(p) for p in g.points}
        new = {tuple(p) for p in r.points}
        assert old <= new
        assert len(new) > len(old)

    def test_pinned_points_kept(self):
        g = lattice(box([-1.0], [1.0]), per_axis=5, pinned=[[0.123]])
        assert any(p[0] == 0.123 for p in g.points)
        r = refine(g)
        assert any(p[0] == 0.123 for p in r.points)


class TestWeightedSeminorm:
    def test_zero_map(self):
        wf = WeightedFunction(
            ConstMap(box([-1.0], [1.0]), [0.0]), lattice(box([-1.0], [1.0])), 2
        )
        for ell in range(3):
            assert weighted_seminorm(wf, ONE, ell).value == 0.0

    def test_identity_on_grid(self):
        wf = wf_poly([([1.0], (1,))])
        sv = weighted_seminorm(wf, ONE, 0)
        assert sv.value == pytest.approx(0.9)
        assert abs(sv.witness[0]) == pytest.approx(0.9)
        assert sv.kind == "grid_lower"
        assert weighted_seminorm(wf, ONE, 1).value == pytest.approx(1.0)

    def test_order_guard(self):
        wf = wf_poly([([1.0], (1,))], order=1)
        with pytest.raises(OrderError):
            weighted_seminorm(wf, ONE, 2)

    def test_infinite_weight_rules(self):
        dom = box([-1.0], [1.0])
        inf_w = Weight("inf", lambda x: math.inf)
        zero = WeightedFunction(ConstMap(dom, [0.0]), lattice(dom), 1)
        assert weighted_seminorm(zero, inf_w, 0).value == 0.0
        nonzero = wf_poly([([1.0], (0,))])
        assert weighted_seminorm(nonzero, inf_w, 0).value == math.inf

    def test_nan_tensor_names_grid_point(self):
        # NaN > best is False, so a NaN point must raise, not drop out of
        # the sup and leave a grid value that is too low
        dom = box([-1.0], [1.0])
        grid = lattice(dom, per_axis=5)
        bad = grid.points[3]
        wf = WeightedFunction(_PokedPoly(dom, bad, math.nan), grid, 2)
        for ell in (0, 1, 2):
            with pytest.raises(DataError, match=re.escape(str(bad.tolist()))):
                weighted_seminorm(wf, ONE, ell)

    def test_nan_weight_after_an_infinite_product_raises(self):
        # the weight is evaluated on the whole grid before the sup is
        # taken, so an infinite product earlier does not hide a later NaN
        dom = box([-1.0], [1.0])
        grid = lattice(dom, per_axis=5)
        w = Weight("w", lambda x: math.inf if x[0] < -0.5 else
                   (math.nan if x[0] > 0.5 else 1.0))
        wf = wf_poly([([1.0], (0,))])
        with pytest.raises(DataError, match=re.escape(str(grid.points[-1].tolist()))):
            weighted_seminorm(WeightedFunction(wf.map, grid, 0), w, 0)

    def test_first_max_is_the_witness(self):
        dom = box([-1.0], [1.0])
        grid = lattice(dom, per_axis=5)
        wf = WeightedFunction(PolynomialMap(dom, [([1.0], (2,))]), grid, 0)
        sv = weighted_seminorm(wf, ONE, 0)
        # x^2 peaks at both ends of the symmetric grid; the first end wins
        assert sv.witness == tuple(grid.points[0].tolist())
        assert sv.value == grid.points[0, 0] ** 2

    def test_infinite_norm_rules(self):
        # an infinite tensor norm forces +inf unless the weight vanishes
        dom = box([-1.0], [1.0])
        grid = lattice(dom, per_axis=5)
        wf = WeightedFunction(_PokedPoly(dom, grid.points[3], math.inf), grid, 0)
        assert weighted_seminorm(wf, ONE, 0).value == math.inf
        assert weighted_seminorm(wf, Weight("zero", lambda x: 0.0), 0).value == 0.0

    def test_monotone_under_refinement(self):
        wf = wf_poly([([1.0], (3,)), ([-0.4], (1,))], spacing=0.25)
        v0 = weighted_seminorm(wf, ONE, 0).value
        finer = WeightedFunction(wf.map, refine(wf.grid), wf.max_order)
        v1 = weighted_seminorm(finer, ONE, 0).value
        assert v1 >= v0

    def test_monotone_in_weight(self):
        dom = box([-1.0], [1.0])
        wf = wf_poly([([1.0], (2,))])
        small = gaussian_weight("f", 1.0, dom)
        large = const_weight("g", 1.0)  # e^{-x^2} <= 1 pointwise
        assert (
            weighted_seminorm(wf, small, 0).value
            <= weighted_seminorm(wf, large, 0).value
        )

    @given(st.integers(0, 10**6))
    @settings(max_examples=15, deadline=None)
    def test_axioms_random_pairs(self, key):
        r = np.random.default_rng(key)
        dom = box([-1.0], [1.0])
        grid = lattice(dom, per_axis=7)
        a = WeightedFunction(
            PolynomialMap(dom, [(r.normal(size=1), (2,)), (r.normal(size=1), (1,))]),
            grid, 2,
        )
        b = WeightedFunction(
            PolynomialMap(dom, [(r.normal(size=1), (3,))]), grid, 2
        )
        rep = seminorm_axioms_check(a, b, ONE, 1)
        assert rep.status == "pass"


class TestDecomposition:
    def test_linear_map(self):
        wf = wf_poly([([2.0], (1,))])
        rep = decomposition_check(wf, ONE, 0)
        assert rep.status == "pass" and rep.lhs == 0.0

    def test_cubic_matches_symbolic(self):
        # |x^3|_{1,1} = grid max of |3x^2| = |D(x^3)|_{1,0}
        wf = wf_poly([([1.0], (3,))])
        rep = decomposition_check(wf, ONE, 0)
        assert rep.status == "pass"
        lhs = weighted_seminorm(wf, ONE, 1).value
        assert lhs == pytest.approx(3 * 0.9**2)

    def test_2d_vector_valued_with_gaussian_weight(self):
        dom = box([-1.0, -1.0], [1.0, 1.0])
        pm = PolynomialMap(
            dom, [(np.array([1.0, 0.0]), (1, 1)), (np.array([0.0, 1.0]), (2, 0))]
        )
        wf = WeightedFunction(pm, lattice(dom, per_axis=7), 3)
        w = gaussian_weight("f", 1.0, dom)
        for ell in (0, 1):
            rep = decomposition_check(wf, w, ell)
            assert rep.status == "pass"
            assert rep.lhs <= 1e-12

    def test_exact_equality_on_builtins(self):
        # equality is bit-exact, not merely within tolerance
        maps = [
            wf_poly([([1.0], (3,)), ([0.5], (2,))]),
            WeightedFunction(
                TrigPolynomialMap(box([-1.0], [1.0]), [([1.0], [1.5], 0.3)]),
                lattice(box([-1.0], [1.0])),
                3,
            ),
        ]
        for wf in maps:
            for ell in (0, 1):
                lhs = weighted_seminorm(wf, ONE, ell + 1).value
                rhs = weighted_seminorm(wf.differential(), ONE, ell).value
                assert lhs == rhs

    def test_order_headroom_guard(self):
        wf = wf_poly([([1.0], (2,))], order=1)
        with pytest.raises(OrderError):
            decomposition_check(wf, ONE, 1)

    def test_infinite_sides_hold_the_identity(self):
        # both sides are inf where the weight is: inf - inf is no deviation
        dom = box([-1.0], [1.0])
        wf = WeightedFunction(PolynomialMap(dom, [([1.0], (2,))]), lattice(dom, per_axis=5), 2)
        w = Weight("w", lambda x: math.inf if x[0] > 0.6 else 1.0)
        rep = decomposition_check(wf, w, 0)
        assert (rep.status, rep.lhs) == ("pass", 0.0)
        assert weighted_seminorm(wf, w, 1).value == math.inf
        axioms = seminorm_axioms_check(wf, wf, w, 1)
        assert axioms.status == "pass" and axioms.lhs == 0.0  # homogeneity: inf vs 1.7 inf


class TestPairSplit:
    def _paired(self):
        dom = box([-1.0], [1.0])
        pm = PairMap(
            [
                PolynomialMap(dom, [([1.0], (1,))]),
                PolynomialMap(dom, [([1.0], (2,))]),
            ]
        )
        return WeightedFunction(pm, lattice(dom, spacing=0.1), 2)

    def test_component_seminorms(self):
        wf = self._paired()
        a, b = pair_split(wf)
        assert weighted_seminorm(a, ONE, 0).value == pytest.approx(0.9)
        assert weighted_seminorm(b, ONE, 0).value == pytest.approx(0.81)
        whole = weighted_seminorm(wf, ONE, 0).value
        assert whole == max(
            weighted_seminorm(a, ONE, 0).value, weighted_seminorm(b, ONE, 0).value
        )

    def test_zero_component(self):
        dom = box([-1.0], [1.0])
        pm = PairMap(
            [ConstMap(dom, [0.0]), PolynomialMap(dom, [([1.0], (2,))])]
        )
        wf = WeightedFunction(pm, lattice(dom), 2)
        a, _ = pair_split(wf)
        assert weighted_seminorm(a, ONE, 1).value == 0.0

    def test_roundtrip_check(self):
        rep = pair_split_check(self._paired(), ONE, 1)
        assert rep.status == "pass"

    def test_roundtrip_check_fails_when_the_bits_move(self, drifting):
        wf = self._paired()
        wf = WeightedFunction(drifting(wf.map), wf.grid, wf.max_order)
        rep = pair_split_check(wf, ONE, 1)
        assert rep.check_id == "lem:gewichtete_Abb_Produktisomorphie-endl"
        assert rep.status == "fail" and rep.lhs == math.inf
        assert rep.detail == "recombination is not bit-exact"

    def test_undeclared_product_rejected(self):
        wf = wf_poly([([1.0], (1,))])
        with pytest.raises(ShapeError):
            pair_split(wf)


class TestNormComparison:
    def test_equal_maps_zero_margins(self):
        wf = wf_poly([([1.0], (1,))])
        w = const_weight("f", 2.0)
        reports = norm_comparison_1U(wf, wf, w, 1.0)
        assert all(r.status == "pass" for r in reports)

    def test_constant_two_weight(self):
        # f = 2, d = 1: aggregate bound min(1,1) |.|_{f,0}; pointwise /2
        phi = wf_poly([([1.0], (1,))])
        psi = wf_poly([([0.0], (1,))])
        w = const_weight("f", 2.0)
        pointwise, aggregate = norm_comparison_1U(phi, psi, w, 1.0)
        assert aggregate.status == "pass"
        # oracle: |x| on the grid peaks at 0.9, f-weighted at 1.8
        assert aggregate.lhs == pytest.approx(0.9)
        assert aggregate.rhs == pytest.approx(1.8)
        assert pointwise.status == "pass"

    def test_nonconstant_weight_margins(self):
        dom = box([-1.0], [1.0])
        phi = wf_poly([([1.0], (1,))])
        psi = wf_poly([([0.0], (1,))])
        w = Weight(
            "f", lambda x: 2.0 + float(x[0]) ** 2, certified_sup=3.0, certified_inf=2.0
        )
        pointwise, aggregate = norm_comparison_1U(phi, psi, w, 1.0)
        assert pointwise.status == "pass" and aggregate.status == "pass"
        # aggregate oracle over the grid
        xs = phi.grid.points.ravel()
        fnorm = max((2 + x * x) * abs(x) for x in xs)
        assert aggregate.rhs == pytest.approx(min(1.0, 1.0) * fnorm)

    def test_pointwise_fails_where_an_infinite_weight_meets_a_gap(self):
        # |phi - psi| = |x| > 0 where f = inf makes the f-norm infinite, and
        # the pointwise bound inf / inf there is no bound: those rows fail,
        # and the first of them (x = 0.4) is the witness
        phi = wf_poly([([1.0], (1,))])
        psi = wf_poly([([0.0], (1,))])
        w = Weight("f", lambda x: math.inf if x[0] > 0.35 else 2.0,
                   certified_inf=2.0)
        pointwise, aggregate = norm_comparison_1U(phi, psi, w, 1.0)
        assert pointwise.status == "fail"
        assert pointwise.witness == (phi.grid.points[phi.grid.points[:, 0] > 0.35][0, 0],)
        assert pointwise.witness[0] == pytest.approx(0.4)
        assert math.isnan(pointwise.rhs) and pointwise.lhs == pointwise.witness[0]
        assert aggregate.status == "pass" and aggregate.rhs == math.inf

    def test_threshold_precondition(self):
        wf = wf_poly([([1.0], (1,))])
        w = const_weight("f", 0.5)  # inf cert 0.5 < max(1/d, 1) for d = 1
        with pytest.raises(PreconditionError):
            norm_comparison_1U(wf, wf, w, 1.0)
