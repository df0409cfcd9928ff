import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wrp.errors import (
    DataError,
    DomainMembershipError,
    EnumerationBudgetError,
    OrderError,
    PreconditionError,
    ShapeError,
    UnsupportedNormError,
)
from wrp.jets import (
    AffineMap,
    AsymmetryWarning,
    ComposeMap,
    ConstMap,
    MultilinearMap,
    MultilinearPairMap,
    PairMap,
    PartialD2Map,
    PolynomialMap,
    ScaledMap,
    SumMap,
    TrigPolynomialMap,
    compose_tensor,
    contract_last,
    crude_partial2_sup,
    crude_sup_bound,
    curry_last,
    fd_tensors,
    linear2_identities_check,
    map_from_desc,
    map_to_desc,
    op_norm,
    opnorms_inf,
    set_partitions,
    symmetrize,
    uncurry_last,
    validate_jet_map,
    xi2_build,
    xi2_pointwise_check,
)
from wrp.spaces import box, product_box


def brute_force_norm(entries, n_random=200, seed=0):
    """Independent oracle: explicit maximization over all sign-vertex
    argument tuples plus random ball samples, with plain loops."""
    rng = np.random.default_rng(seed)
    entries = np.asarray(entries, float)
    order = entries.ndim - 1
    dims = entries.shape[1:]
    if order == 0:
        return float(np.max(np.abs(entries)))

    def apply_args(args):
        v = entries
        for a in args:
            v = np.tensordot(v, a, axes=(1, 0))
        return float(np.max(np.abs(v)))

    best = 0.0
    vertex_lists = [
        [np.array(s, float) for s in itertools.product((1.0, -1.0), repeat=d)]
        for d in dims
    ]
    for combo in itertools.product(*vertex_lists):
        best = max(best, apply_args(combo))
    for _ in range(n_random):
        args = [rng.uniform(-1, 1, size=d) for d in dims]
        best = max(best, apply_args(args))
    return best


class TestOpNorm:
    def test_identity(self):
        for d in (1, 2, 3):
            assert op_norm(MultilinearMap(np.eye(d), 1)) == 1.0

    def test_max_row_sum(self):
        assert op_norm(MultilinearMap(np.array([[1.0, 2.0], [3.0, 4.0]]), 1)) == 7.0

    def test_bilinear_below_entry_sum(self):
        b = MultilinearMap(np.array([[[1.0, -1.0], [1.0, 1.0]]]), 1)
        assert op_norm(b) == 2.0  # strictly below the entry sum 4

    def test_matches_brute_force(self, rng):
        for _ in range(25):
            order = int(rng.integers(1, 4))
            m = int(rng.integers(1, 4))
            n = int(rng.integers(1, 3))
            t = MultilinearMap(rng.normal(size=(n,) + (m,) * order), 1)
            assert op_norm(t) == pytest.approx(
                brute_force_norm(t.entries), abs=1e-12
            )

    def test_budget(self):
        t = MultilinearMap(np.zeros((1,) + (3,) * 6), 1)
        with pytest.raises(EnumerationBudgetError):
            op_norm(t)

    def test_euclidean(self):
        a = np.array([[3.0, 0.0], [0.0, 4.0]])
        assert op_norm(MultilinearMap(a, 1), "euclidean") == pytest.approx(4.0)
        assert op_norm(MultilinearMap(np.array([3.0, 4.0]), 1), "euclidean") == 5.0
        with pytest.raises(UnsupportedNormError):
            op_norm(MultilinearMap(np.zeros((1, 2, 2)), 1), "euclidean")

    def test_zero_order(self):
        assert op_norm(MultilinearMap(np.array([1.0, -2.0]), 1)) == 2.0

    def test_nan_entry_raises(self):
        # max(0.0, nan) is 0.0: a NaN entry must not vanish from the sup
        with pytest.raises(DataError, match=r"\(0, 0\)"):
            op_norm(MultilinearMap(np.array([[np.nan, 1.0]]), 1))
        with pytest.raises(DataError):
            op_norm(MultilinearMap(np.array([1.0, np.nan]), 1))

    @given(st.floats(min_value=-3, max_value=3), st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_homogeneity(self, alpha, key):
        r = np.random.default_rng(key)
        t = r.normal(size=(2, 2, 2))
        lhs = op_norm(MultilinearMap(alpha * t, 1))
        rhs = abs(alpha) * op_norm(MultilinearMap(t, 1))
        assert lhs == pytest.approx(rhs, abs=1e-12)

    @given(st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_triangle(self, key):
        r = np.random.default_rng(key)
        a, b = r.normal(size=(2, 2, 2, 2))
        assert op_norm(MultilinearMap(a + b, 1)) <= op_norm(
            MultilinearMap(a, 1)
        ) + op_norm(MultilinearMap(b, 1)) + 1e-12

    @given(st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_bounds_applications(self, key):
        r = np.random.default_rng(key)
        t = MultilinearMap(r.normal(size=(2, 3, 3)), 1)
        norm = op_norm(t)
        for _ in range(5):
            args = [r.uniform(-1, 1, size=3) for _ in range(2)]
            val = float(np.max(np.abs(t.apply(*args))))
            prod = np.prod([np.max(np.abs(a)) for a in args])
            assert val <= norm * prod + 1e-12


class TestCurry:
    def test_roundtrip_bit_exact(self, rng):
        t = MultilinearMap(rng.normal(size=(2, 3, 3, 3)), 1)
        back = uncurry_last(curry_last(t))
        assert np.array_equal(back.entries, t.entries)
        assert back.out_rank == 1

    def test_norm_invariant(self, rng):
        for _ in range(10):
            t = MultilinearMap(rng.normal(size=(2, 2, 2, 2)), 1)
            assert op_norm(curry_last(t)) == op_norm(t)

    def test_contraction_is_slice(self, rng):
        t = MultilinearMap(rng.normal(size=(1, 2, 2, 2)), 1)
        h = np.array([1.0, 0.0])  # basis vector: slice of entries
        c = contract_last(t, h)
        assert np.array_equal(c.entries, t.entries[..., 0])

    def test_shape_properties(self):
        t = MultilinearMap(np.zeros((2, 3, 4, 5)), 2)
        assert (t.out_shape, t.in_dims, t.order) == ((2, 3), (4, 5), 2)

    def test_contraction_over_an_empty_argument_is_zero(self):
        # the empty sum: no product is added
        t = MultilinearMap(np.ones((2, 3, 0)), 1)
        assert np.array_equal(contract_last(t, np.zeros(0)).entries, np.zeros((2, 3)))

    def test_symmetric_roundtrip(self, rng):
        raw = rng.normal(size=(1, 2, 2, 2))
        sym, _ = symmetrize(raw, 1)
        t = MultilinearMap(sym, 1)
        assert np.array_equal(uncurry_last(curry_last(t)).entries, sym)

    def test_order_zero_rejected(self):
        with pytest.raises(OrderError):
            curry_last(MultilinearMap(np.array([1.0]), 1))


class TestBuiltins:
    def test_polynomial_tensors_vs_finite_differences(self, rng):
        dom = box([-1.0, -1.0], [1.0, 1.0])
        pm = PolynomialMap(
            dom, [(np.array([0.5, -0.25]), (2, 1)), (np.array([1.0, 0.0]), (0, 3))]
        )
        validate_jet_map(pm, rng)

    def test_trig_tensors_vs_finite_differences(self, rng):
        dom = box([-2.0], [2.0])
        tm = TrigPolynomialMap(dom, [(np.array([0.7]), np.array([1.3]), 0.4)])
        validate_jet_map(tm, rng)

    def test_affine(self):
        dom = box([-1.0, -1.0], [1.0, 1.0])
        a = AffineMap(dom, [[1.0, 2.0], [0.0, 1.0]], [0.5, 0.0])
        x = np.array([0.2, -0.1])
        assert np.allclose(a.tensors(x[None], 0)[0], [0.5, -0.1])
        assert np.array_equal(a.tensor(x, 1).entries, a.a)
        assert np.all(a.tensor(x, 2).entries == 0)

    def test_descriptor_roundtrip(self):
        # the file format holds polynomials and their multiples only
        dom = box([-1.0], [1.0])
        poly = PolynomialMap(dom, [([1.0], (3,)), ([-0.5], (1,))])
        x = np.array([0.37])
        for m in (poly, ScaledMap(poly, -0.5), ScaledMap(ScaledMap(poly, 2.0), 0.25)):
            back = map_from_desc(map_to_desc(m), dom)
            for ell in range(3):
                assert np.array_equal(back.tensor(x, ell).entries, m.tensor(x, ell).entries)
        for m in (ConstMap(dom, [1.5]), AffineMap(dom, [[2.0]], [0.1]),
                  TrigPolynomialMap(dom, [([0.5], [2.0], 0.1)]), SumMap([poly, poly]),
                  PairMap([poly, poly])):
            with pytest.raises(ShapeError, match="carries no descriptor"):
                map_to_desc(m)

    def test_scaled_two_block_descriptor_keeps_in_blocks(self):
        # map_to_desc writes the in_blocks of a scaled map at the top level
        dom = box([-1.0, -2.0], [1.0, 2.0])
        poly = PolynomialMap(dom, [([1.0, 0.5], (1, 2)), ([-0.5, 2.0], (0, 1))],
                             in_blocks=(1, 1))
        pts = np.array([[0.37, -1.2], [-0.9, 0.4]])
        for m in (ScaledMap(poly, -0.5), ScaledMap(ScaledMap(poly, 2.0), 0.25)):
            desc = map_to_desc(m)
            back = map_from_desc(desc, dom)
            assert back.in_blocks == (1, 1) and map_to_desc(back) == desc
            for ell in range(3):
                assert back.tensors(pts, ell).tobytes() == m.tensors(pts, ell).tobytes()
            assert crude_partial2_sup(back) == crude_partial2_sup(m)


class TestFiniteDifferences:
    def test_linear_exact(self):
        dom = box([-1.0, -1.0], [1.0, 1.0])
        a = AffineMap(dom, [[1.0, -2.0], [3.0, 0.5]])
        fd = fd_tensors(a, np.array([[0.1, 0.2]]), 1)
        assert np.allclose(fd[1][0], a.a, atol=1e-9)

    def test_square_first_derivative(self):
        dom = box([-1.0], [1.0])
        pm = PolynomialMap(dom, [([1.0], (2,))])
        fd = fd_tensors(pm, np.array([[0.3]]), 1, h=1e-4)
        assert fd[1][0, 0, 0] == pytest.approx(0.6, abs=1e-7)

    def test_cube_second_derivative(self):
        dom = box([-2.0], [2.0])
        pm = PolynomialMap(dom, [([1.0], (3,))])
        fd = fd_tensors(pm, np.array([[1.0]]), 2, h=1e-3)
        assert fd[2][0, 0, 0, 0] == pytest.approx(6.0, abs=1e-5)

    def test_stencil_domain_guard(self):
        dom = box([-1.0], [1.0])
        pm = PolynomialMap(dom, [([1.0], (2,))])
        with pytest.raises(DomainMembershipError):
            fd_tensors(pm, np.array([[0.99999]]), 1, h=1e-3)

    def test_second_order_convergence(self):
        # halving h divides the error by about 4 on a smooth built-in
        dom = box([-2.0], [2.0])
        tm = TrigPolynomialMap(dom, [([1.0], [1.0], 0.0)])
        x = np.array([0.5])
        exact = tm.tensor(x, 1).entries
        errs = []
        hs = [4e-3, 2e-3, 1e-3, 5e-4]
        for h in hs:
            errs.append(
                float(np.max(np.abs(fd_tensors(tm, x[None], 1, h=h)[1][0] - exact)))
            )
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert 1.7 <= slope <= 2.3


class TestCompose:
    def test_asymmetric_chain_rule_tensor_warns(self):
        # a coded order-2 inner tensor that is not symmetric: the averaged
        # result is returned, with a warning naming the asymmetry
        skew = np.zeros((2, 2, 2))
        skew[0, 0, 1] = 1.0
        outer = [MultilinearMap(np.zeros(1), 1), MultilinearMap(np.ones((1, 2)), 1),
                 MultilinearMap(np.zeros((1, 2, 2)), 1)]
        inner = [MultilinearMap(np.zeros(2), 1), MultilinearMap(np.eye(2), 1),
                 MultilinearMap(skew, 1)]
        with pytest.warns(AsymmetryWarning, match=r"asymmetric by 5\.000e-01"):
            t = compose_tensor(outer, inner, 2)
        assert t.entries[0, 0, 1] == t.entries[0, 1, 0] == 0.5

    def test_chain_rule_matches_finite_differences(self, rng):
        u = box([-0.8, -0.8], [0.8, 0.8])
        w = box([-3.0, -3.0], [3.0, 3.0])
        inner = PolynomialMap(
            u, [(np.array([1.0, 0.0]), (1, 1)), (np.array([0.0, 0.5]), (2, 0))]
        )
        outer = TrigPolynomialMap(
            w, [(np.array([1.0, -0.5]), np.array([1.0, 0.7]), 0.2)]
        )
        comp = ComposeMap(outer, inner)
        validate_jet_map(comp, rng)

    def test_third_order_against_polynomial_expansion(self):
        # (x + 0.1)^3 composed from y^3 and x + 0.1; all orders exact
        u = box([-1.0], [1.0])
        w = box([-3.0], [3.0])
        cube = PolynomialMap(w, [([1.0], (3,))])
        shift = AffineMap(u, [[1.0]], [0.1])
        comp = ComposeMap(cube, shift)
        expanded = PolynomialMap(
            u,
            [
                ([1.0], (3,)),
                ([0.3], (2,)),
                ([0.03], (1,)),
                ([0.001], (0,)),
            ],
        )
        x = np.array([0.4])
        for ell in range(4):
            assert np.allclose(
                comp.tensor(x, ell).entries,
                expanded.tensor(x, ell).entries,
                atol=1e-13,
            )

    def test_order_three_mixed_partitions_exact(self):
        # F(u, v) = u v composed with G(x, y) = (x y, x^2) equals x^3 y;
        # order-3 tensors must match the direct polynomial exactly, which
        # exercises the mixed {2,1} partition placement
        dom = box([-1.0, -1.0], [1.0, 1.0])
        mid = box([-2.0, -2.0], [2.0, 2.0])
        inner = PolynomialMap(
            dom, [(np.array([1.0, 0.0]), (1, 1)), (np.array([0.0, 1.0]), (2, 0))]
        )
        outer = PolynomialMap(mid, [(np.array([1.0]), (1, 1))])
        comp = ComposeMap(outer, inner)
        direct = PolynomialMap(dom, [(np.array([1.0]), (3, 1))])
        x = np.array([0.7, -0.4])
        for ell in range(4):
            assert np.allclose(
                comp.tensor(x, ell).entries,
                direct.tensor(x, ell).entries,
                atol=1e-12,
            )

    def test_set_partitions_count(self):
        # Bell numbers 1, 1, 2, 5, 15
        for n, bell in ((0, 1), (1, 1), (2, 2), (3, 5), (4, 15)):
            assert len(list(set_partitions(n))) == bell


class TestDifferentialMap:
    def test_curry_equality(self, rng):
        dom = box([-1.0], [1.0])
        pm = PolynomialMap(dom, [([1.0], (3,)), ([-0.2], (1,))])
        d = pm.differential()
        x = np.array([0.3])
        assert op_norm(d.tensor(x, 1)) == op_norm(pm.tensor(x, 2))

    def test_nested(self):
        dom = box([-1.0], [1.0])
        pm = PolynomialMap(dom, [([1.0], (4,))])
        dd = pm.differential().differential()
        x = np.array([0.5])
        assert op_norm(dd.tensor(x, 0)) == op_norm(pm.tensor(x, 2))


class TestPairings:
    def test_bilinear_pair_leibniz(self, rng):
        dom = box([-0.9], [0.9])
        f = PolynomialMap(dom, [([1.0], (2,))])
        g = TrigPolynomialMap(dom, [([1.0], [1.0], 0.0)])
        b = np.array([[[1.0]]])
        prod = MultilinearPairMap(b, [f, g])  # x^2 sin x
        validate_jet_map(prod, rng)
        x = np.array([0.4])
        # D(x^2 sin x) = 2x sin x + x^2 cos x
        expect = 2 * 0.4 * math.sin(0.4) + 0.16 * math.cos(0.4)
        assert prod.tensor(x, 1).entries[0, 0] == pytest.approx(expect, abs=1e-13)

    def test_trilinear_pair_against_direct_product(self):
        # b(f, g, h) = f g h with f = x, g = x^2, h = x^3 equals x^6
        dom = box([-0.9], [0.9])
        maps = [PolynomialMap(dom, [([1.0], (k,))]) for k in (1, 2, 3)]
        b = np.ones((1, 1, 1, 1))
        ml = MultilinearPairMap(b, maps)
        direct = PolynomialMap(dom, [([1.0], (6,))])
        x = np.array([0.5])
        for ell in range(4):
            assert np.allclose(
                ml.tensor(x, ell).entries, direct.tensor(x, ell).entries, atol=1e-12
            )


class TestXi2:
    def _xy_kernel(self):
        u, v = box([-1.0], [1.0]), box([-1.0], [1.0])
        return PolynomialMap(
            product_box(u, v), [([1.0], (1, 1))], in_blocks=(1, 1)
        )

    def test_zero_e_gives_zero(self):
        xi2 = xi2_build(self._xy_kernel(), "evaluate", 1.0)
        assert xi2.tensors(np.array([[0.5, 0.2, 0.0]]), 0) == pytest.approx(0.0)

    def test_product_kernel_symbolic(self):
        # xi = x y: d2 xi = x, so the evaluation pairing gives x e
        xi2 = xi2_build(self._xy_kernel(), "evaluate", 1.0)
        pt = np.array([0.4, 0.2, 0.3])
        assert xi2.tensors(pt[None], 0)[0, 0] == pytest.approx(0.12)
        grad = xi2.tensor(pt, 1).entries[0]
        assert grad == pytest.approx([0.3, 0.0, 0.4], abs=1e-14)

    def test_tensor_against_finite_differences(self):
        u, v = box([-1.0], [1.0]), box([-1.0], [1.0])
        xi = PolynomialMap(
            product_box(u, v),
            [([1.0], (2, 3)), ([0.5], (1, 1))],
            in_blocks=(1, 1),
        )
        for pairing in ("evaluate", "compose"):
            xi2 = xi2_build(xi, pairing, 1.0)
            pt = np.array([0.4, -0.6, 0.7])
            for ell in (1, 2):
                exact = xi2.tensor(pt, ell).entries
                approx = fd_tensors(xi2, pt[None], ell)[ell][0]
                assert np.allclose(exact, approx, atol=1e-6)

    def test_norm_bound_sin_kernel(self):
        # xi = sin(x) y at (0.5, 0.2, e = 0.3); both sides via exact tensors
        kernel = _SinTimesY(product_box(box([-1.0], [1.0]), box([-1.0], [1.0])))
        xi2 = xi2_build(kernel, "evaluate", 1.0)
        pt = np.array([0.5, 0.2, 0.3])
        rep = xi2_pointwise_check(kernel, xi2, pt[None], 1)
        assert rep.status == "pass" and rep.witness == (0.5, 0.2, 0.3)
        # oracle values computed by hand: lhs row sum, rhs from D xi, D^2 xi
        lhs = abs(math.cos(0.5) * 0.3) + abs(math.sin(0.5))
        d1 = abs(math.cos(0.5) * 0.2) + abs(math.sin(0.5))
        d2 = abs(math.sin(0.5)) * 0.2 + 2 * abs(math.cos(0.5))
        assert rep.lhs == pytest.approx(lhs, abs=1e-12)
        assert rep.rhs == pytest.approx(d1 + 0.3 * d2, abs=1e-12)
        lhs_fd = fd_tensors(xi2, pt[None], 1)[1][0]
        assert np.max(np.abs(lhs_fd - xi2.tensor(pt, 1).entries)) < 1e-6

    def test_compose_pairing_2d_against_finite_differences(self):
        # two-dimensional blocks, operator slot in L(X, Y): tensors of the
        # composition pairing cross-checked by central differences
        u = box([-1.0, -1.0], [1.0, 1.0])
        v = box([-1.0, -1.0], [1.0, 1.0])
        rng = np.random.default_rng(5)
        terms = [
            (rng.normal(size=2), (1, 0, 1, 0)),
            (rng.normal(size=2), (0, 1, 0, 1)),
            (rng.normal(size=2), (1, 1, 1, 0)),
        ]
        xi = PolynomialMap(product_box(u, v), terms, in_blocks=(2, 2))
        xi2 = xi2_build(xi, "compose", 1.0)
        assert xi2.e_shape == (2, 2)
        pt = np.concatenate([[0.3, -0.4, 0.5, 0.2], 0.3 * np.arange(1.0, 5.0) - 0.6])
        for ell in (1, 2):
            exact = xi2.tensor(pt, ell).entries
            approx = fd_tensors(xi2, pt[None], ell)[ell][0]
            assert np.allclose(exact, approx, atol=1e-5)
        zero_pt = np.concatenate([[0.3, -0.4, 0.5, 0.2], np.zeros(4)])
        assert np.max(np.abs(xi2.tensors(zero_pt[None], 0))) == 0.0

    def test_order_guard(self):
        u, v = box([-1.0], [1.0]), box([-1.0], [1.0])
        xi = PolynomialMap(product_box(u, v), [([1.0], (1, 1))], in_blocks=(1, 1))
        capped = PolynomialMap(
            product_box(u, v), [([1.0], (1, 1))], in_blocks=(1, 1)
        )
        capped.max_order = 2
        xi2 = xi2_build(capped, "evaluate", 1.0)
        with pytest.raises(OrderError):
            xi2.tensor(np.array([0.1, 0.1, 0.1]), 2)  # needs base order 3


class _SinTimesY(PolynomialMap):
    """sin(x) * y with exact tensors, coded directly."""

    def __init__(self, domain):
        super().__init__(domain, [([0.0], (0, 1))], in_blocks=(1, 1))

    def tensors(self, points, ell):
        ent = np.zeros((len(points), 1) + (2,) * ell)
        for i, x in enumerate(points):
            for idx in itertools.product(range(2), repeat=ell):
                k = sum(1 for j in idx if j == 0)  # x-derivatives
                n_y = ell - k
                if n_y == 0:
                    ent[(i, 0) + idx] = math.sin(x[0] + k * math.pi / 2) * x[1]
                elif n_y == 1:
                    ent[(i, 0) + idx] = math.sin(x[0] + k * math.pi / 2)
        return ent


class TestLinearInSecondArgument:
    def _kernel(self):
        # xi(x, y) = x^2 y through b(g(x), y) with g = x^2, b = multiply
        u = box([-1.0], [1.0])
        dom = product_box(u, box([-1.0], [1.0]))
        xi = PolynomialMap(dom, [([1.0], (2, 1))], in_blocks=(1, 1))
        g = PolynomialMap(u, [([1.0], (2,))])
        b = np.array([[[1.0]]])
        return xi, g, b

    def test_identities_and_estimates(self):
        xi, g, b = self._kernel()
        pt = np.array([0.6, 0.4])
        reports = linear2_identities_check(
            xi, pt, np.array([1.0]), np.array([-0.5]), 1, g=g, b=b
        )
        assert all(r.status == "pass" for r in reports)
        # (++) is tight here: |2xy| + x^2 both sides
        two_plus = [
            r for r in reports if r.check_id == "est:norm_l-te_Ableitung-Abb_linear_2Arg"
        ][0]
        assert two_plus.margin == pytest.approx(0.0, abs=1e-12)

    def test_triple_dagger_value(self):
        xi, g, b = self._kernel()
        pt = np.array([0.6, 0.4])
        reports = linear2_identities_check(
            xi, pt, np.array([1.0]), np.array([-0.5]), 2, g=g, b=b
        )
        tp = [
            r
            for r in reports
            if r.check_id == "est:Abb_linear_2Arg-Spezialfall-hohes_Diff--partiell"
        ][0]
        assert tp.rhs == pytest.approx(2.0, abs=1e-12)  # |b| |D^2 g| = 2
        assert tp.status == "pass"

    def test_zero_section(self):
        xi, g, b = self._kernel()
        # d1 xi(x, 0): the order-1 tensor's first-block column
        t = xi.tensors(np.array([[0.6, 0.0]]), 1)[0, :, :1]
        assert np.max(np.abs(t)) == 0.0

    def test_nonlinear_probe_rejected(self):
        u = box([-1.0], [1.0])
        dom = product_box(u, box([-1.0], [1.0]))
        bad = PolynomialMap(dom, [([1.0], (0, 2))], in_blocks=(1, 1))
        with pytest.raises(PreconditionError):
            linear2_identities_check(
                bad, np.array([0.3, 0.4]), np.array([1.0]), np.array([1.0]), 1
            )


class TestCrudeBounds:
    def test_poly_bound_sound(self, rng):
        dom = box([-1.2, -0.7], [1.2, 0.7])
        pm = PolynomialMap(
            dom, [(rng.normal(size=2), (2, 1)), (rng.normal(size=2), (0, 2))]
        )
        for ell in range(3):
            bound = crude_sup_bound(pm, ell)
            lo, hi = dom.bounding_box()
            for _ in range(200):
                x = rng.uniform(lo, hi)
                assert op_norm(pm.tensor(x, ell)) <= bound + 1e-12

    def test_partial2_bound_sound(self, rng):
        u, v = box([-1.0], [1.0]), box([-0.5], [0.5])
        xi = PolynomialMap(
            product_box(u, v), [([0.8], (1, 1)), ([-0.3], (2, 2))], in_blocks=(1, 1)
        )
        bound = crude_partial2_sup(xi)
        d2 = PartialD2Map(xi)
        for _ in range(100):
            pt = rng.uniform([-1, -0.5], [1, 0.5])
            assert op_norm(d2.tensor(pt, 0)) <= bound + 1e-12

    def test_differential_delegates(self):
        dom = box([-1.0], [1.0])
        pm = PolynomialMap(dom, [([1.0], (3,))])
        assert crude_sup_bound(pm.differential(), 1) == crude_sup_bound(pm, 2)


def test_opnorm_inf_matrix():
    assert opnorms_inf(np.array([[[1.0, -2.0], [0.5, 0.5]]])).tolist() == [3.0]
