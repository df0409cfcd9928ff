import math

import numpy as np
import pytest

from wrp.errors import (
    ContractionViolationError,
    GeometryError,
    PreconditionError,
    RangeEscapeError,
    SpectralConditionError,
    TruncationError,
)
from wrp.jets import (
    AffineMap,
    ConstMap,
    PolynomialMap,
    TrigPolynomialMap,
    crude_partial2_sup,
    crude_sup_bound,
)
from wrp.operators import (
    NEUMANN_MAX_TERMS,
    ContractionConfig,
    InverseMap,
    SuperpositionOperand,
    compose_derivative_check,
    compose_perturbed,
    convergence_report,
    derivative_convergence,
    gated_inverse,
    inversion_direction_check,
    inversion_jacobian_check,
    inversion_pair_difference_check,
    invert_perturbed,
    neumann_terms,
    quasi_inverse_report,
    quasi_inverses,
    superpose,
    superpose_derivative_check,
    weak_integral,
)
from wrp.seminorms import WeightedFunction, lattice, weighted_seminorm
from wrp.spaces import ball, box, const_weight, gaussian_weight, product_box

ONE = const_weight("one", 1.0)

U1 = box([-1.0], [1.0])
V1 = box([-1.0], [1.0])


def xy_operand():
    xi = PolynomialMap(product_box(U1, V1), [([1.0], (1, 1))], in_blocks=(1, 1))
    return SuperpositionOperand(
        xi, U1, V1,
        sup_1=tuple((ell, crude_sup_bound(xi, ell)) for ell in (1, 2, 3)),
        d2_sup=crude_partial2_sup(xi),
    )


def gamma_identity():
    return WeightedFunction(
        PolynomialMap(U1, [([1.0], (1,))]), lattice(U1, spacing=0.1), 2,
        (("one", 0, 1.0), ("one", 1, 1.0)),
    )


class TestSuperpose:
    def test_zero_argument_gives_zero_map(self):
        zero = WeightedFunction(
            ConstMap(U1, [0.0]), lattice(U1, spacing=0.1), 2, (("one", 0, 0.0), ("one", 1, 0.0))
        )
        res, _ = superpose(xy_operand(), zero, [ONE])
        assert res.map.tensors(res.grid.points, 0) == pytest.approx(0.0)

    def test_canonical_instance(self):
        # xi = x y with gamma = x gives x^2; grid seminorm 0.81 on the
        # step-0.1 lattice; margin of the order-0 bound is 0.19
        res, reports = superpose(xy_operand(), gamma_identity(), [ONE])
        assert weighted_seminorm(res, ONE, 0).value == pytest.approx(0.81)
        est = [r for r in reports if r.check_id == "est:f0-Norm_SPid"][0]
        assert est.status == "pass"
        assert est.lhs == pytest.approx(0.81)
        assert est.rhs == pytest.approx(1.0)
        assert est.margin == pytest.approx(0.19)

    def test_chain_rule_result_jets(self):
        res, _ = superpose(xy_operand(), gamma_identity(), [ONE])
        x = np.array([0.5])
        assert res.map.tensors(x[None], 0)[0, 0] == pytest.approx(0.25)
        assert res.map.tensor(x, 1).entries[0, 0] == pytest.approx(1.0)
        assert res.map.tensor(x, 2).entries[0, 0, 0] == pytest.approx(2.0)

    def test_kernel_order_caps_the_result(self):
        op = xy_operand()
        op.xi.max_order = 1
        res, reps = superpose(op, gamma_identity(), [ONE])
        assert res.max_order == 1
        assert [r.check_id for r in reps] == ["est:f0-Norm_SPid", "est:f1-Norm_SPid"]

    def test_range_escape(self):
        small_v = box([-0.5], [0.5])
        xi = PolynomialMap(product_box(U1, small_v), [([1.0], (1, 1))], in_blocks=(1, 1))
        op = SuperpositionOperand(xi, U1, small_v, ((1, 1.0),), 1.0)
        with pytest.raises(RangeEscapeError):
            superpose(op, gamma_identity(), [ONE])

    def test_zero_section_probe(self):
        xi = PolynomialMap(
            product_box(U1, V1), [([1.0], (1, 1)), ([0.5], (2, 0))], in_blocks=(1, 1)
        )
        op = SuperpositionOperand(xi, U1, V1, ((1, 2.0),), 1.0)
        with pytest.raises(PreconditionError):
            superpose(op, gamma_identity(), [ONE])

    def test_difference_estimate(self):
        gamma = gamma_identity()
        half = WeightedFunction(
            PolynomialMap(U1, [([0.5], (1,))]), gamma.grid, 2,
            (("one", 0, 0.5), ("one", 1, 0.5)),
        )
        # gamma - half = x / 2: sup 0.5 on U
        diff = (("one", 0, 0.5), ("one", 1, 0.5))
        _, reports = superpose(xy_operand(), gamma, [ONE], pair=(half, diff))
        est = [r for r in reports if r.check_id == "est:f0-Norm_SPid-Differenz"][0]
        assert est.status == "pass"
        # lhs oracle: sup |x^2 - 0.5 x^2| on the grid
        assert est.lhs == pytest.approx(0.5 * 0.81)
        assert est.rhs == pytest.approx(0.5)

    def test_difference_estimate_fails_with_cut_rows(self):
        # the pair above with the difference row cut to 0.1: the grid
        # distance 0.405 exceeds d2_sup * 0.1 = 0.1
        gamma = gamma_identity()
        half = WeightedFunction(PolynomialMap(U1, [([0.5], (1,))]), gamma.grid, 2)
        _, reports = superpose(xy_operand(), gamma, [ONE], pair=(half, (("one", 0, 0.1),)))
        est = [r for r in reports if r.check_id == "est:f0-Norm_SPid-Differenz"][0]
        assert est.status == "fail"
        assert est.lhs == pytest.approx(0.5 * 0.81)
        assert est.rhs == pytest.approx(0.1)

    def test_derivative_check_linear_kernel_exactness(self):
        # xi linear in y: quotients are exact
        direction = WeightedFunction(
            ConstMap(U1, [1.0]), lattice(U1, spacing=0.1), 2
        )
        gamma = WeightedFunction(
            PolynomialMap(U1, [([0.5], (1,))]), lattice(U1, spacing=0.1), 2
        )
        rep = superpose_derivative_check(xy_operand(), gamma, direction)
        assert rep.status == "pass"
        assert "exactness" in rep.detail

    def test_derivative_check_rejects_steps_leaving_the_value_domain(self):
        # gamma + 0.1 * 6 reaches 1.05 outside V = (-1, 1); smaller steps stay
        direction = WeightedFunction(ConstMap(U1, [6.0]), lattice(U1, spacing=0.1), 2)
        gamma = WeightedFunction(
            PolynomialMap(U1, [([0.5], (1,))]), lattice(U1, spacing=0.1), 2
        )
        rep = superpose_derivative_check(xy_operand(), gamma, direction)
        assert rep.status == "pass"
        assert rep.detail.startswith("1 step(s) rejected by range checks;")

    def test_derivative_check_slope_branch(self):
        # xi = x y^3 has a genuinely cubic second slot: slope ~ 2
        xi = PolynomialMap(product_box(U1, V1), [([1.0], (1, 3))], in_blocks=(1, 1))
        op = SuperpositionOperand(xi, U1, V1, ((1, 3.0), (2, 6.0)), 3.0)
        gamma = WeightedFunction(
            PolynomialMap(U1, [([0.4], (1,))]), lattice(U1, spacing=0.1), 2
        )
        direction = WeightedFunction(
            PolynomialMap(U1, [([1.0], (1,))]), lattice(U1, spacing=0.1), 2
        )
        rep = superpose_derivative_check(op, gamma, direction)
        assert rep.status == "pass"
        assert 1.7 <= rep.lhs <= 2.3


class TestCompose:
    W = box([-2.0], [2.0])
    V = ball([0.0], 0.5)
    U = box([-1.0], [1.0])

    def _gamma(self):
        # x^2 on W = [-2, 2]: its derivative 2x is at most 4
        return WeightedFunction(
            PolynomialMap(self.W, [([1.0], (2,))]), lattice(self.W, spacing=0.25), 3,
            (("one", 1, 4.0),),
        )

    def test_shifted_square(self):
        eta = WeightedFunction(
            ConstMap(self.U, [0.1]), lattice(self.U, spacing=0.1), 3
        )
        res, _ = compose_perturbed(self._gamma(), eta, self.U, self.V, self.W)
        xs = res.grid.points[::4]
        assert res.map.tensors(xs, 0)[:, 0] == pytest.approx((xs[:, 0] + 0.1) ** 2, abs=1e-14)

    def test_zero_perturbation_identity(self):
        eta = WeightedFunction(
            ConstMap(self.U, [0.0]), lattice(self.U, spacing=0.1), 3
        )
        res, _ = compose_perturbed(self._gamma(), eta, self.U, self.V, self.W)
        g = self._gamma()
        for x in res.grid.points[::4]:
            for ell in range(3):
                assert np.array_equal(
                    res.map.tensor(x, ell).entries, g.map.tensor(x, ell).entries
                )

    def test_pointwise_value_estimate(self):
        eta = WeightedFunction(
            ConstMap(self.U, [0.1]), lattice(self.U, spacing=0.1), 3
        )
        _, reports = compose_perturbed(
            self._gamma(), eta, self.U, self.V, self.W, weights=[ONE]
        )
        est = [r for r in reports if r.check_id == "est:Funktionswerte_Gewicht_K-Kompo"][0]
        assert est.status == "pass"
        # oracle at the worst grid point x: (x+0.1)^2 <= 4 * 0.1 + x^2
        xs = eta.grid.points.ravel()
        worst = min(4.0 * 0.1 + x * x - (x + 0.1) ** 2 for x in xs)
        assert est.margin == pytest.approx(worst, abs=1e-12)

    def _pair_estimate(self, gamma_diff, eta_diff):
        # gamma = x^2 and eta = 0.1 against gamma0 = x^2 / 2 and eta0 = 0.05;
        # gamma - gamma0 = x^2 / 2 has sup 2 and derivative sup 2 on W
        grid_u = lattice(self.U, spacing=0.1)
        eta = WeightedFunction(ConstMap(self.U, [0.1]), grid_u, 3)
        gamma0 = WeightedFunction(PolynomialMap(self.W, [([0.5], (2,))]), self._gamma().grid, 3)
        eta0 = WeightedFunction(ConstMap(self.U, [0.05]), grid_u, 3, (("one", 0, 0.05),))
        _, reports = compose_perturbed(
            self._gamma(), eta, self.U, self.V, self.W, weights=[ONE],
            pair=(gamma0, eta0, gamma_diff, eta_diff),
        )
        return [r for r in reports if r.check_id == "est:f,0-Norm_Differenz_Kompo"][0]

    def test_pair_difference_estimate(self):
        est = self._pair_estimate((("one", 0, 2.0), ("one", 1, 2.0)), (("one", 0, 0.05),))
        assert est.status == "pass"
        # lhs oracle: sup |(x + 0.1)^2 - (x + 0.05)^2 / 2| on the grid, at x = 0.9
        xs = lattice(self.U, spacing=0.1).points.ravel()
        assert est.lhs == pytest.approx(max(abs((x + 0.1) ** 2 - 0.5 * (x + 0.05) ** 2) for x in xs))
        assert est.lhs == pytest.approx(0.54875)
        # 4 |eta - eta0| + |gamma - gamma0|_1 |eta0| + |gamma - gamma0|_0
        assert est.rhs == pytest.approx(4.0 * 0.05 + 2.0 * 0.05 + 2.0)

    def test_pair_difference_fails_with_cut_rows(self):
        est = self._pair_estimate((("one", 0, 0.01), ("one", 1, 0.01)), (("one", 0, 0.01),))
        assert est.status == "fail"
        assert est.lhs == pytest.approx(0.54875)
        assert est.rhs == pytest.approx(4.0 * 0.01 + 0.01 * 0.05 + 0.01)

    def test_geometry_guard(self):
        big_v = ball([0.0], 1.5)
        eta = WeightedFunction(
            ConstMap(self.U, [0.1]), lattice(self.U, spacing=0.25), 3
        )
        with pytest.raises(GeometryError):
            compose_perturbed(self._gamma(), eta, self.U, big_v, self.W)

    def test_unbalanced_v_rejected(self):
        lopsided = box([-0.1], [0.5])
        eta = WeightedFunction(
            ConstMap(self.U, [0.1]), lattice(self.U, spacing=0.25), 3
        )
        with pytest.raises(PreconditionError):
            compose_perturbed(self._gamma(), eta, self.U, lopsided, self.W)

    def test_derivative_identity_sweep(self):
        eta = WeightedFunction(
            PolynomialMap(self.U, [([0.2], (1,))]), lattice(self.U, spacing=0.1), 3
        )
        gdir = PolynomialMap(self.W, [([0.5], (3,))])
        edir = PolynomialMap(self.U, [([0.3], (1,))])
        rep = compose_derivative_check(
            self._gamma(), eta, self.U, self.V, gdir, edir
        )
        assert rep.status == "pass"

    def test_derivative_sweep_rejects_steps_leaving_the_range(self):
        # eta + 0.1 * 4x reaches 0.54 outside V = ball(0, 0.5); smaller steps stay
        eta = WeightedFunction(
            PolynomialMap(self.U, [([0.2], (1,))]), lattice(self.U, spacing=0.1), 3
        )
        gdir = PolynomialMap(self.W, [([0.5], (3,))])
        edir = PolynomialMap(self.U, [([4.0], (1,))])
        rep = compose_derivative_check(self._gamma(), eta, self.U, self.V, gdir, edir)
        assert rep.status == "pass"
        assert rep.detail.startswith("1 step(s) rejected by range checks;")


class TestInversion:
    def test_zero_map(self):
        u, v = box([-1.0], [1.0]), box([-0.4], [0.4])
        phi = WeightedFunction(
            ConstMap(u, [0.0]), lattice(u, spacing=0.2), 2,
            (("one", 0, 0.0), ("one", 1, 0.0)),
        )
        cfg = ContractionConfig(tau=0.5, r=0.5)
        res, reports = invert_perturbed(phi, gated_inverse(phi, u, v, cfg), lattice(v, spacing=0.1))
        assert res.map.tensors(res.grid.points, 0) == pytest.approx(0.0)
        assert all(r.status == "pass" for r in reports)

    def test_linear_closed_form_through_gate(self):
        # phi = 0.1 x is inside the operator domain for these sets
        u, v = box([-2.0], [2.0]), box([-0.5], [0.5])
        phi = WeightedFunction(
            AffineMap(u, [[0.1]]), lattice(u, spacing=0.25), 2,
            (("one", 0, 0.2), ("one", 1, 0.1)),
        )
        cfg = ContractionConfig(tau=0.5, r=1.5, fix_tol=1e-13)
        res, reports = invert_perturbed(phi, gated_inverse(phi, u, v, cfg),
                                        lattice(v, spacing=0.1), [ONE])
        ys = res.grid.points
        assert res.map.tensors(ys, 0)[:, 0] == pytest.approx(-0.1 / 1.1 * ys[:, 0], abs=1e-12)
        assert all(r.status == "pass" for r in reports)

    def test_linear_closed_form_direct(self):
        # phi = 0.4 x: the algebra still contracts even though the sup
        # condition of the operator domain cannot hold at this slope
        u, v = box([-2.0], [2.0]), box([-0.5], [0.5])
        inv = InverseMap(
            AffineMap(u, [[0.4]]), u, v, ContractionConfig(tau=0.5, r=0.5, fix_tol=1e-13)
        )
        y = np.array([0.35])
        assert inv.tensors(y[None], 0)[0, 0] == pytest.approx(-2.0 / 7.0 * 0.35, abs=1e-12)
        assert inv.tensor(y, 1).entries[0, 0] == pytest.approx(-0.4 / 1.4, abs=1e-12)

    def test_sine_against_bisection_oracle(self):
        u, v = box([-3.0], [3.0]), box([-1.0], [1.0])
        phi = WeightedFunction(
            TrigPolynomialMap(u, [([0.3], [1.0], 0.0)]), lattice(u, spacing=0.5), 2,
            (("one", 0, 0.3), ("one", 1, 0.3)),
        )
        cfg = ContractionConfig(tau=0.5, r=1.6)
        res, _ = invert_perturbed(phi, gated_inverse(phi, u, v, cfg), lattice(v, spacing=0.25))

        def oracle(y):
            f = lambda x: x + 0.3 * math.sin(x) - y
            a, b = -3.0, 3.0
            for _ in range(60):
                m = (a + b) / 2
                if f(a) * f(m) <= 0:
                    b = m
                else:
                    a = m
            return (a + b) / 2 - y

        got = res.map.tensors(np.array([[0.5]]), 0)[0, 0]
        assert got == pytest.approx(oracle(0.5), abs=1e-10)
        assert got == pytest.approx(-0.1132, abs=1e-4)

    def test_residual_and_rate_reports(self):
        u, v = box([-2.0], [2.0]), box([-0.4], [0.4])
        phi = WeightedFunction(
            PolynomialMap(u, [([0.05], (2,)), ([0.04], (1,))]),
            lattice(u, spacing=0.25), 2,
            (("one", 0, 0.28), ("one", 1, 0.24)),
        )
        cfg = ContractionConfig(tau=0.5, r=1.5)
        _, reports = invert_perturbed(phi, gated_inverse(phi, u, v, cfg),
                                      lattice(v, spacing=0.1), [ONE])
        residual = [r for r in reports if "residual" in r.detail][0]
        assert residual.status == "pass" and residual.lhs <= 2 * cfg.fix_tol
        rate = [r for r in reports if "contraction ratio" in r.detail][0]
        assert rate.status == "pass" and rate.lhs <= cfg.tau + 1e-9

    def test_domain_gate(self):
        u, v = box([-2.0], [2.0]), box([-0.5], [0.5])
        phi = WeightedFunction(
            AffineMap(u, [[0.4]]), lattice(u, spacing=0.25), 2,
            (("one", 0, 0.8), ("one", 1, 0.4)),
        )
        with pytest.raises(PreconditionError):
            gated_inverse(phi, u, v, ContractionConfig(tau=0.5, r=0.5))

    def test_geometry_gate(self):
        u, v = box([-1.0], [1.0]), box([-0.9], [0.9])
        phi = WeightedFunction(
            AffineMap(u, [[0.01]]), lattice(u, spacing=0.25), 2,
            (("one", 0, 0.01), ("one", 1, 0.01)),
        )
        with pytest.raises(GeometryError):
            gated_inverse(phi, u, v, ContractionConfig(tau=0.5, r=0.5))

    def test_weighted_value_estimate(self):
        u, v = box([-2.0], [2.0]), box([-0.4], [0.4])
        phi = WeightedFunction(
            TrigPolynomialMap(u, [([0.15], [1.0], 0.2)]), lattice(u, spacing=0.25), 2,
            (("one", 0, 0.15), ("one", 1, 0.15)),
        )
        cfg = ContractionConfig(tau=0.5, r=1.5)
        w = gaussian_weight("gauss", 0.5, u)
        _, reports = invert_perturbed(phi, gated_inverse(phi, u, v, cfg),
                                      lattice(v, spacing=0.1), [w])
        est = [
            r for r in reports
            if r.check_id == "est:Abschaetzung_gewichteter_FWert_der_K-Inversion"
        ][0]
        assert est.status == "pass" and est.margin >= -1e-9

    def test_pair_difference_estimate(self):
        u, v = box([-2.0], [2.0]), box([-0.4], [0.4])
        grid_u = lattice(u, spacing=0.25)
        phi = WeightedFunction(
            AffineMap(u, [[0.12]]), grid_u, 2,
            (("one", 0, 0.24), ("one", 1, 0.12)),
        )
        psi = WeightedFunction(
            AffineMap(u, [[0.08]]), grid_u, 2,
            (("one", 0, 0.16), ("one", 1, 0.08)),
        )
        # phi - psi = 0.04 x on [-2, 2]
        diff = (("one", 0, 0.08), ("one", 1, 0.04))
        inv = gated_inverse(phi, u, v, ContractionConfig(tau=0.5, r=1.5))
        rep = inversion_pair_difference_check(phi, inv, psi, diff, lattice(v, spacing=0.1), [ONE])
        assert rep.status == "pass"
        # closed-form oracle: Inv cphi - Inv cpsi at the worst grid point
        worst = max(
            abs(-0.08 / 1.08 * y + 0.12 / 1.12 * y)
            for y in lattice(v, spacing=0.1).points.ravel()
        )
        assert rep.lhs == pytest.approx(worst, abs=1e-11)

    def test_pair_difference_fails_with_shrunk_certificates(self):
        # the pair above with the difference certificates cut to 0.001: the
        # inverses still differ by up to 0.0099 at y = -0.3 and y = 0.3,
        # and the first of the two grid points is the witness
        u, v = box([-2.0], [2.0]), box([-0.4], [0.4])
        grid_u = lattice(u, spacing=0.25)
        phi = WeightedFunction(AffineMap(u, [[0.12]]), grid_u, 2,
                               (("one", 0, 0.24), ("one", 1, 0.12)))
        psi = WeightedFunction(AffineMap(u, [[0.08]]), grid_u, 2,
                               (("one", 0, 0.16), ("one", 1, 0.08)))
        diff = (("one", 0, 0.001), ("one", 1, 0.001))
        grid_v = lattice(v, spacing=0.1)
        inv = gated_inverse(phi, u, v, ContractionConfig(tau=0.5, r=1.5))
        rep = inversion_pair_difference_check(phi, inv, psi, diff, grid_v, [ONE])
        assert rep.status == "fail"
        assert rep.witness == (float(grid_v.points[:, 0].min()),)
        assert rep.lhs == pytest.approx(0.3 * (0.12 / 1.12 - 0.08 / 1.08), abs=1e-11)

    def test_direction_check_noise_floor_exactness(self):
        # an instance whose curvature term sits below the fixed-point noise
        # floor must take the exactness branch instead of fitting noise
        from wrp.verify import generate_scenario

        sc = generate_scenario(28)
        fs0 = sc.factors[0]
        probes = fs0.grid_vt.points[:: max(1, len(fs0.grid_vt) // 3)]
        inv = gated_inverse(sc.phis[0], fs0.u, fs0.v_tilde, sc.contraction)
        rep = inversion_direction_check(sc.phis[0], inv, sc.phi_dirs[0], probes)
        assert rep.status == "pass"

    def test_direction_check_raises_the_failed_solve(self):
        # an understated direction certificate: phi + t dir, of slope up
        # to 1.55, is no contraction, and its iterates leave U at every
        # probe but 0, which the earlier probe's solves are replayed for
        u, v = box([-2.0], [2.0]), box([-0.4], [0.4])
        grid_u = lattice(u, spacing=0.25)
        phi = WeightedFunction(PolynomialMap(u, [([0.05], (1,))]), grid_u, 2,
                               (("one", 0, 0.1), ("one", 1, 0.05)))
        direction = WeightedFunction(PolynomialMap(u, [([30.0], (1,))]), grid_u, 2,
                                     (("one", 0, 1e-3), ("one", 1, 1e-3)))
        probes = np.array([[0.0], [0.2], [0.3]])
        with pytest.raises(ContractionViolationError, match="escaped the domain") as exc:
            inversion_direction_check(
                phi, gated_inverse(phi, u, v, ContractionConfig(tau=0.5, r=1.5)), direction,
                probes)
        assert exc.value.row == 1

    def test_direction_and_jacobian_checks(self):
        u, v = box([-2.0], [2.0]), box([-0.4], [0.4])
        grid_u = lattice(u, spacing=0.25)
        phi = WeightedFunction(
            PolynomialMap(u, [([0.06], (2,)), ([0.05], (1,))]), grid_u, 2,
            (("one", 0, 0.34), ("one", 1, 0.29)),
        )
        direction = WeightedFunction(
            PolynomialMap(u, [([0.05], (1,))]), grid_u, 2,
            (("one", 0, 0.1), ("one", 1, 0.05)),
        )
        cfg = ContractionConfig(tau=0.5, r=1.5)
        probes = lattice(v, spacing=0.2).points
        inv = gated_inverse(phi, u, v, cfg)
        rep = inversion_direction_check(phi, inv, direction, probes)
        assert rep.status == "pass"
        # a loose order-1 certificate of the direction: 0.29 + 0.05 * 5 is
        # not below tau, so the largest step is rejected
        loose = WeightedFunction(direction.map, grid_u, 2, (("one", 0, 0.1), ("one", 1, 5.0)))
        rep_loose = inversion_direction_check(phi, inv, loose, probes)
        assert rep_loose.status == "pass"
        assert rep_loose.detail.startswith(
            "derivative in the operator argument; 1 step(s) rejected by range checks;")
        rep2 = inversion_jacobian_check(inv, probes)
        assert rep2.status == "pass" and rep2.lhs <= 1e-6


class TestQuasiInverse:
    def test_zero(self):
        assert np.array_equal(quasi_inverses(np.zeros((1, 2, 2))), np.zeros((1, 2, 2)))

    def test_scalar_geometric(self):
        (qi,), rep = quasi_inverse_report(np.array([[[0.5]]]))
        assert qi[0, 0] == pytest.approx(-1.0, abs=2e-12)
        # (1 - a)(1 - QI(a)) = 1
        assert (1 - 0.5) * (1 - qi[0, 0]) == pytest.approx(1.0, abs=2e-12)
        assert rep.status == "pass"

    def test_nilpotent(self):
        a = np.array([[0.0, 0.3], [0.0, 0.0]])
        assert np.array_equal(quasi_inverses(a[None])[0], -a)

    def test_spectral_gate(self):
        with pytest.raises(SpectralConditionError):
            quasi_inverses(np.array([[[1.0]]]))

    def test_truncation_gate(self):
        with pytest.raises(TruncationError):
            quasi_inverses(np.array([[[0.999]]]))

    def test_term_count_bound(self):
        # geometric tail 0.5^(N+1)/0.5 <= 1e-12 at N = 40
        assert neumann_terms(0.5) == 40
        # q up to 0.8, as acceptance criterion 6 draws, fits under the cap;
        # 0.85 needs 181 terms
        assert neumann_terms(0.8) == 131 <= NEUMANN_MAX_TERMS
        with pytest.raises(TruncationError):
            neumann_terms(0.85)


class TestWeakIntegral:
    # the integrand takes all quadrature nodes at once and stacks its values

    def test_constant(self):
        got = weak_integral(lambda ts: np.full((len(ts), 1), 2.5), 0, 1, 8)[0]
        assert got == pytest.approx(2.5)

    def test_quadratic_closed_form(self):
        got = weak_integral(lambda ts: (ts * ts)[:, None], 0.0, 1.0, 64)[0]
        assert got == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_simpson_sum_of_stacked_values(self):
        # the node values enter the Simpson sum exactly as stacked
        ts = np.linspace(0.0, 1.0, 9)
        vals = np.stack([np.sin(ts), ts**3], axis=1)
        w = np.array([1, 4, 2, 4, 2, 4, 2, 4, 1], dtype=float)
        want = 0.125 / 3.0 * np.tensordot(w, vals, axes=(0, 0))
        got = weak_integral(lambda nodes: np.stack([np.sin(nodes), nodes**3], axis=1),
                            0.0, 1.0, 8)
        assert got.tobytes() == want.tobytes()

    def test_mean_value_identity(self):
        # xi = x y^2: xi(x, g) - xi(x, e) equals the integral of the
        # second-slot derivative along the segment
        xi = PolynomialMap(product_box(U1, V1), [([1.0], (1, 2))], in_blocks=(1, 1))
        x, g, e = 0.7, 0.6, -0.2
        vals = xi.tensors(np.array([[x, g], [x, e]]), 0)
        lhs = vals[0] - vals[1]
        rhs = weak_integral(
            lambda ts: (2 * x * (ts * g + (1 - ts) * e) * (g - e))[:, None], 0, 1, 64
        )
        assert lhs[0] == pytest.approx(rhs[0], abs=1e-10)

    def test_odd_n_rejected(self):
        with pytest.raises(PreconditionError):
            weak_integral(lambda ts: ts[:, None], 0, 1, 5)


class TestConvergenceReport:
    def test_exactness_branch(self):
        rep = convergence_report("x", [0.1, 0.05, 0.025], [0.0, 0.0, 0.0])
        assert rep.status == "pass" and "exactness" in rep.detail

    def test_second_order(self):
        hs = [0.1, 0.05, 0.025, 0.0125]
        rep = convergence_report("x", hs, [3 * h**2 for h in hs])
        assert rep.status == "pass"
        assert rep.lhs == pytest.approx(2.0, abs=1e-9)

    def test_no_finite_error_fails(self):
        # a NaN or infinite quotient error must not vanish from the sweep
        rep = convergence_report("x", [0.1, 0.05, 0.025], [math.nan, math.inf, math.nan])
        assert rep.status == "fail" and math.isnan(rep.lhs)
        assert rep.detail == " non-finite quotient error at step 0.1"

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_error_beside_finite_ones_fails(self, bad):
        # the other three steps alone would give slope 2.000
        hs = [0.1, 0.05, 0.025, 0.0125]
        errs = [2.5e-3, bad, 6.25e-4, 1.5625e-4]
        rep = convergence_report("x", hs, errs, detail="sweep;")
        assert rep.status == "fail" and rep.margin == -math.inf
        assert rep.lhs == bad or math.isnan(bad) and math.isnan(rep.lhs)
        assert rep.detail == "sweep; non-finite quotient error at step 0.05"
        errs[0] = math.nan
        assert convergence_report("x", hs, errs).detail.endswith("at step 0.1")

    def test_zero_error_beside_a_large_one_is_skipped(self):
        rep = convergence_report("x", [0.1, 0.05, 0.025], [1.0, 0.5, 0.0])
        assert rep.status == "skipped-precondition"
        assert rep.detail == "degenerate error sequence for slope fit"

    def test_rejected_steps_are_dropped_and_counted(self):
        # a step missing from the mapping is one the range checks rejected
        hs = [0.1, 0.05, 0.025, 0.0125]
        errors = {t: 3 * t**2 for t in hs if t <= 0.06}
        rep = derivative_convergence("x", errors, hs, detail="sweep;")
        assert rep.status == "pass" and rep.lhs == pytest.approx(2.0, abs=1e-9)
        assert rep.detail.startswith("sweep; 1 step(s) rejected by range checks;")
        rep = derivative_convergence("x", {}, hs)
        assert rep.status == "skipped-precondition"

    def test_wrong_derivative_fails(self):
        # a constant error (slope ~ 0) signals a wrong derivative
        hs = [0.1, 0.05, 0.025, 0.0125]
        rep = convergence_report("x", hs, [0.1 + h**2 for h in hs])
        assert rep.status == "fail"
