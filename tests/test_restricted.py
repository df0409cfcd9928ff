import math

import numpy as np
import pytest

from wrp.errors import PreconditionError, ShapeError
from wrp.jets import (
    AffineMap,
    ConstMap,
    PairMap,
    PolynomialMap,
)
from wrp.operators import ContractionConfig, gated_inverse, invert_perturbed
from wrp.restricted import (
    FactorSpace,
    RestrictedElement,
    cauchy_limit_check,
    family_seminorm,
    lipschitz_bound_check,
    neighborhood_inclusion_check,
    neighborhood_openness_check,
    product_iso_roundtrip,
    restrict_scenario_outputs,
    sim_compose,
    sim_invert,
    sim_multilinear,
    sim_multiply,
    sim_power_series,
    sim_superpose,
)
from wrp.seminorms import WeightedFunction, lattice, weighted_seminorm
from wrp.spaces import (
    DominanceCertificate,
    FactorizationCertificate,
    FamilyWeight,
    ball,
    box,
    check_dominance_certificate,
    const_weight,
    scaled_weight,
)

U = box([-1.0], [1.0])
GRID = lattice(U, spacing=0.1)


def one_family(n):
    return FamilyWeight("one", tuple(const_weight("one", 1.0) for _ in range(n)))


def _gate(cert, factors):
    """The certificate's check on the factors' U grids, which gates sim_multiply."""
    return check_dominance_certificate(cert, [fs.grid_u.points for fs in factors])


def _inverses(phis, factors, cfg):
    """Factor i's gated inverse, the shared product sim_invert reads."""
    return lambda i: gated_inverse(phis[i], factors[i].u, factors[i].v_tilde, cfg)


def scaled_identity_element(scales, order=2):
    return RestrictedElement(
        tuple(
            WeightedFunction(
                PolynomialMap(U, [([s], (1,))]), GRID, order,
                (("one", 0, abs(s)), ("one", 1, abs(s))),
            )
            for s in scales
        )
    )


class TestFamilySeminorm:
    def test_single_factor(self):
        elem = scaled_identity_element([1.0])
        fam = family_seminorm(elem, one_family(1), 0)
        single = weighted_seminorm(elem[0], const_weight("one", 1.0), 0).value
        assert fam.value == single

    def test_max_and_argmax(self):
        elem = scaled_identity_element([1.0 / 3.0, 7.0 / 9.0])
        fam = family_seminorm(elem, one_family(2), 0)
        assert fam.argmax == 1
        assert fam.value == pytest.approx(7.0 / 9.0 * 0.9)

    def test_eight_factors_reciprocal(self):
        # gamma_i = x / i on the step-0.1 lattice: factor 1 dominates at 0.9
        elem = scaled_identity_element([1.0 / i for i in range(1, 9)])
        fam = family_seminorm(elem, one_family(8), 0)
        assert fam.value == pytest.approx(0.9)
        assert fam.argmax == 0

    def test_permutation_and_zero_factor_invariance(self):
        elem = scaled_identity_element([0.3, 0.8, 0.5])
        value = family_seminorm(elem, one_family(3), 0).value
        perm = RestrictedElement((elem[2], elem[0], elem[1]))
        assert family_seminorm(perm, one_family(3), 0).value == value
        zero = WeightedFunction(ConstMap(U, [0.0]), GRID, 2)
        padded = RestrictedElement(elem.factors + (zero,))
        assert family_seminorm(padded, one_family(4), 0).value == value


class TestLipschitz:
    def test_constant_family(self):
        elem = scaled_identity_element([0.5, 0.7])
        rep = lipschitz_bound_check(
            lambda t: elem, [0.0, 0.5, 1.0], one_family(2), 0, [0.7, 0.7]
        )
        assert rep.status == "pass"

    def test_linear_in_parameter_equality_up_to_grid_gap(self):
        elem = scaled_identity_element([1.0, 0.5])
        rep = lipschitz_bound_check(
            lambda t: elem.scaled(t), [0.0, 1.0], one_family(2), 0, [1.0, 0.5]
        )
        assert rep.status == "pass"
        # the grid gap is the only slack: sup |x| = 1 vs grid 0.9
        assert rep.margin == pytest.approx(0.1, abs=1e-12)

    def test_sine_family(self):
        elem = scaled_identity_element([1.0, 0.4])
        lips = [elem[i].require_bound("one", 0) for i in range(2)]
        rep = lipschitz_bound_check(
            lambda t: elem.scaled(math.sin(t)),
            [0.0, 0.3, 0.9, 1.4, 2.0], one_family(2), 0, lips,
        )
        assert rep.status == "pass" and rep.margin >= 0

    def test_violated_certificate_fails(self):
        elem = scaled_identity_element([1.0])
        rep = lipschitz_bound_check(
            lambda t: elem.scaled(t), [0.0, 1.0], one_family(1), 0, [0.5]
        )
        assert rep.status == "fail"
        assert rep.witness == (0.0, 1.0)


class TestProductIso:
    def _paired(self, n=2):
        out = []
        for i in range(1, n + 1):
            pm = PairMap(
                [
                    PolynomialMap(U, [([1.0 / i], (1,))]),
                    PolynomialMap(U, [([0.5 / i], (2,))]),
                ]
            )
            out.append(WeightedFunction(pm, GRID, 2))
        return RestrictedElement(tuple(out))

    def test_roundtrip(self):
        rep = product_iso_roundtrip(self._paired(), one_family(2), 1)
        assert rep.status == "pass"

    def test_zero_second_block(self):
        pm = PairMap([PolynomialMap(U, [([1.0], (1,))]), ConstMap(U, [0.0])])
        elem = RestrictedElement((WeightedFunction(pm, GRID, 2),))
        rep = product_iso_roundtrip(elem, one_family(1), 0)
        assert rep.status == "pass"

    def test_undeclared_product_rejected(self):
        elem = scaled_identity_element([1.0])
        with pytest.raises(ShapeError):
            product_iso_roundtrip(elem, one_family(1), 0)

    def test_roundtrip_fails_when_the_bits_move(self, drifting):
        elem = self._paired()
        moved = WeightedFunction(drifting(elem[1].map), elem[1].grid, elem[1].max_order)
        rep = product_iso_roundtrip(RestrictedElement((elem[0], moved)), one_family(2), 1)
        assert rep.check_id == "lem:pktwProduktLInf"
        assert rep.status == "fail" and rep.lhs == math.inf
        assert rep.detail == "recombination not bit-exact on factor 1"


class TestCauchy:
    def test_constant_sequence(self):
        elem = scaled_identity_element([0.5])
        rep = cauchy_limit_check(
            [elem, elem, elem], elem, one_family(1), 0,
            increment_envelope=lambda n: 0.0,
            tail_envelope=lambda n: 0.0,
        )
        assert rep.status == "pass"

    def test_geometric_partial_sums_hundred_factors(self):
        n_factors = 100
        base = scaled_identity_element([1.0] * n_factors)
        elements = [base.scaled(2.0 - 2.0 ** (-k)) for k in range(8)]
        limit = base.scaled(2.0)
        rep = cauchy_limit_check(
            elements, limit, one_family(n_factors), 0,
            increment_envelope=lambda k: 2.0 ** (-(k + 1)) * 0.9,
            tail_envelope=lambda k: 2.0 ** (-k) * 0.9,
        )
        assert rep.status == "pass"
        # envelope is met with equality on the grid
        assert rep.margin == pytest.approx(0.0, abs=1e-12)

    def test_per_factor_varying_rates(self):
        # rates 2^{-n}/i: the family seminorm of the tail is factor 1's rate
        scales = [1.0 / i for i in range(1, 6)]
        base = scaled_identity_element(scales)
        elements = [base.scaled(1.0 - 2.0 ** (-k)) for k in range(6)]
        limit = base
        rep = cauchy_limit_check(
            elements, limit, one_family(5), 0,
            increment_envelope=lambda k: 2.0 ** (-(k + 1)) * 0.9,
            tail_envelope=lambda k: 2.0 ** (-k) * 0.9,
        )
        assert rep.status == "pass"

    def test_envelope_violation_fails(self):
        elem = scaled_identity_element([1.0])
        rep = cauchy_limit_check(
            [elem.scaled(0.0), elem], elem, one_family(1), 0,
            increment_envelope=lambda n: 0.1,
            tail_envelope=lambda n: 2.0,
        )
        assert rep.status == "fail"


class TestNeighborhoods:
    def test_inclusion_worked_example(self):
        # V_i = ball(0, d_i) with d = (1, 0.5), omega_i = max(1/d_i, 1),
        # tau = 0.4, eta_i = 0.1: norm 0.2 < 0.4 and margins (0.1, 0)
        v_domains = [ball([0.0], 1.0), ball([0.0], 0.5)]
        omega = FamilyWeight(
            "omega", (const_weight("omega", 1.0), const_weight("omega", 2.0))
        )
        eta = RestrictedElement(
            tuple(WeightedFunction(ConstMap(U, [0.1]), GRID, 1) for _ in range(2))
        )
        rep = neighborhood_inclusion_check(eta, omega, v_domains, 0.4)
        assert rep.status == "pass"
        # factor 2 is tight: 0.1 + 0.2/2 = 0.2 = 0.4 * 0.5
        assert rep.margin == pytest.approx(0.0, abs=1e-12)
        assert rep.witness[0] == 1

    def test_zero_element_always_inside(self):
        v_domains = [ball([0.0], 0.7)]
        omega = FamilyWeight("omega", (const_weight("omega", 2.0),))
        zero = RestrictedElement((WeightedFunction(ConstMap(U, [0.0]), GRID, 1),))
        rep = neighborhood_inclusion_check(zero, omega, v_domains, 0.3)
        assert rep.status == "pass"

    def test_hypothesis_gate(self):
        v_domains = [ball([0.0], 1.0)]
        omega = FamilyWeight("omega", (const_weight("omega", 1.0),))
        eta = RestrictedElement((WeightedFunction(ConstMap(U, [0.5]), GRID, 1),))
        with pytest.raises(PreconditionError):
            neighborhood_inclusion_check(eta, omega, v_domains, 0.4)

    def test_sabotaged_weight_fails_past_threshold(self):
        # weight below the adjusting threshold: the containment margin is
        # tau (d - 1/w) < 0, so the check fails as soon as tau passes the
        # analytic threshold nu = |eta|_omega that activates the hypothesis
        d = 0.8
        v_domains = [ball([0.0], d)]
        w_val = 0.5 * max(1.0 / d, 1.0)  # deliberately below max(1/d, 1)
        bad_omega = FamilyWeight("omega", (const_weight("omega", w_val),))
        eta = RestrictedElement((WeightedFunction(ConstMap(U, [0.25]), GRID, 1),))
        tau_star = w_val * 0.25  # = |eta|_omega
        with pytest.raises(PreconditionError):
            neighborhood_inclusion_check(eta, bad_omega, v_domains, 0.9 * tau_star)
        bad = neighborhood_inclusion_check(eta, bad_omega, v_domains, 1.2 * tau_star)
        assert bad.status == "fail"
        # the honest weight passes above its own (larger) hypothesis boundary
        good_omega = FamilyWeight("omega", (const_weight("omega", 1.0 / d),))
        good = neighborhood_inclusion_check(
            eta, good_omega, v_domains, 1.2 * (0.25 / d)
        )
        assert good.status == "pass"

    def test_boundary_value_within_tolerance_is_not_a_member(self):
        # the value 0.5 lies on the boundary of tau V = (-0.5, 0.5); its row
        # 0.5 + s / w = 0.5 + 5e-14 passes within the tolerance 1e-12, so
        # only the membership of the value in the open tau V fails it
        omega = FamilyWeight("omega", (const_weight("omega", 1.0 - 1e-13),))
        eta = RestrictedElement((WeightedFunction(ConstMap(U, [0.5]), GRID, 1),))
        rep = neighborhood_inclusion_check(eta, omega, [ball([0.0], 1.0)], 0.5)
        assert rep.status == "fail" and -1e-12 <= rep.margin <= 0
        assert rep.detail == "scaled-domain membership violated"

    def test_openness(self):
        v_domains = [ball([0.0], 1.0)]
        omega = FamilyWeight("omega", (const_weight("omega", 1.2),))
        gamma = RestrictedElement((WeightedFunction(ConstMap(U, [0.2]), GRID, 1),))
        near = RestrictedElement((WeightedFunction(ConstMap(U, [0.25]), GRID, 1),))
        rep = neighborhood_openness_check(gamma, near, omega, v_domains, 0.3)
        assert rep.status == "pass"
        # remaining clearance oracle: s = 0.3 - 1.2*0.05; dist = 0.75
        s = 0.3 - 1.2 * 0.05
        assert rep.margin == pytest.approx(0.75 - s / 1.2, abs=1e-12)

    def test_openness_fails_off_the_base_grid(self):
        # gamma = x is checked for clearance 0.3 on a grid inside [-0.6, 0.6]
        # only; eta = x + 0.01 on the full grid reaches 0.91, where the
        # distance 0.09 to the boundary is below s = 0.3 - 0.01.  Both
        # factors are equal, so the first worst row is factor 0's x = 0.9
        v_domains = [ball([0.0], 1.0)] * 2
        omega = one_family(2)
        inner = lattice(box([-0.6], [0.6]), spacing=0.1)
        gamma = RestrictedElement(
            (WeightedFunction(PolynomialMap(U, [([1.0], (1,))]), inner, 1),) * 2
        )
        eta = RestrictedElement((WeightedFunction(
            PolynomialMap(U, [([0.01], (0,)), ([1.0], (1,))]), GRID, 1),) * 2)
        rep = neighborhood_openness_check(gamma, eta, omega, v_domains, 0.3)
        assert rep.status == "fail"
        top = float(GRID.points[:, 0].max())
        assert rep.witness == (0, top)
        assert rep.lhs == pytest.approx(0.29) and rep.rhs == 1.0 - (0.01 + top)
        assert rep.detail == "factor 0: remaining adjusted clearance"

    def test_openness_gate_on_base_clearance(self):
        v_domains = [ball([0.0], 0.3)]
        omega = FamilyWeight("omega", (const_weight("omega", 1.0),))
        gamma = RestrictedElement((WeightedFunction(ConstMap(U, [0.25]), GRID, 1),))
        with pytest.raises(PreconditionError):
            neighborhood_openness_check(gamma, gamma, omega, v_domains, 0.5)


def two_factor_spaces():
    out = []
    for s in (1.0, 1.2):
        u = box([-s], [s])
        out.append(
            FactorSpace(
                u=u,
                grid_u=lattice(u, per_axis=9),
                v=ball([0.0], 0.6),
                w=box([-1.9], [1.9]),
                grid_w=lattice(box([-1.9], [1.9]), per_axis=9),
                v_tilde=box([-0.3], [0.3]),
                grid_vt=lattice(box([-0.3], [0.3]), per_axis=5),
            )
        )
    return out


class TestSimMultiply:
    def test_zero_argument(self):
        factors = two_factor_spaces()
        mults = [
            WeightedFunction(AffineMap(fs.u, [[1.0]]), fs.grid_u, 2)
            for fs in factors
        ]
        bil = [np.array([[[1.0]]])] * 2
        zeros = RestrictedElement(
            tuple(WeightedFunction(ConstMap(fs.u, [0.0]), fs.grid_u, 2) for fs in factors)
        )
        fam = one_family(2)
        g = FamilyWeight(
            "g", tuple(scaled_weight(const_weight("one", 1.0), 1.2, name="g") for _ in range(2))
        )
        cert = DominanceCertificate(fam, 0, g, (1.2, 1.2))
        res, rep = sim_multiply(mults, bil, zeros, fam, cert, _gate(cert, factors))
        assert rep.status == "pass"
        assert family_seminorm(res, fam, 0).value == 0.0

    def test_identity_multiplier(self):
        factors = two_factor_spaces()
        mults = [
            WeightedFunction(ConstMap(fs.u, [1.0]), fs.grid_u, 2) for fs in factors
        ]
        bil = [np.array([[[1.0]]])] * 2
        x = RestrictedElement(
            tuple(
                WeightedFunction(PolynomialMap(fs.u, [([0.5], (1,))]), fs.grid_u, 2)
                for fs in factors
            )
        )
        fam = one_family(2)
        g = FamilyWeight(
            "g", tuple(scaled_weight(const_weight("one", 1.0), 1.0, name="g") for _ in range(2))
        )
        cert = DominanceCertificate(fam, 0, g, (1.0, 1.0))
        res, rep = sim_multiply(mults, bil, x, fam, cert, _gate(cert, factors))
        assert rep.status == "pass"
        for i, fs in enumerate(factors):
            pts = fs.grid_u.points[::3]
            assert res[i].map.tensors(pts, 0) == pytest.approx(x[i].map.tensors(pts, 0))

    def test_scaled_multipliers_with_per_factor_weights(self):
        # M_i = i x on box(-1, 1), f = 1, g_i = i (|I| = 3)
        factors = []
        for _ in range(3):
            u = box([-1.0], [1.0])
            factors.append(FactorSpace(u=u, grid_u=lattice(u, spacing=0.1)))
        mults = [
            WeightedFunction(AffineMap(factors[i].u, [[float(i + 1)]]), factors[i].grid_u, 2)
            for i in range(3)
        ]
        bil = [np.array([[[1.0]]])] * 3
        x = RestrictedElement(
            tuple(
                WeightedFunction(PolynomialMap(factors[i].u, [([1.0], (1,))]),
                                 factors[i].grid_u, 2)
                for i in range(3)
            )
        )
        fam = one_family(3)
        g = FamilyWeight(
            "g",
            tuple(
                scaled_weight(const_weight("one", 1.0), float(i + 1), name="g")
                for i in range(3)
            ),
        )
        cert = DominanceCertificate(fam, 0, g, (1.0, 2.0, 3.0))
        res, rep = sim_multiply(mults, bil, x, fam, cert, _gate(cert, factors))
        assert rep.status == "pass"
        # oracle: result_i = i x^2 with grid sup i * 0.81; family g-norm 3*0.9
        assert rep.lhs == pytest.approx(3 * 0.81)
        assert rep.rhs == pytest.approx(3 * 0.9)


class TestSimMultilinear:
    def test_any_zero_argument_gives_zero(self):
        factors = two_factor_spaces()
        betas = [np.array([[[2.0]]])] * 2
        x1 = RestrictedElement(
            tuple(
                WeightedFunction(PolynomialMap(fs.u, [([1.0], (1,))]), fs.grid_u, 2)
                for fs in factors
            )
        )
        zeros = RestrictedElement(
            tuple(WeightedFunction(ConstMap(fs.u, [0.0]), fs.grid_u, 2) for fs in factors)
        )
        fam = one_family(2)
        fact = FactorizationCertificate(fam, (fam, fam))
        res, rep = sim_multilinear(
            betas, [x1, zeros], fam, fact, [fs.grid_u.points for fs in factors]
        )
        assert rep.status == "pass"
        assert family_seminorm(res, fam, 0).value == 0.0

    def test_product_bound(self):
        factors = two_factor_spaces()
        betas = [np.array([[[1.0]]]), np.array([[[0.5]]])]
        x1 = RestrictedElement(
            tuple(
                WeightedFunction(PolynomialMap(fs.u, [([0.8], (1,))]), fs.grid_u, 2)
                for fs in factors
            )
        )
        x2 = RestrictedElement(
            tuple(
                WeightedFunction(PolynomialMap(fs.u, [([0.6], (2,))]), fs.grid_u, 2)
                for fs in factors
            )
        )
        fam = one_family(2)
        fact = FactorizationCertificate(fam, (fam, fam))
        _, rep = sim_multilinear(
            betas, [x1, x2], fam, fact, [fs.grid_u.points for fs in factors]
        )
        assert rep.status == "pass" and rep.margin >= 0


class TestSimPowerSeries:
    def test_zero_element(self):
        factors = two_factor_spaces()
        zeros = RestrictedElement(
            tuple(WeightedFunction(ConstMap(fs.u, [0.0]), fs.grid_u, 0) for fs in factors)
        )
        res, rep = sim_power_series(zeros, 1, 0.5)
        assert rep.status == "pass"
        for i, fs in enumerate(factors):
            assert res[i].map.tensors(fs.grid_u.points[:1], 0) == pytest.approx(0.0)

    def test_constant_half(self):
        factors = two_factor_spaces()
        halves = RestrictedElement(
            tuple(WeightedFunction(ConstMap(fs.u, [0.5]), fs.grid_u, 0) for fs in factors)
        )
        res, rep = sim_power_series(halves, 1, 0.6)
        assert rep.status == "pass"
        for i, fs in enumerate(factors):
            got = res[i].map.tensors(fs.grid_u.points[2:3], 0)
            assert got == pytest.approx(-1.0, abs=2e-12)

    def test_scalar_cubic_closed_form(self):
        factors = two_factor_spaces()
        elem = RestrictedElement(
            tuple(
                WeightedFunction(PolynomialMap(fs.u, [([0.2], (3,))]), fs.grid_u, 0)
                for fs in factors
            )
        )
        res, rep = sim_power_series(elem, 1, 0.35)
        assert rep.status == "pass"
        for i, fs in enumerate(factors):
            pts = fs.grid_u.points[::4]
            q = [0.2 * p[0] ** 3 for p in pts]
            assert res[i].map.tensors(pts, 0)[:, 0] == pytest.approx(
                [-qk / (1 - qk) for qk in q], abs=5e-12
            )

    def test_spectral_witness(self):
        factors = two_factor_spaces()
        elem = RestrictedElement(
            tuple(WeightedFunction(ConstMap(fs.u, [0.9]), fs.grid_u, 0) for fs in factors)
        )
        _, rep = sim_power_series(elem, 1, 0.5)
        assert rep.status == "fail"
        assert "spectral" in rep.detail


class TestSimSuperpose:
    def _run(self, sc, g, directions=None):
        gate = neighborhood_inclusion_check(
            sc.gammas, sc.fw("omega"), [fs.v for fs in sc.factors], sc.tau_nb)
        return sim_superpose(
            sc.xis, sc.gammas, sc.fw("gauss"), g, gate, directions=directions,
        )

    def _dominating(self, sc):
        return next(
            c.g for c in sc.dominance
            if c.context == "sp" and c.f.name == "gauss" and c.ell == 1
        )

    def test_seed0_passes_with_family_ids_only(self, scenario0):
        res, reports = self._run(
            scenario0, self._dominating(scenario0), scenario0.gamma_dirs
        )
        assert len(res) == scenario0.n_factors
        assert [r.check_id for r in reports] == [
            "prop:simultane_SP_BCinf0_Produkt",
            "lem:Abb_nach_Linf_Ck_wenn_Komp_Ck_mit_stetigem_Diff",
        ]
        assert all(r.status == "pass" for r in reports)

    def test_shrunk_dominating_family_fails(self, scenario0):
        g = self._dominating(scenario0)
        small = FamilyWeight(
            g.name, tuple(scaled_weight(w, 1e-3, w.name) for w in g.factors)
        )
        _, reports = self._run(scenario0, small)
        assert [r.check_id for r in reports] == ["prop:simultane_SP_BCinf0_Produkt"]
        assert reports[0].status == "fail"


class TestSimComposeInvert:
    def _omega(self, n):
        return FamilyWeight(
            "omega", tuple(const_weight("omega", 2.0) for _ in range(n))
        )

    def test_compose_closed_forms(self):
        factors = two_factor_spaces()
        n = len(factors)
        gammas = RestrictedElement(
            tuple(
                WeightedFunction(PolynomialMap(fs.w, [([1.0], (2,))]), fs.grid_w, 3,
                                 (("one", 1, 3.8),))
                for fs in factors
            )
        )
        consts = (0.1, -0.05)
        etas = RestrictedElement(
            tuple(
                WeightedFunction(ConstMap(fs.u, [consts[i]]), fs.grid_u, 3)
                for i, fs in enumerate(factors)
            )
        )
        res, reports = sim_compose(
            gammas, etas, factors, self._omega(n), one_family(n), 0.4,
        )
        for i, fs in enumerate(factors):
            pts = fs.grid_u.points[::3]
            assert res[i].map.tensors(pts, 0)[:, 0] == pytest.approx(
                [(p[0] + consts[i]) ** 2 for p in pts], abs=1e-13
            )
        assert all(r.status == "pass" for r in reports)
        # the single-factor estimates are the compose runner's, not these
        assert {r.check_id for r in reports} == {"prop:Simultane_Koor-Kompo_diffbar"}

    def test_invert_closed_form_linear_family(self):
        factors = two_factor_spaces()
        n = len(factors)
        cs = (0.05, 0.1)
        phis = RestrictedElement(
            tuple(
                WeightedFunction(
                    AffineMap(fs.u, [[cs[i]]]), fs.grid_u, 2,
                    (
                        ("one", 0, cs[i] * fs.u.hi[0]),
                        ("one", 1, cs[i]),
                    ),
                )
                for i, fs in enumerate(factors)
            )
        )
        cfg = ContractionConfig(tau=0.5, r=0.5, fix_tol=1e-13)
        res, reports = sim_invert(phis, factors, cfg, one_family(n), _inverses(phis, factors, cfg))
        for i, fs in enumerate(factors):
            ys = fs.grid_vt.points
            expect = [-cs[i] / (1 + cs[i]) * y[0] for y in ys]
            assert res[i].map.tensors(ys, 0)[:, 0] == pytest.approx(expect, abs=1e-12)
        assert all(r.status == "pass" for r in reports)
        assert {r.check_id for r in reports} == {"prop:Simultane_Inv-Kompo_glatt"}

    def test_invert_family_gate(self):
        factors = two_factor_spaces()
        phis = RestrictedElement(
            tuple(
                WeightedFunction(
                    AffineMap(fs.u, [[0.4]]), fs.grid_u, 2,
                    (("one", 0, 0.48), ("one", 1, 0.4)),
                )
                for fs in factors
            )
        )
        with pytest.raises(PreconditionError):
            cfg = ContractionConfig(tau=0.5, r=0.5)
            sim_invert(phis, factors, cfg, one_family(2), _inverses(phis, factors, cfg))

    def test_factor_restriction_bit_identity(self):
        factors = two_factor_spaces()
        cs = (0.05, 0.08)
        phis = RestrictedElement(
            tuple(
                WeightedFunction(
                    AffineMap(fs.u, [[cs[i]]]), fs.grid_u, 2,
                    (("one", 0, cs[i] * fs.u.hi[0]), ("one", 1, cs[i])),
                )
                for i, fs in enumerate(factors)
            )
        )
        cfg = ContractionConfig(tau=0.5, r=0.5)

        def apply_fn(indices):
            inverse = _inverses(phis, factors, cfg)
            return RestrictedElement(tuple(
                invert_perturbed(phis[i], inverse(i), factors[i].grid_vt)[0] for i in indices))

        rep = restrict_scenario_outputs(apply_fn([0, 1]), apply_fn, [1])
        assert rep.status == "pass" and rep.lhs == 0.0

    def test_factor_restriction_fails_on_a_one_ulp_change(self):
        factors = two_factor_spaces()

        def element(cs):
            return RestrictedElement(tuple(
                WeightedFunction(PolynomialMap(fs.u, [([c], (2,))]), fs.grid_u, 2)
                for c, fs in zip(cs, factors)
            ))

        full = element((0.3, 0.4))
        moved = element((0.3, math.nextafter(0.4, 1.0)))
        rep = restrict_scenario_outputs(
            full, lambda indices: RestrictedElement(tuple(moved[i] for i in indices)), [1])
        assert rep.check_id == "sim:factor_restriction"
        assert rep.status == "fail" and rep.lhs == math.inf
        assert restrict_scenario_outputs(
            full, lambda indices: RestrictedElement(tuple(moved[i] for i in indices)),
            [0]).status == "pass"
