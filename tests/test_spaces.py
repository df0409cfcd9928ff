import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wrp.errors import CertificateRequiredError, DataError, DomainMembershipError, GeometryError
from wrp.spaces import (
    MAX_POWER,
    DominanceCertificate,
    FactorizationCertificate,
    FamilyWeight,
    Weight,
    ball,
    box,
    check_adjusting_weight,
    check_dominance_certificate,
    check_factorization_certificate,
    const_weight,
    desc_powers,
    gaussian_weight,
    product_box,
    scaled_weight,
    two_plus_sin_weight,
    validate_weight_on_points,
    weight_from_desc,
    weight_to_desc,
)


def sample_boundary_distance(domain, point, n=4000, seed=7):
    """Independent oracle: distance to the nearest of many sampled
    boundary points (a lower-biased estimate of the true distance)."""
    rng = np.random.default_rng(seed)
    lo, hi = domain.bounding_box()

    def norm_of(v) -> float:
        if domain.space.norm_kind == "sup":
            return float(np.max(np.abs(v)))
        return float(np.linalg.norm(v))

    best = math.inf
    for _ in range(n):
        x = rng.uniform(lo, hi)
        # project onto the boundary
        if domain.kind == "box":
            axis = rng.integers(domain.dim)
            x[axis] = lo[axis] if rng.random() < 0.5 else hi[axis]
        else:
            c = np.asarray(domain.center)
            v = x - c
            norm = norm_of(v)
            if norm == 0:
                continue
            x = c + v * domain.radius / norm
        best = min(best, norm_of(x - np.asarray(point, float)))
    return best


class TestBoundaryDistance:
    def test_ball_center(self):
        assert ball([0.0], 1.0).boundary_distance([0.0]) == 1.0

    def test_box_interior_point(self):
        assert box([-2.0], [2.0]).boundary_distance([0.5]) == 1.5

    def test_box_2d_sup_against_sampling(self):
        d = box([-1.0, -3.0], [1.0, 3.0])
        got = d.boundary_distance([0.2, 0.0])
        assert got == pytest.approx(0.8, abs=1e-12)
        oracle = sample_boundary_distance(d, [0.2, 0.0])
        assert got <= oracle + 1e-9
        assert oracle - got <= 0.05  # dense sampling comes close

    def test_euclidean_ball_against_sampling(self):
        d = ball([0.5, 0.0], 1.2, norm_kind="euclidean")
        p = [0.8, 0.3]
        got = d.boundary_distance(p)
        oracle = sample_boundary_distance(d, p)
        assert abs(got - oracle) <= 0.02
        assert got <= oracle + 1e-9

    def test_outside_point_rejected(self):
        with pytest.raises(DomainMembershipError):
            box([-1.0], [1.0]).boundary_distance([1.5])

    def test_positive_and_shrinking_toward_boundary(self):
        d = box([-1.0, -1.0], [1.0, 1.0])
        previous = math.inf
        for t in (0.0, 0.3, 0.6, 0.9):
            dist = d.boundary_distance([t, 0.0])
            assert 0 < dist <= previous
            previous = dist


class TestDomainGeometry:
    def test_flags(self):
        b = ball([0.0, 0.0], 1.0)
        assert b.star_shaped_at_zero and b.balanced
        asym = box([-1.0], [2.0])
        assert asym.star_shaped_at_zero and not asym.balanced
        sym = box([-1.0, -2.0], [1.0, 2.0])
        assert sym.balanced and sym.star_shaped_at_zero

    def test_minkowski_sum_boxes(self):
        a = box([-1.0], [1.0])
        b = ball([0.0], 0.5)  # sup ball == box
        s = a.minkowski_sum(b)
        assert s.lo == (-1.5,) and s.hi == (1.5,)

    def test_containment(self):
        w = box([-2.0], [2.0])
        assert w.contains_set(box([-1.0], [1.0]).minkowski_sum(ball([0.0], 1.0)))
        assert not w.contains_set(box([-1.5], [1.5]).minkowski_sum(ball([0.0], 1.0)))

    def test_scaling(self):
        v = ball([0.0], 0.8)
        assert v.scaled(0.5).radius == 0.4
        b = box([-1.0], [3.0])
        assert b.scaled(2.0).hi == (6.0,)

    def test_euclidean_balls_add_as_balls(self):
        a = ball([0.5, 0.0], 1.0, norm_kind="euclidean")
        s = a.minkowski_sum(ball([0.0, -0.25], 0.5, norm_kind="euclidean"))
        assert (s.kind, s.center, s.radius, s.space.norm_kind) == (
            "ball", (0.5, -0.25), 1.5, "euclidean")
        with pytest.raises(GeometryError, match="mixed shapes"):
            a.minkowski_sum(box([-1.0, -1.0], [1.0, 1.0]))
        with pytest.raises(GeometryError, match="mixed shapes"):
            a.minkowski_sum(ball([0.0, 0.0], 1.0))

    def test_containment_in_a_euclidean_ball(self):
        outer = ball([0.0, 0.0], 2.0, norm_kind="euclidean")
        # a ball of the same norm: centre shift plus radius
        assert outer.contains_set(ball([0.6, 0.8], 1.0, norm_kind="euclidean"))
        assert not outer.contains_set(ball([0.6, 0.8], 1.01, norm_kind="euclidean"))
        # a box, or a sup ball rewritten as one: every corner
        assert outer.contains_set(box([-1.4, -1.4], [1.4, 1.4]))
        assert not outer.contains_set(box([-1.0, -1.0], [1.5, 1.5]))
        assert outer.contains_set(ball([0.0, 0.0], 1.4))
        assert not outer.contains_set(ball([0.0, 0.0], 1.5))

    def test_sup_ball_contains_as_its_box(self):
        outer = ball([0.0, 0.0], 1.0)
        assert outer.contains_set(box([-1.0, -0.5], [1.0, 0.5]))
        assert not outer.contains_set(ball([0.5, 0.0], 0.75))

    def test_product_box(self):
        p = product_box(box([-1.0], [1.0]), ball([0.0], 0.5))
        assert p.dim == 2 and p.lo == (-1.0, -0.5)

    def test_empty_box_rejected(self):
        with pytest.raises(GeometryError):
            box([1.0], [1.0])


class TestWeights:
    def test_nan_rejected(self):
        w = Weight("bad", lambda x: float("nan"))
        with pytest.raises(DataError, match=r"'bad' evaluated to NaN at \[0\.25\]"):
            w(np.array([0.25]))

    def test_infinity_allowed(self):
        w = Weight("inf", lambda x: math.inf)
        assert w(np.array([0.0])) == math.inf

    def test_certificate_validation(self):
        pts = np.linspace(-1, 1, 11).reshape(-1, 1)
        good = const_weight("c", 2.0)
        validate_weight_on_points(good, pts)
        bad = Weight("c", lambda x: 2.0, certified_sup=1.0)
        with pytest.raises(DataError):
            validate_weight_on_points(bad, pts)
        low = Weight("c", lambda x: 2.0, certified_inf=3.0)
        with pytest.raises(DataError):
            validate_weight_on_points(low, pts)

    def test_gaussian_inf_certificate_holds_on_grid(self):
        dom = box([-1.5], [1.5])
        w = gaussian_weight("g", 0.7, dom)
        pts = np.linspace(-1.4, 1.4, 23).reshape(-1, 1)
        validate_weight_on_points(w, pts)

    def test_descriptor_roundtrip(self):
        dom = box([-1.0, -1.0], [1.0, 1.0])
        for w in (
            const_weight("a", 2.5),
            gaussian_weight("b", 0.4, dom),
            two_plus_sin_weight("c", [1.0, -0.5], scale=1.5),
            scaled_weight(gaussian_weight("d", 0.4, dom), 3.0, name="d"),
        ):
            back = weight_from_desc(weight_to_desc(w), w.name, dom)
            x = np.array([0.3, -0.2])
            assert back(x) == pytest.approx(w(x), rel=1e-15)
            assert back.certified_sup == w.certified_sup
            assert back.certified_inf == w.certified_inf


def grids_1d(lo=-3.0, hi=3.0, n=61):
    return [np.linspace(lo, hi, n).reshape(-1, 1)]


class TestAdjustingWeight:
    def test_constant_threshold_formula(self):
        # factor radii (2, 0.5): thresholds max(1/r, 1) = (1, 2)
        omega = FamilyWeight(
            "w", (const_weight("w", 1.0), const_weight("w", 2.0))
        )
        rep = check_adjusting_weight(
            omega, [2.0, 0.5], [np.zeros((3, 1)), np.zeros((3, 1))]
        )
        assert rep.status == "pass"
        assert rep.margin == pytest.approx(0.0, abs=1e-12)

    def test_below_threshold_fails_with_witness(self):
        omega = FamilyWeight("w", (const_weight("w", 0.9),))
        rep = check_adjusting_weight(omega, [1.0], [np.zeros((2, 1))])
        assert rep.status == "fail"
        assert rep.witness[0] == 0

    def test_two_plus_sin_grid_inf(self):
        # oracle: dense grid minimum of 2 + sin(x) on [-3, 3]
        dense = np.linspace(-2.99, 2.99, 5001)
        oracle_inf = float(np.min(2.0 + np.sin(dense)))
        assert oracle_inf >= 1.0
        omega = FamilyWeight("w", (two_plus_sin_weight("w", [1.0]),))
        rep = check_adjusting_weight(omega, [1.0], grids_1d())
        assert rep.status == "pass"
        assert omega.factors[0].certified_sup == 3.0

    def test_nonpositive_radius_rejected(self):
        omega = FamilyWeight("w", (const_weight("w", 2.0),))
        with pytest.raises(DataError):
            check_adjusting_weight(omega, [0.0], grids_1d())

    def test_infinite_radius_threshold_is_one(self):
        omega = FamilyWeight("w", (const_weight("w", 1.0),))
        rep = check_adjusting_weight(omega, [math.inf], grids_1d())
        assert rep.status == "pass" and rep.lhs == 1.0

    def test_missing_sup_certificate(self):
        w = Weight("w", lambda x: 2.0)  # no certified sup
        with pytest.raises(CertificateRequiredError):
            check_adjusting_weight(FamilyWeight("w", (w,)), [1.0], grids_1d())

    @given(st.floats(min_value=0.05, max_value=5.0))
    @settings(max_examples=20, deadline=None)
    def test_constant_weights_pass_iff_above_threshold(self, c):
        radii = [2.0, 0.5]
        threshold = max(max(1.0 / r, 1.0) for r in radii)
        omega = FamilyWeight("w", (const_weight("w", c), const_weight("w", c)))
        rep = check_adjusting_weight(
            omega, radii, [np.zeros((2, 1)), np.zeros((2, 1))]
        )
        assert (rep.status == "pass") == (c >= threshold)


class TestDominance:
    def test_identity_dominance(self):
        f = FamilyWeight("f", (const_weight("f", 1.0),))
        cert = DominanceCertificate(f, 1, f, (1.0,))
        rep = check_dominance_certificate(cert, grids_1d())
        assert rep.status == "pass" and rep.margin == pytest.approx(0.0)

    def test_constants(self):
        f = FamilyWeight("f", (const_weight("f", 1.0),))
        g = FamilyWeight("g", (const_weight("g", 2.0),))
        rep = check_dominance_certificate(
            DominanceCertificate(f, 1, g, (2.0,)), grids_1d()
        )
        assert rep.status == "pass" and rep.margin == pytest.approx(0.0)

    def test_gaussian_pair_margin_matches_grid_oracle(self):
        dom = box([-1.0], [1.0])
        f1 = gaussian_weight("f", 1.0, dom)
        g1 = scaled_weight(f1, 5.0, name="g")
        f = FamilyWeight("f", (f1, f1))
        g = FamilyWeight("g", (g1, g1))
        pts = np.linspace(-1, 1, 21).reshape(-1, 1)
        rep = check_dominance_certificate(
            DominanceCertificate(f, 1, g, (3.0, 5.0)), [pts, pts]
        )
        # factor 2 is tight (margin 0 at every point is false; min margin over
        # factor 1 is 2 e^{-x^2} minimized at the grid edge)
        oracle = min(
            min(5 * math.exp(-x * x) - 3 * math.exp(-x * x) for x in pts.ravel()),
            0.0,
        )
        assert rep.status == "pass"
        assert rep.margin == pytest.approx(max(oracle, 0.0), abs=1e-12)

    def test_violation_carries_witness(self):
        f = FamilyWeight("f", (const_weight("f", 1.0),))
        g = FamilyWeight("g", (const_weight("g", 0.5),))
        rep = check_dominance_certificate(
            DominanceCertificate(f, 1, g, (1.0,)), grids_1d()
        )
        assert rep.status == "fail"
        assert len(rep.witness) == 2  # factor index plus the point

    def test_infinite_weight_dominates_itself(self):
        w = Weight("inf", lambda x: math.inf)
        f = FamilyWeight("f", (w,))
        rep = check_dominance_certificate(
            DominanceCertificate(f, 1, f, (1.0,)), [np.zeros((1, 1))]
        )
        assert rep.status == "pass"

    @given(st.floats(min_value=1.0, max_value=4.0))
    @settings(max_examples=20, deadline=None)
    def test_monotone_in_g(self, blow):
        # enlarging g pointwise never turns pass into fail
        dom = box([-1.0], [1.0])
        f1 = gaussian_weight("f", 0.8, dom)
        g1 = scaled_weight(f1, 2.0, name="g")
        g_big = scaled_weight(f1, 2.0 * blow, name="g")
        pts = np.linspace(-1, 1, 9).reshape(-1, 1)
        fam_f = FamilyWeight("f", (f1,))
        base = check_dominance_certificate(
            DominanceCertificate(fam_f, 1, FamilyWeight("g", (g1,)), (2.0,)),
            [pts],
        )
        bigger = check_dominance_certificate(
            DominanceCertificate(fam_f, 1, FamilyWeight("g", (g_big,)), (2.0,)),
            [pts],
        )
        assert base.status == "pass"
        assert bigger.status == "pass"
        assert bigger.margin >= base.margin - 1e-12


class TestFactorization:
    def test_product_of_parts_passes(self):
        # |f| = 1 <= 1 * (2 + sin x), which is at least 1
        f = FamilyWeight("f", (const_weight("f", 1.0),))
        g = FamilyWeight("g", (const_weight("g", 1.0),))
        h = FamilyWeight("h", (two_plus_sin_weight("h", [1.0]),))
        rep = check_factorization_certificate(
            FactorizationCertificate(f, (g, h)), grids_1d()
        )
        assert rep.status == "pass"

    def test_violation_fails_at_the_first_worst_row(self):
        # |f| = 1 against 0.5 * (1 + |x|): the worst rows are x = -0.25 and
        # x = 0.25 on both factors; the first of the four is kept
        f1 = const_weight("f", 1.0)
        g1 = const_weight("g", 0.5)
        h1 = Weight("h", lambda x: 1.0 + abs(float(x[0])))
        cert = FactorizationCertificate(
            FamilyWeight("f", (f1, f1)),
            (FamilyWeight("g", (g1, g1)), FamilyWeight("h", (h1, h1))),
        )
        pts = np.array([[-0.5], [-0.25], [0.25], [0.5]])
        rep = check_factorization_certificate(cert, [pts, pts])
        assert rep.status == "fail"
        assert (rep.lhs, rep.rhs, rep.margin) == (1.0, 0.625, -0.375)
        assert rep.witness == (0, -0.25)


class TestDescPowers:
    def test_powers_up_to_the_cap_load(self):
        assert desc_powers([0, 3, MAX_POWER]) == (0, 3, MAX_POWER)

    @pytest.mark.parametrize("powers", [[MAX_POWER + 1], [1, 10**18], [-1], [True], [1.0]])
    def test_other_powers_are_rejected(self, powers):
        with pytest.raises(DataError, match=f"^powers must be .* from 0 to {MAX_POWER}, "):
            desc_powers(powers)
