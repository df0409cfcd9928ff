import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wrp.report import (
    CERTIFIED_UPPER,
    EXACT,
    FAIL,
    GRID_LOWER,
    PASS,
    CheckReport,
    bound_report,
    bound_rows,
    deviation,
    identity_report,
    max_deviation,
    merge_min_margin,
    skipped_report,
    stacked_points,
    worst,
    worst_row,
)

# few distinct values, so ties, signed zeros, infinities and NaN are common
SIDE = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, 1e-13, math.inf, -math.inf, math.nan]),
    st.floats(allow_nan=True, allow_infinity=True, width=64),
)
ROWS = st.lists(st.tuples(SIDE, SIDE, st.booleans()), min_size=1, max_size=12)
TOLERANCE = st.sampled_from([0.0, 1e-12, 1e-9, 0.5])


class TestCheckReport:
    def test_pass_iff_margin_within_tolerance(self):
        ok = bound_report("x", 1.0, 1.5, tolerance=0.0)
        assert ok.status == "pass" and ok.margin == 0.5
        close = bound_report("x", 1.5, 1.5 - 1e-12, tolerance=1e-9)
        assert close.status == "pass"
        bad = bound_report("x", 2.0, 1.0, tolerance=1e-9)
        assert bad.status == "fail" and bad.margin == -1.0

    def test_unsound_provenance_pairing_rejected(self):
        with pytest.raises(ValueError, match="unsound"):
            CheckReport(
                "x", "pass", 1.0, 2.0, 1.0, 0.0,
                lhs_provenance=CERTIFIED_UPPER, rhs_provenance=GRID_LOWER,
            )

    def test_sound_pairings_accepted(self):
        for lhs_p, rhs_p in (
            (GRID_LOWER, CERTIFIED_UPPER),
            (GRID_LOWER, GRID_LOWER),
            (EXACT, CERTIFIED_UPPER),
            (EXACT, EXACT),
        ):
            bound_report("x", 0.0, 1.0, tolerance=0.0,
                         lhs_provenance=lhs_p, rhs_provenance=rhs_p)

    def test_infinite_sides_pass_with_zero_margin(self):
        rep = bound_report("x", math.inf, math.inf, tolerance=0.0,
                           lhs_provenance=EXACT, rhs_provenance=EXACT)
        assert rep.status == "pass" and rep.margin == 0.0

    def test_identity_report_convention(self):
        rep = identity_report("x", 1e-13, tolerance=1e-12)
        assert rep.status == "pass"
        assert rep.lhs == 1e-13 and rep.rhs == 0.0
        assert identity_report("x", 1e-11, tolerance=1e-12).status == "fail"

    def test_merge_prefers_failures(self):
        good = bound_report("x", 0.0, 1.0, tolerance=0.0)
        bad = bound_report("x", 3.0, 1.0, tolerance=0.0)
        merged = merge_min_margin("x", [good, bad])
        assert merged.status == "fail" and merged.margin == -2.0

    def test_merge_names_the_merged_id(self):
        per_factor = [bound_report("x[0]", 0.0, 1.0, tolerance=0.0),
                      bound_report("x[1]", 0.5, 1.0, tolerance=0.0)]
        merged = merge_min_margin("x", per_factor)
        assert merged == replace(per_factor[1], check_id="x")

    def test_skip_round_trips_to_dict(self):
        rep = skipped_report("x", "missing certificate")
        d = rep.to_dict()
        assert d["status"] == "skipped-precondition"
        assert d["detail"] == "missing certificate"

    def test_unknown_status_rejected(self):
        with pytest.raises(ValueError):
            CheckReport("x", "maybe", 0.0, 0.0, 0.0, 0.0)


class TestBoundRows:
    """The array report against its oracle: one bound_report per row,
    merged by merge_min_margin."""

    @staticmethod
    def oracle(rows, tolerance, forced=False):
        reports = []
        for k, (lhs, rhs, force) in enumerate(rows):
            rep = bound_report("x", lhs, rhs, tolerance=tolerance, witness=(k,),
                               detail=f"row {k}")
            if forced and force and rep.status == PASS:
                rep = replace(rep, status=FAIL)
            reports.append(rep)
        return merge_min_margin("x", reports)

    @given(ROWS, TOLERANCE)
    @settings(max_examples=400, deadline=None)
    def test_equals_merged_per_row_reports(self, rows, tolerance):
        lhs = np.array([r[0] for r in rows])
        rhs = np.array([r[1] for r in rows])
        got = bound_rows("x", lhs, rhs, tolerance=tolerance,
                         witness=lambda k: (k,), detail=lambda k: f"row {k}")
        # repr tells -0.0 from 0.0 and compares NaN fields as equal
        assert repr(got) == repr(self.oracle(rows, tolerance))

    @given(ROWS, TOLERANCE)
    @settings(max_examples=200, deadline=None)
    def test_forced_failures_join_the_pool(self, rows, tolerance):
        lhs = np.array([r[0] for r in rows])
        rhs = np.array([r[1] for r in rows])
        failed = np.array([r[2] for r in rows])
        k = worst_row(lhs, rhs, tolerance, failed=failed)
        assert (k,) == self.oracle(rows, tolerance, forced=True).witness

    @given(ROWS, TOLERANCE)
    @settings(max_examples=200, deadline=None)
    def test_worst_is_python_min_over_the_failed_pool(self, rows, tolerance):
        # worst and worst_row share one index rule; pin it to its plain
        # definition: the failed reports if any, then min by margin
        reports = [bound_report("x", lhs, rhs, tolerance=tolerance, witness=(k,))
                   for k, (lhs, rhs, _) in enumerate(rows)]
        pool = [r for r in reports if r.status == FAIL] or reports
        assert worst(reports) is min(pool, key=lambda r: r.margin)

    def test_first_row_wins_ties_and_failures_first(self):
        lhs = np.array([0.0, 1.0, 3.0, 1.0, 3.0])
        rhs = np.array([5.0, 1.5, 2.0, 1.5, 2.0])
        assert worst_row(lhs, rhs, 0.0) == 2  # the first of two failures
        assert worst_row(lhs[:2], rhs[:2], 0.0) == 1
        assert worst_row([1.0, 2.0], [1.5, 2.5], 0.0) == 0

    def test_nan_margin_kept_only_first_in_pool(self):
        nan = math.nan
        assert worst_row([nan, 3.0], [1.0, 1.0], 0.0) == 0
        assert worst_row([3.0, nan], [1.0, 1.0], 0.0) == 0

    def test_infinite_sides_tie_at_zero_margin(self):
        rep = bound_rows("x", [math.inf, 0.0], [math.inf, 1.0], tolerance=0.0,
                         witness=lambda k: (k,))
        assert rep.status == PASS and rep.margin == 0.0 and rep.witness == (0,)

    def test_no_rows_rejected(self):
        with pytest.raises(ValueError):
            bound_rows("x", [], [], tolerance=0.0)

    def test_provenance_guard_runs_on_the_kept_row(self):
        with pytest.raises(ValueError, match="unsound"):
            bound_rows("x", [1.0], [2.0], tolerance=0.0,
                       lhs_provenance=CERTIFIED_UPPER, rhs_provenance=GRID_LOWER)

    def test_stacked_points_witness(self):
        a = np.array([[0.5], [0.25]])
        b = np.array([[-1.0], [2.0], [3.0]])
        witness = stacked_points([a, b])
        assert [witness(k) for k in range(5)] == [
            (0, 0.5), (0, 0.25), (1, -1.0), (1, 2.0), (1, 3.0)
        ]


class TestMoreNegativeControls:
    def test_compose_value_estimate_fails_with_halved_lipschitz(self):
        from wrp.jets import ConstMap, PolynomialMap
        from wrp.operators import compose_perturbed
        from wrp.seminorms import WeightedFunction, lattice
        from wrp.spaces import ball, box, const_weight

        u, v, w = box([-1.0], [1.0]), ball([0.0], 0.5), box([-2.0], [2.0])

        def gamma(lip):
            # gamma = x, whose certified ("one", 1) row is its Lipschitz bound
            return WeightedFunction(
                PolynomialMap(w, [([1.0], (1,))]), lattice(w, spacing=0.25), 2,
                (("one", 1, lip),),
            )

        eta = WeightedFunction(ConstMap(u, [0.3]), lattice(u, spacing=0.1), 2)
        one = const_weight("one", 1.0)
        _, good = compose_perturbed(gamma(1.0), eta, u, v, w, weights=[one])
        assert all(r.status == "pass" for r in good)
        _, bad = compose_perturbed(gamma(0.5), eta, u, v, w, weights=[one])
        est = [r for r in bad if r.check_id == "est:Funktionswerte_Gewicht_K-Kompo"][0]
        assert est.status == "fail"

    def test_inversion_value_estimate_fails_with_halved_bound(self):
        import numpy as np

        from wrp.jets import AffineMap
        from wrp.operators import ContractionConfig, InverseMap
        from wrp.report import bound_report
        from wrp.seminorms import lattice
        from wrp.spaces import box

        # tight linear instance: lhs/rhs = (1 - c)/(1 + c) which is above
        # one half, so halving the right side must fail
        c = 0.1
        u, vt = box([-2.0], [2.0]), box([-0.4], [0.4])
        inv = InverseMap(AffineMap(u, [[c]]), u, vt, ContractionConfig(tau=0.5, r=1.5))
        y = np.array([0.4])
        lhs = abs(inv.tensors(y[None], 0)[0, 0])
        rhs = abs(c * y[0]) / (1 - c)
        assert bound_report("x", lhs, rhs, tolerance=1e-9).status == "pass"
        assert bound_report("x", lhs, 0.5 * rhs, tolerance=1e-9).status == "fail"


class TestDeviation:
    def test_equal_values_deviate_by_zero(self):
        for v in (0.0, -0.0, 1.5, math.inf, -math.inf):
            assert deviation(v, v) == 0.0
        assert deviation(0.0, -0.0) == 0.0
        assert deviation(1.0, 3.5) == deviation(3.5, 1.0) == 2.5
        assert deviation(math.inf, 1.0) == deviation(-math.inf, math.inf) == math.inf

    def test_nan_deviation_fails(self):
        assert math.isnan(deviation(math.nan, 1.0)) and math.isnan(deviation(math.nan, math.nan))
        # Python's max drops a NaN that comes second; the fold keeps it
        assert max(0.0, math.nan) == 0.0
        for devs in ([0.0, math.nan], [math.nan, 0.0], [1.0, math.nan, 2.0]):
            folded = max_deviation(devs)
            assert math.isnan(folded)
            assert identity_report("x", folded, tolerance=1e-12).status == FAIL
        assert max_deviation([]) == 0.0 and max_deviation(np.zeros((2, 3))) == 0.0
        assert max_deviation([0.5, math.inf]) == math.inf
