import json
import os
from collections import Counter
from dataclasses import replace

import pytest

from wrp.errors import ConfigError, DataError, PreconditionError
from wrp.jets import JetMap, PolynomialMap, ScaledMap
from wrp.operators import (
    InverseMap,
    compose_derivative_check,
    derivative_convergence,
    inversion_direction_check,
    superpose_derivative_check,
)
from wrp.restricted import neighborhood_inclusion_check
from wrp.verify import (
    ALL_CHECK_IDS,
    CHECK_REGISTRY,
    DIFFERENCE_ROWS,
    ELEMENT_GRIDS,
    RUNNERS,
    FamilyScenario,
    Products,
    ScenarioSeed,
    ScenarioUnit,
    generate_scenario,
    load_scenario,
    run_scenario_checks,
    run_suite,
    runner_ids,
    sabotage_superposition,
    sabotaged_inclusion_instance,
    scenario_from_dict,
    scenario_to_dict,
    tight_superposition_instance,
)

FIXTURE = os.path.join(os.path.dirname(__file__), "..", "fixtures", "scenario_seed0.json")


class TestRegistry:
    def test_every_id_has_statement_and_runner(self):
        for cid, info in CHECK_REGISTRY.items():
            assert info.statement
            assert info.runner in RUNNERS

    def test_runner_partition_covers_all_ids(self):
        covered = [cid for name in RUNNERS for cid in runner_ids(name)]
        assert sorted(covered) == sorted(ALL_CHECK_IDS)
        assert len(covered) == len(set(covered))

    def test_suite_emits_every_id(self, scenario0):
        ids = {r.check_id for r in run_scenario_checks(scenario0)}
        assert ids == set(ALL_CHECK_IDS)

    def test_each_runner_returns_exactly_its_ids(self, scenario0):
        for name, fn in RUNNERS.items():
            counts = Counter(r.check_id for r in fn(Products(scenario0), runner_ids(name)))
            assert set(counts) == set(runner_ids(name)), name
            doubled = {cid: n for cid, n in counts.items() if n != 1}
            expected = {
                "prop:Simultane_Koor-Kompo_diffbar": 2,
                "prop:Simultane_Inv-Kompo_glatt": 2,
            } if name == "sim" else {}
            assert doubled == expected, name

    def test_unknown_id_rejected(self, scenario0):
        with pytest.raises(ConfigError):
            run_scenario_checks(scenario0, ["est:bogus"])


class TestGeneration:
    def test_determinism(self):
        a = scenario_to_dict(generate_scenario(5))
        b = scenario_to_dict(generate_scenario(5))
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_seed_zero_is_the_documented_fixture(self, scenario0):
        with open(FIXTURE, "r", encoding="utf-8") as fh:
            frozen = json.load(fh)
        assert json.dumps(scenario_to_dict(scenario0), sort_keys=True) == json.dumps(
            frozen, sort_keys=True
        )

    def test_many_seeds_validate(self):
        # construction is total: every seed yields a scenario whose
        # certificates hold on its own grids
        from wrp.spaces import check_dominance_certificate, validate_weight_on_points

        for seed in range(100):
            sc = generate_scenario(seed)
            grids = [fs.grid_u.points for fs in sc.factors]
            for member in sc.weights.members:
                for w, pts in zip(member.factors, grids):
                    validate_weight_on_points(w, pts)
            for cert in sc.dominance:
                rep = check_dominance_certificate(cert, grids)
                assert rep.status == "pass"

    def test_certified_bounds_dominate_grid_values(self):
        from wrp.seminorms import weighted_seminorm

        sc = generate_scenario(3)
        weights = {m.name: m for m in sc.weights.members}
        for elem in (sc.gammas, sc.phis, sc.comp_gammas):
            for i, wfun in enumerate(elem.factors):
                for name, ell, bound in wfun.certified:
                    got = weighted_seminorm(wfun, weights[name].factors[i], ell).value
                    assert got <= bound + 1e-9

    def test_scenario_seed_caps(self):
        sc = generate_scenario(ScenarioSeed(11, max_dim=1, max_factors=2))
        assert sc.dim == 1
        assert sc.n_factors == 2


class TestSerialization:
    def test_roundtrip_bytes(self, scenario0):
        d = scenario_to_dict(scenario0)
        back = scenario_from_dict(json.loads(json.dumps(d)))
        assert json.dumps(scenario_to_dict(back), sort_keys=True) == json.dumps(
            d, sort_keys=True
        )

    def test_roundtrip_reports(self, scenario0):
        back = scenario_from_dict(scenario_to_dict(scenario0))
        sel = ["est:f0-Norm_SPid", "incl:1-Kugel_f0-norm_sub_CFof"]
        a = [r.to_dict() for r in run_scenario_checks(scenario0, sel)]
        b = [r.to_dict() for r in run_scenario_checks(back, sel)]
        assert a == b

    def test_descriptors_are_built_only_when_written(self, monkeypatch):
        """A run of every check on seed 0 reads no map descriptor, and a
        file read and written again is the file."""
        sc = generate_scenario(0)
        built = []
        for cls in (PolynomialMap, ScaledMap):
            monkeypatch.setattr(cls, "desc", property(
                lambda self, read=cls.desc.fget: built.append(self) or read(self)))
        run_scenario_checks(sc)
        assert built == []
        with open(FIXTURE, encoding="utf-8") as fh:
            doc = json.load(fh)
        assert scenario_to_dict(scenario_from_dict(doc)) == doc
        assert built

    def test_ingest_rejects_lying_weight_certificate(self, scenario0):
        doc = scenario_to_dict(scenario0)
        doc["weights"]["members"][1]["factors"][0]["certified_sup"] = 1e-6
        with pytest.raises(Exception) as exc_info:
            scenario_from_dict(doc)
        assert "certified" in str(exc_info.value)

    @pytest.mark.parametrize("change", ["drop", "append"])
    def test_ingest_rejects_per_factor_length_mismatch(self, scenario0, change):
        # every per-factor list must have exactly one entry per stored
        # factor (one for a factor-0-only list); a wrong length is rejected
        # with the list's pointer, never truncated
        base = json.dumps(scenario_to_dict(scenario0))
        pointers = [f"elements/{k}" for k in ELEMENT_GRIDS] + list(DIFFERENCE_ROWS) + [
            "xis", "sigmas", "bilinears", "beta2s",
            "weights/members/1/factors", "dominance/0/g/factors",
        ]
        assert len(pointers) == 26
        for pointer in pointers:
            doc = json.loads(base)
            *parents, key = pointer.split("/")
            node = doc
            for p in parents:
                node = node[int(p)] if p.isdigit() else node[p]
            if change == "drop":
                node[key].pop()
            else:
                node[key].append(node[key][0])
            with pytest.raises(DataError, match=f"^/{pointer}: "):
                scenario_from_dict(doc)

    @pytest.mark.parametrize("key", ["tau", "r"])
    def test_top_level_contraction_copy_that_agrees_loads(self, scenario0, key):
        # the contraction parameters are read from /contraction only; a
        # top-level copy is ignored, like any key the reader does not read
        doc = scenario_to_dict(scenario0)
        assert key not in doc
        doc[key] = doc["contraction"][key]
        assert scenario_from_dict(doc).contraction == scenario0.contraction

    def test_retired_compose_lipschitz_list_is_ignored(self, scenario0):
        # a key the reader does not read, such as the compose Lipschitz
        # list of earlier layouts, is ignored
        doc = scenario_to_dict(scenario0)
        assert "comp_gamma_lips" not in doc
        doc["comp_gamma_lips"] = ["not read"] * scenario0.n_factors
        back = scenario_from_dict(doc)
        assert scenario_to_dict(back) == scenario_to_dict(scenario0)

    @pytest.mark.parametrize("adjusting", ["omega", "gauss", "not a member"])
    def test_retired_adjusting_key_is_ignored(self, scenario0, adjusting):
        # a key the reader does not read, such as the adjusting name of
        # earlier layouts, is ignored; the adjusting check reads the member omega
        doc = scenario_to_dict(scenario0)
        assert list(doc["weights"]) == ["members"]
        doc["weights"]["adjusting"] = adjusting
        back = scenario_from_dict(doc)
        assert scenario_to_dict(back) == scenario_to_dict(scenario0)
        sel = ["cond:adjusting_weight"]
        assert ([r.to_dict() for r in run_scenario_checks(back, sel)]
                == [r.to_dict() for r in run_scenario_checks(scenario0, sel)])

    def test_load_scenario_unit(self, tmp_path, scenario0):
        path = tmp_path / "sc.json"
        path.write_text(json.dumps(scenario_to_dict(scenario0)), encoding="utf-8")
        sc = load_scenario(ScenarioUnit(path=str(path)))
        assert sc.name == scenario0.name


class TestSuite:
    def test_deterministic_replay(self):
        units = [ScenarioUnit(seed=42)]
        a = run_suite(units, ["est:f0-Norm_SPid", "qi:neumann_relation"])
        b = run_suite(units, ["est:f0-Norm_SPid", "qi:neumann_relation"])
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_selection_filters(self):
        payload = run_suite([ScenarioUnit(seed=2)], ["est:f0-Norm_SPid"])
        ids = {
            c["check_id"]
            for s in payload["scenarios"]
            for c in s["checks"]
        }
        assert ids == {"est:f0-Norm_SPid"}

    def test_empty_selection(self):
        payload = run_suite([ScenarioUnit(seed=2)], [])
        assert payload["scenarios"][0]["checks"] == []

    def test_summary_min_margin(self):
        payload = run_suite([ScenarioUnit(seed=1)], ["est:f0-Norm_SPid"])
        margins = payload["summary"]["min_margin"]
        assert "est:f0-Norm_SPid" in margins
        assert margins["est:f0-Norm_SPid"] >= -1e-9

    def test_parallel_equals_serial(self):
        units = [ScenarioUnit(seed=s) for s in (0, 1)]
        sel = ["qi:neumann_relation", "def:family_seminorm"]
        a = run_suite(units, sel, jobs=1)
        b = run_suite(units, sel, jobs=2)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    @pytest.mark.parametrize("n_units, jobs, workers", [
        (1, 3, None), (2, 3, 2), (3, 2, 2),
    ])
    def test_worker_count_is_capped_at_the_units(self, monkeypatch, n_units, jobs, workers):
        # a stub pool that records its size and runs the units in-process:
        # under fork, a real pool starts all of its workers on the first submit
        import concurrent.futures

        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, work):
                return map(fn, work)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        units = [ScenarioUnit(seed=s) for s in range(n_units)]
        sel = ["qi:neumann_relation"]
        payload = run_suite(units, sel, jobs=jobs)
        assert sizes == ([] if workers is None else [workers])
        assert payload["run_id"] == run_suite(units, sel, jobs=1)["run_id"]


class TestNegativeControls:
    def test_tight_instance_is_tight(self):
        op, gamma, one = tight_superposition_instance()
        from wrp.operators import superpose

        _, reports = superpose(op, gamma, [one])
        est = [r for r in reports if r.check_id == "est:f0-Norm_SPid"][0]
        assert est.status == "pass"
        # grid-to-sup gap only: lhs / rhs well above one half
        assert est.lhs / est.rhs > 0.5

    def test_halved_certificates_fail(self):
        reports = sabotage_superposition()
        assert any(r.status == "fail" for r in reports)
        est = [r for r in reports if r.check_id == "est:f0-Norm_SPid"][0]
        assert est.status == "fail"

    def test_sabotaged_inclusion(self):
        eta, bad_omega, v_domains, tau_star = sabotaged_inclusion_instance()
        rep = neighborhood_inclusion_check(eta, bad_omega, v_domains, 1.3 * tau_star)
        assert rep.status == "fail"

    def test_non_geometric_steps_rejected(self):
        with pytest.raises(PreconditionError):
            derivative_convergence("x", {}, [0.1, 0.09, 0.0001])

    def test_wrong_derivative_slope_fails(self):
        # +10 percent perturbation of the claimed derivative: errors level
        # off, the slope collapses toward zero, and the check fails
        exact = 1.7

        def op_closure(h):
            fd = exact + 3.0 * h * h  # what quotients would give
            claimed = 1.1 * exact
            return abs(fd - claimed)

        hs = [0.1, 0.05, 0.025, 0.0125]
        rep = derivative_convergence("x", {h: op_closure(h) for h in hs}, hs)
        assert rep.status == "fail"
        assert abs(rep.lhs) < 0.5


class SkewedJet(JetMap):
    """``base`` with its coded order-1 tensor 1.1 times the true one."""

    def __init__(self, base: JetMap):
        super().__init__(base.domain, base.out_shape, base.max_order,
                         in_blocks=base.in_blocks, out_blocks=base.out_blocks)
        self.base = base

    def tensors(self, points, ell):
        t = self.base.tensors(points, ell)
        return 1.1 * t if ell == 1 else t


class TestDerivativeControls:
    """Each derivative id passes on seed 0 and fails, with a quotient slope
    near 0, once the derivative it is checked against is 10 % off."""

    @pytest.mark.parametrize("skew", [False, True], ids=["true", "skewed"])
    def test_superposition(self, scenario0, skew):
        op = scenario0.xis[0]
        if skew:
            op = replace(op, xi=SkewedJet(op.xi))
        rep = superpose_derivative_check(op, scenario0.gammas[0], scenario0.gamma_dirs[0])
        self.assert_outcome(rep, "id:Differential_SuperposCWZweiVars-id", skew)

    @pytest.mark.parametrize("skew", [False, True], ids=["true", "skewed"])
    def test_composition(self, scenario0, skew):
        sc, fs0 = scenario0, scenario0.factors[0]
        gamma = sc.comp_gammas[0]
        if skew:
            gamma = replace(gamma, map=SkewedJet(gamma.map))
        rep = compose_derivative_check(gamma, sc.comp_etas[0], fs0.u, fs0.v,
                                       sc.comp_gamma_dirs[0].map, sc.comp_eta_dirs[0].map)
        self.assert_outcome(rep, "id:Ableitung_Kompo", skew)

    @pytest.mark.parametrize("skew", [False, True], ids=["true", "skewed"])
    def test_inversion(self, scenario0, skew):
        sc, fs0 = scenario0, scenario0.factors[0]
        phi = sc.phis[0]
        if skew:
            phi = replace(phi, map=SkewedJet(phi.map))
        probes = fs0.grid_vt.points[:: max(1, len(fs0.grid_vt) // 3)]
        inv = InverseMap(phi.map, fs0.u, fs0.v_tilde, sc.contraction)
        rep = inversion_direction_check(phi, inv, sc.phi_dirs[0], probes)
        self.assert_outcome(rep, "id:Ableitung_Inversion", skew)

    @staticmethod
    def assert_outcome(rep, check_id, skew):
        assert rep.check_id == check_id
        assert rep.status == ("fail" if skew else "pass"), rep
        if skew:
            assert abs(rep.lhs) < 0.5  # the fitted slope


class TestPrecautionSkips:
    def test_runner_precondition_becomes_skip(self, scenario0):
        # sabotage the scenario so the inversion runner's gate fails
        broken = FamilyScenario(
            **{
                **{f: getattr(scenario0, f) for f in scenario0.__dataclass_fields__},
                "phis": scenario0.phis.scaled(10.0),
            }
        )
        reports = run_scenario_checks(broken, runner_ids("invert"))
        assert reports
        assert all(r.status == "skipped-precondition" for r in reports)
