import json
import math
import re
import signal
import warnings
from pathlib import Path

import pytest

from wrp.cli import RunConfig, emit_config, main, parse_config, run
from wrp.errors import ConfigError
from wrp.verify import ALL_CHECK_IDS, DIFFERENCE_ROWS, FIX_STOP_ULPS, MIN_ORDER

FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "scenario_seed0.json"


class TestParseConfig:
    def test_minimal_defaults(self):
        cfg = parse_config({"seeds": [0], "checks": "all"})
        assert cfg.seeds == (0,)
        assert cfg.checks is None
        assert cfg.jobs == 1
        assert cfg.out == "out"

    def test_unknown_check_id_named_in_error(self):
        with pytest.raises(ConfigError, match=r"/checks/0: unknown check id 'est:bogus'"):
            parse_config({"seeds": [0], "checks": ["est:bogus"]})

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="/frobnicate"):
            parse_config({"frobnicate": 1})

    def test_bad_types(self):
        with pytest.raises(ConfigError, match="/seeds"):
            parse_config({"seeds": ["x"]})
        with pytest.raises(ConfigError, match="/jobs"):
            parse_config({"jobs": 0})
        with pytest.raises(ConfigError, match="/tolerances"):
            parse_config({"tolerances": {"est:f0-Norm_SPid": -1.0}})
        # a boolean is not a number, and a tolerance must be finite
        for bad in (float("nan"), float("inf"), True, "0.5"):
            with pytest.raises(ConfigError, match="^/tolerances/est:f0-Norm_SPid: "):
                parse_config({"tolerances": {"est:f0-Norm_SPid": bad}})
        with pytest.raises(ConfigError, match="^/jobs: "):
            parse_config({"jobs": True})
        with pytest.raises(ConfigError, match="^/seeds: "):
            parse_config({"seeds": [0, True]})

    @pytest.mark.parametrize("doc, pointer", [
        ({"tolerances": {"est:f0-Norm_SPid": float("nan")}}, "/tolerances/est:f0-Norm_SPid"),
        ({"tolerances": {"est:f0-Norm_SPid": float("inf")}}, "/tolerances/est:f0-Norm_SPid"),
        ({"tolerances": {"est:f0-Norm_SPid": True}}, "/tolerances/est:f0-Norm_SPid"),
        ({"jobs": True}, "/jobs"),
        ({"seeds": [True]}, "/seeds"),
    ], ids=["nan_tolerance", "infinite_tolerance", "true_tolerance", "true_jobs", "true_seed"])
    def test_bad_number_exits_one(self, tmp_path, capsys, doc, pointer):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"checks": ["est:f0-Norm_SPid"], "out": str(tmp_path), **doc}))
        assert main(["run", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {pointer}: ")
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("doc, pointer", [
        ([], "/"),
        ({"scenarios": "a.json"}, "/scenarios"),
        ({"checks": 5}, "/checks"),
        ({"tolerances": [1e-6]}, "/tolerances"),
        ({"tolerances": {"est:bogus": 1e-6}}, "/tolerances/est:bogus"),
        ({"skips_ok": 1}, "/skips_ok"),
        ({"out": 5}, "/out"),
    ], ids=["list", "string_scenarios", "number_checks", "list_tolerances",
            "unknown_tolerance_id", "number_flag", "number_out"])
    def test_malformed_field_named(self, doc, pointer):
        with pytest.raises(ConfigError, match=f"^{re.escape(pointer)}: "):
            parse_config(doc)

    def test_malformed_json(self):
        with pytest.raises(ConfigError, match="malformed"):
            parse_config("{not json")

    def test_five_units_queued(self, tmp_path):
        paths = []
        for k in range(3):
            p = tmp_path / f"s{k}.json"
            p.write_text("{}")
            paths.append(str(p))
        cfg = parse_config({"seeds": [1, 2], "scenarios": paths})
        assert len(cfg.seeds) + len(cfg.scenarios) == 5

    @pytest.mark.parametrize(
        "doc",
        [
            {"seeds": [0], "checks": "all"},
            {
                "seeds": [3, 1],
                "checks": ["est:f0-Norm_SPid", "qi:neumann_relation"],
                "out": "somewhere",
                "jobs": 2,
                "skips_ok": True,
                "histogram": True,
                "tolerances": {"est:f0-Norm_SPid": 1e-6},
            },
            {"scenarios": [], "strict_preconditions": True},
        ],
    )
    def test_roundtrip(self, doc):
        cfg = parse_config(doc)
        assert parse_config(emit_config(cfg)) == cfg

    def test_file_input(self, tmp_path):
        p = tmp_path / "config.json"
        p.write_text(json.dumps({"seeds": [7]}), encoding="utf-8")
        assert parse_config(str(p)).seeds == (7,)


class TestRun:
    def test_canonical_seed_exit_zero(self, tmp_path):
        cfg = RunConfig(
            seeds=(0,), checks=("qi:neumann_relation", "def:family_seminorm"),
            out=str(tmp_path),
        )
        assert run(cfg) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["summary"]["n_fail"] == 0
        assert (tmp_path / "margins.csv").exists()

    def test_report_idempotent(self, tmp_path):
        cfg = RunConfig(seeds=(1,), checks=("est:f0-Norm_SPid",), out=str(tmp_path))
        run(cfg)
        first = (tmp_path / "report.json").read_bytes()
        run(cfg)
        assert (tmp_path / "report.json").read_bytes() == first

    def test_sabotaged_tolerance_forces_exit_two(self, tmp_path):
        # margins here are positive, so tolerance 0 still passes
        cfg = RunConfig(
            seeds=(0,),
            checks=("est:f0-Norm_SPid",),
            out=str(tmp_path),
            tolerances=(("est:f0-Norm_SPid", 0.0),),
        )
        assert run(cfg) == 0
        # on seed 1 this identity deviates by ~4e-19, inside its default
        # tolerance; an override of 0 turns it into a failure
        cid = "lem:Stetigkeit_parameterab_Int"
        plain = RunConfig(seeds=(1,), checks=(cid,), out=str(tmp_path / "plain"))
        assert run(plain) == 0
        strict = RunConfig(
            seeds=(1,), checks=(cid,), out=str(tmp_path / "strict"),
            tolerances=((cid, 0.0),),
        )
        assert run(strict) == 2
        before = json.loads((tmp_path / "plain" / "report.json").read_text())
        after = json.loads((tmp_path / "strict" / "report.json").read_text())
        (check,) = after["scenarios"][0]["checks"]
        assert check["margin"] < 0
        assert check["status"] == "fail" and check["tolerance"] == 0.0
        assert after["summary"]["n_fail"] == 1 and after["summary"]["n_pass"] == 0
        assert before["summary"]["n_pass"] == 1
        # the run id hashes the re-graded verdicts
        assert after["run_id"] != before["run_id"]

    def test_failing_scenario_exit_two(self, tmp_path, scenario0):
        # persist a scenario with halved superposition certificates and a
        # tight kernel so the bound genuinely fails
        from wrp.verify import scenario_to_dict

        doc = scenario_to_dict(scenario0)
        for xi in doc["xis"]:
            xi["d2_sup"] = 1e-6
            xi["sup_1"] = [[l, 1e-6 * b] for l, b in xi["sup_1"]]
        path = tmp_path / "sabotaged.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        cfg = RunConfig(
            scenarios=(str(path),), checks=("est:f0-Norm_SPid",), out=str(tmp_path)
        )
        assert run(cfg) == 2

    def test_histogram_file(self, tmp_path):
        cfg = RunConfig(
            seeds=(0,), checks=("def:family_seminorm",), out=str(tmp_path),
            histogram=True,
        )
        run(cfg)
        lines = (tmp_path / "margins_hist.csv").read_text().strip().splitlines()
        assert lines[0] == "check_id,margin"
        assert len(lines) == 2

    def test_io_failure_exit_four(self, tmp_path):
        # an output "directory" that is a regular file cannot be written,
        # whatever the permission bits and user
        target = tmp_path / "blocked"
        target.write_text("not a directory")
        cfg = RunConfig(seeds=(0,), checks=("def:family_seminorm",), out=str(target))
        assert run(cfg) == 4
        assert target.read_text() == "not a directory"

    def test_failed_replace_leaves_no_temporary_file(self, tmp_path):
        # report.json is a directory that holds a file: the finished
        # temporary file cannot replace it, and is removed
        (tmp_path / "report.json").mkdir()
        (tmp_path / "report.json" / "keep").write_text("x")
        cfg = RunConfig(seeds=(0,), checks=("def:family_seminorm",), out=str(tmp_path))
        assert run(cfg) == 4
        assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]

    def test_no_units_rejected(self):
        with pytest.raises(ConfigError):
            run(RunConfig())

    def test_skips_only_exit_three(self, tmp_path, scenario0):
        # enlarge the contraction certificates so the inversion runner's
        # operator-domain gate trips and every selected check is skipped
        from wrp.verify import scenario_to_dict

        doc = scenario_to_dict(scenario0)
        for wf in doc["elements"]["phis"]:
            wf["certified"] = [[n, l, 10.0 * b] for n, l, b in wf["certified"]]
        path = tmp_path / "outside.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        base = dict(
            scenarios=(str(path),),
            checks=("prop:Zsf_Inversion_gewAbb",),
            out=str(tmp_path),
        )
        assert run(RunConfig(**base)) == 3
        assert run(RunConfig(**base, skips_ok=True)) == 0
        assert run(RunConfig(**base, strict_preconditions=True)) == 2


def _mutated_scenario_file(tmp_path, scenario0, mutate):
    from wrp.verify import scenario_to_dict

    # a copy: the document shares lists with the session's scenario
    doc = json.loads(json.dumps(scenario_to_dict(scenario0)))
    mutate(doc)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"scenarios": [str(path)], "out": str(tmp_path)}))
    return cfg


GAMMA0 = "/elements/gammas/0/map/terms/0"


def _gamma0_term(doc):
    return doc["elements"]["gammas"][0]["map"]["terms"][0]


def _as_old_format(doc):
    # the layout written before the difference rows: a difference map per
    # factor under /elements (none was ever evaluated, so any map stands
    # in) carrying the rows, and /comp_gamma_lips; such files carry no
    # /schema_version, which ingest reads first
    del doc["schema_version"]
    for key in DIFFERENCE_ROWS:
        doc["elements"][key] = [
            {"map": g["map"], "max_order": 2, "certified": rows}
            for g, rows in zip(doc["elements"]["gammas"], doc.pop(key))
        ]
    doc["comp_gamma_lips"] = [1.0] * len(doc["factors"])


def _drop_compose_lipschitz_row(doc):
    wf = doc["elements"]["comp_gammas"][1]
    wf["certified"] = [r for r in wf["certified"] if r[:2] != ["one", 1]]


def _rename_gauss_rows(rows, name):
    for row in rows:
        if row[0] == "gauss":
            row[0] = name


def _drop_dominance(context):
    def mutate(doc):
        doc["dominance"] = [c for c in doc["dominance"] if c["context"] != context]
    return mutate


def _rename_member(j, name):
    def mutate(doc):
        assert doc["weights"]["members"][j]["name"] in ("gauss", "omega")
        doc["weights"]["members"][j]["name"] = name
    return mutate


def _set_weight(j, desc):
    def mutate(doc):
        doc["weights"]["members"][j]["factors"][0] = desc(doc["weights"]["members"][j]["factors"][0])
    return mutate


def _set_gamma0_map(desc):
    def mutate(doc):
        wf = doc["elements"]["gammas"][0]
        wf["map"] = desc(wf["map"])
    return mutate


def _every_element_at_its_least_order(doc):
    for key, least in MIN_ORDER.items():
        for wf in doc["elements"][key]:
            wf["max_order"] = least


class TestIngestErrors:
    """A malformed scenario file exits 1 with an error naming the JSON
    pointer of the offending entry, never with a traceback or a run."""

    @pytest.mark.parametrize("mutate, pointer", [
        (lambda d: d["elements"].pop("phis"), "/elements/phis"),
        (lambda d: d["factors"][0].__setitem__("grid_u", -3), "/factors/0/grid_u"),
        (lambda d: d["factors"][1].__setitem__("grid_w", 0), "/factors/1/grid_w"),
        (lambda d: d["contraction"].__setitem__("tau", "x"), "/contraction/tau"),
        (lambda d: d.__setitem__("sigma_k", []), "/sigma_k"),
        (lambda d: d["elements"]["comp_gamma0s"][0]["map"]["terms"][0]["coef"]
         .__setitem__(0, float("nan")),
         "/elements/comp_gamma0s/0/map/terms/0/coef/0"),
        (lambda d: d["weights"]["members"][0]["factors"][1].__setitem__("c", float("inf")),
         "/weights/members/0/factors/1/c"),
        (lambda d: d["elements"]["gammas"][0]["certified"][0].__setitem__(2, float("nan")),
         "/elements/gammas/0/certified/0/2"),
        (lambda d: d["elements"]["gammas"][0]["certified"][0].__setitem__(2, float("inf")),
         "/elements/gammas/0/certified/0/2"),
        (lambda d: d["elements"]["gammas"][0]["certified"][0].__setitem__(2, "0.5"),
         "/elements/gammas/0/certified/0/2"),
        (lambda d: d["elements"]["gammas"][0]["certified"][0].__setitem__(1, 0.5),
         "/elements/gammas/0/certified/0/1"),
        (lambda d: d["elements"]["gammas"][0]["certified"][0].pop(),
         "/elements/gammas/0/certified/0"),
        (lambda d: d["elements"]["gammas"][0].__setitem__("max_order", "2"),
         "/elements/gammas/0/max_order"),
        (lambda d: d["comp_gamma_diffs"][0][0].__setitem__(2, "1.5"), "/comp_gamma_diffs/0/0/2"),
        (lambda d: d["sigma_k"][0].__setitem__(1, float("nan")), "/sigma_k/0/1"),
        (lambda d: d["xis"][0]["sup_1"][0].__setitem__(1, float("nan")), "/xis/0/sup_1/0/1"),
        (lambda d: d["xis"][0].__setitem__("sup_1", 2.0), "/xis/0/sup_1"),
        (lambda d: d["dominance"][0]["k"].__setitem__(0, float("nan")), "/dominance/0/k/0"),
        (lambda d: d["dominance"][0].__setitem__("ell", True), "/dominance/0/ell"),
        (lambda d: d["bilinears"][0][0][0].__setitem__(0, float("nan")),
         "/bilinears/0/0/0/0"),
        (lambda d: d["beta2s"][1][0][0].__setitem__(0, "1"), "/beta2s/1/0/0/0"),
        (lambda d: d["contraction"].__setitem__("max_iters", 2.5), "/contraction/max_iters"),
        (lambda d: d.__setitem__("dim", True), "/dim"),
        (lambda d: d["factors"][0]["u"]["lo"].__setitem__(0, "0.5"), "/factors/0/u/lo/0"),
        (lambda d: d["factors"][0]["v"].__setitem__("radius", float("inf")),
         "/factors/0/v/radius"),
        (lambda d: d["xis"][0].__setitem__("sup_1", d["xis"][0]["sup_1"][:1]), "/xis/0/sup_1"),
        (lambda d: d["xis"][1]["sup_1"].pop(), "/xis/1/sup_1"),
        (lambda d: d["factors"][0]["v"]["center"].append(0.0), "/factors/0/v/center"),
        (lambda d: d["factors"][1]["w"]["hi"].append(1.0), "/factors/1/w/hi"),
        (lambda d: d["factors"][0]["u"]["lo"].__setitem__(0, d["factors"][0]["u"]["hi"][0]),
         "/factors/0/u"),
        (lambda d: d["factors"][1]["v"].__setitem__("norm", "l1"), "/factors/1/v/norm"),
        (lambda d: d["factors"][0]["v"].__setitem__("norm", "euclidean"), "/factors/0/v/norm"),
        (lambda d: d["factors"][0]["u"].__setitem__("norm", "euclidean"), "/factors/0/u/norm"),
        (lambda d: _gamma0_term(d)["coef"].__setitem__(0, 10**400), f"{GAMMA0}/coef/0"),
        (lambda d: d["sigmas"][0]["terms"][0]["coef"].__setitem__(0, 10**400),
         "/sigmas/0/terms/0/coef/0"),
        (lambda d: _gamma0_term(d)["coef"].__setitem__(0, True), f"{GAMMA0}/coef/0"),
        (lambda d: _gamma0_term(d)["coef"].__setitem__(0, "1.0"), f"{GAMMA0}/coef/0"),
        (lambda d: d["weights"]["members"][0]["factors"][1].__setitem__("c", None),
         "/weights/members/0/factors/1/c"),
        (lambda d: _gamma0_term(d)["powers"].__setitem__(0, True), f"{GAMMA0}/powers/0"),
        (lambda d: _gamma0_term(d)["powers"].__setitem__(0, 1.5), "/elements/gammas/0/map"),
        (lambda d: _gamma0_term(d)["powers"].__setitem__(0, -1), "/elements/gammas/0/map"),
        (lambda d: d["sigmas"][0]["terms"][0]["powers"].__setitem__(0, 1.5), "/sigmas/0"),
        (lambda d: d["factors"][0]["u"].update(lo=[1.0], hi=[math.nextafter(1.0, 2.0)]),
         "/factors/0/grid_u"),
        (lambda d: d["elements"]["gammas"][0]["map"].__setitem__("terms", 5),
         "/elements/gammas/0/map"),
        (lambda d: _gamma0_term(d).__setitem__("coef", 1.0), "/elements/gammas/0/map"),
        (lambda d: d["elements"]["gammas"][0].__setitem__("map", [1.0]),
         "/elements/gammas/0/map"),
        (lambda d: d["weights"]["members"][1]["factors"][0].__setitem__("a", [0.5]),
         "/weights/members/1/factors/0"),
        (_as_old_format, "/schema_version"),
        (_drop_compose_lipschitz_row, "/elements/comp_gammas/1/certified"),
        (lambda d: _rename_gauss_rows(d["gamma_diffs"][0], "gaus"), "/gamma_diffs/0/1/0"),
        (lambda d: _rename_gauss_rows(d["gamma_diffs"][0], 5), "/gamma_diffs/0/1/0"),
        (lambda d: _rename_gauss_rows(d["gamma_diffs"][0], None), "/gamma_diffs/0/1/0"),
        (lambda d: _rename_gauss_rows(d["elements"]["gammas"][0]["certified"], "gaus"),
         "/elements/gammas/0/certified/1/0"),
        (_rename_member(1, "gaussian"), "/weights/members"),
        (_rename_member(3, "omega2"), "/weights/members"),
        (lambda d: d["weights"]["members"][0]["factors"].__setitem__(
            1, {"kind": "const", "c": 2.0}),
         "/weights/members/0/factors/1"),
        (lambda d: d.__setitem__("factorizations", []), "/factorizations"),
        (lambda d: d.__setitem__("factorizations", d["factorizations"][:1]), "/factorizations"),
        (_drop_dominance("sp"), "/dominance"),
        (_drop_dominance("multiplier"), "/dominance"),
        (_drop_dominance("uniform-k"), "/dominance"),
        (lambda d: d["weights"]["members"][2].__setitem__("name", ["gauss_half"]),
         "/weights/members/2/name"),
        (lambda d: d["elements"]["gammas"][0].__setitem__("max_order", 0),
         "/elements/gammas/0/max_order"),
        (lambda d: d["elements"]["comp_gammas"][1].__setitem__("max_order", 0),
         "/elements/comp_gammas/1/max_order"),
        (lambda d: d["elements"]["phis"][0].__setitem__("max_order", 0),
         "/elements/phis/0/max_order"),
        (lambda d: d["elements"]["psis"][0].__setitem__("max_order", 0),
         "/elements/psis/0/max_order"),
        (lambda d: d["elements"]["phi_dirs"][0].__setitem__("max_order", 0),
         "/elements/phi_dirs/0/max_order"),
        (lambda d: d["weights"]["members"][1]["factors"][0].__setitem__("a", -1e308),
         "/weights/members/1/factors/0"),
        (lambda d: d["dominance"][2]["g"]["factors"][0]["base"].__setitem__("a", -1e308),
         "/dominance/2/g/factors/0"),
        (lambda d: d["weights"]["members"][3]["factors"][0]["u"].append(0.5),
         "/weights/members/3/factors/0"),
        (lambda d: d["xis"][0]["map"]["in_blocks"].__setitem__(1, 7), "/xis/0/map/in_blocks"),
        (lambda d: d["xis"][1]["map"].pop("in_blocks"), "/xis/1/map/in_blocks"),
        (lambda d: d["elements"]["multipliers"][0].__setitem__(
            "map", {"kind": "scaled", "c": 1.0, "base": d["elements"]["multipliers"][0]["map"]}),
         "/elements/multipliers/0/map/kind"),
        (lambda d: d["weights"]["members"][3]["factors"][0].__setitem__("certified_inf", 0.0),
         "/weights/members/3/factors/0/certified_inf"),
        (lambda d: d["weights"]["members"][1]["factors"][1].__setitem__("certified_sup", 0.5),
         "/weights/members/1/factors/1/certified_sup"),
        (lambda d: d["dominance"][0]["g"]["factors"][1].__setitem__("certified_sup", None),
         "/dominance/0/g/factors/1/certified_sup"),
        (lambda d: d["elements"]["comp_gammas"][0].__setitem__("max_order", 1),
         "/elements/comp_gammas/0/max_order"),
        (lambda d: d["elements"]["comp_gamma0s"][0].__setitem__("max_order", 0),
         "/elements/comp_gamma0s/0/max_order"),
        (lambda d: d["factors"][0]["v"].__setitem__("kind", "bal"), "/factors/0/v/kind"),
        (lambda d: d["factors"][1]["v"].__setitem__("radius", 0.0), "/factors/1/v"),
        (lambda d: d["elements"]["gammas"][1]["map"].pop("terms"), "/elements/gammas/1/map"),
        (lambda d: d.__setitem__("contraction", [0.5]), "/contraction"),
        (lambda d: d["contraction"].__setitem__("rho", 0.5), "/contraction"),
        (lambda d: d["contraction"].__setitem__("tau", 1.5), "/contraction"),
        (lambda d: d["contraction"].__setitem__("r", -0.5), "/contraction"),
        (lambda d: d.pop("schema_version"), "/schema_version"),
        (lambda d: d.__setitem__("schema_version", 1), "/schema_version"),
        (lambda d: d.__setitem__("schema_version", 2.0), "/schema_version"),
        (lambda d: d["dominance"][0].__setitem__("f", "gaus"), "/dominance/0/f"),
        (lambda d: d["dominance"][4].__setitem__("f", {"name": "gauss"}), "/dominance/4/f"),
        (lambda d: d["factorizations"][1].__setitem__("f", "omega2"), "/factorizations/1/f"),
        (lambda d: d["factorizations"][1]["parts"].__setitem__(1, "gauss_third"),
         "/factorizations/1/parts/1"),
        (lambda d: d["factorizations"][0].__setitem__("parts", "one"), "/factorizations/0/parts"),
        (lambda d: d["elements"]["psis"].append(d["elements"]["psis"][0]), "/elements/psis"),
        (lambda d: d["phi_diffs"].append(d["phi_diffs"][0]), "/phi_diffs"),
    ], ids=["missing_element", "negative_grid", "zero_grid", "string_tau", "empty_sigma_k",
            "nan_map_coefficient", "infinite_weight_constant", "nan_certified_bound",
            "infinite_certified_bound", "string_certified_bound", "fractional_certified_order",
            "short_certified_triple", "string_max_order", "string_difference_bound",
            "nan_sigma_k", "nan_sup_1", "scalar_sup_1", "nan_dominance_k", "true_dominance_ell",
            "nan_bilinear", "string_beta2", "fractional_max_iters",
            "true_dim", "string_domain_bound", "infinite_ball_radius", "order_one_sup_1",
            "no_order_three_sup_1", "long_ball_center", "long_box_hi", "empty_box",
            "unknown_norm", "euclidean_v", "euclidean_u", "huge_int_coefficient",
            "huge_int_sigma_coefficient",
            "true_coefficient", "string_coefficient", "null_weight_constant", "true_power", "fractional_power",
            "negative_power", "fractional_sigma_power", "one_ulp_box", "int_terms",
            "scalar_coefficient", "list_for_map", "list_gauss_a", "old_difference_maps",
            "no_compose_lipschitz_row", "misspelled_difference_weight",
            "int_difference_weight", "null_difference_weight", "misspelled_element_weight",
            "renamed_gauss_member", "renamed_omega_member", "non_constant_one",
            "no_factorizations", "no_gauss_factorization", "no_sp_dominance",
            "no_multiplier_dominance", "no_uniform_k_dominance", "list_member_name",
            "order_zero_gammas", "order_zero_comp_gammas", "order_zero_phis",
            "order_zero_psis", "order_zero_phi_dirs", "negative_gauss_a",
            "negative_dominance_gauss_a", "long_omega_u", "long_xi_in_blocks",
            "no_xi_in_blocks", "scaled_multiplier", "zero_omega_inf", "understated_gauss_sup",
            "null_dominance_sup", "order_one_comp_gammas", "order_zero_comp_gamma0s",
            "unknown_domain_kind", "zero_ball_radius", "no_terms", "list_contraction",
            "unknown_contraction_field", "tau_above_one", "negative_r",
            "no_schema_version", "schema_version_one", "float_schema_version",
            "non_member_dominance_f", "member_copy_dominance_f", "non_member_factorization_f",
            "non_member_factorization_part", "string_factorization_parts",
            "two_psis", "two_phi_diffs"])
    def test_exit_one_names_pointer(self, tmp_path, scenario0, capsys, mutate, pointer):
        cfg = _mutated_scenario_file(tmp_path, scenario0, mutate)
        assert main(["run", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {pointer}: "), err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("mutate, pointer", [
        (lambda d: d["dominance"][0]["k"].pop(), "/dominance/0/k"),
        (lambda d: d["dominance"][2]["k"].append(1.0), "/dominance/2/k"),
        (lambda d: d["dominance"][1]["k"].__setitem__(1, -0.5), "/dominance/1/k/1"),
        (lambda d: d["bilinears"].__setitem__(0, [[0.5]]), "/bilinears/0"),
        (lambda d: d["bilinears"][1][0][0].append(0.5), "/bilinears/1"),
        (lambda d: d["beta2s"].__setitem__(1, [[[0.5]], [[0.5]]]), "/beta2s/1"),
        (lambda d: d["beta2s"][0][0].__setitem__(0, 0.5), "/beta2s/0"),
    ], ids=["short_dominance_k", "long_dominance_k", "negative_dominance_k",
            "matrix_bilinear", "long_bilinear_row", "long_beta2", "scalar_beta2_row"])
    def test_certificate_and_tensor_shapes_exit_one(self, tmp_path, scenario0, capsys, mutate,
                                                    pointer):
        """A dominance ``k`` must hold one number >= 0 per factor, and a
        ``bilinears`` or ``beta2s`` entry must be a (dim, dim, dim) tensor;
        each used to exit 1 without a pointer, from the certificate's own
        check or from the first contraction."""
        cfg = _mutated_scenario_file(tmp_path, scenario0, mutate)
        assert main(["run", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {pointer}: "), err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("mutate", [
        lambda d: d["factors"][1]["w"].update(lo=[-1.0], hi=[1.0]),
        lambda d: d["factors"][1]["v_tilde"].update(lo=[-0.9], hi=[0.9]),
        lambda d: d["factors"][1]["v"].__setitem__("center", [0.8]),
    ], ids=["w_below_v_plus_u", "v_tilde_plus_ball_outside_u", "v_without_zero"])
    def test_domains_that_do_not_nest_exit_one(self, tmp_path, scenario0, capsys, mutate):
        """W must contain V + U, U must contain V~ + ball(0, r), and V must
        contain 0, on every factor; each used to exit 1 without a pointer,
        from the runner that combines the domains."""
        cfg = _mutated_scenario_file(tmp_path, scenario0, mutate)
        assert main(["run", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: /factors/1: "), err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("kind, mutate, pointer", [
        ("poly", _set_weight(1, lambda w: {"kind": "poly", "terms": [[1.0, [0]]]}),
         "/weights/members/1/factors/0"),
        ("shifted", _set_weight(1, lambda w: {"kind": "shifted", "shift": [0.1], "base": w}),
         "/weights/members/1/factors/0"),
        ("const", _set_gamma0_map(lambda m: {"kind": "const", "c": [0.0]}),
         "/elements/gammas/0/map"),
        ("affine", _set_gamma0_map(lambda m: {"kind": "affine", "a": [[0.1]], "b": [0.0]}),
         "/elements/gammas/0/map"),
        ("trig", _set_gamma0_map(lambda m: {"kind": "trig", "terms": [
            {"coef": [0.1], "freq": [1.0], "phase": 0.0}]}), "/elements/gammas/0/map"),
        ("sum", _set_gamma0_map(lambda m: {"kind": "sum", "parts": [m, m]}),
         "/elements/gammas/0/map"),
        ("pair", _set_gamma0_map(lambda m: {"kind": "pair", "parts": [m]}),
         "/elements/gammas/0/map"),
        ("component", _set_gamma0_map(lambda m: {"kind": "component", "lo": 0, "hi": 1,
                                                 "base": m}), "/elements/gammas/0/map"),
    ], ids=["poly_weight", "shifted_weight", "const_map", "affine_map", "trig_map", "sum_map",
            "pair_map", "component_map"])
    def test_removed_kind_exits_one(self, tmp_path, scenario0, capsys, kind, mutate, pointer):
        # only the kinds whose certificates wrp computes are read
        cfg = _mutated_scenario_file(tmp_path, scenario0, mutate)
        assert main(["run", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {pointer}: unknown "), err
        assert f"kind {kind!r}" in err
        assert not (tmp_path / "report.json").exists()

    def test_every_element_at_its_least_order_runs(self, tmp_path, scenario0):
        # the max_order ingest requires of each element is all the checks need
        cfg = _mutated_scenario_file(tmp_path, scenario0, _every_element_at_its_least_order)
        assert main(["run", "--config", str(cfg)]) == 0

    @pytest.mark.parametrize("key", ["comp_eta0s", "multipliers"])
    def test_max_order_zero_loads_where_no_order_one_row_is_read(self, tmp_path, scenario0,
                                                                 key):
        # the checks read order-0 rows of comp_eta0s and no rows of multipliers
        cfg = _mutated_scenario_file(
            tmp_path, scenario0, lambda d: d["elements"][key][0].__setitem__("max_order", 0))
        assert main(["run", "--config", str(cfg)]) == 0

    @pytest.mark.parametrize("mutate, pointer", [
        (lambda d: d["factors"][0]["v"].__setitem__("radius", 1e308), "/factors/0/v"),
        (lambda d: d["factors"][1]["u"].update(lo=[-1e308], hi=[1e308]), "/factors/1/u"),
    ], ids=["huge_ball_radius", "huge_box"])
    def test_infinite_extent_exits_one_promptly(self, tmp_path, scenario0, capsys,
                                                 mutate, pointer):
        # finite numbers whose bounding box overflows: probes drawn inside
        # it are not finite, so jet validation would never find one
        def give_up(signum, frame):
            raise TimeoutError("ingest did not return within 20 s")

        cfg = _mutated_scenario_file(tmp_path, scenario0, mutate)
        previous = signal.signal(signal.SIGALRM, give_up)
        signal.alarm(20)
        try:
            code = main(["run", "--config", str(cfg)])
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {pointer}: ")
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("terms, code, error", [
        ("/elements/gammas/0/map/terms/0", 1,
         "error: /elements/gammas/0/map: gamma(["),
        ("/xis/0/map/terms/0", 2, ""),
        ("/sigmas/0/terms/0", 2, ""),
    ], ids=["gammas", "xis", "sigmas"])
    def test_jet_validation_names_the_failing_map(self, tmp_path, scenario0, capsys,
                                                  terms, code, error):
        # a coefficient of 1e300 keeps every entry bound finite, so the
        # file loads unless it breaks a hypothesis: the gammas leave the
        # value domain V, while the xis and sigmas only fail the checks
        # whose certificates no longer bound them
        def mutate(doc):
            node = doc
            for key in terms.split("/")[1:]:
                node = node[int(key) if key.isdigit() else key]
            node["coef"] = [1e300] * len(node["coef"])

        cfg = _mutated_scenario_file(tmp_path, scenario0, mutate)
        assert main(["run", "--config", str(cfg)]) == code
        err = capsys.readouterr().err
        assert err.startswith(error), err
        if code == 1:
            assert "escapes /factors/0/v, the value domain of /xis/0" in err, err
            assert not (tmp_path / "report.json").exists()
        else:
            assert json.loads((tmp_path / "report.json").read_text())["summary"]["n_fail"] > 0

    def test_overflowing_power_exits_one_without_a_warning(self, tmp_path, scenario0, capsys):
        # the W box reaches 1e160, so the powers at its corner overflow to
        # inf, and the entry bounds of the first map on W are not finite
        cfg = _mutated_scenario_file(
            tmp_path, scenario0, lambda d: d["factors"][0]["w"].update(lo=[-1e160], hi=[1e160]))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["run", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err == ("error: /elements/comp_gammas/0/map: order-0 entry bounds are not "
                       "finite\n"), err
        assert not (tmp_path / "report.json").exists()

    def test_overflowing_scaled_map_exits_one_without_a_warning(self, tmp_path, scenario0,
                                                                 capsys):
        # gamma times 1e300 twice overflows to inf, so the entry bounds of
        # the map are not finite, and the multiplies warn nothing
        def mutate(doc):
            elements = doc["elements"]["gammas"][0]
            for _ in range(2):
                elements["map"] = {"kind": "scaled", "c": 1e300, "base": elements["map"]}

        cfg = _mutated_scenario_file(tmp_path, scenario0, mutate)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["run", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err == "error: /elements/gammas/0/map: order-0 entry bounds are not finite\n", err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("mutate, code, error", [
        # x**3 times c on V (|x| < 0.69) has the entry bounds 0.33 c,
        # 1.42 c and 4.1 c at orders 0, 1 and 2
        (lambda d: d["sigmas"][0]["terms"][2].__setitem__("coef", [1.5e308]), 1,
         "/sigmas/0: order-1 entry bounds are not finite"),
        (lambda d: d["sigmas"][0]["terms"][2].__setitem__("coef", [1e308]), 1,
         "/sigmas/0: order-2 entry bounds are not finite"),
        (lambda d: _gamma0_term(d).__setitem__("coef", [50.0]), 1,
         "/elements/gammas/0/map: gamma(["),
        (lambda d: d["elements"]["gamma_alts"][0]["map"]["terms"][0].__setitem__("coef", [50.0]),
         1, "/elements/gamma_alts/0/map: gamma_alt(["),
        (lambda d: d["dominance"][0].__setitem__("context", {"sp": 1}), 1,
         "/dominance/0/context: "),
        (lambda d: d["dominance"][0].__setitem__("context", ["sp"]), 1,
         "/dominance/0/context: "),
        (lambda d: d["dominance"][0].__setitem__("context", "bogus"), 1,
         "/dominance/0/context: "),
        (lambda d: d["contraction"].__setitem__("fix_tol", -1e-12), 1,
         "/contraction/fix_tol: "),
        (lambda d: d["contraction"].__setitem__("fix_tol", -1e300), 1,
         "/contraction/fix_tol: "),
        (lambda d: d["contraction"].__setitem__("fix_tol", 0.0), 1,
         "/contraction/fix_tol: "),
        # below the stop rule's floor the iterates cannot settle: this used to
        # exit 1 with "no convergence within 200 iterations" and no pointer
        (lambda d: d["contraction"].__setitem__("fix_tol", 1e-300), 1,
         "/contraction/fix_tol: 1e-300 puts the stop rule fix_tol (1 - tau) / tau = 1e-300 "
         "below 8.881784197001252e-16, 4 float spacings at 1.1821770123928725"),
        (lambda d: d["contraction"].__setitem__("fix_tol", 5e-324), 1,
         "/contraction/fix_tol: 5e-324 puts the stop rule"),
        (lambda d: d["weights"]["members"][3]["factors"][0]["u"].__setitem__(0, []), 1,
         "/weights/members/3/factors/0/u: "),
        (lambda d: d["weights"]["members"][3]["factors"].__setitem__(0, {
            "kind": "scaled", "c": 1.0, "base": {**d["weights"]["members"][3]["factors"][0],
                                                 "u": [[0.5]]}}), 1,
         "/weights/members/3/factors/0/base/u: "),
        # an overflowing scaled weight is inf: a value, not a malformed file
        (lambda d: d["dominance"][1]["g"]["factors"][0]["base"].__setitem__("c", 1.7e308), 0,
         None),
        # quasi-inversion needs 0 <= q < 1: 1.0 and 1.5 used to exit 1 without a
        # pointer, and -0.5 exit 2 with a FAIL of lem:sim-SuperPos_QuasiInversion
        (lambda d: d.__setitem__("op_q", 1.0), 1, "/op_q: must be >= 0 and below 1, got 1.0"),
        (lambda d: d.__setitem__("op_q", 1.5), 1, "/op_q: must be >= 0 and below 1, got 1.5"),
        (lambda d: d.__setitem__("op_q", -0.5), 1, "/op_q: must be >= 0 and below 1, got -0.5"),
    ], ids=["overflowing_slope", "overflowing_curvature", "gamma_outside_v", "gamma_alt_outside_v",
            "dict_dominance_context", "list_dominance_context",
            "unknown_dominance_context", "negative_fix_tol", "extreme_negative_fix_tol",
            "zero_fix_tol", "tiny_fix_tol", "subnormal_fix_tol", "list_in_two_plus_sin_u", "list_in_scaled_two_plus_sin_u",
            "extreme_scaled_weight_c", "unit_op_q", "op_q_above_one", "negative_op_q"])
    def test_mutant_exits_with_its_pointer_and_no_warning(self, tmp_path, scenario0, capsys,
                                                          mutate, code, error):
        cfg = _mutated_scenario_file(tmp_path, scenario0, mutate)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["run", "--config", str(cfg)]) == code
        err = capsys.readouterr().err
        if error is None:
            assert err == "", err
        else:
            assert err.startswith(f"error: {error}"), err
            assert not (tmp_path / "report.json").exists()

    def test_fix_tol_at_its_floor_converges(self, tmp_path, scenario0, capsys):
        # tau is 0.5, so the stop rule is fix_tol itself; one ulp lower exits 1
        reach = max(abs(c) for fs in scenario0.factors for c in fs.u.lo + fs.u.hi)
        floor = FIX_STOP_ULPS * math.ulp(reach)
        for fix_tol, code in ((floor, 0), (math.nextafter(floor, 0.0), 1)):
            cfg = _mutated_scenario_file(
                tmp_path, scenario0, lambda d: d["contraction"].__setitem__("fix_tol", fix_tol))
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                assert main(["run", "--config", str(cfg)]) == code
            err = capsys.readouterr().err
            assert err == "" if code == 0 else err.startswith("error: /contraction/fix_tol: ")

    @pytest.mark.parametrize("pointer", [
        "/elements/gammas/0/map", "/elements/comp_gammas/1/map", "/sigmas/1",
    ], ids=["gammas", "comp_gammas", "sigmas"])
    def test_huge_power_exits_one_promptly(self, tmp_path, scenario0, capsys, pointer):
        # a map's jets cost one power per exponent and point, so a power
        # of 10**18 would run for hours; ingest caps it at MAX_POWER
        def give_up(signum, frame):
            raise TimeoutError("ingest did not return within 5 s")

        def mutate(doc):
            node = doc
            for key in pointer.split("/")[1:]:
                node = node[int(key) if key.isdigit() else key]
            node["terms"][0]["powers"][0] = 10**18

        cfg = _mutated_scenario_file(tmp_path, scenario0, mutate)
        previous = signal.signal(signal.SIGALRM, give_up)
        signal.alarm(5)
        try:
            code = main(["run", "--config", str(cfg)])
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {pointer}: powers must be a list of integers "
                              "from 0 to 64"), err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("pointer", [
        "/elements/comp_gamma0s/1/map/terms/0/coef/0",
        "/elements/comp_eta0s/1/map/terms/0/coef/0",
        "/comp_gamma_diffs/1/0/2",
        "/comp_eta_diffs/1/0/2",
    ], ids=["comp_gamma0s", "comp_eta0s", "comp_gamma_diffs", "comp_eta_diffs"])
    def test_nan_in_a_later_compose_factor_exits_one(self, tmp_path, capsys, pointer):
        # the compose pair estimate reads factor 0 of these lists only, so
        # a file stores that factor alone: a factor 1 added to one (here a
        # copy of factor 0 with a NaN) is rejected at the list's pointer
        doc = json.loads(FIXTURE.read_text(encoding="utf-8"))
        list_at = pointer.split("/1/")[0]
        *path, last = [int(k) if k.isdigit() else k for k in pointer.split("/")[1:]]
        node = doc
        for key in path:
            if key == 1:
                node.append(json.loads(json.dumps(node[0])))
            node = node[key]
        assert isinstance(node[last], float)
        node[last] = float("nan")
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(doc), encoding="utf-8")
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"scenarios": [str(scenario)], "out": str(tmp_path)}))
        assert main(["run", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {list_at}: must be a list of 1 entries"), err
        assert not (tmp_path / "report.json").exists()


class TestMain:
    def test_list_checks(self, capsys):
        assert main(["list-checks"]) == 0
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == len(ALL_CHECK_IDS)

    def test_explain(self, capsys):
        assert main(["explain", "est:f0-Norm_SPid"]) == 0
        out = capsys.readouterr().out
        assert "statement" in out and "hypotheses" in out

    def test_explain_without_hypotheses(self, capsys):
        assert main(["explain", "def:weighted_seminorm"]) == 0
        assert capsys.readouterr().out.endswith("  hypotheses: none\n")

    def test_explain_unknown(self, capsys):
        assert main(["explain", "nope"]) == 1

    def test_run_with_flags(self, tmp_path):
        code = main(
            [
                "run",
                "--seed", "0",
                "--checks", "qi:neumann_relation",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        assert (tmp_path / "report.json").exists()

    def test_env_seed_default(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("WRP_SEED", "3")
        code = main(["run", "--checks", "def:family_seminorm", "--out", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["config"]["seeds"] == [3]
        # a value that is not an integer is a usage error naming the variable
        monkeypatch.setenv("WRP_SEED", "abc")
        capsys.readouterr()
        assert main(["run", "--out", str(tmp_path / "bad")]) == 1
        assert capsys.readouterr().err == "error: WRP_SEED: must be an integer, got 'abc'\n"
        assert not (tmp_path / "bad").exists()

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_flag_follows_the_jobs_rule(self, tmp_path, capsys, jobs):
        # not the config's job count, and no report whose config block
        # parse_config refuses
        code = main(["run", "--seed", "0", "--jobs", jobs, "--out", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err == f"error: --jobs: must be a positive integer, got {jobs}\n"
        assert not (tmp_path / "report.json").exists()

    def test_unknown_check_flag(self, tmp_path):
        assert main(["run", "--seed", "0", "--checks", "nope", "--out", str(tmp_path)]) == 1
