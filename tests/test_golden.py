"""Golden ``run_id`` table: one row per input.

``run_id`` hashes the whole report payload, so a row moves exactly when
some report of its input changes a byte.  A change that is meant to move
bytes edits the rows it moves and states them in CHANGES.md; any other
change leaves this table as it is.

Rows:
- ``seeds-0-9``: seeds 0..9 with all checks, the same id at one and at two
  jobs;
- ``fixture``: ``fixtures/scenario_seed0.json`` with all checks;
- ``ingest-<seed>``: the 30 scenarios of the benchmark's ``ingest``
  workload at workload seed 0, each written to ``inputs/scenario-<seed>.json``
  (relative to the run's directory, so the unit label is the same
  everywhere), loaded back and run with ``cond:adjusting_weight`` only.
"""

import json
from pathlib import Path

import pytest

from wrp.cli import main
from wrp.verify import generate_scenario, scenario_to_dict

ROOT = Path(__file__).resolve().parent.parent

GOLDEN = {
    "seeds-0-9": "7089c548b939",
    "fixture": "a7c9d9ef486e",
    "ingest-102": "3cf59fed20f9",
    "ingest-105": "b33edc2db4cc",
    "ingest-132": "23348418c740",
    "ingest-136": "89ee810abf35",
    "ingest-101": "3276a6266c43",
    "ingest-104": "101356be3bf6",
    "ingest-107": "14b7f686673f",
    "ingest-143": "68d56c2c1dec",
    "ingest-103": "a581ff8482b1",
    "ingest-106": "e5fd69d99b71",
    "ingest-111": "69345c1df1ba",
    "ingest-109": "80d05da3f693",
    "ingest-156": "b8514c97d892",
    "ingest-167": "512f193efcc9",
    "ingest-108": "c0705c5d6627",
    "ingest-110": "1fabda5b3429",
    "ingest-121": "47eab3742ec4",
    "ingest-161": "f610baff8561",
    "ingest-112": "823bda52ce3a",
    "ingest-114": "1c150d23eab3",
    "ingest-113": "e535998cb24e",
    "ingest-128": "18f2497138ab",
    "ingest-171": "4e295f8a8aca",
    "ingest-173": "78cdcacf57c0",
    "ingest-115": "cdc95c20b616",
    "ingest-117": "5f3977051a99",
    "ingest-129": "149c77175abb",
    "ingest-169": "5e8319c263cc",
    "ingest-116": "4e19db0fef20",
    "ingest-118": "774378c12e2d",
}
INGEST_SEEDS = (102, 105, 132, 136, 101, 104, 107, 143, 103, 106, 111, 109, 156, 167, 108,
                110, 121, 161, 112, 114, 113, 128, 171, 173, 115, 117, 129, 169, 116, 118)


def _run_id(tmp_path, *args) -> str:
    out = tmp_path / "out"
    assert main(["run", *args, "--out", str(out)]) == 0
    return json.loads((out / "report.json").read_text(encoding="utf-8"))["run_id"]


def _run_config(tmp_path, scenarios, checks="all") -> str:
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"scenarios": scenarios, "checks": checks}), encoding="utf-8")
    return _run_id(tmp_path, "--config", str(cfg))


def test_every_input_has_one_row():
    assert list(GOLDEN) == ["seeds-0-9", "fixture", *(f"ingest-{s}" for s in INGEST_SEEDS)]


@pytest.mark.parametrize("jobs", [1, 2])
def test_seeds(tmp_path, jobs):
    seeds = [a for s in range(10) for a in ("--seed", str(s))]
    assert _run_id(tmp_path, *seeds, "--jobs", str(jobs)) == GOLDEN["seeds-0-9"]


def test_fixture(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert _run_config(tmp_path, ["fixtures/scenario_seed0.json"]) == GOLDEN["fixture"]


@pytest.mark.parametrize("seed", INGEST_SEEDS)
def test_ingest_scenario(tmp_path, monkeypatch, seed):
    monkeypatch.chdir(tmp_path)
    path = Path("inputs") / f"scenario-{seed}.json"
    path.parent.mkdir()
    path.write_text(json.dumps(scenario_to_dict(generate_scenario(seed))), encoding="utf-8")
    run_id = _run_config(tmp_path, [str(path)], ["cond:adjusting_weight"])
    assert run_id == GOLDEN[f"ingest-{seed}"]
