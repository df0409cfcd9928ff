"""The certificate table is exact.

Each ``FamilyScenario`` field states once, in its ``reads`` metadata
(``wrp.verify.READS``), the certificates the checks read of it.  The
generator writes exactly these, ingest requires every one of them and
names its JSON pointer when one is missing, and a row outside the table
is never read: adding one with a bound of 1e300 leaves the report
byte-identical.  Conversely, every factor a scenario stores of an element
or a difference list is read by some check.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from wrp.cli import main
from wrp.restricted import RestrictedElement
from wrp.seminorms import WeightedFunction
from wrp.verify import (
    DIFFERENCE_ROWS,
    ELEMENT_GRIDS,
    FIRST_FACTOR_ONLY,
    READS,
    generate_scenario,
    n_stored,
    run_scenario_checks,
    scenario_to_dict,
)

FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "scenario_seed0.json"


def _row_keys(rows) -> list[tuple]:
    return [tuple(row[:-1]) for row in rows]


# The key of an entry of a list of certificates that are not rows.
ENTRY_KEYS = {
    "/weights/members": lambda m: (m["name"],),
    "/dominance": lambda c: (c["context"], c["f"], c["ell"]),
    "/factorizations": lambda c: (c["f"],),
}
# (pointer of a list, at factor 0 where it is per factor, the field whose
# reads it must hold): every list the table governs.
TABLE = (
    [(f"/elements/{k}/0/certified", k) for k in ELEMENT_GRIDS]
    + [(f"/{k}/0", k) for k in DIFFERENCE_ROWS]
    + [("/xis/0/sup_1", "xis"), ("/sigma_k", "sigma_k"), ("/weights/members", "weights"),
       ("/dominance", "dominance"), ("/factorizations", "factorizations")]
)
CASES = [(pointer, key) for pointer, f in TABLE for key in READS[f]]


def _node(doc, pointer: str):
    for part in pointer.split("/")[1:]:
        doc = doc[int(part) if part.isdigit() else part]
    return doc


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_generator_writes_exactly_the_table(seed):
    doc = scenario_to_dict(generate_scenario(seed))
    for key in ELEMENT_GRIDS:
        assert all(_row_keys(wf["certified"]) == list(READS[key]) for wf in doc["elements"][key])
    for key in DIFFERENCE_ROWS:
        assert all(_row_keys(rows) == list(READS[key]) for rows in doc[key])
    assert all(_row_keys(x["sup_1"]) == list(READS["xis"]) for x in doc["xis"])
    assert _row_keys(doc["sigma_k"]) == list(READS["sigma_k"])


def test_every_governed_list_is_in_the_table():
    assert {f for _, f in TABLE} == set(READS)


@pytest.mark.parametrize("pointer, key", CASES, ids=[f"{p}:{k}" for p, k in CASES])
def test_dropping_a_table_entry_exits_one(tmp_path, capsys, pointer, key):
    doc = json.loads(FIXTURE.read_text(encoding="utf-8"))
    entries = _node(doc, pointer)
    entry_key = ENTRY_KEYS.get(pointer, lambda row: tuple(row[:-1]))
    kept = [e for e in entries if entry_key(e)[:len(key)] != key]
    assert len(kept) < len(entries)
    entries[:] = kept
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(doc), encoding="utf-8")
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"scenarios": [str(scenario)], "out": str(tmp_path)}))
    assert main(["run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {pointer}: "), err
    assert not (tmp_path / "report.json").exists()


def _add_unread_rows(doc) -> int:
    """Add every (member, order <= 2) row, and every sup_1 and sigma_k
    order up to 4, that a list lacks, with the bound 1e300; the number
    of rows added."""
    names = [m["name"] for m in doc["weights"]["members"]]
    added = 0

    def add(rows, keys):
        nonlocal added
        new = [[*k, 1e300] for k in keys if k not in _row_keys(rows)]
        rows += new
        added += len(new)

    for rows in ([wf["certified"] for k in ELEMENT_GRIDS for wf in doc["elements"][k]]
                 + [rows for k in DIFFERENCE_ROWS for rows in doc[k]]):
        add(rows, [(name, ell) for name in names for ell in range(3)])
    for rows in [x["sup_1"] for x in doc["xis"]] + [doc["sigma_k"]]:
        add(rows, [(ell,) for ell in range(5)])
    return added


def test_rows_outside_the_table_are_not_read(tmp_path):
    doc = json.loads(FIXTURE.read_text(encoding="utf-8"))
    scenario = tmp_path / "scenario.json"
    # per stored factor (two, or one of a first-factor-only list): 4 members
    # x 3 orders less the table's rows in each element and difference
    # list; sup_1 orders 0 and 4 of both xis; sigma_k 0, 2, 3, 4
    rows = sum(n_stored(k, 2) * (12 - len(READS[k])) for k in (*ELEMENT_GRIDS, *DIFFERENCE_ROWS))
    outputs = []
    for mutate in (lambda d: None, _add_unread_rows):
        assert mutate(doc) in (None, rows + 2 * 2 + 4)
        scenario.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / f"out{len(outputs)}"
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"scenarios": [str(scenario)], "out": str(out)}))
        assert main(["run", "--config", str(cfg)]) == 0
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        report["config"].pop("out")
        outputs.append((report, (out / "margins.csv").read_bytes()))
    assert outputs[0] == outputs[1]


class _SpiedFactor(WeightedFunction):
    """An element factor that adds its (field, factor) key to ``_read``
    whenever any of its attributes is read."""

    def __getattribute__(self, name):
        if not name.startswith("__"):
            object.__getattribute__(self, "_read").add(object.__getattribute__(self, "_key"))
        return object.__getattribute__(self, name)


class _SpiedRows(tuple):
    """The certified rows of one factor of a difference list, recording
    their key whenever they are looked at."""

    def _mark(self):
        self.read.add(self.key)

    def __iter__(self):
        self._mark()
        return super().__iter__()

    def __getitem__(self, i):
        self._mark()
        return super().__getitem__(i)

    def __len__(self):
        self._mark()
        return super().__len__()


def _spied(sc, read: set):
    """``sc`` with every stored element factor and difference row list
    replaced by a recording copy."""
    changes = {}
    for key in ELEMENT_GRIDS:
        factors = []
        for i, wf in enumerate(getattr(sc, key).factors):
            spy = object.__new__(_SpiedFactor)
            spy.__dict__.update(vars(wf), _key=(key, i), _read=read)
            factors.append(spy)
        changes[key] = RestrictedElement(tuple(factors))
    for key in DIFFERENCE_ROWS:
        rows = []
        for i, r in enumerate(getattr(sc, key)):
            rows.append(_SpiedRows(r))
            rows[-1].key, rows[-1].read = (key, i), read
        changes[key] = tuple(rows)
    return dataclasses.replace(sc, **changes)


# The directions of the simultaneous composition's derivative check are
# read at factor 0 (the single-factor check) and at the factor where the
# family seminorm of the composition peaks, which is known only when the
# checks run; every other stored entry is read on every scenario.
ARGMAX_READ = ("comp_gamma_dirs", "comp_eta_dirs")


@pytest.mark.parametrize("seed", range(10))
def test_every_stored_entry_is_read(seed):
    read: set = set()
    sc = _spied(generate_scenario(seed), read)
    reports = run_scenario_checks(sc)
    assert all(r.status == "pass" for r in reports)
    stored = {(key, i) for key in (*ELEMENT_GRIDS, *DIFFERENCE_ROWS)
              for i in range(len(getattr(sc, key)))}
    assert {key for key, i in stored if i}.isdisjoint(FIRST_FACTOR_ONLY)
    unread = stored - read
    assert {key for key, _ in unread} <= set(ARGMAX_READ), sorted(unread)
    for key in ARGMAX_READ:
        at = {i for k, i in read if k == key}
        assert 0 in at and len(at) <= 2, (key, at)
    assert len({frozenset(i for k, i in read if k == key) for key in ARGMAX_READ}) == 1
