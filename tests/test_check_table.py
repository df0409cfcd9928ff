"""The checks run from one table over shared per-scenario products.

``run_scenario_checks`` builds only the selected ids and the products they
read, and a product several ids read is computed once per call: each
factor's gated inverse, and each dominance certificate's check.  Pinned
here:

* each id run alone reports exactly what the full run reports for it,
  bits included, on the fixture and on a two-dimensional scenario;
* ``cond:adjusting_weight`` alone checks no dominance certificate, and a
  full run checks each once (``sim_multiply`` reads the weights runner's
  report of its certificate);
* a full run of seeds 0..9 solves no (phi, point) row twice, apart from
  the restriction check, which solves its sub-family afresh;
* a broken hypothesis behind each runner-level gate skips the runners it
  skipped before, with the same details, and every other report keeps its
  status.
"""

import json
import pathlib
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from wrp import operators, spaces, verify
from wrp.jets import PolynomialMap
from wrp.restricted import RestrictedElement
from wrp.spaces import FactorizationCertificate, FamilyWeight, WeightFamily, scaled_weight
from wrp.verify import (
    ALL_CHECK_IDS,
    CHECK_REGISTRY,
    generate_scenario,
    run_scenario_checks,
    scenario_from_dict,
)

FIXTURE = pathlib.Path(__file__).resolve().parent.parent / "fixtures" / "scenario_seed0.json"
TWO_D_SEED = 2


def _scenario(name: str):
    """A fresh scenario: nothing cached is shared with another call."""
    if name == "fixture":
        return scenario_from_dict(json.loads(FIXTURE.read_text(encoding="utf-8")))
    return generate_scenario(int(name.removeprefix("seed")))


@pytest.fixture(scope="module", params=["fixture", f"seed{TWO_D_SEED}"])
def full_run(request):
    return request.param, run_scenario_checks(_scenario(request.param))


@pytest.mark.parametrize("cid", ALL_CHECK_IDS)
def test_an_id_alone_reports_what_the_full_run_reports(full_run, cid):
    name, full = full_run
    want = [repr(r) for r in full if r.check_id == cid]
    assert want
    assert [repr(r) for r in run_scenario_checks(_scenario(name), [cid])] == want


def test_the_two_dimensional_scenario_is_two_dimensional():
    assert generate_scenario(TWO_D_SEED).dim == 2


def _dominance_checks(monkeypatch) -> list:
    """The certificates of every dominance check from now on, by any caller."""
    check, seen = spaces.check_dominance_certificate, []

    def counted(cert, *args, **kwargs):
        seen.append(cert)
        return check(cert, *args, **kwargs)

    monkeypatch.setattr(spaces, "check_dominance_certificate", counted)
    monkeypatch.setattr(verify, "check_dominance_certificate", counted)
    return seen


def test_adjusting_weight_alone_checks_no_dominance_certificate(monkeypatch):
    sc = generate_scenario(0)
    seen = _dominance_checks(monkeypatch)
    (rep,) = run_scenario_checks(sc, ["cond:adjusting_weight"])
    assert rep.status == "pass" and seen == []


def test_a_full_run_checks_each_dominance_certificate_once(monkeypatch):
    sc = generate_scenario(0)
    seen = _dominance_checks(monkeypatch)
    run_scenario_checks(sc)
    # every certificate once, and each "sp" one again restricted to factor 0
    n_sp = sum(c.context == "sp" for c in sc.dominance)
    assert len(seen) == len(sc.dominance) + n_sp == 15
    ids = {id(c) for c in sc.dominance}
    assert Counter(id(c) for c in seen if id(c) in ids) == Counter(ids)


def _solved_rows(monkeypatch, sc) -> tuple[Counter, Counter]:
    """The (phi map, point) rows the inverses solve, not read from a
    cache, in a full run of ``sc``: outside the restriction check and
    inside it."""
    solves, outside, inside = operators.InverseMap.solves, Counter(), Counter()
    where = [outside]

    def counted(self, points):
        for y in np.asarray(points, dtype=float):
            if y.tobytes() not in self._cache:
                where[0][id(self.phi), y.tobytes()] += 1
        return solves(self, points)

    restrict = verify.restrict_scenario_outputs

    def restriction(*args, **kwargs):
        where[0] = inside
        try:
            return restrict(*args, **kwargs)
        finally:
            where[0] = outside

    monkeypatch.setattr(operators.InverseMap, "solves", counted)
    monkeypatch.setattr(verify, "restrict_scenario_outputs", restriction)
    run_scenario_checks(sc)
    return outside, inside


def test_no_row_is_solved_twice_outside_the_restriction(monkeypatch):
    repeats = 0
    for seed in range(10):
        sc = generate_scenario(seed)
        outside, inside = _solved_rows(monkeypatch, sc)
        repeats += sum(n - 1 for n in outside.values())
        # the restriction solves its sub-family's grids afresh, once each
        sub = range(0, sc.n_factors, 2)
        assert inside == Counter(
            (id(sc.phis[i].map), y.tobytes()) for i in sub for y in sc.factors[i].grid_vt.points)
        assert all(key in outside for key in inside)
    assert repeats == 0


# ---------------------------------------------------------------------------
# the runner-level gates


def _with_row(wf, key, bound):
    """``wf`` with its certified row ``key`` set to ``bound``."""
    return replace(wf, certified=tuple(
        (*row[:2], bound if row[:2] == key else row[2]) for row in wf.certified))


def _with_factor(elem, i, wf):
    factors = list(elem.factors)
    factors[i] = wf
    return RestrictedElement(tuple(factors))


def _with_member(sc, name, member):
    return replace(sc, weights=WeightFamily(tuple(
        member if m.name == name else m for m in sc.weights.members)))


def _phi_outside_the_operator_domain(sc, i):
    return replace(sc, phis=_with_factor(sc.phis, i, _with_row(sc.phis[i], ("one", 1), 0.9)))


def _low_adjusting_weight(sc):
    omega = sc.fw("omega")
    low = scaled_weight(omega.factors[0], 0.5, name="omega")
    return _with_member(sc, "omega", FamilyWeight("omega", (low,) + omega.factors[1:]))


def _halved_multiplier_certificate(sc):
    dominance = tuple(
        replace(c, per_factor_k=tuple(2.0 * k for k in c.per_factor_k))
        if (c.context, c.f.name, c.ell) == ("multiplier", "gauss", 0) else c
        for c in sc.dominance)
    return replace(sc, dominance=dominance)


def _short_factorization(sc):
    half = sc.fw("gauss_half")
    low = FamilyWeight("gauss_half", tuple(scaled_weight(w, 0.5, name="gauss_half")
                                           for w in half.factors))
    return replace(sc, factorizations=tuple(
        FactorizationCertificate(c.f, (half, low)) if c.f.name == "gauss" else c
        for c in sc.factorizations))


def _nonlinear_in_second(monkeypatch):
    build = verify._linear_in_second

    def bent(sc, i):
        m = build(sc, i)
        y2 = (0,) * sc.dim + (2,) + (0,) * (sc.dim - 1)
        return PolynomialMap(m.domain, list(m.terms) + [(np.full(sc.dim, 0.5), y2)],
                             in_blocks=m.in_blocks)

    monkeypatch.setattr(verify, "_linear_in_second", bent)


OPERATOR_DOMAIN = (
    "not in the operator domain: |phi|_(1,1) = 0.9 vs tau = 0.5, |phi|_(1,0) = {c10} vs "
    "(r/2)(1-tau) = 0.10307301429521461")
SHARED_DOMAIN = "family element is outside the shared operator domain"

# name: (the sabotage of seed 0, or of the verifier through monkeypatch;
# the skip detail of each skipped runner; the ids that fail)
GATES = {
    "invert_perturbed_factor0": (
        lambda sc, mp: _phi_outside_the_operator_domain(sc, 0),
        {"invert": OPERATOR_DOMAIN.format(c10=0.04872550176212491), "sim": SHARED_DOMAIN},
        set()),
    "sim_invert_last_factor": (
        lambda sc, mp: _phi_outside_the_operator_domain(sc, sc.n_factors - 1),
        {"invert": OPERATOR_DOMAIN.format(c10=0.046546763188755655), "sim": SHARED_DOMAIN},
        set()),
    "neighborhood_inclusion": (
        lambda sc, mp: replace(sc, tau_nb=1e-3),
        {"family": "family seminorm 0.15478218366459276 is not below tau = 0.001",
         "sim": "family seminorm 0.15478218366459276 is not below tau = 0.001"},
        set()),
    "neighborhood_openness": (
        lambda sc, mp: replace(sc, clearance_nb=1e-9),
        {"family": "distance 0.006687842040914173 to the base element is not below "
                   "the clearance"},
        set()),
    "linearity": (
        lambda sc, mp: _nonlinear_in_second(mp) or sc,
        {"jets": "map is not linear in its second argument (deviation 1.12e-02)"},
        set()),
    "certified_inf": (
        lambda sc, mp: _low_adjusting_weight(sc),
        {"seminorms": "weight 'omega' needs certified inf >= 1.4516933793204974"},
        {"cond:adjusting_weight"}),
    "sim_multiply_certificate": (
        lambda sc, mp: _halved_multiplier_certificate(sc),
        {"sim": "dominance certificate fails on the grid"},
        {"cond:est_sim-multiplier_weights"}),
    "sim_multilinear_certificate": (
        lambda sc, mp: _short_factorization(sc),
        {"sim": "weight factorization fails on the grid"},
        set()),
}


@pytest.mark.parametrize("gate", GATES)
def test_a_broken_gate_skips_what_it_skipped(gate, monkeypatch):
    sabotage, skipped, failed = GATES[gate]
    reports = run_scenario_checks(sabotage(generate_scenario(0), monkeypatch))
    for r in reports:
        runner = CHECK_REGISTRY[r.check_id].runner
        if runner in skipped:
            assert (r.status, r.detail) == ("skipped-precondition", skipped[runner]), r
        else:
            assert r.status == ("fail" if r.check_id in failed else "pass"), r
    assert {r.check_id for r in reports} == set(ALL_CHECK_IDS)
