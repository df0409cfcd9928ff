"""The checks that moved from per-point loops onto stacked passes report
what the per-point loops reported.

``linear2_identities_check`` evaluates each map once per order at its
stacked points and takes its norms by ``op_norms_of``;
``seminorm_axioms_check`` takes its four seminorms in one
``weighted_seminorms`` pass; ``inversion_jacobian_check`` takes one
``op_norms`` over its probe stack; and ``quasi_inverse_report`` takes a
whole ``(N, k, k)`` stack.  Each is run here as the suite runs it, on the
fixture and on the scenarios of seeds 0..9, with the arguments the runners
pass, and its reports are compared field for field, bits included, with a
per-point reference written below: one point, one tensor and one matrix
at a time, as the loops were before they moved.  The quasi-inverse
reference is the per-matrix Neumann rule with its products and sums
written out left to right.
"""

import functools
import json
import operator
import pathlib

import numpy as np
import pytest

from wrp import verify
from wrp.errors import PreconditionError, ShapeError
from wrp.jets import MultilinearMap, ScaledMap, SumMap, _fd_prefix, contract_last, op_norm
from wrp.operators import NEUMANN_TAIL, InverseMap, neumann_terms
from wrp.report import (
    EXACT,
    GRID_LOWER,
    bound_report,
    deviation,
    identity_report,
    merge_min_margin,
)
from wrp.seminorms import WeightedFunction, weighted_seminorm

FIXTURE = pathlib.Path(__file__).resolve().parent.parent / "fixtures" / "scenario_seed0.json"
CHECKS = ("linear2_identities_check", "seminorm_axioms_check", "inversion_jacobian_check",
          "quasi_inverse_report")


# ---------------------------------------------------------------------------
# per-point references


def _partial1(xi, point, ell) -> MultilinearMap:
    """d1^l xi at one point: the order-l tensor with every argument axis
    restricted to the first block."""
    m1 = xi.in_blocks[0]
    t = xi.tensor(point, ell)
    ent = t.entries
    for axis in range(t.out_rank, ent.ndim):
        ent = np.take(ent, range(m1), axis=axis)
    return MultilinearMap(ent, t.out_rank)


def _mixed_partial1(xi, point, ell) -> MultilinearMap:
    """(h_1..h_l, y) -> d1^l xi(x, .)(h)(y) at one point: the order-(l+1)
    tensor with its last axis in the second block, the others in the
    first."""
    m1, m2 = xi.in_blocks
    t = xi.tensor(point, ell + 1)
    ent = t.entries
    for axis in range(t.out_rank, ent.ndim - 1):
        ent = np.take(ent, range(m1), axis=axis)
    ent = np.take(ent, range(m1, m1 + m2), axis=ent.ndim - 1)
    return MultilinearMap(ent, t.out_rank)


def _linear2_reference(xi, point, direction1, direction2, ell, g=None, b=None):
    if xi.in_blocks is None or len(xi.in_blocks) != 2:
        raise ShapeError("map must declare two input blocks")
    m1, m2 = xi.in_blocks
    point = np.asarray(point, dtype=float)
    x, y = point[:m1], point[m1:]
    h1 = np.asarray(direction1, dtype=float)
    h2 = np.asarray(direction2, dtype=float)

    def value(p):
        return xi.tensor(p, 0).entries

    for alpha in (0.5, -1.25):
        probe = np.concatenate([x, alpha * y])
        dev = float(np.max(np.abs(value(probe) - alpha * value(point))))
        if dev > 1e-9 * max(1.0, float(np.max(np.abs(value(point))))):
            raise PreconditionError(
                f"map is not linear in its second argument (deviation {dev:.2e})")
    reports = []
    zero_pt = np.concatenate([x, np.zeros(m2)])
    dev0 = float(np.max(np.abs(_partial1(xi, zero_pt, ell).entries)))
    reports.append(identity_report(
        "id:Ableitung_Abb_linear_2Arg", dev0, tolerance=1e-12,
        detail=f"partial derivative of order {ell} vanishes at y = 0"))

    def p1(t):
        return _partial1(xi, np.concatenate([x + t * h1, y + t * h2]), ell).entries

    h = 1e-5
    fd = (p1(h) - p1(-h)) / (2 * h)
    lin_term = _partial1(xi, np.concatenate([x, h2]), ell).entries
    contr = contract_last(_partial1(xi, point, ell + 1), h1).entries
    dev = float(np.max(np.abs(fd - (lin_term + contr))))
    reports.append(identity_report(
        "id:Ableitung_Abb_linear_2Arg", dev, tolerance=1e-8,
        detail="curve derivative splits into shift and contraction terms"))
    y_sup = float(np.max(np.abs(y)) if y.size else 0.0)
    exact = {"lhs_provenance": "exact", "rhs_provenance": "exact",
             "witness": tuple(point.tolist())}
    if ell >= 1:
        lhs = op_norm(xi.tensor(point, ell))
        rhs = (ell * op_norm(_mixed_partial1(xi, point, ell - 1))
               + op_norm(_mixed_partial1(xi, point, ell)) * y_sup)
        reports.append(bound_report("est:norm_l-te_Ableitung-Abb_linear_2Arg", lhs, rhs,
                                    tolerance=1e-9, **exact))
    if g is not None and b is not None:
        bnorm = op_norm(MultilinearMap(np.asarray(b, dtype=float), 1))
        lhs3 = op_norm(_mixed_partial1(xi, point, ell))
        rhs3 = bnorm * op_norm(g.tensor(x, ell))
        reports.append(bound_report("est:Abb_linear_2Arg-Spezialfall-hohes_Diff--partiell",
                                    lhs3, rhs3, tolerance=1e-9, **exact))
        if ell >= 1:
            lhs4 = op_norm(xi.tensor(point, ell))
            rhs4 = (bnorm * ell * op_norm(g.tensor(x, ell - 1))
                    + bnorm * y_sup * op_norm(g.tensor(x, ell)))
            reports.append(bound_report("est:Abb_linear_2Arg-Spezialfall-hohes_Diff",
                                        lhs4, rhs4, tolerance=1e-9, **exact))
    return reports


def _seminorm_axioms_reference(wf_a, wf_b, weight, ell):
    check_id = "def:weighted_seminorm"
    alpha = -1.7
    na = weighted_seminorm(wf_a, weight, ell).value
    scaled = WeightedFunction(ScaledMap(wf_a.map, alpha), wf_a.grid, wf_a.max_order)
    dev = deviation(weighted_seminorm(scaled, weight, ell).value, abs(alpha) * na)
    homog = identity_report(check_id, dev, tolerance=1e-12, detail="homogeneity")
    total = WeightedFunction(SumMap([wf_a.map, wf_b.map]), wf_a.grid,
                             min(wf_a.max_order, wf_b.max_order))
    lhs = weighted_seminorm(total, weight, ell).value
    rhs = na + weighted_seminorm(wf_b, weight, ell).value
    tri = bound_report(check_id, lhs, rhs, tolerance=1e-12, lhs_provenance=GRID_LOWER,
                       rhs_provenance=GRID_LOWER,
                       detail="triangle inequality on grid values")
    return merge_min_margin(check_id, [homog, tri])


def _jacobian_reference(shared, probes):
    check_id = "id:Differential_der_inversen_Abb"
    # a fresh inverse: the reference reads nothing the suite's shared one cached
    inv = InverseMap(shared.phi, shared.u, shared.v, shared.cfg)
    approx, outside = _fd_prefix(inv, probes, 1, None)
    reports = [
        identity_report(check_id, op_norm(MultilinearMap(inv.tensor(y, 1).entries - ap, 1)),
                        tolerance=1e-6, witness=tuple(float(c) for c in y))
        for y, ap in zip(probes, approx[1])
    ]
    if outside is not None:
        raise outside
    return merge_min_margin(check_id, reports)


def _ltr_sum(values) -> float:
    """The values added left to right."""
    return functools.reduce(operator.add, values)


def _matmul(a, b) -> np.ndarray:
    """``a @ b``, each entry its products added left to right."""
    n = a.shape[1]
    return np.array([[_ltr_sum(a[i, k] * b[k, j] for k in range(n))
                      for j in range(b.shape[1])] for i in range(a.shape[0])])


def _inf_norm(a) -> float:
    """The largest absolute row sum, each sum left to right."""
    return max(float(_ltr_sum(np.abs(row))) for row in a)


def _quasi_inverse_reference(mats):
    qis, reports = [], []
    for a in mats:
        power, acc = a.copy(), a.copy()
        for _ in range(1, neumann_terms(_inf_norm(a))):
            power = _matmul(power, a)
            acc += power
        qi = -acc
        qis.append(qi)
        reports.append(bound_report(
            "qi:neumann_relation", _inf_norm(a + qi - _matmul(a, qi)), 2.0 * NEUMANN_TAIL,
            tolerance=0.0, lhs_provenance=EXACT, rhs_provenance=EXACT,
            detail="algebra relation a + QI(a) - a QI(a) = 0 up to the tail"))
    return np.array(qis), merge_min_margin("qi:neumann_relation", reports)


REFERENCES = {
    "linear2_identities_check": _linear2_reference,
    "seminorm_axioms_check": _seminorm_axioms_reference,
    "inversion_jacobian_check": _jacobian_reference,
    "quasi_inverse_report": _quasi_inverse_reference,
}


# ---------------------------------------------------------------------------
# the calls the suite makes


def _scenario(name: str):
    if name == "fixture":
        return verify.scenario_from_dict(json.loads(FIXTURE.read_text(encoding="utf-8")))
    return verify.generate_scenario(int(name.removeprefix("seed")))


@functools.cache
def _recorded_calls(name: str) -> dict[str, list]:
    """(args, kwargs, result) of every call the suite makes to each moved
    check on the scenario ``name``."""
    calls = {check: [] for check in CHECKS}
    originals = {check: getattr(verify, check) for check in CHECKS}

    def recorder(check):
        def record(*args, **kwargs):
            result = originals[check](*args, **kwargs)
            calls[check].append((args, kwargs, result))
            return result
        return record

    with pytest.MonkeyPatch.context() as mp:
        for check in CHECKS:
            mp.setattr(verify, check, recorder(check))
        verify.run_scenario_checks(_scenario(name))
    return calls


def _fields(result) -> str:
    """Every field of the reports (and quasi-inverse bits) of a result, as
    exact text: ``repr`` of a float round-trips its bits."""
    if isinstance(result, tuple):  # quasi_inverse_report's (stack, report)
        return repr((result[0].tobytes(), result[1]))
    return repr(result)


@pytest.mark.parametrize("check", CHECKS)
@pytest.mark.parametrize("name", ["fixture"] + [f"seed{s}" for s in range(10)])
def test_check_matches_its_per_point_reference(name, check):
    calls = _recorded_calls(name)[check]
    assert calls, f"the suite made no call to {check}"
    for args, kwargs, result in calls:
        assert _fields(result) == _fields(REFERENCES[check](*args, **kwargs))
