"""The derivative check of inversion runs in stacked passes with the
outcome of the step-by-step sweep.

``inversion_direction_check`` computes its closed form once at the fixed
points of phi + id, and solves the inverses of phi +- t direction for
every step the range check admits in one fixed-point pass.  It is pinned
here against the sweep it replaces, kept as the oracle: one step at a
time, a fresh ``InverseMap`` of ``SumMap([phi, ScaledMap(direction,
+-t)])`` for each sign, and the closed form again at every step.  Reports
agree bit for bit on the scenarios of seeds 0..9 and on built instances;
a failed solve raises the oracle's error, in type, message and ``row``.

The failures are built with maps that throw one chosen iterate out of
the domain: phi is ``P x`` and the direction ``a x``, but each jumps on
narrow bands around the first iterate of a chosen row, of the base solve
for phi and of a (step, sign, probe) solve for the direction.
"""

import functools
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wrp import operators
from wrp.errors import ContractionViolationError, IterationError
from wrp.jets import JetMap, ScaledMap, SumMap
from wrp.operators import (
    EXACTNESS_TOL,
    ContractionConfig,
    InverseMap,
    derivative_convergence,
    inversion_direction_check,
    neumann_terms,
)
from wrp.seminorms import WeightedFunction, lattice
from wrp.spaces import box
from wrp.verify import generate_scenario

STEPS = (0.05, 0.025, 0.0125, 0.00625)


def _ltr_sum(values) -> float:
    """The values added left to right."""
    return functools.reduce(operator.add, values)


def _quasi_inverse(a: np.ndarray) -> np.ndarray:
    """The per-matrix Neumann rule: -(a + a^2 + ...) to the truncation
    order of the matrix's own largest absolute row sum, each power
    ``power @ a`` with its products added left to right."""
    n = a.shape[0]
    power, acc = a.copy(), a.copy()
    for _ in range(1, neumann_terms(max(_ltr_sum(np.abs(row)) for row in a))):
        power = np.array([[_ltr_sum(power[i, k] * a[k, j] for k in range(n))
                           for j in range(n)] for i in range(n)])
        acc += power
    return -acc


def _direction_oracle(phi, direction, u, v, probes, cfg):
    """The step-by-step sweep: per admitted step, the base, plus and minus
    inverses solved probe array by probe array, the earlier probes of a
    failed solve replayed one at a time, and the closed form per probe."""
    c11 = phi.require_bound("one", 1)
    d11 = direction.require_bound("one", 1)
    c10 = phi.require_bound("one", 0)
    d10 = direction.require_bound("one", 0)
    base = InverseMap(phi.map, u, v, cfg)

    def error_at(t):
        plus = InverseMap(SumMap([phi.map, ScaledMap(direction.map, t)]), u, v, cfg)
        minus = InverseMap(SumMap([phi.map, ScaledMap(direction.map, -t)]), u, v, cfg)
        try:
            x_star = np.array([x for x, _, _ in base.solves(probes)])
            fd = (plus.tensors(probes, 0) - minus.tensors(probes, 0)) / (2 * t)
        except (ContractionViolationError, IterationError) as exc:
            for y in probes[:exc.row]:
                for inv in (base, plus, minus):
                    inv.solve(y)
            raise
        worst = 0.0
        for a, dv, fd_y in zip(phi.map.tensors(x_star, 1),
                               direction.map.tensors(x_star, 0), fd):
            qi = _quasi_inverse(-a)
            exact = -((np.eye(a.shape[0]) - qi) @ dv)
            worst = max(worst, float(np.max(np.abs(fd_y - exact))))
        return worst

    # the steps that keep phi +- t direction in the operator domain, in order
    errors = {t: error_at(t) for t in STEPS
              if not (c11 + t * d11 >= cfg.tau or c10 + t * d10 >= cfg.r / 2 * (1 - cfg.tau))}
    return derivative_convergence(
        "id:Ableitung_Inversion", errors, STEPS,
        exact_tol=max(EXACTNESS_TOL, 4.0 * cfg.fix_tol / min(STEPS)),
        detail="derivative in the operator argument;",
    )


def _outcome(check, *args):
    """The report's exact fields, or the error's type, message and row."""
    try:
        return repr(check(*args))
    except (ContractionViolationError, IterationError) as exc:
        return type(exc), str(exc), exc.row


def _check(phi, direction, u, v, probes, cfg):
    """The check on a fresh inverse of phi, in the oracle's argument order."""
    return inversion_direction_check(phi, InverseMap(phi.map, u, v, cfg), direction, probes)


def _same_outcome(*args):
    got, want = _outcome(_check, *args), _outcome(_direction_oracle, *args)
    assert got == want
    assert isinstance(got, str) or type(got[2]) is int
    return got


@pytest.mark.parametrize("seed", range(10))
def test_scenarios_match_the_sweep(seed):
    sc = generate_scenario(seed)
    fs0 = sc.factors[0]
    probes = fs0.grid_vt.points[:: max(1, len(fs0.grid_vt) // 3)]
    got = _same_outcome(sc.phis[0], sc.phi_dirs[0], fs0.u, fs0.v_tilde, probes, sc.contraction)
    assert "'pass'" in got


# ---------------------------------------------------------------------------
# built instances: phi(x) = P x and direction a x, with jumps on trap bands

U, V = box([-2.0], [2.0]), box([-0.4], [0.4])
GRID_U = lattice(U, spacing=0.25)
P = 0.05
PROBES = np.array([[0.0], [0.2], [0.3], [0.35]])
CFG = ContractionConfig(tau=0.5, r=1.5)


class _Trap(JetMap):
    """x -> a x, plus ``jump`` on each band [lo, hi): an iterate landing
    there is thrown out of the domain on the next step."""

    def __init__(self, a, bands=(), jump=1000.0):
        super().__init__(U, (1,), max_order=1)
        self.a, self.bands, self.jump = a, tuple(bands), jump

    def tensors(self, points, ell):
        self._check_order(ell)
        x = np.asarray(points, dtype=float)
        if ell == 1:
            return np.full((len(x), 1, 1), self.a)
        hit = np.zeros(len(x), dtype=bool)
        for lo, hi in self.bands:
            hit |= (x[:, 0] >= lo) & (x[:, 0] < hi)
        return self.a * x + np.where(hit, self.jump, 0.0)[:, None]


def _first_iterate(y, c, a=10.0):
    return y - (P * y + c * (a * y))


def _trap(y, c, a=10.0):
    """The band around the first iterate of the row (probe y, shift c);
    shift 0 is the base solve, which only phi's bands reach."""
    x1 = _first_iterate(y, c, a)
    return (x1 - 1e-9, x1 + 1e-9)


def _instance(a, bands, d11=1e-3, phi_bands=()):
    phi = WeightedFunction(_Trap(P, phi_bands), GRID_U, 1,
                           (("one", 0, 0.1), ("one", 1, P)))
    direction = WeightedFunction(_Trap(a, bands), GRID_U, 1,
                                 (("one", 0, 1e-3), ("one", 1, d11)))
    return phi, direction


def _failing_probes(phi, direction, c, cfg=CFG):
    """Indices of the probes whose one-point solve of phi + c direction
    (or of phi alone for c None) fails."""
    m = phi.map if c is None else SumMap([phi.map, ScaledMap(direction.map, c)])
    inv, out = InverseMap(m, U, V, cfg), []
    for k, y in enumerate(PROBES):
        try:
            inv.solve(y)
        except (ContractionViolationError, IterationError):
            out.append(k)
    return out


def test_untrapped_instance_passes():
    assert "'pass'" in _same_outcome(*_instance(10.0, []), U, V, PROBES, CFG)


def test_failing_only_at_the_second_admitted_step():
    phi, direction = _instance(10.0, [_trap(0.3, 0.025)])
    assert _failing_probes(phi, direction, 0.05) == _failing_probes(phi, direction, -0.05) == []
    assert _failing_probes(phi, direction, 0.025) == [2]
    got = _same_outcome(phi, direction, U, V, PROBES, CFG)
    assert got[0] is ContractionViolationError and got[2] == 2


def test_failing_in_minus_only():
    phi, direction = _instance(10.0, [_trap(0.2, -0.05)])
    assert _failing_probes(phi, direction, 0.05) == []
    assert _failing_probes(phi, direction, -0.05) == [1]
    assert _same_outcome(phi, direction, U, V, PROBES, CFG)[2] == 1


def test_plus_failure_at_a_later_probe_than_a_minus_failure():
    # the sweep's whole-probe plus solve fails at probe 3 first; its replay
    # of the earlier probes meets the minus failure at probe 1 alone
    phi, direction = _instance(10.0, [_trap(0.2, -0.05), _trap(0.35, 0.05)])
    assert _failing_probes(phi, direction, 0.05) == [3]
    assert _failing_probes(phi, direction, -0.05) == [1]
    got = _same_outcome(phi, direction, U, V, PROBES, CFG)
    assert got[2] == 0 and "[50." in got[1]  # minus: 0.2 - P x + 0.05 (a x + 1000)


def test_minus_and_plus_failing_at_one_probe_raise_plus():
    phi, direction = _instance(10.0, [_trap(0.3, -0.05), _trap(0.3, 0.05)])
    got = _same_outcome(phi, direction, U, V, PROBES, CFG)
    assert got[2] == 2 and "[-4" in got[1]  # plus: 0.3 - P x - 0.05 (a x + 1000)


def test_range_rejected_steps_are_not_solved():
    # d11 = 10 rejects the first step, whose plus solve would fail at
    # probe 1; the first admitted step fails at probe 2
    phi, direction = _instance(10.0, [_trap(0.2, 0.05), _trap(0.3, 0.025)], d11=10.0)
    assert _failing_probes(phi, direction, 0.05) == [1]
    got = _same_outcome(phi, direction, U, V, PROBES, CFG)
    assert got[2] == 2


def test_every_step_rejected_solves_nothing(monkeypatch):
    # the base solve would fail at probe 2, but no step is admitted
    phi, direction = _instance(10.0, [], d11=100.0, phi_bands=[_trap(0.3, 0.0)])
    assert _failing_probes(phi, direction, None) == [2]
    want = _outcome(_direction_oracle, phi, direction, U, V, PROBES, CFG)

    def no_pass(*args):
        raise AssertionError("a fixed-point pass ran")

    monkeypatch.setattr(operators, "_fixed_points", no_pass)
    got = _outcome(_check, phi, direction, U, V, PROBES, CFG)
    assert got == want and "skipped" in got


def test_base_failure_after_an_earlier_plus_failure():
    # the base fails at probe 3; the first step's plus fails at probe 1,
    # which the sweep met replaying the probes before 3 one at a time
    phi, direction = _instance(10.0, [_trap(0.2, 0.05)], phi_bands=[_trap(0.35, 0.0)])
    assert _failing_probes(phi, direction, None) == [3]
    got = _same_outcome(phi, direction, U, V, PROBES, CFG)
    assert got[2] == 0


def test_base_failure_alone():
    phi, direction = _instance(10.0, [], phi_bands=[_trap(0.3, 0.0)])
    got = _same_outcome(phi, direction, U, V, PROBES, CFG)
    assert got[0] is ContractionViolationError and got[2] == 2


def test_iteration_errors():
    # |P + a t| = 0.55 needs about 43 iterations at probe 0.35, 0.45 about 33
    for max_iters in (20, 38, 45):
        cfg = ContractionConfig(tau=0.5, r=1.5, max_iters=max_iters)
        for a in (10.0, -10.0):
            _same_outcome(*_instance(a, []), U, V, PROBES, cfg)
    cfg = ContractionConfig(tau=0.5, r=1.5, max_iters=38)
    got = _same_outcome(*_instance(-10.0, []), U, V, PROBES, cfg)
    assert got[0] is IterationError and got[2] == 1  # minus only: P - a t = 0.55


@settings(derandomize=True, max_examples=120, deadline=None)
@given(
    a=st.sampled_from([-14.0, -10.0, -3.0, 0.0, 4.0, 10.0, 14.0]),
    traps=st.lists(st.tuples(st.sampled_from((0.0,) + STEPS), st.sampled_from([1.0, -1.0]),
                             st.integers(0, 3)), max_size=3),
    d11=st.sampled_from([1e-3, 10.0, 30.0, 100.0]),
    max_iters=st.sampled_from([12, 30, 40, 200]),
    probe_rows=st.lists(st.integers(0, 3), min_size=1, max_size=4),
)
def test_random_instances_match_the_sweep(a, traps, d11, max_iters, probe_rows):
    """Trap bands on random rows (the base for step 0.0), range rejections,
    iteration limits and probe orders."""
    bands = [_trap(PROBES[k, 0], sign * t, a) for t, sign, k in traps if t]
    phi_bands = [_trap(PROBES[k, 0], 0.0, a) for t, _, k in traps if not t]
    phi, direction = _instance(a, bands, d11, phi_bands)
    cfg = ContractionConfig(tau=0.5, r=1.5, max_iters=max_iters)
    _same_outcome(phi, direction, U, V, PROBES[probe_rows], cfg)


# ---------------------------------------------------------------------------
# one pass per check


@pytest.mark.parametrize("seed", range(10))
def test_one_fixed_point_pass_and_one_closed_form_per_check(seed, monkeypatch):
    calls = {"_fixed_points": 0, "quasi_inverses": 0}
    for name in calls:
        real = getattr(operators, name)

        def counted(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(operators, name, counted)
    sc = generate_scenario(seed)
    fs0 = sc.factors[0]
    probes = fs0.grid_vt.points[:: max(1, len(fs0.grid_vt) // 3)]
    inversion_direction_check(sc.phis[0], InverseMap(sc.phis[0].map, fs0.u, fs0.v_tilde,
                                                     sc.contraction), sc.phi_dirs[0], probes)
    # the base solve and the pass of every admitted plus and minus solve
    assert calls == {"_fixed_points": 2, "quasi_inverses": 1}
