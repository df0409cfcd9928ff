"""The ±t difference-quotient sweeps of the superposition and composition
derivative checks evaluate their maps once for all steps.

The range checks decide first which steps are admitted, then the maps
are evaluated at the concatenated shifted points of every admitted step,
and each step's error is taken from its own rows.  Each check must give
the used steps, the errors and the report of a per-step loop, kept here
as the oracle, and call each map's ``tensors`` once at the shifted
points (a per-step loop calls it twice per step).
"""

import numpy as np
import pytest

from wrp import operators
from wrp.arith import contract
from wrp.jets import ConstMap, PolynomialMap
from wrp.operators import (
    DEFAULT_FD_STEPS,
    SuperpositionOperand,
    compose_derivative_check,
    derivative_convergence,
    superpose_derivative_check,
)
from wrp.seminorms import WeightedFunction, lattice
from wrp.spaces import ball, box, product_box
from wrp.verify import generate_scenario

U1 = box([-1.0], [1.0])


def _superpose_loop(op, gamma, direction, check_id="id:Differential_SuperposCWZweiVars-id"):
    """The sweep one step at a time: a range check, then xi at the +t and
    -t points of that step alone."""
    pts = gamma.grid.points
    g, d = gamma.map.tensors(pts, 0), direction.map.tensors(pts, 0)
    d2 = op.xi.tensors(np.concatenate([pts, g], axis=1), 1)[:, :, -op.v.dim:]
    exact = contract(d2, d[:, None, :])

    def error_at(t):
        plus = op.xi.tensors(np.concatenate([pts, g + t * d], axis=1), 0)
        minus = op.xi.tensors(np.concatenate([pts, g - t * d], axis=1), 0)
        return np.max(np.abs((plus - minus) / (2 * t) - exact))

    errors = {t: error_at(t) for t in DEFAULT_FD_STEPS
              if op.v.members(g + t * d).all() and op.v.members(g - t * d).all()}
    return derivative_convergence(check_id, errors, DEFAULT_FD_STEPS)


def _compose_loop(gamma, eta, u, v, gamma_dir, eta_dir, check_id="id:Ableitung_Kompo"):
    pts = eta.grid.points
    ex, dx = eta.map.tensors(pts, 0), eta_dir.tensors(pts, 0)
    z = ex + pts
    dgamma = gamma.map.differential().tensors(z, 0)
    exact = contract(dgamma, dx[:, None, :]) + gamma_dir.tensors(z, 0)

    def error_at(t):
        zp, zm = z + t * dx, z - t * dx
        plus = gamma.map.tensors(zp, 0) + t * gamma_dir.tensors(zp, 0)
        minus = gamma.map.tensors(zm, 0) - t * gamma_dir.tensors(zm, 0)
        return np.max(np.abs((plus - minus) / (2 * t) - exact))

    errors = {t: error_at(t) for t in DEFAULT_FD_STEPS
              if v.members(ex + t * dx).all() and v.members(ex - t * dx).all()}
    return derivative_convergence(check_id, errors, DEFAULT_FD_STEPS)


def _superpose_case(kind):
    if kind == "seed0":
        sc = generate_scenario(0)
        return sc.xis[0], sc.gammas[0], sc.gamma_dirs[0]
    # gamma + 0.1 * 6 reaches 1.05 outside V = [-1, 1]; smaller steps stay
    xi = PolynomialMap(product_box(U1, U1), [([1.0], (1, 3)), ([0.5], (0, 2))], in_blocks=(1, 1))
    op = SuperpositionOperand(xi, U1, U1, ((1, 3.0), (2, 6.0)), 3.0)
    grid = lattice(U1, spacing=0.1)
    gamma = WeightedFunction(PolynomialMap(U1, [([0.5], (1,))]), grid, 2)
    return op, gamma, WeightedFunction(ConstMap(U1, [6.0]), grid, 2)


def _compose_case(kind):
    if kind == "seed0":
        sc = generate_scenario(0)
        fs0 = sc.factors[0]
        return (sc.comp_gammas[0], sc.comp_etas[0], fs0.u, fs0.v,
                sc.comp_gamma_dirs[0].map, sc.comp_eta_dirs[0].map)
    # eta + 0.1 * 4x reaches 0.54 outside V = ball(0, 0.5); smaller steps stay
    w = box([-2.0], [2.0])
    gamma = WeightedFunction(PolynomialMap(w, [([1.0], (2,)), ([-0.25], (3,))]),
                             lattice(w, spacing=0.25), 3, (("one", 1, 7.0),))
    eta = WeightedFunction(PolynomialMap(U1, [([0.2], (1,))]), lattice(U1, spacing=0.1), 3)
    return (gamma, eta, U1, ball([0.0], 0.5), PolynomialMap(w, [([0.5], (3,))]),
            PolynomialMap(U1, [([4.0], (1,))]))


def _sweeps(monkeypatch) -> list:
    """The (used steps, errors) of every sweep from now on."""
    report, seen = operators.convergence_report, []
    monkeypatch.setattr(operators, "convergence_report",
                        lambda cid, used, errors, *rest: seen.append((list(used), errors))
                        or report(cid, used, errors, *rest))
    return seen


@pytest.mark.parametrize("kind", ["seed0", "rejecting"])
@pytest.mark.parametrize("check", ["superpose", "compose"])
def test_sweep_matches_the_per_step_loop(check, kind, monkeypatch):
    sweeps = _sweeps(monkeypatch)
    if check == "superpose":
        args = _superpose_case(kind)
        got, want = superpose_derivative_check(*args), _superpose_loop(*args)
    else:
        args = _compose_case(kind)
        got, want = compose_derivative_check(*args), _compose_loop(*args)
    (used, errors), (want_used, want_errors) = sweeps
    assert used == want_used == list(DEFAULT_FD_STEPS[kind == "rejecting":])
    assert np.array(errors).tobytes() == np.array(want_errors).tobytes()
    assert got.to_dict() == want.to_dict()
    assert got.detail.startswith("1 step(s) rejected by range checks;") == (kind == "rejecting")


def _counted(monkeypatch, map_) -> list:
    """The (rows, order) of every ``tensors`` call of ``map_`` from now on."""
    tensors, calls = map_.tensors, []
    monkeypatch.setattr(map_, "tensors",
                        lambda points, ell: calls.append((len(points), ell)) or tensors(points, ell))
    return calls


def test_superpose_sweep_evaluates_xi_once(monkeypatch):
    op, gamma, direction = _superpose_case("seed0")
    calls = _counted(monkeypatch, op.xi)
    superpose_derivative_check(op, gamma, direction)
    n = len(gamma.grid.points)
    assert calls == [(n, 1), (2 * len(DEFAULT_FD_STEPS) * n, 0)]


def test_compose_sweep_evaluates_gamma_and_its_direction_once(monkeypatch):
    gamma, eta, u, v, gamma_dir, eta_dir = _compose_case("seed0")
    values, dirs = _counted(monkeypatch, gamma.map), _counted(monkeypatch, gamma_dir)
    compose_derivative_check(gamma, eta, u, v, gamma_dir, eta_dir)
    n, shifted = len(eta.grid.points), 2 * len(DEFAULT_FD_STEPS) * len(eta.grid.points)
    assert values == [(n, 1), (shifted, 0)]
    assert dirs == [(n, 0), (shifted, 0)]
