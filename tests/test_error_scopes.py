"""Where numpy's overflow and invalid warnings are silenced.

The arithmetic helpers (``contract``, ``row_sums``, ``matmul``,
``ScaledMap.tensors``) do not enter ``np.errstate``: a check unit enters
one scope for all it runs, and each stacked pass that is also called on
its own enters one scope for its pass.  These tests pin both halves: no
check path warns, a direct call of a stacked pass on sums that overflow
returns its documented inf or NaN without a warning, and the number of
scopes a unit enters stays at its floor.
"""

import json
import math
import os
import sys
import warnings

import numpy as np
import pytest

import wrp
from wrp.errors import SpectralConditionError
from wrp.jets import PolynomialMap, ScaledMap, _entry_bounds, op_norms, opnorms_inf
from wrp.operators import quasi_inverses
from wrp.seminorms import WeightedFunction, lattice, weighted_seminorms
from wrp.spaces import box, const_weight
from wrp.verify import ScenarioUnit, run_suite

FIXTURE = os.path.join(os.path.dirname(__file__), "..", "fixtures", "scenario_seed0.json")
SRC = os.path.dirname(wrp.__file__)

# np.errstate entries of generating and checking seed 0, every check; the
# per-call scopes of contract, row_sums and ScaledMap.tensors made it 863
ERRSTATE_SEED0 = 347


def test_no_check_path_warns():
    units = [ScenarioUnit(seed=s) for s in range(4)] + [ScenarioUnit(path=FIXTURE)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        payload = run_suite(units)
    assert payload["summary"]["n_fail"] == 0


def test_checks_whose_sums_overflow_do_not_warn(tmp_path):
    # coefficients of 2e307 keep every entry bound of xi finite, so the
    # file loads; the checks' contractions and products of its norms
    # overflow, and the bounds they break fail
    with open(FIXTURE, encoding="utf-8") as fh:
        doc = json.load(fh)
    for term in doc["xis"][0]["map"]["terms"]:
        term["coef"] = [2e307] * len(term["coef"])
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        payload = run_suite([ScenarioUnit(path=str(path))])
    assert payload["summary"]["n_fail"] > 0


def _big_scaled(dom):
    """x scaled by 1e300 twice: its values and jets overflow to +-inf."""
    x = PolynomialMap(dom, [(np.array([1.0]), (1,))])
    return ScaledMap(ScaledMap(x, 1e300), 1e300)


# each row: a direct call whose sums overflow, and a test of its documented result
OVERFLOWING_PASSES = [
    # a row sum past the largest float is inf
    ("op_norms_row_sum", lambda: op_norms(np.full((1, 1, 2), 1e308)),
     lambda r: r.tolist() == [math.inf]),
    # the first argument's sums overflow to +inf and -inf, the second's meet inf - inf
    ("op_norms_vertex_nan",
     lambda: op_norms(np.concatenate([np.full((1, 1, 2, 1, 2), 1e308),
                                      np.full((1, 1, 2, 1, 2), -1e308)], axis=3)),
     lambda r: r.tolist() == [math.inf]),
    ("opnorms_inf", lambda: opnorms_inf(np.full((1, 2, 2), 1e308)),
     lambda r: r.tolist() == [math.inf]),
    ("weighted_seminorms", lambda: weighted_seminorms(
        [WeightedFunction(_big_scaled(box([-1.0], [1.0])), lattice(box([-1.0], [1.0]), 3), 1)],
        [const_weight("one", 1.0)], 0),
     lambda r: r[0].value == math.inf),
    # a multiple that overflows is inf; a zero coefficient times an overflowing power NaN
    ("entry_bounds", lambda: _entry_bounds([
        (_big_scaled(box([-1.0], [1.0])), 0),
        (PolynomialMap(box([-1e160], [1e160]), [(np.array([0.0]), (3,))]), 0)]),
     lambda r: r[0].tolist() == [[math.inf]] and np.isnan(r[1]).all()),
]


@pytest.mark.parametrize("call, documented", [row[1:] for row in OVERFLOWING_PASSES],
                         ids=[row[0] for row in OVERFLOWING_PASSES])
def test_stacked_pass_called_alone_does_not_warn(call, documented):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert documented(call())


def test_quasi_inverses_of_an_overflowing_norm_raise_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(SpectralConditionError, match="operator norm inf is not below 1"):
            quasi_inverses(np.full((1, 2, 2), 1e308))


def test_call_counts_on_seed_zero(monkeypatch):
    """Axis moves are transposes in ``src/wrp``, and a unit enters
    ``np.errstate`` no more often than at this floor."""
    entries, moves = [], []

    class CountingErrstate(np.errstate):
        def __enter__(self):
            entries.append(None)
            return super().__enter__()

    moveaxis = np.moveaxis

    def recording_moveaxis(*args, **kwargs):
        moves.append(sys._getframe(1).f_code.co_filename)
        return moveaxis(*args, **kwargs)

    monkeypatch.setattr(np, "errstate", CountingErrstate)
    monkeypatch.setattr(np, "moveaxis", recording_moveaxis)
    run_suite([ScenarioUnit(seed=0)])
    assert [f for f in moves if f.startswith(SRC)] == []
    assert 0 < len(entries) <= ERRSTATE_SEED0
