"""The batched evaluation path is pinned bit for bit.

``JetMap.tensors`` evaluates a whole point array at once; ``tensor`` is a
batch of one.  Every row of a batch must carry exactly the
bits of the one-point evaluation, and the polynomial kernel must carry the
bits of the plain one-point formula below, whose powers are multiplication
chains and whose sums run left to right.  The same holds for domain
membership (``DomainSet.members``), boundary distance
(``DomainSet.boundary_distances``), norms (``NormedSpaceDesc.norms``),
finite-difference stencils (``fd_tensors``), the fixed-point inversion
(``InverseMap.solves``), weight evaluation (``Weight.values``, of which
``Weight.__call__`` is a batch of one) and the weighted grid sup
(``weighted_seminorm``), each against its one-point rule kept here as
the oracle.  Operator norms (``op_norms`` over a stack, of which
``op_norm`` is a batch of one) are pinned bit for bit against the
per-tensor enumeration kept here, with its vertex and row sums written
out left to right, on every stack a scenario run of seeds 0..9 builds and
on random stacks of every shape, and against a brute-force enumeration
of every vertex where an argument of dimension 1 moves to the vertex
axes without a contraction; the paired-derivative check
over a point array against the merge of its one-point reports.  The
per-instance caches of ``PolynomialMap.tensors``, the polynomial entry
bounds and ``Weight.values`` hand back read-only arrays with the bits of
an uncached evaluation, keyed by the exact input bits.  Quasi-inverses
(``quasi_inverses`` over a stack) carry the bits of the per-matrix Neumann power chain kept here,
its products written out entry by entry,
on random stacks and on every stack a scenario run of seeds 0..9 builds.  The stencils
built from the cached offset table carry the bits of a list-built
one-point stencil, signed zeros included, and ``validate_jet_map`` draws
the probe stream of a one-row-at-a-time loop and raises what a
one-probe-at-a-time comparison raises.
"""

import functools
import itertools
import json
import math
import operator
import os
import re
import signal
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wrp import jets
from wrp.errors import (
    ContractionViolationError,
    DataError,
    DomainMembershipError,
    EnumerationBudgetError,
    GeometryError,
    IterationError,
    OrderError,
    PreconditionError,
    SpectralConditionError,
    TruncationError,
    UnsupportedNormError,
)
from wrp.jets import (
    ENUM_BUDGET,
    AffineMap,
    ComponentMap,
    ComposeMap,
    ConstMap,
    DifferentialMap,
    JetMap,
    MultilinearMap,
    MultilinearPairMap,
    PairedDerivativeMap,
    PairMap,
    PartialD2Map,
    PolynomialMap,
    ScaledMap,
    SumMap,
    TrigPolynomialMap,
    crude_sup_bound,
    fd_tensors,
    identity_map,
    op_norm,
    op_norms,
    opnorms_inf,
    uncurry_last,
    validate_jet_map,
    validate_jet_maps,
    xi2_pointwise_check,
    xi2_build,
)
from wrp.operators import ContractionConfig, InverseMap, neumann_terms, quasi_inverses
from wrp.restricted import PointwiseQIMap
from wrp.report import bound_report, merge_min_margin
from wrp.seminorms import WeightedFunction, lattice, weighted_seminorm
from wrp.spaces import BOX, EUCLIDEAN, SUP, Weight, ball, box
from wrp.verify import (
    ELEMENT_GRIDS,
    ScenarioUnit,
    generate_scenario,
    load_scenario,
    run_scenario_checks,
    run_suite,
    scenario_from_dict,
    scenario_to_dict,
)

FIXTURE = os.path.join(os.path.dirname(__file__), "..", "fixtures", "scenario_seed0.json")
MAX_ORDER_CAP = 3  # orders checked for maps without a declared max order


def _chain_power(x: float, k: int) -> float:
    """``x**k`` as the chain ``x**0 = 1``, ``x**j = x**(j-1) * x``."""
    p = 1.0
    for _ in range(k):
        p *= x
    return p


def _ltr_sum(values) -> float:
    """The values added left to right."""
    return functools.reduce(operator.add, values)


def _poly_derivative(terms, point, ell, coef):
    """Oracle: the order-``ell`` derivative entries ``(n,) + (m,)*ell`` at
    one point, by the one-point formula the batched kernel must reproduce:
    per term and surviving multi-index, the coefficient times ((the
    falling factorials' integer product times the chained power of axis
    0) times the chained power of axis 1 ...), added in term order."""
    n, m = terms[0][0].shape[0], len(terms[0][1])
    ent = np.zeros((n,) + (m,) * ell)
    for c, pw in terms:
        cc = coef(c)
        for jidx in itertools.product(range(m), repeat=ell):
            beta = [0] * m
            for j in jidx:
                beta[j] += 1
            if any(beta[a] > pw[a] for a in range(m)):
                continue
            fall = 1
            for a in range(m):
                for k in range(beta[a]):
                    fall *= pw[a] - k
            scale = float(fall)
            for a in range(m):
                scale *= _chain_power(float(point[a]), pw[a] - beta[a])
            ent[(slice(None),) + jidx] += cc * scale
    return ent


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _probe_points(map_: JetMap, seed: int, n: int = 9) -> np.ndarray:
    rng = np.random.default_rng(seed)
    lo, hi = map_.domain.bounding_box()
    mid, half = (lo + hi) / 2, (hi - lo) / 2
    pts = [mid.copy()]  # exact zeros where the domain is centred at 0
    while len(pts) < n:
        x = mid + 0.8 * half * rng.uniform(-1, 1, size=map_.dim)
        if _contains_oracle(map_.domain, x):
            pts.append(x)
    return np.array(pts)


def _scenario_maps(seed: int) -> list[tuple[str, JetMap, np.ndarray]]:
    """The maps a scenario carries and the maps the runners build from
    them, each with the points it is evaluated at."""
    sc = generate_scenario(seed)
    out = []
    for key, grid in ELEMENT_GRIDS.items():
        wf = getattr(sc, key).factors[0]
        out.append((key, wf.map, wf.grid.points))
    fs = sc.factors[0]
    op = sc.xis[0]
    gamma = sc.gammas[0].map
    out += [
        ("xi", op.xi, _probe_points(op.xi, seed)),
        ("sigma", sc.sigmas[0], _probe_points(sc.sigmas[0], seed)),
        ("superposed", ComposeMap(op.xi, PairMap([identity_map(fs.u), gamma])),
         fs.grid_u.points),
        ("composed", ComposeMap(
            sc.comp_gammas[0].map, SumMap([sc.comp_etas[0].map, identity_map(fs.u)])),
         fs.grid_u.points),
        ("sigma_of_gamma", ComposeMap(sc.sigmas[0], gamma), fs.grid_u.points),
        ("near", SumMap([gamma, ScaledMap(sc.gamma_dirs[0].map, 0.02)]), fs.grid_u.points),
        ("differential", DifferentialMap(gamma), fs.grid_u.points),
        ("partial_d2", PartialD2Map(op.xi), _probe_points(op.xi, seed)),
        ("bilinear", MultilinearPairMap(sc.bilinears[0], [sc.multipliers[0].map, gamma]),
         fs.grid_u.points),
        ("multilinear", MultilinearPairMap(
            sc.beta2s[0], [sc.ml_args1[0].map, sc.ml_args2[0].map]), fs.grid_u.points),
        ("inverse", InverseMap(sc.phis[0].map, fs.u, fs.v_tilde, sc.contraction),
         fs.grid_vt.points),
        ("pointwise_qi", PointwiseQIMap(
            ScaledMap(ConstMap(fs.u, np.eye(sc.dim).reshape(-1)), 0.25), sc.dim),
         fs.grid_u.points),
    ]
    for pairing in ("evaluate", "compose"):
        xi2 = xi2_build(op.xi, pairing, 0.5)
        out.append((f"xi2_{pairing}", xi2, _probe_points(xi2, seed)))
    dm = PairedDerivativeMap(DifferentialMap(sc.multipliers[0].map), "evaluate", 0.5)
    out.append(("paired_differential", dm, _probe_points(dm, seed)))
    return out


def _builtin_maps() -> list[tuple[str, JetMap, np.ndarray]]:
    rng = np.random.default_rng(7)
    out = []
    for dim in (1, 2, 3):
        dom = box([-1.0] * dim, [1.0] * dim)
        a, b = rng.normal(size=(2, dim)), rng.normal(size=2)
        trig = [(rng.normal(size=2), rng.normal(size=dim), float(rng.normal()))
                for _ in range(3)]
        poly = PolynomialMap(dom, [
            (rng.normal(size=2), tuple(int(p) for p in rng.integers(0, 4, size=dim)))
            for _ in range(4)
        ])
        out += [
            (f"affine{dim}", AffineMap(dom, a, b), _probe_points(AffineMap(dom, a, b), dim)),
            (f"trig{dim}", TrigPolynomialMap(dom, trig), _probe_points(poly, dim)),
            (f"const{dim}", ConstMap(dom, b), _probe_points(poly, dim)),
            (f"component{dim}", ComponentMap(poly, 1, 2), _probe_points(poly, dim)),
            (f"pair{dim}", PairMap([poly, AffineMap(dom, a, b)]), _probe_points(poly, dim)),
            (f"poly{dim}", poly, _probe_points(poly, dim)),
        ]
    # one term, one variable: the shapes where numpy's power loops differ
    square = PolynomialMap(box([-1.5], [1.5]), [([1.0], (2,))])
    out.append(("square", square, _probe_points(square, 0, 200)))
    return out


def _check_rows(label, map_, pts):
    top = MAX_ORDER_CAP if map_.max_order is None else min(map_.max_order, MAX_ORDER_CAP)
    for ell in range(top + 1):
        batch = map_.tensors(pts, ell)
        for i, x in enumerate(pts):
            assert _same_bits(batch[i], map_.tensor(x, ell).entries), (label, ell, i)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_scenario_maps_rows_match_one_point(seed):
    for label, map_, pts in _scenario_maps(seed):
        _check_rows(label, map_, pts[:9])


def test_builtin_maps_rows_match_one_point():
    for label, map_, pts in _builtin_maps():
        _check_rows(label, map_, pts)


def test_every_jetmap_class_is_pinned():
    seen = {type(m) for _, m, _ in _scenario_maps(0) + _builtin_maps()}
    todo, classes = list(JetMap.__subclasses__()), set()
    while todo:
        cls = todo.pop()
        if cls.__module__.startswith("wrp."):
            classes.add(cls)
        todo.extend(cls.__subclasses__())
    assert classes <= seen, sorted(c.__name__ for c in classes - seen)


def test_polynomial_matches_one_point_formula():
    # enough points that libm's pow or numpy's vectorized power would
    # differ from the power chain somewhere
    rng = np.random.default_rng(11)
    for dim, n_points in ((1, 400), (2, 100), (3, 20)):
        dom = box([-1.5] * dim, [1.5] * dim)
        powers = [(k,) for k in range(5)] if dim == 1 else [
            tuple(int(p) for p in rng.integers(0, 5, size=dim)) for _ in range(5)]
        pm = PolynomialMap(dom, [(rng.normal(size=3), pw) for pw in powers])
        pts = _probe_points(pm, dim, n_points)
        for ell in range(5):
            batch = pm.tensors(pts, ell)
            for i, x in enumerate(pts):
                assert _same_bits(batch[i], _poly_derivative(pm.terms, x, ell, lambda c: c))
            # the certified entry bounds evaluate the same kernel at the
            # bounding-box corner with absolute coefficients
            corner = np.full(dim, 1.5)
            oracle = _poly_derivative(pm.terms, corner, ell, np.abs).reshape(3, -1)
            assert crude_sup_bound(pm, ell) == max(_ltr_sum(row) for row in oracle)


def _stencil_formula(f, x, h):
    """Oracle: value, central first differences and second differences at
    one point, written out from the stencil formulas."""
    m = len(x)
    e = np.eye(m) * h
    d1 = np.stack([(f(x + e[j]) - f(x - e[j])) / (2 * h) for j in range(m)], axis=-1)
    d2 = np.zeros(f(x).shape + (m, m))
    for i in range(m):
        d2[..., i, i] = (f(x + e[i]) - 2 * f(x) + f(x - e[i])) / h**2
        for j in range(i + 1, m):
            v = (f(x + e[i] + e[j]) - f(x + e[i] - e[j]) - f(x - e[i] + e[j])
                 + f(x - e[i] - e[j])) / (4 * h**2)
            d2[..., i, j] = d2[..., j, i] = v
    return f(x), d1, d2


def _poly_value(pm):
    """The one-point value rule of ``pm``: the per-term oracle at order 0."""
    return lambda x: _poly_derivative(pm.terms, x, 0, lambda c: c)


def _fd_poly():
    rng = np.random.default_rng(5)
    dom = box([-1.0] * 3, [1.0] * 3)
    return rng, PolynomialMap(dom, [
        (rng.normal(size=2), tuple(int(p) for p in rng.integers(0, 4, 3))) for _ in range(5)])


def test_fd_tensors_batch_of_one_matches_stencil_formula():
    rng, pm = _fd_poly()
    h = 1e-3
    for x in rng.uniform(-0.5, 0.5, size=(10, 3)):
        want = _stencil_formula(_poly_value(pm), x, h)
        for got, w in zip(fd_tensors(pm, x[None], 2, h=h), want):
            assert _same_bits(got[0], w)


def test_fd_tensors_rows_match_stencil_formula():
    rng, pm = _fd_poly()
    h = 1e-3
    xs = rng.uniform(-0.5, 0.5, size=(10, 3))
    xs[0] = [-0.0, 0.0, -0.0]  # signed zeros: x + 0.0 and x - 0.0 differ
    for order in (0, 1, 2):
        batch = fd_tensors(pm, xs, order, h=h)
        assert len(batch) == order + 1
        for i, x in enumerate(xs):
            want = _stencil_formula(_poly_value(pm), x, h)
            for ell in range(order + 1):
                assert _same_bits(batch[ell][i], want[ell]), (order, i, ell)


def test_fd_tensors_names_first_stencil_point_outside():
    pm = PolynomialMap(box([-1.0, -1.0], [1.0, 1.0]), [([1.0], (2, 1))])
    x = np.array([0.5, 0.9995])
    # x + h e_0 is inside; x + h e_1 is the first point outside
    with pytest.raises(DomainMembershipError, match=r"\[0\.5, 1\.0005"):
        fd_tensors(pm, x[None], 1, h=1e-3)


def test_fd_tensors_names_first_outside_point_in_probe_order():
    pm = PolynomialMap(box([-1.0, -1.0], [1.0, 1.0]), [([1.0], (2, 1))])
    # probe 1 leaves through x - h e_0, probe 2 through x + h e_0, which
    # comes earlier in a stencil: probe 1's point is named
    xs = np.array([[0.0, 0.0], [-0.9995, 0.25], [0.9995, 0.5]])
    with pytest.raises(DomainMembershipError, match=r"\[-1\.0005\d*, 0\.25\]"):
        fd_tensors(pm, xs, 1, h=1e-3)
    with pytest.raises(DomainMembershipError, match=r"\[1\.0005\d*, 0\.5\]"):
        fd_tensors(pm, xs[[0, 2]], 1, h=1e-3)


class _OffByOne(PolynomialMap):
    """A polynomial whose coded first derivative is off by 1 everywhere."""

    def tensors(self, points, ell):
        return super().tensors(points, ell) + (1.0 if ell == 1 else 0.0)


def _probe_draws(map_, seed, rng=None):
    """Oracle: the probes ``validate_jet_map`` draws with
    ``default_rng(seed)`` (or ``rng``), one row at a time."""
    rng = np.random.default_rng(seed) if rng is None else rng
    lo, hi = map_.domain.bounding_box()
    mid, half = (lo + hi) / 2, (hi - lo) / 2
    probes = []
    while len(probes) < 3:
        x = mid + 0.5 * half * rng.uniform(-1, 1, size=map_.dim)
        if _contains_oracle(map_.domain, x):
            probes.append(x)
    return probes


def _stencil_leaves(map_, x) -> bool:
    try:
        fd_tensors(map_, x[None], 2)
    except DomainMembershipError:
        return True
    return False


def test_validate_jet_map_raises_for_the_earliest_probe():
    # a ball so small that the order-2 stencil of an outer probe leaves it
    dom = ball([0.0, 0.0], 0.004, norm_kind="euclidean")
    bad = _OffByOne(dom, [([1.0], (2, 1))])
    seen = set()
    for seed in range(200):
        # the exception type and message of a one-probe-at-a-time loop
        assert _validate_outcome(bad, seed) == _validate_oracle(bad, seed), seed
        leaves = [_stencil_leaves(bad, x) for x in _probe_draws(bad, seed)]
        if not any(leaves):
            continue
        if leaves[0]:
            with pytest.raises(DomainMembershipError):
                validate_jet_map(bad, np.random.default_rng(seed))
            seen.add("stencil")
        else:
            # probe 0 disagrees before a later probe's stencil leaves
            with pytest.raises(PreconditionError, match="disagrees"):
                validate_jet_map(bad, np.random.default_rng(seed))
            seen.add("disagreement")
        with pytest.raises(DomainMembershipError):
            validate_jet_map(PolynomialMap(dom, bad.terms), np.random.default_rng(seed))
    assert seen == {"stencil", "disagreement"}



# -- finite-difference stencils and jet validation against one-point loops


def _fd_one_point(map_, x, order, h=None):
    """Oracle: the one-point stencil of ``x``, built as a list in stencil
    order, and its differences of orders 0..``order`` (``None`` and the
    first stencil point outside the domain when one leaves it)."""
    m = len(x)
    h1 = jets.FD_STEP_ORDER1 if h is None else h
    h2 = jets.FD_STEP_ORDER2 if h is None else h

    def step(j, size):
        e = np.zeros(m)
        e[j] = size
        return e

    pts = [x]
    if order >= 1:
        for j in range(m):
            pts += [x + step(j, h1), x - step(j, h1)]
    if order >= 2:
        for i in range(m):
            ei = step(i, h2)
            pts += [x + ei, x - ei]
            for j in range(i + 1, m):
                ej = step(j, h2)
                pts += [x + ei + ej, x + ei - ej, x - ei + ej, x - ei - ej]
    for p in pts:
        if not _contains_oracle(map_.domain, p):
            return None, p
    f = iter(map_.tensors(np.array(pts), 0))
    f0 = next(f)
    out = [f0]
    if order >= 1:
        out.append(np.stack([(next(f) - next(f)) / (2 * h1) for _ in range(m)], axis=-1))
    if order >= 2:
        d2 = np.zeros(f0.shape + (m, m))
        for i in range(m):
            d2[..., i, i] = (next(f) - 2 * f0 + next(f)) / h2**2
            for j in range(i + 1, m):
                d2[..., i, j] = d2[..., j, i] = (
                    next(f) - next(f) - next(f) + next(f)) / (4 * h2**2)
        out.append(d2)
    return out, None


def _signed_zero_points(rng, m, n=6, near=None):
    """Random points with exact 0.0 and -0.0 coordinates mixed in; with
    ``near`` some coordinates sit that close inside the faces of
    [-1, 1]^m, so that stencils leave the box."""
    xs = rng.uniform(-0.5, 0.5, size=(n, m))
    xs[rng.random((n, m)) < 0.35] = 0.0
    xs[rng.random((n, m)) < 0.35] = -0.0
    xs[0], xs[1] = -0.0, 0.0
    if near is not None:
        edge = rng.random((n, m)) < 0.25
        xs[edge] = rng.choice([-1.0, 1.0], size=edge.sum()) * (1.0 - near)
    return xs


class _Coordinates(JetMap):
    """The identity as a map to be differenced: its values are the stencil
    points themselves, signed zeros included (a polynomial's sums start
    from +0.0 and lose them)."""

    def __init__(self, domain):
        super().__init__(domain, (domain.dim,), 0)

    def tensors(self, points, ell):
        self._check_order(ell)
        return np.array(points, dtype=float)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_fd_stencils_match_list_built_one_point_oracle(m):
    rng = np.random.default_rng(40 + m)
    dom = box([-1.0] * m, [1.0] * m)
    random_poly = PolynomialMap(dom, [
        (rng.normal(size=2), tuple(int(p) for p in rng.integers(0, 4, m))) for _ in range(4)])
    for pm, order, h in itertools.product(
            (random_poly, _Coordinates(dom)), (0, 1, 2), (None, 1e-3, 0.0625)):
        xs = _signed_zero_points(rng, m)
        batch = fd_tensors(pm, xs, order, h=h)
        assert len(batch) == order + 1
        for i, x in enumerate(xs):
            want, outside = _fd_one_point(pm, x, order, h)
            assert outside is None
            for ell in range(order + 1):
                assert _same_bits(batch[ell][i], want[ell]), (order, h, i, ell)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_fd_prefix_names_the_oracle_outside_point(m):
    rng = np.random.default_rng(50 + m)
    pm = PolynomialMap(box([-1.0] * m, [1.0] * m), [
        (rng.normal(size=2), tuple(int(p) for p in rng.integers(0, 3, m))) for _ in range(3)])
    seen = 0
    for order, h in itertools.product((0, 1, 2), (None, 1e-3)):
        for _ in range(4):
            # some stencils cross a face, at its first or a later entry
            xs = _signed_zero_points(rng, m, near=0.5 * (h or jets.FD_STEP_ORDER2))
            rows = [_fd_one_point(pm, x, order, h) for x in xs]
            n_in = next((i for i, (_, p) in enumerate(rows) if p is not None), len(xs))
            got, outside = jets._fd_prefix(pm, xs, order, h)
            assert all(len(t) == n_in for t in got)
            for i in range(n_in):
                for ell in range(order + 1):
                    assert _same_bits(got[ell][i], rows[i][0][ell])
            if n_in == len(xs):
                assert outside is None
                continue
            seen += 1
            name = str(rows[n_in][1].tolist())
            assert isinstance(outside, DomainMembershipError) and name in str(outside)
            with pytest.raises(DomainMembershipError) as info:
                fd_tensors(pm, xs, order, h=h)
            assert name in str(info.value)
    assert seen > 0


def test_fd_offsets_are_one_shared_read_only_table():
    table = jets._fd_offsets(2, 2, 1e-4, 1e-3)
    assert jets._fd_offsets(2, 2, 1e-4, 1e-3) is table
    o1, o2 = table[:2]
    assert o1.shape == o2.shape == (1 + 4 + 2 * 2 + 4, 2)
    assert all(not a.flags.writeable for a in table)
    # one-point stencil entries add -0.0 where they add nothing: x, the
    # four x ± h1 e_j and the four x ± h2 e_i (pair (0, 1) is at 7..10)
    single = [0, 1, 2, 3, 4, 5, 6, 11, 12]
    assert np.signbit(o2[single]).all() and not o2[single].any()
    assert o2[7:11].tolist() == [[0.0, 1e-3], [-0.0, -1e-3]] * 2
    assert np.signbit(o1[0]).all() and not o1[0].any()


def _validate_oracle(map_, seed, rtol=1e-4, rng=None):
    """Oracle: ``validate_jet_map`` one probe at a time, the exception it
    raises as (type, message), or ``None``.  The map's evaluations come
    first, so an exception from one propagates: the coded tensors at every
    probe, then the differences at the probes before the first whose
    stencil leaves the domain.  Then the comparisons, probe by probe and
    order by order, and then that stencil.  A NaN or infinite entry on
    either side is a disagreement."""
    probes = _probe_draws(map_, seed, rng)
    top = 1 if (map_.max_order is not None and map_.max_order < 2) else 2
    exact = [[map_.tensors(x[None], ell)[0] for ell in range(1, top + 1)] for x in probes]
    approx, outside = [], None
    for x in probes:
        diffs, outside = _fd_one_point(map_, x, top)
        if outside is not None:
            break
        approx.append(diffs)
    for x, ex_x, ap_x in zip(probes, exact, approx):
        for ell, ex, ap in zip(range(1, top + 1), ex_x, ap_x[1:]):
            scale = max(1.0, float(np.max(np.abs(ex))))
            err = float(np.max(np.abs(ex - ap)))
            finite = np.isfinite(ex).all() and np.isfinite(ap).all()
            if not (finite and err <= rtol * scale):
                return PreconditionError, (
                    f"jet of order {ell} disagrees with finite differences "
                    f"by {err:.3e} at {x.tolist()}")
    if outside is not None:
        return DomainMembershipError, (
            f"finite-difference stencil point {outside.tolist()} leaves the domain")
    return None


def _validate_outcome(map_, seed):
    try:
        validate_jet_map(map_, np.random.default_rng(seed))
    except (DomainMembershipError, PreconditionError) as exc:
        return type(exc), str(exc)
    return None


class _Recording(PolynomialMap):
    """A polynomial that keeps the points of its order-1 evaluations."""

    def tensors(self, points, ell):
        if ell == 1:
            self.seen = points.copy()
        return super().tensors(points, ell)


@pytest.mark.parametrize("domain", [
    box([-1.0, 0.25], [1.0, 0.75]),
    ball([0.5], 0.75),
    ball([0.0] * 5, 1.0, norm_kind="euclidean"),
    ball([0.25, -0.5, 0.0, 0.0, 0.5, 0.0, 1.0], 2.0, norm_kind="euclidean"),
    ball([0.0] * 10, 1.0, norm_kind="euclidean"),
], ids=["box", "sup_ball", "euclid5", "euclid7", "euclid10"])
def test_validate_jet_map_draws_the_one_at_a_time_stream(domain):
    m = domain.dim
    pm = _Recording(domain, [([1.0, -0.5], (1,) * m), ([0.25, 2.0], (2,) + (0,) * (m - 1))])
    rejected = 0
    for seed in range(30):
        want_rng = np.random.default_rng(seed)
        want = np.array(_probe_draws(pm, seed, want_rng))
        rng = np.random.default_rng(seed)
        validate_jet_map(pm, rng)
        assert _same_bits(pm.seen, want), seed
        assert rng.bit_generator.state == want_rng.bit_generator.state, seed
        three_rows = np.random.default_rng(seed)
        three_rows.uniform(size=3 * m)
        rejected += three_rows.bit_generator.state != rng.bit_generator.state
    if m >= 7:
        assert rejected > 0  # these euclidean balls reject some draws


class _Split(PolynomialMap):
    """A polynomial whose coded order-2 tensor is off by 1 where x_0 < 0
    and whose order-1 tensor is off by 1 elsewhere."""

    def tensors(self, points, ell):
        ent = super().tensors(points, ell)
        if ell in (1, 2):
            off = (points[:, 0] < 0) == (ell == 2)
            ent = ent + off.reshape((-1,) + (1,) * (ent.ndim - 1))
        return ent


def test_validate_jet_map_raises_probe_by_probe_then_order_by_order():
    bad = _Split(box([-1.0, -1.0], [1.0, 1.0]), [([1.0], (2, 1))])
    seen = 0
    for seed in range(40):
        want = _validate_oracle(bad, seed)
        assert _validate_outcome(bad, seed) == want, seed
        probes = _probe_draws(bad, seed)
        # order 2 fails at probe 0 although order 1 fails at a later probe
        seen += probes[0][0] < 0 and any(x[0] >= 0 for x in probes[1:])
    assert seen


class _Poked(PolynomialMap):
    """A polynomial whose coded order-``ell`` tensor has ``value`` at its
    first entry of every row."""

    def __init__(self, domain, terms, ell, value):
        super().__init__(domain, terms)
        self.poke = (ell, value)

    def tensors(self, points, ell):
        ent = super().tensors(points, ell)
        if ell == self.poke[0]:
            ent = ent.copy()
            ent.reshape(len(ent), -1)[:, 0] = self.poke[1]
        return ent


@pytest.mark.parametrize("ell, value", [
    (1, np.nan), (2, np.nan), (1, np.inf), (2, -np.inf),
])
def test_validate_jet_map_rejects_a_non_finite_coded_entry(ell, value):
    dom = box([-1.0, -1.0], [1.0, 1.0])
    terms = [([1.0, 0.5], (2, 1)), ([-2.0, 1.0], (0, 3))]
    validate_jet_map(PolynomialMap(dom, terms), np.random.default_rng(3))
    bad = _Poked(dom, terms, ell, value)
    want = _validate_oracle(bad, 3)
    assert want[0] is PreconditionError and f"order {ell}" in want[1]
    assert _validate_outcome(bad, 3) == want
    with pytest.raises(PreconditionError, match=f"order {ell} disagrees"):
        validate_jet_map(bad, np.random.default_rng(3))


class _Capped(JetMap):
    """A polynomial declared differentiable to order ``max_order`` only."""

    def __init__(self, base: PolynomialMap, max_order: int):
        super().__init__(base.domain, base.out_shape, max_order)
        self.base = base

    def tensors(self, points, ell):
        self._check_order(ell)
        return self.base.tensors(points, ell)


def test_validate_jet_map_max_order_one_compares_order_one_only():
    dom = box([-1.0], [1.0])
    pm = PolynomialMap(dom, [([1.0], (3,)), ([0.5], (1,))])
    validate_jet_map(_Capped(pm, 1), np.random.default_rng(0))
    validate_jet_map(_Capped(_Poked(dom, pm.terms, 0, np.nan), 0), np.random.default_rng(0))
    # a wrong order-2 tensor is not looked at; a wrong order-1 one is
    validate_jet_map(_Capped(_Poked(dom, pm.terms, 2, 7.0), 1), np.random.default_rng(0))
    bad = _Capped(_Poked(dom, pm.terms, 1, 7.0), 1)
    want = _validate_oracle(bad, 0)
    assert want[0] is PreconditionError and "order 1" in want[1]
    assert _validate_outcome(bad, 0) == want


# -- one validation pass over many maps against the per-map oracle


class _Raising(_Poked):
    """A poked polynomial whose order-``fail`` evaluations raise."""

    def __init__(self, domain, terms, ell, value, fail):
        super().__init__(domain, terms, ell, value)
        self.fail = fail

    def tensors(self, points, ell):
        if ell == self.fail:
            raise OverflowError(f"order {ell} evaluation overflows")
        return super().tensors(points, ell)


def _validate_list_oracle(maps, rng):
    """Oracle: :func:`_validate_oracle` on each map in list order, every
    map drawing its probes from the one ``rng``: the outcome of the first
    map that fails, an exception from its evaluation included, or
    ``None``.  A value-only map draws and compares nothing."""
    for map_ in maps:
        if map_.max_order is not None and map_.max_order < 1:
            continue
        try:
            got = _validate_oracle(map_, None, rng=rng)
        except OverflowError as exc:
            return type(exc), str(exc)
        if got is not None:
            return got
    return None


def _validate_list_outcome(maps, rng):
    try:
        jets.validate_jet_maps(maps, rng)
    except (DomainMembershipError, PreconditionError, OverflowError) as exc:
        return type(exc), str(exc)
    return None


def _random_maps(rng, n):
    """``n`` maps that mix dims, out_shapes and domains (equal domains as
    one object and as distinct ones), value-only and order-capped maps,
    and, each with probability 0.15, a map that fails: a poked, NaN or
    infinite entry, a wrong derivative, an evaluation that raises, or a
    ball so small that some probes' stencils leave it."""
    d1, d2 = box([-1.0], [1.0]), box([-1.0, -0.5], [1.0, 0.5])
    sup_ball, tiny = ball([0.5], 0.75), ball([0.0, 0.0], 0.004, norm_kind="euclidean")

    def terms(dom, n_out):
        return [(rng.normal(size=n_out), tuple(int(p) for p in rng.integers(0, 4, dom.dim)))
                for _ in range(3)]

    def poke():
        return int(rng.integers(0, 3)), [np.nan, np.inf, -np.inf, 7.0][rng.integers(4)]

    good = [
        lambda: PolynomialMap(d1, terms(d1, 1)),
        lambda: PolynomialMap(box([-1.0, -0.5], [1.0, 0.5]), terms(d2, 2)),
        lambda: ScaledMap(PolynomialMap(d2, terms(d2, 1)), -0.5),
        lambda: DifferentialMap(PolynomialMap(d2, terms(d2, 2))),
        lambda: PolynomialMap(sup_ball, terms(sup_ball, 3)),
        lambda: _Capped(PolynomialMap(d1, terms(d1, 1)), int(rng.integers(0, 2))),
        lambda: _Capped(_Poked(d1, terms(d1, 2), 0, np.nan), 0),
        lambda: _Capped(_Poked(d2, terms(d2, 1), 2, 7.0), 1),
    ]
    bad = [
        lambda: PolynomialMap(tiny, terms(tiny, 1)),
        lambda: _OffByOne(tiny, [([1.0], (2, 1))]),
        lambda: _Split(box([-1.0, -1.0], [1.0, 1.0]), [([1.0], (2, 1))]),
        lambda: _Poked(d2, terms(d2, 2), *poke()),
        lambda: _Poked(d1, terms(d1, 1), *poke()),
        lambda: _Capped(_Poked(d1, terms(d1, 1), 1, 7.0), 1),
        lambda: _Raising(d1, terms(d1, 1), *poke(), int(rng.integers(0, 3))),
        lambda: _Raising(d2, terms(d2, 1), 1, 7.0, 2),
    ]
    return [(bad if rng.random() < 0.15 else good)[int(rng.integers(8))]() for _ in range(n)]


@pytest.mark.filterwarnings("ignore:invalid value encountered in subtract:RuntimeWarning")
def test_validate_jet_maps_raises_what_the_per_map_oracle_raises():
    # an infinite value makes inf - inf in a difference: NaN, a disagreement
    seen, later = set(), 0
    for seed in range(150):
        maps = _random_maps(np.random.default_rng(seed), 1 + seed % 12)
        want = _validate_list_oracle(maps, np.random.default_rng(seed))
        assert _validate_list_outcome(maps, np.random.default_rng(seed)) == want, seed
        seen.add(None if want is None else want[0])
        later += want is not None and _validate_list_outcome(maps[:1], np.random.default_rng(seed)) is None
    assert seen == {None, PreconditionError, DomainMembershipError, OverflowError}
    assert later  # some lists fail at a map after the first


@pytest.mark.parametrize("seed", range(6))
def test_validate_jet_maps_gives_each_map_the_probes_of_one_shared_stream(seed):
    rng = np.random.default_rng(seed)
    domains = [box([-1.0, 0.25], [1.0, 0.75]), ball([0.5], 0.75),
               ball([0.0] * 5, 1.0, norm_kind="euclidean"),
               ball([0.25, -0.5, 0.0, 0.0, 0.5, 0.0, 1.0], 2.0, norm_kind="euclidean")]
    maps = []
    for _ in range(12):
        dom = domains[rng.integers(len(domains))]
        m, n_out = dom.dim, int(rng.integers(1, 3))
        pm = _Recording(dom, [(rng.normal(size=n_out), (1,) * m),
                              (rng.normal(size=n_out), (2,) + (0,) * (m - 1))])
        maps.append([pm, _Capped(pm, 1), _Capped(pm, 0)][rng.integers(3)])
    want_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    jets.validate_jet_maps(maps, rng)
    for map_ in maps:
        if map_.max_order == 0:
            continue
        want = np.array(_probe_draws(map_, None, want_rng))
        seen = (map_.base if isinstance(map_, _Capped) else map_).seen
        assert _same_bits(seen, want)
    assert rng.bit_generator.state == want_rng.bit_generator.state


def _validated_maps(sc):
    """The maps ``validate_scenario`` validates, in order: every element's
    factors, then the ``xis``, then the ``sigmas``."""
    return ([wf.map for key in ELEMENT_GRIDS for wf in getattr(sc, key).factors]
            + [op.xi for op in sc.xis] + list(sc.sigmas))


# the scenario seeds of the benchmark's ``ingest`` workload at workload seed 0
INGEST_SEEDS = (102, 105, 132, 136, 101, 104, 107, 143, 103, 106, 111, 109, 156, 167, 108,
                110, 121, 161, 112, 114, 113, 128, 171, 173, 115, 117, 129, 169, 116, 118)


@pytest.mark.parametrize("source", ["fixture", *range(10), *(f"ingest-{s}" for s in INGEST_SEEDS)])
def test_validate_scenario_is_one_pass_with_the_per_map_outcome(source, monkeypatch):
    passes = []

    def recording(maps, rng):
        passes.append(list(maps))
        return validate_jet_maps(maps, rng)

    monkeypatch.setattr(jets, "validate_jet_maps", recording)
    if source == "fixture":
        sc = load_scenario(ScenarioUnit(path=FIXTURE))
    elif isinstance(source, int):
        sc = generate_scenario(source)
    else:
        # loaded from its file, as the workload loads it
        doc = json.loads(json.dumps(scenario_to_dict(generate_scenario(int(source[7:])))))
        passes.clear()
        sc = scenario_from_dict(doc)
    maps = _validated_maps(sc)
    assert len(passes) == 1 and len(passes[0]) == len(maps)
    assert all(a is b for a, b in zip(passes[0], maps))
    rng, want_rng = np.random.default_rng(0), np.random.default_rng(0)
    validate_jet_maps(maps, rng)
    assert _validate_list_oracle(maps, want_rng) is None
    assert rng.bit_generator.state == want_rng.bit_generator.state


def test_unprobeable_domain_is_a_data_error_behind_earlier_failures():
    # a box one ulp wide: the probes' midpoint rounds onto its open face,
    # so no draw ever lands inside; without a cap on the rounds the draw
    # loop never returns
    def give_up(signum, frame):
        raise TimeoutError("jet validation did not return within 10 s")

    dom = box([1e16], [math.nextafter(1e16, math.inf)])
    stuck = PolynomialMap(dom, [([1.0], (1,))])
    good = PolynomialMap(box([-1.0], [1.0]), [([1.0], (3,))])
    bad = _OffByOne(box([-1.0], [1.0]), [([1.0], (3,))])
    previous = signal.signal(signal.SIGALRM, give_up)
    signal.alarm(10)
    try:
        with pytest.raises(DataError, match=re.escape(
                "jet validation: fewer than 3 probes land inside the box "
                "lo=[1e+16] hi=[1.0000000000000002e+16]")):
            validate_jet_map(stuck, np.random.default_rng(0))
        with pytest.raises(DataError, match="1e\\+16"):
            jets.validate_jet_maps([good, stuck, bad], np.random.default_rng(0))
        # an earlier map's failure is raised instead
        with pytest.raises(PreconditionError, match="order 1 disagrees"):
            jets.validate_jet_maps([good, bad, stuck], np.random.default_rng(0))
        with pytest.raises(OverflowError):
            jets.validate_jet_maps(
                [_Raising(good.domain, [([1.0], (1,))], 0, 0.0, 1), stuck],
                np.random.default_rng(0))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)

# -- domain membership


def _norm_oracle(space, v) -> float:
    """The one-vector norm rule."""
    v = np.asarray(v, dtype=float)
    if space.norm_kind == "sup":
        return float(np.max(np.abs(v))) if v.size else 0.0
    return float(np.linalg.norm(v))


def _contains_oracle(domain, x) -> bool:
    """The one-point membership rule."""
    x = np.asarray(x, dtype=float)
    if domain.kind == BOX:
        return bool(np.all(x > domain.lo) and np.all(x < domain.hi))
    return _norm_oracle(domain.space, x - np.asarray(domain.center)) < domain.radius


def _membership_domains():
    return [
        box([-1.0, 0.25, -2.0], [1.0, 0.75, 0.5]),
        box([-1.0], [1.0], norm_kind="euclidean"),
        ball([0.5, -0.25], 0.75),
        ball([0.0, 0.0, 0.0], 1.0),
        ball([0.25, -0.5], 0.75, norm_kind="euclidean"),
        ball([0.0, 0.0, 0.0], 1.0, norm_kind="euclidean"),
    ]


def _membership_points(domain, rng) -> np.ndarray:
    lo, hi = domain.bounding_box()
    d = domain.dim
    pts = [rng.uniform(lo - 0.2, hi + 0.2) for _ in range(200)]
    pts += [lo.copy(), hi.copy(), (lo + hi) / 2, np.full(d, -0.0), np.zeros(d)]
    for a in range(d):  # exactly on each face, and one ulp inside
        for face in (lo[a], hi[a]):
            p = (lo + hi) / 2
            p[a] = face
            pts.append(p.copy())
            p[a] = np.nextafter(face, (lo[a] + hi[a]) / 2)
            pts.append(p.copy())
    if domain.kind != BOX:  # on the sphere of a euclidean ball
        c = np.asarray(domain.center)
        pts += [c + domain.radius * v for v in (np.eye(d)[0], np.ones(d) / np.sqrt(d))]
    pts.append(np.full(d, np.nan))
    pts = np.array(pts)
    pts[::7, 0] = -0.0
    return pts


def test_members_match_one_point_rule():
    rng = np.random.default_rng(13)
    for domain in _membership_domains():
        pts = _membership_points(domain, rng)
        got = domain.members(pts)
        assert got.dtype == bool and got.shape == (len(pts),)
        want = [_contains_oracle(domain, x) for x in pts]
        assert got.tolist() == want, domain
        assert 0 < sum(want) < len(want)


def _distance_oracle(domain, x) -> float:
    """The one-point boundary-distance rule."""
    x = np.asarray(x, dtype=float)
    if domain.kind == BOX:
        return float(min(min(x[a] - domain.lo[a], domain.hi[a] - x[a])
                         for a in range(domain.dim)))
    return domain.radius - _norm_oracle(domain.space, x - np.asarray(domain.center))


def test_boundary_distances_match_one_point_rule():
    rng = np.random.default_rng(17)
    for domain in _membership_domains():
        pts = _membership_points(domain, rng)
        pts = pts[domain.members(pts)]
        want = np.array([_distance_oracle(domain, x) for x in pts])
        assert _same_bits(domain.boundary_distances(pts), want), domain
        centred = pts - np.asarray(domain.center or np.zeros(domain.dim))
        assert _same_bits(domain.space.norms(centred),
                          [_norm_oracle(domain.space, v) for v in centred])
        assert _same_bits([domain.boundary_distance(x) for x in pts], want)
        outside = np.concatenate([pts[:2], [domain.bounding_box()[1]], pts[2:]])
        with pytest.raises(DomainMembershipError,
                           match=re.escape(str(domain.bounding_box()[1].tolist()))):
            domain.boundary_distances(outside)


def test_members_dimension_mismatch():
    for domain in _membership_domains():
        d = domain.dim
        for bad in (np.zeros((3, d + 1)), np.zeros(d), np.zeros((1, 1, d))):
            with pytest.raises(GeometryError):
                domain.members(bad)
        assert domain.members(np.zeros((0, d))).shape == (0,)


# -- fixed-point inversion


def _solve_oracle(inv: InverseMap, y):
    """The one-point fixed-point iteration: (x, iterations, worst ratio)."""
    y = np.asarray(y, dtype=float)
    cfg = inv.cfg
    stop = cfg.fix_tol * (1.0 - cfg.tau) / cfg.tau
    x = y.copy()
    prev_inc = None
    worst_ratio = 0.0
    for it in range(1, cfg.max_iters + 1):
        if not _contains_oracle(inv.u, x):
            raise ContractionViolationError(
                f"iterate {x.tolist()} escaped the domain; a certificate is wrong"
            )
        x_next = y - inv.phi.tensors(x[None], 0)[0]
        inc = float(np.max(np.abs(x_next - x)))
        if prev_inc is not None and prev_inc > 1e-14:
            worst_ratio = max(worst_ratio, inc / prev_inc)
        x = x_next
        if inc <= stop:
            return x, it, worst_ratio
        prev_inc = inc
    raise IterationError(f"no convergence within {cfg.max_iters} iterations at {y.tolist()}")


def _oracle_error(inv, ys):
    for y in ys:
        try:
            _solve_oracle(inv, y)
        except (ContractionViolationError, IterationError) as exc:
            return exc
    raise AssertionError("no row fails")


def _inverse_cases():
    cases = []
    for seed in (0, 1, 2, 3):
        sc = generate_scenario(seed)
        for i, fs in enumerate(sc.factors):
            cases.append((InverseMap(sc.phis[i].map, fs.u, fs.v_tilde, sc.contraction),
                          fs.grid_vt.points))
    u, v = box([-1.0], [1.0]), box([-0.5], [0.5])
    phi = PolynomialMap(u, [(np.array([0.1]), (2,)), (np.array([0.05]), (1,))])
    ys = np.array([[0.45 * np.sin(k)] for k in range(40)] + [[-0.0], [0.0]])
    cases.append((InverseMap(phi, u, v, ContractionConfig(tau=0.5, r=1.0)), ys))
    return cases


def test_solves_rows_match_one_point_iteration():
    for inv, ys in _inverse_cases():
        fresh = InverseMap(inv.phi, inv.u, inv.v, inv.cfg)
        rows = fresh.solves(ys)
        assert len(rows) == len(ys)
        for y, (x, it, ratio) in zip(ys, rows):
            x0, it0, ratio0 = _solve_oracle(inv, y)
            assert _same_bits(x, x0) and it == it0 and ratio == ratio0
            assert isinstance(it, int) and isinstance(ratio, float)
        # a batch of one and a repeated batch give the cached rows
        assert fresh.solve(ys[0]) is rows[0]
        again = fresh.solves(ys[::-1])
        assert all(a is b for a, b in zip(again, rows[::-1]))


def test_solves_duplicate_rows_and_cache_reuse():
    inv, ys = _inverse_cases()[-1]
    inv.solves(ys[:5])
    rows = inv.solves(np.concatenate([ys[3:8], ys[3:8]]))
    for y, (x, it, ratio) in zip(np.concatenate([ys[3:8], ys[3:8]]), rows):
        x0, it0, ratio0 = _solve_oracle(inv, y)
        assert _same_bits(x, x0) and (it, ratio) == (it0, ratio0)
    assert len(inv._cache) == 8


def _failing_inverse(slope: float, max_iters: int) -> InverseMap:
    """phi(x) = slope * x on (-1, 1): |slope| > 1 makes iterates escape."""
    u = box([-1.0], [1.0])
    return InverseMap(AffineMap(u, [[slope]]), u, box([-0.95], [0.95]),
                      ContractionConfig(tau=0.5, r=0.05, max_iters=max_iters))


def test_solves_escape_names_lowest_failing_row():
    inv = _failing_inverse(-1.5, 200)
    # row 2 escapes after a few iterations, row 1 only much later, row 0
    # (y = 0) is a fixed point
    ys = np.array([[0.0], [0.001], [0.9], [0.002]])
    want = _oracle_error(inv, ys)
    with pytest.raises(ContractionViolationError) as exc_info:
        inv.solves(ys)
    assert str(exc_info.value) == str(want) and exc_info.value.row == 1
    # rows before the failing one are cached, rows after it are not
    assert set(inv._cache) == {ys[0].tobytes()}


def test_solves_iteration_error_before_later_escape():
    inv = _failing_inverse(-1.5, 6)
    # row 0 creeps without escaping within 6 iterations; row 1 escapes
    ys = np.array([[0.001], [0.9]])
    want = _oracle_error(inv, ys)
    assert isinstance(want, IterationError)
    with pytest.raises(IterationError) as exc_info:
        inv.solves(ys)
    assert str(exc_info.value) == str(want) and exc_info.value.row == 0
    with pytest.raises(ContractionViolationError) as exc_info:
        inv.solves(ys[1:])
    assert str(exc_info.value) == str(_oracle_error(inv, ys[1:]))


def test_solves_iteration_error_names_lowest_row():
    inv = _failing_inverse(0.4, 3)  # converges, but not within 3 iterations
    ys = np.array([[0.0], [0.3], [-0.0], [0.5]])
    want = _oracle_error(inv, ys)
    with pytest.raises(IterationError) as exc_info:
        inv.solves(ys)
    assert str(exc_info.value) == str(want) and exc_info.value.row == 1
    assert "[0.3]" in str(want)


# -- weights


def _scenario_weights(sc):
    """Every weight a scenario carries, with the grid points of its factor."""
    grids = [np.concatenate([fs.grid_u.points, fs.grid_vt.points]) for fs in sc.factors]
    families = list(sc.weights.members)
    for cert in sc.dominance:
        families += [cert.f, cert.g]
    for cert in sc.factorizations:
        families += [cert.f, *cert.parts]
    return [(fw.name, w, pts) for fw in families for w, pts in zip(fw.factors, grids)]


@pytest.mark.parametrize("unit", [ScenarioUnit(seed=s) for s in range(10)]
                         + [ScenarioUnit(path=FIXTURE)],
                         ids=[f"seed{s}" for s in range(10)] + ["fixture"])
def test_weight_values_match_one_point_calls(unit):
    weights = _scenario_weights(load_scenario(unit))
    assert len(weights) > 10
    for name, w, pts in weights:
        got = w.values(pts)
        # the one-point rule: fn at one point, as a float
        want = [float(w.fn(np.asarray(x, dtype=float))) for x in pts]
        assert _same_bits(got, want), name
        assert _same_bits([w(x) for x in pts], want), name


def test_weight_values_name_the_first_nan_row():
    w = Weight("half", lambda x: np.nan if x[0] > 0.2 else 1.0)
    pts = np.array([[0.0], [0.5], [0.75], [0.1]])
    with pytest.raises(DataError, match=re.escape("'half' evaluated to NaN at [0.5]")):
        w.values(pts)
    assert w.values(pts[[0, 3]]).tolist() == [1.0, 1.0]


# -- operator norms


def _op_norm_oracle(t: MultilinearMap, norm_kind: str = SUP) -> float:
    """The per-tensor rule: uncurry, then enumerate the sign vertices of
    all arguments but the last, one vertex sum per vertex and argument,
    the last optimized by an absolute row sum; each sum written out left
    to right, the vertex max by Python's ``max``."""
    while t.out_rank > 1:
        t = uncurry_last(t)
    e = t.entries
    if np.isnan(e).any():
        idx = tuple(np.argwhere(np.isnan(e))[0].tolist())
        raise DataError(f"operator norm of a tensor with a NaN entry at {idx}")
    if norm_kind == EUCLIDEAN:
        if t.order == 0:
            return float(np.linalg.norm(e))
        if t.order == 1:
            return float(np.linalg.norm(e, 2))
        raise UnsupportedNormError("euclidean norms only for order <= 1")
    if t.order == 0:
        return float(np.max(np.abs(e))) if e.size else 0.0
    if sum(t.in_dims) > ENUM_BUDGET:
        raise EnumerationBudgetError(f"total argument dimension {sum(t.in_dims)}")
    signs_per_arg = [
        [np.array((1.0,) + rest) for rest in itertools.product((1.0, -1.0), repeat=d - 1)]
        for d in t.in_dims[:-1]
    ]
    best = 0.0
    for signs in itertools.product(*signs_per_arg):
        v = e
        for s in signs:
            v = _ltr_sum(v[:, j] * s[j] for j in range(len(s)))
        best = max(best, max(float(_ltr_sum(np.abs(row))) for row in v))
    return best


def _rows_match_oracle(stack, out_rank, norm_kind=SUP) -> bool:
    want = [_op_norm_oracle(MultilinearMap(t, out_rank), norm_kind) for t in stack]
    return _same_bits(op_norms(stack, out_rank, norm_kind), want)


def _op_norms_callers() -> dict:
    """Every loaded module of ``wrp`` that binds ``op_norms``: the one that
    defines it, whose ``op_norm`` is a batch of one and whose ``op_norms_of``
    groups a list by shape, and each importer (``run_suite``'s module loads
    every module a run uses)."""
    return {name: mod for name, mod in sorted(sys.modules.items())
            if name.startswith("wrp.") and getattr(mod, "op_norms", None) is op_norms}


@pytest.mark.parametrize("seed", range(10))
def test_op_norms_rows_match_oracle_on_scenario_stacks(seed, monkeypatch):
    """Every stack that any module passes to ``op_norms`` in a full run of
    the seed: the stacked weighted seminorms, the jets, invert and sim
    runners, the generator's normalization and every ``op_norms_of``
    group."""
    callers = _op_norms_callers()
    assert {"wrp.jets", "wrp.operators", "wrp.seminorms", "wrp.verify"} <= set(callers)
    stacks = {name: [] for name in callers}
    for name, mod in callers.items():
        def record(entries, out_rank=1, norm_kind=SUP, _seen=stacks[name]):
            _seen.append((np.array(entries), out_rank, norm_kind))
            return op_norms(entries, out_rank, norm_kind)
        monkeypatch.setattr(mod, "op_norms", record)
    run_suite([ScenarioUnit(seed=seed)])
    # the seminorms of a check's families and factors, and of superpose's
    # weights, are one stack per order: seeds 0..9 pass 42 to 48 stacks to
    # op_norms in wrp.seminorms, 9 to 22 in wrp.jets and 5 to 12 in wrp.verify
    assert len(stacks["wrp.seminorms"]) >= 40 and len(stacks["wrp.verify"]) >= 5
    assert len(stacks["wrp.jets"]) >= 9 and len(stacks["wrp.operators"]) == 1
    for name, seen in stacks.items():
        for stack, out_rank, norm_kind in seen:
            assert _rows_match_oracle(stack, out_rank, norm_kind), (name, stack.shape, out_rank)


def _random_stack(rng, shape):
    """A stack of 1 to 11 tensors of ``shape`` with signed zeros, the
    first row all -0.0."""
    stack = rng.normal(size=(int(rng.integers(1, 12)),) + shape) * 10.0 ** rng.integers(-3, 4)
    stack[rng.random(stack.shape) < 0.2] = -0.0
    stack[0] = -0.0
    return stack


def test_op_norms_rows_match_oracle_on_random_stacks():
    """Output ranks 1 to 3 with arguments of dimension 1 to 3, and vector
    outputs with arguments up to 7."""
    rng = np.random.default_rng(11)
    for _ in range(150):
        out_rank = int(rng.integers(1, 4))
        shape = tuple(int(d) for d in rng.integers(1, 4, size=out_rank + int(rng.integers(0, 3))))
        assert _rows_match_oracle(_random_stack(rng, shape), out_rank), shape
    for shape in ((2, 7, 3), (3, 4, 5, 2), (2, 6, 1, 4), (4, 5, 5)):
        assert _rows_match_oracle(_random_stack(rng, shape), 1), shape


def test_op_norms_rows_match_oracle_where_blas_kernels_differed():
    """The shapes where the vertex sums, when they were BLAS calls, took
    another kernel in a stack than alone: a scalar-valued tensor summed
    over 4 or more entries, and sums of 8 or more entries.  Every row of
    a stack, and every batch of one, carries the per-tensor bits."""
    rng = np.random.default_rng(12)
    for shape, out_rank in (((1, 4, 2), 1), ((1, 5, 3, 2), 1), ((1, 3, 4), 2),
                            ((1, 2, 6, 1), 3), ((2, 8, 2), 1), ((1, 9, 3), 1)):
        for _ in range(3):
            stack = _random_stack(rng, shape)
            assert _rows_match_oracle(stack, out_rank), shape
            for t in stack:
                want = _op_norm_oracle(MultilinearMap(t, out_rank))
                assert _same_bits(op_norm(MultilinearMap(t, out_rank)), want), shape


def test_op_norms_slices_keep_the_bits(monkeypatch):
    """A stack too large for one slice of vertex sums is taken in slices;
    each row has the bits it has in a stack of one slice."""
    stack = _random_stack(np.random.default_rng(14), (2, 3, 3, 2))
    whole = op_norms(stack)
    monkeypatch.setattr(jets, "OP_NORM_CHUNK", 1)
    assert _same_bits(op_norms(stack), whole)


def _vertex_oracle(t: np.ndarray) -> float:
    """Brute force: every sign vertex of every argument, none pinned and
    the last argument enumerated too; per vertex the arguments contracted
    first to last, each sum written out left to right, and the largest
    absolute output; the largest over all vertices."""
    best = 0.0
    for vertex in itertools.product(*[list(itertools.product((1.0, -1.0), repeat=d))
                                      for d in t.shape[1:]]):
        v = t
        for s in vertex:
            v = _ltr_sum(v[:, j] * s[j] for j in range(len(s)))
        best = max(best, float(np.abs(v).max()))
    return best


@pytest.mark.parametrize("shape", [(2, 1, 3, 1), (2, 1, 1, 1, 1), (3, 1, 1, 2), (1, 3, 1, 2, 1),
                                   (2, 2, 1, 3)])
def test_op_norms_dimension_one_arguments_match_the_vertex_oracle(shape, monkeypatch):
    """An argument of dimension 1 moves to the vertex axes without a
    contraction (its one sign vector is [1.0]); every norm has the bits
    of the brute-force vertex enumeration, with signed zeros and stacks
    of 1 to 11 tensors."""
    rng = np.random.default_rng(21)
    dots = []
    kernel = jets._dot_axis
    monkeypatch.setattr(jets, "_dot_axis", lambda *a: dots.append(a[-1].shape) or kernel(*a))
    for _ in range(5):
        stack = _random_stack(rng, shape)
        assert _same_bits(op_norms(stack), [_vertex_oracle(t) for t in stack]), shape
    # one contraction per leading argument of dimension 2 or more, per stack
    assert len(dots) == 5 * sum(d > 1 for d in shape[1:-1]), shape


def test_op_norms_euclidean_and_budget_match_oracle():
    rng = np.random.default_rng(12)
    for shape in ((3,), (4, 1), (2, 3), (5, 5), (1, 4)):
        stack = rng.normal(size=(7,) + shape)
        stack[0] = -0.0
        assert _rows_match_oracle(stack, 1, EUCLIDEAN), shape
    with pytest.raises(UnsupportedNormError):
        op_norms(np.zeros((2, 1, 2, 2)), 1, EUCLIDEAN)
    with pytest.raises(UnsupportedNormError):
        op_norms(np.zeros((2, 2)), 1, "taxicab")
    big = np.zeros((2, 1) + (3,) * 6)
    with pytest.raises(EnumerationBudgetError):
        _op_norm_oracle(MultilinearMap(big[0], 1))
    with pytest.raises(EnumerationBudgetError, match="18 exceeds 16"):
        op_norms(big)


def test_op_norms_names_the_first_nan_row_and_entry():
    stack = np.ones((4, 2, 3, 2))
    stack[2, 0, 0, 0] = np.nan
    stack[1, 1, 2, 0] = np.nan
    stack[1, 0, 1, 1] = np.nan
    with pytest.raises(DataError, match=re.escape("NaN entry at (0, 1, 1) in row 1")):
        op_norms(stack)
    with pytest.raises(DataError, match=re.escape("NaN entry at (1, 2, 0) in row 0")):
        op_norm(MultilinearMap(np.where(np.arange(12).reshape(2, 3, 2) == 10, np.nan, 1.0), 1))


def test_op_norms_infinite_entries_and_overflow_give_inf():
    inf = math.inf
    # every vertex of the old enumeration hit inf - inf and max dropped the NaN
    t = np.array([[[inf, inf], [-inf, inf]]])
    assert op_norm(MultilinearMap(t, 1)) == inf
    assert op_norms(np.array([[inf, 1.0]]), 1).tolist() == [inf]
    # finite entries whose vertex sums overflow into inf - inf
    big = np.zeros((1, 2, 2, 1))
    big[0, :, :, 0] = [[1e308, -1e308], [1e308, -1e308]]
    with np.errstate(over="ignore", invalid="ignore"):
        assert op_norm(MultilinearMap(big[0], 1)) == inf
        got = op_norms(np.stack([big, np.ones((1, 2, 2, 1)), big]))
    assert got.tolist() == [inf, _op_norm_oracle(MultilinearMap(np.ones((1, 2, 2, 1)), 1)), inf]
    # an infinite row leaves the other rows of its stack untouched
    rng = np.random.default_rng(13)
    stack = rng.normal(size=(5, 2, 3, 3))
    stack[3, 1, 0, 2] = -inf
    got = op_norms(stack)
    assert got[3] == inf
    assert _same_bits(got[[0, 1, 2, 4]], op_norms(stack[[0, 1, 2, 4]]))


def test_op_norms_empty_axes_are_the_zero_map():
    for shape in ((2, 0, 3), (0, 3, 3), (2, 3, 0)):
        assert op_norm(MultilinearMap(np.zeros(shape), 1)) == 0.0, shape
        assert op_norms(np.zeros((3,) + shape)).tolist() == [0.0] * 3
    assert op_norms(np.zeros((0, 2, 3, 3))).shape == (0,)


# -- quasi-inverses


def _opnorm_inf_oracle(mat) -> float:
    return max(float(_ltr_sum(np.abs(row))) for row in mat) if mat.size else 0.0


def _matmul_oracle(a, b) -> np.ndarray:
    """``a @ b``, each entry its products added left to right."""
    return np.array([[_ltr_sum(a[i, k] * b[k, j] for k in range(a.shape[1]))
                      for j in range(b.shape[1])] for i in range(a.shape[0])])


def _quasi_inverse_oracle(a) -> np.ndarray:
    """The per-matrix Neumann rule: the truncation order from the matrix's
    own largest absolute row sum, then the power chain ``power @ a``."""
    mat = np.atleast_2d(np.asarray(a, dtype=float))
    if mat.shape[0] != mat.shape[1]:
        raise SpectralConditionError("quasi-inverse needs a square operator")
    n_terms = neumann_terms(_opnorm_inf_oracle(mat))
    power = mat.copy()
    acc = mat.copy()
    for _ in range(1, n_terms):
        power = _matmul_oracle(power, mat)
        acc += power
    return -acc


def _qi_outcome(fn, stack):
    """The quasi-inverses of ``stack`` by ``fn``, or the error's type and text."""
    try:
        return fn(stack)
    except (SpectralConditionError, TruncationError) as exc:
        return type(exc), str(exc)


def _qi_loop(stack):
    return np.array([_quasi_inverse_oracle(a) for a in stack]).reshape(stack.shape)


def _same_qi_outcome(stack) -> bool:
    got, want = _qi_outcome(quasi_inverses, stack), _qi_outcome(_qi_loop, stack)
    if isinstance(want, tuple):
        return got == want
    return _same_bits(got, want)


def _scaled_rows(rng, k, norms):
    """One random (k, k) matrix per entry of ``norms``, scaled to about that
    largest absolute row sum, with signed zeros."""
    stack = rng.normal(size=(len(norms), k, k))
    stack[rng.random(stack.shape) < 0.2] = -0.0
    for a, q in zip(stack, norms):
        a *= q / max(_opnorm_inf_oracle(a), 1e-300)
    return stack


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(1, 4), st.integers(0, 2**32 - 1),
       st.lists(st.one_of(st.floats(0.0, 0.8), st.sampled_from([0.0, 0.84, 0.85, 1.0, 2.0])),
                min_size=1, max_size=9))
def test_quasi_inverses_rows_match_oracle_on_random_stacks(k, seed, norms):
    """Rows of different truncation orders (norm 0 takes one term, 0.8 up
    to the cap), a zero row, signed zeros, and rows that raise."""
    assert _same_qi_outcome(_scaled_rows(np.random.default_rng(seed), k, norms))


def test_quasi_inverses_raise_for_the_first_failing_row():
    rng = np.random.default_rng(0)
    ok, zero = _scaled_rows(rng, 2, [0.5]), np.zeros((1, 2, 2))
    trunc, spectral = np.full((1, 2, 2), 0.45), np.full((1, 2, 2), 0.5)
    nan = np.full((1, 2, 2), np.nan)
    for rows, error, text in [
        ((ok, zero, trunc, spectral), TruncationError, "needs more than 160 terms"),
        ((ok, spectral, trunc), SpectralConditionError, "operator norm 1.0 is not below 1"),
        ((zero, nan, spectral), SpectralConditionError, "operator norm nan is not below 1"),
    ]:
        stack = np.concatenate(rows)
        with pytest.raises(error, match=text):
            quasi_inverses(stack)
        assert _same_qi_outcome(stack)
    # a zero matrix takes one term; different truncation orders in one stack
    stack = np.concatenate([zero, _scaled_rows(rng, 2, [0.8, 0.01, 0.5])])
    assert [neumann_terms(q) for q in opnorms_inf(stack).tolist()][:1] == [1]
    assert len({neumann_terms(q) for q in opnorms_inf(stack).tolist()}) == 4
    assert _same_qi_outcome(stack) and _same_bits(quasi_inverses(stack[:0]), stack[:0])


def test_opnorms_inf_rows_match_the_matrix_rule():
    rng = np.random.default_rng(1)
    for shape in ((5, 1, 1), (5, 3, 3), (4, 2, 5), (3, 0, 2), (3, 2, 0), (0, 2, 2)):
        stack = rng.normal(size=shape)
        assert _same_bits(opnorms_inf(stack), [_opnorm_inf_oracle(a) for a in stack])


def _quasi_inverses_callers() -> dict:
    """Every loaded module of ``wrp`` that binds ``quasi_inverses``: the
    one that defines it and each importer."""
    return {name: mod for name, mod in sorted(sys.modules.items())
            if name.startswith("wrp.") and getattr(mod, "quasi_inverses", None) is quasi_inverses}


@pytest.mark.parametrize("seed", range(10))
def test_quasi_inverses_rows_match_oracle_on_scenario_stacks(seed, monkeypatch):
    """Every stack that any module passes to ``quasi_inverses`` in a full
    run of the seed: the inverse's first-order jet, the direction check's
    closed form, the pointwise quasi-inversion of the sim runner and the
    Neumann-relation report's stack."""
    callers = _quasi_inverses_callers()
    assert {"wrp.operators", "wrp.restricted"} <= set(callers)
    stacks = {name: [] for name in callers}
    for name, mod in callers.items():
        def record(mats, _seen=stacks[name]):
            _seen.append(np.array(mats))
            return quasi_inverses(mats)
        monkeypatch.setattr(mod, "quasi_inverses", record)
    run_suite([ScenarioUnit(seed=seed)])
    # seeds 0..9 pass 6 to 8 stacks in wrp.operators and 3 to 5 in
    # wrp.restricted
    assert len(stacks["wrp.operators"]) >= 6 and len(stacks["wrp.restricted"]) >= 2
    for name, seen in stacks.items():
        for stack in seen:
            assert _same_qi_outcome(stack), (name, stack.shape)


def _xi2_point_report(xi, xi2, point, ell, tol):
    """The one-point rule of ``xi2_pointwise_check``, with oracle norms."""
    mu = xi.domain.dim
    u, e = point[:mu], point[mu:]
    if xi2.pairing == "compose":
        e_norm = _opnorm_inf_oracle(e.reshape(xi2.e_shape))
    else:
        e_norm = float(np.max(np.abs(e))) if e.size else 0.0
    lhs = _op_norm_oracle(xi2.tensor(point, ell))
    rhs = ell * _op_norm_oracle(xi.tensor(u, ell)) + e_norm * _op_norm_oracle(
        xi.tensor(u, ell + 1))
    return bound_report(
        "lem:Abschaetzung_hoheDiffs_Spezialfall-linArg", lhs, rhs, tolerance=tol,
        lhs_provenance="exact", rhs_provenance="exact", witness=tuple(point.tolist()),
    )


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_xi2_pointwise_check_is_the_merge_of_point_reports(seed):
    sc = generate_scenario(seed)
    xi = sc.xis[0].xi
    for pairing in ("evaluate", "compose") if sc.dim == 1 else ("evaluate",):
        xi2 = xi2_build(xi, pairing, 0.5)
        pts = lattice(xi2.domain, per_axis=2).points
        for ell in (1, 2) if sc.dim == 1 else (1,):
            for tol in (1e-9, -1e9):  # the second makes every row fail
                got = xi2_pointwise_check(xi, xi2, pts, ell, tol)
                want = merge_min_margin(got.check_id, [
                    _xi2_point_report(xi, xi2, p, ell, tol) for p in pts])
                assert got.to_dict() == want.to_dict(), (pairing, ell, tol)


def _seminorm_oracle(wf, weight, ell):
    """The one-point sup: |f(x)| * |D^l map(x)| point by point, the
    infinite cases by the inf * 0 rules, the first largest point kept."""
    norms = [_op_norm_oracle(MultilinearMap(t, len(wf.map.out_shape)),
                             wf.grid.domain.space.norm_kind)
             for t in wf.map.tensors(wf.grid.points, ell)]
    best, witness = 0.0, None
    for x, n in zip(wf.grid.points, norms):
        w = abs(float(weight.fn(np.asarray(x, dtype=float))))
        if math.isinf(w) or math.isinf(n):
            v = 0.0 if w == 0.0 or n == 0.0 else math.inf
        else:
            v = w * n
        if v > best or witness is None:
            best, witness = v, tuple(float(c) for c in x)
    return best, witness


@pytest.mark.parametrize("seed", [0, 1])
def test_weighted_seminorm_matches_one_point_sup(seed):
    sc = generate_scenario(seed)
    dom = sc.factors[0].u
    spiky = Weight("spiky", lambda x: math.inf if x[0] > 0.5 else 0.0 if x[0] < -0.5 else 2.0)
    weights = [*(sc.fw(n).factors[0] for n in ("one", "gauss", "omega")), spiky]
    for key in ("gammas", "comp_gammas", "phis"):
        wf = getattr(sc, key).factors[0]
        for w in weights:
            for ell in range(min(wf.max_order, 2) + 1):
                got = weighted_seminorm(wf, w, ell)
                best, witness = _seminorm_oracle(wf, w, ell)
                assert _same_bits(got.value, best) and got.witness == witness, (key, w.name, ell)
    zero = WeightedFunction(ConstMap(dom, np.zeros(sc.dim)), sc.factors[0].grid_u, 0)
    assert weighted_seminorm(zero, spiky, 0).value == _seminorm_oracle(zero, spiky, 0)[0] == 0.0


# -- per-instance caches keyed by the input bits


def _leaf_polys(map_, pts):
    """The ``PolynomialMap`` leaves of ``map_`` that are evaluated at
    ``pts`` themselves, each with ``pts``."""
    if isinstance(map_, PolynomialMap):
        return [(map_, pts)]
    if isinstance(map_, (SumMap, PairMap)):
        return [leaf for p in map_.parts for leaf in _leaf_polys(p, pts)]
    if isinstance(map_, (ScaledMap, ComponentMap)):
        return _leaf_polys(map_.base, pts)
    return []


def _scenario_polys(seed: int) -> list[tuple[str, PolynomialMap, np.ndarray]]:
    """Every polynomial a generated scenario carries, on its grid (the
    element factors) or at probe points (the superposition operands and
    the sigmas)."""
    sc = generate_scenario(seed)
    out = []
    for key in ELEMENT_GRIDS:
        for i, wf in enumerate(getattr(sc, key).factors):
            out += [(f"{key}[{i}]", pm, pts) for pm, pts in _leaf_polys(wf.map, wf.grid.points)]
    for i, (op, sigma) in enumerate(zip(sc.xis, sc.sigmas)):
        out += [(f"xi[{i}]", op.xi, _probe_points(op.xi, seed)),
                (f"sigma[{i}]", sigma, _probe_points(sigma, seed))]
    assert all(isinstance(pm, PolynomialMap) for _, pm, _ in out)
    return out


@pytest.mark.parametrize("seed", range(10))
def test_cached_tensors_and_values_carry_the_direct_bits(seed):
    polys = _scenario_polys(seed)
    assert len(polys) > 30
    for label, pm, pts in polys:
        for ell in range(3):
            first = pm.tensors(pts, ell)
            again = pm.tensors(pts, ell)
            assert again is first, (label, ell)
            direct = jets._poly_tensors([(pm._plan(ell), pts)], ell)[0]
            assert _same_bits(again, direct), (label, ell)
            assert not again.flags.writeable, (label, ell)
    for name, w, pts in _scenario_weights(generate_scenario(seed)):
        first, again = w.values(pts), w.values(pts)
        assert again is first, name
        assert _same_bits(again, [float(w.fn(x)) for x in pts]), name
        assert not again.flags.writeable, name


def test_tensors_cache_key_separates_dtype_and_signed_zero(monkeypatch):
    pm = PolynomialMap(box([-2.0], [2.0]), [([1.0, -1.0], (1,)), ([0.5, 2.0], (3,))])
    kernel, calls = jets._poly_tensors, []  # the (points, ell) of every miss
    monkeypatch.setattr(jets, "_poly_tensors",
                        lambda polys, ell: calls.append((polys[0][1], ell)) or kernel(polys, ell))
    pts = np.array([[1.0], [0.5]])
    as_int = pts.view(np.int64)  # the same bytes, read as integers
    zero, neg_zero = np.array([[0.0]]), np.array([[-0.0]])
    for ell in range(3):
        for x in (pts, as_int, zero, neg_zero):
            got = pm.tensors(x, ell)
            assert calls[-1][0] is x and calls[-1][1] == ell  # a miss
            assert _same_bits(got, kernel([(pm._plan(ell), x)], ell)[0])
    assert len(calls) == 12
    assert not np.array_equal(pm.tensors(pts, 0), pm.tensors(as_int, 0))
    # hits, for an equal copy and for a non-contiguous view with equal bits
    assert pm.tensors(pts.copy(), 1) is pm.tensors(pts, 1)
    wide = np.array([[1.0, 9.0], [0.5, 9.0]])
    assert pm.tensors(wide[:, :1], 2) is pm.tensors(pts, 2)
    assert len(calls) == 12


def test_tensors_cache_checks_the_order_first():
    pm = PolynomialMap(box([-1.0], [1.0]), [([1.0], (2,))])
    pts = np.array([[0.5]])
    pm.tensors(pts, 2)
    pm.max_order = 1
    with pytest.raises(OrderError):
        pm.tensors(pts, 2)
    with pytest.raises(OrderError):
        pm.tensors(pts, -1)


def test_values_cache_key_separates_shape_dtype_and_signed_zero():
    seen = []

    def fn(x):
        seen.append(len(x))
        return math.copysign(float(len(x)), x[0])

    w = Weight("sign", fn)
    cols, rows = np.array([[1.0], [2.0]]), np.array([[1.0, 2.0]])  # same bytes
    assert w.values(cols).tolist() == [1.0, 1.0]
    assert w.values(rows).tolist() == [2.0]
    assert w.values(np.array([[0.0]])).tolist() == [1.0]
    assert w.values(np.array([[-0.0]])).tolist() == [-1.0]
    assert len(seen) == 5
    # integer points are evaluated as floats: the same key as their values
    assert w.values(np.array([[1], [2]])) is w.values(cols)
    assert w(np.array([-0.0])) == -1.0 and len(seen) == 5  # a batch of one: a hit


def test_nan_weight_raises_on_every_call():
    calls = []

    def fn(x):
        calls.append(x)
        return np.nan if x[0] > 0.2 else 1.0

    w = Weight("half", fn)
    pts = np.array([[0.0], [0.5]])
    for n in (2, 4):
        with pytest.raises(DataError, match=re.escape("'half' evaluated to NaN at [0.5]")):
            w.values(pts)
        assert len(calls) == n  # evaluated again: a NaN is never cached


@pytest.mark.parametrize("seed", range(10))
def test_crude_sup_bound_matches_uncached_arithmetic(seed):
    for label, pm, _ in _scenario_polys(seed):
        corner = jets._axis_sups(pm.domain)
        for ell in range(4):
            ent = _poly_derivative(pm.terms, corner, ell, np.abs)
            want = max(_ltr_sum(row) for row in ent.reshape(pm.out_dim, -1))
            assert crude_sup_bound(pm, ell) == crude_sup_bound(pm, ell) == want, (label, ell)


# ---------------------------------------------------------------------------
# evaluation plans: one per (polynomial, order), one kernel for every stack


def _plan_stack_polys() -> list[PolynomialMap]:
    """Polynomials of widths 1 to 3 and output dimensions 1 to 3, among
    them coefficients of signed zero and terms whose powers overflow."""
    one, two, three = box([-2.0], [2.0]), box([-1.0, -1.0], [1.0, 1.0]), box([-1.0] * 3, [1.0] * 3)
    return [
        PolynomialMap(one, [([1.0, -0.0], (0,)), ([-0.5, 2.0], (1,)), ([0.25, -0.0], (3,))]),
        PolynomialMap(two, [([-0.0], (0, 0)), ([1.5], (2, 1)), ([-2.0], (0, 3))]),
        PolynomialMap(three, [([1.0, 0.5, -1.0], (1, 1, 1)), ([0.0, -0.0, 3.0], (2, 0, 1))]),
        # x**200 overflows to inf at |x| = 1e2; a zero coefficient makes NaN
        PolynomialMap(one, [([1e300, 0.0], (200,)), ([-1e300, 1.0], (1,))]),
    ]


def _plan_stack_points(pm: PolynomialMap, n: int) -> np.ndarray:
    rng = np.random.default_rng(pm.dim * 10 + n)
    pts = rng.uniform(-1.0, 1.0, size=(n, pm.dim))
    pts[0] = -0.0  # signed zeros through every power
    if n > 1:
        pts[1] = 0.0
    if n > 2:
        pts[2, 0] = 1e2  # the overflowing powers of the last polynomial
    return pts


@pytest.mark.parametrize("ell", range(4))
def test_plan_kernel_matches_the_per_term_oracle(ell):
    """Every entry of a stack of one and of a mixed-width stack, each
    polynomial at its own points, has the bits of the per-term oracle:
    inf and NaN where the powers overflow, and the oracle's zeros."""
    polys = _plan_stack_polys()
    points = [_plan_stack_points(pm, n) for pm, n in zip(polys, (5, 3, 7, 4))]
    stacks = [[g] for g in range(len(polys))] + [[0, 1, 2, 3], [3, 1], [2, 0, 2]]
    non_finite = nan = 0
    for stack in stacks:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            ents = jets._poly_tensors([(polys[g]._plan(ell), points[g]) for g in stack], ell)
        for g, ent in zip(stack, ents):
            pm = polys[g]
            assert ent.shape == (len(points[g]), pm.out_dim) + (pm.dim,) * ell
            with np.errstate(all="ignore"):
                want = np.array([_poly_derivative(pm.terms, x, ell, lambda c: c)
                                 for x in points[g]])
            assert _same_bits(ent, want), (stack, g)
            non_finite += int((~np.isfinite(ent)).sum())
            nan += int(np.isnan(ent).sum())
    assert non_finite and nan


def test_one_plan_per_polynomial_and_order_on_seed_zero(monkeypatch):
    """Generating seed 0 and running every check builds each evaluated
    (polynomial, order) plan once; its repeated misses reuse it."""
    build, builds = jets._poly_plan, []

    def counted(coefs, powers, ell):
        plan = build(coefs, powers, ell)
        builds.append((coefs, ell, plan))  # the coefficients kept alive: ids stay unique
        return plan

    kernel, misses = jets._poly_tensors, []
    monkeypatch.setattr(jets, "_poly_plan", counted)
    monkeypatch.setattr(jets, "_poly_tensors",
                        lambda polys, ell: misses.extend(p for p, _ in polys) or kernel(polys, ell))
    sc = generate_scenario(0)
    run_scenario_checks(sc)
    keys = [(id(coefs), ell) for coefs, ell, _ in builds]
    assert len(keys) == len(set(keys)) > 100
    per_plan = {id(plan): 0 for _, _, plan in builds}
    for plan in misses:
        if id(plan) in per_plan:
            per_plan[id(plan)] += 1
    assert sum(per_plan.values()) > 2 * len(builds)  # plans reused
    assert max(per_plan.values()) > 10
