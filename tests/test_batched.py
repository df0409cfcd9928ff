"""The batched evaluation path is pinned bit for bit.

``JetMap.tensors`` evaluates a whole point array at once; ``tensor`` and
``value`` are batches of one.  Every row of a batch must carry exactly the
bits of the one-point evaluation, and the polynomial kernel must carry the
bits of the plain one-point formula below.
"""

import itertools

import numpy as np
import pytest

from wrp.errors import DomainMembershipError
from wrp.jets import (
    AffineMap,
    BilinearPairMap,
    ComponentMap,
    ComposeMap,
    ConstMap,
    DifferentialMap,
    JetMap,
    MultilinearPairMap,
    PairedDerivativeMap,
    PairMap,
    PartialD2Map,
    PolynomialMap,
    ScaledMap,
    SumMap,
    TrigPolynomialMap,
    crude_sup_bound,
    fd_jet,
    identity_map,
    xi2_build,
)
from wrp.operators import InverseMap
from wrp.restricted import PointwiseQIMap
from wrp.spaces import box
from wrp.verify import ELEMENT_GRIDS, generate_scenario

MAX_ORDER_CAP = 3  # orders checked for maps without a declared max order


def _poly_derivative(terms, point, ell, coef):
    """Oracle: the order-``ell`` derivative entries ``(n,) + (m,)*ell`` at
    one point, by the one-point formula the batched kernel must reproduce
    (numpy ``point ** powers`` at order 0, one ``float ** int`` per axis
    above)."""
    n, m = terms[0][0].shape[0], len(terms[0][1])
    ent = np.zeros((n,) + (m,) * ell)
    for c, pw in terms:
        cc = coef(c)
        if ell == 0:
            ent += cc * float(np.prod(point ** np.array(pw)))
            continue
        if sum(pw) < ell:
            continue
        for jidx in itertools.product(range(m), repeat=ell):
            beta = [0] * m
            for j in jidx:
                beta[j] += 1
            if any(beta[a] > pw[a] for a in range(m)):
                continue
            scale = 1.0
            for a in range(m):
                for k in range(beta[a]):
                    scale *= pw[a] - k
                scale *= point[a] ** (pw[a] - beta[a])
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
        if map_.domain.contains(x):
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
        ("differential", DifferentialMap(gamma), fs.grid_u.points),
        ("partial_d2", PartialD2Map(op.xi), _probe_points(op.xi, seed)),
        ("bilinear", BilinearPairMap(sc.bilinears[0], sc.multipliers[0].map, gamma),
         fs.grid_u.points),
        ("multilinear", MultilinearPairMap(
            sc.beta2s[0], [sc.ml_args1[0].map, sc.ml_args2[0].map]), fs.grid_u.points),
        ("inverse", InverseMap(sc.phis[0].map, fs.u, fs.v_tilde, sc.contraction),
         fs.grid_vt.points),
        ("pointwise_qi", PointwiseQIMap(
            ScaledMap(ConstMap(fs.u, np.eye(sc.dim).reshape(-1)), 0.25), sc.dim,
            sc.neumann), fs.grid_u.points),
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
    # enough points that numpy's vectorized power, or its squaring loop for
    # a broadcast exponent, would differ from the one-point formula somewhere
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
            assert crude_sup_bound(pm, ell) == float(np.max(oracle.sum(axis=1)))


def test_fd_jet_matches_stencil_formula():
    rng = np.random.default_rng(5)
    dom = box([-1.0] * 3, [1.0] * 3)
    pm = PolynomialMap(dom, [(rng.normal(size=2), tuple(int(p) for p in rng.integers(0, 4, 3)))
                             for _ in range(5)])
    h = 1e-3
    f = pm.value
    e = np.eye(3) * h
    for x in rng.uniform(-0.5, 0.5, size=(10, 3)):
        d1 = np.stack([(f(x + e[j]) - f(x - e[j])) / (2 * h) for j in range(3)], axis=-1)
        d2 = np.zeros((2, 3, 3))
        for i in range(3):
            d2[:, i, i] = (f(x + e[i]) - 2 * f(x) + f(x - e[i])) / h**2
            for j in range(i + 1, 3):
                v = (f(x + e[i] + e[j]) - f(x + e[i] - e[j]) - f(x - e[i] + e[j])
                     + f(x - e[i] - e[j])) / (4 * h**2)
                d2[:, i, j] = d2[:, j, i] = v
        jet = fd_jet(pm, x, 2, h=h)
        assert _same_bits(jet.tensors[0].entries, f(x))
        assert _same_bits(jet.tensors[1].entries, d1)
        assert _same_bits(jet.tensors[2].entries, d2)


def test_fd_jet_names_first_stencil_point_outside():
    pm = PolynomialMap(box([-1.0, -1.0], [1.0, 1.0]), [([1.0], (2, 1))])
    x = np.array([0.5, 0.9995])
    # x + h e_0 is inside; x + h e_1 is the first point outside
    with pytest.raises(DomainMembershipError, match=r"\[0\.5, 1\.0005"):
        fd_jet(pm, x, 1, h=1e-3)
