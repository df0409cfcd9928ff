"""Weighted sup-seminorms on sampled maps.

The seminorm of order l with weight f is the sup over the domain of
|f(x)| times the operator norm of the order-l derivative.  A finite grid
gives a lower bound of that sup, recorded as such; upper bounds must come
from certificates.  Differentials are curried reindexings of the next
tensor, so the reduction identity "order-(l+1) seminorm of the map equals
the order-l seminorm of its differential" holds exactly, not just up to
rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DataError, DomainMembershipError, OrderError, PreconditionError, ShapeError
from .jets import (
    ComponentMap,
    JetMap,
    PairMap,
    ScaledMap,
    SumMap,
    difference_map,
    op_norms,
)
from .report import (
    EXACT,
    GRID_LOWER,
    CheckReport,
    bound_report,
    bound_rows,
    deviation,
    identity_report,
    merge_min_margin,
)
from .spaces import DomainSet, Weight, sup_norms

DEFAULT_PER_AXIS = {1: 11, 2: 9, 3: 5}


@dataclass(frozen=True)
class SampleGrid:
    """Interior lattice points of a domain plus pinned points."""

    domain: DomainSet
    axes: tuple[tuple[float, ...], ...]
    pinned: tuple[tuple[float, ...], ...]
    points: np.ndarray = field(compare=False)
    spacing: float

    def __len__(self) -> int:
        return len(self.points)


def _assemble(domain, axes, pinned) -> np.ndarray:
    """The lattice points of ``axes`` inside ``domain`` in lattice order,
    then each pinned point that equals neither a lattice point nor an
    earlier pinned point."""
    pts = np.empty(tuple(map(len, axes)) + (len(axes),))
    for a, coords in enumerate(axes):  # the lattice in row-major (axis 0 slowest) order
        pts[..., a] = np.reshape(coords, (-1,) + (1,) * (len(axes) - 1 - a))
    pts = pts.reshape(-1, len(axes))
    rows = pts[domain.members(pts)]
    if pinned:
        pins = np.array(pinned, dtype=float)
        inside = domain.members(pins)
        if not inside.all():
            raise DomainMembershipError(
                f"pinned point {pinned[int(inside.argmin())]} not interior")
        same = (pins[:, None] == np.concatenate([rows, pins])[None]).all(axis=2)
        repeat = same[:, :len(rows)].any(axis=1) | np.tril(same[:, len(rows):], -1).any(axis=1)
        rows = np.concatenate([rows, pins[~repeat]])
    if not len(rows):
        raise DataError("grid has no interior points")
    return rows


def lattice(
    domain: DomainSet,
    per_axis: int | None = None,
    spacing: float | None = None,
    pinned: Sequence[Sequence[float]] = (),
) -> SampleGrid:
    """Uniform lattice intersected with the open domain.

    With ``spacing`` the lattice sits on integer multiples of the spacing
    (boundary multiples drop out since points must be strictly interior);
    with ``per_axis`` that many equispaced interior points are used, the
    interior points of ``np.linspace(lo, hi, per_axis + 2)`` computed by
    its arithmetic in Python floats.
    """
    lo, hi = domain.bounding_box()
    axes = []
    if spacing is not None:
        for a in range(domain.dim):
            k0 = math.ceil(lo[a] / spacing - 1e-12)
            k1 = math.floor(hi[a] / spacing + 1e-12)
            coords = [k * spacing for k in range(k0, k1 + 1) if lo[a] < k * spacing < hi[a]]
            axes.append(tuple(coords))
        step = spacing
    else:
        n = per_axis or DEFAULT_PER_AXIS.get(domain.dim, 5)
        for a, b in zip(lo.tolist(), hi.tolist()):
            h = (b - a) / (n + 1)  # linspace's step, and its branch for a step of 0
            axes.append(tuple(i * h + a if h else i / (n + 1) * (b - a) + a
                              for i in range(1, n + 1)))
        step = axes[0][1] - axes[0][0] if len(axes[0]) > 1 else float(hi[0] - lo[0])
    pin = tuple(tuple(float(v) for v in p) for p in pinned)
    return SampleGrid(domain, tuple(axes), pin, _assemble(domain, axes, pin), step)


def refine(grid: SampleGrid) -> SampleGrid:
    """Insert axis midpoints; the refined point set contains the old one."""
    new_axes = []
    for coords in grid.axes:
        out = [coords[0]]
        for a, b in zip(coords, coords[1:]):
            out.append((a + b) / 2.0)
            out.append(b)
        new_axes.append(tuple(out))
    # every old axis coordinate stays, so the old lattice points do too
    pts = _assemble(grid.domain, tuple(new_axes), grid.pinned)
    return SampleGrid(grid.domain, tuple(new_axes), grid.pinned, pts, grid.spacing / 2.0)


# ---------------------------------------------------------------------------


# Certified seminorm upper bounds, one (weight name, order, bound) row each.
Certificates = tuple[tuple[str, int, float], ...]


def row_bound(rows, *key) -> float | None:
    """The bound of the first row of ``rows`` whose entries before the
    bound are ``key``, such as (weight name, order), or None: the one
    lookup of a certified row.  Only :func:`require_row` calls it, so no
    check can skip a missing row."""
    return next((row[-1] for row in rows if row[:-1] == key), None)


def require_row(rows, *key) -> float:
    """:func:`row_bound`, with a missing row a PreconditionError."""
    if (b := row_bound(rows, *key)) is None:
        raise PreconditionError(f"missing certified bound for {key!r}")
    return b


@dataclass(frozen=True)
class WeightedFunction:
    """An evaluable C^k map paired with a sample grid and optional
    certified seminorm upper bounds keyed by (weight name, order)."""

    map: JetMap
    grid: SampleGrid
    max_order: int
    certified: Certificates = ()

    def __post_init__(self):
        if self.grid.domain.dim != self.map.dim:
            raise ShapeError("grid domain and map domain dimensions disagree")
        if self.map.max_order is not None and self.max_order > self.map.max_order:
            raise OrderError("declared max order exceeds what the map provides")

    def require_bound(self, weight_name: str, ell: int) -> float:
        return require_row(self.certified, weight_name, ell)

    def differential(self) -> "WeightedFunction":
        return WeightedFunction(self.map.differential(), self.grid, self.max_order - 1)


@dataclass(frozen=True)
class SeminormValue:
    value: float
    kind: str
    witness: tuple[float, ...] | None = None


def weighted_seminorms(
    wfs: Sequence[WeightedFunction], weights: Sequence[Weight], ell: int
) -> list[SeminormValue]:
    """Grid lower bound of sup |f(x)| * |D^l map(x)| of each function with
    its weight, with its witness, in one stacked pass over the
    concatenated grids: the seminorms of the factors of a family, whose
    sup is one sup over the disjoint union of their domains.

    A grid point where the weight is infinite forces the value to +inf
    unless the tensor vanishes there, and an infinite tensor norm forces
    +inf unless the weight vanishes there.  A NaN tensor entry raises
    DataError naming the first grid point that has one: it must not drop
    out of the sup.  Every weight is evaluated on its whole grid, so a NaN
    weight value raises even where an earlier point already made the value
    infinite.  A function given more than once (with several weights) is
    evaluated once.  The functions are stacked by tensor shape and output
    rank (usually one stack): one :func:`op_norms` call and one weight-value
    array per stack.  Errors come in this order: orders, tensors, NaN
    entries, then per stack operator norms and weights, each in function
    order; one error raises as one function alone raises it.
    """
    pairs = list(zip(wfs, weights, strict=True))
    for wf, _ in pairs:
        if ell > wf.max_order:
            raise OrderError(f"order {ell} exceeds max order {wf.max_order}")
    # one scope for the pass: a scaled tensor or a weighted norm may overflow
    with np.errstate(over="ignore", invalid="ignore"):
        grids = [wf.grid.points for wf, _ in pairs]
        evaluated: dict[int, np.ndarray] = {}  # a function given with several weights
        for wf, _ in pairs:
            if id(wf) not in evaluated:
                evaluated[id(wf)] = wf.map.tensors(wf.grid.points, ell)
        ts = [evaluated[id(wf)] for wf, _ in pairs]
        # one stack per tensor shape and output rank, in function order
        groups: dict[tuple, list[int]] = {}
        for i, ((wf, _), t) in enumerate(zip(pairs, ts)):
            key = (t.shape[1:], len(wf.map.out_shape))
            groups.setdefault(key, []).append(i)
        stacks = [(key, idx, np.concatenate([ts[i] for i in idx])) for key, idx in groups.items()]
        if any(np.isnan(stack).any() for _, _, stack in stacks):
            i = next(i for i, t in enumerate(ts) if np.isnan(t).any())
            k = int(np.isnan(ts[i]).reshape(len(ts[i]), -1).any(axis=1).argmax())
            raise DataError(
                f"order-{ell} tensor has a NaN entry at grid point {grids[i][k].tolist()}"
            )
        out: list = [None] * len(pairs)
        for (_, out_rank), idx, stack in stacks:
            norms = op_norms(stack, out_rank)
            w = np.abs(np.concatenate([pairs[i][1].values(grids[i]) for i in idx]))
            v = np.where(
                np.isinf(w) | np.isinf(norms),
                np.where((w == 0.0) | (norms == 0.0), 0.0, math.inf),
                w * norms,
            )
            at = 0
            for i in idx:
                k = at + int(v[at:at + len(ts[i])].argmax())  # the first point attaining the max
                out[i] = SeminormValue(float(v[k]), GRID_LOWER, tuple(grids[i][k - at].tolist()))
                at += len(ts[i])
    return out


def weighted_seminorm(wf: WeightedFunction, weight: Weight, ell: int) -> SeminormValue:
    """:func:`weighted_seminorms` of a batch of one, kept for the
    benchmark's tracer and kernel samples."""
    return weighted_seminorms([wf], [weight], ell)[0]


def seminorm_axioms_check(
    wf_a: WeightedFunction,
    wf_b: WeightedFunction,
    weight: Weight,
    ell: int,
) -> CheckReport:
    """Absolute homogeneity (to 1e-12) and the triangle inequality on the
    shared grid, from one :func:`weighted_seminorms` pass over a, alpha a,
    a + b and b."""
    check_id = "def:weighted_seminorm"
    alpha = -1.7
    scaled = WeightedFunction(ScaledMap(wf_a.map, alpha), wf_a.grid, wf_a.max_order)
    total = WeightedFunction(SumMap([wf_a.map, wf_b.map]), wf_a.grid,
                             min(wf_a.max_order, wf_b.max_order))
    na, n_scaled, lhs, nb = (sv.value for sv in weighted_seminorms(
        [wf_a, scaled, total, wf_b], [weight] * 4, ell))
    dev = deviation(n_scaled, abs(alpha) * na)
    homog = identity_report(check_id, dev, tolerance=1e-12, detail="homogeneity")
    rhs = na + nb
    tri = bound_report(
        check_id, lhs, rhs, tolerance=1e-12,
        lhs_provenance=GRID_LOWER, rhs_provenance=GRID_LOWER,
        detail="triangle inequality on grid values",
    )
    return merge_min_margin(check_id, [homog, tri])


def decomposition_checks(
    wfs: Sequence[WeightedFunction],
    weights: Sequence[Weight],
    ell: int,
    tolerance: float = 1e-12,
) -> list[CheckReport]:
    """Order-(l+1) seminorm of each map equals the order-l seminorm of its
    differential (the curry isometry realized on the same grid), one
    report per map from two stacked seminorm passes."""
    if any(ell + 1 > wf.max_order for wf in wfs):
        raise OrderError("need one order of headroom for the differential")
    lhs = weighted_seminorms(wfs, weights, ell + 1)
    rhs = weighted_seminorms([wf.differential() for wf in wfs], weights, ell)
    return [
        identity_report(
            "lem:topologische_Zerlegung_von_CFk",
            deviation(a.value, b.value),
            tolerance=tolerance,
            detail=f"reduction to lower order at l = {ell}",
        )
        for a, b in zip(lhs, rhs)
    ]


def pair_split(wf: WeightedFunction) -> tuple[WeightedFunction, WeightedFunction]:
    """Split a map with a declared two-block codomain into its components."""
    blocks = wf.map.out_blocks
    if blocks is None or len(blocks) != 2:
        raise ShapeError("codomain is not a declared product of two blocks")
    n1 = blocks[0]
    first = ComponentMap(wf.map, 0, n1)
    second = ComponentMap(wf.map, n1, n1 + blocks[1])
    return (
        WeightedFunction(first, wf.grid, wf.max_order),
        WeightedFunction(second, wf.grid, wf.max_order),
    )


def pair_split_check(
    wf: WeightedFunction,
    weight: Weight,
    ell: int,
) -> CheckReport:
    """Splitting is an isometric isomorphism: the seminorm is the max of
    the component seminorms and recombination is bit-exact."""
    check_id = "lem:gewichtete_Abb_Produktisomorphie-endl"
    a, b = pair_split(wf)
    whole, part_a, part_b = (
        sv.value for sv in weighted_seminorms([wf, a, b], [weight] * 3, ell)
    )
    norm_id = identity_report(
        check_id, deviation(whole, max(part_a, part_b)), tolerance=0.0,
        detail="max of block seminorms",
    )
    recombined = PairMap([a.map, b.map])
    probes = wf.grid.points[:: max(1, len(wf.grid.points) // 5)]
    for order in range(min(ell + 1, wf.max_order + 1)):
        if not np.array_equal(
            recombined.tensors(probes, order), wf.map.tensors(probes, order)
        ):
            return identity_report(
                check_id, math.inf, tolerance=0.0,
                detail="recombination is not bit-exact",
            )
    return norm_id


def norm_comparison_1U(
    phi: WeightedFunction,
    psi: WeightedFunction,
    weight: Weight,
    d: float,
) -> list[CheckReport]:
    """Pointwise and aggregate comparison of the unweighted distance with
    the f-weighted one, given inf |f| >= max(1/d, 1)."""
    threshold = max(1.0 / d, 1.0)
    if weight.certified_inf is None or weight.certified_inf < threshold:
        raise PreconditionError(
            f"weight {weight.name!r} needs certified inf >= {threshold}"
        )
    diff = difference_map(phi.map, psi.map)
    dwf = WeightedFunction(diff, phi.grid, 0)
    fnorm = weighted_seminorm(dwf, weight, 0).value
    pts = phi.grid.points
    gaps = sup_norms(diff.tensors(pts, 0))
    unweighted = float(gaps.max())
    w = np.abs(weight.values(pts))
    with np.errstate(divide="ignore", invalid="ignore"):
        bound = np.where(w == 0.0, math.inf, fnorm / w)
    pointwise = bound_rows(
        "lem:est_1-0-norm_f-0-norm", gaps, bound, tolerance=1e-12,
        lhs_provenance=EXACT, rhs_provenance=GRID_LOWER,
        witness=lambda k: tuple(pts[k].tolist()),
    )
    agg = bound_report(
        "est:1-0-norm_f-0-norm_spezielles-f",
        unweighted,
        min(d, 1.0) * fnorm,
        tolerance=1e-12,
        lhs_provenance=GRID_LOWER,
        rhs_provenance=GRID_LOWER,
        detail="unweighted grid sup vs min(d,1) times the weighted one",
    )
    return [pointwise, agg]
