"""Single-factor nonlinear operators between weighted function spaces.

Superposition and composition results carry exact chain-rule jets built
from the factor maps; inversion of a perturbed identity runs a guarded
fixed-point iteration whose stopping rule converts the tolerance into a
guaranteed error via the a-posteriori contraction bound.  The
quasi-inverse of a small operator is a truncated Neumann series with the
truncation order chosen from the geometric tail bound.  Every estimate a
result is known to satisfy is attached as a check report with explicit
margins; right-hand sides that need a sup over the domain come from
certified bounds, never from grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .arith import contract, matmul, row_sums
from .errors import (
    ContractionViolationError,
    GeometryError,
    IterationError,
    PreconditionError,
    RangeEscapeError,
    ShapeError,
    SpectralConditionError,
    TruncationError,
    WrpError,
)
from .jets import (
    ComposeMap,
    JetMap,
    PairMap,
    SumMap,
    _fd_prefix,
    difference_map,
    identity_map,
    op_norms,
    opnorms_inf,
)
from .report import (
    CERTIFIED_UPPER,
    EXACT,
    GRID_LOWER,
    CheckReport,
    bound_report,
    bound_rows,
    identity_report,
    max_deviation,
    merge_min_margin,
    skipped_report,
)
from .seminorms import (
    Certificates,
    SampleGrid,
    WeightedFunction,
    require_row,
    weighted_seminorms,
)
from .spaces import DomainSet, Weight

SLOPE_WINDOW = (1.7, 2.3)
EXACTNESS_TOL = 1e-12
DEFAULT_FD_STEPS = (0.1, 0.05, 0.025, 0.0125)
# the Neumann truncation: the fewest terms whose geometric tail is at most
# NEUMANN_TAIL, and never more than NEUMANN_MAX_TERMS
NEUMANN_TAIL = 1e-12
NEUMANN_MAX_TERMS = 160


@dataclass(frozen=True)
class ContractionConfig:
    """Fixed-point inversion parameters; membership in the operator domain
    requires certified bounds |phi|_{1,1} < tau and |phi|_{1,0} < (r/2)(1-tau)."""

    tau: float
    r: float
    fix_tol: float = 1e-12
    max_iters: int = 200

    def __post_init__(self):
        if not (0.0 < self.tau < 1.0):
            raise PreconditionError("tau must lie in (0, 1)")
        if self.r <= 0:
            raise PreconditionError("r must be positive")


def convergence_report(
    check_id: str,
    steps: Sequence[float],
    errors: Sequence[float],
    exact_tol: float = EXACTNESS_TOL,
    detail: str = "",
) -> CheckReport:
    """Least-squares slope of log error against log step, in closed form
    (the centred cross sum over the centred square sum, libm's ``log``);
    passes inside ``SLOPE_WINDOW`` or on the exactness branch (all errors
    below exact_tol).  A non-finite error fails: the first one is the
    lhs, its step named."""
    pairs = list(zip(steps, errors))
    for h, e in pairs:
        if not math.isfinite(e):
            return CheckReport(check_id, "fail", e, math.inf, -math.inf, 0.0, EXACT, EXACT, (),
                               detail + f" non-finite quotient error at step {h!r}")
    if not pairs:
        return skipped_report(check_id, "no difference steps survived the range checks")
    errs = [e for _, e in pairs]
    if max(errs) <= exact_tol:
        return CheckReport(
            check_id, "pass", max(errs), exact_tol, 0.0, exact_tol,
            EXACT, EXACT, (), detail + " (exactness branch)",
        )
    if any(e <= 0 for e in errs) or len(pairs) < 3:
        return skipped_report(check_id, "degenerate error sequence for slope fit")
    x = np.array([math.log(h) for h, _ in pairs])
    y = np.array([math.log(e) for e in errs])
    x, y = x - row_sums(x) / len(x), y - row_sums(y) / len(y)
    slope = float(contract(x, y) / contract(x, x))
    lo, hi = SLOPE_WINDOW
    margin = min(slope - lo, hi - slope)
    status = "pass" if margin >= 0 else "fail"
    return CheckReport(
        check_id, status, slope, hi, margin, 0.0, EXACT, EXACT, (),
        detail + f" slope {slope:.3f} in [{lo}, {hi}]",
    )


def derivative_convergence(
    check_id: str,
    errors: Mapping[float, float],
    steps: Sequence[float],
    exact_tol: float = EXACTNESS_TOL,
    detail: str = "",
) -> CheckReport:
    """The difference-quotient sweep of every derivative check: ``errors``
    maps each step the range checks admit to the sup error of its quotient
    against the claimed derivative, and a step it lacks is rejected.  The
    steps (at least three) must decrease geometrically."""
    if len(steps) < 3:
        raise PreconditionError("need at least three geometrically spaced steps")
    ratios = [steps[i + 1] / steps[i] for i in range(len(steps) - 1)]
    if max(ratios) / min(ratios) > 1.5 or not all(0 < r < 1 for r in ratios):
        raise PreconditionError("step sizes must decrease geometrically")
    used = [t for t in steps if t in errors]
    rejected = len(steps) - len(used)
    if rejected:
        detail = f"{detail} {rejected} step(s) rejected by range checks;".lstrip()
    return convergence_report(check_id, used, [float(errors[t]) for t in used], exact_tol, detail)


# ---------------------------------------------------------------------------
# weak integrals (oracle for mean-value arguments)


def weak_integral(g, a: float, b: float, quad_n: int = 64) -> np.ndarray:
    """Composite Simpson quadrature of a vector-valued integrand.  ``g``
    takes the ``quad_n + 1`` nodes as one array and returns the integrand
    values stacked along the first axis."""
    if quad_n < 2 or quad_n % 2 != 0:
        raise PreconditionError("quad_n must be even and >= 2")
    ts = np.linspace(a, b, quad_n + 1)
    vals = np.asarray(g(ts), dtype=float)
    w = np.ones(quad_n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    h = (b - a) / quad_n
    return h / 3.0 * contract(np.moveaxis(vals, 0, -1), w)


# ---------------------------------------------------------------------------
# superposition


@dataclass(frozen=True)
class SuperpositionOperand:
    """A two-block map xi on U x V with xi(., 0) = 0 and certified bounds:
    sup_1[l] bounds the unweighted order-l seminorm of xi over U x V, and
    d2_sup bounds the sup of the second-block partial differential."""

    xi: JetMap
    u: DomainSet
    v: DomainSet
    sup_1: tuple[tuple[int, float], ...]
    d2_sup: float


def _probe_zero_section(op: SuperpositionOperand, points: np.ndarray):
    probes = points[:: max(1, len(points) // 3)][:3]
    zero = np.zeros((len(probes), op.v.dim))
    if np.max(np.abs(op.xi.tensors(np.concatenate([probes, zero], axis=1), 0))) > 1e-12:
        raise PreconditionError("xi does not vanish on the zero section")


def superpose(
    op: SuperpositionOperand,
    gamma: WeightedFunction,
    weights: Sequence[Weight] = (),
    pair: tuple[WeightedFunction, Certificates] | None = None,
) -> tuple[WeightedFunction, list[CheckReport]]:
    """x -> xi(x, gamma(x)) with chain-rule jets.

    ``pair`` optionally supplies a second argument together with the
    certified bounds of the difference gamma - gamma_alt, to check the
    two-argument distance estimate.  A certified row an estimate reads
    that is missing is a PreconditionError.
    """
    if not op.v.star_shaped_at_zero:
        raise PreconditionError("the value domain must be star-shaped at 0")
    pts = gamma.grid.points
    inside = op.v.members(gamma.map.tensors(pts, 0))
    if not inside.all():
        raise RangeEscapeError(
            f"gamma({pts[np.argmin(inside)].tolist()}) escapes the value domain"
        )
    _probe_zero_section(op, pts)

    result_map = ComposeMap(op.xi, PairMap([identity_map(op.u), gamma.map]))
    max_order = gamma.max_order
    if op.xi.max_order is not None:
        max_order = min(max_order, op.xi.max_order)
    # no certified rows: the estimates below state the bounds of the result
    result = WeightedFunction(result_map, gamma.grid, max_order)

    # one seminorm pass per order for all weights, and one for the pair gap:
    # the result's tensors are evaluated once per order
    reports: list[CheckReport] = []
    if not weights:
        return result, reports
    n = len(weights)
    lhs0 = weighted_seminorms([result] * n, weights, 0)
    lhs1 = weighted_seminorms([result] * n, weights, 1) if max_order >= 1 else None
    if pair is not None:
        gamma_alt, diff = pair
        alt_map = ComposeMap(op.xi, PairMap([identity_map(op.u), gamma_alt.map]))
        gap = WeightedFunction(difference_map(result_map, alt_map), gamma.grid, 0)
        gaps = weighted_seminorms([gap] * n, weights, 0)
    for k, w in enumerate(weights):
        cert0 = gamma.require_bound(w.name, 0)
        reports.append(
            bound_report(
                "est:f0-Norm_SPid", lhs0[k].value, op.d2_sup * cert0, tolerance=1e-9,
                lhs_provenance=GRID_LOWER, rhs_provenance=CERTIFIED_UPPER,
                detail=f"weight {w.name}",
            )
        )
        if lhs1 is not None:
            rhs1 = require_row(op.sup_1, 2) * cert0 + op.d2_sup * gamma.require_bound(w.name, 1)
            reports.append(
                bound_report(
                    "est:f1-Norm_SPid", lhs1[k].value, rhs1, tolerance=1e-9,
                    lhs_provenance=GRID_LOWER, rhs_provenance=CERTIFIED_UPPER,
                    detail=f"weight {w.name}",
                )
            )
        if pair is not None:
            dcert = require_row(diff, w.name, 0)
            lhs_d = gaps[k].value
            reports.append(
                bound_report(
                    "est:f0-Norm_SPid-Differenz", lhs_d, op.d2_sup * dcert,
                    tolerance=1e-9,
                    lhs_provenance=GRID_LOWER, rhs_provenance=CERTIFIED_UPPER,
                    # every DomainSet, a box or a ball, is convex
                    detail=f"weight {w.name}; segment condition automatic (convex value domain)",
                )
            )
    return result, reports


def superpose_derivative_check(
    op: SuperpositionOperand,
    gamma: WeightedFunction,
    direction: WeightedFunction,
    check_id: str = "id:Differential_SuperposCWZweiVars-id",
) -> CheckReport:
    """Symmetric difference quotients of the superposition against the
    stated directional derivative, with a second-order convergence fit.

    The range checks decide first which steps are admitted; xi is then
    evaluated once, at the +t and -t points of every admitted step (its
    rows are independent), and each step's error is taken from its own
    rows."""
    pts = gamma.grid.points
    m2 = op.v.dim
    g, d = gamma.map.tensors(pts, 0), direction.map.tensors(pts, 0)
    d2 = op.xi.tensors(np.concatenate([pts, g], axis=1), 1)[:, :, -m2:]
    exact = contract(d2, d[:, None, :])
    admitted = [t for t in DEFAULT_FD_STEPS
                if op.v.members(g + t * d).all() and op.v.members(g - t * d).all()]
    errors = {}
    if admitted:
        xs = np.concatenate([np.concatenate([pts, gt], axis=1)
                             for t in admitted for gt in (g + t * d, g - t * d)])
        vals = op.xi.tensors(xs, 0).reshape((len(admitted), 2) + exact.shape)
        errors = {t: np.max(np.abs((plus - minus) / (2 * t) - exact))
                  for t, (plus, minus) in zip(admitted, vals)}
    return derivative_convergence(check_id, errors, DEFAULT_FD_STEPS)


# ---------------------------------------------------------------------------
# composition with a perturbed identity


def compose_perturbed(
    gamma: WeightedFunction,
    eta: WeightedFunction,
    u: DomainSet,
    v: DomainSet,
    w: DomainSet,
    weights: Sequence[Weight] = (),
    pair: tuple[WeightedFunction, WeightedFunction, Certificates, Certificates] | None = None,
) -> tuple[WeightedFunction, list[CheckReport]]:
    """x -> gamma(eta(x) + x) with chain-rule jets.

    gamma's certified ("one", 1) row bounds its unweighted order-1
    seminorm on its whole domain.  ``pair`` supplies (gamma0, eta0,
    gamma_diff, eta_diff) for the distance estimate, the last two the
    certified rows of gamma - gamma0 and eta - eta0.
    """
    if not v.balanced:
        raise PreconditionError("the perturbation range must be balanced")
    if not w.contains_set(v.minkowski_sum(u)):
        raise GeometryError("V + U is not contained in W")
    pts = eta.grid.points
    eta_vals = eta.map.tensors(pts, 0)
    inside = v.members(eta_vals)
    if not inside.all():
        raise RangeEscapeError(
            f"eta({pts[np.argmin(inside)].tolist()}) escapes the perturbation range"
        )
    shifted = SumMap([eta.map, identity_map(u)])
    result_map = ComposeMap(gamma.map, shifted)
    max_order = min(gamma.max_order, eta.max_order)
    result = WeightedFunction(result_map, eta.grid, max_order)

    sup = lambda vals: np.max(np.abs(vals), axis=1)
    sup_result = sup(result_map.tensors(pts, 0))
    gamma_lip = gamma.require_bound("one", 1)
    sup_bound = gamma_lip * sup(eta_vals) + sup(gamma.map.tensors(pts, 0))
    reports: list[CheckReport] = []
    if pair is not None and weights:
        gamma0, eta0, gamma_diff, eta_diff = pair
        other = ComposeMap(gamma0.map, SumMap([eta0.map, identity_map(u)]))
        gapf = WeightedFunction(difference_map(result_map, other), eta.grid, 0)
        gaps = weighted_seminorms([gapf] * len(weights), weights, 0)
    for k, wgt in enumerate(weights):
        fx = np.abs(wgt.values(pts))
        reports.append(
            bound_rows(
                "est:Funktionswerte_Gewicht_K-Kompo", fx * sup_result, fx * sup_bound,
                tolerance=1e-9, lhs_provenance=EXACT, rhs_provenance=CERTIFIED_UPPER,
                witness=lambda k: tuple(pts[k].tolist()), detail=f"weight {wgt.name}",
            )
        )
        if pair is not None:
            lhs_d = gaps[k].value
            rhs_d = (gamma_lip * require_row(eta_diff, wgt.name, 0)
                     + require_row(gamma_diff, "one", 1) * eta0.require_bound(wgt.name, 0)
                     + require_row(gamma_diff, wgt.name, 0))
            reports.append(
                bound_report(
                    "est:f,0-Norm_Differenz_Kompo", lhs_d, rhs_d, tolerance=1e-9,
                    lhs_provenance=GRID_LOWER, rhs_provenance=CERTIFIED_UPPER,
                    detail=f"weight {wgt.name}",
                )
            )
    return result, reports


def compose_derivative_check(
    gamma: WeightedFunction,
    eta: WeightedFunction,
    u: DomainSet,
    v: DomainSet,
    gamma_dir: JetMap,
    eta_dir: JetMap,
    check_id: str = "id:Ableitung_Kompo",
) -> CheckReport:
    """The derivative of composition splits into the two stated terms.

    The range checks decide first which steps are admitted; gamma and its
    direction are then evaluated once each, at the shifted points z +- t
    dx of every admitted step (their rows are independent), and each
    step's error is taken from its own rows."""
    pts = eta.grid.points
    ex, dx = eta.map.tensors(pts, 0), eta_dir.tensors(pts, 0)
    z = ex + pts
    dgamma = gamma.map.differential().tensors(z, 0)
    exact = contract(dgamma, dx[:, None, :]) + gamma_dir.tensors(z, 0)
    admitted = [t for t in DEFAULT_FD_STEPS
                if v.members(ex + t * dx).all() and v.members(ex - t * dx).all()]
    errors = {}
    if admitted:
        zs = np.concatenate([zt for t in admitted for zt in (z + t * dx, z - t * dx)])
        shape = (len(admitted), 2) + exact.shape
        vals = gamma.map.tensors(zs, 0).reshape(shape)
        dirs = gamma_dir.tensors(zs, 0).reshape(shape)
        for t, (gp, gm), (dp, dm) in zip(admitted, vals, dirs):
            plus, minus = gp + t * dp, gm - t * dm
            errors[t] = np.max(np.abs((plus - minus) / (2 * t) - exact))
    return derivative_convergence(check_id, errors, DEFAULT_FD_STEPS)


# ---------------------------------------------------------------------------
# quasi-inverse by Neumann series


def neumann_terms(q: float) -> int:
    """Smallest truncation order N with geometric tail q^(N+1)/(1-q) at or
    below ``NEUMANN_TAIL``, the power by a multiplication chain."""
    if not 0.0 <= q < 1.0:
        raise SpectralConditionError(f"operator norm {q} is not below 1")
    if q == 0.0:
        return 1
    n_terms, power = 1, q * q
    while power / (1.0 - q) > NEUMANN_TAIL:
        n_terms, power = n_terms + 1, power * q
        if n_terms > NEUMANN_MAX_TERMS:
            raise TruncationError(
                f"needs more than {NEUMANN_MAX_TERMS} terms for tail {NEUMANN_TAIL}"
            )
    return n_terms


def quasi_inverses(mats) -> np.ndarray:
    """QI(a) = -(a + a^2 + ...) of each matrix ``a`` of an ``(N, k, k)``
    stack, truncated so the geometric tail is below ``NEUMANN_TAIL``;
    satisfies a + QI(a) - a QI(a) = 0 within twice the tail.

    Each row takes its own truncation order from its own norm
    (:func:`~wrp.jets.opnorms_inf`).
    The rows that need a further power take it in one stacked
    :func:`~wrp.arith.matmul`, so each row carries the bits of a one-matrix
    power chain.  The first row whose norm
    is not below 1, or that needs more than ``NEUMANN_MAX_TERMS`` terms,
    raises what it raises alone."""
    mats = np.asarray(mats, dtype=float)
    if mats.ndim != 3:
        raise ShapeError(f"quasi-inverses need an (N, k, k) stack, got shape {mats.shape}")
    if mats.shape[1] != mats.shape[2]:
        raise SpectralConditionError("quasi-inverse needs a square operator")
    n_terms = np.array([neumann_terms(q) for q in opnorms_inf(mats).tolist()], dtype=int)
    # rows by decreasing term count: the rows that take another power are a prefix
    order = np.argsort(-n_terms, kind="stable")
    base, counts = mats[order], n_terms[order]
    power, acc = base.copy(), base.copy()
    for step in range(1, counts.max(initial=1)):
        live = int(np.count_nonzero(counts > step))
        power[:live] = matmul(power[:live], base[:live])
        acc[:live] += power[:live]
    qi = np.empty_like(acc)
    qi[order] = -acc
    return qi


def quasi_inverse_report(mats: np.ndarray) -> tuple[np.ndarray, CheckReport]:
    """The quasi-inverses of an ``(N, k, k)`` stack and the worst row's
    report of the algebra relation a + QI(a) - a QI(a) = 0 up to the
    tail: one :func:`quasi_inverses` and one residual norm pass."""
    mats = np.asarray(mats, dtype=float)
    qi = quasi_inverses(mats)
    residuals = opnorms_inf(mats + qi - matmul(mats, qi))
    return qi, bound_rows(
        "qi:neumann_relation", residuals, np.full(len(mats), 2.0 * NEUMANN_TAIL),
        tolerance=0.0, lhs_provenance=EXACT, rhs_provenance=EXACT,
        detail="algebra relation a + QI(a) - a QI(a) = 0 up to the tail",
    )


# ---------------------------------------------------------------------------
# inversion of a perturbed identity


class InverseMap(JetMap):
    """y -> (phi + id)^{-1}(y) - y on the smaller domain, by fixed point.

    The first-order jet is assembled from the derivative identity
    D Inv = (D phi . QI(-D phi) - D phi) o (Inv + id), whose quasi-inverse
    appears with the sign pinned by the algebra relation.
    """

    def __init__(self, phi: JetMap, u: DomainSet, v: DomainSet, cfg: ContractionConfig):
        super().__init__(v, (phi.out_dim,), max_order=1)
        self.phi, self.u, self.v, self.cfg = phi, u, v, cfg
        self._cache: dict[bytes, tuple[np.ndarray, int, float]] = {}

    def solve(self, y) -> tuple[np.ndarray, int, float]:
        """Fixed point of x -> y - phi(x); returns (x, iterations, worst
        contraction ratio observed).  A batch of one of :meth:`solves`."""
        return self.solves(np.asarray(y, dtype=float)[None])[0]

    def solves(self, points) -> list[tuple[np.ndarray, int, float]]:
        """:meth:`solve` for every row of ``points``: one
        :func:`_fixed_points` pass over the uncached rows, so row ``i``
        carries the bits of a one-point iteration.  A failure is raised for
        the lowest-index failing row, with that row's index as ``row``;
        rows after it are not solved or cached, as a per-point loop would
        stop there."""
        points = np.asarray(points, dtype=float)
        keys = [y.tobytes() for y in points]
        rows = np.array([i for i, key in enumerate(keys) if key not in self._cache],
                        dtype=np.intp)
        x, iters, worst, errors = _fixed_points(
            points[rows], lambda xl, live: self.phi.tensors(xl, 0), self.u, self.cfg,
            np.arange(len(rows)),
        )
        solved = min(errors, default=len(rows))
        for k in range(solved):
            self._cache[keys[rows[k]]] = (x[k].copy(), int(iters[k]), float(worst[k]))
        if errors:
            errors[solved].row = int(rows[solved])
            raise errors[solved]
        return [self._cache[key] for key in keys]

    def tensors(self, points, ell):
        self._check_order(ell)
        xs = np.array([x for x, _, _ in self.solves(points)])
        if ell == 0:
            return xs - points
        a = self.phi.tensors(xs, 1)
        return matmul(a, quasi_inverses(-a)) - a


def _fixed_points(ys, evaluate, u: DomainSet, cfg: ContractionConfig, groups):
    """The fixed-point iteration x -> y - evaluate(x) of every row of
    ``ys``, all unfinished rows together.  ``evaluate(xl, live)`` gives the
    map's values at the iterates ``xl`` of the rows ``live``.  Each row has
    its own escape check on every iterate, stop test, iteration count and
    worst contraction ratio, so it carries the bits of a one-point
    iteration.

    Returns ``(x, iterations, worst ratio, errors)``; ``errors`` maps each
    failed row to its ContractionViolationError or IterationError.  Once a
    row fails, the rows of a later group (``groups`` is non-decreasing)
    stop: no error of theirs can come first."""
    stop = cfg.fix_tol * (1.0 - cfg.tau) / cfg.tau
    x = ys.copy()
    prev_inc = np.full(len(ys), np.nan)  # NaN: no previous increment
    worst = np.zeros(len(ys))
    iters = np.zeros(len(ys), dtype=int)
    live = np.arange(len(ys))  # rows still iterating
    errors: dict[int, WrpError] = {}
    for it in range(1, cfg.max_iters + 1):
        inside = u.members(x[live])
        if not inside.all():
            out = live[~inside]
            first = groups[out[0]]
            for k in out[groups[out] == first].tolist():
                errors[k] = ContractionViolationError(
                    f"iterate {x[k].tolist()} escaped the domain; a certificate is wrong"
                )
            live = live[inside & (groups[live] <= first)]
        if not len(live):
            break
        xl = x[live]
        x_next = ys[live] - evaluate(xl, live)
        inc = np.max(np.abs(x_next - xl), axis=1)
        prev = prev_inc[live]
        ratio = np.divide(inc, prev, out=np.zeros_like(inc), where=prev > 1e-14)
        # max(worst, ratio) as Python takes it: a NaN ratio is skipped
        worst[live] = np.where((prev > 1e-14) & (ratio > worst[live]), ratio, worst[live])
        x[live] = x_next
        iters[live] = it
        prev_inc[live] = inc
        live = live[~(inc <= stop)]
    for k in live.tolist():
        errors[k] = IterationError(
            f"no convergence within {cfg.max_iters} iterations at {ys[k].tolist()}"
        )
    return x, iters, worst, errors


def gated_inverse(
    phi: WeightedFunction, u: DomainSet, v: DomainSet, cfg: ContractionConfig
) -> InverseMap:
    """The inverse of phi + id on V, once V + ball(0, r) lies in U and phi
    carries certified unweighted bounds ("one", 1) < tau and ("one", 0) <
    (r/2)(1 - tau): the operator domain.  Every inversion check reads one
    such inverse, so each point is solved once for all of them."""
    ball_r = v.minkowski_sum(
        DomainSet(u.space, "ball", center=(0.0,) * u.dim, radius=cfg.r)
    )
    if not u.contains_set(ball_r):
        raise GeometryError("V + ball(0, r) is not contained in U")
    c11 = phi.require_bound("one", 1)
    c10 = phi.require_bound("one", 0)
    if not (c11 < cfg.tau and c10 < cfg.r / 2.0 * (1.0 - cfg.tau)):
        raise PreconditionError(
            f"not in the operator domain: |phi|_(1,1) = {c11} vs tau = {cfg.tau}, "
            f"|phi|_(1,0) = {c10} vs (r/2)(1-tau) = {cfg.r / 2 * (1 - cfg.tau)}"
        )
    return InverseMap(phi.map, u, v, cfg)


def invert_perturbed(
    phi: WeightedFunction,
    inv: InverseMap,
    grid_v: SampleGrid,
    weights: Sequence[Weight] = (),
) -> tuple[WeightedFunction, list[CheckReport]]:
    """Invert phi + id on V through its gated inverse ``inv``
    (:func:`gated_inverse`), with the residual, contraction and weighted
    value estimates on ``grid_v``."""
    cfg, c11 = inv.cfg, phi.require_bound("one", 1)
    result = WeightedFunction(inv, grid_v, 1)

    ys = grid_v.points
    solved = inv.solves(ys)
    xs = np.array([x for x, _, _ in solved])
    ratios = [ratio for _, _, ratio in solved]
    sup = lambda vals: np.max(np.abs(vals), axis=1)
    residuals = sup(xs + phi.map.tensors(xs, 0) - ys).tolist()
    sup_gap, sup_phi = sup(xs - ys), sup(phi.map.tensors(ys, 0))
    reports = [
        bound_report(
            "prop:Zsf_Inversion_gewAbb", max(residuals), 2.0 * cfg.fix_tol,
            tolerance=0.0, lhs_provenance=EXACT, rhs_provenance=EXACT,
            detail="right-inverse residual over the evaluation grid",
        ),
        bound_report(
            "prop:Zsf_Inversion_gewAbb", max(ratios) if ratios else 0.0,
            cfg.tau + 1e-9, tolerance=0.0,
            lhs_provenance=EXACT, rhs_provenance=EXACT,
            detail="observed contraction ratio of fixed-point increments",
        ),
    ]
    for w in weights:
        fy = np.abs(w.values(ys))
        reports.append(
            bound_rows(
                "est:Abschaetzung_gewichteter_FWert_der_K-Inversion",
                fy * sup_gap, fy * sup_phi / (1.0 - c11), tolerance=1e-9,
                lhs_provenance=EXACT, rhs_provenance=CERTIFIED_UPPER,
                witness=lambda k: tuple(ys[k].tolist()), detail=f"weight {w.name}",
            )
        )
    return result, reports


def inversion_pair_difference_check(
    phi: WeightedFunction,
    inv_phi: InverseMap,
    psi: WeightedFunction,
    diff: Certificates,
    grid_v: SampleGrid,
    weights: Sequence[Weight],
) -> CheckReport:
    """Weighted distance of two inverses against the certified bound built
    from the pair's certificates (``diff`` bounds phi - psi), merged over
    the weights: phi's gated inverse ``inv_phi`` against psi's on the same
    domains, each solved once for all of them."""
    check_id = "est:f0-norm_Diff_KoorInv"
    c_psi_11 = psi.require_bound("one", 1)
    c_phi_11 = phi.require_bound("one", 1)
    c_diff_11 = require_row(diff, "one", 1)
    rhs = [
        (c_diff_11 * phi.require_bound(w.name, 0) / (1.0 - c_phi_11)
         + require_row(diff, w.name, 0)) / (1.0 - c_psi_11)
        for w in weights
    ]
    ys = grid_v.points
    inv_psi = InverseMap(psi.map, inv_phi.u, inv_phi.v, inv_phi.cfg)
    gaps = inv_psi.tensors(ys, 0) - inv_phi.tensors(ys, 0)
    dist = np.max(np.abs(gaps), axis=1)
    reports = []
    for weight, rhs_w in zip(weights, rhs):
        with np.errstate(invalid="ignore"):
            gaps_w = np.abs(weight.values(ys)) * dist
        # the first largest positive gap; a NaN gap (an infinite weight
        # where the inverses agree) never exceeds another
        k = int(np.argmax(np.where(gaps_w > 0.0, gaps_w, 0.0)))
        lhs, witness = 0.0, ()
        if gaps_w[k] > 0.0:
            lhs, witness = float(gaps_w[k]), tuple(ys[k].tolist())
        reports.append(
            bound_report(
                check_id, lhs, rhs_w, tolerance=1e-9,
                lhs_provenance=GRID_LOWER, rhs_provenance=CERTIFIED_UPPER,
                witness=witness, detail=f"weight {weight.name}",
            )
        )
    return merge_min_margin(check_id, reports)


def inversion_direction_check(
    phi: WeightedFunction,
    base: InverseMap,
    direction: WeightedFunction,
    probes: np.ndarray,
) -> CheckReport:
    """Directional derivative of the inversion operator in its function
    argument against the closed form -(1 - QI(-D phi)) phi_1 composed with
    the inverse; the quasi-inverse sign is the one pinned by the algebra
    relation (see the operator-domain notes).

    The closed form is computed once, at the probes' fixed points of phi,
    which its gated inverse ``base`` solves.
    The inverses of phi +- t direction, for every step t the range check
    admits, are solved in one fixed-point pass: rows by step, probe and
    sign, each with its own shift c = +-t, and phi(x) + c direction(x)
    summed as ``SumMap([phi, ScaledMap(direction, c)])`` sums it.  A failed
    solve raises what a sweep of one step at a time raised: at the first
    admitted step with a failing solve, the error of the least (probe,
    map) in the order base, plus, minus.  Its ``row`` is the probe when
    that sweep took it from a whole-probe solve, and 0 when from the
    one-point replay of the probes before a failed one."""
    u, cfg = base.u, base.cfg
    c11 = phi.require_bound("one", 1)
    d11 = direction.require_bound("one", 1)
    c10 = phi.require_bound("one", 0)
    d10 = direction.require_bound("one", 0)
    probes = np.asarray(probes, dtype=float)
    steps = (0.05, 0.025, 0.0125, 0.00625)
    admitted = [t for t in steps
                if not (c11 + t * d11 >= cfg.tau or c10 + t * d10 >= cfg.r / 2 * (1 - cfg.tau))]
    errors: dict[float, float] = {}
    if admitted:
        if direction.map.out_shape != phi.map.out_shape or direction.map.dim != phi.map.dim:
            raise ShapeError("summands must share domain and codomain")
        try:
            x_star = np.array([x for x, _, _ in base.solves(probes)])
            base_error, n_probes = None, len(probes)
        except (ContractionViolationError, IterationError) as exc:
            # only a solve of the first step at an earlier probe comes first
            base_error, n_probes, admitted = exc, exc.row, admitted[:1]
        n_steps = len(admitted)
        ys = np.tile(np.repeat(probes[:n_probes], 2, axis=0), (n_steps, 1))
        shifts = np.repeat([[t, -t] for t in admitted], n_probes, axis=0).reshape(-1)
        groups = np.repeat(np.arange(n_steps), 2 * n_probes)
        xs, _, _, failed = _fixed_points(
            ys,
            lambda xl, live: (phi.map.tensors(xl, 0)
                              + shifts[live, None] * direction.map.tensors(xl, 0)),
            u, cfg, groups,
        )
        if failed or base_error is not None:
            step = min((int(groups[k]) for k in failed), default=0)
            rows = sorted(k for k in failed if groups[k] == step)
            if not rows:
                raise base_error
            k = rows[0]  # even rows are plus, odd rows minus
            whole = base_error is None and (k % 2 == 0 or all(j % 2 for j in rows))
            failed[k].row = (k - 2 * n_probes * step) // 2 if whole else 0
            raise failed[k]
        xs = xs.reshape(n_steps, n_probes, 2, -1)
        two_t = 2 * np.array(admitted)[:, None, None]
        fd = ((xs[:, :, 0] - probes) - (xs[:, :, 1] - probes)) / two_t
        a = phi.map.tensors(x_star, 1)
        dv = direction.map.tensors(x_star, 0)
        exact = -contract(np.eye(a.shape[1]) - quasi_inverses(-a), dv[:, None, :])
        errors = {t: max_deviation(np.abs(fd[s] - exact)) for s, t in enumerate(admitted)}
    # each quotient carries solver noise up to 2 fix_tol / (2t); below a few
    # times that floor the slope carries no information and the errors are
    # already at the achievable precision
    return derivative_convergence(
        "id:Ableitung_Inversion", errors, steps,
        exact_tol=max(EXACTNESS_TOL, 4.0 * cfg.fix_tol / min(steps)),
        detail="derivative in the operator argument;",
    )


def inversion_jacobian_check(inv: InverseMap, probes: np.ndarray) -> CheckReport:
    """The assembled first-order jet of the inverse ``inv`` against a
    central finite-difference Jacobian at probe points."""
    check_id = "id:Differential_der_inversen_Abb"
    # the stencils start with the probes, so the probes and then their
    # neighbours are solved in probe order, as one probe at a time would
    approx, outside = _fd_prefix(inv, probes, 1, None)
    n_in = len(approx[1])
    exact = inv.tensors(probes[:n_in + 1], 1)
    reports = [
        identity_report(check_id, dev, tolerance=1e-6, witness=tuple(float(c) for c in y))
        for y, dev in zip(probes, op_norms(exact[:n_in] - approx[1]).tolist())
    ]
    if outside is not None:
        raise outside
    return merge_min_margin(check_id, reports)
