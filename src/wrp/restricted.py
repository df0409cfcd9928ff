"""Finite-family restricted products and simultaneous operators.

A runtime family is a finite ordered index set with one weighted function
space per factor, all sharing one weight family over the disjoint union
of the factor domains.  Family seminorms are exact maxima of factor
values; the topology statements of the underlying theory become finite,
checkable assertions.  Simultaneous operators act factor by factor with
deterministic per-factor outputs, so restricting a scenario to a
sub-family reproduces the surviving factors bit for bit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .arith import matmul
from .errors import (
    DataError,
    PreconditionError,
    ShapeError,
    SpectralConditionError,
)
from .jets import (
    JetMap,
    MultilinearMap,
    MultilinearPairMap,
    PairMap,
    ScaledMap,
    difference_map,
    op_norms_of,
    opnorms_inf,
)
from .operators import (
    NEUMANN_TAIL,
    ContractionConfig,
    InverseMap,
    SuperpositionOperand,
    compose_perturbed,
    invert_perturbed,
    quasi_inverses,
    superpose,
    superpose_derivative_check,
)
from .report import (
    CERTIFIED_UPPER,
    EXACT,
    FAIL,
    GRID_LOWER,
    PASS,
    CheckReport,
    bound_report,
    bound_rows,
    identity_report,
    max_deviation,
    merge_min_margin,
    stacked_points,
)
from .seminorms import SampleGrid, WeightedFunction, weighted_seminorms
from .spaces import (
    DomainSet,
    DominanceCertificate,
    FactorizationCertificate,
    FamilyWeight,
)


@dataclass(frozen=True)
class FactorSpace:
    """Geometry of one family factor."""

    u: DomainSet
    grid_u: SampleGrid
    v: DomainSet | None = None
    w: DomainSet | None = None
    grid_w: SampleGrid | None = None
    v_tilde: DomainSet | None = None
    grid_vt: SampleGrid | None = None


@dataclass(frozen=True)
class RestrictedElement:
    """One element of the restricted product: a function per factor."""

    factors: tuple[WeightedFunction, ...]

    def __len__(self) -> int:
        return len(self.factors)

    def __getitem__(self, i: int) -> WeightedFunction:
        return self.factors[i]

    def scaled(self, c: float) -> "RestrictedElement":
        return RestrictedElement(tuple(
            WeightedFunction(ScaledMap(f.map, c), f.grid, f.max_order) for f in self.factors
        ))

    def minus(self, other: "RestrictedElement") -> "RestrictedElement":
        return RestrictedElement(
            tuple(
                WeightedFunction(
                    difference_map(a.map, b.map), a.grid, min(a.max_order, b.max_order)
                )
                for a, b in zip(self.factors, other.factors)
            )
        )


@dataclass(frozen=True)
class FamilySeminorm:
    weight_name: str
    ell: int
    value: float
    argmax: int
    witness: tuple[float, ...] | None


def family_seminorms(
    pairs: Sequence[tuple[RestrictedElement, FamilyWeight]], ell: int
) -> list[FamilySeminorm]:
    """The family seminorm of each (element, family weight) pair: the exact
    maximum of its per-factor grid seminorms, one sup over the disjoint
    union of the factor grids.  The first factor attaining it is the
    argmax, and its first grid point attaining it the witness.  All the
    pairs' factors take one :func:`weighted_seminorms` pass."""
    for elem, fw in pairs:
        if len(fw) != len(elem):
            raise DataError("weight family and element factor counts disagree")
    values = iter(weighted_seminorms(
        [wf for elem, _ in pairs for wf in elem.factors],
        [w for _, fw in pairs for w in fw.factors], ell))
    out = []
    for elem, fw in pairs:
        best, arg, witness = -1.0, 0, None
        for i, sv in zip(range(len(elem)), values):
            if sv.value > best:
                best, arg, witness = sv.value, i, sv.witness
        out.append(FamilySeminorm(fw.name, ell, best, arg, witness))
    return out


def family_seminorm(elem: RestrictedElement, fw: FamilyWeight, ell: int) -> FamilySeminorm:
    """:func:`family_seminorms` of a batch of one."""
    return family_seminorms([(elem, fw)], ell)[0]


def lipschitz_bound_check(
    family_map: Callable[[float], RestrictedElement],
    samples: Sequence[float],
    fw: FamilyWeight,
    ell: int,
    factor_lipschitz: Sequence[float],
    check_id: str = "lem:L-Stetigkeit_Abb_in_LinfProd",
) -> CheckReport:
    """Family Lipschitz bound: the family seminorm of A(s) - A(t) is at
    most (sup over factors of the certified factor constants) |s - t|."""
    if len(samples) < 2:
        raise PreconditionError("need at least two parameter samples")
    sup_l = max(factor_lipschitz)
    pairs = list(itertools.combinations(samples, 2))
    lhs = [fam.value for fam in family_seminorms(
        [(family_map(s).minus(family_map(t)), fw) for s, t in pairs], ell)]
    return bound_rows(
        check_id, lhs, [sup_l * abs(s - t) for s, t in pairs], tolerance=1e-9,
        lhs_provenance=GRID_LOWER, rhs_provenance=CERTIFIED_UPPER,
        witness=lambda k: pairs[k],
    )


def product_iso_roundtrip(
    elem: RestrictedElement,
    fw: FamilyWeight,
    ell: int,
) -> CheckReport:
    """Split a family of two-block-valued functions into two families and
    recombine: bit-exact round trip plus the two seminorm comparisons."""
    check_id = "lem:pktwProduktLInf"
    first, second = [], []
    for wf in elem.factors:
        blocks = wf.map.out_blocks
        if blocks is None or len(blocks) != 2:
            raise ShapeError("factor codomains are not declared products")
        from .seminorms import pair_split

        a, b = pair_split(wf)
        first.append(a)
        second.append(b)
    e1, e2 = RestrictedElement(tuple(first)), RestrictedElement(tuple(second))
    reports = []
    whole, p1, p2 = (fam.value for fam in family_seminorms([(elem, fw), (e1, fw), (e2, fw)], ell))
    # split is bounded by the combined seminorm, which is bounded by the sum
    reports.append(
        bound_report(
            check_id, max(p1, p2), whole, tolerance=0.0,
            lhs_provenance=GRID_LOWER, rhs_provenance=GRID_LOWER,
            detail="projections against the combined family seminorm",
        )
    )
    reports.append(
        bound_report(
            check_id, whole, p1 + p2, tolerance=0.0,
            lhs_provenance=GRID_LOWER, rhs_provenance=GRID_LOWER,
            detail="combination against the sum of part seminorms",
        )
    )
    for i, wf in enumerate(elem.factors):
        rec = PairMap([e1.factors[i].map, e2.factors[i].map])
        probes = wf.grid.points[:: max(1, len(wf.grid.points) // 4)]
        for order in range(min(ell, wf.max_order) + 1):
            if not np.array_equal(rec.tensors(probes, order), wf.map.tensors(probes, order)):
                reports.append(
                    identity_report(
                        check_id, math.inf, tolerance=0.0,
                        detail=f"recombination not bit-exact on factor {i}",
                    )
                )
    return merge_min_margin(check_id, reports)


def cauchy_limit_check(
    elements: Sequence[RestrictedElement],
    limit: RestrictedElement,
    fw: FamilyWeight,
    ell: int,
    increment_envelope: Callable[[int], float],
    tail_envelope: Callable[[int], float],
) -> CheckReport:
    """Cauchy increments below the declared envelope and convergence of
    the sequence to the closed-form limit at the envelope rate."""
    m = len(elements) - 1  # rows 0..m-1 are increments, then distances
    lhs = [fam.value for fam in family_seminorms(
        [(elements[n + 1].minus(elements[n]), fw) for n in range(m)]
        + [(e.minus(limit), fw) for e in elements], ell)]
    rhs = [increment_envelope(n) for n in range(m)]
    rhs += [tail_envelope(n) for n in range(len(elements))]
    return bound_rows(
        "lem:Linf_compl_wenn_Faktoren_c", lhs, rhs, tolerance=1e-12,
        lhs_provenance=GRID_LOWER, rhs_provenance=CERTIFIED_UPPER,
        witness=lambda k: (k if k < m else k - m,),
        detail=lambda k: "increment envelope" if k < m else "distance to the limit",
    )


# ---------------------------------------------------------------------------
# adjusting-weight neighborhoods


def neighborhood_inclusion_check(
    elem: RestrictedElement,
    omega: FamilyWeight,
    v_domains: Sequence[DomainSet],
    tau: float,
) -> CheckReport:
    """Elements with adjusted norm below tau map into tau-scaled value
    domains, with the worst-case perturbation radius of the proof route.
    Values, like the boundary distance, are measured in V's own norm.

    Fails with a witness when the containment chain is violated, which can
    only happen if the claimed adjusting weight is not one.
    """
    nu = family_seminorm(elem, omega, 0).value
    if not nu < tau:
        raise PreconditionError(
            f"family seminorm {nu} is not below tau = {tau}"
        )
    s = tau - nu
    lhs, rhs, member = [], [], []
    for i, (wf, w, v) in enumerate(zip(elem.factors, omega.factors, v_domains)):
        if not v.star_shaped_at_zero:
            raise PreconditionError(f"value domain {i} is not star-shaped at 0")
        d_i = v.boundary_distance(np.zeros(v.dim))
        vals = wf.map.tensors(wf.grid.points, 0)
        with np.errstate(divide="ignore"):
            lhs.append(v.space.norms(vals) + s / np.abs(w.values(wf.grid.points)))
        rhs.append(np.full(len(vals), tau * d_i))
        member.append(v.scaled(tau).members(vals))
    member = np.concatenate(member)
    witness = stacked_points([wf.grid.points for wf in elem.factors])
    rep = bound_rows(
        "incl:1-Kugel_f0-norm_sub_CFof", np.concatenate(lhs), np.concatenate(rhs),
        tolerance=1e-12, failed=~member, lhs_provenance=EXACT, rhs_provenance=EXACT,
        witness=witness,
        detail=lambda k: f"factor {witness(k)[0]}: worst perturbed value vs tau * d_i",
    )
    if rep.status == PASS and not member.all():  # the kept row is a non-member
        rep = replace(rep, status=FAIL, detail="scaled-domain membership violated")
    return rep


def neighborhood_openness_check(
    gamma: RestrictedElement,
    eta: RestrictedElement,
    omega: FamilyWeight,
    v_domains: Sequence[DomainSet],
    clearance: float,
) -> CheckReport:
    """If gamma has clearance r in the adjusted sense and eta is within r
    of gamma, eta keeps a positive adjusted clearance s = r - |eta-gamma|."""
    for i, (wf, w, v) in enumerate(zip(gamma.factors, omega.factors, v_domains)):
        vals = wf.map.tensors(wf.grid.points, 0)
        with np.errstate(divide="ignore"):
            needed = clearance / np.abs(w.values(wf.grid.points))
        inside = v.members(vals)
        if not inside.all() or (v.boundary_distances(vals) < needed).any():
            raise PreconditionError(
                f"base element lacks the claimed clearance on factor {i}"
            )
    nu = family_seminorm(eta.minus(gamma), omega, 0).value
    if not nu < clearance:
        raise PreconditionError(
            f"distance {nu} to the base element is not below the clearance"
        )
    s = clearance - nu
    lhs, rhs = [], []
    for wf, w, v in zip(eta.factors, omega.factors, v_domains):
        vals = wf.map.tensors(wf.grid.points, 0)
        inside = v.members(vals)
        dist = np.zeros(len(vals))
        dist[inside] = v.boundary_distances(vals[inside])
        with np.errstate(divide="ignore"):
            lhs.append(s / np.abs(w.values(wf.grid.points)))
        rhs.append(dist)
    witness = stacked_points([wf.grid.points for wf in eta.factors])
    return bound_rows(
        "lem:CFof_offen", np.concatenate(lhs), np.concatenate(rhs), tolerance=1e-12,
        lhs_provenance=EXACT, rhs_provenance=EXACT, witness=witness,
        detail=lambda k: f"factor {witness(k)[0]}: remaining adjusted clearance",
    )


# ---------------------------------------------------------------------------
# simultaneous operators (factor-wise, deterministic)


def sim_multiply(
    multipliers: Sequence[WeightedFunction],
    bilinears: Sequence[np.ndarray],
    x: RestrictedElement,
    f: FamilyWeight,
    cert: DominanceCertificate,
    gate: CheckReport,
) -> tuple[RestrictedElement, CheckReport]:
    """Factor-wise b_i(M_i, gamma_i), the two-slot multilinear pairing,
    with the family estimate against the dominating weight of the
    certificate; ``gate`` is the certificate's check on the grids
    (:func:`~wrp.spaces.check_dominance_certificate`), which must pass."""
    if gate.status != "pass":
        raise PreconditionError("dominance certificate fails on the grid")
    sup_b = float(op_norms_of([MultilinearMap(np.asarray(b, float), 1) for b in bilinears]).max())
    out = []
    for m_i, b_i, x_i in zip(multipliers, bilinears, x.factors):
        out.append(
            WeightedFunction(
                MultilinearPairMap(b_i, [m_i.map, x_i.map]),
                x_i.grid,
                min(m_i.max_order, x_i.max_order),
            )
        )
    result = RestrictedElement(tuple(out))
    lhs, x_norm = (fam.value for fam in family_seminorms([(result, f), (x, cert.g)], 0))
    rhs = sup_b * x_norm
    report = bound_report(
        "lem:simultane_mult-multiplier", lhs, rhs, tolerance=1e-9,
        lhs_provenance=GRID_LOWER, rhs_provenance=GRID_LOWER,
        detail="pointwise-transferred family bound",
    )
    return result, report


def sim_multilinear(
    betas: Sequence[np.ndarray],
    args: Sequence[RestrictedElement],
    f: FamilyWeight,
    factorization: FactorizationCertificate,
    grids: Sequence[np.ndarray],
) -> tuple[RestrictedElement, CheckReport]:
    """Factor-wise constant-multilinear superposition with the product
    bound over the factorized weights."""
    from .spaces import check_factorization_certificate

    gate = check_factorization_certificate(factorization, grids)
    if gate.status != "pass":
        raise PreconditionError("weight factorization fails on the grid")
    n = len(args)
    sup_b = float(op_norms_of([MultilinearMap(np.asarray(b, float), 1) for b in betas]).max())
    out = []
    for i, b_i in enumerate(betas):
        maps = [arg.factors[i].map for arg in args]
        grid = args[0].factors[i].grid
        order = min(arg.factors[i].max_order for arg in args)
        out.append(WeightedFunction(MultilinearPairMap(b_i, maps), grid, order))
    result = RestrictedElement(tuple(out))
    lhs, *arg_norms = (fam.value for fam in family_seminorms(
        [(result, f)] + [(args[j], factorization.parts[j]) for j in range(n)], 0))
    rhs = sup_b
    for a in arg_norms:
        rhs *= a
    report = bound_report(
        "lem:multilineareSuperpos-Linf", lhs, rhs, tolerance=1e-9,
        lhs_provenance=GRID_LOWER, rhs_provenance=GRID_LOWER,
        detail=f"{n}-linear family bound",
    )
    return result, report


def sim_superpose(
    ops: Sequence[SuperpositionOperand],
    x: RestrictedElement,
    f: FamilyWeight,
    g: FamilyWeight,
    omega: FamilyWeight,
    v_domains: Sequence[DomainSet],
    tau: float,
    directions: RestrictedElement | None = None,
) -> tuple[RestrictedElement, list[CheckReport]]:
    """Factor-wise superposition on an adjusted neighborhood.

    Emits the family-level bound against the dominating weight family and
    (when directions are supplied) the directional-derivative convergence
    check on the argmax factor; the per-factor estimates are the
    single-factor superposition's own checks.
    """
    gate = neighborhood_inclusion_check(x, omega, v_domains, tau)
    if gate.status != "pass":
        raise PreconditionError("element leaves the adjusted neighborhood")
    result = RestrictedElement(
        tuple(superpose(op, x_i)[0] for op, x_i in zip(ops, x.factors))
    )
    fam, x_fam = family_seminorms([(result, f), (x, g)], 0)
    reports = [
        bound_report(
            "prop:simultane_SP_BCinf0_Produkt", fam.value,
            x_fam.value, tolerance=1e-9,
            lhs_provenance=GRID_LOWER, rhs_provenance=GRID_LOWER,
            detail="family bound through the dominating weight",
        )
    ]
    if directions is not None:
        arg = fam.argmax
        reports.append(
            superpose_derivative_check(
                ops[arg], x.factors[arg], directions.factors[arg],
                check_id="lem:Abb_nach_Linf_Ck_wenn_Komp_Ck_mit_stetigem_Diff",
            )
        )
    return result, reports


class PointwiseQIMap(JetMap):
    """Value-level quasi-inversion of an operator-valued function."""

    def __init__(self, base: JetMap, op_dim: int):
        super().__init__(base.domain, (op_dim * op_dim,), max_order=0)
        self.base = base
        self.op_dim = op_dim

    def tensors(self, points, ell):
        self._check_order(ell)
        p = self.op_dim
        vals = self.base.tensors(points, 0)
        return quasi_inverses(vals.reshape(len(vals), p, p)).reshape(len(vals), -1)


def sim_power_series(
    x: RestrictedElement, op_dim: int, q: float
) -> tuple[RestrictedElement, CheckReport]:
    """Pointwise quasi-inversion across the family; the spectral bound q
    must hold at every grid point of every factor."""
    check_id = "lem:sim-SuperPos_QuasiInversion"
    if not q < 1.0:
        raise SpectralConditionError(f"certified bound q = {q} is not below 1")
    residuals = []
    out = []
    for i, wf in enumerate(x.factors):
        pts = wf.grid.points
        a = wf.map.tensors(pts, 0).reshape(len(pts), op_dim, op_dim)
        norms = opnorms_inf(a)
        over = np.flatnonzero(norms > q + 1e-12)
        # the points before a violating one are quasi-inverted first, so
        # their errors come first
        qi = quasi_inverses(a[:over[0]] if over.size else a)
        if over.size:
            k = int(over[0])
            norm_a = float(norms[k])
            return RestrictedElement(tuple(out)), CheckReport(
                check_id, FAIL, norm_a, q, q - norm_a, 0.0,
                EXACT, CERTIFIED_UPPER, (i,) + tuple(pts[k].tolist()),
                "spectral certificate violated",
            )
        residuals.append(opnorms_inf(a + qi - matmul(a, qi)))
        out.append(
            WeightedFunction(PointwiseQIMap(wf.map, op_dim), wf.grid, 0)
        )
    residuals = np.concatenate(residuals)
    return RestrictedElement(tuple(out)), bound_rows(
        check_id, residuals, np.full(len(residuals), 2.0 * NEUMANN_TAIL),
        tolerance=0.0, lhs_provenance=EXACT, rhs_provenance=EXACT,
        witness=stacked_points([wf.grid.points for wf in x.factors]),
    )


def sim_compose(
    gamma: RestrictedElement,
    eta: RestrictedElement,
    factors: Sequence[FactorSpace],
    omega: FamilyWeight,
    f: FamilyWeight,
    tau: float,
    directions: tuple[RestrictedElement, RestrictedElement] | None = None,
) -> tuple[RestrictedElement, list[CheckReport]]:
    """Factor-wise composition with the perturbed identity, guarded by the
    adjusted neighborhood of the perturbations."""
    v_domains = [fs.v for fs in factors]
    gate = neighborhood_inclusion_check(eta, omega, v_domains, tau)
    if gate.status != "pass":
        raise PreconditionError("perturbation leaves the adjusted neighborhood")
    result = RestrictedElement(tuple(
        compose_perturbed(gamma.factors[i], eta.factors[i], fs.u, fs.v, fs.w)[0]
        for i, fs in enumerate(factors)
    ))
    fam = family_seminorm(result, f, 0)
    reports = [
        bound_report(
            "prop:Simultane_Koor-Kompo_diffbar",
            fam.value,
            max(sv.value for sv in weighted_seminorms(result.factors, f.factors, 0)),
            tolerance=0.0,
            lhs_provenance=GRID_LOWER, rhs_provenance=GRID_LOWER,
            detail="family seminorm is the exact factor max",
        )
    ]
    if directions is not None:
        from .operators import compose_derivative_check

        arg = fam.argmax
        g_dir, e_dir = directions
        reports.append(
            compose_derivative_check(
                gamma.factors[arg], eta.factors[arg],
                factors[arg].u, factors[arg].v,
                g_dir.factors[arg].map, e_dir.factors[arg].map,
                check_id="prop:Simultane_Koor-Kompo_diffbar",
            )
        )
    return result, reports


def sim_invert(
    phi: RestrictedElement,
    factors: Sequence[FactorSpace],
    cfg: ContractionConfig,
    f: FamilyWeight,
    inverse: Callable[[int], InverseMap],
) -> tuple[RestrictedElement, list[CheckReport]]:
    """Factor-wise inversion with one shared contraction configuration;
    the family membership bounds use the same tau and r on every factor.
    Once they hold, ``inverse(i)`` gives factor i's gated inverse
    (:func:`~wrp.operators.gated_inverse`)."""
    c11 = max(wf.require_bound("one", 1) for wf in phi.factors)
    c10 = max(wf.require_bound("one", 0) for wf in phi.factors)
    if not (c11 < cfg.tau and c10 < cfg.r / 2 * (1 - cfg.tau)):
        raise PreconditionError(
            "family element is outside the shared operator domain"
        )
    results = []
    residuals = []
    for i, fs in enumerate(factors):
        res_i, (residual, _ratio) = invert_perturbed(phi.factors[i], inverse(i), fs.grid_vt)
        results.append(res_i)
        residuals.append(residual.lhs)
    result = RestrictedElement(tuple(results))
    reports = [
        bound_report(
            "prop:Simultane_Inv-Kompo_glatt", max(residuals), 2 * cfg.fix_tol,
            tolerance=0.0, lhs_provenance=EXACT, rhs_provenance=EXACT,
            detail="family right-inverse residual",
        ),
    ]
    # the derivative chain: pointwise quasi-inversion of -D phi, operator
    # multiplication, and composition with the inverse, checked against the
    # assembled first-order jets on the argmax factor
    arg = family_seminorm(result, f, 0).argmax
    inv_map = result.factors[arg].map
    ys = factors[arg].grid_vt.points[:: max(1, len(factors[arg].grid_vt) // 3)]
    x_star = np.array([x for x, _, _ in inv_map.solves(ys)])
    a = phi.factors[arg].map.tensors(x_star, 1)
    jet1 = inv_map.tensors(ys, 1)
    chain = matmul(a, quasi_inverses(-a)) - a
    chain_dev = max_deviation(np.abs(chain - jet1))
    reports.append(
        identity_report(
            "prop:Simultane_Inv-Kompo_glatt", chain_dev, tolerance=1e-12,
            detail="first-order jets agree with the derivative chain",
        )
    )
    return result, reports


def restrict_scenario_outputs(
    full: RestrictedElement,
    apply_fn: Callable[[Sequence[int]], RestrictedElement],
    sub_indices: Sequence[int],
) -> CheckReport:
    """Factor-restriction bit-identity: running on a sub-family reproduces
    the surviving factors of the full family's result exactly."""
    sub = apply_fn(list(sub_indices))
    dev = 0.0
    for j, i in enumerate(sub_indices):
        a, b = full.factors[i], sub.factors[j]
        pts = a.grid.points
        for order in range(min(1, a.max_order, b.max_order) + 1):
            if not np.array_equal(a.map.tensors(pts, order), b.map.tensors(pts, order)):
                dev = math.inf
    return identity_report(
        "sim:factor_restriction",
        dev,
        tolerance=0.0,
        detail=f"sub-family {list(sub_indices)} of {len(full)} factors",
    )
