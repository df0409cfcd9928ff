"""Check registry, seeded scenario generation and suite execution.

Every verifiable statement in scope has a frozen check id; the registry
maps each id to a plain-language statement and its hypothesis list, and
the canonical suite emits every id at least once per scenario, so
coverage is itself testable.  Scenario generation is pure in the seed:
identical seeds produce identical scenarios and byte-identical reports.
All certificates a generated scenario carries hold by construction
(coefficient arithmetic with enforced slack), so a generated run is
expected to pass; negative controls sabotage specific certificates on
purpose-built tight instances and must fail.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from dataclasses import asdict, dataclass, field, fields
from typing import Callable, Sequence

import numpy as np

from .arith import contract
from .errors import (
    ConfigError,
    DataError,
    GeometryError,
    PreconditionError,
    ShapeError,
    WrpError,
)
from .jets import (
    ComposeMap,
    ConstMap,
    DifferentialMap,
    JetMap,
    MultilinearMap,
    PairMap,
    PairedDerivativeMap,
    PartialD2Map,
    PolynomialMap,
    ScaledMap,
    SumMap,
    _axis_sups,
    _entry_bounds,
    _poly_plan,
    _poly_tensors,
    _row_sum_max,
    crude_partial2_sup,
    crude_sup_bound,
    crude_sup_bounds,
    fd_tensors,
    linear2_identities_check,
    map_from_desc,
    map_to_desc,
    op_norms,
    xi2_build,
    xi2_pointwise_check,
)
from .operators import (
    ContractionConfig,
    SuperpositionOperand,
    compose_derivative_check,
    compose_perturbed,
    derivative_convergence,
    gated_inverse,
    inversion_direction_check,
    inversion_jacobian_check,
    inversion_pair_difference_check,
    invert_perturbed,
    quasi_inverse_report,
    superpose,
    superpose_derivative_check,
    weak_integral,
)
from .report import (
    CERTIFIED_UPPER,
    EXACT,
    FAIL,
    GRID_LOWER,
    PASS,
    SKIPPED,
    CheckReport,
    bound_report,
    bound_rows,
    deviation,
    identity_report,
    max_deviation,
    merge_min_margin,
    skipped_report,
)
from .restricted import (
    FactorSpace,
    RestrictedElement,
    cauchy_limit_check,
    family_seminorms,
    lipschitz_bound_check,
    neighborhood_inclusion_check,
    neighborhood_openness_check,
    product_iso_roundtrip,
    restrict_scenario_outputs,
    sim_compose,
    sim_invert,
    sim_multilinear,
    sim_multiply,
    sim_power_series,
    sim_superpose,
)
from .seminorms import (
    Certificates,
    SampleGrid,
    WeightedFunction,
    decomposition_checks,
    lattice,
    norm_comparison_1U,
    pair_split_check,
    require_row,
    seminorm_axioms_check,
    weighted_seminorms,
)
from .spaces import (
    SUP,
    DomainSet,
    DominanceCertificate,
    FactorizationCertificate,
    FamilyWeight,
    Weight,
    WeightFamily,
    ball,
    box,
    check_adjusting_weight,
    check_dominance_certificate,
    const_weight,
    gaussian_weight,
    product_box,
    scaled_weight,
    two_plus_sin_weight,
    weight_from_desc,
    weight_to_desc,
)

# ---------------------------------------------------------------------------
# check registry: one frozen id per verified statement


@dataclass(frozen=True)
class CheckInfo:
    statement: str
    hypotheses: tuple[str, ...]
    runner: str


CHECK_REGISTRY: dict[str, CheckInfo] = {
    # weights and weight conditions
    "cond:adjusting_weight": CheckInfo(
        "The designated weight has a finite certified sup on every factor and "
        "its modulus stays at or above max(1/r_i, 1) at every factor grid point.",
        ("certified sup per factor", "radii r_i of the target sets"),
        "weights",
    ),
    "cond:est_sim-multiplier_weights": CheckInfo(
        "For each base weight and order, the multiplier family's certified "
        "derivative sup times the base weight is dominated pointwise by the "
        "declared weight on every factor grid.",
        ("dominance certificate with per-factor constants",),
        "weights",
    ),
    "cond:est_SP-Abb_weights": CheckInfo(
        "For each base weight and positive order, the two-variable map "
        "family's certified unweighted seminorm times the base weight is "
        "dominated pointwise by the declared weight.",
        ("dominance certificate with per-factor constants",),
        "weights",
    ),
    "cond:est_weights_SP": CheckInfo(
        "Single-factor version of the superposition weight condition.",
        ("dominance certificate restricted to one factor",),
        "weights",
    ),
    "lem:glm_beschraenkte_Abb-Multiplier": CheckInfo(
        "Uniform derivative bounds produce dominating weights by scaling: "
        "K times the base weight dominates the required products.",
        ("uniform constants K_l over the family",),
        "weights",
    ),
    # seminorm structure
    "def:weighted_seminorm": CheckInfo(
        "Weighted sup-seminorms are absolutely homogeneous (to 1e-12) and "
        "satisfy the triangle inequality on shared grids.",
        (),
        "seminorms",
    ),
    "lem:topologische_Zerlegung_von_CFk": CheckInfo(
        "The order-(l+1) seminorm of a map equals the order-l seminorm of "
        "its differential exactly on the same grid.",
        ("one order of differentiability headroom",),
        "seminorms",
    ),
    "prop:Zerlegungssatz_Familie": CheckInfo(
        "The family version of the reduction identity: family seminorm of "
        "order l+1 equals the family seminorm of the differentials at order l.",
        ("one order of headroom on every factor",),
        "seminorms",
    ),
    "lem:gewichtete_Abb_Produktisomorphie-endl": CheckInfo(
        "Splitting a product-codomain map into components preserves the "
        "seminorm as a max and recombines bit-exactly.",
        ("declared two-block codomain",),
        "seminorms",
    ),
    "lem:CinfLinf_initial_CkLinf": CheckInfo(
        "A seminorm value of order l does not depend on the declared "
        "maximal order of the carrier.",
        (),
        "seminorms",
    ),
    "lem:est_1-0-norm_f-0-norm": CheckInfo(
        "Pointwise, the unweighted distance of two maps is bounded by the "
        "weighted distance divided by the weight value.",
        ("weight nonvanishing",),
        "seminorms",
    ),
    "est:1-0-norm_f-0-norm_spezielles-f": CheckInfo(
        "If inf |f| >= max(1/d, 1) then the unweighted distance is at most "
        "min(d, 1) times the f-weighted distance.",
        ("certified inf of the weight at or above max(1/d, 1)",),
        "seminorms",
    ),
    "bem:konstantes-1-Gew_adjust-weight": CheckInfo(
        "A weight with certified positive inf c makes the constant-one "
        "seminorms continuous: they are bounded by (1/c) times the weighted ones.",
        ("certified inf of the weight",),
        "seminorms",
    ),
    # jets and linear-in-second-argument structure
    "def:directional_derivative": CheckInfo(
        "Coded derivative tensors agree with central differences, with "
        "second-order convergence in the step.",
        (),
        "jets",
    ),
    "id:Ableitung_Abb_linear_2Arg": CheckInfo(
        "For a map linear in its second argument, the curve derivative of "
        "the iterated first-block partial splits into a shift term and a "
        "contraction of the next partial; the partial vanishes at zero.",
        ("linearity in the second argument",),
        "jets",
    ),
    "est:norm_l-te_Ableitung-Abb_linear_2Arg": CheckInfo(
        "The full order-l derivative norm is bounded by l times the mixed "
        "partial of order l-1 plus the mixed partial of order l times |y|.",
        ("linearity in the second argument",),
        "jets",
    ),
    "est:Abb_linear_2Arg-Spezialfall-hohes_Diff--partiell": CheckInfo(
        "In the factored form b(g(x), y), the mixed partial norm is bounded "
        "by |b| times the derivative norm of the factor map.",
        ("factored form through a bilinear pairing",),
        "jets",
    ),
    "est:Abb_linear_2Arg-Spezialfall-hohes_Diff": CheckInfo(
        "In the factored form, the full derivative norm is bounded by "
        "|b| (l |D^(l-1) g| + |y| |D^l g|).",
        ("factored form through a bilinear pairing",),
        "jets",
    ),
    "lem:Abschaetzung_hoheDiffs_Spezialfall-linArg": CheckInfo(
        "The paired-derivative auxiliary map vanishes at e = 0 and its "
        "order-l derivative norm is bounded by l times the base order-l "
        "norm plus |e| times the order-(l+1) norm.",
        ("pairing norm at most one",),
        "jets",
    ),
    "est:Differential-MaMu_hohes_Diff_1-l-Norm": CheckInfo(
        "On a bounded slab in the operator slot, the unweighted seminorm of "
        "the auxiliary map is bounded by l times the base seminorm plus the "
        "slab radius times the next-order seminorm.",
        ("certified base seminorms of orders l and l+1",),
        "jets",
    ),
    # parameter-dependent integrals
    "lem:Stetigkeit_parameterab_Int": CheckInfo(
        "The two-point difference of the superposition kernel equals the "
        "mean-value integral of its second-block partial, evaluated by "
        "composite Simpson quadrature.",
        ("segment inside the value domain",),
        "integrals",
    ),
    # superposition
    "prop:SuperpostionCWZweiVars-id": CheckInfo(
        "The superposition operator is defined: values match the kernel, "
        "the zero section maps to zero, and the zero argument gives the "
        "zero result.",
        ("kernel vanishing on the zero section", "argument values inside the range set"),
        "superpose",
    ),
    "est:f0-Norm_SPid": CheckInfo(
        "The weighted order-0 seminorm of the superposition is bounded by "
        "the certified sup of the second-block partial times the certified "
        "weighted seminorm of the argument.",
        ("certified kernel and argument bounds",),
        "superpose",
    ),
    "est:f0-Norm_SPid-Differenz": CheckInfo(
        "The weighted distance of two superpositions is bounded by the "
        "certified partial sup times the certified weighted distance of the "
        "arguments.",
        ("segment of arguments inside the range set",),
        "superpose",
    ),
    "est:f1-Norm_SPid": CheckInfo(
        "The weighted order-1 seminorm of the superposition is bounded by "
        "the certified order-2 kernel seminorm times the order-0 argument "
        "bound plus the partial sup times the order-1 argument bound.",
        ("certified kernel and argument bounds",),
        "superpose",
    ),
    "id:Differential_SuperposCWZweiVars-id": CheckInfo(
        "Symmetric difference quotients of the superposition converge at "
        "second order to the second-block partial applied to the direction.",
        ("argument segment inside the range set",),
        "superpose",
    ),
    # composition
    "prop:Kompo_Koord_glatt": CheckInfo(
        "Composition with a perturbed identity is defined; the zero "
        "perturbation reproduces the map bit for bit.",
        ("V + U inside W", "balanced perturbation range"),
        "compose",
    ),
    "est:Funktionswerte_Gewicht_K-Kompo": CheckInfo(
        "Pointwise, the weighted composed value is bounded by the weight "
        "times (certified Lipschitz bound times the perturbation plus the "
        "unperturbed value).",
        ("certified unweighted order-1 bound of the outer map",),
        "compose",
    ),
    "est:f,0-Norm_Differenz_Kompo": CheckInfo(
        "The weighted distance of two compositions is bounded by the three "
        "certified terms: outer Lipschitz times perturbation distance, "
        "outer distance (order 1) times perturbation size, and the outer "
        "weighted distance.",
        ("certified bounds for both pairs and their differences",),
        "compose",
    ),
    "id:Ableitung_Kompo": CheckInfo(
        "The derivative of composition splits into the differential "
        "composed term applied to the perturbation direction plus the "
        "composed outer direction, with second-order difference quotients.",
        (),
        "compose",
    ),
    # inversion
    "prop:Zsf_Inversion_gewAbb": CheckInfo(
        "Inversion of the perturbed identity: fixed points exist inside the "
        "large domain, residuals stay below twice the tolerance and the "
        "observed contraction ratio stays below tau.",
        ("operator-domain certificates", "V + ball(0, r) inside U", "convex U"),
        "invert",
    ),
    "est:Abschaetzung_gewichteter_FWert_der_K-Inversion": CheckInfo(
        "Pointwise, the weighted inverse displacement is bounded by the "
        "weighted perturbation value over one minus the certified "
        "order-1 bound.",
        ("certified unweighted order-1 bound below one",),
        "invert",
    ),
    "est:f0-norm_Diff_KoorInv": CheckInfo(
        "The weighted distance of two inverses is bounded by the certified "
        "pair expression with both contraction denominators.",
        ("certified bounds for both operators and their difference",),
        "invert",
    ),
    "id:Ableitung_Inversion": CheckInfo(
        "The directional derivative of inversion in its operator argument "
        "matches the closed form built from the quasi-inverse of the "
        "negated differential (the sign fixed by the algebra relation), "
        "with second-order quotients.",
        ("perturbed operators stay in the operator domain",),
        "invert",
    ),
    "id:Differential_der_inversen_Abb": CheckInfo(
        "The assembled first-order jet of the inverse agrees with a central "
        "finite-difference Jacobian at probe points within 1e-6.",
        (),
        "invert",
    ),
    "qi:neumann_relation": CheckInfo(
        "The truncated Neumann quasi-inverse satisfies "
        "a + QI(a) - a QI(a) = 0 within twice the tail tolerance.",
        ("certified operator norm below one",),
        "invert",
    ),
    # restricted products
    "def:family_seminorm": CheckInfo(
        "Family seminorms are exact maxima of factor values, invariant "
        "under factor permutation and under adjoining zero factors.",
        (),
        "family",
    ),
    "lem:L-Stetigkeit_Abb_in_LinfProd": CheckInfo(
        "A family map with uniformly certified factor Lipschitz constants "
        "is Lipschitz for the family seminorms with the sup constant.",
        ("per-factor Lipschitz certificates",),
        "family",
    ),
    "lem:L-Stetigkeit_Abb_in_LinfProd-gewAbb": CheckInfo(
        "Weighted version of the family Lipschitz criterion.",
        ("per-factor Lipschitz certificates",),
        "family",
    ),
    "lem:pktwProduktLInf": CheckInfo(
        "The family of products splits into the product of families: "
        "projections are bounded by the combined seminorm, the combination "
        "by the sum, and the round trip is bit-exact.",
        ("declared product codomains",),
        "family",
    ),
    "lem:Linf_compl_wenn_Faktoren_c": CheckInfo(
        "A closed-form Cauchy sequence stays below its declared increment "
        "envelope and converges to its closed-form limit at the envelope rate.",
        ("closed-form sequence rule with envelope",),
        "family",
    ),
    "lem:Abb_nach_Linf_Ck_wenn_Komp_Ck_mit_stetigem_Diff": CheckInfo(
        "The family directional derivative is the family of factor "
        "derivatives: difference quotients at the argmax factor converge to "
        "the factor formula.",
        (),
        "sim",
    ),
    "lem:m-lin_Abb_glm_stetig->Prod_stetig": CheckInfo(
        "A family of multilinear maps with uniformly bounded norms maps "
        "into the restricted product with the product bound.",
        ("uniform bound on the factor operator norms",),
        "family",
    ),
    "lem:CFof_offen": CheckInfo(
        "Around an element with adjusted clearance r, every element within "
        "r keeps positive adjusted clearance (openness).",
        ("base element clearance verified on the grid",),
        "family",
    ),
    "incl:1-Kugel_f0-norm_sub_CFof": CheckInfo(
        "Elements with adjusted seminorm below tau take values in the "
        "tau-scaled target sets, with the worst-case perturbation radius.",
        ("adjusting weight for the target sets", "star-shaped targets"),
        "family",
    ),
    # simultaneous operators
    "lem:simultane_mult-multiplier": CheckInfo(
        "Simultaneous multiplication is bounded: the weighted family "
        "seminorm of the products is at most the uniform bilinear bound "
        "times the dominating-weight seminorm of the argument.",
        ("dominance certificates for the multiplier family",),
        "sim",
    ),
    "lem:multilineareSuperpos-Linf": CheckInfo(
        "Simultaneous multilinear superposition is bounded through the "
        "factorized weights.",
        ("pointwise weight factorization on the grids",),
        "sim",
    ),
    "prop:simultane_SP_BCinf0_Produkt": CheckInfo(
        "Simultaneous superposition maps the adjusted neighborhood into the "
        "restricted product with the dominating-weight bound.",
        ("adjusted neighborhood", "dominance certificates"),
        "sim",
    ),
    "lem:vergleich_Bedingungen_simultane-multiplier_simu-Supo": CheckInfo(
        "Certificates for the differentials transfer to the restricted "
        "directional-derivative maps: l K_(l-1) + R K_l bounds the slab "
        "seminorm of order l.",
        ("certificates for the differential family",),
        "sim",
    ),
    "cor:simultane_SP_BCinf0_einfach": CheckInfo(
        "Superposition with uniformly bounded one-variable maps fixing zero "
        "is bounded with the uniform constants.",
        ("uniform derivative bounds over the family", "zero fixed"),
        "sim",
    ),
    "lem:sim-SuperPos_QuasiInversion": CheckInfo(
        "Pointwise quasi-inversion across the family: the spectral bound "
        "holds everywhere and every value satisfies the algebra relation "
        "within twice the tail tolerance.",
        ("certified spectral bound below one",),
        "sim",
    ),
    "prop:Simultane_Koor-Kompo_diffbar": CheckInfo(
        "Simultaneous composition with perturbed identities is defined on "
        "the adjusted neighborhood; the family seminorm is the exact factor "
        "max and difference quotients match the factor derivative formula.",
        ("per-factor geometry V_i + U_i inside W_i", "adjusted neighborhood"),
        "sim",
    ),
    "prop:Simultane_Inv-Kompo_glatt": CheckInfo(
        "Simultaneous inversion with one shared tau and r: family residuals "
        "stay below twice the tolerance and the first-order jets agree with "
        "the derivative chain through the pointwise quasi-inverse.",
        ("shared operator-domain certificates", "per-factor geometry"),
        "sim",
    ),
    "sim:factor_restriction": CheckInfo(
        "Simultaneous operators commute with factor restriction: running a "
        "sub-family reproduces the surviving factors bit for bit.",
        (),
        "sim",
    ),
}

ALL_CHECK_IDS: tuple[str, ...] = tuple(CHECK_REGISTRY)


# ---------------------------------------------------------------------------
# scenario model


@dataclass(frozen=True)
class ScenarioSeed:
    seed: int
    max_dim: int = 2
    max_factors: int = 4


# The version of the scenario schema, carried by every scenario file and
# report.json; a file of any other version is rejected at /schema_version.
SCHEMA_VERSION = 2


def _sampled_on(grid: str, reads=(), headroom: int = 0, first: bool = False):
    """An element field whose factor i is sampled on factor i's ``grid_u``
    (``"u"``) or ``grid_w`` (``"w"``) lattice; ingest checks the jets of
    every element against finite differences.  ``reads`` are the (weight,
    order) rows the checks read of each stored factor, and the checks
    differentiate each factor ``headroom`` orders past the highest of
    them.  A ``first`` field is stored for factor 0 only, the one factor
    the checks read."""
    return field(metadata={"grid": grid, "reads": reads, "headroom": headroom, "first": first})


def _reads(*keys, rows: tuple[str, str] = (), first: bool = False):
    """A field of which the checks read ``keys``; ``rows`` names the two
    elements whose difference the field's per-factor certified rows
    bound, stored for factor 0 only if ``first``."""
    return field(metadata={"reads": keys, "rows": rows, "first": first})


_ONE_GAUSS_0 = (("one", 0), ("gauss", 0))


@dataclass(frozen=True)
class FamilyScenario:
    """Everything one suite run needs: geometry, weights, certificates and
    the per-factor operator data.  The ``_sampled_on`` fields, in
    declaration order, are the ``elements`` of the scenario JSON schema.
    A ``rows`` field holds, per factor, the certified rows that bound the
    difference of two elements' factors, a map no check evaluates; it is a
    top-level list of the schema.  A ``first`` field holds factor 0 only
    (:data:`FIRST_FACTOR_ONLY`).  Dominance and factorization certificates
    name the members of ``weights`` they are about.

    The ``reads`` of a field are the certificates the checks read of it,
    stated once: the generator writes exactly these, ingest requires each
    and the runners look a row up with ``require_row``.  They are the
    (weight, order) rows of every stored factor of an element or
    difference, the orders of the ``xis`` ``sup_1`` rows and of
    ``sigma_k``, the members of the weight family, and the (context,
    weight, order) of the dominance and (weight,) of the factorization
    certificates the runners select; a key shorter than an entry's matches
    every entry it starts."""

    name: str
    dim: int
    factors: tuple[FactorSpace, ...]
    weights: WeightFamily = _reads(("one",), ("gauss",), ("omega",))
    tau_nb: float
    clearance_nb: float
    xis: tuple[SuperpositionOperand, ...] = _reads((1,), (2,), (3,))
    gammas: RestrictedElement = _sampled_on("u", _ONE_GAUSS_0 + (("one", 1), ("gauss", 1)))
    gamma_alts: RestrictedElement = _sampled_on("u")
    gamma_diffs: tuple[Certificates, ...] = _reads(*_ONE_GAUSS_0, rows=("gammas", "gamma_alts"))
    gamma_dirs: RestrictedElement = _sampled_on("u")
    # the reduction identity compares its order-2 seminorm with order 1 of its differential
    comp_gammas: RestrictedElement = _sampled_on("w", (("one", 1),), headroom=1)
    comp_etas: RestrictedElement = _sampled_on("u")
    # the seminorm axioms read its order-1 seminorm
    comp_gamma0s: RestrictedElement = _sampled_on("w", headroom=1, first=True)
    comp_eta0s: RestrictedElement = _sampled_on("u", _ONE_GAUSS_0, first=True)
    comp_gamma_diffs: tuple[Certificates, ...] = _reads(
        *_ONE_GAUSS_0, ("one", 1), rows=("comp_gammas", "comp_gamma0s"), first=True)
    comp_eta_diffs: tuple[Certificates, ...] = _reads(
        *_ONE_GAUSS_0, rows=("comp_etas", "comp_eta0s"), first=True)
    comp_gamma_dirs: RestrictedElement = _sampled_on("w")
    comp_eta_dirs: RestrictedElement = _sampled_on("u")
    phis: RestrictedElement = _sampled_on("u", (("one", 0), ("one", 1), ("gauss", 0)))
    psis: RestrictedElement = _sampled_on("u", (("one", 1),), first=True)
    phi_diffs: tuple[Certificates, ...] = _reads(
        *_ONE_GAUSS_0, ("one", 1), rows=("phis", "psis"), first=True)
    phi_dirs: RestrictedElement = _sampled_on("u", (("one", 0), ("one", 1)), first=True)
    multipliers: RestrictedElement = _sampled_on("u")
    bilinears: tuple[np.ndarray, ...]
    beta2s: tuple[np.ndarray, ...]
    ml_args1: RestrictedElement = _sampled_on("u")
    ml_args2: RestrictedElement = _sampled_on("u")
    sigmas: tuple[JetMap, ...]
    sigma_k: tuple[tuple[int, float], ...] = _reads((1,))
    op_gammas: RestrictedElement = _sampled_on("u")
    op_q: float
    dominance: tuple[DominanceCertificate, ...] = _reads(
        ("multiplier", "gauss", 0), ("sp", "gauss", 1), ("uniform-k",))
    factorizations: tuple[FactorizationCertificate, ...] = _reads(("gauss",))
    contraction: ContractionConfig

    @property
    def n_factors(self) -> int:
        return len(self.factors)

    def fw(self, name: str) -> FamilyWeight:
        return self.weights.member(name)


ELEMENT_GRIDS: dict[str, str] = {
    f.name: f.metadata["grid"] for f in fields(FamilyScenario) if "grid" in f.metadata
}
# the least max_order of an element: its highest row order plus its headroom
MIN_ORDER: dict[str, int] = {
    f.name: max((ell for _, ell in f.metadata["reads"]), default=0) + f.metadata["headroom"]
    for f in fields(FamilyScenario) if "grid" in f.metadata
}
READS: dict[str, tuple[tuple, ...]] = {
    f.name: f.metadata["reads"] for f in fields(FamilyScenario) if "reads" in f.metadata
}
# the difference fields, each with the two elements it is the difference of
DIFFERENCE_ROWS: dict[str, tuple[str, str]] = {
    f.name: f.metadata["rows"] for f in fields(FamilyScenario) if f.metadata.get("rows")
}
# the fields stored for factor 0 only
FIRST_FACTOR_ONLY: frozenset[str] = frozenset(
    f.name for f in fields(FamilyScenario) if f.metadata.get("first")
)


def n_stored(key: str, n_factors: int) -> int:
    """How many factors of the field ``key`` a scenario of ``n_factors``
    stores: factor 0 only for a ``first`` field, else all of them."""
    return 1 if key in FIRST_FACTOR_ONLY else n_factors


# ---------------------------------------------------------------------------
# scenario generation


def _monomials(dim: int, degree: int):
    return [
        p
        for p in itertools.product(range(degree + 1), repeat=dim)
        if 1 <= sum(p) <= degree
    ]


@dataclass(frozen=True)
class _Draw:
    """A random polynomial before its rescale to ``target``."""

    domain: DomainSet
    terms: tuple
    target: float
    in_blocks: tuple[int, int] | None


def _draw_poly(
    rng: np.random.Generator,
    domain: DomainSet,
    out_dim: int,
    degree: int,
    target_sup: float,
    n_terms: int = 3,
    in_blocks=None,
    y_block: tuple[int, int] | None = None,
) -> _Draw:
    """The random terms of a polynomial that :func:`_rescaled` scales so
    its crude value bound is the target.  With ``y_block = (start,
    width)`` every term has positive degree in that block (so the map
    vanishes on the zero section)."""
    pool = _monomials(domain.dim, degree)
    if y_block is not None:
        s, w = y_block
        pool = [p for p in pool if sum(p[s:s + w]) >= 1]
    idx = rng.choice(len(pool), size=min(n_terms, len(pool)), replace=False)
    terms = tuple(
        (rng.uniform(-1.0, 1.0, size=out_dim), pool[i]) for i in np.sort(idx)
    )
    return _Draw(domain, terms, target_sup, in_blocks)


def _rescaled(draws: Sequence[_Draw]) -> list[PolynomialMap]:
    """Each drawn polynomial, built once with its coefficients scaled so
    that its crude value bound is its target: one order-0 kernel pass over
    the drawn terms, with absolute coefficients at each box's corner."""
    ents = _poly_tensors(
        [(_poly_plan(np.abs([c for c, _ in d.terms]), tuple(p for _, p in d.terms), 0),
          _axis_sups(d.domain)[None]) for d in draws], 0)
    maps = []
    for d, e in zip(draws, ents):
        b0 = _row_sum_max(e[0][:, None])
        factor = d.target / b0 if b0 > 0 else 1.0
        maps.append(PolynomialMap(
            d.domain, [(factor * c, p) for c, p in d.terms], in_blocks=d.in_blocks))
    return maps


def _crude_bounds(requests) -> dict[tuple[int, int], float]:
    """:func:`crude_sup_bound` of every (map, order) of ``requests``, keyed
    by (id of the map, order): one stacked pass per order."""
    maps_at: dict[int, dict[int, JetMap]] = {}
    for map_, ell in requests:
        maps_at.setdefault(ell, {})[id(map_)] = map_
    out = {}
    for ell, maps in maps_at.items():
        out.update(zip([(k, ell) for k in maps], crude_sup_bounds(list(maps.values()), ell)))
    return out


def generate_scenario(seed: int | ScenarioSeed) -> FamilyScenario:
    """Deterministic scenario from a seed; every certificate it carries
    holds by construction with real slack.

    Every random value is drawn first, in the order of one stream; the
    polynomials are then built once each and certified in stacked bound
    passes, one per order."""
    spec = seed if isinstance(seed, ScenarioSeed) else ScenarioSeed(int(seed))
    rng = np.random.default_rng(spec.seed)
    if spec.seed == 0:
        # the documented canonical scenario: one dimension, two factors
        dim, n = 1, 2
    else:
        dim = 1 if spec.max_dim == 1 else int(rng.choice([1, 1, 1, 2]))
        n = int(rng.integers(2, max(3, min(spec.max_factors, 8)) + 1))
    tau, tau_nb = 0.5, 0.4
    clearance_nb = 0.15 * tau_nb

    factors = []
    v_radii = []
    for i in range(n):
        s_i = float(rng.uniform(0.8, 1.4))
        rho_i = float(rng.uniform(0.5, 1.2))
        u = box([-s_i] * dim, [s_i] * dim)
        v = ball([0.0] * dim, rho_i)
        w = box([-(s_i + rho_i) * 1.05] * dim, [(s_i + rho_i) * 1.05] * dim)
        vt = box([-0.25 * s_i] * dim, [0.25 * s_i] * dim)
        per_axis = 9 if dim == 1 else 5
        factors.append(
            FactorSpace(
                u=u,
                grid_u=lattice(u, per_axis=per_axis),
                v=v,
                w=w,
                grid_w=lattice(w, per_axis=per_axis),
                v_tilde=vt,
                grid_vt=lattice(vt, per_axis=max(5, per_axis - 4)),
            )
        )
        v_radii.append(rho_i)
    r_shared = 0.5 * min(f.u.hi[0] for f in factors)

    # weight family on the disjoint union: one, gauss, gauss_half, omega
    a_g = float(rng.uniform(0.3, 0.9))
    ones, gs, ghs, oms = [], [], [], []
    omega_scales = []
    for i, fs in enumerate(factors):
        ones.append(const_weight("one", 1.0))
        gs.append(gaussian_weight("gauss", a_g, fs.u))
        ghs.append(gaussian_weight("gauss_half", a_g / 2.0, fs.u))
        c_i = max(1.0 / v_radii[i], 1.0) * float(rng.uniform(1.0, 1.3))
        omega_scales.append(c_i)
        u_dir = rng.uniform(-1.0, 1.0, size=dim)
        oms.append(two_plus_sin_weight("omega", u_dir, scale=c_i))
    family = WeightFamily(
        (
            FamilyWeight("one", tuple(ones)),
            FamilyWeight("gauss", tuple(gs)),
            FamilyWeight("gauss_half", tuple(ghs)),
            FamilyWeight("omega", tuple(oms)),
        ),
    )

    draws: list[_Draw] = []

    def draw(*args, **kwargs) -> int:
        draws.append(_draw_poly(rng, *args, **kwargs))
        return len(draws) - 1

    # per element field, the (draw, max order) of each factor
    drawn: dict[str, list[tuple[int, int]]] = {k: [] for k in ELEMENT_GRIDS}
    # superposition kernels and their arguments
    xi_draws = []
    for i, fs in enumerate(factors):
        xi_draws.append(draw(
            product_box(fs.u, fs.v), dim, 3, float(rng.uniform(0.5, 1.2)),
            n_terms=4, in_blocks=(dim, dim), y_block=(dim, dim),
        ))
        t_gamma = min(0.8 * tau_nb / (3.0 * omega_scales[i]), 0.45 * v_radii[i])
        drawn["gammas"].append((draw(fs.u, dim, 2, t_gamma), 2))
        drawn["gamma_alts"].append((draw(fs.u, dim, 2, t_gamma), 2))
        drawn["gamma_dirs"].append((draw(fs.u, dim, 2, 0.2 * v_radii[i]), 2))
    # composition data
    for i, fs in enumerate(factors):
        drawn["comp_gammas"].append((draw(fs.w, dim, 3, float(rng.uniform(0.5, 1.5))), 3))
        if i < n_stored("comp_gamma0s", n):
            drawn["comp_gamma0s"].append((draw(fs.w, dim, 3, float(rng.uniform(0.5, 1.5))), 3))
        t_eta = min(0.8 * tau_nb / (3.0 * omega_scales[i]), 0.45 * v_radii[i])
        drawn["comp_etas"].append((draw(fs.u, dim, 2, t_eta), 2))
        if i < n_stored("comp_eta0s", n):
            drawn["comp_eta0s"].append((draw(fs.u, dim, 2, t_eta), 2))
        drawn["comp_gamma_dirs"].append((draw(fs.w, dim, 3, 0.4), 3))
        drawn["comp_eta_dirs"].append((draw(fs.u, dim, 2, 0.15 * v_radii[i]), 2))
    # contraction data: (field, draw, slope cap, value cap) per stored factor and field
    cap11 = 0.5 * tau
    cap10 = 0.5 * (r_shared / 2.0) * (1.0 - tau)
    contractions = []
    for i, fs in enumerate(factors):
        for key, small in (("phis", False), ("psis", False), ("phi_dirs", True)):
            if i >= n_stored(key, n):
                continue
            k = draw(fs.u, dim, 3, 1.0)
            f11 = (0.4 if small else 1.0) * cap11 * float(rng.uniform(0.6, 1.0))
            f10 = (0.4 if small else 1.0) * cap10 * float(rng.uniform(0.6, 1.0))
            contractions.append((key, k, f11, f10))
    # multipliers, bilinears, multilinear data
    raws, scales = [], []  # (bilinear, beta2) per factor, normalized below
    for fs in factors:
        drawn["multipliers"].append((draw(fs.u, dim, 2, float(rng.uniform(0.5, 1.2))), 2))
        raws.append(rng.uniform(-1.0, 1.0, size=(dim, dim, dim)))
        scales.append(float(rng.uniform(0.5, 1.5)))
        raws.append(rng.uniform(-1.0, 1.0, size=(dim, dim, dim)))
        scales.append(float(rng.uniform(0.5, 2.0)))
        drawn["ml_args1"].append((draw(fs.u, dim, 2, 1.0), 2))
        drawn["ml_args2"].append((draw(fs.u, dim, 2, 1.0), 2))
    normed = [raw / norm * c for raw, norm, c in zip(raws, op_norms(np.array(raws)), scales)]
    bils, beta2s = normed[::2], normed[1::2]
    # one-variable superposition family with uniform bounds
    sigma_draws = [draw(fs.v.as_box(), dim, 3, 0.8, y_block=(0, dim)) for fs in factors]
    # operator-valued element for the power-series path
    q_targets, op_draws = [], []
    for fs in factors:
        q_targets.append(float(rng.uniform(0.3, 0.65)))
        op_draws.append(draw(fs.u, dim * dim, 2, 1.0))

    maps = _rescaled(draws)
    el: dict[str, list[tuple[JetMap, int]]] = {
        key: [(maps[k], order) for k, order in v] for key, v in drawn.items()
    }
    # the contraction elements are scaled below both caps, and the
    # operator-valued one to q_i through per-row entry bounds of its matrix
    # sup-operator norm
    pms, ops = [maps[k] for _, k, _, _ in contractions], [maps[k] for k in op_draws]
    ents = _entry_bounds([(m, 0) for m in pms + ops] + [(m, 1) for m in pms])
    e0s, op_ents, e1s = ents[:len(pms)], ents[len(pms):-len(pms)], ents[-len(pms):]
    for (key, _, f11, f10), pm, e0, e1 in zip(contractions, pms, e0s, e1s):
        b0, b1 = _row_sum_max(e0), _row_sum_max(e1)
        scale = min(f11 / b1 if b1 > 0 else 1.0, f10 / b0 if b0 > 0 else 1.0)
        el[key].append((ScaledMap(pm, scale), 2))
    for raw, eb, q_i in zip(ops, op_ents, q_targets):
        bound = _row_sum_max(eb.reshape(dim, dim))
        el["op_gammas"].append((ScaledMap(raw, q_i / bound if bound > 0 else 1.0), 0))
    # the difference maps are built only for their bounds, at the factors
    # both elements store
    diff_maps = {
        key: [SumMap([ma, ScaledMap(mb, -1.0)]) for (ma, _), (mb, _) in zip(el[a], el[b])]
        for key, (a, b) in DIFFERENCE_ROWS.items()
    }

    xis_m = [maps[k] for k in xi_draws]
    mults = [m for m, _ in el["multipliers"]]
    sigmas = [maps[k] for k in sigma_draws]
    bound = _crude_bounds(
        [(m, ell) for key, ms in el.items() for m, _ in ms for _, ell in READS[key]]
        + [(m, ell) for key, ms in diff_maps.items() for m in ms for _, ell in READS[key]]
        + [(xi, ell) for xi in xis_m for ell in (1, 2, *(e for (e,) in READS["xis"]))]
        + [(m, ell) for m in mults for ell in (0, 1, 2)]
        + [(s, ell) for s in sigmas for (ell,) in READS["sigma_k"]]
    )
    weights_at = [{m.name: m.factors[i] for m in family.members} for i in range(n)]

    def rows(key: str, i: int, map_: JetMap) -> Certificates:
        """The rows ``READS[key]`` of factor i: the weight's certified sup
        times the crude bound of the order."""
        return tuple((name, ell, weights_at[i][name].certified_sup * bound[id(map_), ell])
                     for name, ell in READS[key])

    elems = {
        key: [WeightedFunction(m, getattr(factors[i], f"grid_{ELEMENT_GRIDS[key]}"), order,
                               rows(key, i, m))
              for i, (m, order) in enumerate(ms)]
        for key, ms in el.items()
    }
    diffs = {key: [rows(key, i, m) for i, m in enumerate(ms)] for key, ms in diff_maps.items()}
    xis = [
        SuperpositionOperand(xi, fs.u, fs.v,
                             tuple((ell, bound[id(xi), ell]) for (ell,) in READS["xis"]),
                             crude_partial2_sup(xi))
        for xi, fs in zip(xis_m, factors)
    ]

    dominance = []
    for context, prefix, ms, orders in (("sp", "dom_sp", xis_m, (1, 2)),
                                        ("multiplier", "dom_mult", mults, (0, 1, 2))):
        for fname in ("one", "gauss"):
            base = family.member(fname)
            for ell in orders:
                ks = [bound[id(m), ell] for m in ms]
                name = f"{prefix}_{fname}_{ell}"
                gw = FamilyWeight(name, tuple(
                    scaled_weight(base.factors[i], ks[i], name=name) for i in range(n)))
                dominance.append(DominanceCertificate(base, ell, gw, tuple(ks), context=context))

    sigma_k = tuple((ell, max(bound[id(s), ell] for s in sigmas)) for (ell,) in READS["sigma_k"])
    one, half, k1 = family.member("one"), family.member("gauss_half"), sigma_k[0][1]
    gw = FamilyWeight("uniform_k1", tuple(scaled_weight(w, k1, name="uniform_k1") for w in ones))
    dominance.append(DominanceCertificate(one, 1, gw, (k1,) * n, context="uniform-k"))
    factorizations = (FactorizationCertificate(one, (one, one)),
                      FactorizationCertificate(family.member("gauss"), (half, half)))

    return validate_scenario(FamilyScenario(
        name=f"seed-{spec.seed}",
        dim=dim,
        factors=tuple(factors),
        weights=family,
        tau_nb=tau_nb,
        clearance_nb=clearance_nb,
        xis=tuple(xis),
        bilinears=tuple(bils),
        beta2s=tuple(beta2s),
        sigmas=tuple(sigmas),
        sigma_k=sigma_k,
        op_q=max(q_targets),
        dominance=tuple(dominance),
        factorizations=factorizations,
        contraction=ContractionConfig(tau=tau, r=r_shared),
        **{k: RestrictedElement(tuple(v)) for k, v in elems.items()},
        **{k: tuple(v) for k, v in diffs.items()},
    ))


def validate_scenario(sc: FamilyScenario):
    """Ingest validation: each factor's domains nest as the runners
    combine them, coded jets agree with finite differences at a few points
    and no grid evaluation contradicts a weight certificate.  Certificates
    for sup quantities are only falsified here, never proved; the check
    suite does the falsification of the dominance certificates.  A factor
    whose domains do not nest, or a map that fails, is a DataError at its
    JSON pointer."""
    from .jets import validate_jet_maps
    from .spaces import validate_weight_on_points

    # 0 in V (the weights and family runners measure from it), V + U in W
    # (composition) and V~ + ball(0, r) in U (inversion), exact set tests
    r_ball = ball(np.zeros(sc.dim), sc.contraction.r)
    for i, fs in enumerate(sc.factors):
        if not fs.v.star_shaped_at_zero:
            raise DataError(f"/factors/{i}: V must contain 0")
        if not fs.w.contains_set(fs.v.minkowski_sum(fs.u)):
            raise DataError(f"/factors/{i}: W must contain V + U")
        if not fs.u.contains_set(fs.v_tilde.minkowski_sum(r_ball)):
            raise DataError(f"/factors/{i}: U must contain V~ + ball(0, r), "
                            "r from /contraction/r")
    rng = np.random.default_rng(0)
    grids = [fs.grid_u.points for fs in sc.factors]
    for member in sc.weights.members:
        for w, pts in zip(member.factors, grids):
            validate_weight_on_points(w, pts)
    maps = ([(f"/elements/{key}/{i}/map", wf.map) for key in ELEMENT_GRIDS
             for i, wf in enumerate(getattr(sc, key).factors)]
            + [(f"/xis/{i}/map", op.xi) for i, op in enumerate(sc.xis)]
            + [(f"/sigmas/{i}", s) for i, s in enumerate(sc.sigmas)])
    try:
        validate_jet_maps([m for _, m in maps], rng)
    except WrpError as exc:
        raise DataError(f"{maps[exc.index][0]}: {exc}") from None
    return sc


# ---------------------------------------------------------------------------
# checks over shared per-scenario products


class Products:
    """The per-scenario products the checks read, for one
    :func:`run_scenario_checks` call.  A product is a function ``build(sc,
    p, *key)``; :meth:`read` computes it on its first read and keeps it, or
    the error it raised, for every later read, so a product that several
    ids or runners read is computed once and reads alike for all of them."""

    def __init__(self, sc: FamilyScenario):
        self.sc, self._kept = sc, {}

    def read(self, build, *key):
        if (build, key) not in self._kept:
            try:
                self._kept[build, key] = build(self.sc, self, *key)
            except WrpError as exc:
                self._kept[build, key] = exc
        if isinstance(value := self._kept[build, key], WrpError):
            raise value
        return value


def _picked(product):
    """The builder of the ids whose reports are among ``product``'s."""
    return lambda sc, p, cid: [r for r in p.read(product) if r.check_id == cid]


def _merged(product):
    """The builder of the ids whose reports among ``product``'s merge into one."""
    return lambda sc, p, cid: [merge_min_margin(
        cid, [r for r in p.read(product) if r.check_id == cid])]


def _weights_at(sc: FamilyScenario, i: int) -> list[Weight]:
    """Factor i's "one" and "gauss" weights, those of the single-factor estimates."""
    return [sc.fw("one").factors[i], sc.fw("gauss").factors[i]]


def _grids_u(sc: FamilyScenario) -> list[np.ndarray]:
    return [fs.grid_u.points for fs in sc.factors]


def _orders(sc: FamilyScenario) -> tuple[int, ...]:
    """The derivative orders of the jets and sim estimates."""
    return (1, 2) if sc.dim == 1 else (1,)


_SLAB = 0.5  # the radius of the operator slot of the paired-derivative maps

# the id each context's dominance certificates are checked under
_DOMINANCE_IDS = {
    "multiplier": "cond:est_sim-multiplier_weights",
    "sp": "cond:est_SP-Abb_weights",
    "uniform-k": "lem:glm_beschraenkte_Abb-Multiplier",
}


def _dominance(sc, p, k: int) -> CheckReport:
    """Product: the check of dominance certificate k on every factor's U grid."""
    cert = sc.dominance[k]
    return check_dominance_certificate(cert, _grids_u(sc), _DOMINANCE_IDS[cert.context])


def _dominance_of(sc, p, cid):
    return [merge_min_margin(cid, [p.read(_dominance, k) for k, c in enumerate(sc.dominance)
                                   if _DOMINANCE_IDS.get(c.context) == cid])]


def _single_factor_dominance(sc, p, cid):
    """The "sp" certificates sliced to factor 0."""
    singles = []
    for c in sc.dominance:
        if c.context == "sp":
            sliced = DominanceCertificate(
                FamilyWeight(c.f.name + "[0]", (c.f.factors[0],)), c.ell,
                FamilyWeight(c.g.name + "[0]", (c.g.factors[0],)), (c.per_factor_k[0],),
                context="sp-single",
            )
            singles.append(check_dominance_certificate(sliced, _grids_u(sc)[:1], cid))
    return [merge_min_margin(cid, singles)]


def _reduction(sc, p, cid):
    fws = (sc.fw("one"), sc.fw("gauss"))
    pairs = [(wf, fw.factors[i]) for i, wf in enumerate(sc.comp_gammas.factors) for fw in fws]
    decomp = {ell: decomposition_checks([wf for wf, _ in pairs], [w for _, w in pairs], ell)
              for ell in (0, 1)}
    return [merge_min_margin(cid, [decomp[ell][k] for k in range(len(pairs)) for ell in (0, 1)])]


def _family_reduction(sc, p, cid):
    """Order ell + 1 of the element against order ell of its differentials."""
    fws = (sc.fw("one"), sc.fw("gauss"))
    diffs = RestrictedElement(tuple(f.differential() for f in sc.comp_gammas.factors))
    lhs = {ell: family_seminorms([(sc.comp_gammas, fw) for fw in fws], ell + 1) for ell in (0, 1)}
    rhs = {ell: family_seminorms([(diffs, fw) for fw in fws], ell) for ell in (0, 1)}
    dev = max_deviation([deviation(lhs[ell][k].value, rhs[ell][k].value)
                         for k in range(len(fws)) for ell in (0, 1)])
    return [identity_report(cid, dev, tolerance=1e-12, detail="family reduction identity")]


def _order_cap(sc, p, cid):
    gamma = sc.gammas[0]
    sn_full, sn_low = (sv.value for sv in weighted_seminorms(
        [gamma, WeightedFunction(gamma.map, gamma.grid, 1)], [sc.fw("gauss").factors[0]] * 2, 1))
    return [identity_report(cid, deviation(sn_full, sn_low), tolerance=0.0,
                            detail="seminorm independent of the declared order cap")]


def _norm_comparison(sc, p):
    """Product: the pointwise and aggregate reports of ``norm_comparison_1U``."""
    d0 = sc.factors[0].v.boundary_distance(np.zeros(sc.dim))
    return norm_comparison_1U(sc.gammas[0], sc.gamma_alts[0], sc.fw("omega").factors[0], d0)


def _constant_one_weight(sc, p, cid):
    rows = [(i, ell) for i in range(sc.n_factors) for ell in (0, 1)]
    om = sc.fw("omega").factors
    one = {ell: weighted_seminorms(sc.gammas.factors, sc.fw("one").factors, ell)
           for ell in (0, 1)}
    adj = {ell: weighted_seminorms(sc.gammas.factors, om, ell) for ell in (0, 1)}
    return [bound_rows(
        cid, [one[ell][i].value for i, ell in rows],
        [adj[ell][i].value / om[i].certified_inf for i, ell in rows],
        tolerance=1e-12, lhs_provenance=GRID_LOWER, rhs_provenance=GRID_LOWER,
        witness=lambda k: rows[k])]


def _linear_in_second(sc: FamilyScenario, i: int) -> PolynomialMap:
    """xi(x, y) = b_i(M_i(x), y) as an exact polynomial in (x, y)."""
    m = sc.multipliers[i].map
    b = sc.bilinears[i]
    dim = sc.dim
    dom = product_box(sc.factors[i].u, box([-1.0] * dim, [1.0] * dim))
    terms = []
    for coef, powers in m.terms:
        for q in range(dim):
            new_coef = contract(b[:, :, q], coef)
            new_pow = tuple(powers) + tuple(1 if a == q else 0 for a in range(dim))
            terms.append((new_coef, new_pow))
    return PolynomialMap(dom, terms, in_blocks=(dim, dim))


def _directional_derivative(sc, p, cid):
    probe_map = sc.comp_gammas[0].map
    x0 = sc.factors[0].grid_w.points[len(sc.factors[0].grid_w) // 3]
    exact = probe_map.tensor(x0, 1).entries
    steps = (2e-2, 1e-2, 5e-3, 2.5e-3)
    errors = {h: np.max(np.abs(fd_tensors(probe_map, x0[None], 1, h=h)[1][0] - exact))
              for h in steps}
    return [derivative_convergence(cid, errors, steps,
                                   detail="central differences against coded jets;")]


def _linear2(sc, p):
    """Product: the identities and estimates of factor 0's map linear in
    its second argument."""
    xi_lin = _linear_in_second(sc, 0)
    gmid = sc.factors[0].grid_u.points[len(sc.factors[0].grid_u) // 2]
    pt = np.concatenate([gmid, np.full(sc.dim, 0.3)])
    h1, h2 = np.arange(1.0, sc.dim + 1.0), np.full(sc.dim, -0.7)
    return [r for ell in _orders(sc) for r in linear2_identities_check(
        xi_lin, pt, h1, h2, ell, g=sc.multipliers[0].map, b=sc.bilinears[0])]


def _paired_derivative(sc, p, cid):
    op0, reports = sc.xis[0], []
    for pairing in ("evaluate", "compose") if sc.dim == 1 else ("evaluate",):
        xi2 = xi2_build(op0.xi, pairing, _SLAB)
        zero_pt = np.concatenate([sc.factors[0].grid_u.points[0], np.full(sc.dim, 0.1),
                                  np.zeros(int(np.prod(xi2.e_shape)))])
        dev = float(np.max(np.abs(xi2.tensors(zero_pt[None], 0))))
        reports.append(identity_report(cid, dev, tolerance=1e-12,
                                       detail=f"vanishes at e = 0 ({pairing})"))
        probe_grid = lattice(xi2.domain, per_axis=2)
        probes = probe_grid.points[:: max(1, len(probe_grid) // 4)]
        reports += [xi2_pointwise_check(op0.xi, xi2, probes, ell) for ell in _orders(sc)]
    return [merge_min_margin(cid, reports)]


def _slab_seminorm(sc, p, cid):
    op0 = sc.xis[0]
    xi2e = xi2_build(op0.xi, "evaluate", _SLAB)
    grid = lattice(xi2e.domain, per_axis=3 if sc.dim == 1 else 2)
    ells = _orders(sc)
    lhs, rhs = [], []
    for ell in ells:
        lhs.append(op_norms(xi2e.tensors(grid.points, ell)).max())
        rhs.append(ell * require_row(op0.sup_1, ell) + _SLAB * require_row(op0.sup_1, ell + 1))
    return [bound_rows(cid, lhs, rhs, tolerance=1e-9, lhs_provenance=GRID_LOWER,
                       rhs_provenance=CERTIFIED_UPPER, witness=lambda k: (ells[k],))]


def _parameter_integral(sc, p, cid):
    op0 = sc.xis[0]
    d2 = PartialD2Map(op0.xi)
    pts = sc.factors[0].grid_u.points[:: max(1, len(sc.factors[0].grid_u) // 3)]
    gs, es = sc.gammas[0].map.tensors(pts, 0), sc.gamma_alts[0].map.tensors(pts, 0)
    lhss = (op0.xi.tensors(np.concatenate([pts, gs], axis=1), 0)
            - op0.xi.tensors(np.concatenate([pts, es], axis=1), 0))

    def integrand(ts):
        # (node, point, axis): the segment from e to g at every point
        t = ts[:, None, None]
        nodes = np.concatenate([np.broadcast_to(pts, t.shape[:1] + pts.shape),
                                t * gs + (1 - t) * es], axis=2)
        vals = d2.tensors(nodes.reshape(-1, nodes.shape[2]), 0)
        return contract(vals.reshape(nodes.shape[:2] + vals.shape[1:]), (gs - es)[:, None])

    rhss = weak_integral(integrand, 0.0, 1.0, 64)
    return [merge_min_margin(cid, [
        identity_report(cid, float(np.max(np.abs(lhs - rhs))),
                        tolerance=1e-10, witness=tuple(float(c) for c in x))
        for x, lhs, rhs in zip(pts, lhss, rhss)
    ])]


def _superposed(sc, p, i: int):
    """Product: factor i's superposition with its estimates."""
    return superpose(sc.xis[i], sc.gammas[i], _weights_at(sc, i),
                     pair=(sc.gamma_alts[i], sc.gamma_diffs[i]))


def _superpositions(sc, p):
    """Product: every factor's superposition estimates."""
    return [r for i in range(sc.n_factors) for r in p.read(_superposed, i)[1]]


def _superposition_defined(sc, p, cid):
    """The zero argument maps to the zero function, and factor 0's
    superposition takes the kernel's values."""
    via = p.read(_superposed, 0)[0]
    fs0 = sc.factors[0]
    zero_gamma = WeightedFunction(ConstMap(fs0.u, np.zeros(sc.dim)), fs0.grid_u, 2)
    zres, _ = superpose(sc.xis[0], zero_gamma, [])
    dev = float(np.max(np.abs(zres.map.tensors(fs0.grid_u.points, 0))))
    probes = fs0.grid_u.points[:: max(1, len(fs0.grid_u) // 4)]
    direct = sc.xis[0].xi.tensors(
        np.concatenate([probes, sc.gammas[0].map.tensors(probes, 0)], axis=1), 0)
    value_dev = float(np.max(np.abs(via.map.tensors(probes, 0) - direct)))
    return [identity_report(cid, float(np.max([dev, value_dev])), tolerance=1e-12,
                            detail="zero argument and pointwise value agreement")]


def _composed(sc, p):
    """Product: factor 0's composition estimates."""
    fs0 = sc.factors[0]
    return compose_perturbed(
        sc.comp_gammas[0], sc.comp_etas[0], fs0.u, fs0.v, fs0.w, _weights_at(sc, 0),
        pair=(sc.comp_gamma0s[0], sc.comp_eta0s[0], sc.comp_gamma_diffs[0],
              sc.comp_eta_diffs[0]))[1]


def _composition_defined(sc, p, cid):
    fs0 = sc.factors[0]
    zero_eta = WeightedFunction(ConstMap(fs0.u, np.zeros(sc.dim)), fs0.grid_u, 2)
    zres, _ = compose_perturbed(sc.comp_gammas[0], zero_eta, fs0.u, fs0.v, fs0.w)
    probes = fs0.grid_u.points[:: max(1, len(fs0.grid_u) // 4)]
    dev = float(np.max([
        np.max(np.abs(zres.map.tensors(probes, ell) - sc.comp_gammas[0].map.tensors(probes, ell)))
        for ell in (0, 1)
    ]))
    return [identity_report(cid, dev, tolerance=1e-12,
                            detail="zero perturbation reproduces the map")]


def _inverse(sc, p, i: int):
    """Product: factor i's gated inverse, which every inversion check reads."""
    fs = sc.factors[i]
    return gated_inverse(sc.phis[i], fs.u, fs.v_tilde, sc.contraction)


def _inversions(sc, p):
    """Product: every factor's inversion estimates."""
    return [r for i, fs in enumerate(sc.factors) for r in invert_perturbed(
        sc.phis[i], p.read(_inverse, i), fs.grid_vt, _weights_at(sc, i))[1]]


def _inversion_probes(sc: FamilyScenario) -> np.ndarray:
    grid = sc.factors[0].grid_vt
    return grid.points[:: max(1, len(grid) // 3)]


def _family_seminorm(sc, p, cid):
    """Exact max, permutation and zero-factor invariance."""
    fw_gauss, elem = sc.fw("gauss"), sc.gammas
    order = list(reversed(range(len(elem))))
    perm_elem = RestrictedElement(tuple(elem.factors[i] for i in order))
    perm_fw = FamilyWeight("gauss_perm", tuple(fw_gauss.factors[i] for i in order))
    aug_elem = RestrictedElement(
        elem.factors
        + (WeightedFunction(ConstMap(sc.factors[0].u, np.zeros(sc.dim)),
                            sc.factors[0].grid_u, 2),)
    )
    aug_fw = FamilyWeight("gauss_aug", fw_gauss.factors + (fw_gauss.factors[0],))
    fam, perm, aug = family_seminorms(
        [(elem, fw_gauss), (perm_elem, perm_fw), (aug_elem, aug_fw)], 0)
    explicit = max(sv.value for sv in weighted_seminorms(elem.factors, fw_gauss.factors, 0))
    dev = max_deviation([deviation(fam.value, explicit), deviation(perm.value, fam.value),
                         deviation(aug.value, fam.value)])
    return [identity_report(cid, dev, tolerance=0.0,
                            detail="exact max, permutation and zero-factor invariance")]


def _gauss_bounds(sc: FamilyScenario) -> list[float]:
    """Each factor's certified ("gauss", 0) bound of the gammas."""
    return [wf.require_bound("gauss", 0) for wf in sc.gammas.factors]


# the family map t -> s(t) gammas of each Lipschitz id: (s, the points t)
_LIPSCHITZ_CURVES = {
    "lem:L-Stetigkeit_Abb_in_LinfProd": (lambda t: t, (0.0, 0.35, 0.8, 1.0)),
    "lem:L-Stetigkeit_Abb_in_LinfProd-gewAbb": (math.sin, (0.0, 0.4, 1.1)),
}


def _lipschitz(sc, p, cid):
    s, ts = _LIPSCHITZ_CURVES[cid]
    return [lipschitz_bound_check(lambda t: sc.gammas.scaled(s(t)), ts, sc.fw("gauss"), 0,
                                  _gauss_bounds(sc), check_id=cid)]


def _product_iso(sc, p, cid):
    paired = RestrictedElement(tuple(
        WeightedFunction(PairMap([sc.gammas[i].map, sc.gamma_alts[i].map]),
                         sc.factors[i].grid_u, 2) for i in range(sc.n_factors)))
    return [product_iso_roundtrip(paired, sc.fw("one"), 1)]


def _cauchy(sc, p, cid):
    base_norm = max(_gauss_bounds(sc))
    elements = [sc.gammas.scaled(2.0 - math.ldexp(1.0, -k)) for k in range(7)]
    return [cauchy_limit_check(
        elements, sc.gammas.scaled(2.0), sc.fw("gauss"), 0,
        increment_envelope=lambda k: math.ldexp(base_norm, -(k + 1)),
        tail_envelope=lambda k: math.ldexp(base_norm, -k))]


def _multilinear_family(sc, p, cid):
    vecs = [np.full(sc.dim, 0.7), np.full(sc.dim, -0.9)]
    sup_b = float(op_norms(np.array(sc.beta2s)).max())
    lhs = max(float(np.max(np.abs(MultilinearMap(b, 1).apply(vecs[0], vecs[1]))))
              for b in sc.beta2s)
    rhs = sup_b * float(np.max(np.abs(vecs[0]))) * float(np.max(np.abs(vecs[1])))
    return [bound_report(cid, lhs, rhs, tolerance=1e-12,
                         lhs_provenance=EXACT, rhs_provenance=EXACT)]


def _openness(sc, p, cid):
    near = RestrictedElement(tuple(
        WeightedFunction(SumMap([sc.gammas[i].map, ScaledMap(sc.gamma_dirs[i].map, 0.02)]),
                         sc.factors[i].grid_u, 2) for i in range(sc.n_factors)))
    return [neighborhood_openness_check(sc.gammas, near, sc.fw("omega"),
                                        [fs.v for fs in sc.factors], sc.clearance_nb)]


def _sim_multiply(sc, p, cid):
    """Gated by the weights runner's check of its dominance certificate."""
    k = next(k for k, c in enumerate(sc.dominance)
             if c.context == "multiplier" and c.f.name == "gauss" and c.ell == 0)
    return [sim_multiply(sc.multipliers.factors, sc.bilinears, sc.gammas, sc.fw("gauss"),
                         sc.dominance[k], p.read(_dominance, k))[1]]


def _inclusion(sc, p):
    """Product: the adjusted-neighborhood inclusion check of ``gammas``,
    reported by its id and read by the family superposition as its gate."""
    return neighborhood_inclusion_check(
        sc.gammas, sc.fw("omega"), [fs.v for fs in sc.factors], sc.tau_nb)


def _sim_superposed(sc, p):
    """Product: the family superposition's bound and derivative reports."""
    g_fam = next(
        c.g for c in sc.dominance if c.context == "sp" and c.f.name == "gauss" and c.ell == 1)
    return sim_superpose(sc.xis, sc.gammas, sc.fw("gauss"), g_fam, p.read(_inclusion),
                         directions=sc.gamma_dirs)[1]


def _derivative_transfer(sc, p, cid):
    rows, lhs, rhs = [], [], []
    orders = _orders(sc)
    ms = [wf.map for wf in sc.multipliers.factors]
    # k[ell][i] bounds |Dm_i|_(1, ell - 1)
    k = {ell: crude_sup_bounds(ms, ell) for ell in range(1, orders[-1] + 2)}
    for i, m in enumerate(ms):
        dmap = PairedDerivativeMap(DifferentialMap(m), "evaluate", _SLAB)
        grid = lattice(dmap.domain, per_axis=3 if sc.dim == 1 else 2)
        for ell in orders:
            rows.append((i, ell))
            lhs.append(op_norms(dmap.tensors(grid.points, ell)).max())
            rhs.append(ell * k[ell][i] + _SLAB * k[ell + 1][i])
    return [bound_rows(cid, lhs, rhs, tolerance=1e-9, lhs_provenance=GRID_LOWER,
                       rhs_provenance=CERTIFIED_UPPER, witness=lambda k: rows[k])]


def _one_variable(sc, p, cid):
    k1 = require_row(sc.sigma_k, 1)
    composed = [
        WeightedFunction(ComposeMap(sc.sigmas[i], sc.gammas[i].map), sc.factors[i].grid_u, 2)
        for i in range(sc.n_factors)
    ]
    lhs = [sv.value for sv in weighted_seminorms(composed, sc.fw("gauss").factors, 0)]
    rhs = [k1 * wf.require_bound("gauss", 0) for wf in sc.gammas.factors]
    return [bound_rows(cid, lhs, rhs, tolerance=1e-9, lhs_provenance=GRID_LOWER,
                       rhs_provenance=CERTIFIED_UPPER, witness=lambda k: (k,))]


def _sim_composed(sc, p):
    """Product: the family composition's two reports."""
    return sim_compose(
        sc.comp_gammas, sc.comp_etas, sc.factors, sc.fw("omega"), sc.fw("one"), sc.tau_nb,
        directions=(sc.comp_gamma_dirs, sc.comp_eta_dirs))[1]


def _sim_inverted(sc, p):
    """Product: the family inversion over the factors' gated inverses."""
    return sim_invert(sc.phis, sc.factors, sc.contraction, sc.fw("one"),
                      lambda i: p.read(_inverse, i))


def _factor_restriction(sc, p, cid):
    """The sub-family solves fresh inverses, so that the restriction does
    not compare a shared product with itself."""
    def apply_sub(indices):
        return RestrictedElement(tuple(
            invert_perturbed(sc.phis[i], _inverse(sc, p, i), sc.factors[i].grid_vt)[0]
            for i in indices
        ))

    return [restrict_scenario_outputs(p.read(_sim_inverted)[0], apply_sub,
                                      list(range(0, sc.n_factors, 2)))]


# Each check id with the function that builds its reports, ``build(sc, p,
# check_id)``, from the products ``p``.  A runner builds its selected ids
# in the order listed here, not the registry's: the order in which it meets
# their preconditions, so that a full run skips with the same detail.
CHECKS: dict[str, Callable[[FamilyScenario, Products, str], list[CheckReport]]] = {
    # weights
    "cond:adjusting_weight": lambda sc, p, cid: [check_adjusting_weight(
        sc.fw("omega"), [fs.v.boundary_distance(np.zeros(sc.dim)) for fs in sc.factors],
        _grids_u(sc), cid)],
    "cond:est_sim-multiplier_weights": _dominance_of,
    "cond:est_SP-Abb_weights": _dominance_of,
    "lem:glm_beschraenkte_Abb-Multiplier": _dominance_of,
    "cond:est_weights_SP": _single_factor_dominance,
    # seminorms
    "def:weighted_seminorm": lambda sc, p, cid: [seminorm_axioms_check(
        sc.comp_gammas[0], sc.comp_gamma0s[0], sc.fw("gauss").factors[0], 1)],
    "lem:topologische_Zerlegung_von_CFk": _reduction,
    "prop:Zerlegungssatz_Familie": _family_reduction,
    "lem:gewichtete_Abb_Produktisomorphie-endl": lambda sc, p, cid: [pair_split_check(
        WeightedFunction(PairMap([sc.phis[0].map, sc.psis[0].map]), sc.factors[0].grid_u, 2),
        sc.fw("one").factors[0], 1)],
    "lem:CinfLinf_initial_CkLinf": _order_cap,
    "lem:est_1-0-norm_f-0-norm": _picked(_norm_comparison),
    "est:1-0-norm_f-0-norm_spezielles-f": _picked(_norm_comparison),
    "bem:konstantes-1-Gew_adjust-weight": _constant_one_weight,
    # jets and integrals
    "def:directional_derivative": _directional_derivative,
    "id:Ableitung_Abb_linear_2Arg": _merged(_linear2),
    "est:norm_l-te_Ableitung-Abb_linear_2Arg": _merged(_linear2),
    "est:Abb_linear_2Arg-Spezialfall-hohes_Diff--partiell": _merged(_linear2),
    "est:Abb_linear_2Arg-Spezialfall-hohes_Diff": _merged(_linear2),
    "lem:Abschaetzung_hoheDiffs_Spezialfall-linArg": _paired_derivative,
    "est:Differential-MaMu_hohes_Diff_1-l-Norm": _slab_seminorm,
    "lem:Stetigkeit_parameterab_Int": _parameter_integral,
    # superposition and composition
    "est:f0-Norm_SPid": _merged(_superpositions),
    "est:f0-Norm_SPid-Differenz": _merged(_superpositions),
    "est:f1-Norm_SPid": _merged(_superpositions),
    "prop:SuperpostionCWZweiVars-id": _superposition_defined,
    "id:Differential_SuperposCWZweiVars-id": lambda sc, p, cid: [
        superpose_derivative_check(sc.xis[0], sc.gammas[0], sc.gamma_dirs[0])],
    "est:Funktionswerte_Gewicht_K-Kompo": _merged(_composed),
    "est:f,0-Norm_Differenz_Kompo": _merged(_composed),
    "prop:Kompo_Koord_glatt": _composition_defined,
    "id:Ableitung_Kompo": lambda sc, p, cid: [compose_derivative_check(
        sc.comp_gammas[0], sc.comp_etas[0], sc.factors[0].u, sc.factors[0].v,
        sc.comp_gamma_dirs[0].map, sc.comp_eta_dirs[0].map)],
    # inversion
    "prop:Zsf_Inversion_gewAbb": _merged(_inversions),
    "est:Abschaetzung_gewichteter_FWert_der_K-Inversion": _merged(_inversions),
    "est:f0-norm_Diff_KoorInv": lambda sc, p, cid: [inversion_pair_difference_check(
        sc.phis[0], p.read(_inverse, 0), sc.psis[0], sc.phi_diffs[0], sc.factors[0].grid_vt,
        _weights_at(sc, 0))],
    "id:Ableitung_Inversion": lambda sc, p, cid: [inversion_direction_check(
        sc.phis[0], p.read(_inverse, 0), sc.phi_dirs[0], _inversion_probes(sc))],
    "id:Differential_der_inversen_Abb": lambda sc, p, cid: [
        inversion_jacobian_check(p.read(_inverse, 0), _inversion_probes(sc))],
    "qi:neumann_relation": lambda sc, p, cid: [
        quasi_inverse_report(-sc.phis[0].map.tensors(_inversion_probes(sc)[:2], 1))[1]],
    # restricted products
    "def:family_seminorm": _family_seminorm,
    "lem:L-Stetigkeit_Abb_in_LinfProd": _lipschitz,
    "lem:L-Stetigkeit_Abb_in_LinfProd-gewAbb": _lipschitz,
    "lem:pktwProduktLInf": _product_iso,
    "lem:Linf_compl_wenn_Faktoren_c": _cauchy,
    "lem:m-lin_Abb_glm_stetig->Prod_stetig": _multilinear_family,
    "lem:CFof_offen": _openness,
    "incl:1-Kugel_f0-norm_sub_CFof": lambda sc, p, cid: [p.read(_inclusion)],
    # simultaneous operators
    "lem:simultane_mult-multiplier": _sim_multiply,
    "lem:multilineareSuperpos-Linf": lambda sc, p, cid: [sim_multilinear(
        sc.beta2s, [sc.ml_args1, sc.ml_args2], sc.fw("gauss"),
        next(f for f in sc.factorizations if f.f.name == "gauss"), _grids_u(sc))[1]],
    "prop:simultane_SP_BCinf0_Produkt": _picked(_sim_superposed),
    "lem:Abb_nach_Linf_Ck_wenn_Komp_Ck_mit_stetigem_Diff": _picked(_sim_superposed),
    "lem:vergleich_Bedingungen_simultane-multiplier_simu-Supo": _derivative_transfer,
    "cor:simultane_SP_BCinf0_einfach": _one_variable,
    "lem:sim-SuperPos_QuasiInversion": lambda sc, p, cid: [
        sim_power_series(sc.op_gammas, sc.dim, sc.op_q)[1]],
    "prop:Simultane_Koor-Kompo_diffbar": _picked(_sim_composed),
    "prop:Simultane_Inv-Kompo_glatt": lambda sc, p, cid: p.read(_sim_inverted)[1],
    "sim:factor_restriction": _factor_restriction,
}


def _runner():
    """A runner's entry point: the reports of its selected ``ids`` over the
    products ``p``.  Each runner is its own function object, so that each
    can be wrapped and timed alone."""
    def run(p: Products, ids: Sequence[str]) -> list[CheckReport]:
        return [r for cid in ids for r in CHECKS[cid](p.sc, p, cid)]

    return run


RUNNERS: dict[str, Callable[[Products, Sequence[str]], list[CheckReport]]] = {
    name: _runner() for name in ("weights", "seminorms", "jets", "integrals", "superpose",
                                 "compose", "invert", "family", "sim")
}


def runner_ids(runner: str) -> list[str]:
    return [cid for cid, info in CHECK_REGISTRY.items() if info.runner == runner]


def run_scenario_checks(
    sc: FamilyScenario, check_ids: Sequence[str] | None = None
) -> list[CheckReport]:
    """Run the selected checks (all by default) over one set of shared
    products: each runner builds only its selected ids and the products
    they read.  A PreconditionError while a runner does so, a product's
    included, skips every selected id of that runner."""
    selection = set(check_ids) if check_ids is not None else set(ALL_CHECK_IDS)
    unknown = selection - set(ALL_CHECK_IDS)
    if unknown:
        raise ConfigError(f"unknown check ids: {sorted(unknown)}")
    products = Products(sc)
    reports: list[CheckReport] = []
    for runner_name in RUNNERS:
        ids = [cid for cid in CHECKS
               if cid in selection and CHECK_REGISTRY[cid].runner == runner_name]
        if not ids:
            continue
        try:
            reports += RUNNERS[runner_name](products, ids)
        except PreconditionError as exc:
            reports += [skipped_report(cid, str(exc)) for cid in ids]
    order = {cid: k for k, cid in enumerate(ALL_CHECK_IDS)}
    reports.sort(key=lambda r: order.get(r.check_id, len(order)))
    return reports


# ---------------------------------------------------------------------------
# negative controls


def tight_superposition_instance() -> tuple[SuperpositionOperand, WeightedFunction, Weight]:
    """A deliberately tight instance: xi(x, y) = y, gamma(x) = x, so the
    order-0 bound is met with the grid-to-sup gap as the only slack."""
    u = box([-1.0], [1.0])
    v = box([-1.1], [1.1])
    xi = PolynomialMap(product_box(u, v), [(np.array([1.0]), (0, 1))], in_blocks=(1, 1))
    op = SuperpositionOperand(
        xi, u, v,
        sup_1=tuple((ell, crude_sup_bound(xi, ell)) for ell in (1, 2, 3)),
        d2_sup=crude_partial2_sup(xi),
    )
    gamma = WeightedFunction(
        PolynomialMap(u, [(np.array([1.0]), (1,))]), lattice(u, per_axis=11), 2,
        (("one", 0, 1.0), ("one", 1, 1.0)),
    )
    return op, gamma, const_weight("one", 1.0)


def sabotage_superposition() -> list[CheckReport]:
    """Halving the kernel certificate on the tight instance must fail."""
    op, gamma, one = tight_superposition_instance()
    bad = SuperpositionOperand(
        op.xi, op.u, op.v,
        tuple((ell, 0.5 * b) for ell, b in op.sup_1),
        0.5 * op.d2_sup,
    )
    _, reports = superpose(bad, gamma, [one])
    return reports


def sabotaged_inclusion_instance():
    """An inclusion instance whose claimed adjusting weight is scaled below
    the admissible threshold.

    The containment margin is tau (d - 1/w) < 0, so the check fails as soon
    as tau exceeds the analytic threshold nu = |eta|_omega that activates
    the hypothesis.  Returns (element, weight, domains, tau_threshold).
    """
    u = box([-1.0], [1.0])
    v = ball([0.0], 0.8)
    grid = lattice(u, per_axis=9)
    eta = RestrictedElement(
        (WeightedFunction(ConstMap(u, np.array([0.25])), grid, 1),)
    )
    w_val = 0.5 * max(1.0 / 0.8, 1.0)
    bad = FamilyWeight("omega_bad", (const_weight("omega_bad", w_val),))
    return eta, bad, [v], w_val * 0.25


# ---------------------------------------------------------------------------
# serialization


def _domain_to_dict(d: DomainSet) -> dict:
    if d.kind == "box":
        return {"kind": "box", "lo": list(d.lo), "hi": list(d.hi),
                "norm": d.space.norm_kind}
    return {"kind": "ball", "center": list(d.center), "radius": d.radius,
            "norm": d.space.norm_kind}


# Readers take the JSON pointer of the node they read, so that a missing
# or malformed entry is a DataError naming where it is.


def _at(node, key, path: str):
    """``node[key]``, where ``path`` is the JSON pointer of ``node``."""
    try:
        return node[key]
    except (KeyError, IndexError, TypeError):
        raise DataError(f"{path}/{key}: missing") from None


def is_finite_number(v, kind=(int, float)) -> bool:
    """The one rule for a number read from a scenario or configuration
    file: an instance of ``kind`` (``int`` for an integer), not a boolean,
    NaN, an infinity or an int beyond the float range."""
    return type(v) is not bool and isinstance(v, kind) and abs(v) <= sys.float_info.max


def _number(node, key, path: str):
    v = _at(node, key, path)
    if not is_finite_number(v):
        raise DataError(f"{path}/{key}: must be a finite number, got {v!r}")
    return v


def _integer(node, key, path: str, least: int) -> int:
    v = _at(node, key, path)
    if not is_finite_number(v, int) or v < least:
        raise DataError(f"{path}/{key}: must be an integer >= {least}, got {v!r}")
    return v


def _items(node, key, path: str, n: int | None = None) -> list:
    """``node[key]``, checked to be a list, of ``n`` entries if ``n`` is given."""
    v = _at(node, key, path)
    if not isinstance(v, list) or (n is not None and len(v) != n):
        size = "" if n is None else f" of {n} entries"
        raise DataError(f"{path}/{key}: must be a list{size}")
    return v


def _floats(node, key, path: str, n: int | None = None) -> tuple[float, ...]:
    """The list ``node[key]`` (of ``n`` entries if given) of finite numbers, as floats."""
    items = _items(node, key, path, n)
    return tuple(float(_number(items, j, f"{path}/{key}")) for j in range(len(items)))


def _numbers(node, key, path: str):
    """``node[key]``: a finite number or a nested list of them."""
    v = _at(node, key, path)
    if not isinstance(v, list):
        return _number(node, key, path)
    for j in range(len(v)):
        _numbers(v, j, f"{path}/{key}")
    return v


def _constants(node, path: str, n: int) -> tuple[float, ...]:
    """The ``k`` row of a dominance certificate at ``path``: one finite
    number >= 0 per factor."""
    k = _floats(node, "k", path, n)
    for j, v in enumerate(k):
        if v < 0:
            raise DataError(f"{path}/k/{j}: must be >= 0, got {v!r}")
    return k


def _has_shape(v, shape: tuple[int, ...]) -> bool:
    if not shape:
        return not isinstance(v, list)
    return isinstance(v, list) and len(v) == shape[0] and all(_has_shape(e, shape[1:]) for e in v)


def _tensor(node, key, path: str, shape: tuple[int, ...]) -> np.ndarray:
    """``node[key]``: nested lists of finite numbers of ``shape``, as an array."""
    v = _numbers(node, key, path)
    if not _has_shape(v, shape):
        raise DataError(f"{path}/{key}: must be nested lists of shape {list(shape)}")
    return np.array(v)


def _bounds(node, key, path: str, width: int, required, members=()) -> tuple[tuple, ...]:
    """The rows listed at ``node[key]``, each ``width`` entries ending in
    (order, bound), with a row for every key in ``required`` (the entries
    before the bound); a row of width 3 starts with the name of one of
    the weights ``members``."""
    rows, at = _items(node, key, path), f"{path}/{key}"
    out = []
    for j, row in enumerate(rows):
        if not (isinstance(row, list) and len(row) == width and is_finite_number(row[-2], int)
                and row[-2] >= 0 and is_finite_number(row[-1])):
            # the readers name the first entry that breaks the rule
            _items(rows, j, at, width)
            _integer(row, width - 2, f"{at}/{j}", 0)
            _number(row, width - 1, f"{at}/{j}")
        if width == 3:
            _member(row, 0, f"{at}/{j}", members)
        out.append((*row[:-2], row[-2], float(row[-1])))
    _require(required, out, at)
    return tuple(out)


def _member(node, key, path: str, names) -> str:
    """``node[key]``, which must be one of the family weights' ``names``."""
    name = _at(node, key, path)
    if not (isinstance(name, str) and name in names):
        raise DataError(f"{path}/{key}: must name a family weight, got {name!r}")
    return name


def _require(keys, entries, at: str):
    """Each of ``keys`` starts one of the tuples ``entries``, or a
    DataError at ``at``: the one rule for a certificate ingest requires."""
    for k in keys:
        if not any(e[:len(k)] == k for e in entries):
            raise DataError(f"{at}: must have an entry starting {k!r}")


def _from_desc(build, desc, path: str, *args):
    """``build(desc, *args)`` for the descriptor at ``path``; a leaf that
    breaks the number rule, a key the descriptor lacks, an entry its
    reader rejects or a node of the wrong shape (a number, list or object
    where another belongs) is a DataError naming it."""
    at = _nonfinite_at(desc)
    if at is not None:
        raise DataError(f"{path}{at}: must be a finite number")
    try:
        return build(desc, *args)
    except KeyError as exc:
        raise DataError(f"{path}: missing key {exc.args[0]!r}") from None
    except (DataError, ShapeError) as exc:
        raise DataError(f"{path}: {exc}") from None
    except (TypeError, IndexError, AttributeError, ValueError) as exc:
        raise DataError(f"{path}: malformed descriptor ({type(exc).__name__}: {exc})") from None


def _nonfinite_at(node, key=None) -> str | None:
    """The JSON pointer, relative to ``node``, of its first leaf that is
    not a finite number (:func:`is_finite_number`), unless it is the
    string of a ``kind``; ``key`` is the key that holds ``node``."""
    t = type(node)
    if t is dict or t is list:
        for k, child in node.items() if t is dict else enumerate(node):
            at = _nonfinite_at(child, k)
            if at is not None:
                return f"/{k}{at}"
        return None
    if t is str:
        return None if key == "kind" else ""
    return None if is_finite_number(node) else ""


def _domain_from_dict(d: dict, path: str, dim: int) -> DomainSet:
    """A sup-norm box or ball in dimension ``dim`` whose bounding box has
    finite widths, so that probes drawn inside it are finite.  The runners
    need the sup norm on every factor domain: they rewrite U and V as boxes
    (``product_box``, the sigmas' domain), add V + U and V~ + a ball of U
    as Minkowski sums, and take order-2 seminorms on W's grid."""
    kind, norm = _at(d, "kind", path), d.get("norm", SUP)
    if norm != SUP:
        raise DataError(f"{path}/norm: must be {SUP!r}, got {norm!r}")
    try:
        if kind == "box":
            dom = box(_floats(d, "lo", path, dim), _floats(d, "hi", path, dim), norm)
        elif kind == "ball":
            dom = ball(_floats(d, "center", path, dim), _number(d, "radius", path), norm)
        else:
            raise DataError(f"{path}/kind: must be 'box' or 'ball', got {kind!r}")
    except GeometryError as exc:
        raise DataError(f"{path}: {exc}") from None
    with np.errstate(over="ignore"):
        lo, hi = dom.bounding_box()
        finite = np.isfinite(hi - lo).all()
    if not finite:
        raise DataError(f"{path}: the bounding box must have finite widths")
    return dom


def _wf_to_dict(wf: WeightedFunction) -> dict:
    return {
        "map": map_to_desc(wf.map),
        "max_order": wf.max_order,
        "certified": list(map(list, wf.certified)),
    }


def _wf_from_dict(d: dict, domain: DomainSet, grid: SampleGrid, path: str,
                  required, members, least: int) -> WeightedFunction:
    """An element factor with the ``required`` (weight, order) rows and a
    ``max_order`` of at least ``least``."""
    return WeightedFunction(
        _from_desc(map_from_desc, _at(d, "map", path), f"{path}/map", domain),
        grid,
        _integer(d, "max_order", path, least),
        _bounds(d, "certified", path, 3, required, members),
    )


def _elem_to_dict(e: RestrictedElement) -> list:
    return [_wf_to_dict(f) for f in e.factors]


def _fw_to_dict(fw: FamilyWeight) -> dict:
    return {"name": fw.name, "factors": [weight_to_desc(w) for w in fw.factors]}


def _fw_from_dict(d: dict, domains: list[DomainSet], path: str) -> FamilyWeight:
    """A family weight.  Each factor's kind computes its certified sup and
    inf; a ``certified_sup`` or ``certified_inf`` the file gives must be
    that value."""
    entries = _items(d, "factors", path, len(domains))
    name = _at(d, "name", path)
    if not isinstance(name, str):
        raise DataError(f"{path}/name: must be a string, got {name!r}")
    factors = []
    for i, (desc, dom) in enumerate(zip(entries, domains)):
        at = f"{path}/factors/{i}"
        w = _from_desc(weight_from_desc, desc, at, name, dom)
        for key in ("certified_sup", "certified_inf"):
            if key in desc and desc[key] != getattr(w, key):
                raise DataError(f"{at}/{key}: {desc[key]!r} is not the {getattr(w, key)!r} "
                                f"its {desc['kind']!r} weight has")
        factors.append(w)
    return FamilyWeight(name, tuple(factors))


def _contraction(d: dict) -> ContractionConfig:
    """``/contraction``: its int fields are integers >= 1, the others
    finite numbers."""
    block = _at(d, "contraction", "")
    if not isinstance(block, dict):
        raise DataError("/contraction: must be an object")
    ints = {f.name for f in fields(ContractionConfig) if f.type == "int"}
    try:
        cfg = ContractionConfig(**{k: _integer(block, k, "/contraction", 1) if k in ints
                                   else _number(block, k, "/contraction") for k in block})
    except (TypeError, PreconditionError) as exc:
        raise DataError(f"/contraction: {exc}") from None
    return cfg


# The domains of a FactorSpace, and each of its grids with the domain it samples.
_DOMAINS = ("u", "v", "w", "v_tilde")
_GRID_DOMAINS = {"grid_u": "u", "grid_w": "w", "grid_vt": "v_tilde"}


def scenario_to_dict(sc: FamilyScenario) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "name": sc.name,
        "dim": sc.dim,
        "tau_nb": sc.tau_nb,
        "clearance_nb": sc.clearance_nb,
        "op_q": sc.op_q,
        "sigma_k": [[l, k] for l, k in sc.sigma_k],
        "factors": [
            {**{k: _domain_to_dict(getattr(fs, k)) for k in _DOMAINS},
             **{g: len(getattr(fs, g).axes[0]) for g in _GRID_DOMAINS}}
            for fs in sc.factors
        ],
        "weights": {"members": [_fw_to_dict(m) for m in sc.weights.members]},
        "xis": [
            {
                "map": map_to_desc(op.xi),
                "sup_1": [[l, b] for l, b in op.sup_1],
                "d2_sup": op.d2_sup,
            }
            for op in sc.xis
        ],
        "elements": {k: _elem_to_dict(getattr(sc, k)) for k in ELEMENT_GRIDS},
        **{k: [list(map(list, rows)) for rows in getattr(sc, k)] for k in DIFFERENCE_ROWS},
        "bilinears": [b.tolist() for b in sc.bilinears],
        "beta2s": [b.tolist() for b in sc.beta2s],
        "sigmas": [map_to_desc(s) for s in sc.sigmas],
        "dominance": [{"f": c.f.name, "ell": c.ell, "g": _fw_to_dict(c.g),
                       "k": list(c.per_factor_k), "context": c.context} for c in sc.dominance],
        "factorizations": [
            {"f": c.f.name, "parts": [p.name for p in c.parts]}
            for c in sc.factorizations
        ],
        "contraction": asdict(sc.contraction),
    }


def scenario_from_dict(d: dict) -> FamilyScenario:
    """Load a scenario document of version :data:`SCHEMA_VERSION`.
    Anything missing or malformed is a DataError whose message starts with
    the JSON pointer of the entry."""
    version = _at(d, "schema_version", "")
    if type(version) is not int or version != SCHEMA_VERSION:
        raise DataError(f"/schema_version: must be {SCHEMA_VERSION}, got {version!r}")
    dim = _integer(d, "dim", "", 1)
    factors = []
    for i, fd in enumerate(_at(d, "factors", "")):
        path = f"/factors/{i}"
        geom = {k: _domain_from_dict(_at(fd, k, path), f"{path}/{k}", dim) for k in _DOMAINS}
        for g, k in _GRID_DOMAINS.items():
            per_axis = _integer(fd, g, path, 1)
            try:
                geom[g] = lattice(geom[k], per_axis=per_axis)
            except DataError as exc:
                raise DataError(f"{path}/{g}: {exc}") from None
        factors.append(FactorSpace(**geom))
    n = len(factors)

    def per_factor(key: str, node=d, path: str = "") -> list:
        """The list ``node[key]`` of the factors the field ``key`` stores."""
        return _items(node, key, path, n_stored(key, n))

    u_domains = [fs.u for fs in factors]
    family = WeightFamily(tuple(
        _fw_from_dict(m, u_domains, f"/weights/members/{i}")
        for i, m in enumerate(_items(_at(d, "weights", ""), "members", "/weights"))
    ))
    names = family.names
    _require(READS["weights"], [(name,) for name in names], "/weights/members")

    def named(node, key, path: str) -> FamilyWeight:
        """The family member that ``node[key]`` names."""
        return family.member(_member(node, key, path, names))

    j = names.index("one")
    for i, w in enumerate(family.members[j].factors):
        if w.desc != {"kind": "const", "c": 1.0}:
            raise DataError(f"/weights/members/{j}/factors/{i}: 'one' must be the constant 1")
    elements = {}
    for key, grid in ELEMENT_GRIDS.items():
        path = f"/elements/{key}"
        entries = per_factor(key, _at(d, "elements", ""), "/elements")
        elements[key] = RestrictedElement(tuple(
            _wf_from_dict(e, getattr(fs, grid), getattr(fs, f"grid_{grid}"), f"{path}/{i}",
                          READS[key], names, MIN_ORDER[key])
            for i, (e, fs) in enumerate(zip(entries, factors))
        ))
    diffs = {k: per_factor(k) for k in DIFFERENCE_ROWS}
    diffs = {k: tuple(_bounds(v, i, f"/{k}", 3, READS[k], names) for i in range(len(v)))
             for k, v in diffs.items()}
    for i, wf in enumerate(elements["multipliers"].factors):
        # the jets runner expands a multiplier's terms
        if not isinstance(wf.map, PolynomialMap):
            kind = d["elements"]["multipliers"][i]["map"]["kind"]
            raise DataError(f"/elements/multipliers/{i}/map/kind: must be 'poly', got {kind!r}")
    xis = []
    for i, (x, fs) in enumerate(zip(per_factor("xis"), factors)):
        path = f"/xis/{i}"
        desc = _at(x, "map", path)
        xi = _from_desc(map_from_desc, desc, f"{path}/map", product_box(fs.u, fs.v))
        if xi.in_blocks != (dim, dim):
            raise DataError(f"{path}/map/in_blocks: must be [{dim}, {dim}], the axes of U and "
                            f"V, got {desc.get('in_blocks')!r}")
        xis.append(SuperpositionOperand(
            xi, fs.u, fs.v, _bounds(x, "sup_1", path, 2, READS["xis"]),
            float(_number(x, "d2_sup", path)),
        ))
    dominance = tuple(
        DominanceCertificate(
            named(c, "f", f"/dominance/{i}"),
            _integer(c, "ell", f"/dominance/{i}", 0),
            _fw_from_dict(_at(c, "g", f"/dominance/{i}"), u_domains, f"/dominance/{i}/g"),
            _constants(c, f"/dominance/{i}", n),
            context=_at(c, "context", f"/dominance/{i}"),
        )
        for i, c in enumerate(_at(d, "dominance", ""))
    )
    _require(READS["dominance"], [(c.context, c.f.name, c.ell) for c in dominance], "/dominance")
    factorizations = []
    for i, c in enumerate(_at(d, "factorizations", "")):
        path, parts = f"/factorizations/{i}", _items(c, "parts", f"/factorizations/{i}")
        factorizations.append(FactorizationCertificate(
            named(c, "f", path), tuple(named(parts, j, f"{path}/parts") for j in range(len(parts)))
        ))
    _require(READS["factorizations"], [(c.f.name,) for c in factorizations], "/factorizations")
    bils, betas = per_factor("bilinears"), per_factor("beta2s")
    return validate_scenario(FamilyScenario(
        name=_at(d, "name", ""),
        dim=dim,
        factors=tuple(factors),
        weights=family,
        tau_nb=_number(d, "tau_nb", ""),
        clearance_nb=_number(d, "clearance_nb", ""),
        xis=tuple(xis),
        bilinears=tuple(_tensor(bils, i, "/bilinears", (dim,) * 3) for i in range(n)),
        beta2s=tuple(_tensor(betas, i, "/beta2s", (dim,) * 3) for i in range(n)),
        sigmas=tuple(
            _from_desc(map_from_desc, s, f"/sigmas/{i}", fs.v.as_box())
            for i, (s, fs) in enumerate(zip(per_factor("sigmas"), factors))
        ),
        sigma_k=_bounds(d, "sigma_k", "", 2, READS["sigma_k"]),
        op_q=_number(d, "op_q", ""),
        dominance=dominance,
        factorizations=tuple(factorizations),
        contraction=_contraction(d),
        **elements,
        **diffs,
    ))


# ---------------------------------------------------------------------------
# suite


@dataclass(frozen=True)
class ScenarioUnit:
    """One unit of work: a generator seed or a scenario file path."""

    seed: int | None = None
    path: str | None = None

    def label(self) -> str:
        return f"seed-{self.seed}" if self.seed is not None else str(self.path)


def load_scenario(unit: ScenarioUnit) -> FamilyScenario:
    if unit.seed is not None:
        return generate_scenario(unit.seed)
    with open(unit.path, "r", encoding="utf-8") as fh:
        return scenario_from_dict(json.load(fh))


def _run_unit(args) -> tuple[str, list[dict]]:
    unit, check_ids = args
    sc = load_scenario(unit)
    reports = run_scenario_checks(sc, check_ids)
    return sc.name, [r.to_dict() for r in reports]


def run_suite(
    units: Sequence[ScenarioUnit],
    check_ids: Sequence[str] | None = None,
    jobs: int = 1,
    tolerances: Sequence[tuple[str, float]] = (),
) -> dict:
    """Deterministic, ordered execution of the selected checks over the
    scenario units.  Output order is fixed by (unit index, check id)
    regardless of worker scheduling.  ``tolerances`` pairs (check id,
    tolerance) re-grade that id's non-skipped reports by the rule
    ``margin >= -tolerance`` before they are counted and hashed."""
    work = [(u, tuple(check_ids) if check_ids is not None else None) for u in units]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as ex:
            results = list(ex.map(_run_unit, work))
    else:
        results = [_run_unit(w) for w in work]
    overrides = dict(tolerances)
    scenarios = []
    min_margin: dict[str, float] = {}
    counts = dict.fromkeys((PASS, FAIL, SKIPPED), 0)
    for (unit, _), (name, reports) in zip(work, results):
        scenarios.append({"name": name, "unit": unit.label(), "checks": reports})
        for r in reports:
            tol = overrides.get(r["check_id"])
            if tol is not None and r["status"] != SKIPPED:
                r["tolerance"] = tol
                r["status"] = PASS if r["margin"] >= -tol else FAIL
            counts[r["status"]] += 1
            if r["status"] != SKIPPED:
                cur = min_margin.get(r["check_id"])
                if cur is None or r["margin"] < cur:
                    min_margin[r["check_id"]] = r["margin"]
    payload = {
        "schema_version": SCHEMA_VERSION,
        "checks_selected": sorted(check_ids) if check_ids is not None else "all",
        "units": [u.label() for u in units],
        "scenarios": scenarios,
        "summary": {
            "n_pass": counts[PASS],
            "n_fail": counts[FAIL],
            "n_skipped": counts[SKIPPED],
            "min_margin": {k: min_margin[k] for k in sorted(min_margin)},
        },
    }
    import hashlib

    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")
    ).hexdigest()[:12]
    payload["run_id"] = digest
    return payload
