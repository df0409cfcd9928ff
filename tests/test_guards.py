"""Argument and precondition guards of ``src/wrp``, one row each: the
call, the error it raises and the start of its message.  The guards a
scenario or configuration file meets at ingest are exercised through
``wrp run`` in ``tests/test_cli.py`` instead.
"""

import numpy as np
import pytest

from wrp.errors import (
    DataError,
    DomainMembershipError,
    GeometryError,
    OrderError,
    PreconditionError,
    RangeEscapeError,
    ShapeError,
    SpectralConditionError,
    UnsupportedNormError,
)
from wrp.jets import (
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
    SumMap,
    TrigPolynomialMap,
    contract_last,
    crude_partial2_sup,
    crude_sup_bound,
    fd_tensors,
    linear2_identities_check,
    op_norms,
    uncurry_last,
    xi2_build,
    xi2_pointwise_check,
)
from wrp.operators import (
    ContractionConfig,
    InverseMap,
    SuperpositionOperand,
    compose_perturbed,
    derivative_convergence,
    inversion_direction_check,
    inversion_jacobian_check,
    quasi_inverses,
    superpose,
)
from wrp.report import CheckReport
from wrp.restricted import (
    RestrictedElement,
    family_seminorm,
    lipschitz_bound_check,
    neighborhood_inclusion_check,
    neighborhood_openness_check,
    sim_compose,
    sim_multilinear,
    sim_multiply,
    sim_power_series,
    sim_superpose,
)
from wrp.seminorms import WeightedFunction, lattice
from wrp.spaces import (
    DomainSet,
    DominanceCertificate,
    FactorizationCertificate,
    FamilyWeight,
    NormedSpaceDesc,
    Weight,
    WeightFamily,
    ball,
    box,
    check_adjusting_weight,
    check_dominance_certificate,
    const_weight,
    scaled_weight,
    weight_to_desc,
)
from wrp.verify import sabotaged_inclusion_instance, tight_superposition_instance

U = box([-1.0], [1.0])
U2 = box([-1.0, -1.0], [1.0, 1.0])
GRID = lattice(U, per_axis=5)
POLY = PolynomialMap(U, [([0.5], (2,))])
XI = PolynomialMap(box([-1.0] * 4, [1.0] * 4), [([1.0, 0.0], (1, 0, 1, 0))], in_blocks=(2, 2))


def inverse():
    """A fresh inverse of POLY + id on [-0.5, 0.5]."""
    return InverseMap(POLY, U, box([-0.5], [0.5]), ContractionConfig(tau=0.5, r=0.5))


def family(name, *values):
    return FamilyWeight(name, tuple(const_weight(name, v) for v in values))


def element(*values, dom=U):
    return RestrictedElement(tuple(
        WeightedFunction(ConstMap(dom, [v] * dom.dim), lattice(dom, per_axis=5), 1)
        for v in values
    ))


def capped(map_, order):
    map_.max_order = order
    return map_


def vector_operator_map():
    """A two-block map whose values are operators, not vectors."""
    m = ConstMap(U2, np.zeros((1, 1)))
    m.in_blocks = (1, 1)
    return m


def sim_multiply_with_failing_certificate():
    # K = 2 times |one| is not below |one|
    cert = DominanceCertificate(family("one", 1.0), 0, family("one", 1.0), (2.0,))
    wf = WeightedFunction(POLY, GRID, 2)
    sim_multiply([wf], [np.ones((1, 1, 1))], element(0.1), family("one", 1.0), cert,
                 check_dominance_certificate(cert, [GRID.points]))


def sim_multilinear_with_failing_factorization():
    # |2| is not below |1| * |1|
    cert = FactorizationCertificate(family("two", 2.0), (family("one", 1.0),) * 2)
    sim_multilinear([np.ones((1, 1, 1))], [element(0.1), element(0.1)], family("two", 2.0),
                    cert, [GRID.points])


def outside_neighborhood():
    """An element that passes the inclusion hypothesis yet leaves the
    neighborhood: its adjusting weight is below max(1/r, 1)."""
    eta, omega, v_domains, tau_star = sabotaged_inclusion_instance()
    return eta, omega, v_domains, 1.2 * tau_star


def sim_superpose_outside():
    eta, omega, v_domains, tau = outside_neighborhood()
    op, _, _ = tight_superposition_instance()
    sim_superpose([op], eta, family("one", 1.0), family("one", 1.0), omega, v_domains, tau)


def sim_compose_outside():
    from wrp.restricted import FactorSpace

    eta, omega, v_domains, tau = outside_neighborhood()
    fs = FactorSpace(u=U, grid_u=GRID, v=v_domains[0], w=box([-2.0], [2.0]))
    sim_compose(element(0.1), eta, [fs], omega, family("one", 1.0), tau)


def superpose_off_zero():
    op, gamma, one = tight_superposition_instance()
    v = box([0.5], [1.5])
    superpose(SuperpositionOperand(op.xi, op.u, v, op.sup_1, op.d2_sup), gamma, [one])


GUARDS = [
    # jets
    ("out_rank", lambda: MultilinearMap(np.zeros(2), 2), ShapeError, "out_rank out of range"),
    ("apply_arity", lambda: MultilinearMap(np.zeros((1, 2)), 1).apply(),
     ShapeError, "expected 1 arguments, got 0"),
    ("uncurry_vector", lambda: uncurry_last(MultilinearMap(np.zeros((1, 2)), 1)),
     OrderError, "nothing to uncurry"),
    ("contract_order_zero", lambda: contract_last(MultilinearMap(np.zeros(1), 1), []),
     OrderError, "cannot contract a map of order 0"),
    ("apply_argument_length", lambda: MultilinearMap(np.zeros((1, 2)), 1).apply([1.0]),
     ShapeError, "contracted axes of lengths 2 and 1"),
    ("op_norms_out_rank", lambda: op_norms(np.zeros((1, 2)), out_rank=2),
     ShapeError, "out_rank out of range"),
    ("abstract_tensors", lambda: JetMap(U, (1,)).tensors(np.zeros((1, 1)), 0),
     NotImplementedError, ""),
    ("affine_shape", lambda: AffineMap(U, [[1.0, 2.0]]), ShapeError, "matrix shape"),
    ("no_terms", lambda: PolynomialMap(U, []), ShapeError, "polynomial needs at least one"),
    ("poly_term_shape", lambda: PolynomialMap(U, [([1.0], (1, 1))]),
     ShapeError, "inconsistent polynomial term shapes"),
    ("trig_term_shape", lambda: TrigPolynomialMap(U, [([1.0], [1.0, 2.0], 0.0)]),
     ShapeError, "inconsistent trig term shapes"),
    ("sum_shapes", lambda: SumMap([POLY, PolynomialMap(U, [([1.0, 2.0], (1,))])]),
     ShapeError, "summands must share"),
    ("pair_operator", lambda: PairMap([DifferentialMap(POLY)]),
     ShapeError, "can only pair vector-valued maps"),
    ("component_slice", lambda: ComponentMap(POLY, 1, 1), ShapeError, "bad component slice"),
    ("compose_shapes", lambda: ComposeMap(PolynomialMap(U2, [([1.0], (1, 1))]), POLY),
     ShapeError, "inner codomain must match"),
    ("partial_d2_blocks", lambda: PartialD2Map(POLY), ShapeError, "base map must declare"),
    ("partial_d2_vector", lambda: PartialD2Map(vector_operator_map()),
     ShapeError, "base map must be vector-valued"),
    ("pair_map_rank", lambda: MultilinearPairMap(np.zeros((1, 1)), [POLY, POLY]),
     ShapeError, "k-linear tensor rank"),
    ("pair_map_slot", lambda: MultilinearPairMap(np.zeros((1, 2, 1)), [POLY, POLY]),
     ShapeError, "slot 0 dimension mismatch"),
    ("paired_vector", lambda: PairedDerivativeMap(POLY, "evaluate", 1.0),
     ShapeError, "g must be operator-valued"),
    ("paired_kind", lambda: PairedDerivativeMap(DifferentialMap(POLY), "bogus", 1.0),
     ShapeError, "unknown pairing 'bogus'"),
    ("xi2_blocks", lambda: xi2_build(POLY, "evaluate"), ShapeError, "xi must declare"),
    ("fd_order", lambda: fd_tensors(POLY, [[0.1]], 3), OrderError, "finite differences"),
    ("linear2_blocks", lambda: linear2_identities_check(POLY, [0.1], [1.0], [1.0], 1),
     ShapeError, "map must declare"),
    ("linear2_three_blocks", lambda: linear2_identities_check(
        PolynomialMap(box([-1.0] * 3, [1.0] * 3), [([1.0], (1, 1, 1))], in_blocks=(1, 1, 1)),
        [0.1] * 3, [1.0], [1.0], 1),
     ShapeError, "map must declare two input blocks"),
    ("linear2_one_block", lambda: linear2_identities_check(
        PolynomialMap(U2, [([1.0], (1, 1))], in_blocks=(2,)), [0.1] * 2, [1.0], [1.0], 1),
     ShapeError, "map must declare two input blocks"),
    ("xi2_compose_slot", lambda: xi2_pointwise_check(
        XI, xi2_build(XI, "compose"), np.zeros((1, 8)), 1),
     UnsupportedNormError, "composition-pairing estimate"),
    ("bound_rule", lambda: crude_sup_bound(ConstMap(U, [1.0]), 0),
     ShapeError, "no certified bound rule for ConstMap"),
    ("partial2_blocks", lambda: crude_partial2_sup(POLY), ShapeError, "map must declare"),
    # operators
    ("two_steps", lambda: derivative_convergence("x", {0.1: 0.0, 0.05: 0.0}, (0.1, 0.05)),
     PreconditionError, "need at least three"),
    ("value_domain_off_zero", superpose_off_zero, PreconditionError, "the value domain"),
    ("eta_escapes", lambda: compose_perturbed(
        WeightedFunction(POLY, GRID, 2, (("one", 1, 1.0),)),
        WeightedFunction(ConstMap(U, [0.9]), GRID, 2), U, ball([0.0], 0.5), box([-3.0], [3.0])),
     RangeEscapeError, "eta([-0.6666666666666667]) escapes"),
    ("qi_square", lambda: quasi_inverses(np.zeros((1, 2, 3))), SpectralConditionError, "quasi"),
    ("qi_stack", lambda: quasi_inverses(np.zeros((2, 2))),
     ShapeError, "quasi-inverses need an (N, k, k) stack, got shape (2, 2)"),
    ("direction_shape", lambda: inversion_direction_check(
        WeightedFunction(POLY, GRID, 2, (("one", 0, 0.1), ("one", 1, 0.1))), inverse(),
        WeightedFunction(PolynomialMap(U, [([1.0, 2.0], (1,))]), GRID, 2,
                         (("one", 0, 0.1), ("one", 1, 0.1))),
        np.array([[0.0]])),
     ShapeError, "summands must share domain and codomain"),
    ("jacobian_stencil", lambda: inversion_jacobian_check(inverse(), np.array([[0.0], [0.49999]])),
     DomainMembershipError, "finite-difference stencil point"),
    # report
    ("lhs_provenance", lambda: CheckReport("x", "pass", 0.0, 0.0, 0.0, 0.0, "guess"),
     ValueError, "unknown provenance 'guess'"),
    ("rhs_provenance", lambda: CheckReport("x", "pass", 0.0, 0.0, 0.0, 0.0, "exact", "guess"),
     ValueError, "unknown provenance 'guess'"),
    # restricted
    ("family_counts", lambda: family_seminorm(element(0.1), family("one", 1.0, 1.0), 0),
     DataError, "weight family and element"),
    ("one_sample", lambda: lipschitz_bound_check(lambda t: element(t), [0.0], family("one", 1.0),
                                                 0, [1.0]),
     PreconditionError, "need at least two"),
    ("inclusion_star", lambda: neighborhood_inclusion_check(
        element(0.1), family("omega", 1.0), [box([0.5], [1.5])], 0.4),
     PreconditionError, "value domain 0 is not star-shaped"),
    ("openness_distance", lambda: neighborhood_openness_check(
        element(0.0), element(0.5), family("omega", 1.0), [ball([0.0], 1.0)], 0.3),
     PreconditionError, "distance 0.5 to the base element"),
    ("multiply_gate", sim_multiply_with_failing_certificate,
     PreconditionError, "dominance certificate fails"),
    ("multilinear_gate", sim_multilinear_with_failing_factorization,
     PreconditionError, "weight factorization fails"),
    ("superpose_gate", sim_superpose_outside, PreconditionError, "element leaves"),
    ("power_series_q", lambda: sim_power_series(element(0.1), 1, 1.0),
     SpectralConditionError, "certified bound q = 1.0"),
    ("compose_gate", sim_compose_outside, PreconditionError, "perturbation leaves"),
    # seminorms
    ("pinned_outside", lambda: lattice(U, per_axis=3, pinned=[[2.0]]),
     DomainMembershipError, "pinned point"),
    ("grid_dims", lambda: WeightedFunction(POLY, lattice(U2, per_axis=3), 1),
     ShapeError, "grid domain and map domain"),
    ("declared_order", lambda: WeightedFunction(capped(PolynomialMap(U, [([1.0], (1,))]), 1),
                                                GRID, 2),
     OrderError, "declared max order exceeds"),
    # spaces
    ("dim_zero", lambda: NormedSpaceDesc(0), ValueError, "dim must be >= 1"),
    ("norm_kind", lambda: NormedSpaceDesc(1, "l1"), ValueError, "unknown norm kind 'l1'"),
    ("box_dims", lambda: DomainSet(NormedSpaceDesc(2), "box", lo=(0.0,), hi=(1.0,)),
     GeometryError, "box bounds must match"),
    ("ball_dims", lambda: DomainSet(NormedSpaceDesc(2), "ball", center=(0.0,), radius=1.0),
     GeometryError, "ball center must match"),
    ("domain_kind", lambda: DomainSet(NormedSpaceDesc(1), "simplex"),
     GeometryError, "unknown domain kind 'simplex'"),
    ("euclidean_as_box", lambda: ball([0.0, 0.0], 1.0, norm_kind="euclidean").as_box(),
     GeometryError, "only a sup-norm ball"),
    ("scale_zero", lambda: U.scaled(0.0), GeometryError, "scale factor"),
    ("sum_dims", lambda: U.minkowski_sum(U2), GeometryError, "dimension mismatch in Minkowski"),
    ("contain_dims", lambda: U.contains_set(U2), GeometryError, "dimension mismatch in contain"),
    ("no_descriptor", lambda: weight_to_desc(Weight("w", lambda x: 1.0)),
     DataError, "weight 'w' carries no descriptor"),
    ("scaled_no_descriptor", lambda: scaled_weight(Weight("w", lambda x: 1.0), 2.0),
     DataError, "weight 'w' carries no descriptor"),
    ("member_counts", lambda: WeightFamily((family("a", 1.0), family("b", 1.0, 1.0))),
     DataError, "all family weights"),
    ("member_names", lambda: WeightFamily((family("a", 1.0), family("a", 2.0))),
     DataError, "duplicate weight names"),
    ("member_lookup", lambda: WeightFamily((family("a", 1.0),)).member("b"), KeyError, "b"),
    ("negative_order", lambda: DominanceCertificate(family("a", 1.0), -1, family("a", 1.0),
                                                    (1.0,)),
     ValueError, "derivative order must be"),
    ("certificate_counts", lambda: DominanceCertificate(family("a", 1.0), 0, family("a", 1.0),
                                                        (1.0, 1.0)),
     DataError, "certificate factor counts"),
    ("negative_constant", lambda: DominanceCertificate(family("a", 1.0), 0, family("a", 1.0),
                                                       (-1.0,)),
     DataError, "certificate constants must be"),
    ("factorization_counts", lambda: FactorizationCertificate(family("a", 1.0),
                                                              (family("b", 1.0, 1.0),)),
     DataError, "factorization factor counts"),
    ("adjusting_counts", lambda: check_adjusting_weight(family("a", 1.0), [1.0, 1.0], [GRID]),
     DataError, "factor counts disagree"),
    ("adjusting_grid", lambda: check_adjusting_weight(family("a", 1.0), [1.0],
                                                      [np.zeros((0, 1))]),
     DataError, "empty grid for factor 0"),
    ("dominance_grids", lambda: check_dominance_certificate(
        DominanceCertificate(family("a", 1.0), 0, family("a", 1.0), (1.0,)), []),
     DataError, "grid count disagrees"),
]


@pytest.mark.parametrize("call, error, message", [g[1:] for g in GUARDS],
                         ids=[g[0] for g in GUARDS])
def test_guard_raises(call, error, message):
    with pytest.raises(error) as exc:
        call()
    text = exc.value.args[0] if exc.value.args else ""
    assert text.startswith(message), text
