"""Numerical operator calculus on weighted restricted products.

Weighted sup-seminorms on sampled maps, exact multilinear operator norms,
superposition / composition / inversion operators with margin-accounted
check reports, finite-family restricted products with simultaneous
operators, and a seeded verification suite.
"""

from .errors import WrpError
from .jets import (
    JetMap,
    MultilinearMap,
    curry_last,
    fd_tensors,
    op_norm,
    uncurry_last,
)
from .operators import (
    ContractionConfig,
    SuperpositionOperand,
    compose_perturbed,
    gated_inverse,
    invert_perturbed,
    quasi_inverses,
    superpose,
    weak_integral,
)
from .report import CheckReport
from .restricted import (
    FactorSpace,
    FamilySeminorm,
    RestrictedElement,
    family_seminorm,
    sim_compose,
    sim_invert,
    sim_multilinear,
    sim_multiply,
    sim_power_series,
    sim_superpose,
)
from .seminorms import (
    SampleGrid,
    SeminormValue,
    WeightedFunction,
    lattice,
    refine,
    weighted_seminorm,
)
from .spaces import (
    DomainSet,
    DominanceCertificate,
    FamilyWeight,
    NormedSpaceDesc,
    Weight,
    WeightFamily,
    ball,
    box,
    check_adjusting_weight,
    check_dominance_certificate,
)
from .verify import (
    ALL_CHECK_IDS,
    CHECK_REGISTRY,
    FamilyScenario,
    ScenarioSeed,
    ScenarioUnit,
    generate_scenario,
    run_scenario_checks,
    run_suite,
)

__version__ = "0.1.0"
