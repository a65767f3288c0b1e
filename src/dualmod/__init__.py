"""Dual-modular density decomposition toolkit.

An instance pairs a finite ground set with a supermodular reward f and a
submodular, strictly monotone cost g.  This package computes the exact
density decomposition of such instances, verifies market-fairness
characterisations of allocations, approximates the density vector with
sorting-oracle iterative methods, and analyses the induced principal-agent
contract problem.
"""

from .kinds import (
    ComplementOf,
    ConcaveOfCardinality,
    EdgesInside,
    ExplicitTable,
    Linear,
    Marginal,
    Perturbed,
    Scaled,
    SetFunctionSpec,
)
from .instance import (
    DualModularInstance,
    Extremes,
    GroundSet,
    extremes,
    normalize,
    residual_instance,
)
from .structure import StructureReport, complement_instance, verify_dual_modularity
from .files import instance_from_json, instance_to_json, load_instance
from .permutation import (
    Allocation,
    MembershipReport,
    Permutation,
    WeightedPermutationList,
    allocation_from_mixture,
    check_base_membership,
    induced_densities,
    sort_by_density,
    vertex,
)
from .decomposition import (
    DensityDecomposition,
    density_decomposition,
    maximal_densest_subset,
    optimal_objective,
)
from .divergence import (
    EISENBERG_GALE,
    ENTROPY_KL,
    QUADRATIC,
    STRICTLY_CONVEX_KINDS,
    DivergenceKind,
    EisenbergGale,
    EntropyKL,
    HockeyStick,
    Quadratic,
    divergence,
    hockey_stick_sup_form,
    kind_from_string,
    objective,
)
from .fairness import (
    EquivalenceReport,
    MaximinReport,
    equivalence_report,
    is_locally_maximin,
    lex_compare,
)
from .solver import (
    ErrorBounds,
    SolverConfig,
    SolverTrace,
    error_bounds,
    final_iterate,
    frank_wolfe,
    partial_derivative,
    solve,
)
from .contracts import (
    ContractAnalysis,
    analyze_contracts,
    best_response,
    contract_at,
    critical_values,
    duality_gap,
    two_tier_instance,
)
from . import errors

__version__ = "0.1.0"
