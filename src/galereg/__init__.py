"""Exact invariants of codimension-2 lattice ideals.

Decide, for the toric/lattice ideal of a rank-2 homogeneous integer
lattice: degree, Castelnuovo-Mumford regularity, complete-intersection
and Cohen-Macaulay status, and whether the regularity attains the
maximal value degree - 1.  Includes the finite searches that classify
the extremal cases and a JSON-emitting command line tool.
"""

from .errors import (
    AmbientTooSmall,
    BadInput,
    Degenerate,
    DegreeOne,
    GaleregError,
    GcdNotOne,
    InternalInconsistency,
    NotAllQuadrants,
    NotHomogeneous,
    NotIncreasing,
    NotSaturated,
    PreconditionCI,
    PreconditionCM,
    PreconditionNotBalanced,
    PreconditionNotCM,
    PreconditionNotCMnonCI,
    PreconditionShape,
    PreconditionUnbalancedPair,
    RankDeficient,
    Unbounded,
    UnknownSearch,
    WrongRank,
)
from .zlattice import (
    Lattice,
    gale_equivalent,
    is_nondegenerate,
    is_saturated,
    kernel_lattice,
    lattice_from_basis,
    lattice_from_gale,
    minor_gcd,
    permutation_canonical_key,
    strip_zero_coordinates,
    transform_lattice,
)
from .fiberhom import (
    BettiEntry,
    BettiTable,
    FiberClass,
    Polygon,
    betti_horizon,
    betti_table,
    degree_and_regularity,
    degree_and_regularity_of_span,
    fiber_of,
    hilbert_degree,
    hilbert_function,
    hilbert_numerator,
    polygon_of,
    reg_deg_via_hilbert,
    regularity_from_numerator,
)

from .quadrangle import (
    SyzygyQuadrangle,
    enumerate_syzygy_quadrangles,
    is_cohen_macaulay,
    is_complete_intersection,
    normalize_unit_square,
    regularity_fast,
)
from .reduction import (
    ReductionDatum,
    SimpleWitness,
    SupportSets,
    degree_drop_one,
    degree_preserved,
    enumerate_partitions,
    find_reg_eq_deg_partition,
    halfspace_witness,
    is_perfectly_balanced,
    is_simple,
    new_quadrangle,
    reduced_gale,
    support_sets,
)
from .classify import (
    MAXIMAL_CI_DIAGRAMS,
    CmMaximalityReport,
    CurveSpec,
    MaximalRegularityVerdict,
    classify_cm_nonci,
    classify_maximal,
    classify_monomial_curve,
    cm_char0_criterion,
    koszul_reg_deg,
    match_family_forms,
    matches_n4_maximal_form,
    matches_reg_eq_deg_form,
)
from .searches import (
    CM_NONCI_DIAGRAMS,
    SearchReport,
    SweepReport,
    check_golden,
    consistency_sweep,
    load_golden,
    run_search,
    search_ci_table,
    search_cm_nonci,
    sweep_orbits,
    write_golden,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
