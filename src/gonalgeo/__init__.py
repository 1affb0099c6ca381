"""Exact monodromy-tuple census and surface geography of the families
supported by simple branched covers of the line.

The package enumerates transposition tuples with identity product and
transitive span, classifies the degenerations where two branch points
collide, evaluates the numerical invariants of the fibered surfaces the
families carry, and verifies the asymptotic thresholds, all in exact
arithmetic.
"""

from .asymptotics import (
    ConjecturedEstimates,
    DeltaCertificate,
    GonalityCase,
    PlaneCurveBase,
    ThresholdReport,
    delta_search,
    maximal_gonality,
    positivity_threshold,
    threshold_polynomial,
)
from .cache import (
    census_path,
    census_payload,
    load_or_compute,
    read_census,
    resolve_cache_dir,
    write_census,
)
from .characters import (
    CharacterTable,
    character_table,
    connected_count,
    disconnected_count,
    partitions_of,
)
from .covers import (
    MonodromyTuple,
    TupleCensus,
    are_conjugate,
    canonical_form,
    class_count,
    class_count_via_oracle,
    class_representatives,
    conjugate_tuple,
    count_tuples,
    cover_genus,
    iter_tuples,
    validate_cover_shape,
)
from .degeneration import (
    CentralProfile,
    DegenerationCensus,
    NodeType,
    SplitProfile,
    TwistOrbitReport,
    classify_node,
    full_census,
    full_twist,
    refine_type_one,
    verify_twist_orbits,
)
from .errors import (
    BudgetExceeded,
    CapacityError,
    GonalGeoError,
    InvariantViolation,
    ParameterError,
)
from .invariants import (
    AuditReport,
    FamilyParams,
    SurfaceInvariants,
    audit_chain,
    genus_y,
    rational_payload,
    surface_invariants,
)
from .version import TOOL_VERSION as __version__

__all__ = [
    "AuditReport",
    "BudgetExceeded",
    "CapacityError",
    "CentralProfile",
    "CharacterTable",
    "ConjecturedEstimates",
    "DegenerationCensus",
    "DeltaCertificate",
    "FamilyParams",
    "GonalGeoError",
    "GonalityCase",
    "InvariantViolation",
    "MonodromyTuple",
    "NodeType",
    "ParameterError",
    "PlaneCurveBase",
    "SplitProfile",
    "SurfaceInvariants",
    "ThresholdReport",
    "TupleCensus",
    "TwistOrbitReport",
    "__version__",
    "are_conjugate",
    "audit_chain",
    "canonical_form",
    "census_path",
    "census_payload",
    "character_table",
    "class_count",
    "class_count_via_oracle",
    "class_representatives",
    "classify_node",
    "conjugate_tuple",
    "connected_count",
    "count_tuples",
    "cover_genus",
    "delta_search",
    "disconnected_count",
    "full_census",
    "full_twist",
    "genus_y",
    "iter_tuples",
    "load_or_compute",
    "maximal_gonality",
    "partitions_of",
    "positivity_threshold",
    "rational_payload",
    "read_census",
    "refine_type_one",
    "resolve_cache_dir",
    "surface_invariants",
    "threshold_polynomial",
    "validate_cover_shape",
    "verify_twist_orbits",
    "write_census",
]
