"""Exact monodromy-tuple census and surface geography of the families
supported by simple branched covers of the line.

The package enumerates transposition tuples with identity product and
transitive span, classifies the degenerations where two branch points
collide, evaluates the numerical invariants of the fibered surfaces the
families carry, and verifies the asymptotic thresholds, all in exact
arithmetic.
"""

from . import characters, covers, degeneration, reference
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
from .characters import connected_count, disconnected_count, partitions_of
from .covers import TupleCensus, class_count_via_oracle, cover_genus, validate_cover_shape
from .degeneration import DegenerationCensus, full_census
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
from .reference import (
    CentralProfile,
    CharacterTable,
    MonodromyTuple,
    NodeType,
    SplitProfile,
    TwistOrbitReport,
    are_conjugate,
    character_table,
    class_count,
    class_representatives,
    classify_node,
    count_tuples,
    full_twist,
    iter_tuples,
    refine_type_one,
    verify_twist_orbits,
)
from .version import TOOL_VERSION as __version__

# kept only for the benchmark, which binds or calls these names in the
# modules they lived in before they moved to gonalgeo.reference
covers.class_representatives = reference.class_representatives
covers.count_tuples = reference.count_tuples
degeneration.group_tables = reference.group_tables
degeneration.verify_twist_orbits = reference.verify_twist_orbits
characters.character_table = reference.character_table

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
    "census_path",
    "census_payload",
    "character_table",
    "class_count",
    "class_count_via_oracle",
    "class_representatives",
    "classify_node",
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
