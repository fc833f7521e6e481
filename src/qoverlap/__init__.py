"""Two-qubit state distances, three independent ways.

The spectral oracle (:mod:`qoverlap.oracle`) computes fidelity bounds,
trace distance and Hilbert-Schmidt distance from eigendecompositions.
The overlap route (:mod:`qoverlap.overlaps`) reaches the same numbers
through contractions of the two states' Pauli correlation matrices.  The
interferometric route (:mod:`qoverlap.interferometer`) estimates them
from simulated singlet-projection statistics on multiple state copies,
using graph-probability representations rederived in
:mod:`qoverlap.derive`.  Agreement of all three is the package's
standing self-test.
"""
from .core import (
    __version__,
    bloch_vector,
    from_correlation,
    partial_trace,
    purity,
    random_state,
    random_unitary,
    to_correlation,
    validate_density,
)
from .derive import (
    Claim,
    ClaimReport,
    CoefficientVector,
    MonomialBasis,
    ResidualError,
    build_basis,
    derive_targets,
    fit_coefficients,
    measurement_forms,
    verify_table_claims,
)
from .graphs import (
    MeasurementGraph,
    dedup_report,
    enumerate_classes,
    enumerate_matchings,
    probability_batch,
    probability_exact,
)
from .interferometer import (
    ConfigurationPlan,
    EstimationReport,
    estimate_distances,
    graph_probability,
    pattern_distribution,
    plan_configurations,
)
from .oracle import (
    DistanceSet,
    distance_set,
    fidelity,
    hilbert_schmidt,
    overlap,
    sub_super_fidelity,
    trace_distance,
)
from .overlaps import (
    MomentSet,
    OverlapSet,
    distances_from_overlaps,
    moments,
    moments_from_overlaps,
    overlap_set,
    trace_distance_via_moments,
)
from .statefile import load_state, save_state

__all__ = [
    "__version__",
    "bloch_vector",
    "from_correlation",
    "partial_trace",
    "purity",
    "random_state",
    "random_unitary",
    "to_correlation",
    "validate_density",
    "Claim",
    "ClaimReport",
    "CoefficientVector",
    "MonomialBasis",
    "ResidualError",
    "build_basis",
    "derive_targets",
    "fit_coefficients",
    "measurement_forms",
    "verify_table_claims",
    "MeasurementGraph",
    "dedup_report",
    "enumerate_classes",
    "enumerate_matchings",
    "probability_batch",
    "probability_exact",
    "ConfigurationPlan",
    "EstimationReport",
    "estimate_distances",
    "graph_probability",
    "pattern_distribution",
    "plan_configurations",
    "DistanceSet",
    "distance_set",
    "fidelity",
    "hilbert_schmidt",
    "overlap",
    "sub_super_fidelity",
    "trace_distance",
    "MomentSet",
    "OverlapSet",
    "distances_from_overlaps",
    "moments",
    "moments_from_overlaps",
    "overlap_set",
    "trace_distance_via_moments",
    "load_state",
    "save_state",
]
