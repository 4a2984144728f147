"""Minimal mutually-unbiased-basis tomography for permutationally invariant qubits."""

from .errors import PimubError
from .gf2n import Field, FieldElement, make_field
from .mub import (
    BasisLabel,
    MubFamily,
    build_family,
    build_slope_basis,
    build_vertical,
    family_labels,
    slope_label,
    swap_covariance_report,
    unbiasedness_deviation,
    vertical_label,
)
from .operators import build_x, build_z, fourier, permute_label, swap_matrix
from .orbits import (
    LabelPoint,
    OrbitTable,
    enumerate_orbits,
    expand_probabilities,
    independent_count,
    minimal_bases,
)
from .tomography import (
    MeasurementRecord,
    PIStateSpec,
    exact_probabilities,
    fidelity,
    independent_parameter_count,
    multiplicity,
    project_physical,
    random_pi_state,
    reconstruct,
    sample_counts,
    trace_distance,
    twirl,
    unmeasured_pi_types,
)

__version__ = "0.1.0"

__all__ = [
    "Field",
    "FieldElement",
    "PimubError",
    "make_field",
    "BasisLabel",
    "MubFamily",
    "build_family",
    "build_slope_basis",
    "build_vertical",
    "family_labels",
    "slope_label",
    "swap_covariance_report",
    "unbiasedness_deviation",
    "vertical_label",
    "build_x",
    "build_z",
    "fourier",
    "permute_label",
    "swap_matrix",
    "LabelPoint",
    "OrbitTable",
    "enumerate_orbits",
    "expand_probabilities",
    "independent_count",
    "minimal_bases",
    "MeasurementRecord",
    "PIStateSpec",
    "exact_probabilities",
    "fidelity",
    "independent_parameter_count",
    "multiplicity",
    "project_physical",
    "random_pi_state",
    "reconstruct",
    "sample_counts",
    "trace_distance",
    "twirl",
    "unmeasured_pi_types",
    "__version__",
]
