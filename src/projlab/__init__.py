"""Desk-scale toolkit for worst-case planar projections.

Covering numbers of projected point sets, the direction sets where
projections are small, point-tube incidence counting, the exact
slope-grid worst-case construction, and dyadic entropy of projected
measures, with every exact statement hard-verified and every
constant-free bound reported as a measured ratio.
"""

from .core import (
    Direction,
    InvalidParameterError,
    ParamTriple,
    Scale,
    direction_grid,
    perpendicular_direction,
)
from .entropy import (
    ADRegularityReport,
    DyadicMeasure,
    EntropyValue,
    ad_regularity_check,
    conditional_entropy,
    covering_from_entropy,
    entropy,
    from_pointset,
    marstrand_average,
    multiscale_check,
    project_measure,
    read_dmeas,
    theorem_main2_experiment,
    write_dmeas,
)
from .incidence import (
    IncidenceCount,
    TubeFamily,
    build_tubes,
    count_incidences,
    upper_bound_report,
)
from .pointsets import (
    LatticePointSet,
    ParseError,
    extract_delta_one_set,
    gen_four_corners,
    gen_grid_example,
    gen_segment,
    grid_parameters,
    read_pset,
    write_pset,
)
from .projections import (
    DirectionSetES,
    ProjectionProfile,
    compute_E_s,
    covering_number_1d,
    covering_number_directions,
    project,
)
from .records import ExperimentRecord, records_to_csv
from .sharpness import (
    SharpnessReport,
    build_slope_set,
    count_line_hits,
    projected_cardinality,
    run_sharpness,
    verify_separation,
)

__version__ = "0.1.0"

__all__ = [
    "ADRegularityReport",
    "Direction",
    "DirectionSetES",
    "DyadicMeasure",
    "EntropyValue",
    "ExperimentRecord",
    "IncidenceCount",
    "InvalidParameterError",
    "LatticePointSet",
    "ParamTriple",
    "ParseError",
    "ProjectionProfile",
    "Scale",
    "SharpnessReport",
    "TubeFamily",
    "ad_regularity_check",
    "build_slope_set",
    "build_tubes",
    "compute_E_s",
    "conditional_entropy",
    "count_incidences",
    "count_line_hits",
    "covering_from_entropy",
    "covering_number_1d",
    "covering_number_directions",
    "direction_grid",
    "entropy",
    "extract_delta_one_set",
    "from_pointset",
    "gen_four_corners",
    "gen_grid_example",
    "gen_segment",
    "grid_parameters",
    "marstrand_average",
    "multiscale_check",
    "perpendicular_direction",
    "project",
    "project_measure",
    "projected_cardinality",
    "read_dmeas",
    "read_pset",
    "records_to_csv",
    "run_sharpness",
    "theorem_main2_experiment",
    "upper_bound_report",
    "verify_separation",
    "write_dmeas",
    "write_pset",
]
