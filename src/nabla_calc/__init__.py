"""Connection calculus, covariant Sobolev norms, and operator identity checks
on chart grids."""

from .errors import (
    ChartMismatch,
    ConfigError,
    DegenerateEmbedding,
    EmptyCovering,
    ExponentMismatch,
    IoError,
    NablaCalcError,
    NonadmissibleWeight,
    NonpositiveWeight,
    ResolutionError,
    ShapeMismatch,
    SingularMetric,
    SupportViolation,
)
from .grid import ChartGrid
from .geometry import MetricField, WeightPair, conformal_rescale
from .bundles import BundleSpec, TensorSection, magnetic_example_bundle
from .calculus import (
    covariant_derivative,
    curvature,
    directional_derivative,
    divergence,
    multiindex_derivative,
    tower,
)
from .norms import (
    covering_multiplicity,
    covering_norm,
    equivalence_constant,
    lp_norm,
    multiplication_constant,
    sobolev_norm,
    weighted_sobolev_norm,
)
from .generators import (
    EmbeddingSpec,
    GeneratorSystem,
    build_generators,
    divergence_via_generators,
    generator_sobolev_norm,
    graph_embedding,
    identity_embedding,
    nabla_via_generators,
    polar_isometrize,
    random_embedding,
    sphere_ambient_embedding,
    structure_functions,
)
from .operators import (
    MixedOpSpec,
    MixedTerm,
    NablaOpSpec,
    apply_mixed_op,
    apply_nabla_op,
    coefficient_infty_norm,
    compose,
    gradient_op,
    identity_op,
    mapping_constant,
    mixed_to_nabla,
    multiplication_op,
    nabla_to_mixed,
    reorder_generators,
)
from .bidiff import (
    BidiffSpec,
    assemble_divergence_form,
    bidiff_from_ops,
    dirichlet_form,
    eval_bidiff,
    l2_pairing,
    weighted_pairings,
)
from .reports import Report, emit_report
from .scenarios import (
    Scenario,
    build_context,
    builtin_scenario,
    list_builtins,
    parse_scenario,
    run_scenario,
)

__version__ = "0.1.0"
