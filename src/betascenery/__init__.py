"""Disintegration of self-similar measures and scenery-flow tooling for
checking pointwise normality in Pisot bases."""

from .algebraics import (
    AlgebraicNumber,
    BigReal,
    Dependent,
    ExactScalar,
    FieldElement,
    IndependentCertified,
    IntPolynomial,
    NumberField,
    is_pisot,
    isolate_real_roots,
    multiplicative_relation,
    named_constant,
    parse_scalar,
    scalar_to_str,
)
from .selfsimilar import (
    SeparatedPair,
    SimilarityIFS,
    SimilarityMap,
    find_separated_pair,
    sample_measure,
    sampling_depth,
)
from .model import (
    Model,
    ModelComponent,
    build_model,
    verify_ssc,
)
from .beta_numeration import (
    BetaBase,
    MapSpec,
    NormalityStatistic,
    OrbitRecord,
    OrbitUndecidable,
    ParryDensity,
    beta_orbit,
    normality_from_orbit,
    orbit_of_one,
    parry_density,
    pushforward_samples,
)
from .scenery import (
    ComparisonReport,
    ExtendedChain,
    Inconclusive,
    NormalityImplied,
    PANEL_VERSION,
    QSamples,
    SceneryOrbit,
    WindowMeasure,
    build_extended_chain,
    compare_scenery_to_Q,
    evaluate_panel,
    panel_average,
    panel_names,
    point_mass_window,
    rescale_model_for_gap,
    sample_Q,
    scenery_orbit,
    spectrum_obstruction,
)
from .rng import UniformStream, derive_key

__version__ = "0.1.0"
