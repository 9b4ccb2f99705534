"""Causal inference for spatiotemporal point patterns.

Point-process propensity models, counterfactual stochastic interventions, and
inverse-probability-weighted estimators of average, heterogeneous, and
mediated effects, with conservative variance bounds and a built-in
simulation oracle for validation.
"""

__version__ = "0.1.0"

from .errors import ConvergenceError, GeoCausalError, OverlapViolationError, RankDeficiencyError
from .geometry import (
    DECAY_DEFAULTS,
    DistanceMap,
    Raster,
    RasterGrid,
    Region,
    SpatialWindow,
    build_grid,
    decay_transform,
    distance_map,
    integrate_raster,
    normalize_raster,
)
from .patterns import (
    MarkedPointPattern,
    PatternSeries,
    PointPattern,
    SmoothingSpec,
    history_maps,
    kernel_smooth,
    prefix_series,
)
from .propensity import (
    FittedPropensity,
    IntensityModel,
    PropensityOptions,
    fit_diagnostics,
    fit_poisson_intensity,
    log_pattern_density,
    predict_intensity,
)
from .interventions import (
    InterventionPair,
    MediatorIntervention,
    PowerDensitySpec,
    TreatmentIntervention,
    incremental_shift,
    intensified,
    location_shift,
    log_intervention_density,
    power_density,
    sample_pattern,
)
from .effects import (
    EffectEstimate,
    SmoothedOutcomes,
    WeightSeries,
    compute_weight_series,
    effect_by_distance_band,
    effect_surface,
    estimate_ate,
    hajek_variance,
    variance_bound,
)
from .heterogeneity import (
    ModeratorPanel,
    PixelPartition,
    ProjectionBasis,
    ProjectionEstimate,
    average_projection,
    estimate_cate,
    pixel_effects,
    project_cate_t,
)
from .glm import natural_cubic_basis
from .mediation import (
    MediationEffects,
    MediatorScoreModel,
    StageSpec,
    auc_diagnostic,
    binary_tree,
    compute_mediation_weight_series,
    estimate_mediation_effects,
    fit_mediator_score,
    mediator_log_density,
    two_stage_tree,
)
from .simulate import (
    OracleResult,
    SyntheticDGP,
    expected_region_outcome,
    mc_oracle,
    oracle_effect,
    simulate_series,
)
from .validation import (
    EstimatorConfig,
    coverage_experiment,
    default_dgp,
    interior_region,
    true_pixel_effect_map,
)
