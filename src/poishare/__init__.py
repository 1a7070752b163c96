"""Solvers and benchmark harness for social-enhanced sharing of
point-of-interest information over paired sensing/social graphs."""

from .errors import CrosscheckError, InfeasibleError, InputError, PoiShareError
from .io import dumps_instance, load_instance, loads_instance, save_instance
from .model import (
    Instance,
    PreferenceProfile,
    Selection,
    SensingGraph,
    SocialGraph,
    Walk,
    WalkSet,
    incident_edges,
    social_neighborhood,
    validate,
)
from .welfare import (
    CoverageState,
    WelfareBreakdown,
    broadcast_breakdown,
    evaluate_selection,
    marginal_gain,
    phi_empty_matrix,
    phi_preferences_matrix,
    phi_selection_matrix,
    phi_set_oracle,
    phi_walks,
    phi_walks_matrix,
    phi_walks_set,
    sensing_matrix,
    social_matrix,
)
from .static_solver import (
    StaticResult,
    brute_force_static,
    gus,
    max_coverage_baseline,
    phi_empty,
    static_bound,
    ub1,
    vcp_reduction_instance,
)
from .mobile_solver import (
    MobileResult,
    WalkSpace,
    adjust_walk_set,
    adjusted_gps,
    brute_force_mobile,
    enumerate_walks,
    gps,
    intermediate_solution,
    mobile_bound,
    mobile_reduction_instance,
    reduction_tail_walk,
    reduction_tail_walks,
    ub2,
)
from .pipeline import (
    BoundingBox,
    CheckIn,
    GenSpec,
    build_roads,
    cluster_locations,
    filter_bbox,
    haversine_km,
    ingest_instance,
    parse_checkins,
    synth_instance,
    synth_social,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
