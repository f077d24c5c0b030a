"""Routing schemes and a flow-level training-traffic simulator for 2-layer
Clos fabrics: greedy/ECMP/edge-coloring/annealing/exact path assignment,
max-min fair rate allocation, and a deterministic discrete-event engine."""

from .config import ConfigError, ScenarioConfig, build_jobs, default_config, load_config, parse_config
from .rates import RateAllocation, waterfill
from .routing import (
    SCHEME_NAMES,
    AnnealSchedule,
    PathChoice,
    anneal_assign,
    assign_by_scheme,
    decompose_components,
    ecmp_assign,
    edge_color_assign,
    exact_assign,
    greedy_assign,
    max_link_load,
    random_commodities,
    random_unit_instance,
    unit_commodities_for_pairs,
)
from .sim import (
    ControllerModel,
    FailurePlan,
    MetricsRecord,
    SimResult,
    run_scenario,
    stable_seed,
)
from .topology import (
    ClosTopology,
    Endpoint,
    Route,
    build_topology,
    fail_spines,
)
from .workload import (
    MODEL_CATALOG,
    CommoditySpec,
    HardwareModel,
    Job,
    ModelConfig,
    Ring,
    arrival_schedule,
    build_rings,
    compute_phase_duration,
    place_job,
    ring_allreduce_commodities,
)

__version__ = "0.1.0"
