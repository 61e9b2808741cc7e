"""Percolation-coupled SIR outbreaks on random graphs, with a constant-size
local ball-query estimator of outbreak probability and relative size."""

__version__ = "0.1.0"

from .graph import (
    ComponentStats,
    ExpansionCapError,
    ExpansionReport,
    Graph,
    GraphError,
    bfs_distances,
    build_graph,
    check_graphical,
    components,
    edge_boundary,
    expansion_exact,
    expansion_heuristic,
    load_edge_list,
    masked_spread,
    reach_size,
    save_edge_list,
    vertex_boundary,
)
from .generators import (
    GeneratorError,
    GenSpec,
    Motif,
    MotifDistribution,
    OverlayResult,
    gen_cm_simple,
    gen_k_regular,
    gen_motif_overlay,
    gen_pa,
    gen_two_block,
)
from .percolation import (
    BridgeReport,
    EdgeMask,
    FixedPointError,
    GiantFractionResult,
    SurvivalCurve,
    degree_law_from_dict,
    giant_fraction,
    percolate,
    percolation_uniforms,
    pivotal_bridge_report,
    survival_curve_analytic,
    survival_curve_empirical,
    survival_fixed_point_cm,
)
from .epidemic import (
    EstimatorReport,
    OutbreakHistogram,
    OutbreakRecord,
    TransmissionParams,
    adaptive_estimate,
    estimate,
    estimate_degree_biased,
    lambda_to_p,
    local_query,
    outbreak_histogram,
    run_sir,
    run_sir_with_mask,
)
from .oracle import (
    ExactLaw,
    OracleCapError,
    exact_component_distribution,
    exact_outbreak_distribution,
    exact_zeta_k,
)
from .harness import ConfigError, ExperimentConfig, run_experiment
from .seeds import rng_for, substream_seed

__all__ = [name for name in dir() if not name.startswith("_")]
