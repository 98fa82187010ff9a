"""Quasi random geometric graph topologies, exact min-cut multicast capacity,
concentration-bound evaluation, and random linear network coding checks."""

__version__ = "0.1.0"

# The package root exports the README quickstart and the names the tests and
# the benchmark import; every other name is reached through its module.
from .bounds import (
    cut_tail_bound,
    expected_cut_capacity,
    full_report,
    lower_bound_report,
    upper_bound_report,
)
from .graph import (
    ConnectivityGraph,
    build_connectivity_graph,
    cut_capacity,
    edge_disjoint_paths,
    from_edges,
    graph_from_json,
    graph_to_json,
    load_graph,
    min_cut,
    multicast_capacity,
    save_graph,
)
from .model import (
    ConnectionModel,
    connection_probability,
    effective_annulus_p,
    kernel_probability,
    p_prime_bounds,
    sample_points,
    unit_square_distance_cdf,
)
from .experiment import (
    ExperimentConfig,
    audit_bounds,
    run_experiment,
    run_sweep,
    run_trial,
)
from .rlnc import build_coding_dag, verify_achievability
from .rng import RandomStream
from .svgplot import histogram_svg
