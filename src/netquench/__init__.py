"""netquench: SIS epidemic thresholds on undirected networks, Gerschgorin
control-node selection, and exact/asymptotic labeled-graph enumeration."""

from .control import SelectionReport, select_nodes, tune_betas
from .dynamics import (
    ConvergenceError,
    NodeParams,
    SpectralEstimate,
    Trajectory,
    classify_sigma,
    linear_bound_step,
    simulate,
    sis_step,
    spectral_radius,
    verify_bound_inequality,
    zeta_vector,
)
from .enumeration import (
    BigCount,
    LogValue,
    bollobas_degree_sequence_count_log,
    bollobas_regular_count_log,
    catalan_asymptotic_log,
    catalan_coefficient,
    connected_labeled_egf_log,
    connected_labeled_harary,
    connected_labeled_riordan,
    connected_labeled_table,
    count_all_labeled_graphs,
    count_labeled_graphs_with_edges,
    count_labelings,
    rarity_ratio_log,
    stirling_log_factorial,
    unlabeled_regular_count_log,
    wright_condition_value,
)
from .graphs import (
    DegreeSequence,
    GenerationError,
    Graph,
    GraphParseError,
    connected_component_count,
    generate_barabasi_albert,
    generate_complete,
    generate_erdos_renyi,
    generate_random_regular,
    generate_ring,
    parse_edge_list,
    read_graph,
    serialize_edge_list,
    write_graph,
)
from .oracles import (
    GraphMask,
    brute_catalan,
    brute_count_connected,
    brute_count_regular,
    dense_bound_matrix,
    dense_spectral_radius,
    iter_graph_masks,
    non_infection_probability,
)

__version__ = "0.1.0"
