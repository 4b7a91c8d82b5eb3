"""netquench: SIS epidemic thresholds on undirected networks, Gerschgorin
control-node selection, and exact/asymptotic labeled-graph enumeration.

Submodules load on first use (PEP 562): ``import netquench`` imports none of
them, so the counting path starts without numpy.  Each name below resolves,
as ``netquench.<name>`` or ``from netquench import <name>``, to the object in
its submodule; each submodule name resolves to the submodule.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "control": ("SelectionReport", "select_nodes", "tune_betas"),
    "dynamics": (
        "ConvergenceError", "NodeParams", "SpectralEstimate", "Trajectory", "classify_sigma",
        "linear_bound_step", "simulate", "sis_step", "spectral_radius",
        "verify_bound_inequality", "zeta_vector",
    ),
    "enumeration": (
        "BigCount", "LogValue", "bollobas_degree_sequence_count_log",
        "bollobas_regular_count_log", "catalan_asymptotic_log", "catalan_coefficient",
        "catalan_column", "connected_labeled_egf_log", "connected_labeled_harary",
        "connected_labeled_riordan", "connected_labeled_table", "count_all_labeled_graphs",
        "count_labeled_graphs_with_edges", "count_labelings", "rarity_ratio_log",
        "stirling_log_factorial", "unlabeled_regular_count_log", "wright_condition_value",
    ),
    "graphs": (
        "DegreeSequence", "GenerationError", "Graph", "GraphParseError",
        "connected_component_count", "generate_barabasi_albert", "generate_complete",
        "generate_erdos_renyi", "generate_random_regular", "generate_ring", "parse_edge_list",
        "read_graph", "serialize_edge_list", "write_graph",
    ),
    "oracles": (
        "GraphMask", "brute_catalan", "brute_count_connected", "brute_count_regular",
        "dense_bound_matrix", "dense_spectral_radius", "iter_graph_masks",
        "non_infection_probability",
    ),
    "textio": (),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = [*_EXPORTS, *_SOURCE]


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name in _SOURCE:
        return getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_SOURCE})
