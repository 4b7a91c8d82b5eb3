"""The package namespace: every re-exported name resolves, lazily, to the
very object in its submodule."""

import importlib

import pytest

import netquench

# The names netquench re-exports, by submodule.
EXPORTS = {
    "control": ["SelectionReport", "select_nodes", "tune_betas"],
    "dynamics": [
        "ConvergenceError", "NodeParams", "SpectralEstimate", "Trajectory", "classify_sigma",
        "linear_bound_step", "simulate", "sis_step", "spectral_radius",
        "verify_bound_inequality", "zeta_vector",
    ],
    "enumeration": [
        "BigCount", "LogValue", "bollobas_degree_sequence_count_log",
        "bollobas_regular_count_log", "catalan_asymptotic_log", "catalan_coefficient",
        "catalan_column", "connected_labeled_egf_log", "connected_labeled_harary",
        "connected_labeled_riordan", "connected_labeled_table", "count_all_labeled_graphs",
        "count_labeled_graphs_with_edges", "count_labelings", "rarity_ratio_log",
        "stirling_log_factorial", "unlabeled_regular_count_log", "wright_condition_value",
    ],
    "graphs": [
        "DegreeSequence", "GenerationError", "Graph", "GraphParseError",
        "connected_component_count", "generate_barabasi_albert", "generate_complete",
        "generate_erdos_renyi", "generate_random_regular", "generate_ring", "parse_edge_list",
        "read_graph", "serialize_edge_list", "write_graph",
    ],
    "oracles": [
        "GraphMask", "brute_catalan", "brute_count_connected", "brute_count_regular",
        "dense_bound_matrix", "dense_spectral_radius", "iter_graph_masks",
        "non_infection_probability",
    ],
}
ALL_NAMES = [name for names in EXPORTS.values() for name in names]


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_each_name_is_the_submodule_object(module):
    source = importlib.import_module(f"netquench.{module}")
    for name in EXPORTS[module]:
        namespace = {}
        exec(f"from netquench import {name}", namespace)
        assert getattr(netquench, name) is getattr(source, name), name
        assert namespace[name] is getattr(source, name), name


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_submodule_attribute_is_the_submodule(module):
    assert getattr(netquench, module) is importlib.import_module(f"netquench.{module}")


def test_dir_and_star_import_list_every_name():
    assert set(ALL_NAMES) <= set(dir(netquench))
    namespace = {}
    exec("from netquench import *", namespace)
    assert set(ALL_NAMES) <= set(namespace)
    assert netquench.__version__ == "0.1.0"


def test_unknown_name_raises():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        netquench.no_such_name
    with pytest.raises(ImportError):
        exec("from netquench import no_such_name", {})
