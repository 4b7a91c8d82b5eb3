"""The package namespace: every re-exported name resolves, lazily, to the
very object in its submodule."""

import importlib

import pytest

import netquench

# The names netquench re-exports, by submodule.
EXPORTS = {
    "control": ["SelectionReport", "select_nodes", "tune_betas"],
    "dynamics": [
        "ConvergenceError", "NodeParams", "SpectralEstimate", "Trajectory", "linear_bound_step",
        "simulate", "sis_step", "spectral_radius", "zeta_vector",
    ],
    "enumeration": [
        "BigCount", "bollobas_regular_count_log", "catalan_asymptotic_log",
        "catalan_coefficient", "catalan_column", "connected_labeled_egf_log",
        "connected_labeled_riordan", "connected_labeled_table", "count_all_labeled_graphs",
        "count_labeled_graphs_with_edges", "unlabeled_regular_count_log",
        "wright_condition_value",
    ],
    "graphs": [
        "GenerationError", "Graph", "GraphParseError", "generate_barabasi_albert",
        "generate_erdos_renyi", "generate_random_regular", "generate_ring", "parse_edge_list",
        "read_graph", "write_graph",
    ],
    "oracles": [
        "brute_catalan", "brute_count_connected", "brute_count_regular",
        "dense_bound_matrix", "dense_spectral_radius", "non_infection_probability",
    ],
}
ALL_NAMES = [name for names in EXPORTS.values() for name in names]

# Exports that had no caller outside their own tests, or whose one caller
# unwrapped them at once, and were deleted.
DELETED = [
    "connected_component_count", "generate_complete", "GraphMask", "iter_graph_masks",
    "count_labelings", "stirling_log_factorial", "rarity_ratio_log",
    "verify_bound_inequality", "DegreeSequence", "serialize_edge_list",
    "classify_sigma", "connected_labeled_harary", "LogValue",
    "bollobas_degree_sequence_count_log",
]


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


@pytest.mark.parametrize("name", DELETED)
def test_deleted_name_raises(name):
    with pytest.raises(AttributeError, match=f"no attribute '{name}'"):
        getattr(netquench, name)
    assert name not in dir(netquench)
