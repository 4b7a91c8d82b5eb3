"""Byte pins on every file the package writes: one small fixed instance run
through save_params and the analyze, control and simulate commands, a
homogeneous ring simulated from two starts (every state one repeated value;
runs of exact zeros), a homogeneous 3-regular graph simulated from one
infected node (states of a few runs, of distinct values, and of a mix of
both), a tuned heterogeneous BA graph (states of distinct values spanning
several CSV chunks), each enum table at small sizes, and the edge lists of
every generator and of write_graph.  A digest changes only when an output
format changes on purpose."""

import hashlib

import numpy as np
import pytest

from netquench import cli
from netquench.dynamics import NodeParams, save_params
from netquench.graphs import Graph, write_graph

# node 0..7: a ring with chords 0-4 and 2-6; the params carry floats whose
# shortest repr is an exponent form (1e-05, 5e-324) or 17 digits
MU = [0.5, 0.30000000000000004, 1.0, 0.2, 0.25, 0.1, 0.6, 0.75]
BETA = [5e-324, 0.0001, 1e-05, 0.9, 0.30000000000000004, 0.5, 0.0, 1.0]
R = [1.0, 1.0, 0.5, 1.0, 1.0, 0.0001, 1.0, 0.125]
EDGES = [(i, (i + 1) % 8) for i in range(8)] + [(0, 4), (2, 6)]

PIPELINE_DIGESTS = {
    "params.csv": "8670f767141d54891ae929473974a30c6cc463d684d1c700abdd6d02a353037a",
    "report.csv": "f6bbee43108aa782c7ccf245c350e6eff26ebfdccbd85b03846bd62bef282805",
    "tuned.csv": "bd76d99ed6b444191fe8b60b3bffec16b4dda81693f94f96c5e5c3c92807a00d",
    "plan.csv": "41bf74694bf4d16e1aa5b2d8c2b3310a88248921c1d0b9c5f2d388a1ea090921",
    "trajectory.csv": "688baad01a73c8e4635b9e41a350f403b605907554947c70e18dcd570b8921eb",
}

# simulate on a homogeneous ring of RING_N nodes (mu = 0.8, beta = 0.3, r = 1)
RING_N = 300
RING_DIGESTS = {
    "uniform:0.25": "ac07ce5e44f423ed0514707e69572b93be4217c4ccb436ed9502ec105c7118f0",
    "single:0:1": "fcba307357d2d34808a35b23f02468bbd349d8e2bbba3c9b82ab7fc635a6898b",
}

# simulate on `generate regular --n 300 --r 3 --seed 5` (mu = 0.8, beta = 0.3,
# r = 1) from --p0 single:0:0.5: endemic after 424 steps; 244 of the 425
# states have more than n/2 runs of equal values, the rest fewer
REGULAR_SINGLE_DIGEST = "d9c228ae9d38673fab43019a86dfec311f3883c5b6ca58c1b7d1b90ac5128e55"

# simulate --tol 1e-2 on `generate ba --n 600 --m0 3 --m 2 --seed 7`, its
# params drawn from default_rng(7) (mu, beta, r in this order) and tuned by
# `control --kappa 0.9`: extinct after 41 steps; every state after the
# uniform start has more than n/2 runs, and each spans three CSV chunks
HETERO_N = 600
HETERO_DIGEST = "ec2555557970a51167d601d9f9136bf0de48ed2e233587c78c7006715f329184"

ENUM_TABLES = {
    "connected": (
        ["connected", "--pmax", "12"],
        "8842f278b5adb4ff8e8ef2e4bc89abfdbd28ec146f27c89c46c7fca95b05af4a",
    ),
    "all": (
        ["all", "--pmax", "10"],
        "0db27693da86b791649bd64c03de870b3bdc4b9bc9e7027758b97a9c6c4eb17f",
    ),
    "edges": (
        ["edges", "--p", "5"],
        "079314c2eb6a15447b314d8a924176786864df976b569835919aa0f9ac51e966",
    ),
    "regular-asym-d3": (
        ["regular-asym", "--degree", "3", "--nmax", "20"],
        "d28b5f573010e736ce274e1d5d85832408fc963a2934e4ef56dd010848e40a95",
    ),
    "regular-asym-d2": (
        ["regular-asym", "--degree", "2", "--nmax", "10"],
        "e5b7314d7b4e7ea9f928ec4678dc25726cce0836e10188e2762536b64c281094",
    ),
    "rarity-d3": (
        ["rarity", "--degree", "3", "--nmax", "20"],
        "06fed968807bf93b1c7b6c134b7b11a50c0d1b4d3246827c3a38fadc009574c9",
    ),
    "rarity-d1": (
        ["rarity", "--degree", "1", "--nmax", "10"],
        "510a866854eb2321a87c0db56d5dec6e228f323e9b353e8d1170b48df072d6a2",
    ),
    "catalan": (
        ["catalan", "--nmax", "30"],
        "d1b64d7e79a185f9bc6180989d4205d7e66d516cb8cffa69b6e14bcaabccd207",
    ),
    "wright": (
        ["wright", "--n", "6"],
        "0ae90930b13c0e1db52684ff802ad20b4d8101afda886d5bb57ebfb4e73d0627",
    ),
}


# generate <kind> ...; ba has more rows than one CSV_CHUNK
GENERATE_DIGESTS = {
    "ring": (["ring", "--n", "7"],
             "afe458951827b1aff7593c2f122e6a38d20722c79498707469c97caa89bf6957"),
    "regular": (["regular", "--n", "12", "--r", "3", "--seed", "5"],
                "be8c24cd6787d975015e141cb548187c51df601aa6b59c64b0562852979fcb36"),
    "ba": (["ba", "--n", "300", "--m0", "3", "--m", "2", "--seed", "7"],
           "422d086d86d8eb2fc30ef417b4f623bb4c20a75812d95a3188851b45cb758b78"),
    "er": (["er", "--n", "30", "--p", "0.2", "--seed", "3"],
           "d13ad6fe208396546d179506975bff629d5683da84646659e696d174fcb998af"),
}

# write_graph(Graph(n, edges)): pairs reversed, repeated and out of order
# in, one ``i j`` line per edge with i < j, sorted, out
WRITE_GRAPH_BYTES = {
    "empty": ((0, []), b"0\n"),
    "isolated": ((6, [(4, 1), (3, 1), (1, 4)]), b"6\n1 3\n1 4\n"),
    "no-edges": ((3, []), b"3\n"),
}


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_pipeline(d):
    """Write the instance into directory ``d``, run analyze, control and
    simulate on it there, and return their exit codes."""
    write_graph(Graph(8, EDGES), d / "g.edges")
    save_params(NodeParams(np.array(MU), np.array(BETA), np.array(R)), d / "params.csv")
    g, p = str(d / "g.edges"), str(d / "params.csv")
    return [
        cli.main(["analyze", "--graph", g, "--params", p, "--out", str(d / "r.json"),
                  "--report-csv", str(d / "report.csv")]),
        cli.main(["control", "--graph", g, "--params", p, "--params-out", str(d / "tuned.csv"),
                  "--plan-out", str(d / "plan.csv")]),
        cli.main(["simulate", "--graph", g, "--params", str(d / "tuned.csv"),
                  "--p0", "uniform:0.25", "--out", str(d / "trajectory.csv")]),
    ]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden")
    return d, run_pipeline(d)


def test_pipeline_runs(pipeline):
    _, codes = pipeline
    assert codes == [0, 0, 0]


@pytest.mark.parametrize("name", sorted(PIPELINE_DIGESTS))
def test_pipeline_csv_bytes(pipeline, name):
    d, _ = pipeline
    assert sha256(d / name) == PIPELINE_DIGESTS[name]


@pytest.mark.parametrize("p0", sorted(RING_DIGESTS))
def test_homogeneous_ring_trajectory_bytes(tmp_path, p0):
    ring = Graph(RING_N, [(i, (i + 1) % RING_N) for i in range(RING_N)])
    write_graph(ring, tmp_path / "g.edges")
    save_params(NodeParams.homogeneous(RING_N, 0.8, 0.3, 1.0), tmp_path / "params.csv")
    out = tmp_path / "trajectory.csv"
    assert cli.main(["simulate", "--graph", str(tmp_path / "g.edges"),
                     "--params", str(tmp_path / "params.csv"), "--p0", p0,
                     "--out", str(out)]) == 0
    assert sha256(out) == RING_DIGESTS[p0]


def test_regular_trajectory_from_one_node_bytes(tmp_path):
    edges, params, out = (str(tmp_path / name) for name in ("g.edges", "params.csv", "t.csv"))
    assert cli.main(["generate", "regular", "--n", "300", "--r", "3", "--seed", "5",
                     "--out", edges]) == 0
    save_params(NodeParams.homogeneous(300, 0.8, 0.3, 1.0), params)
    assert cli.main(["simulate", "--graph", edges, "--params", params,
                     "--p0", "single:0:0.5", "--out", out]) == 0
    assert sha256(tmp_path / "t.csv") == REGULAR_SINGLE_DIGEST


def test_tuned_heterogeneous_trajectory_bytes(tmp_path):
    edges, params, tuned, out = (str(tmp_path / name)
                                 for name in ("g.edges", "params.csv", "tuned.csv", "t.csv"))
    assert cli.main(["generate", "ba", "--n", str(HETERO_N), "--m0", "3", "--m", "2",
                     "--seed", "7", "--out", edges]) == 0
    rng = np.random.default_rng(7)
    save_params(NodeParams(rng.uniform(0.1, 1, HETERO_N), rng.uniform(0.01, 0.3, HETERO_N),
                           rng.uniform(0.2, 1, HETERO_N)), params)
    assert cli.main(["control", "--graph", edges, "--params", params, "--kappa", "0.9",
                     "--params-out", tuned, "--plan-out", str(tmp_path / "plan.csv")]) == 0
    assert cli.main(["simulate", "--graph", edges, "--params", tuned, "--tol", "1e-2",
                     "--out", out]) == 0
    assert sha256(tmp_path / "t.csv") == HETERO_DIGEST


@pytest.mark.parametrize("name", sorted(ENUM_TABLES))
def test_enum_table_bytes(tmp_path, name):
    args, digest = ENUM_TABLES[name]
    out = tmp_path / "table.csv"
    assert cli.main(["enum", *args, "--out", str(out)]) == 0
    assert sha256(out) == digest


@pytest.mark.parametrize("kind", sorted(GENERATE_DIGESTS))
def test_generate_edge_list_bytes(tmp_path, kind):
    args, digest = GENERATE_DIGESTS[kind]
    out = tmp_path / "g.edges"
    assert cli.main(["generate", *args, "--out", str(out)]) == 0
    assert sha256(out) == digest


@pytest.mark.parametrize("name", sorted(WRITE_GRAPH_BYTES))
def test_write_graph_bytes(tmp_path, name):
    (n, edges), expected = WRITE_GRAPH_BYTES[name]
    write_graph(Graph(n, edges), tmp_path / "g.edges")
    assert (tmp_path / "g.edges").read_bytes() == expected
