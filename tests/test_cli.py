import json
import math
import os
import tracemalloc

import numpy as np
import pytest

from netquench import cli, dynamics, enumeration, graphs, oracles
from netquench import control as control_module
from netquench.dynamics import NodeParams, load_params, save_params
from netquench.graphs import Graph, generate_random_regular, generate_ring, read_graph, write_graph


@pytest.fixture
def star9_files(tmp_path):
    g = Graph(10, [(0, i) for i in range(1, 10)])
    graph_path = tmp_path / "star.edges"
    params_path = tmp_path / "params.csv"
    write_graph(g, graph_path)
    save_params(NodeParams.homogeneous(10, 0.5, 0.2, 1.0), params_path)
    return graph_path, params_path


def read_csv_rows(path):
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


class TestGenerate:
    def test_ring(self, tmp_path):
        out = tmp_path / "ring.edges"
        assert cli.main(["generate", "ring", "--n", "6", "--out", str(out)]) == 0
        g = read_graph(out)
        assert g.n == 6 and g.num_edges == 6

    def test_regular_parity_failure(self, tmp_path, capsys):
        out = tmp_path / "bad.edges"
        code = cli.main(["generate", "regular", "--n", "5", "--r", "3", "--out", str(out)])
        assert code == 1
        assert "parity" in capsys.readouterr().err

    def test_ba_edge_count(self, tmp_path):
        out = tmp_path / "ba.edges"
        args = ["generate", "ba", "--n", "100", "--m0", "3", "--m", "2",
                "--seed", "7", "--out", str(out)]
        assert cli.main(args) == 0
        assert read_graph(out).num_edges == 197

    def test_er_smoke(self, tmp_path):
        out = tmp_path / "er.edges"
        assert cli.main(["generate", "er", "--n", "30", "--p", "0.2",
                         "--seed", "3", "--out", str(out)]) == 0
        assert read_graph(out).n == 30

    @pytest.mark.parametrize("kind,flag", [("regular", "r"), ("ba", "m0"), ("er", "p")])
    def test_missing_generator_option_is_an_error(self, tmp_path, capsys, kind, flag):
        out = tmp_path / "g.edges"
        assert cli.main(["generate", kind, "--n", "10", "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: generate {kind} needs --{flag}\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv,flag", [
        ("ring --n 5 --m 3 --p 0.9 --r 7 --seed 4", "r"),
        ("ring --n 6 --seed 0", "seed"),
        ("regular --n 12 --r 3 --m 2 --seed 1", "m"),
        ("ba --n 10 --r 3 --m 2", "r"),  # named before the missing --m0
        ("er --n 10 --p 0.2 --m0 3", "m0"),
    ], ids=["every-option", "ring", "regular", "ba", "er"])
    def test_foreign_generator_option_is_an_error(self, tmp_path, capsys, argv, flag):
        out = tmp_path / "g.edges"
        assert cli.main(["generate", *argv.split(), "--out", str(out)]) == 1
        kind = argv.split()[0]
        assert capsys.readouterr().err == f"error: generate {kind} does not take --{flag}\n"
        assert not out.exists()

    def test_reproducible_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.edges", tmp_path / "b.edges"
        for out in (a, b):
            cli.main(["generate", "regular", "--n", "12", "--r", "3",
                      "--seed", "5", "--out", str(out)])
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("kind", ["ring --n 7", "ba --n 300 --m0 3 --m 2 --seed 7"])
    def test_stdout_gets_the_file_bytes(self, tmp_path, capsys, kind):
        out = tmp_path / "g.edges"
        assert cli.main(["generate", *kind.split(), "--out", str(out)]) == 0
        capsys.readouterr()
        assert cli.main(["generate", *kind.split(), "--out", "-"]) == 0
        assert capsys.readouterr().out.encode() == out.read_bytes()

    def test_exhausted_restarts_are_an_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(graphs, "DEFAULT_PAIRING_RESTARTS", 0)
        out = tmp_path / "g.edges"
        code = cli.main(["generate", "regular", "--n", "12", "--r", "3", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: pairing model failed for n=12, r=3 after 0 restarts\n")
        assert not out.exists()

    @pytest.mark.parametrize("exc", [RuntimeError("boom"), KeyError("boom"), TypeError("boom")],
                             ids=["RuntimeError", "KeyError", "TypeError"])
    def test_errors_outside_the_contract_propagate(self, tmp_path, monkeypatch, exc):
        def fail(n):
            raise exc

        monkeypatch.setattr(graphs, "generate_ring", fail)
        with pytest.raises(type(exc)):
            cli.main(["generate", "ring", "--n", "6", "--out", str(tmp_path / "g.edges")])


class TestAnalyze:
    def test_star_report(self, star9_files, tmp_path, capsys):
        graph_path, params_path = star9_files
        out = tmp_path / "report.json"
        code = cli.main(["analyze", "--graph", str(graph_path), "--params",
                         str(params_path), "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["n"] == 10 and report["num_edges"] == 9
        assert report["flagged"] == [0]
        assert report["verdict"] == "unstable"
        assert report["sigma"] == pytest.approx(1.1, abs=1e-9)
        assert report["sigma_lower"] <= report["sigma"] <= report["sigma_upper"]
        assert report["sigma_upper"] - report["sigma_lower"] < 1e-12
        assert sorted(report) == ["flagged", "n", "num_edges", "sigma", "sigma_lower",
                                  "sigma_upper", "verdict"]

    def test_json_has_exactly_the_summary_keys(self, star9_files, tmp_path):
        graph_path, params_path = star9_files
        out = tmp_path / "report.json"
        cli.main(["analyze", "--graph", str(graph_path), "--params",
                  str(params_path), "--out", str(out)])
        report = json.loads(out.read_text())
        assert sorted(report) == ["flagged", "n", "num_edges", "sigma", "sigma_lower",
                                  "sigma_upper", "verdict"]

    def test_regular_homogeneous_all_or_nothing(self, tmp_path):
        g = generate_ring(8)
        write_graph(g, tmp_path / "ring.edges")
        for beta, expected in ((0.05, 0), (0.5, 8)):
            save_params(NodeParams.homogeneous(8, 0.4, beta, 1.0), tmp_path / "p.csv")
            out = tmp_path / "r.json"
            cli.main(["analyze", "--graph", str(tmp_path / "ring.edges"),
                      "--params", str(tmp_path / "p.csv"), "--out", str(out)])
            assert len(json.loads(out.read_text())["flagged"]) == expected

    def test_no_infection(self, tmp_path):
        g = generate_ring(5)
        write_graph(g, tmp_path / "g.edges")
        mu = np.array([0.2, 0.4, 0.6, 0.8, 1.0])
        save_params(NodeParams(mu, np.zeros(5), np.ones(5)), tmp_path / "p.csv")
        out = tmp_path / "r.json"
        assert cli.main(["analyze", "--graph", str(tmp_path / "g.edges"),
                         "--params", str(tmp_path / "p.csv"), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["sigma"] == pytest.approx(0.8, abs=1e-10)
        assert report["flagged"] == []
        assert report["verdict"] == "stable"

    @pytest.mark.parametrize("mu", ["1.5", "nan"])
    def test_out_of_range_param_names_the_node(self, star9_files, tmp_path, capsys, mu):
        graph_path, params_path = star9_files
        rows = ["node,mu,beta,r", *(f"{i},0.5,0.2,1" for i in range(10))]
        rows[2] = f"1,{mu},0.1,1"
        params_path.write_text("\n".join(rows) + "\n")
        out = tmp_path / "report.json"
        assert cli.main(["analyze", "--graph", str(graph_path), "--params",
                         str(params_path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: recovery probabilities mu must lie in (0, 1]; node 1 has {mu}\n")
        assert not out.exists()

    def test_selection_report_csv(self, star9_files, tmp_path):
        graph_path, params_path = star9_files
        report_csv = tmp_path / "sel.csv"
        cli.main(["analyze", "--graph", str(graph_path), "--params", str(params_path),
                  "--out", str(tmp_path / "r.json"), "--report-csv", str(report_csv)])
        header, rows = read_csv_rows(report_csv)
        assert header == ["node", "degree", "mu", "beta", "r", "margin", "flagged"]
        assert rows[0][-1] == "1" and rows[1][-1] == "0"
        assert float(rows[0][5]) == pytest.approx(0.5 - 1.8)  # center 0.5, radius 1.8
        assert len(rows) == 10

    @pytest.mark.parametrize("out", ["r.json", "-"])
    def test_unopenable_report_csv_writes_no_json(self, star9_files, tmp_path, capsys, out):
        # the report CSV lies in a missing directory; the JSON, opened first,
        # must not stay behind, nor reach stdout
        graph_path, params_path = star9_files
        json_out = out if out == "-" else str(tmp_path / out)
        code = cli.main(["analyze", "--graph", str(graph_path), "--params", str(params_path),
                         "--out", json_out, "--report-csv", str(tmp_path / "missing" / "sel.csv")])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: [Errno 2]") and captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["params.csv", "star.edges"]

    def test_one_file_for_json_and_report_is_an_error(self, star9_files, tmp_path, capsys):
        graph_path, params_path = star9_files
        out = str(tmp_path / "r.out")
        code = cli.main(["analyze", "--graph", str(graph_path), "--params", str(params_path),
                         "--out", out, "--report-csv", out])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: --out and --report-csv name the same file '{out}'\n")
        assert not (tmp_path / "r.out").exists()


class TestControl:
    def test_star_pipeline(self, star9_files, tmp_path, capsys):
        graph_path, params_path = star9_files
        tuned = tmp_path / "tuned.csv"
        plan = tmp_path / "plan.csv"
        code = cli.main(["control", "--graph", str(graph_path), "--params",
                         str(params_path), "--kappa", "0.9", "--params-out",
                         str(tuned), "--plan-out", str(plan)])
        assert code == 0
        out = capsys.readouterr().out
        assert "stable=true" in out
        sigma = float(out.split("sigma=")[1].split()[0])
        assert sigma < 1.0
        header, rows = read_csv_rows(plan)
        assert header == ["node", "beta_old", "beta_new"]
        assert rows == [["0", "0.2", "0.05"]]
        assert load_params(tuned, 10).beta[0] == pytest.approx(0.05)
        # re-analyze: nothing left to flag
        report_out = tmp_path / "post.json"
        cli.main(["analyze", "--graph", str(graph_path), "--params", str(tuned),
                  "--out", str(report_out)])
        assert json.loads(report_out.read_text())["flagged"] == []

    def test_noop_when_nothing_flagged(self, tmp_path, capsys):
        g = generate_ring(6)
        write_graph(g, tmp_path / "g.edges")
        save_params(NodeParams.homogeneous(6, 0.9, 0.1, 1.0), tmp_path / "p.csv")
        code = cli.main(["control", "--graph", str(tmp_path / "g.edges"),
                         "--params", str(tmp_path / "p.csv"),
                         "--params-out", str(tmp_path / "t.csv"),
                         "--plan-out", str(tmp_path / "plan.csv")])
        assert code == 0
        assert "tuned=0" in capsys.readouterr().out
        # the plan is the header line alone; the tuned params are the input
        assert (tmp_path / "plan.csv").read_bytes() == b"node,beta_old,beta_new\n"
        assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "p.csv").read_bytes()

    def test_marginal_sigma_is_not_stable(self, tmp_path, capsys):
        # sigma = 1 - 5e-7: below 1, but inside the band analyze calls marginal
        write_graph(Graph(3), tmp_path / "g.edges")
        save_params(NodeParams.homogeneous(3, 5e-7, 0.5, 0.5), tmp_path / "p.csv")
        code = cli.main(["control", "--graph", str(tmp_path / "g.edges"),
                         "--params", str(tmp_path / "p.csv"),
                         "--params-out", str(tmp_path / "t.csv"),
                         "--plan-out", str(tmp_path / "plan.csv")])
        assert code == 1
        out = capsys.readouterr().out
        assert "stable=false" in out
        assert float(out.split("sigma=")[1].split()[0]) < 1.0

    def test_kappa_near_one_is_not_stable(self, tmp_path, capsys):
        # homogeneous 3-regular graph: the tuned sigma is 1 - (1 - kappa) mu,
        # so every disc lies inside the unit circle for both kappas, but
        # only (1 - kappa) mu > 1e-6 keeps sigma below the marginal band
        write_graph(generate_random_regular(12, 3, seed=1), tmp_path / "g.edges")
        save_params(NodeParams.homogeneous(12, 0.8, 0.3, 1.0), tmp_path / "p.csv")
        codes = {}
        for kappa in ("0.9", "0.9999999999999999"):
            codes[kappa] = cli.main(["control", "--graph", str(tmp_path / "g.edges"),
                                     "--params", str(tmp_path / "p.csv"), "--kappa", kappa,
                                     "--params-out", str(tmp_path / "t.csv"),
                                     "--plan-out", str(tmp_path / "plan.csv")])
            out = capsys.readouterr().out
            assert out.startswith("tuned=12 ")
            assert ("stable=true" if kappa == "0.9" else "stable=false") in out
        assert codes == {"0.9": 0, "0.9999999999999999": 1}

    @pytest.mark.parametrize("failing", ["--params-out", "--plan-out", "write"])
    def test_failed_output_leaves_no_output(self, star9_files, tmp_path, capsys, monkeypatch,
                                            failing):
        # an output in a missing directory, or a plan whose writing fails
        # after its rows, deletes the other output too
        write_csv = control_module.write_csv

        def failing_write_csv(path, header, block):
            def failing_column(column):
                yield from column
                raise OSError("plan failed")

            write_csv(path, header, (failing_column(block[0]), *block[1:]))

        if failing == "write":
            monkeypatch.setattr(control_module, "write_csv", failing_write_csv)
        graph_path, params_path = star9_files
        outs = {"--params-out": str(tmp_path / "tuned.csv"),
                "--plan-out": str(tmp_path / "plan.csv")}
        if failing in outs:
            outs[failing] = str(tmp_path / "missing" / "out.csv")
        code = cli.main(["control", "--graph", str(graph_path), "--params", str(params_path),
                         *[x for flag_path in outs.items() for x in flag_path]])
        assert code == 1
        captured = capsys.readouterr()
        message = "error: [Errno 2]" if failing in outs else "error: plan failed"
        assert captured.err.startswith(message)
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["params.csv", "star.edges"]

    @pytest.mark.parametrize("same", ["plan.csv", "./sub/../plan.csv"])
    def test_one_file_for_both_outputs_is_an_error(self, star9_files, tmp_path, capsys,
                                                   monkeypatch, same):
        # both outputs open at once, so one file named twice would be garbled
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        graph_path, params_path = star9_files
        code = cli.main(["control", "--graph", str(graph_path), "--params", str(params_path),
                         "--params-out", "plan.csv", "--plan-out", same])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: --params-out and --plan-out name the same file '{same}'\n")
        assert not (tmp_path / "plan.csv").exists()

    def test_devices_may_be_named_twice(self, star9_files, capsys):
        graph_path, params_path = star9_files
        assert cli.main(["control", "--graph", str(graph_path), "--params", str(params_path),
                         "--params-out", os.devnull, "--plan-out", os.devnull]) == 0
        assert capsys.readouterr().out.startswith("tuned=1 ")


class TestSimulate:
    def test_extinct_on_tuned_star(self, star9_files, tmp_path, capsys):
        graph_path, params_path = star9_files
        tuned = tmp_path / "tuned.csv"
        cli.main(["control", "--graph", str(graph_path), "--params", str(params_path),
                  "--params-out", str(tuned), "--plan-out", str(tmp_path / "plan.csv")])
        capsys.readouterr()
        traj = tmp_path / "traj.csv"
        code = cli.main(["simulate", "--graph", str(graph_path), "--params", str(tuned),
                         "--p0", "uniform:0.2", "--out", str(traj)])
        assert code == 0
        verdict, steps, sigma = capsys.readouterr().out.strip().split(",")
        assert verdict == "extinct"
        assert float(sigma) < 1.0
        header, rows = read_csv_rows(traj)
        assert header == ["t", "node", "p"]
        assert rows[0] == ["0", "0", "0.2"]
        assert len(rows) == 10 * (int(steps) + 1)

    def test_extinct_at_zero_start(self, star9_files, tmp_path, capsys):
        graph_path, params_path = star9_files
        code = cli.main(["simulate", "--graph", str(graph_path), "--params",
                         str(params_path), "--p0", "uniform:0.0",
                         "--out", str(tmp_path / "t.csv")])
        assert code == 0
        verdict, steps, _ = capsys.readouterr().out.strip().split(",")
        assert (verdict, steps) == ("extinct", "0")

    def test_endemic_ring(self, tmp_path, capsys):
        g = generate_ring(40)
        write_graph(g, tmp_path / "g.edges")
        save_params(NodeParams.homogeneous(40, 0.2, 0.3, 0.9), tmp_path / "p.csv")
        code = cli.main(["simulate", "--graph", str(tmp_path / "g.edges"),
                         "--params", str(tmp_path / "p.csv"), "--p0", "uniform:0.5",
                         "--out", str(tmp_path / "t.csv")])
        assert code == 0
        assert capsys.readouterr().out.startswith("endemic,")

    def test_undecided_is_nonzero_exit(self, tmp_path, capsys):
        g = generate_ring(40)
        write_graph(g, tmp_path / "g.edges")
        save_params(NodeParams.homogeneous(40, 0.2, 0.3, 0.9), tmp_path / "p.csv")
        code = cli.main(["simulate", "--graph", str(tmp_path / "g.edges"),
                         "--params", str(tmp_path / "p.csv"), "--p0", "uniform:0.5",
                         "--max-steps", "3", "--out", str(tmp_path / "t.csv")])
        assert code == 1
        assert capsys.readouterr().out.startswith("undecided,3,")

    def test_endemic_window_below_one_is_an_error(self, tmp_path, capsys):
        write_graph(generate_ring(10), tmp_path / "g.edges")
        save_params(NodeParams.homogeneous(10, 0.9, 0.01, 1.0), tmp_path / "p.csv")
        out = tmp_path / "missing" / "t.csv"  # opening it would fail otherwise
        code = cli.main(["simulate", "--graph", str(tmp_path / "g.edges"),
                         "--params", str(tmp_path / "p.csv"), "--endemic-window", "0",
                         "--out", str(out)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == "error: endemic_window must be >= 1\n"
        assert captured.out == "" and not out.parent.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--max-steps", "0"], "max_steps must be >= 1"),
        (["--tol", "0"], "extinct_tol must lie in (0, 1)"),
        (["--tol", "1.5"], "extinct_tol must lie in (0, 1)"),
        (["--tol", "nan"], "extinct_tol must lie in (0, 1)"),
    ], ids=["max-steps-0", "tol-0", "tol-1.5", "tol-nan"])
    def test_bad_stopping_rule_fails_before_out_is_opened(self, star9_files, tmp_path, capsys,
                                                          flags, message):
        # --out lies in a missing directory: opening it first would fail
        # with a different error
        graph_path, params_path = star9_files
        out = tmp_path / "missing" / "t.csv"
        code = cli.main(["simulate", "--graph", str(graph_path), "--params", str(params_path),
                         *flags, "--out", str(out)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == "" and not out.parent.exists()

    def test_run_failing_part_way_leaves_no_trajectory(self, star9_files, tmp_path, capsys,
                                                       monkeypatch):
        step = dynamics.sis_step
        calls = []

        def failing_step(g, params, p):
            calls.append(1)
            if len(calls) == 3:
                raise FloatingPointError("step 3 failed")
            return step(g, params, p)

        monkeypatch.setattr(dynamics, "sis_step", failing_step)
        graph_path, params_path = star9_files
        out = tmp_path / "t.csv"
        code = cli.main(["simulate", "--graph", str(graph_path), "--params", str(params_path),
                         "--out", str(out)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == "error: step 3 failed\n"
        assert captured.out == "" and not out.exists()

    def test_memory_does_not_grow_with_the_step_count(self, tmp_path, capsys):
        # an endemic ring whose run is 10x longer at the larger window;
        # holding its states would cost 8 n bytes for each extra step
        n = 50
        write_graph(generate_ring(n), tmp_path / "g.edges")
        save_params(NodeParams.homogeneous(n, 0.2, 0.3, 0.9), tmp_path / "p.csv")

        def run(window):
            return cli.main(["simulate", "--graph", str(tmp_path / "g.edges"),
                             "--params", str(tmp_path / "p.csv"), "--p0", "uniform:0.5",
                             "--endemic-window", str(window), "--out", str(tmp_path / "t.csv")])

        assert run(200) == 0  # first-call imports and caches stay out of the peaks
        capsys.readouterr()
        peaks, steps = [], []
        for window in (200, 2000):
            tracemalloc.start()
            try:
                assert run(window) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            verdict, count, _ = capsys.readouterr().out.strip().split(",")
            assert verdict == "endemic"
            steps.append(int(count))
        assert steps[1] >= 8 * steps[0]
        assert peaks[1] - peaks[0] < 8 * n * (steps[1] - steps[0]) / 10

    @pytest.mark.parametrize("graph,p0", [("regular", "uniform:0.2"), ("ba", "uniform:0.2"),
                                          ("regular", "single:0:1")])
    def test_trajectory_matches_the_collected_states(self, tmp_path, capsys, graph, p0):
        # the referee for the writer's fast paths: every row of the file
        # against f"{t},{i},{v!r}" over the states a sink collects, at a
        # size of many chunks per state
        n = 2000
        if graph == "regular":  # homogeneous: every state from uniform:0.2 is one value
            g = generate_random_regular(n, 3, 1)
            params = NodeParams.homogeneous(n, 0.8, 0.2, 1.0)
        else:
            g = graphs.generate_barabasi_albert(n, 3, 2, 7)
            rng = np.random.default_rng(7)
            params = NodeParams(rng.uniform(0.5, 1.0, n), rng.uniform(0.01, 0.1, n),
                                rng.uniform(0.2, 1.0, n))
        write_graph(g, tmp_path / "g.edges")
        save_params(params, tmp_path / "p.csv")
        out = tmp_path / "t.csv"
        assert cli.main(["simulate", "--graph", str(tmp_path / "g.edges"),
                         "--params", str(tmp_path / "p.csv"), "--p0", p0,
                         "--out", str(out)]) == 0
        assert capsys.readouterr().out.startswith("extinct,")
        states = []
        dynamics.simulate(read_graph(tmp_path / "g.edges"), load_params(tmp_path / "p.csv", n),
                          cli.parse_p0_spec(p0, n), sink=lambda t, p: states.append(p))
        rows = (f"{t},{i},{v!r}\n" for t, p in enumerate(states) for i, v in enumerate(p.tolist()))
        assert out.read_text() == "t,node,p\n" + "".join(rows)

    def test_single_seed_p0(self, star9_files, tmp_path, capsys):
        graph_path, params_path = star9_files
        traj = tmp_path / "t.csv"
        cli.main(["simulate", "--graph", str(graph_path), "--params", str(params_path),
                  "--p0", "single:3:0.7", "--out", str(traj)])
        _, rows = read_csv_rows(traj)
        first = {(r[0], r[1]): r[2] for r in rows[:10]}
        assert first[("0", "3")] == "0.7"
        assert first[("0", "0")] == "0.0"

    def test_p0_csv_file(self, star9_files, tmp_path, capsys):
        graph_path, params_path = star9_files
        p0 = tmp_path / "p0.csv"
        p0.write_text("node,p\n0,0.4\n5,0.1\n")
        traj = tmp_path / "t.csv"
        assert cli.main(["simulate", "--graph", str(graph_path), "--params",
                         str(params_path), "--p0", str(p0), "--out", str(traj)]) == 0
        _, rows = read_csv_rows(traj)
        first = {(r[0], r[1]): r[2] for r in rows[:10]}
        assert first[("0", "0")] == "0.4"
        assert first[("0", "5")] == "0.1"
        assert first[("0", "1")] == "0.0"

    def test_out_of_range_p0_csv_names_the_node(self, star9_files, tmp_path, capsys):
        graph_path, params_path = star9_files
        p0 = tmp_path / "p0.csv"
        p0.write_text("node,p\n0,0.4\n5,1.2\n")
        traj = tmp_path / "t.csv"
        assert cli.main(["simulate", "--graph", str(graph_path), "--params",
                         str(params_path), "--p0", str(p0), "--out", str(traj)]) == 1
        assert capsys.readouterr().err == (
            "error: state entries must lie in [0, 1]; node 5 has 1.2\n")
        assert not traj.exists()

    @pytest.mark.parametrize("spec, detail", [
        ("uniform:abc", "could not convert string to float: 'abc'"),
        ("single:x:0.5", "invalid literal for int() with base 10: 'x'"),
        ("single:3:abc", "could not convert string to float: 'abc'"),
    ])
    def test_bad_inline_p0_names_the_spec(self, star9_files, tmp_path, capsys, spec, detail):
        graph_path, params_path = star9_files
        code = cli.main(["simulate", "--graph", str(graph_path), "--params",
                         str(params_path), "--p0", spec, "--out", str(tmp_path / "t.csv")])
        assert code == 1
        assert capsys.readouterr().err == f"error: bad p0 spec '{spec}': {detail}\n"


@pytest.mark.parametrize("spec, message", [
    ("single:1", r"^bad p0 spec 'single:1'; expected single:<node>:<v>$"),
    ("single:99:0.5", r"^p0 node 99 out of range for n=9$"),
])
def test_p0_spec_of_the_wrong_shape_or_node(spec, message):
    with pytest.raises(ValueError, match=message):
        cli.parse_p0_spec(spec, 9)


# the commands that read a graph and a params file, with their output flags
each_input_command = pytest.mark.parametrize("command, output_flags", [
    ("analyze", ["--out", "--report-csv"]),
    ("control", ["--params-out", "--plan-out"]),
    ("simulate", ["--out"]),
], ids=["analyze", "control", "simulate"])


def failing_run_stderr(star9_files, tmp_path, capsys, command, output_flags):
    """Run ``command`` on the star files with each output in tmp_path, check
    that it exits 1 with no stdout and leaves no output file, and return its
    stderr."""
    graph_path, params_path = star9_files
    outputs = [arg for k, flag in enumerate(output_flags)
               for arg in (flag, str(tmp_path / f"out{k}"))]
    code = cli.main([command, "--graph", str(graph_path), "--params", str(params_path),
                     *outputs])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["params.csv", "star.edges"]
    return captured.err


@each_input_command
def test_unconverged_sigma_is_an_error(star9_files, tmp_path, capsys, monkeypatch,
                                       command, output_flags):
    monkeypatch.setattr(dynamics, "MAX_PRODUCTS", 1)
    err = failing_run_stderr(star9_files, tmp_path, capsys, command, output_flags)
    assert err.startswith("error: spectral radius did not converge within 1 iterations")


def test_package_errors_take_the_bases_main_reports():
    # a failed computation is an ArithmeticError, arguments a generator cannot
    # satisfy a ValueError; neither is a RuntimeError, which main lets propagate
    assert issubclass(dynamics.ConvergenceError, ArithmeticError)
    assert issubclass(graphs.GenerationError, ValueError)
    assert not issubclass(dynamics.ConvergenceError, RuntimeError)
    assert not issubclass(graphs.GenerationError, RuntimeError)


@each_input_command
@pytest.mark.parametrize("rows, message", [
    (9, "parameter length 9 does not match graph order 10"),
    (11, "line 12: node id 10 is not in 0..n-1 for n=10"),
], ids=["short", "over"])
def test_params_must_list_every_node_once(star9_files, tmp_path, capsys, command, output_flags,
                                          rows, message):
    # a params file one row short of the 10-node star, or one row over it
    save_params(NodeParams.homogeneous(rows, 0.5, 0.2, 1.0), star9_files[1])
    err = failing_run_stderr(star9_files, tmp_path, capsys, command, output_flags)
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("command, outputs", [
    ("control", ["--params-out", "-", "--plan-out", "plan.csv"]),
    ("control", ["--params-out", "tuned.csv", "--plan-out", "-"]),
    ("simulate", ["--out", "-"]),
], ids=["control-params", "control-plan", "simulate"])
def test_stdout_beside_the_summary_line_is_an_error(star9_files, tmp_path, capsys, monkeypatch,
                                                    command, outputs):
    # the summary line would read as one more row of the table; the graph
    # named does not exist, so the error comes before any input is read
    monkeypatch.chdir(tmp_path)
    _, params_path = star9_files
    code = cli.main([command, "--graph", "missing.edges", "--params", str(params_path),
                     *outputs])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    flag = outputs[outputs.index("-") - 1]
    assert captured.err == f"error: {flag} cannot be '-': stdout carries the summary line\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["params.csv", "star.edges"]


@pytest.mark.parametrize("argv, flags", [
    (["enum", "connected", "--pmax", "6"], ["--out"]),
    (["analyze"], ["--out", "--report-csv"]),
], ids=["enum", "analyze"])
def test_commands_without_a_summary_line_write_to_stdout(star9_files, tmp_path, capsys,
                                                         argv, flags):
    # analyze may name stdout for both its outputs: the JSON, then the CSV
    if argv[0] == "analyze":
        argv = [*argv, "--graph", str(star9_files[0]), "--params", str(star9_files[1])]
    files = [tmp_path / f"out{k}" for k in range(len(flags))]
    assert cli.main([*argv, *(x for flag, f in zip(flags, files) for x in (flag, str(f)))]) == 0
    assert cli.main([*argv, *(x for flag in flags for x in (flag, "-"))]) == 0
    assert capsys.readouterr().out == "".join(f.read_text() for f in files)


def test_reproducible_pipeline_is_byte_identical(star9_files, tmp_path, capsys):
    graph_path, params_path = star9_files
    runs = []
    for k in range(2):
        d = tmp_path / f"run{k}"
        d.mkdir()
        common = ["--graph", str(graph_path)]
        codes = [
            cli.main(["analyze", *common, "--params", str(params_path),
                      "--out", str(d / "report.json"), "--report-csv", str(d / "report.csv")]),
            cli.main(["control", *common, "--params", str(params_path),
                      "--params-out", str(d / "tuned.csv"), "--plan-out", str(d / "plan.csv")]),
        ]
        control_out = capsys.readouterr().out
        codes.append(cli.main(["simulate", *common, "--params", str(d / "tuned.csv"),
                               "--out", str(d / "traj.csv")]))
        files = {p.name: p.read_bytes() for p in d.iterdir()}
        assert sorted(files) == ["plan.csv", "report.csv", "report.json", "traj.csv", "tuned.csv"]
        assert codes == [0, 0, 0]
        runs.append((files, control_out, capsys.readouterr().out))
    assert runs[0] == runs[1]


class TestEnum:
    def test_connected_table(self, tmp_path):
        out = tmp_path / "c.csv"
        assert cli.main(["enum", "connected", "--pmax", "10", "--out", str(out)]) == 0
        header, rows = read_csv_rows(out)
        assert header == ["p", "C_p"]
        assert [int(r[1]) for r in rows] == [
            1, 1, 4, 38, 728, 26704, 1866256, 251548592, 66296291072, 34496488594816
        ]

    def test_failed_table_leaves_no_file(self, tmp_path, capsys):
        # C_200 has more digits than Python's int-to-str limit allows
        out = tmp_path / "c.csv"
        assert cli.main(["enum", "connected", "--pmax", "200", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: Exceeds the limit (4300 digits)")
        assert not out.exists()
        assert cli.main(["enum", "connected", "--pmax", "200"]) == 1
        assert capsys.readouterr().err == err

    def test_all_table(self, tmp_path):
        out = tmp_path / "a.csv"
        cli.main(["enum", "all", "--pmax", "4", "--out", str(out)])
        _, rows = read_csv_rows(out)
        assert [int(r[1]) for r in rows] == [1, 1, 2, 8, 64]

    def test_edges_table(self, tmp_path):
        out = tmp_path / "e.csv"
        cli.main(["enum", "edges", "--p", "4", "--out", str(out)])
        _, rows = read_csv_rows(out)
        assert [int(r[1]) for r in rows] == [1, 6, 15, 20, 15, 6, 1]

    def test_rarity_sweep_decreasing(self, tmp_path):
        out = tmp_path / "r.csv"
        assert cli.main(["enum", "rarity", "--r", "3", "--nmax", "40",
                         "--out", str(out)]) == 0
        header, rows = read_csv_rows(out)
        assert header == ["n", "ln_L", "ln_G", "ln_ratio"]
        ratios = [float(r[3]) for r in rows]
        assert all(a > b for a, b in zip(ratios, ratios[1:]))

    def test_degree_and_r_are_one_option(self, tmp_path):
        outs = {}
        for table in ("rarity", "regular-asym"):
            for flag in ("--degree", "--r"):
                out = tmp_path / f"{table}{flag}.csv"
                assert cli.main(["enum", table, flag, "4", "--nmax", "30",
                                 "--out", str(out)]) == 0
                outs[table, flag] = out.read_bytes()
            assert outs[table, "--degree"] == outs[table, "--r"]
        _, rows = read_csv_rows(tmp_path / "rarity--degree.csv")
        assert [int(r[0]) for r in rows][:3] == [5, 6, 7]

    def test_catalan_sweep(self, tmp_path):
        out = tmp_path / "cat.csv"
        cli.main(["enum", "catalan", "--nmax", "200", "--out", str(out)])
        header, rows = read_csv_rows(out)
        assert header == ["n", "f_n", "ln_asymptotic", "ratio"]
        assert abs(float(rows[-1][3]) - 1.0) < 0.02
        assert int(rows[3][1]) == 14  # f_5

    def test_regular_asym(self, tmp_path):
        out = tmp_path / "ra.csv"
        cli.main(["enum", "regular-asym", "--degree", "3", "--nmax", "12",
                  "--out", str(out)])
        header, rows = read_csv_rows(out)
        assert header == ["n", "ln_labeled", "ln_unlabeled"]
        assert [int(r[0]) for r in rows] == [4, 6, 8, 10, 12]
        n6 = rows[1]
        assert math.exp(float(n6[1])) == pytest.approx(99.9566, abs=1e-3)
        assert float(n6[2]) == pytest.approx(float(n6[1]) - math.log(720), abs=1e-12)

    def test_wright_table(self, tmp_path):
        out = tmp_path / "w.csv"
        cli.main(["enum", "wright", "--n", "10", "--out", str(out)])
        _, rows = read_csv_rows(out)
        assert len(rows) == 46
        assert float(rows[0][1]) == pytest.approx(-math.log(10) / 2)

    @pytest.mark.parametrize("argv,flag", [
        ("catalan --nmax 5 --pmax 3 --p 9 --degree 7 --n 4", "pmax"),
        ("connected --pmax 5 --nmax 9", "nmax"),
        ("all --p 4", "p"),
        ("edges --p 4 --r 3", "degree"),  # --r is --degree
        ("rarity --degree 3 --n 9", "n"),
        ("regular-asym --pmax 3", "pmax"),
        ("wright --n 5 --degree 3", "degree"),
    ], ids=lambda x: x.split()[0] if " " in x else x)
    def test_foreign_table_option_is_an_error(self, tmp_path, capsys, argv, flag):
        out = tmp_path / "t.csv"
        assert cli.main(["enum", *argv.split(), "--out", str(out)]) == 1
        table = argv.split()[0]
        assert capsys.readouterr().err == f"error: enum {table} does not take --{flag}\n"
        assert not out.exists()

    @pytest.mark.parametrize("table,defaults", [
        ("connected", "--pmax 20"), ("all", "--pmax 20"), ("edges", "--p 4"),
        ("regular-asym", "--degree 3 --nmax 60"), ("rarity", "--r 3 --nmax 60"),
        ("catalan", "--nmax 60"), ("wright", "--n 10"),
    ])
    def test_absent_table_option_takes_its_default(self, tmp_path, table, defaults):
        plain, given = tmp_path / "plain.csv", tmp_path / "given.csv"
        assert cli.main(["enum", table, "--out", str(plain)]) == 0
        assert cli.main(["enum", table, *defaults.split(), "--out", str(given)]) == 0
        assert plain.read_bytes() == given.read_bytes()

    def test_reproducible_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            cli.main(["enum", "connected", "--pmax", "8", "--out", str(out)])
        assert a.read_bytes() == b.read_bytes()


class TestVerify:
    def test_passes_on_fresh_checkout(self, capsys):
        import time

        start = time.perf_counter()
        assert cli.main(["verify"]) == 0
        assert time.perf_counter() - start < 60.0
        out = capsys.readouterr().out
        assert "all checks passed" in out
        assert "FAIL" not in out

    def test_catalan_check_referees_the_column(self, capsys, monkeypatch):
        column = enumeration.catalan_column
        monkeypatch.setattr(enumeration, "catalan_column",
                            lambda nmax: [*column(nmax)[:-1], column(nmax)[-1] + 1])
        assert cli.main(["verify"]) == 1
        out = capsys.readouterr().out
        assert out.count("FAIL") == 1
        assert "FAIL Catalan formula matches the lattice-path count" in out

    def test_sis_step_check_referees_zeta(self, capsys, monkeypatch):
        zeta = dynamics.zeta_vector
        monkeypatch.setattr(dynamics, "zeta_vector",
                            lambda g, params, p: zeta(g, params, p) * (1 - 1e-6))
        assert cli.main(["verify"]) == 1
        out = capsys.readouterr().out
        assert out.count("FAIL") == 1
        assert "FAIL SIS step: zeta matches the per-node product" in out

    def test_lanczos_check_referees_sigma(self, capsys, monkeypatch):
        dense = oracles.dense_spectral_radius
        monkeypatch.setattr(oracles, "dense_spectral_radius", lambda h: dense(h) * (1 + 1e-6))
        assert cli.main(["verify"]) == 1
        out = capsys.readouterr().out
        assert out.count("FAIL") == 1
        assert "FAIL Lanczos matches the dense eigensolver, inside its bracket" in out

    @pytest.mark.parametrize("order", [5, 6])
    def test_brute_connected_check_referees_the_recurrence(self, capsys, monkeypatch, order):
        brute = oracles.brute_count_connected
        monkeypatch.setattr(oracles, "brute_count_connected",
                            lambda p: brute(p) + (p == order))
        assert cli.main(["verify"]) == 1
        out = capsys.readouterr().out
        assert out.count("FAIL") == 1
        assert "FAIL exhaustive connectivity counts match the recurrence" in out

    @pytest.mark.parametrize("name, wrong, check", [
        ("_KNOWN_CONNECTED_PREFIX", 26705, "connected counts"),
        ("_KNOWN_REGULAR_COUNTS", (1, 15, 71, 71, 15, 1), "exhaustive regular counts"),
    ], ids=["connected", "regular"])
    def test_injected_wrong_constant_fails(self, capsys, monkeypatch, name, wrong, check):
        broken = list(getattr(cli, name))
        broken[5] = wrong
        monkeypatch.setattr(cli, name, tuple(broken))
        assert cli.main(["verify"]) == 1
        out = capsys.readouterr().out
        assert out.count("FAIL") == 1 and f"FAIL {check}" in out
