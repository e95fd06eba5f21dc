import json
import math
import os
from pathlib import Path

import pytest

from ambsim import cli

TIMING_TRACE = Path(__file__).parent / "golden" / "timing_trace.csv"


def minimal_config(tmp_path, **run_overrides):
    payload = {
        "mode": "amb",
        "objective": {"kind": "linear_regression", "dim": 6, "noise_var": 0.01, "seed": 2},
        "topology": {"kind": "complete", "n": 3},
        "run": {"tau": 4, "seed": 11, **run_overrides},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return path


def full_config(tmp_path, outdir, **extra):
    payload = {
        "mode": "amb",
        "objective": {"kind": "linear_regression", "dim": 8, "noise_var": 0.001, "seed": 3},
        "topology": {"kind": "testbed"},
        "consensus": {"scheme": "lazy-metropolis", "rounds": 4, "exact_batch_norm": False},
        "timing": {"kind": "shifted_exponential", "rate": 0.6667, "shift": 1.0,
                   "reference_batch": 60},
        "schedule": {"offset": 12.0, "work_scale": 600.0},
        "run": {"tau": 5, "compute_time": 2.5, "communication_time": 1.0, "batch": 600,
                "radius": 6.0, "seed": 21, "holdout": 100},
        "output": {"directory": str(outdir), "repeats": 1},
    }
    payload.update(extra)
    path = tmp_path / "full.json"
    path.write_text(json.dumps(payload))
    return path


class TestParsing:
    def test_minimal_config_fills_defaults(self, tmp_path):
        spec = cli.parse_config(minimal_config(tmp_path))
        assert spec.consensus["rounds"] == 5
        assert spec.consensus["scheme"] == "lazy-metropolis"
        assert spec.timing["kind"] == "deterministic"
        assert spec.schedule == {"offset": "auto", "work_scale": "auto"}
        assert spec.run["communication_time"] == 0.5
        assert spec.output["repeats"] == 1

    def test_unknown_top_level_key(self, tmp_path):
        path = minimal_config(tmp_path)
        payload = json.loads(path.read_text())
        payload["foo"] = 1
        path.write_text(json.dumps(payload))
        with pytest.raises(cli.ConfigError, match="'foo'"):
            cli.parse_config(path)

    def test_unknown_nested_key_names_path(self, tmp_path):
        path = minimal_config(tmp_path)
        payload = json.loads(path.read_text())
        payload["objective"]["bar"] = 1
        path.write_text(json.dumps(payload))
        with pytest.raises(cli.ConfigError, match="objective.bar"):
            cli.parse_config(path)

    def test_missing_required_key(self, tmp_path):
        path = minimal_config(tmp_path)
        payload = json.loads(path.read_text())
        del payload["run"]["tau"]
        path.write_text(json.dumps(payload))
        with pytest.raises(cli.ConfigError, match="run.tau"):
            cli.parse_config(path)

    def test_round_trip(self, tmp_path):
        spec = cli.parse_config(full_config(tmp_path, tmp_path / "out"))
        back = tmp_path / "roundtrip.json"
        cli.write_config(spec, back)
        assert cli.parse_config(back) == spec

    def test_reference_experiment_config_echoes(self, tmp_path):
        # The 10-node deployment settings: 5 rounds, window 14.5, comm 4.5.
        path = full_config(tmp_path, tmp_path / "out")
        payload = json.loads(path.read_text())
        payload["consensus"]["rounds"] = 5
        payload["run"].update({"compute_time": 14.5, "communication_time": 4.5,
                               "batch": 60000})
        path.write_text(json.dumps(payload))
        spec = cli.parse_config(path)
        cfg = cli.build_run_config(spec, seed=1)
        assert cfg.graph.n == 10
        assert cfg.compute_time == 14.5
        assert cfg.comm_time == 4.5
        assert cfg.rounds == 5

    def test_invalid_topology_reference(self, tmp_path):
        path = minimal_config(tmp_path)
        payload = json.loads(path.read_text())
        payload["topology"] = {"kind": "edge_list", "path": str(tmp_path / "missing.txt")}
        path.write_text(json.dumps(payload))
        spec = cli.parse_config(path)
        with pytest.raises(OSError):
            cli.build_run_config(spec, seed=1)


def paused_config(tmp_path, outdir, **sections):
    """A small grouped-pause testbed config; ``sections`` update its sections' keys."""
    payload = {
        "mode": "amb",
        "objective": {"kind": "linear_regression", "dim": 4, "noise_var": 0.001, "seed": 3},
        "topology": {"kind": "testbed"},
        "timing": {"kind": "grouped_pause", "group_means": [5.0, 10.0, 20.0, 35.0, 55.0],
                   "group_vars": [1.0, 4.0, 9.0, 16.0, 25.0],
                   "assignment": [0, 0, 1, 1, 2, 2, 3, 3, 4, 4], "base_gradient_time": 5.0},
        "schedule": {"offset": 50.0, "work_scale": 150.0},
        "run": {"tau": 2, "compute_time": 120.0, "communication_time": 60.0, "batch": 100,
                "radius": 6.0, "seed": 1},
        "output": {"directory": str(outdir)},
    }
    for section, values in sections.items():
        payload[section] = {**payload[section], **values}
    path = tmp_path / "paused.json"
    path.write_text(json.dumps(payload))
    return path


class TestRunExperiment:
    def test_writes_documented_files(self, tmp_path):
        outdir = tmp_path / "out"
        spec = cli.parse_config(full_config(tmp_path, outdir))
        assert cli.run_experiment(spec) == 0
        trace = (outdir / "amb_seed21.csv").read_text().splitlines()
        assert trace[0] == cli.TRACE_HEADER
        assert len(trace) == 6
        nodes = (outdir / "amb_seed21_nodes.csv").read_text().splitlines()
        assert nodes[0] == cli.NODES_HEADER
        assert len(nodes) == 1 + 5 * 10
        summary = (outdir / "summary.csv").read_text().splitlines()
        assert summary[0] == cli.SUMMARY_HEADER

    def test_repeats_create_seed_stamped_files(self, tmp_path):
        outdir = tmp_path / "out"
        spec = cli.parse_config(full_config(tmp_path, outdir,
                                            output={"directory": str(outdir), "repeats": 3}))
        cli.run_experiment(spec)
        for seed in (21, 22, 23):
            assert (outdir / f"amb_seed{seed}.csv").exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        spec = cli.parse_config(full_config(tmp_path, out_a))
        cli.run_experiment(spec)
        import dataclasses
        spec_b = dataclasses.replace(spec, output={**spec.output, "directory": str(out_b)})
        cli.run_experiment(spec_b)
        for name in ("amb_seed21.csv", "amb_seed21_nodes.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_seed_env_override(self, tmp_path, monkeypatch):
        outdir = tmp_path / "out"
        spec = cli.parse_config(full_config(tmp_path, outdir))
        monkeypatch.setenv("AMB_SEED", "99")
        cli.run_experiment(spec)
        assert (outdir / "amb_seed99.csv").exists()

    def test_mixing_matrix_is_built_once_per_experiment(self, tmp_path, monkeypatch):
        from ambsim import engine, topology
        calls = []
        build = topology.build_consensus_matrix

        def counted(*args, **kwargs):
            calls.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(topology, "build_consensus_matrix", counted)
        monkeypatch.setattr(engine, "build_consensus_matrix", counted)
        outdir = tmp_path / "out"
        path = paused_config(tmp_path, outdir, output={"repeats": 3, "paired": True})
        assert cli.main(["run", str(path)]) == 0
        assert len(calls) == 1
        assert len((outdir / "compare.csv").read_text().splitlines()) == 4

    def test_compare_writes_pair_and_comparison(self, tmp_path):
        outdir = tmp_path / "out"
        path = full_config(tmp_path, outdir)
        assert cli.main(["compare", str(path)]) == 0
        compare = (outdir / "compare.csv").read_text().splitlines()
        assert compare[0] == cli.COMPARE_HEADER
        assert len(compare) == 2
        assert (outdir / "amb_seed21.csv").exists()
        assert (outdir / "fmb_seed21.csv").exists()


def trace_config(tmp_path, outdir, rows=None, **sections):
    """A small trace-timing config on complete(4).

    ``rows`` replaces the CSV's data rows; ``sections`` replace whole sections.
    """
    csv_path = TIMING_TRACE
    if rows is not None:
        csv_path = tmp_path / "times.csv"
        csv_path.write_text("node,epoch,batch_time_seconds\n" + "\n".join(rows) + "\n")
    payload = {
        "mode": "fmb",
        "objective": {"kind": "linear_regression", "dim": 3, "noise_var": 0.001, "seed": 6},
        "topology": {"kind": "complete", "n": 4},
        "timing": {"kind": "trace", "path": str(csv_path), "reference_batch": 10},
        "schedule": {"offset": 20.0},
        "run": {"tau": 2, "communication_time": 0.5, "batch": 42, "radius": 6.0, "seed": 15},
        "output": {"directory": str(outdir)},
        **sections,
    }
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(payload))
    return path


class TestTraceTimingFailsClosed:
    def test_trace_with_fewer_nodes_than_the_graph(self, tmp_path, capsys):
        path = trace_config(tmp_path, tmp_path / "out", topology={"kind": "testbed"})
        assert cli.main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert "timing.path" in err and "4 nodes" in err and "10 nodes" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("kind, value", [
        ("shifted_exponential", 0), ("deterministic", -3), ("deterministic", "2"),
        ("trace", 0), ("trace", -3), ("trace", 2.0), ("shifted_exponential", 10**400),
    ])
    def test_reference_batch_must_be_a_positive_integer(self, tmp_path, capsys, kind, value):
        extra = {"shifted_exponential": {"rate": 0.6667, "shift": 1.0},
                 "deterministic": {"period": 2.0}, "trace": {"path": str(TIMING_TRACE)}}[kind]
        path = trace_config(tmp_path, tmp_path / "out",
                            timing={"kind": kind, "reference_batch": value, **extra})
        assert cli.main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert "timing.reference_batch" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "0", "x"])
    def test_batch_times_must_be_positive_and_finite(self, tmp_path, capsys, bad):
        rows = ["0,1,1.5", "1,1,2.0", f"2,1,{bad}", "3,1,1.0"]
        path = trace_config(tmp_path, tmp_path / "out", rows=rows)
        assert cli.main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert "timing.path" in err and "times.csv:4" in err

    @pytest.mark.parametrize("row", ["2,1", "2,1,1.0,7", "-1,1,1.0"])
    def test_malformed_rows_cite_their_line(self, tmp_path, capsys, row):
        rows = ["0,1,1.5", "1,1,2.0", row, "2,1,1.0", "3,1,1.0"]
        path = trace_config(tmp_path, tmp_path / "out", rows=rows)
        assert cli.main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert "timing.path" in err and "times.csv:4" in err

    def test_a_trace_with_more_nodes_than_the_graph_runs(self, tmp_path):
        rows = ["0,1,1.5", "1,1,2.0", "2,1,1.0", "3,1,1.0", "4,1,3.0"]
        path = trace_config(tmp_path, tmp_path / "out", rows=rows)
        assert cli.main(["run", str(path)]) == 0


class TestAutoResolution:
    # Exact floats: the anytime work scale comes from each timing model's
    # expected window batch and the matched window from its completion stats.
    @pytest.mark.parametrize("timing_section, work_scale, compute_time", [
        ({"kind": "shifted_exponential", "rate": 0.6667, "shift": 1.0, "reference_batch": 60},
         104.0, 1.0833008349582522),
        ({"kind": "deterministic", "period": 2.5, "reference_batch": 60},
         104.00000000000001, 1.0833333333333335),
        ({"kind": "grouped_pause", "group_means": [5.0, 10.0, 20.0, 35.0],
          "group_vars": [1.0, 4.0, 9.0, 16.0], "assignment": [0, 1, 2, 3],
          "base_gradient_time": 5.0},
         131.30866632614985, 566.8000010008374),
        ({"kind": "trace", "path": str(TIMING_TRACE), "reference_batch": 10},
         105.63316582914572, 5.971875),
    ])
    def test_auto_work_scale_and_compute_time(self, tmp_path, timing_section, work_scale,
                                              compute_time):
        payload = {
            "mode": "amb",
            "objective": {"kind": "linear_regression", "dim": 3, "noise_var": 0.001, "seed": 2},
            "topology": {"kind": "complete", "n": 4},
            "timing": timing_section,
            "schedule": {"offset": 10.0},
            "run": {"tau": 1, "compute_time": "auto", "batch": 100, "seed": 1},
        }
        path = tmp_path / "auto.json"
        path.write_text(json.dumps(payload))
        config = cli.build_run_config(cli.parse_config(path), seed=1)
        assert config.compute_time == compute_time
        assert config.schedule.work_scale == work_scale


class TestSubcommands:
    def test_run_exit_codes(self, tmp_path, capsys):
        path = minimal_config(tmp_path)
        payload = json.loads(path.read_text())
        payload["output"] = {"directory": str(tmp_path / "o")}
        path.write_text(json.dumps(payload))
        assert cli.main(["run", str(path)]) == 0
        assert cli.main(["run", str(tmp_path / "nope.json")]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_key_is_a_clean_failure(self, tmp_path, capsys):
        path = minimal_config(tmp_path)
        payload = json.loads(path.read_text())
        payload["mystery"] = True
        path.write_text(json.dumps(payload))
        assert cli.main(["run", str(path)]) == 1
        assert "mystery" in capsys.readouterr().err

    @pytest.mark.parametrize("rounds", [["uniform", 2.7, 3.9], ["uniform", "a", 3], 0,
                                        ["uniform", 4, 2], ["uniform", 0, 2],
                                        ["uniform", True, 2], 2.0])
    def test_bad_round_counts_name_the_key(self, tmp_path, capsys, rounds):
        path = full_config(tmp_path, tmp_path / "out", consensus={"rounds": rounds})
        assert cli.main(["run", str(path)]) == 1
        assert "consensus.rounds" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, sections", [
        ("run.communication_time", {"run": {"communication_time": math.inf}}),
        ("run.compute_time", {"run": {"compute_time": math.inf}}),
        ("run.compute_time", {"run": {"compute_time": math.nan}}),
        ("run.compute_time", {"run": {"compute_time": 10**400}}),
        ("run.communication_time", {"run": {"communication_time": 10**400}}),
        ("timing.group_means", {"timing": {"group_means": [5, 10, 20, 35, 10**400]}}),
        ("timing.group_means", {"timing": {"group_means": [5.0, math.nan, 20.0, 35.0, 55.0]}}),
        ("timing.group_means", {"timing": {"group_means": [5.0, 10.0, math.inf, 35.0, 55.0]}}),
        ("timing.group_vars", {"timing": {"group_vars": [1.0, 4.0, 9.0, math.nan, 25.0]}}),
        ("timing.group_vars", {"timing": {"group_vars": [-1, 4]}}),
        ("timing.group_vars", {"timing": {"group_vars": [1.0, 4.0]}}),
        ("timing.base_gradient_time", {"timing": {"base_gradient_time": math.nan}}),
        ("timing.base_gradient_time", {"timing": {"base_gradient_time": 0.0}}),
        ("timing.assignment", {"timing": {"assignment": [0, 0, 1, 1, 2]}}),
        ("timing.assignment", {"timing": {"assignment": [0, 0, 1, 1, 2, 2, 3, 3, 4, 5]}}),
        ("output.repeats", {"output": {"repeats": "2"}}),
        ("output.repeats", {"output": {"repeats": 0}}),
        ("output.paired", {"output": {"paired": "yes"}}),
        ("output.bound_report", {"output": {"bound_report": 1}}),
    ])
    def test_invalid_numbers_name_the_key(self, tmp_path, capsys, key, sections):
        path = paused_config(tmp_path, tmp_path / "out", **sections)
        assert cli.main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert key in err
        assert "Traceback" not in err

    def test_serial_mode_runs_node_zero_of_the_assignment(self, tmp_path):
        path = paused_config(tmp_path, tmp_path / "out")
        payload = json.loads(path.read_text())
        payload["mode"] = "serial"
        path.write_text(json.dumps(payload))
        assert cli.main(["run", str(path)]) == 0

    def test_topology_subcommand(self, tmp_path, capsys):
        edgefile = tmp_path / "g.txt"
        edgefile.write_text("3\n0 1\n1 2\n")
        assert cli.main(["topology", str(edgefile)]) == 0
        out = capsys.readouterr().out
        assert "lambda2 (lazy-metropolis)" in out
        assert "rounds" in out

    def test_bounds_subcommand(self, tmp_path, capsys):
        path = full_config(tmp_path, tmp_path / "out")
        assert cli.main(["bounds", str(path)]) == 0
        out = capsys.readouterr().out
        assert "sample-path bound" in out
        assert "empirical regret" in out

    def test_gnuplot_subcommand(self, capsys):
        assert cli.main(["gnuplot", "trace.csv"]) == 0
        assert "plot 'trace.csv'" in capsys.readouterr().out
