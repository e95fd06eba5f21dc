import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ambsim import cli, engine, objectives, timing, topology
from test_objectives import loop_estimate_constants

TIMING_TRACE = Path(__file__).parent / "golden" / "timing_trace.csv"
SRC = Path(__file__).resolve().parent.parent / "src"


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
        back.write_text(json.dumps(dataclasses.asdict(spec)))
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

    def test_seeds_may_be_any_size(self, tmp_path):
        path = minimal_config(tmp_path, seed=2**70)
        payload = json.loads(path.read_text())
        payload["objective"]["seed"] = 10**30
        payload["output"] = {"seeds": [2**64, 2**64 + 1]}
        path.write_text(json.dumps(payload))
        spec = cli.parse_config(path)
        assert cli.build_run_config(spec, seed=spec.output["seeds"][0]).seed == 2**64

    def test_invalid_topology_reference(self, tmp_path):
        path = minimal_config(tmp_path)
        payload = json.loads(path.read_text())
        payload["topology"] = {"kind": "edge_list", "path": str(tmp_path / "missing.txt")}
        path.write_text(json.dumps(payload))
        spec = cli.parse_config(path)
        with pytest.raises(cli.ConfigError, match="topology.path"):
            cli.build_run_config(spec, seed=1)


SOFTMAX = {"kind": "logistic_regression", "classes": 3, "dim": 4, "seed": 3}


def labeled_csv(tmp_path, rows):
    """A ``label,f1,...,fk`` file of ``rows`` for the softmax objective."""
    path = tmp_path / "labeled.csv"
    path.write_text("\n".join(rows) + "\n")
    return path


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

    def test_a_paired_experiment_draws_its_holdout_once(self, tmp_path, monkeypatch):
        calls = []
        holdout = objectives.LinearRegressionObjective.holdout

        def spy(model, count):
            calls.append(count)
            return holdout(model, count)

        monkeypatch.setattr(objectives.LinearRegressionObjective, "holdout", spy)
        outdir = tmp_path / "out"
        path = full_config(tmp_path, outdir, output={"directory": str(outdir), "repeats": 2})
        assert cli.main(["compare", str(path)]) == 0
        assert len((outdir / "compare.csv").read_text().splitlines()) == 3
        assert calls == [100]

    def test_a_csv_objective_runs_each_listed_seed(self, tmp_path, monkeypatch):
        # output.seeds overrides both run.seed and AMB_SEED.
        monkeypatch.setenv("AMB_SEED", "77")
        outdir = tmp_path / "out"
        data = labeled_csv(tmp_path, [f"{i % 3},{i},{2 * i % 7},{255 - i}" for i in range(30)])
        path = full_config(tmp_path, outdir, objective={**SOFTMAX, "csv_path": str(data)},
                           output={"directory": str(outdir), "seeds": [4, 9]})
        assert cli.main(["run", str(path)]) == 0
        assert sorted(p.name for p in outdir.iterdir()) == [
            "amb_seed4.csv", "amb_seed4_nodes.csv", "amb_seed9.csv", "amb_seed9_nodes.csv",
            "summary.csv"]
        summary = (outdir / "summary.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in summary] == ["4", "9"]

    @pytest.mark.parametrize("rows", [
        None,
        ["0,1,2,3", "1,4,5"],
        ["0,1,2,3", "3,4,5,6"],
        ["0,1,2,3", "1,4,x,6"],
    ], ids=["missing-file", "short-row", "label-out-of-range", "non-numeric-cell"])
    def test_a_bad_csv_objective_names_the_key(self, tmp_path, capsys, rows):
        data = tmp_path / "missing.csv" if rows is None else labeled_csv(tmp_path, rows)
        outdir = tmp_path / "out"
        path = full_config(tmp_path, outdir, objective={**SOFTMAX, "csv_path": str(data)})
        assert cli.main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert "key 'objective.csv_path'" in err and "Traceback" not in err
        assert not outdir.exists()

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
        assert not (tmp_path / "out").exists()

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
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "0", "x"])
    def test_batch_times_must_be_positive_and_finite(self, tmp_path, capsys, bad):
        rows = ["0,1,1.5", "1,1,2.0", f"2,1,{bad}", "3,1,1.0"]
        path = trace_config(tmp_path, tmp_path / "out", rows=rows)
        assert cli.main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert "timing.path" in err and "times.csv:4" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("mode", ["fmb", "amb"])
    def test_a_batch_time_too_short_for_one_array_names_the_path(self, tmp_path, capsys, mode):
        # Node 4 is not in the graph, so its shorter time bounds nothing.
        rows = ["0,1,1.5", "1,1,1e-300", "2,1,1.0", "3,1,1.0", "4,1,1e-320"]
        path = trace_config(tmp_path, tmp_path / "out", rows=rows)
        payload = json.loads(path.read_text())
        payload["mode"] = mode
        path.write_text(json.dumps(payload))
        assert cli.main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert "timing.path" in err and "1e-300" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("row", ["2,1", "2,1,1.0,7", "-1,1,1.0"])
    def test_malformed_rows_cite_their_line(self, tmp_path, capsys, row):
        rows = ["0,1,1.5", "1,1,2.0", row, "2,1,1.0", "3,1,1.0"]
        path = trace_config(tmp_path, tmp_path / "out", rows=rows)
        assert cli.main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert "timing.path" in err and "times.csv:4" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("rows, line", [
        (["0,1,1.0", "0,3,3.0", "0,3,7.0"], 3),
        (["1,1,2.0", "0,1,1.0", "0,1,3.0", "2,1,1.0", "3,1,1.0"], 4),
        (["0,2,1.0", "1,1,2.0", "2,1,1.0", "3,1,1.0"], 2),
    ])
    def test_epochs_must_not_skip_or_repeat(self, tmp_path, capsys, rows, line):
        path = trace_config(tmp_path, tmp_path / "out", rows=rows)
        assert cli.main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert "timing.path" in err and f"times.csv:{line}" in err and "epoch" in err
        assert not (tmp_path / "out").exists()

    def test_a_trace_with_more_nodes_than_the_graph_runs(self, tmp_path):
        rows = ["0,1,1.5", "1,1,2.0", "2,1,1.0", "3,1,1.0", "4,1,3.0"]
        path = trace_config(tmp_path, tmp_path / "out", rows=rows)
        assert cli.main(["run", str(path)]) == 0

    @pytest.mark.parametrize("command, compute_time", [("run", "auto"), ("compare", 2.0)])
    def test_a_trace_with_more_nodes_than_the_graph_times_the_graph(self, tmp_path, command,
                                                                   compute_time):
        # The matched window ("auto") and the compare speedup bound both take
        # completion statistics over the graph's 10 nodes, not the trace's 12.
        rows = [f"{i},{t},{1.0 + 0.25 * i + 0.5 * t}" for i in range(12) for t in (1, 2)]
        run = {"tau": 2, "compute_time": compute_time, "communication_time": 0.5, "batch": 42,
               "radius": 6.0, "seed": 15}
        path = trace_config(tmp_path, tmp_path / "out", rows=rows, mode="amb",
                            topology={"kind": "testbed"}, run=run)
        assert cli.main([command, str(path)]) == 0
        summary = (tmp_path / "out" / "summary.csv").read_text().splitlines()
        assert len(summary) == (3 if command == "compare" else 2)


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


    @pytest.mark.parametrize("objective", [
        {"kind": "linear_regression", "dim": 6, "noise_var": 0.01, "seed": 2},
        {"kind": "logistic_regression", "classes": 3, "dim": 5, "seed": 4},
    ], ids=["linear", "softmax"])
    def test_auto_offset_runs_no_variance_probe(self, tmp_path, monkeypatch, objective):
        # The offset is estimate_constants' smoothness, bit for bit, but
        # resolving it must not pay for the variance probes it never reads.
        payload = {
            "mode": "amb",
            "objective": objective,
            "topology": {"kind": "complete", "n": 3},
            "schedule": {"offset": "auto", "work_scale": 100.0},
            "run": {"tau": 1, "compute_time": 2.0, "radius": 4.0, "seed": 1},
        }
        path = tmp_path / "auto.json"
        path.write_text(json.dumps(payload))
        spec = cli.parse_config(path)
        calls = []
        probe = objectives.gradient_variance_at

        def spy(*args):
            calls.append(args)
            return probe(*args)

        monkeypatch.setattr(objectives, "gradient_variance_at", spy)
        config = cli.build_run_config(spec, seed=1)
        assert calls == []
        model = config.objective
        seed = model.seed + 1_000_003
        objectives.estimate_constants(model, probe_count=48, seed=seed, radius=4.0)
        assert len(calls) == 6
        want = loop_estimate_constants(model, 48, seed, 4.0)[0]
        assert config.schedule.offset.hex() == want.hex()


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

    @pytest.mark.parametrize("rounds", [["uniform", 2.7, 3.9], 0, ["uniform", 2], "never"])
    def test_round_counts_are_the_library_rule(self, tmp_path, capsys, rounds):
        path = full_config(tmp_path, tmp_path / "out", consensus={"rounds": rounds})
        assert cli.main(["run", str(path)]) == 1
        with pytest.raises(ValueError) as library:
            engine.round_counts(rounds)
        assert f"error: key 'consensus.rounds': {library.value}\n" == capsys.readouterr().err

    def test_omitted_group_vars_take_the_model_default(self, tmp_path):
        for vars_ in (None, [1.0, 4.0, 9.0, 16.0, 25.0]):
            spec = cli.parse_config(paused_config(tmp_path, tmp_path / "out",
                                                  timing={"group_vars": vars_}))
            model = cli.build_run_config(spec, 1).timing
            assert model.group_vars == (1.0, 4.0, 9.0, 16.0, 25.0)

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
        ("output.bound_report", {"output": {"bound_report": True}}),
    ])
    def test_invalid_numbers_name_the_key(self, tmp_path, capsys, key, sections):
        path = paused_config(tmp_path, tmp_path / "out", **sections)
        assert cli.main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert key in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value, sections", [
        ("objective.noise_var", "x", {}),
        ("objective.cluster_spread", "x", {"objective": SOFTMAX}),
        ("output.directory", 5, {}),
        ("consensus", 5, {}),
        ("objective.csv_path", 5, {"objective": SOFTMAX}),
        ("consensus", [["scheme", "uniform"]], {}),
        ("objective.dim", 0, {}),
        ("objective.dim", 0, {"objective": SOFTMAX}),
        ("objective.classes", 1, {"objective": SOFTMAX}),
        ("objective.noise_var", -1, {}),
        ("topology.n", 0, {"topology": {"kind": "ring", "n": 5}}),
        ("topology.n", 0, {"topology": {"kind": "complete", "n": 5}}),
        ("timing.rate", -1, {}),
        ("timing.shift", -1, {}),
        ("timing.period", 0, {"timing": {"kind": "deterministic", "period": 2.0}}),
        ("schedule.offset", -1, {}),
        ("schedule.work_scale", 0, {}),
        ("run.radius", -1, {}),
        ("run.compute_time", 0, {}),
        ("run.communication_time", -1, {}),
        ("schedule", "x", {}),
        ("output", "x", {}),
        pytest.param("run.batch", 10**400, {"mode": "fmb"}, id="run.batch-10**400"),
        pytest.param("run.batch", 10**300, {"mode": "fmb"}, id="run.batch-10**300"),
        pytest.param("run.batch", 2**63, {"mode": "fmb"}, id="run.batch-2**63"),
        ("output.seeds", [], {}),
        pytest.param("run.batch", 2**62, {"mode": "fmb"}, id="run.batch-2**62"),
        pytest.param("run.batch", None, {"mode": "fmb"}, id="run.batch-None"),
        pytest.param("timing.shift", 0, {}, id="timing.shift-0-amb"),
        pytest.param("timing.shift", 0, {"mode": "fmb"}, id="timing.shift-0-fmb"),
        pytest.param("timing.shift", 1e-300, {}, id="timing.shift-1e-300"),
        pytest.param("timing.period", 1e-300, {"timing": {"kind": "deterministic", "period": 2.0}},
                     id="timing.period-1e-300"),
        pytest.param("objective.dim", 2**59, {"objective": SOFTMAX}, id="objective.dim-2**59-softmax"),
        pytest.param("objective.dim", 2**60, {}, id="objective.dim-2**60"),
        # Addressable, but larger than any host's memory.
        pytest.param("objective.dim", 2**55, {}, id="objective.dim-2**55"),
        pytest.param("objective.dim", 2**55, {"objective": {**SOFTMAX, "classes": 2}},
                     id="objective.dim-2**55-softmax"),
        pytest.param("run.holdout", 2**61, {}, id="run.holdout-2**61"),
        ("mode", "sgd", {}),
        # Metropolis weights on a 4-ring have eigenvalue -1/3.
        pytest.param("consensus.scheme", "metropolis", {"topology": {"kind": "ring", "n": 4}},
                     id="consensus.scheme-not-psd"),
        # The assignment covers the 10 testbed nodes and one more.
        pytest.param("timing.assignment", [0] * 11,
                     {"timing": {"kind": "grouped_pause", "group_means": [5.0],
                                 "assignment": [0] * 10}}, id="timing.assignment-too-long"),
        # The matched window needs the batch it matches.
        pytest.param("run.compute_time", "auto",
                     {"run": {"tau": 5, "radius": 6.0, "seed": 21}}, id="run.compute_time-auto"),
    ])
    def test_invalid_values_name_the_key(self, tmp_path, capsys, key, value, sections):
        path = full_config(tmp_path, tmp_path / "out", **sections)
        payload = json.loads(path.read_text())
        section, _, name = key.partition(".")
        if name:
            payload[section][name] = value
        else:
            payload[section] = value
        path.write_text(json.dumps(payload))
        assert cli.main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert key in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, output", [("compare", {}), ("run", {"paired": True})])
    def test_a_paired_run_needs_an_epoch(self, tmp_path, capsys, command, output):
        path = paused_config(tmp_path, tmp_path / "out", run={"tau": 0}, output=output)
        assert cli.main([command, str(path)]) == 1
        err = capsys.readouterr().err
        assert "run.tau" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, sections", [
        ("output.seeds", {"output": {"seeds": [1.5, 1.7]}}),
        ("output.seeds", {"output": {"seeds": [-1, 2]}}),
        ("output.seeds", {"output": {"seeds": [True, 2]}}),
        ("run.seed", {"run": {"seed": -1}}),
        ("run.seed", {"run": {"seed": True}}),
        ("objective.seed", {"objective": {"seed": -1}}),
        ("run.holdout", {"run": {"holdout": -10}}),
        ("run.batch", {"run": {"batch": 0}}),
        ("run.batch", {"run": {"batch": -5}}),
        ("run.tau", {"run": {"tau": -1}}),
    ])
    def test_seeds_and_counts_name_the_key(self, tmp_path, capsys, key, sections):
        path = paused_config(tmp_path, tmp_path / "out", **sections)
        assert cli.main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert key in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["-1", "1.5", "abc", ""])
    def test_amb_seed_must_be_a_non_negative_integer(self, tmp_path, capsys, monkeypatch, value):
        monkeypatch.setenv("AMB_SEED", value)
        path = paused_config(tmp_path, tmp_path / "out")
        assert cli.main(["run", str(path)]) == 1
        assert "AMB_SEED" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, base, run", [
        ("run.compute_time", 1e-300, {"compute_time": 1e300, "communication_time": 0.0}),
        ("run.communication_time", 1e-300, {"communication_time": 1e300}),
        ("run.compute_time", 1e-6, {"compute_time": 2.0, "communication_time": 0.5}),
        ("run.communication_time", 1e-6, {"compute_time": 0.5, "communication_time": 1.5}),
    ])
    def test_windows_beyond_the_walk_cap_name_the_key(self, tmp_path, capsys, key, base, run):
        # Rejected while the first runs are built, so no pause walk ever starts.
        path = paused_config(tmp_path, tmp_path / "out", run=run,
                             timing={"base_gradient_time": base})
        assert cli.main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert key in err and "base_gradient_time" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_windows_within_the_walk_cap_build(self, tmp_path):
        cap = timing.GroupedPauseTiming.MAX_WINDOW_GRADIENTS
        run = {"compute_time": 0.9 * cap * 1e-6, "communication_time": 0.5 * cap * 1e-6}
        path = paused_config(tmp_path, tmp_path / "out", run=run,
                             timing={"base_gradient_time": 1e-6})
        config = cli.build_run_config(cli.parse_config(path), seed=1)
        assert config.compute_time == pytest.approx(0.9)

    def test_compare_rejected_by_its_fixed_batch_run_writes_nothing(self, tmp_path, capsys):
        # The fixed-window run of the pair is valid; only the fixed-batch run needs batch >= 1.
        run = {"tau": 2, "compute_time": 2.5, "batch": 0, "radius": 6.0, "seed": 21}
        path = full_config(tmp_path, tmp_path / "out", run=run)
        assert cli.main(["compare", str(path)]) == 1
        assert "batch" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, sections, failing, key", [
        ("run", {"mode": "fmb"}, "fmb", "run.batch"),
        ("run", {}, "amb", "timing.shift"),
        ("run", {"timing": {"kind": "deterministic", "period": 2.0, "reference_batch": 10}},
         "amb", "timing.period"),
        ("run", {"timing": {"kind": "grouped_pause", "group_means": [5.0], "group_vars": [1.0],
                            "assignment": [0] * 10, "base_gradient_time": 0.5}},
         "amb", "run.compute_time"),
        # Its communication window fits more gradients than its compute window.
        ("run", {"timing": {"kind": "grouped_pause", "group_means": [5.0], "group_vars": [1.0],
                            "assignment": [0] * 10, "base_gradient_time": 0.5},
                 "run": {"tau": 5, "compute_time": 2.5, "communication_time": 4.0, "batch": 600,
                         "radius": 6.0, "seed": 21, "holdout": 100}},
         "amb", "run.communication_time"),
        ("compare", {}, "amb", "timing.shift"),
        ("compare", {}, "fmb", "run.batch"),
        # Each node's share is 60 samples, and its communication window fits 10,000.
        ("run", {"mode": "fmb", "timing": {"kind": "deterministic", "period": 1e-3,
                                           "reference_batch": 10}}, "fmb", "timing.period"),
        ("bounds", {}, "amb", "timing.shift"),
    ], ids=["fmb", "shifted-exponential", "deterministic", "grouped-pause",
            "grouped-pause-communication", "compare-amb", "compare-fmb", "fmb-window", "bounds"])
    def test_a_run_beyond_host_memory_names_the_key(self, tmp_path, capsys, monkeypatch,
                                                    command, sections, failing, key):
        run = engine.run

        def stub(config):
            if config.mode == failing:
                raise MemoryError("Unable to allocate 5.33 TiB")
            return run(config)

        monkeypatch.setattr(engine, "run", stub)
        outdir = tmp_path / "out"
        assert cli.main([command, str(full_config(tmp_path, outdir, **sections))]) == 1
        err = capsys.readouterr().err
        assert f"key '{key}'" in err and "5.33 TiB" in err and "Traceback" not in err
        # A compare writes its fixed-window run's files before the fixed-batch run starts.
        written = sorted(p.name for p in outdir.iterdir()) if outdir.exists() else None
        assert written == (["amb_seed21.csv", "amb_seed21_nodes.csv"]
                           if (command, failing) == ("compare", "fmb") else None)

    def test_a_holdout_beyond_host_memory_names_the_key(self, tmp_path, capsys, monkeypatch):
        def stub(model, count):
            raise MemoryError("Unable to allocate 128. GiB")

        monkeypatch.setattr(objectives.LinearRegressionObjective, "holdout", stub)
        assert cli.main(["run", str(full_config(tmp_path, tmp_path / "out"))]) == 1
        err = capsys.readouterr().err
        assert "key 'run.holdout'" in err and "128. GiB" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="only Linux enforces RLIMIT_AS; elsewhere the child would "
                               "really allocate")
    @pytest.mark.parametrize("command, sections, key", [
        ("run", {"timing": {"kind": "deterministic", "period": 1e-9}}, "timing.period"),
        ("run", {"objective": {"kind": "linear_regression", "dim": 1, "seed": 3},
                 "run": {"holdout": 2**34}}, "run.holdout"),
        ("bounds", {"timing": {"kind": "deterministic", "period": 1e-9}}, "timing.period"),
        ("run", {"mode": "amb",
                 "objective": {"kind": "linear_regression", "dim": 2000, "seed": 3},
                 "timing": {"kind": "grouped_pause", "group_means": [0.0], "group_vars": [0.0],
                            "assignment": [0, 0, 0], "base_gradient_time": 1.0},
                 "run": {"compute_time": 2.0, "communication_time": 900000.0}},
         "run.communication_time"),
        # Its dense 20,000 x 20,000 mixing matrix alone needs 2.98 GiB.
        ("run", {"mode": "amb", "topology": {"kind": "ring", "n": 20000}}, "topology.n"),
    ], ids=["run-window", "run-holdout", "bounds-window", "run-grouped-pause-communication",
            "run-ring-matrix"])
    def test_a_run_beyond_an_address_space_limit_names_the_key(self, tmp_path, command,
                                                               sections, key):
        # Each node-epoch of the window configs draws 10^9 samples of d = 8
        # (59.6 GiB), the grouped-pause config 900,002 of d = 2000 (13.4 GiB),
        # and the holdout config 2^34 samples of d = 1 (128 GiB), all within
        # numpy's address range; the child may map 2 GB.
        def limit():
            import resource
            resource.setrlimit(resource.RLIMIT_AS, (2 * 10**9, 2 * 10**9))

        outdir = tmp_path / "out"
        path = full_config(tmp_path, outdir, mode="fmb", topology={"kind": "complete", "n": 3})
        payload = json.loads(path.read_text())
        payload.update({name: value for name, value in sections.items() if name != "run"})
        payload["run"].update({"batch": 3, "holdout": 0, **sections.get("run", {})})
        path.write_text(json.dumps(payload))
        paths = [str(SRC), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
        result = subprocess.run([sys.executable, "-m", "ambsim.cli", command, str(path)],
                                env=env, preexec_fn=limit, capture_output=True, text=True,
                                timeout=120)
        assert result.returncode == 1, result.stderr
        assert f"key '{key}'" in result.stderr and "Traceback" not in result.stderr
        assert not outdir.exists()

    @pytest.mark.parametrize("command", ["run", "compare", "bounds"])
    @pytest.mark.parametrize("graph, failing, key", [
        ({"kind": "ring", "n": 5}, "ring_graph", "topology.n"),
        ({"kind": "edge_list", "path": "unread.txt"}, "load_edge_list", "topology.path"),
        ({"kind": "complete", "n": 5}, "weight_matrix", "topology.n"),
    ], ids=["ring", "edge-list", "complete-matrix"])
    def test_a_graph_beyond_host_memory_names_the_key(self, tmp_path, capsys, monkeypatch,
                                                      command, graph, failing, key):
        def stub(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.45 GiB")

        monkeypatch.setattr(topology, failing, stub)
        outdir = tmp_path / "out"
        assert cli.main([command, str(full_config(tmp_path, outdir, topology=graph))]) == 1
        err = capsys.readouterr().err
        assert f"key '{key}'" in err and "7.45 GiB" in err and "Traceback" not in err
        assert not outdir.exists()

    def test_a_memory_error_keeps_an_output_directory_it_did_not_create(self, tmp_path,
                                                                         monkeypatch):
        def stub(config):
            raise MemoryError("out of memory")

        monkeypatch.setattr(engine, "run", stub)
        (tmp_path / "out").mkdir()
        assert cli.main(["run", str(full_config(tmp_path, tmp_path / "out"))]) == 1
        assert (tmp_path / "out").is_dir()

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

    def test_topology_subcommand_on_the_testbed(self, capsys):
        edgefile = Path(__file__).parent.parent / "demos" / "configs" / "testbed_edges.txt"
        assert cli.main(["topology", str(edgefile)]) == 0
        not_psd = "matrix is not positive semidefinite (min eigenvalue {}); use the " \
            "lazy-metropolis scheme)"
        assert capsys.readouterr().out.splitlines() == [
            "nodes: 10",
            "edges: 16",
            "lambda2 (lazy-metropolis): 0.944206497542",
            "consensus round bound (Lipschitz constant 1.0):",
            "  eps        rounds",
            "  1          53",
            "  0.5        62",
            "  0.1        88",
            "  0.01       129",
            "  0.001      170",
            "lambda2 (metropolis): unavailable (metropolis: " + not_psd.format("-1.333e-01"),
            "lambda2 (uniform): unavailable (uniform: " + not_psd.format("-5.121e-02"),
        ]

    def test_bounds_subcommand(self, tmp_path, capsys):
        path = full_config(tmp_path, tmp_path / "out")
        assert cli.main(["bounds", str(path)]) == 0
        out = capsys.readouterr().out
        assert "sample-path bound" in out
        assert "empirical regret" in out

    def test_bounds_on_a_run_without_work_names_the_key(self, tmp_path, capsys):
        # A 9 s batch time leaves no gradient inside a 2 s window or a 1 s
        # communication time, so every node's potential work is 0 in every epoch.
        path = full_config(tmp_path, tmp_path / "out", topology={"kind": "complete", "n": 3},
                           timing={"kind": "deterministic", "period": 9.0, "reference_batch": 1},
                           run={"tau": 5, "compute_time": 2.0, "communication_time": 1.0,
                                "radius": 6.0, "seed": 21, "holdout": 100})
        assert cli.main(["bounds", str(path)]) == 1
        err = capsys.readouterr().err
        assert "key 'timing.period'" in err and "no node finished a gradient in any epoch" in err
        assert "Traceback" not in err and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name", ["linear_compare", "paused_stragglers"])
    def test_bounds_prints_the_pinned_report_for_a_shipped_config(self, name, capsys,
                                                                 monkeypatch):
        # Every printed digit of the report, the expected-work bound's among
        # them, against text committed under tests/golden/bounds.
        monkeypatch.delenv("AMB_SEED", raising=False)
        root = Path(__file__).resolve().parent
        config = root.parent / "demos" / "configs" / f"{name}.json"
        assert cli.main(["bounds", str(config)]) == 0
        assert capsys.readouterr().out == (root / "golden" / "bounds" / f"{name}.txt").read_text()

    def test_bounds_without_a_minimizer_runs_nothing(self, tmp_path, capsys, monkeypatch):
        from ambsim import engine
        runs = []
        monkeypatch.setattr(engine, "run", lambda config: runs.append(config))
        path = full_config(tmp_path, tmp_path / "out", objective=SOFTMAX)
        assert cli.main(["bounds", str(path)]) == 0
        assert "unavailable" in capsys.readouterr().out
        assert runs == []

    def test_gnuplot_subcommand(self, capsys):
        assert cli.main(["gnuplot", "trace.csv"]) == 0
        assert "plot 'trace.csv'" in capsys.readouterr().out


class TestSizingRule:
    @pytest.mark.parametrize("mode", ["amb", "fmb"])
    @pytest.mark.parametrize("section", [
        {"kind": "shifted_exponential", "rate": 1000.0, "shift": 1.0, "reference_batch": 10},
        {"kind": "deterministic", "period": 1.0, "reference_batch": 10},
        {"kind": "trace", "path": str(TIMING_TRACE), "reference_batch": 10},
        # Pause-free, so each window fits as many gradients as its length allows.
        {"kind": "grouped_pause", "group_means": [0.0], "group_vars": [0.0],
         "assignment": [0] * 4, "base_gradient_time": 0.1},
    ], ids=lambda section: section["kind"])
    def test_no_node_epoch_draws_more_rows_than_the_rule_reports(self, tmp_path, monkeypatch,
                                                                  mode, section):
        run = {"tau": 3, "compute_time": 2.0, "communication_time": 1.0, "batch": 40,
               "radius": 6.0, "seed": 5}
        path = full_config(tmp_path, tmp_path / "out", mode=mode, timing=section, run=run,
                           topology={"kind": "complete", "n": 4})
        spec = cli.parse_config(path)
        config = cli.build_run_config(spec, seed=5)
        window = config.compute_time or 0.0
        _, rows = cli._epoch_rows(spec, mode, config.timing, config.graph.n, window)
        # The pause rule is "about" its windows' length over base_gradient_time: rounding in
        # a walk can fit one more gradient in each open window.
        slack = (window > 0) + (config.comm_time > 0) if section["kind"] == "grouped_pause" else 0
        drawn = []
        draw_rows = objectives.LinearRegressionObjective.draw_rows

        def spy(self, counts, lanes):
            drawn.extend(counts)
            return draw_rows(self, counts, lanes)

        monkeypatch.setattr(objectives.LinearRegressionObjective, "draw_rows", spy)
        engine.run(config)
        assert len(drawn) == 3 * 4
        # The rule is close to what the node-epochs draw, so a bound that counted too few rows fails.
        assert rows / 2 < max(drawn) <= rows + slack
