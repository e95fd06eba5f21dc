"""Self-tests of the benchmark: tracing changes no output and leaves no wrapper behind.

Run from the repository root: ``python3 -m pytest bench/test_bench.py``.
"""

from __future__ import annotations

import pytest

import ambtrace
import run
import workloads


@pytest.fixture(scope="module")
def m():
    return run.load_ambsim()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tracing_changes_no_output(m, name, tmp_path):
    bench = run.Bench(m, workloads.WORKLOADS[name], 1, tmp_path)
    points = ambtrace.wrap_points(m)
    originals = [vars(owner)[attr] for owner, attr, _, _ in points]

    assert bench.experiment() is not None
    elapsed, tracer = run.traced_iteration(bench)

    assert elapsed is not None
    # The traced run's files matched the untraced run's byte for byte.
    assert bench.attempted == 2 and bench.problems == []
    assert all(vars(owner)[attr] is original
               for (owner, attr, _, _), original in zip(points, originals))
    names = {span[0] for span in tracer.spans}
    assert {"cli.parse_config", "cli.run_experiment", "engine.epoch", "seeding.substream",
            "topology.second_eigenvalue", "objectives.loss_batch"} <= names


def test_layer_metrics_subtract_child_spans():
    spans = [
        ["metrics.build_trace", 0.0, 10.0, -1],
        ["metrics.error_vs_walltime", 1.0, 9.0, 0],
        ["objectives.loss_batch", 2.0, 5.0, 1],
        ["seeding.substream", 3.0, 4.0, 2],
        ["engine.epoch", 10.0, 12.0, -1],
        ["objectives.loss_batch", 10.5, 11.0, 4],
    ]
    got = ambtrace.layer_metrics(spans, {"objectives.samples_drawn": 4,
                                         "objectives.grad_rows": 3})
    assert got["metrics.build_trace_s"] == 10.0
    assert got["metrics.self_s"] == 2.0 + 5.0
    assert got["objectives.loss_s"] == 2.0 + 0.5
    assert got["metrics.holdout_loss_s"] == 2.0
    assert got["seeding.substream_s"] == 1.0
    assert got["engine.self_s"] == 1.5
    assert got["engine.epochs"] == 1
    assert got["objectives.useful_sample_frac"] == 0.75


def test_workload_seed_sets_run_and_objective_seeds():
    for workload in workloads.WORKLOADS.values():
        one = workloads.make_config(workload, 1, "out")
        assert one == workloads.make_config(workload, 1, "out")
        two = workloads.make_config(workload, 2, "out")
        assert one["run"]["seed"] != two["run"]["seed"]
        assert one["objective"]["seed"] != two["objective"]["seed"]
