"""Outside-in tracing of ambsim's layers, from the benchmark's own files.

The tracer replaces public functions of each ambsim module, and methods of
its model and timing classes, with wrappers that record a span (name,
start, end, parent) and counts. It wraps each function where its callers
look it up: ``engine`` binds ``build_consensus_matrix`` with
``from .topology import``, so that name is wrapped on ``engine`` as well as
on ``topology``. ``restore`` puts every original back.

Self time of a span is its duration minus the durations of its child
spans; calls are synchronous, so children never overlap.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import defaultdict


def _rows(args):
    return len(args[2])


def wrap_points(m) -> list:
    """``(owner, attribute, span name, counter)`` for every call the trace observes.

    These are the public calls the benchmark's workloads reach. ``m`` holds
    the imported ambsim modules as attributes. A span name of None counts
    calls without a span. A counter is ``(name, amount(args))``.
    """
    points = [
        (m.seeding, "substream", "seeding.substream", None),
        (m.cli, "parse_config", "cli.parse_config", None),
        (m.cli, "build_run_config", "cli.build_run_config", None),
        (m.cli, "run_experiment", "cli.run_experiment", None),
        (m.cli, "write_trace_csv", "cli.write_csv", None),
        (m.cli, "write_nodes_csv", "cli.write_csv", None),
        (m.engine, "run", "engine.run", None),
        (m.engine, "init_state", "engine.init_state", None),
        (m.engine, "run_amb_epoch", "engine.epoch", None),
        (m.engine, "run_fmb_epoch", "engine.epoch", None),
        (m.engine, "matched_compute_time", "engine.matched_compute_time", None),
        (m.engine, "build_consensus_matrix", "topology.build_consensus_matrix", None),
        (m.topology, "build_consensus_matrix", "topology.build_consensus_matrix", None),
        (m.topology, "second_eigenvalue", "topology.second_eigenvalue", None),
        (m.topology, "weight_matrix", "topology.weight_matrix", None),
        (m.topology, "testbed_graph", "topology.testbed_graph", None),
        (m.topology, "ring_graph", "topology.ring_graph", None),
        (m.dualavg, "initial_dual_state", "dualavg.initial_dual_state", None),
        (m.dualavg, "apply_consensus_result", "dualavg.apply_consensus_result", None),
        (m.dualavg, "beta", "dualavg.beta", None),
        (m.dualavg, "primal_update", "dualavg.primal_update", None),
        (m.metrics, "build_trace", "metrics.build_trace", None),
        (m.metrics, "empirical_regret", "metrics.empirical_regret", None),
        (m.metrics, "error_vs_walltime", "metrics.error_vs_walltime", None),
        (m.metrics, "speedup_measurement", "metrics.speedup_measurement", None),
        (m.metrics, "time_to_reach", "metrics.time_to_reach", None),
        (m.timing.ShiftedExponential, "batch_time", "timing.batch_time", None),
        (m.timing.ShiftedExponential, "per_gradient_time", "timing.per_gradient_time", None),
    ]
    for model in (m.objectives.LinearRegressionObjective, m.objectives.MulticlassLogisticObjective):
        points += [
            (model, "draw", "objectives.draw", ("objectives.samples_drawn", lambda a: a[3])),
            (model, "holdout", "objectives.holdout", None),
            (model, "loss_batch", "objectives.loss_batch", ("objectives.loss_rows", _rows)),
            (model, "grad_mean", "objectives.grad_mean", ("objectives.grad_rows", _rows)),
        ]
    pauses = m.timing.GroupedPauseTiming
    points += [
        (pauses, "compute_window", "timing.compute_window", None),
        (pauses, "fixed_count_time", "timing.fixed_count_time", None),
        (pauses, "completion_stats", "timing.completion_stats", None),
        (pauses, "pause", None, ("timing.pause_draws", lambda a: 1)),
    ]
    return points


class Tracer:
    """Spans and counts of one traced stretch of work, kept in memory."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = defaultdict(int)
        self._open = []
        self._saved = []

    def _wrap(self, fn, name, counter):
        spans, counts, open_spans = self.spans, self.counts, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                counts[counter[0]] += counter[1](args)
            if name is None:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append([name, 0.0, 0.0, open_spans[-1] if open_spans else -1])
            open_spans.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                open_spans.pop()
                spans[index][1] = start
                spans[index][2] = end

        return traced

    def install(self, points):
        for owner, attr, name, counter in points:
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, counter))

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _has_ancestor(spans, index: int, name: str) -> bool:
    while index >= 0:
        if spans[index][0] == name:
            return True
        index = spans[index][3]
    return False


def layer_metrics(spans, counts) -> dict:
    """Per-layer counts and times of one traced experiment, keyed by metric name."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    own = defaultdict(float)
    total = defaultdict(float)
    calls = defaultdict(int)
    layer_own = defaultdict(float)
    epoch_ms = []
    holdout_loss = 0.0
    for i, (name, start, end, parent) in enumerate(spans):
        duration = end - start
        own[name] += duration - child[i]
        total[name] += duration
        calls[name] += 1
        layer_own[name.split(".")[0]] += duration - child[i]
        if name == "engine.epoch":
            epoch_ms.append(duration * 1e3)
        elif name == "objectives.loss_batch" and _has_ancestor(spans, parent, "metrics.build_trace"):
            holdout_loss += duration - child[i]
    drawn = counts.get("objectives.samples_drawn", 0)
    grad_rows = counts.get("objectives.grad_rows", 0)
    epoch_p90 = statistics.quantiles(epoch_ms, n=10)[8] if len(epoch_ms) > 1 else epoch_ms[0]
    return {
        "seeding.substream_calls": calls["seeding.substream"],
        "seeding.substream_s": own["seeding.substream"],
        "timing.calls": sum(c for name, c in calls.items() if name.startswith("timing.")),
        "timing.pause_draws": counts.get("timing.pause_draws", 0),
        "timing.self_s": layer_own["timing"],
        "objectives.samples_drawn": drawn,
        "objectives.draw_s": own["objectives.draw"],
        "objectives.grad_rows": grad_rows,
        "objectives.grad_s": own["objectives.grad_mean"],
        "objectives.useful_sample_frac": grad_rows / drawn if drawn else 0.0,
        "objectives.loss_rows": counts.get("objectives.loss_rows", 0),
        "objectives.loss_s": own["objectives.loss_batch"],
        "metrics.holdout_loss_s": holdout_loss,
        "metrics.build_trace_s": total["metrics.build_trace"],
        "metrics.self_s": layer_own["metrics"],
        "engine.epochs": len(epoch_ms),
        "engine.epoch_ms_p50": statistics.median(epoch_ms),
        "engine.epoch_ms_p90": epoch_p90,
        "engine.self_s": layer_own["engine"],
        "dualavg.primal_calls": calls["dualavg.primal_update"],
        "dualavg.primal_s": own["dualavg.primal_update"],
        "topology.build_s": total["topology.build_consensus_matrix"],
        "topology.lambda2_s": total["topology.second_eigenvalue"],
        "cli.parse_s": total["cli.parse_config"],
        "cli.build_run_config_s": total["cli.build_run_config"],
        "cli.csv_write_s": total["cli.write_csv"],
    }
