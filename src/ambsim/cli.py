"""Experiment configuration, orchestration, and CSV output.

Configs are single JSON files validated fail-closed: unknown keys are
rejected with their full path. Plotting stays out of process; runs emit
CSV and the ``gnuplot`` subcommand prints a ready-made script for them.

Subcommands: ``run <config>``, ``compare <config>`` (paired fixed-window
and fixed-batch runs), ``topology <edgelist>``, ``bounds <config>``, and
``gnuplot <trace.csv>``. The ``AMB_SEED`` environment variable overrides
the configured base seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import dualavg, engine, metrics, objectives, timing, topology

__all__ = ["ExperimentSpec", "ConfigError", "parse_config", "write_config",
           "run_experiment", "main"]

TRACE_HEADER = "epoch,wall_time,global_batch,potential_batch,consensus_rounds,consensus_error,error_gap,regret"
NODES_HEADER = "epoch,node,b_i,a_i,c_i,r_i,T_i"
SUMMARY_HEADER = "seed,mode,tau,n,lambda2,wall_end,processed_samples,potential_samples,final_error_gap,final_regret"
COMPARE_HEADER = "seed,S_A,S_F,ratio,bound,amb_wall,fmb_wall,amb_final_gap,fmb_final_gap,amb_time_to_fmb_gap"


class ConfigError(ValueError):
    """A config file failed validation; the message names the offending key."""


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _check_keys(section: dict, allowed, path: str):
    for key in section:
        if key not in allowed:
            raise ConfigError(f"unknown key '{path}.{key}'" if path else f"unknown key '{key}'")


def _is_finite(value) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def _get(section: dict, key: str, path: str, kind, default="__required__"):
    if key not in section:
        if default == "__required__":
            raise ConfigError(f"missing required key '{path}.{key}'")
        return default
    value = section[key]
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value) if _is_finite(value) else math.inf
    if kind is not None and not isinstance(value, kind) or isinstance(value, bool) and kind is not bool:
        raise ConfigError(f"key '{path}.{key}' must be {getattr(kind, '__name__', kind)}, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"key '{path}.{key}' must be finite, got {value!r}")
    return value


def _number_or_auto(section, key, path, default):
    value = section.get(key, default)
    if value == "auto":
        return "auto"
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not _is_finite(value):
        raise ConfigError(f"key '{path}.{key}' must be a finite number or 'auto', got {value!r}")
    return float(value)


def _number_list(section, key, path, minimum=-math.inf):
    values = _get(section, key, path, list)
    if not all(type(v) in (int, float) and _is_finite(v) and v >= minimum for v in values):
        bound = "" if minimum == -math.inf else f" >= {minimum:g}"
        raise ConfigError(f"key '{path}.{key}' must be a list of finite numbers{bound}, "
                          f"got {values!r}")
    return values


@dataclass(frozen=True)
class ExperimentSpec:
    """A validated experiment: the config file's sections with defaults filled."""

    mode: str
    objective: dict
    topology: dict
    consensus: dict
    timing: dict
    schedule: dict
    run: dict
    output: dict


def parse_config(path) -> ExperimentSpec:
    """Load and validate a JSON experiment config, filling documented defaults."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    _check_keys(raw, {"mode", "objective", "topology", "consensus", "timing",
                      "schedule", "run", "output"}, "")
    mode = _get(raw, "mode", "", str)
    if mode not in engine.MODES:
        raise ConfigError(f"key 'mode' must be one of {engine.MODES}, got {mode!r}")

    obj = dict(_get(raw, "objective", "", dict))
    kind = _get(obj, "kind", "objective", str)
    if kind == "linear_regression":
        _check_keys(obj, {"kind", "dim", "noise_var", "seed"}, "objective")
        obj.setdefault("noise_var", 1e-3)
        _get(obj, "dim", "objective", int)
        _get(obj, "seed", "objective", int)
    elif kind == "logistic_regression":
        _check_keys(obj, {"kind", "classes", "dim", "seed", "csv_path", "cluster_spread"},
                    "objective")
        _get(obj, "classes", "objective", int)
        _get(obj, "dim", "objective", int)
        _get(obj, "seed", "objective", int)
        obj.setdefault("cluster_spread", 2.0)
    else:
        raise ConfigError(f"key 'objective.kind' unknown: {kind!r}")

    topo = dict(_get(raw, "topology", "", dict))
    tk = _get(topo, "kind", "topology", str)
    if tk == "testbed":
        _check_keys(topo, {"kind"}, "topology")
    elif tk in ("complete", "ring"):
        _check_keys(topo, {"kind", "n"}, "topology")
        _get(topo, "n", "topology", int)
    elif tk == "edge_list":
        _check_keys(topo, {"kind", "path"}, "topology")
        _get(topo, "path", "topology", str)
    else:
        raise ConfigError(f"key 'topology.kind' unknown: {tk!r}")

    cons = dict(raw.get("consensus", {}))
    _check_keys(cons, {"scheme", "rounds", "exact_batch_norm"}, "consensus")
    cons.setdefault("scheme", "lazy-metropolis")
    cons.setdefault("rounds", 5)
    cons.setdefault("exact_batch_norm", False)
    if cons["scheme"] not in topology.SCHEMES:
        raise ConfigError(f"key 'consensus.scheme' must be one of {topology.SCHEMES}")
    rounds = cons["rounds"]
    if isinstance(rounds, list):
        if len(rounds) != 3 or rounds[0] != "uniform":
            raise ConfigError("key 'consensus.rounds' list form is ['uniform', low, high]")
        counts = rounds[1:]
    else:
        counts = [] if rounds == "exact" else [rounds]
    if not all(type(c) is int and c >= 1 for c in counts) or counts != sorted(counts):
        raise ConfigError("key 'consensus.rounds' must be an integer >= 1, 'exact', or "
                          f"['uniform', low, high] with integers 1 <= low <= high, got {rounds!r}")
    if not isinstance(cons["exact_batch_norm"], bool):
        raise ConfigError("key 'consensus.exact_batch_norm' must be a boolean")

    tim = dict(raw.get("timing", {"kind": "deterministic", "period": 1.0, "reference_batch": 1}))
    tkind = _get(tim, "kind", "timing", str)
    if tkind == "shifted_exponential":
        _check_keys(tim, {"kind", "rate", "shift", "reference_batch"}, "timing")
        _get(tim, "rate", "timing", float)
        _get(tim, "shift", "timing", float)
    elif tkind == "deterministic":
        _check_keys(tim, {"kind", "period", "reference_batch"}, "timing")
        _get(tim, "period", "timing", float)
        tim.setdefault("reference_batch", 1)
    elif tkind == "grouped_pause":
        _check_keys(tim, {"kind", "group_means", "group_vars", "assignment",
                          "base_gradient_time"}, "timing")
        means = _number_list(tim, "group_means", "timing")
        tim.setdefault("group_vars", [float((j + 1) ** 2) for j in range(len(means))])
        if len(_number_list(tim, "group_vars", "timing", minimum=0.0)) != len(means):
            raise ConfigError("key 'timing.group_vars' must have one entry per group mean")
        assignment = _get(tim, "assignment", "timing", list)
        if not all(type(j) is int and 0 <= j < len(means) for j in assignment):
            raise ConfigError(f"key 'timing.assignment' must list group indices in "
                              f"[0, {len(means)}), got {assignment!r}")
        tim.setdefault("base_gradient_time", 5.0)
        if not _get(tim, "base_gradient_time", "timing", float) > 0:
            raise ConfigError("key 'timing.base_gradient_time' must be positive")
    elif tkind == "trace":
        _check_keys(tim, {"kind", "path", "reference_batch"}, "timing")
        _get(tim, "path", "timing", str)
    else:
        raise ConfigError(f"key 'timing.kind' unknown: {tkind!r}")
    if tkind != "grouped_pause":
        batch = _get(tim, "reference_batch", "timing", int)
        if batch < 1 or not _is_finite(batch):
            raise ConfigError(f"key 'timing.reference_batch' must be an integer >= 1 within "
                              f"the float range, got {batch!r}")

    sched = dict(raw.get("schedule", {}))
    _check_keys(sched, {"offset", "work_scale"}, "schedule")
    sched["offset"] = _number_or_auto(sched, "offset", "schedule", "auto")
    sched["work_scale"] = _number_or_auto(sched, "work_scale", "schedule", "auto")

    run = dict(_get(raw, "run", "", dict))
    _check_keys(run, {"tau", "compute_time", "communication_time", "batch",
                      "radius", "seed", "holdout"}, "run")
    _get(run, "tau", "run", int)
    _get(run, "seed", "run", int)
    run["compute_time"] = _number_or_auto(run, "compute_time", "run", 1.0)
    run.setdefault("communication_time", 0.5)
    _get(run, "communication_time", "run", float)
    run["communication_time"] = float(run["communication_time"])
    if "batch" in run:
        _get(run, "batch", "run", int)
    else:
        run["batch"] = None
    run["radius"] = _number_or_auto(run, "radius", "run", "auto")
    run.setdefault("holdout", 0)
    _get(run, "holdout", "run", int)

    out = dict(raw.get("output", {}))
    _check_keys(out, {"directory", "repeats", "seeds", "paired", "bound_report"}, "output")
    out.setdefault("directory", "out")
    out.setdefault("repeats", 1)
    out.setdefault("seeds", None)
    out.setdefault("paired", False)
    out.setdefault("bound_report", False)
    if type(out["repeats"]) is not int or out["repeats"] < 1:
        raise ConfigError(f"key 'output.repeats' must be an integer >= 1, got {out['repeats']!r}")
    for key in ("paired", "bound_report"):
        _get(out, key, "output", bool)
    if out["seeds"] is not None:
        seeds = out["seeds"]
        if not isinstance(seeds, list) or len(set(seeds)) != len(seeds):
            raise ConfigError("key 'output.seeds' must be a list of distinct integers")

    return ExperimentSpec(mode=mode, objective=obj, topology=topo, consensus=cons,
                          timing=tim, schedule=sched, run=run, output=out)


def write_config(spec: ExperimentSpec, path):
    """Write a spec back to JSON; `parse_config` of the result reproduces it."""
    payload = {
        "mode": spec.mode,
        "objective": spec.objective,
        "topology": spec.topology,
        "consensus": spec.consensus,
        "timing": spec.timing,
        "schedule": spec.schedule,
        "run": spec.run,
        "output": spec.output,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def build_objective(section: dict):
    if section["kind"] == "linear_regression":
        return objectives.make_linear_regression(section["dim"], section["noise_var"],
                                                 section["seed"])
    return objectives.make_logistic_regression(
        section["classes"], section["dim"], section["seed"],
        csv_path=section.get("csv_path"), cluster_spread=section["cluster_spread"])


def build_graph(section: dict) -> topology.Graph:
    kind = section["kind"]
    if kind == "testbed":
        return topology.testbed_graph()
    if kind == "complete":
        return topology.complete_graph(section["n"])
    if kind == "ring":
        return topology.ring_graph(section["n"])
    return topology.load_edge_list(section["path"])


def build_timing(section: dict):
    kind = section["kind"]
    if kind == "shifted_exponential":
        return timing.ShiftedExponential(section["rate"], section["shift"],
                                         section["reference_batch"])
    if kind == "deterministic":
        return timing.DeterministicTiming(section["period"], section["reference_batch"])
    if kind == "grouped_pause":
        return timing.GroupedPauseTiming(
            tuple(float(m) for m in section["group_means"]),
            tuple(float(v) for v in section["group_vars"]),
            tuple(int(j) for j in section["assignment"]),
            float(section["base_gradient_time"]))
    try:
        return timing.load_timing_trace(section["path"], section["reference_batch"])
    except ValueError as exc:
        raise ConfigError(f"key 'timing.path': {exc}") from None


def _mean_fixed_batch_time(model, graph, batch):
    counts = engine._fmb_batches(batch, graph.n)
    mean, _ = model.completion_stats(counts)
    return mean


def _resolve_compute_time(spec, graph, tmodel):
    value = spec.run["compute_time"]
    if value != "auto":
        return float(value)
    if spec.run["batch"] is None:
        raise ConfigError("run.compute_time 'auto' needs run.batch for the matched pairing")
    return engine.matched_compute_time(spec.run["batch"], graph.n,
                                       _mean_fixed_batch_time(tmodel, graph, spec.run["batch"]))


def _resolve_radius(spec, model) -> float:
    value = spec.run["radius"]
    if value != "auto":
        return float(value)
    if model.kind == "linear_regression":
        return 2.0 * math.sqrt(model.dim)
    return 10.0


def _resolve_schedule(spec, model, graph, tmodel, radius, compute_time, mode) -> dualavg.Schedule:
    offset = spec.schedule["offset"]
    if offset == "auto":
        est = objectives.estimate_constants(model, probe_count=48,
                                            seed=model.seed + 1_000_003, radius=radius)
        offset = est.grad_smoothness
    scale = spec.schedule["work_scale"]
    if scale == "auto":
        if mode == "fmb":
            if spec.run["batch"] is None:
                raise ConfigError("schedule.work_scale 'auto' in fmb mode needs run.batch")
            scale = float(spec.run["batch"])
        else:
            scale = tmodel.mean_window_batch(compute_time, graph.n)
    return dualavg.Schedule(offset=float(offset), work_scale=float(scale))


def build_run_config(spec: ExperimentSpec, seed: int, mode: str | None = None) -> engine.RunConfig:
    """Materialize one runnable config, resolving every 'auto' placeholder."""
    mode = mode or spec.mode
    model = build_objective(spec.objective)
    graph = topology.complete_graph(1) if mode == "serial" else build_graph(spec.topology)
    if spec.timing["kind"] == "grouped_pause":
        # Serial mode runs node 0 of the configured assignment.
        assigned = len(spec.timing["assignment"])
        if assigned != graph.n and not (mode == "serial" and assigned):
            raise ConfigError(f"key 'timing.assignment' has {assigned} entries, "
                              f"but the graph has {graph.n} nodes")
    tmodel = build_timing(spec.timing)
    if spec.timing["kind"] == "trace" and len(tmodel.table) < graph.n:
        raise ConfigError(f"key 'timing.path' has batch times for {len(tmodel.table)} nodes, "
                          f"but the graph has {graph.n} nodes")
    radius = _resolve_radius(spec, model)
    compute_time = None
    if mode in ("amb", "serial"):
        compute_time = _resolve_compute_time(spec, graph, tmodel)
    schedule = _resolve_schedule(spec, model, graph, tmodel, radius,
                                 compute_time if compute_time is not None else 1.0, mode)
    rounds = spec.consensus["rounds"]
    if isinstance(rounds, list):
        rounds = tuple(rounds)
    if mode == "serial":
        rounds = "exact"
    return engine.RunConfig(
        mode=mode,
        graph=graph,
        objective=model,
        timing=tmodel,
        schedule=schedule,
        comm_time=spec.run["communication_time"],
        tau=spec.run["tau"],
        radius=radius,
        seed=seed,
        compute_time=compute_time,
        batch=spec.run["batch"],
        rounds=rounds,
        scheme=spec.consensus["scheme"],
        exact_batch_norm=spec.consensus["exact_batch_norm"],
        holdout=spec.run["holdout"],
    )


def _seeds(spec: ExperimentSpec):
    base = int(os.environ.get("AMB_SEED", spec.run["seed"]))
    if spec.output["seeds"] is not None:
        return [int(s) for s in spec.output["seeds"]]
    return [base + i for i in range(int(spec.output["repeats"]))]


def write_trace_csv(trace: metrics.RunTrace, path):
    """Write the documented per-epoch trace; floats use 17 significant digits."""
    lines = [TRACE_HEADER]
    for k, record in enumerate(trace.records):
        gap = trace.error.gap[k + 1] if trace.error is not None else float("nan")
        regret = trace.regret.potential[k] if trace.regret is not None else float("nan")
        rounds_used = int(record.rounds_used.max()) if record.rounds_used.size else 0
        lines.append(",".join([
            str(record.epoch),
            _fmt(float(record.wall_end)),
            str(record.global_batch),
            str(record.global_potential),
            str(rounds_used),
            _fmt(float(record.consensus_error)),
            _fmt(float(gap)),
            _fmt(float(regret)),
        ]))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_nodes_csv(trace: metrics.RunTrace, path):
    lines = [NODES_HEADER]
    for record in trace.records:
        for i in range(len(record.batch_sizes)):
            lines.append(",".join([
                str(record.epoch),
                str(i),
                str(int(record.batch_sizes[i])),
                str(int(record.extra_capacity[i])),
                str(int(record.batch_sizes[i] + record.extra_capacity[i])),
                str(int(record.rounds_used[i])),
                _fmt(float(record.batch_times[i])),
            ]))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _summary_row(seed: int, trace: metrics.RunTrace) -> str:
    gap = trace.error.gap[-1] if trace.error is not None else float("nan")
    regret = trace.regret.potential[-1] if trace.regret is not None else float("nan")
    wall = trace.wall[-1] if trace.tau else 0.0
    return ",".join([
        str(seed), trace.mode, str(trace.tau), str(trace.config.graph.n),
        _fmt(float(trace.lambda2)), _fmt(float(wall)),
        str(trace.processed_total), str(trace.potential_total),
        _fmt(float(gap)), _fmt(float(regret)),
    ])


def _bound_constants(trace: metrics.RunTrace) -> metrics.BoundConstants:
    model = trace.config.objective
    if getattr(model, "w_star", None) is None:
        raise ValueError("bound constants need an objective with a known minimizer")
    radius = trace.config.radius
    est = objectives.estimate_constants(model, probe_count=64,
                                        seed=model.seed + 1_000_003, radius=radius)
    h_star = 0.5 * float(np.dot(model.w_star, model.w_star))
    return metrics.BoundConstants(
        grad_smoothness=est.grad_smoothness,
        loss_lipschitz=est.loss_lipschitz,
        grad_variance=est.grad_variance,
        diameter=2.0 * radius,
        initial_gap=h_star,
        h_star=h_star,
        provenance="estimated (probes) + analytic minimizer",
    )


def run_experiment(spec: ExperimentSpec) -> int:
    """Execute the spec: one run per seed, paired comparison if requested."""
    outdir = spec.output["directory"]
    os.makedirs(outdir, exist_ok=True)
    summary = [SUMMARY_HEADER]
    compare_rows = [COMPARE_HEADER]
    matrix = None

    def configured(seed, mode=None):
        # Every run of one experiment shares its graph and scheme, so the
        # mixing matrix is built and validated once.
        nonlocal matrix
        config = build_run_config(spec, seed, mode)
        if matrix is None:
            matrix = topology.build_consensus_matrix(config.graph, config.scheme)
        return replace(config, matrix=matrix)

    for seed in _seeds(spec):
        if spec.output["paired"]:
            trace_a = engine.run(configured(seed, "amb"))
            trace_f = engine.run(configured(seed, "fmb"))
            for trace, tag in ((trace_a, "amb"), (trace_f, "fmb")):
                write_trace_csv(trace, os.path.join(outdir, f"{tag}_seed{seed}.csv"))
                write_nodes_csv(trace, os.path.join(outdir, f"{tag}_seed{seed}_nodes.csv"))
                summary.append(_summary_row(seed, trace))
            report = metrics.speedup_measurement(trace_a, trace_f)
            cross = float("nan")
            if trace_a.error is not None and trace_f.error is not None:
                cross = metrics.time_to_reach(trace_a.error, float(trace_f.error.gap[-1]))
            compare_rows.append(",".join([
                str(seed),
                _fmt(report.compute_time_fixed_window),
                _fmt(report.compute_time_fixed_batch),
                _fmt(report.ratio),
                _fmt(report.bound),
                _fmt(float(trace_a.wall[-1] if trace_a.tau else 0.0)),
                _fmt(float(trace_f.wall[-1] if trace_f.tau else 0.0)),
                _fmt(float(trace_a.error.gap[-1]) if trace_a.error is not None else float("nan")),
                _fmt(float(trace_f.error.gap[-1]) if trace_f.error is not None else float("nan")),
                _fmt(cross),
            ]))
        else:
            trace = engine.run(configured(seed))
            write_trace_csv(trace, os.path.join(outdir, f"{spec.mode}_seed{seed}.csv"))
            write_nodes_csv(trace, os.path.join(outdir, f"{spec.mode}_seed{seed}_nodes.csv"))
            summary.append(_summary_row(seed, trace))
            if spec.output["bound_report"]:
                report = metrics.bound_report(trace, _bound_constants(trace))
                with open(os.path.join(outdir, f"bounds_seed{seed}.txt"), "w",
                          encoding="utf-8") as fh:
                    fh.write("\n".join(report.lines()) + "\n")
    with open(os.path.join(outdir, "summary.csv"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(summary) + "\n")
    if spec.output["paired"]:
        with open(os.path.join(outdir, "compare.csv"), "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(compare_rows) + "\n")
    return 0


def _cmd_run(args) -> int:
    spec = parse_config(args.config)
    return run_experiment(spec)


def _cmd_compare(args) -> int:
    spec = parse_config(args.config)
    spec = replace(spec, output={**spec.output, "paired": True})
    return run_experiment(spec)


def _cmd_topology(args) -> int:
    graph = topology.load_edge_list(args.edgelist)
    print(f"nodes: {graph.n}")
    print(f"edges: {len(graph.edges)}")
    for scheme in topology.SCHEMES:
        try:
            cm = topology.build_consensus_matrix(graph, scheme)
            print(f"lambda2 ({scheme}): {cm.lambda2:.12g}")
            lam = cm.lambda2
        except ValueError as exc:
            print(f"lambda2 ({scheme}): unavailable ({exc})")
            continue
        if scheme == "lazy-metropolis":
            print(f"consensus round bound (Lipschitz constant {args.lipschitz}):")
            print("  eps        rounds")
            for eps in (1.0, 0.5, 0.1, 0.01, 0.001):
                rounds = topology.min_consensus_rounds(graph.n, args.lipschitz, eps, lam)
                print(f"  {eps:<9g}  {rounds}")
    return 0


def _cmd_bounds(args) -> int:
    spec = parse_config(args.config)
    seed = _seeds(spec)[0]
    trace = engine.run(build_run_config(spec, seed))
    model = trace.config.objective
    if getattr(model, "w_star", None) is None:
        print("bound constants unavailable for this objective (no analytic minimizer); "
              "nothing to report")
        return 0
    report = metrics.bound_report(trace, _bound_constants(trace))
    print("\n".join(report.lines()))
    return 0


def _cmd_gnuplot(args) -> int:
    print("\n".join([
        "set datafile separator ','",
        "set key autotitle columnhead",
        "set xlabel 'wall time'",
        "set logscale y",
        f"plot '{args.trace}' using 2:7 with lines title 'error gap', \\",
        f"     '{args.trace}' using 2:8 with lines title 'regret'",
    ]))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ambsim",
        description="Simulate fixed-compute-window vs fixed-batch distributed optimization.")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute a config, one run per seed")
    p_run.add_argument("config")
    p_run.set_defaults(func=_cmd_run)
    p_cmp = sub.add_parser("compare", help="paired fixed-window / fixed-batch comparison")
    p_cmp.add_argument("config")
    p_cmp.set_defaults(func=_cmd_compare)
    p_top = sub.add_parser("topology", help="spectral summary and round table for an edge list")
    p_top.add_argument("edgelist")
    p_top.add_argument("--lipschitz", type=float, default=1.0)
    p_top.set_defaults(func=_cmd_topology)
    p_bnd = sub.add_parser("bounds", help="run a config and print its bound report")
    p_bnd.add_argument("config")
    p_bnd.set_defaults(func=_cmd_bounds)
    p_gp = sub.add_parser("gnuplot", help="print a gnuplot script for a trace CSV")
    p_gp.add_argument("trace")
    p_gp.set_defaults(func=_cmd_gnuplot)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
