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
import functools
import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import dualavg, engine, metrics, objectives, timing, topology

__all__ = ["ExperimentSpec", "ConfigError", "parse_config", "run_experiment", "main"]

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


def _is_number(value) -> bool:
    """Whether ``value`` is a finite JSON number within the float range (bools are not)."""
    try:
        return type(value) in (int, float) and math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


_REQUIRED = object()
_AUTO = "a finite number or 'auto'"
_SEED_INT = "an integer"

# Each scalar type: whether a value has it, and how an error names it.
# Seeds may be integers of any size. Every other integer must fit in int64,
# because it sizes arrays or enters float arithmetic. Floats must be finite.
_TYPES = {
    _SEED_INT: (lambda v: type(v) is int, _SEED_INT),
    int: (lambda v: type(v) is int and -2**63 <= v < 2**63, "an integer within int64"),
    float: (_is_number, "a finite number"),
    _AUTO: (_is_number, _AUTO),
    str: (lambda v: type(v) is str, "a string"),
    bool: (lambda v: type(v) is bool, "a boolean"),
}


class _Key(NamedTuple):
    """One config key: its type, its default (or _REQUIRED) and its lower bound.

    ``type`` is a key of ``_TYPES`` (``_AUTO`` is a float or "auto"; floats
    are read as float), a one-item list ``[t]`` for a list of ``t`` (the
    bound applies to each entry), a tuple of the allowed strings, a section
    table, or None for a value that a cross-key rule in `parse_config`
    checks. A key whose default is None also accepts null.
    """

    type: object
    default: object = _REQUIRED
    at_least: float | None = None
    above: float | None = None


class _Kinds(dict):
    """A kinded section's tables: its ``kind`` key picks the table for the other keys."""


# Entries that several tables share.
_SEED = _Key(_SEED_INT, at_least=0)
_POSITIVE = _Key(int, at_least=1)

_SCHEMA = {
    "mode": _Key(engine.MODES),
    "objective": _Key(_Kinds(
        linear_regression={"dim": _POSITIVE, "noise_var": _Key(float, 1e-3, at_least=0),
                           "seed": _SEED},
        logistic_regression={"classes": _Key(int, at_least=2), "dim": _POSITIVE, "seed": _SEED,
                             "csv_path": _Key(str, None), "cluster_spread": _Key(float, 2.0)},
    )),
    "topology": _Key(_Kinds(testbed={}, complete={"n": _POSITIVE}, ring={"n": _POSITIVE},
                          edge_list={"path": _Key(str)})),
    "consensus": _Key({
        "scheme": _Key(topology.SCHEMES, "lazy-metropolis"),
        "rounds": _Key(None, 5),
        "exact_batch_norm": _Key(bool, False),
    }, {}),
    "timing": _Key(_Kinds(
        shifted_exponential={"rate": _Key(float, above=0), "shift": _Key(float, at_least=0),
                             "reference_batch": _POSITIVE},
        deterministic={"period": _Key(float, above=0),
                       "reference_batch": _POSITIVE._replace(default=1)},
        grouped_pause={"group_means": _Key([float]), "group_vars": _Key([float], None, at_least=0),
                       "assignment": _Key([int], at_least=0),
                       "base_gradient_time": _Key(float, 5.0, above=0)},
        trace={"path": _Key(str), "reference_batch": _POSITIVE},
    ), {"kind": "deterministic", "period": 1.0}),
    "schedule": _Key({"offset": _Key(_AUTO, "auto", at_least=0),
                     "work_scale": _Key(_AUTO, "auto", above=0)}, {}),
    "run": _Key({
        "tau": _Key(int, at_least=0),
        "seed": _SEED,
        "compute_time": _Key(_AUTO, 1.0, above=0),
        "communication_time": _Key(float, 0.5, at_least=0),
        "batch": _Key(int, None, at_least=1),
        "radius": _Key(_AUTO, "auto", above=0),
        "holdout": _Key(int, 0, at_least=0),
    }),
    "output": _Key({
        "directory": _Key(str, "out"),
        "repeats": _POSITIVE._replace(default=1),
        "seeds": _Key([_SEED_INT], None, at_least=0),
        "paired": _Key(bool, False),
    }, {}),
}


def _fits(value, kind, key: _Key) -> bool:
    """Whether a scalar ``value`` has type ``kind`` and lies within ``key``'s bound."""
    if kind is _AUTO and value == "auto":
        return True
    return _TYPES[kind][0](value) and not (key.at_least is not None and value < key.at_least
                                           or key.above is not None and value <= key.above)


def _value(value, key: _Key, name: str):
    kind = key.type
    if kind is None:
        return value
    if isinstance(kind, dict):
        return _section(value, kind, name + ".")
    if isinstance(kind, tuple):
        if type(value) is str and value in kind:
            return value
        raise ConfigError(f"key '{name}' must be one of {kind}, got {value!r}")
    if isinstance(kind, list):
        kind, phrase = kind[0], "a list, each entry "
        if type(value) is list and all(_fits(v, kind, key) for v in value):
            return [float(v) for v in value] if kind is float else value
    else:
        phrase = ""
        if _fits(value, kind, key):
            return float(value) if kind is float or kind is _AUTO and value != "auto" else value
    bound = (f" >= {key.at_least:g}" if key.at_least is not None
             else f" > {key.above:g}" if key.above is not None else "")
    raise ConfigError(f"key '{name}' must be {phrase}{_TYPES[kind][1]}{bound}, got {value!r}")


def _section(section, table: dict, prefix: str) -> dict:
    """``section`` checked against ``table``, with every default filled in.

    ``prefix`` is the section's path with a trailing dot, or "" for the root.
    """
    if type(section) is not dict:
        raise ConfigError(f"key '{prefix[:-1]}' must be a JSON object, got {section!r}"
                          if prefix else "config root must be a JSON object")
    out = {}
    if isinstance(table, _Kinds):
        kind = out["kind"] = _value(section.get("kind"), _Key(tuple(table)), prefix + "kind")
        table = table[kind]
    for key in section:
        if key not in table and key not in out:
            raise ConfigError(f"unknown key '{prefix}{key}'")
    for key, entry in table.items():
        name = prefix + key
        value = section.get(key, entry.default)
        if value is _REQUIRED:
            raise ConfigError(f"missing required key '{name}'")
        out[key] = value if value is None and entry.default is None else _value(value, entry, name)
    return out


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
    """Load a JSON experiment config, check it against `_SCHEMA` and fill its defaults.

    Only the rules that relate two keys, or a key to the environment, are
    written out below.
    """
    with open(path, "r", encoding="utf-8") as fh:
        spec = ExperimentSpec(**_section(json.load(fh), _SCHEMA, ""))

    with _naming("consensus.rounds"):
        spec.consensus["rounds"] = engine.round_counts(spec.consensus["rounds"])

    tim = spec.timing
    if tim["kind"] == "grouped_pause":
        groups = len(tim["group_means"])
        if tim["group_vars"] is not None and len(tim["group_vars"]) != groups:
            raise ConfigError("key 'timing.group_vars' must have one entry per group mean")

    seeds = spec.output["seeds"]
    if seeds is not None and (not seeds or len(set(seeds)) != len(seeds)):
        raise ConfigError(f"key 'output.seeds' must list one or more distinct seeds, "
                          f"got {seeds!r}")
    env_seed = os.environ.get("AMB_SEED")
    if env_seed is not None and not (env_seed.isascii() and env_seed.isdigit()):
        raise ConfigError(f"environment variable AMB_SEED must be an integer >= 0, "
                          f"got {env_seed!r}")
    return spec


@contextmanager
def _naming(key: str):
    """Re-raise a ValueError or OSError from loading ``key``'s value as a ConfigError naming it."""
    try:
        yield
    except (ValueError, OSError) as exc:
        raise ConfigError(f"key '{key}': {exc}") from None


def build_objective(section: dict):
    # A weight vector, and each sample's gradient, is one float64 row of dim
    # values (classes * dim for softmax).
    values = section["dim"] * section.get("classes", 1)
    if values * 8 > np.iinfo(np.intp).max:
        raise ConfigError(f"key 'objective.dim' gives rows of {values} values, "
                          "more than one numpy array can hold")
    try:
        if section["kind"] == "linear_regression":
            return objectives.make_linear_regression(section["dim"], section["noise_var"],
                                                     section["seed"])
        make = functools.partial(objectives.make_logistic_regression, section["classes"],
                                 section["dim"], section["seed"],
                                 cluster_spread=section["cluster_spread"])
        if section["csv_path"] is None:
            return make()
        with _naming("objective.csv_path"):
            return make(csv_path=section["csv_path"])
    except MemoryError:
        raise ConfigError(f"key 'objective.dim' gives rows of {values} values, "
                          "more than this host's memory holds") from None


@contextmanager
def _graph_memory(section: dict):
    """Re-raise a MemoryError from building the graph or its mixing matrix as a ConfigError.

    The error names the key that sizes the graph: ``topology.path`` for an
    edge list, ``topology.n`` otherwise.
    """
    try:
        yield
    except MemoryError as exc:
        key = "topology.path" if section["kind"] == "edge_list" else "topology.n"
        raise ConfigError(f"key '{key}' gives a graph that, with its mixing matrix, needs more "
                          f"than this host's memory holds ({exc})") from None


def build_graph(section: dict) -> topology.Graph:
    kind = section["kind"]
    if kind == "testbed":
        return topology.testbed_graph()
    with _graph_memory(section):
        if kind == "complete":
            return topology.complete_graph(section["n"])
        if kind == "ring":
            return topology.ring_graph(section["n"])
        with _naming("topology.path"):
            return topology.load_edge_list(section["path"])


def build_timing(section: dict):
    kind = section["kind"]
    if kind == "shifted_exponential":
        return timing.ShiftedExponential(section["rate"], section["shift"],
                                         section["reference_batch"])
    if kind == "deterministic":
        return timing.DeterministicTiming(section["period"], section["reference_batch"])
    if kind == "grouped_pause":
        variances = section["group_vars"]
        with _naming("timing.assignment"):  # parse_config checks the model's other rules
            return timing.GroupedPauseTiming(
                tuple(section["group_means"]), None if variances is None else tuple(variances),
                tuple(section["assignment"]), section["base_gradient_time"])
    with _naming("timing.path"):
        return timing.load_timing_trace(section["path"], section["reference_batch"])


def _mixing_matrix(spec: ExperimentSpec, config: engine.RunConfig) -> topology.ConsensusMatrix:
    with _graph_memory(spec.topology), _naming("consensus.scheme"):
        return topology.build_consensus_matrix(config.graph, config.scheme)


def _resolve_compute_time(spec, graph, tmodel):
    value = spec.run["compute_time"]
    if value != "auto":
        return value
    if spec.run["batch"] is None:
        raise ConfigError("run.compute_time 'auto' needs run.batch for the matched pairing")
    mean, _ = tmodel.completion_stats(engine._fmb_batches(spec.run["batch"], graph.n))
    return engine.matched_compute_time(spec.run["batch"], graph.n, mean)


def _resolve_schedule(spec, model, graph, tmodel, radius, compute_time, mode) -> dualavg.Schedule:
    offset = spec.schedule["offset"]
    if offset == "auto":
        # The smoothness estimate of estimate_constants, without its variance probes.
        offset = objectives._probe_slopes(model, 48, model.seed + 1_000_003, radius)[0]
    scale = spec.schedule["work_scale"]
    if scale == "auto":
        if mode == "fmb":
            scale = float(spec.run["batch"])
        else:
            scale = tmodel.mean_window_batch(compute_time, graph.n)
    return dualavg.Schedule(offset=float(offset), work_scale=float(scale))


# The key that sets each linear-progress model's least batch time.
_LEAST_TIME_KEY = {"shifted_exponential": "timing.shift", "deterministic": "timing.period",
                   "trace": "timing.path"}


def _epoch_rows(spec: ExperimentSpec, mode: str, tmodel, n: int, window: float):
    """The most samples a node draws in one epoch, and the key that sets most of them.

    In fmb mode a node draws its ceil(batch / n) share. A linear-progress node also
    fits (window + communication time) * reference_batch / ``least_batch_time(n)``
    gradients in its open windows, and a grouped-pause node about (window +
    communication time) / base_gradient_time, named by its longer window's key.
    """
    if mode == "fmb" and spec.run["batch"] is None:
        raise ConfigError("key 'run.batch' is required in fmb mode")
    share = -(-spec.run["batch"] // n) if mode == "fmb" else 0
    comm = spec.run["communication_time"]
    span = window + comm
    if spec.timing["kind"] == "grouped_pause":
        key = "run.compute_time" if window >= comm else "run.communication_time"
        rows = span / tmodel.base_gradient_time
    else:
        key, least = _LEAST_TIME_KEY[spec.timing["kind"]], tmodel.least_batch_time(n)
        if span > 0 and least == 0:
            raise ConfigError(f"key '{key}' is 0, so a batch time can be arbitrarily short "
                              "and nothing bounds the samples a node draws in one window; it "
                              "must be positive when a compute or communication window is open")
        rows = span * spec.timing["reference_batch"] / least if span > 0 else 0
    return ("run.batch" if mode == "fmb" and share >= rows else key), share + rows


def build_run_config(spec: ExperimentSpec, seed: int, mode: str | None = None) -> engine.RunConfig:
    """Materialize one runnable config, resolving every 'auto' placeholder."""
    mode = mode or spec.mode
    model = build_objective(spec.objective)
    graph = topology.complete_graph(1) if mode == "serial" else build_graph(spec.topology)
    tmodel = build_timing(spec.timing)
    paused = spec.timing["kind"] == "grouped_pause"
    with _naming("timing.assignment" if paused else "timing.path"):
        tmodel.check_nodes(graph.n)
    # Serial mode runs node 0 of the configured assignment; other modes give each node one entry.
    if paused and mode != "serial" and len(tmodel.assignment) != graph.n:
        raise ConfigError(f"key 'timing.assignment' has {len(tmodel.assignment)} entries, "
                          f"but the graph has {graph.n} nodes")
    radius = spec.run["radius"]
    if radius == "auto":
        radius = 2.0 * math.sqrt(model.dim) if model.kind == "linear_regression" else 10.0
    compute_time = None
    if mode in ("amb", "serial"):
        compute_time = _resolve_compute_time(spec, graph, tmodel)
    if paused:  # a window over the walk cap fails here
        for key, window in (("run.communication_time", spec.run["communication_time"]),
                            ("run.compute_time", compute_time or 0.0)):
            with _naming(key):
                tmodel.window_pauses(window)
    key, rows = _epoch_rows(spec, mode, tmodel, graph.n, compute_time or 0.0)
    # A node draws its samples of one epoch as one float64 array.
    if rows * model.dim * 8 > np.iinfo(np.intp).max:
        least = (f" at a least batch time of {tmodel.least_batch_time(graph.n):g} s"
                 if key in _LEAST_TIME_KEY.values() else "")
        raise ConfigError(f"key '{key}' gives a node {rows:.3g} samples of dimension "
                          f"{model.dim} in one epoch{least}, more than one numpy array can hold")
    schedule = _resolve_schedule(spec, model, graph, tmodel, radius,
                                 compute_time if compute_time is not None else 1.0, mode)
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
        rounds="exact" if mode == "serial" else spec.consensus["rounds"],
        scheme=spec.consensus["scheme"],
        exact_batch_norm=spec.consensus["exact_batch_norm"],
    )


def _seeds(spec: ExperimentSpec):
    base = int(os.environ.get("AMB_SEED", spec.run["seed"]))
    if spec.output["seeds"] is not None:
        return [int(s) for s in spec.output["seeds"]]
    return [base + i for i in range(int(spec.output["repeats"]))]


def _write_csv(path, header: str, rows):
    """Write ``header`` and one line per row of cells; floats use 17 significant digits."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join([header, *(",".join(map(_fmt, row)) for row in rows)]) + "\n")


def _series(trace: metrics.RunTrace):
    """Wall time, error gap and regret at the start and after each epoch, as lists.

    The run starts at wall 0.0. A series the run did not keep (no holdout,
    no known optimum, or no epochs) reads NaN throughout.
    """
    missing = [math.nan] * (trace.tau + 1)
    gap = trace.error.gap.tolist() if trace.error is not None else missing
    regret = [0.0, *trace.regret.potential.tolist()] if trace.regret is not None else missing
    return [0.0, *trace.wall.tolist()], gap, regret


def write_trace_csv(trace: metrics.RunTrace, path):
    """Write the documented per-epoch trace; floats use 17 significant digits."""
    wall, gap, regret = _series(trace)
    _write_csv(path, TRACE_HEADER, (
        (r.epoch, wall[k], r.global_batch, r.global_potential, int(r.rounds_used.max()),
         r.consensus_error, gap[k], regret[k])
        for k, r in enumerate(trace.records, start=1)))


def write_nodes_csv(trace: metrics.RunTrace, path):
    """Write each epoch's per-node b_i, a_i, c_i = b_i + a_i, rounds r_i and T_i."""
    _write_csv(path, NODES_HEADER, (
        (r.epoch, i, b, a, b + a, rounds, t)
        for r in trace.records
        for i, (b, a, rounds, t) in enumerate(zip(r.batch_sizes.tolist(), r.extra_capacity.tolist(),
                                                  r.rounds_used.tolist(), r.batch_times.tolist()))))


def _run(spec: ExperimentSpec, config: engine.RunConfig) -> metrics.RunTrace:
    """``engine.run``, with a MemoryError named by the key that sizes a node's epoch samples."""
    try:
        return engine.run(config)
    except MemoryError as exc:
        key, _ = _epoch_rows(spec, config.mode, config.timing, config.graph.n,
                             config.compute_time or 0.0)
        raise ConfigError(f"key '{key}' gives a node more samples in one epoch than "
                          f"this host's memory holds ({exc})") from None


def run_experiment(spec: ExperimentSpec) -> int:
    """Execute the spec: one run per seed, paired comparison if requested."""
    outdir = spec.output["directory"]
    paired = spec.output["paired"]
    summary, compare = [], []
    modes = ("amb", "fmb") if paired else (spec.mode,)
    if paired and spec.run["tau"] == 0:
        raise ConfigError("key 'run.tau' is 0, but a paired run compares the epochs of its "
                          "two runs; it needs at least 1")
    # A config depends on its seed only through RunConfig.seed, and every run
    # shares one graph, scheme and holdout. So each mode, the mixing matrix and
    # the holdout are made once, and a rejected config leaves no output directory.
    configs = {mode: build_run_config(spec, spec.run["seed"], mode) for mode in modes}
    matrix = _mixing_matrix(spec, configs[modes[0]])
    count = spec.run["holdout"]
    try:  # numpy raises ValueError for an array beyond its address range
        holdout = configs[modes[0]].objective.holdout(count) if count else None
    except (MemoryError, ValueError) as exc:
        raise ConfigError(f"key 'run.holdout' asks for more samples than one array or "
                          f"this host's memory holds ({exc})") from None
    for seed in _seeds(spec):
        traces, ends = {}, {}
        for mode in modes:
            trace = traces[mode] = _run(spec, replace(configs[mode], seed=seed, matrix=matrix,
                                                      holdout=holdout))
            # Made once a run has finished, so a run that fails leaves no empty directory.
            os.makedirs(outdir, exist_ok=True)
            write_trace_csv(trace, os.path.join(outdir, f"{mode}_seed{seed}.csv"))
            write_nodes_csv(trace, os.path.join(outdir, f"{mode}_seed{seed}_nodes.csv"))
            wall, gap, regret = ends[mode] = [column[-1] for column in _series(trace)]
            summary.append((seed, mode, trace.tau, trace.config.graph.n, matrix.lambda2, wall,
                            trace.processed_total, trace.potential_total, gap, regret))
        if paired:
            report = metrics.speedup_measurement(traces["amb"], traces["fmb"])
            (wall_a, gap_a, _), (wall_f, gap_f, _) = ends["amb"], ends["fmb"]
            # Both runs share the holdout, so both keep an error series or neither does.
            cross = (metrics.time_to_reach(traces["amb"].error, gap_f)
                     if traces["amb"].error is not None else math.nan)
            compare.append((seed, report.compute_time_fixed_window, report.compute_time_fixed_batch,
                            report.ratio, report.bound, wall_a, wall_f, gap_a, gap_f, cross))
    _write_csv(os.path.join(outdir, "summary.csv"), SUMMARY_HEADER, summary)
    if paired:
        _write_csv(os.path.join(outdir, "compare.csv"), COMPARE_HEADER, compare)
    return 0


def _cmd_run(args) -> int:
    spec = parse_config(args.config)
    return run_experiment(spec)


def _cmd_compare(args) -> int:
    spec = parse_config(args.config)
    return run_experiment(replace(spec, output={**spec.output, "paired": True}))


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
    config = build_run_config(spec, _seeds(spec)[0])
    matrix = _mixing_matrix(spec, config)
    model = config.objective
    if getattr(model, "w_star", None) is None:
        print("bound constants unavailable for this objective (no analytic minimizer); "
              "nothing to report")
        return 0
    trace = _run(spec, replace(config, matrix=matrix))
    if trace.tau and not trace.potential_total:
        key, _ = _epoch_rows(spec, config.mode, config.timing, config.graph.n,
                             config.compute_time or 0.0)
        raise ConfigError(f"key '{key}': no node finished a gradient in any epoch, so the "
                          "run did no work and has no regret bound to report")
    est = objectives.estimate_constants(model, probe_count=64,
                                        seed=model.seed + 1_000_003, radius=config.radius)
    h_star = 0.5 * float(np.dot(model.w_star, model.w_star))
    constants = metrics.BoundConstants(
        grad_smoothness=est.grad_smoothness,
        loss_lipschitz=est.loss_lipschitz,
        grad_variance=est.grad_variance,
        diameter=2.0 * config.radius,
        initial_gap=h_star,
        h_star=h_star,
        provenance="estimated (probes) + analytic minimizer",
    )
    print("\n".join(metrics.bound_report(trace, constants).lines()))
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
